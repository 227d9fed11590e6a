"""The paper's pipeline on real binaries and real binary-transforming tools.

None of the paper's rewriters can be assumed installed, but binutils can act
as rewriters whose outcomes are known. Each `hello_variants` gcc build
(-O0/-O1/-O2 x PIE/non-PIE x kept/stripped) goes through three NOP
"rewriters":

- identity: `objcopy {input} {output}`;
- strip: `strip -o {output} {input}`;
- no-init-array: `objcopy --remove-section .init_array {input} {output}`.

The premise of the no-init-array checks is that a non-PIE build without
.init_array crashes (exit 139) while a PIE build still runs. That crash comes
from the non-PIE start-up code of the gcc and glibc that build the binaries;
it was seen with Debian 12's gcc 12.2, glibc 2.36 and binutils 2.40. On a
toolchain whose start-up code does not need .init_array, those checks fail.

The success table's AFL columns are not checked: with --tasks NOP they read
0 and 0.00%, as a task that no row holds counts as failed against the cohort
(tests/test_report.py pins that reading).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil

import pytest

from rweval.cli import main

pytestmark = pytest.mark.skipif(shutil.which("objcopy") is None,
                                reason="needs objcopy on PATH")

TOOLS = {
    "identity": "objcopy {input} {output}",
    "strip": "strip -o {output} {input}",
    "no-init-array": "objcopy --remove-section .init_array {input} {output}",
}


def _main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def campaign(hello_variants, tmp_path_factory):
    """The NOP campaign of TOOLS over the gcc builds, with its outputs kept:
    (manifest, results CSV, outputs dir, {binary id: variant})."""
    root = tmp_path_factory.mktemp("real_tools")
    variants = {v.name: v for v in hello_variants if v.compiler == "gcc"}
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps([
        {"id": name, "path": str(v.path), "program": "hello", "compiler": v.compiler,
         "flags": v.opt, "relocation": "pie" if v.pie else "nopie",
         "symbols": "stripped" if v.stripped else "present", "os": "local"}
        for name, v in variants.items()]))
    adapters = root / "adapters.json"
    adapters.write_text(json.dumps([{"tool_name": tool, "nop_command": command}
                                    for tool, command in TOOLS.items()]))
    results, outputs = root / "results.csv", root / "outputs"
    code, _, err = _main("run", "--manifest", manifest, "--adapters", adapters,
                         "--out", results, "--tasks", "NOP", "--parallelism", "2",
                         "--keep-outputs", outputs)
    assert (code, err) == (0, "")
    return manifest, results, outputs, variants


def _rows(results) -> dict[tuple[str, str], dict[str, str]]:
    with open(results, newline="") as f:
        return {(r["binary_id"], r["tool"]): r for r in csv.DictReader(f)}


def test_every_job_ran_and_exited(campaign):
    _, results, _, variants = campaign
    rows = _rows(results)
    assert set(rows) == {(name, tool) for name in variants for tool in TOOLS}
    assert {r["exe"] for r in rows.values()} == {"1"}


def test_identity_and_strip_pass_the_null_test_on_every_build(campaign):
    _, results, _, variants = campaign
    rows = _rows(results)
    for tool in ("identity", "strip"):
        assert {name: rows[name, tool]["func"] for name in variants} == \
            dict.fromkeys(variants, "yes")


def test_dropping_init_array_fails_the_null_test_on_exactly_the_non_pie_builds(campaign):
    _, results, _, variants = campaign
    rows = _rows(results)
    assert {name: rows[name, "no-init-array"]["func"] for name in variants} == \
        {name: "yes" if v.pie else "no" for name, v in variants.items()}


def test_strip_output_is_smaller_than_every_unstripped_original(campaign):
    _, results, _, variants = campaign
    rows = _rows(results)
    for name, v in variants.items():
        if not v.stripped:
            assert int(rows[name, "strip"]["out_size_bytes"]) < v.path.stat().st_size


def test_size_table(campaign):
    manifest, results, _, _ = campaign
    code, out, err = _main("report", results, "--table", "size", "--manifest", manifest,
                           "--format", "json")
    assert (code, err) == (0, "")
    pct = json.loads(out)
    assert pct["identity"] == 100.0
    assert 90 < pct["strip"] < pct["no-init-array"] < 100


def test_sections_table_shows_the_removed_sections_as_na(campaign):
    manifest, results, outputs, _ = campaign
    code, out, err = _main("report", results, "--table", "sections", "--manifest",
                           manifest, "--outputs", outputs, "--format", "json")
    assert (code, err) == (0, "")
    sections = json.loads(out)["sections"]
    na = {tool: {s for s, row in sections.items() if row[tool] is None} for tool in TOOLS}
    # .bss has no bytes on disk to compare
    assert na == {"identity": {".bss"}, "strip": {".bss", ".symtab", ".strtab"},
                  "no-init-array": {".bss", ".init_array"}}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_puts_pi_at_the_root(campaign, tmp_path, seed):
    manifest, results, _, _ = campaign
    model = tmp_path / "model.json"
    code, out, err = _main("train", "--results", results, "--manifest", manifest,
                           "--tool", "no-init-array", "--task", "NOP", "--seed", seed,
                           "--out-model", model)
    assert (code, err) == (0, "")
    assert out.startswith("test accuracy: 100.00% ")
    assert json.loads(model.read_text())["root"]["feature"] == "pi"


def test_scope_with_the_trained_model_predicts_the_crash(campaign, tmp_path):
    manifest, results, _, variants = campaign
    models = tmp_path / "models"
    models.mkdir()
    code, _, err = _main("train", "--results", results, "--manifest", manifest,
                         "--tool", "no-init-array", "--task", "NOP",
                         "--out-model", models / "no-init-array.json")
    assert (code, err) == (0, "")
    for name, outcome in (("gcc-O1-nopie-symbols", "FAIL"), ("gcc-O1-pie-symbols", "PASS")):
        code, out, err = _main("scope", variants[name].path, "--models", models,
                               "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["predictions"]["no-init-array"]["outcome"] == outcome
