"""Each command imports only the modules it runs, and `import rweval`
resolves its public names on first use.

A cold `rweval scope` is one process per binary, so every module it loads
and does not run is start-up time paid on each call. `train` runs on the
standard library alone.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import rweval

from elfbuild import Sec, build_elf

SRC = os.path.dirname(os.path.dirname(rweval.__file__))

# Prints the modules loaded after one cli.main call with the argv in argv[1].
CLI_PROBE = """
import contextlib, io, json, sys
from rweval import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _fresh_modules(code: str, *args: str) -> dict:
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """What a bare interpreter loads on the running host (site, .pth files)."""
    probe = "import json, sys; print(json.dumps({'modules': sorted(sys.modules)}))"
    return set(_fresh_modules(probe)["modules"])


def _loaded_by(argv: list[str], bare: set[str]) -> set[str]:
    probe = _fresh_modules(CLI_PROBE, json.dumps(argv))
    assert probe["rc"] == 0
    return set(probe["modules"]) - bare


@pytest.mark.parametrize("command", ["scope", "features", "size"])
def test_binary_commands_leave_the_campaign_harness_unloaded(tmp_path, bare_modules,
                                                             command):
    path = tmp_path / "sample.elf"
    path.write_bytes(build_elf([Sec(".text", b"\x90" * 16)]))
    loaded = _loaded_by([command, str(path)], bare_modules)
    # fractions is for CART training only
    assert {"rweval.harness", "subprocess", "concurrent.futures", "fractions"} & loaded == set()


def test_report_leaves_scope_unloaded(tmp_path, bare_modules):
    from rweval.harness import RESULTS_COLUMNS

    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULTS_COLUMNS) + "\n"
                    "b0,p,gcc,O0,pie,present,u20,alpha,NOP,na,1,yes,1.0,100,1000\n")
    loaded = _loaded_by(["report", str(path)], bare_modules)
    assert {"rweval.harness", "rweval.report"} <= loaded
    assert {"rweval.scope", "fractions"} & loaded == set()


def test_train_loads_no_third_party_module(tmp_path, bare_modules):
    from rweval.harness import RESULTS_COLUMNS

    entries, rows = [], [",".join(RESULTS_COLUMNS)]
    for i in range(6):
        marked = i % 2 == 0
        path = tmp_path / f"b{i}.elf"
        path.write_bytes(build_elf([Sec(".text", b"\x90" * 16),
                                    *([Sec(".marker", b"\x01")] if marked else [])]))
        entries.append({"id": f"b{i}", "path": str(path), "program": "p",
                        "compiler": "gcc", "flags": "O0", "relocation": "pie",
                        "symbols": "present", "os": "u20"})
        rows.append(f"b{i},p,gcc,O0,pie,present,u20,t,AFL,na,1,"
                    f"{'yes' if marked else 'no'},1.0,100,1000")
    manifest, results = tmp_path / "manifest.json", tmp_path / "results.csv"
    manifest.write_text(json.dumps(entries))
    results.write_text("\n".join(rows) + "\n")
    loaded = _loaded_by(["train", "--results", str(results), "--manifest", str(manifest),
                         "--tool", "t", "--out-model", str(tmp_path / "model.json")],
                        bare_modules)
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) - {"rweval"} == set()


def test_import_rweval_loads_no_submodule():
    probe = "import json, sys, rweval; print(json.dumps({'modules': sorted(sys.modules)}))"
    modules = _fresh_modules(probe)["modules"]
    assert [m for m in modules if m.startswith("rweval.")] == []


@pytest.mark.parametrize("name", rweval.__all__)
def test_each_public_name_is_its_submodules_attribute(name):
    module = importlib.import_module(f"rweval.{rweval._MODULE_OF[name]}")
    assert getattr(rweval, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rweval import *", namespace)
    for name in rweval.__all__:
        assert namespace[name] is getattr(rweval, name)


def test_submodules_resolve_as_attributes():
    assert rweval.harness is importlib.import_module("rweval.harness")
    assert "harness" in dir(rweval) and "TriState" in dir(rweval)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rweval.no_such_name  # noqa: B018
    assert getattr(rweval, "no_such_name", None) is None
