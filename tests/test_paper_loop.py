"""The paper's loop end to end, on a synthetic campaign whose answer is known.

A seeded corpus of synthetic ELF images is rewritten by three stub AFL tools
whose success rules are known: `pies` fails on a position-independent binary
(ET_DYN), `syms` fails on one with a `.symtab`, and `coin`, the negative
control, fails on a seeded hash of the file name, which no feature can
express. `rweval run` measures them, `rweval train` learns each tool's rule
from the results, and `rweval scope --models` applies the learned trees.

The stubs use only `sh`, `od`, `grep`, `cksum` and `cp`. The images are
written without execute permission and the AFL driver is `true`, so no
synthetic image is ever run.
"""

from __future__ import annotations

import csv
import json
import random
import statistics

import pytest

from rweval.cli import main

from elfbuild import ET_DYN, ET_EXEC, SHT_SYMTAB, Sec, build_elf

N_BINARIES = 150
SEED = 29
SECTION_POOL = (".init_array", ".fini_array", ".eh_frame", ".eh_frame_hdr", ".rodata",
                ".data", ".got", ".plt", ".gcc_except_table", ".tdata")
COIN_SALT = "coin-29"

# Each stub takes {input} {output}: it copies its input on success and
# writes nothing on failure.
STUBS = {
    # e_type is the byte at offset 16; ET_DYN is 3
    "pies": '[ "$(od -An -tu1 -j16 -N1 "$1" | tr -d " ")" = 3 ] && exit 1\n',
    "syms": 'grep -qaF .symtab "$1" && exit 1\n',
    "coin": ('h=$(printf %s "' + COIN_SALT + '$(basename "$1")" | cksum | cut -d" " -f1)\n'
             '[ $((h % 2)) = 0 ] && exit 1\n'),
}

# coin's median held-out accuracy over 5 seeds may differ from the larger
# class's share of the corpus by at most this much. One 45-row test split
# at p = 0.5 has a standard error of 0.075; a tree that could read the
# label would score near 1.0, far outside the margin.
COIN_MARGIN = 0.10


def _image(rng: random.Random) -> tuple[bytes, bool, bool]:
    """A random image, whether it is ET_DYN, and whether it has a .symtab."""
    pie, symbols = rng.random() < 0.5, rng.random() < 0.5
    sections = [Sec(".text", b"\x90" * 16)]
    sections += [Sec(name, b"\x00" * 8) for name in SECTION_POOL if rng.random() < 0.5]
    if symbols:
        sections.append(Sec(".symtab", b"\x00" * 24, sh_type=SHT_SYMTAB))
    return build_elf(sections, elf_type=ET_DYN if pie else ET_EXEC), pie, symbols


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The corpus, the stubs, and the results of `rweval run` over them."""
    root = tmp_path_factory.mktemp("loop")
    rng = random.Random(SEED)
    entries, facts = [], {}
    for i in range(N_BINARIES):
        image, pie, symbols = _image(rng)
        path = root / f"b{i:03d}.elf"
        path.write_bytes(image)
        path.chmod(0o644)
        entries.append({"id": f"b{i:03d}", "path": str(path), "program": f"p{i:03d}",
                        "compiler": "gcc", "flags": "O0",
                        "relocation": "pie" if pie else "nopie",
                        "symbols": "present" if symbols else "stripped", "os": "u20"})
        facts[f"b{i:03d}"] = {"pie": pie, "symbols": symbols, "path": str(path)}
    adapters = []
    for tool, rule in STUBS.items():
        script = root / f"{tool}.sh"
        script.write_text(rule + 'exec cp "$1" "$2"\n')
        command = f"sh {script} {{input}} {{output}}"
        adapters.append({"tool_name": tool, "nop_command": command, "afl_command": command})
    manifest, adapters_path = root / "manifest.json", root / "adapters.json"
    manifest.write_text(json.dumps(entries))
    adapters_path.write_text(json.dumps(adapters))
    results = root / "results.csv"
    assert main(["run", "--manifest", str(manifest), "--adapters", str(adapters_path),
                 "--out", str(results), "--tasks", "AFL", "--afl-driver", "true",
                 "--parallelism", "2"]) == 0
    with open(results, newline="") as f:
        rows = list(csv.DictReader(f))
    return {"root": root, "manifest": manifest, "results": results, "rows": rows,
            "facts": facts}


def _train(capsys, campaign, tool: str, seed: int, out_model) -> tuple[str, dict]:
    code = main(["train", "--results", str(campaign["results"]),
                 "--manifest", str(campaign["manifest"]), "--tool", tool, "--task", "AFL",
                 "--seed", str(seed), "--out-model", str(out_model)])
    out = capsys.readouterr().out
    assert code == 0, out
    return out, json.loads(out_model.read_text())


def _held_out_accuracy(out: str) -> float:
    # "test accuracy: 55.56% (105 train / 45 test rows)"
    return float(out.split("test accuracy: ", 1)[1].split("%", 1)[0]) / 100


def test_func_is_yes_exactly_when_the_stub_wrote_an_elf(campaign):
    rows, facts = campaign["rows"], campaign["facts"]
    assert len(rows) == 3 * N_BINARIES
    assert {row["task"] for row in rows} == {"AFL"}
    for row in rows:
        fact = facts[row["binary_id"]]
        assert (row["func"] == "yes") is (row["exe"] == "1"), row
        assert row["relocation"] == ("pie" if fact["pie"] else "nopie")
        assert row["symbols"] == ("present" if fact["symbols"] else "stripped")
        if row["tool"] == "pies":
            assert (row["exe"] == "1") is not fact["pie"], row
        elif row["tool"] == "syms":
            assert (row["exe"] == "1") is not fact["symbols"], row
    coin = [row["func"] == "yes" for row in rows if row["tool"] == "coin"]
    assert 0 < sum(coin) < len(coin)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tool,root", [("pies", "pi"), ("syms", "strip")])
def test_train_learns_each_rule_exactly(capsys, campaign, tmp_path, tool, root, seed):
    out, model = _train(capsys, campaign, tool, seed, tmp_path / f"{tool}.json")
    assert "test accuracy: 100.00% (105 train / 45 test rows)" in out
    assert model["accuracy"] == 100.0
    assert model["root"]["feature"] == root


def test_scope_applies_the_learned_rules(capsys, campaign, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    for tool in ("pies", "syms"):
        _train(capsys, campaign, tool, 0, models / f"{tool}.json")
    facts = campaign["facts"].values()
    for tool, fact in (("pies", "pie"), ("syms", "symbols")):
        for has_it in (True, False):
            path = next(f["path"] for f in facts if f[fact] is has_it)
            assert main(["scope", path, "--models", str(models), "--format", "json"]) == 0
            verdicts = json.loads(capsys.readouterr().out)["predictions"]
            assert set(verdicts) == {"pies", "syms"}
            assert verdicts[tool]["outcome"] == ("FAIL" if has_it else "PASS"), (tool, path)


def test_a_coin_is_not_learned(capsys, campaign, tmp_path):
    passes = sum(row["func"] == "yes" for row in campaign["rows"] if row["tool"] == "coin")
    majority = max(passes, N_BINARIES - passes) / N_BINARIES
    scores = [_held_out_accuracy(_train(capsys, campaign, "coin", seed,
                                        tmp_path / f"coin{seed}.json")[0])
              for seed in range(5)]
    assert abs(statistics.median(scores) - majority) <= COIN_MARGIN, (scores, majority)
