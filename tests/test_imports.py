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


def _binary_argv(tmp_path, command: str) -> list[str]:
    path = tmp_path / "sample.elf"
    path.write_bytes(build_elf([Sec(".text", b"\x90" * 16)]))
    return [command, str(path)]


def _report_argv(tmp_path) -> list[str]:
    from rweval.harness import RESULTS_COLUMNS

    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULTS_COLUMNS) + "\n"
                    "b0,p,gcc,O0,pie,present,u20,alpha,NOP,na,1,yes,1.0,100,1000\n")
    return ["report", str(path)]


def _train_argv(tmp_path) -> list[str]:
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
    return ["train", "--results", str(results), "--manifest", str(manifest),
            "--tool", "t", "--out-model", str(tmp_path / "model.json")]


def _run_argv(tmp_path) -> list[str]:
    binary = _binary_argv(tmp_path, "run")[1]
    manifest, adapters = tmp_path / "manifest.json", tmp_path / "adapters.json"
    manifest.write_text(json.dumps([{
        "id": "b0", "path": binary, "program": "p", "compiler": "gcc", "flags": "O0",
        "relocation": "pie", "symbols": "present", "os": "u20"}]))
    adapters.write_text(json.dumps([{
        "tool_name": "t", "nop_command": "cp {input} {output}",
        "afl_command": "cp {input} {output}"}]))
    return ["run", "--manifest", str(manifest), "--adapters", str(adapters),
            "--out", str(tmp_path / "out.csv"), "--tasks", "AFL", "--afl-driver", "true"]


@pytest.mark.parametrize("command", ["scope", "features", "size"])
def test_binary_commands_leave_the_campaign_harness_unloaded(tmp_path, bare_modules,
                                                             command):
    loaded = _loaded_by(_binary_argv(tmp_path, command), bare_modules)
    # fractions is for CART training only
    assert {"rweval.harness", "subprocess", "concurrent.futures", "fractions"} & loaded == set()


def test_report_leaves_scope_unloaded(tmp_path, bare_modules):
    loaded = _loaded_by(_report_argv(tmp_path), bare_modules)
    assert {"rweval.harness", "rweval.report"} <= loaded
    assert {"rweval.scope", "fractions"} & loaded == set()


# The results-row vocabulary (Task, Label, STATES) lives in rweval.variant,
# so the measuring half never loads the scoping half's trees and features.
@pytest.mark.parametrize("command", ["report", "size"])
def test_report_and_size_leave_the_trees_and_features_unloaded(tmp_path, bare_modules,
                                                               command):
    argv = _report_argv(tmp_path) if command == "report" else _binary_argv(tmp_path, command)
    loaded = _loaded_by(argv, bare_modules)
    assert "rweval.variant" in loaded
    assert {"rweval.dtree", "rweval.features"} & loaded == set()


def test_features_leaves_the_trees_unloaded(tmp_path, bare_modules):
    loaded = _loaded_by(_binary_argv(tmp_path, "features"), bare_modules)
    assert "rweval.features" in loaded and "rweval.dtree" not in loaded


# The training procedure lives in rweval.training, so the commands that only
# walk trees, or none, never load the code that grows them.
@pytest.mark.parametrize("command", ["scope", "features", "size", "report", "run", "train"])
def test_only_train_loads_the_training_procedure(tmp_path, bare_modules, command):
    argv = {"report": _report_argv, "run": _run_argv, "train": _train_argv}.get(
        command, lambda tmp: _binary_argv(tmp, command))(tmp_path)
    loaded = _loaded_by(argv, bare_modules)
    assert ("rweval.training" in loaded) is (command == "train")


# The value classes are frozen records (rweval.util.record): dataclasses
# would pull in inspect, ast, dis and tokenize at every cold start.
@pytest.mark.parametrize("command", ["scope", "features", "size", "report"])
def test_cold_commands_load_no_dataclasses(tmp_path, bare_modules, command):
    argv = _report_argv(tmp_path) if command == "report" else _binary_argv(tmp_path, command)
    loaded = _loaded_by(argv, bare_modules)
    assert {"dataclasses", "inspect"} & loaded == set()


@pytest.mark.parametrize("command", ["report", "train"])
def test_results_commands_leave_the_process_runner_unloaded(tmp_path, bare_modules, command):
    argv = _report_argv(tmp_path) if command == "report" else _train_argv(tmp_path)
    loaded = _loaded_by(argv, bare_modules)
    assert "rweval.harness" in loaded
    assert {"subprocess", "select", "concurrent.futures"} & loaded == set()


# CLI_PROBE with the results loaded in up to argv[2] parts: MIN_PART_BYTES 1
# and argv[2] usable CPUs, or one part when argv[2] is 1; also prints how many
# processes the call forked.
PARTS_PROBE = """
import contextlib, io, json, os, sys
from rweval import cli, harness
parts = int(sys.argv[2])
harness.MIN_PART_BYTES = 1 if parts > 1 else 1 << 62
os.sched_getaffinity = lambda pid: set(range(parts))
forked, fork = [], os.fork
def counted_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid
os.fork = counted_fork
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "forked": len(forked), "modules": sorted(sys.modules)}))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="a load is cut into parts only where it can fork")
def test_report_in_parts_loads_no_more_modules(tmp_path, bare_modules):
    from rweval.harness import RESULTS_COLUMNS

    path = tmp_path / "results.csv"
    path.write_text("".join([",".join(RESULTS_COLUMNS) + "\n", *(
        f"b{i},p,gcc,O0,pie,present,u20,alpha,NOP,na,1,yes,1.0,100,1000\n"
        for i in range(8))]))
    argv = json.dumps(["report", str(path)])
    one, parts = (_fresh_modules(PARTS_PROBE, argv, str(n)) for n in (1, 2))
    assert (one["rc"], one["forked"], parts["rc"], parts["forked"]) == (0, 0, 0, 1)
    loaded = set(parts["modules"]) - bare_modules
    assert loaded - set(one["modules"]) == set()
    assert {"multiprocessing", "pickle", "concurrent.futures"} & loaded == set()


def test_train_loads_no_third_party_module(tmp_path, bare_modules):
    loaded = _loaded_by(_train_argv(tmp_path), bare_modules)
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


# The attribute test above still passes when the map names a module that only
# re-exports a name; this one fails once a name moves and the map does not.
@pytest.mark.parametrize("name", rweval.__all__)
def test_each_public_name_is_defined_where_exports_says(name):
    defined_in = getattr(getattr(rweval, name), "__module__", None)
    assert defined_in in (None, f"rweval.{rweval._MODULE_OF[name]}")


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
