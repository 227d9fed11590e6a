"""The benchmark's traced run wraps rweval functions by module attribute.

A refactor that renames or bypasses one of them breaks `perfbench/run.py
--trace 1`; these tests make it break the test suite first.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from elfbuild import Sec, build_elf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_ops():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench_ops")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_layer_target_resolves(bench_ops):
    targets = [(module, attr) for workload in bench_ops.WORKLOADS.values()
               for module, attr, *_ in workload.layers]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if getattr(importlib.import_module(module), attr, None) is None]
    assert missing == []


def test_size_path_crosses_each_scope_batch_layer_once_per_file(bench_ops, tmp_path):
    from bench_trace import Tracer

    from rweval import cli

    path = tmp_path / "sample.elf"
    path.write_bytes(build_elf([Sec(".text", b"\x90" * 16)]))
    tracer = Tracer()
    assert tracer.install(bench_ops.ScopeBatch.layers) == []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["size", str(path), str(path)]) == 0
    finally:
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    assert counts["io.read"] == counts["elf.parse_elf"] == counts["elf.size_profile"] == 2


def test_scope_path_crosses_each_scope_batch_layer(bench_ops, tmp_path):
    from bench_trace import Tracer

    from rweval import cli

    path = tmp_path / "sample.elf"
    path.write_bytes(build_elf([Sec(".text", b"\x90" * 16)]))
    tracer = Tracer()
    assert tracer.install(bench_ops.ScopeBatch.layers) == []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scope", str(path)]) == 0
    finally:
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    assert counts == Counter({"cli.main": 1, "io.read": 1, "elf.parse_elf": 1,
                              "features.extract_features": 1,
                              "scope.builtin_models": 1, "dtree.predict": 5})


@pytest.mark.parametrize("table,crossed", [
    ("success", ["harness.load_records_csv", "report.make_cohort",
                 "report.success_table", "report.render"]),
    ("comparative", ["harness.load_records_csv", "report.comparative_average",
                     "report.render"]),
])
def test_report_crosses_each_report_paper_layer_once(bench_ops, tmp_path, table,
                                                     crossed):
    from bench_trace import Tracer

    from rweval import cli
    from rweval.harness import RESULTS_COLUMNS

    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULTS_COLUMNS) + "\n"
                    "b0,p,gcc,O0,pie,present,u20,alpha,NOP,na,1,yes,1.0,100,1000\n")
    tracer = Tracer()
    assert tracer.install(bench_ops.ReportPaper.layers) == []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report", str(path), "--table", table]) == 0
    finally:
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    assert counts == Counter(["cli.main", *crossed])
