"""Tests of the benchmark's own generators and oracles."""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import bench_gen  # noqa: E402
from bench_check import ElfOracle, check_elf_calls, split_output  # noqa: E402
from bench_ops import call_main  # noqa: E402
from rweval.harness import RESULTS_COLUMNS, row_to_record  # noqa: E402

needs_gcc = pytest.mark.skipif(
    not (shutil.which("gcc") and shutil.which("strip")), reason="needs gcc and strip")
needs_readelf = pytest.mark.skipif(not shutil.which("readelf"), reason="needs readelf")


def test_results_csv_is_valid_and_seeded(tmp_path):
    path, again, other = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    rows = bench_gen.write_results_csv(path, seed=7, n_binaries=40)
    bench_gen.write_results_csv(again, seed=7, n_binaries=40)
    bench_gen.write_results_csv(other, seed=8, n_binaries=40)
    assert rows == 40 * len(bench_gen.PAPER_TOOLS) * 2
    assert path.read_bytes() == again.read_bytes()
    assert path.read_bytes() != other.read_bytes()

    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert tuple(reader.fieldnames) == RESULTS_COLUMNS
        records = [row_to_record(row) for row in reader]  # RunRecord checks invariants
    keys = [(r.binary_id, r.tool_name, r.task.value) for r in records]
    assert keys == sorted(set(keys))
    assert len({r.binary_id for r in records}) == 40
    assert any(r.func_ok.value == "yes" for r in records)
    assert any(not r.exe_ok for r in records)


def test_plans_have_fixed_shares():
    import random

    a = bench_gen.plans(random.Random(1), 256)
    b = bench_gen.plans(random.Random(2), 256)
    assert a != b
    assert Counter(a) == Counter(b)
    kinds = Counter(p.kind for p in a)
    assert kinds == {"shlib": 166, "pie": 86, "nopie": 2, "relobj": 2}
    # per size decile, as in the corpus: relocatable objects are the smallest files
    assert all(p.kind != "relobj" for p in a[25:])
    assert Counter(p.symbols for p in a) == {"stripped": 253, "symbols": 2, "debug": 1}


def test_size_schedule_tracks_the_host_corpus():
    sizes = sorted(bench_gen.size_schedule(seed=3))
    assert 30_000 < sizes[len(sizes) // 2] < 46_000
    assert 20_000_000 < sizes[int(len(sizes) * 0.99)] < 32_000_000
    assert max(sizes) < 32 * 2**20


@needs_readelf
@pytest.mark.parametrize("kind", sorted(bench_gen.KINDS))
def test_synthetic_images_match_their_construction(tmp_path, kind):
    import random

    rng = random.Random(kind)
    path = tmp_path / f"{kind}.elf"
    facts = bench_gen._synth_image(rng, path, bench_gen.Plan(kind, "debug"), 50_000)
    entry = {"path": str(path), **facts}
    oracle = ElfOracle()
    elf_type, names = oracle.facts(str(path))
    assert (elf_type, names) == (facts["elf_type"], facts["sections"])
    _, scope_out = call_main(["scope", "--format", "json", str(path)])
    _, size_out = call_main(["size", "--format", "json", str(path)])
    assert check_elf_calls(oracle, split_output(scope_out + size_out),
                           ("scope", "size"), entry) == []


@pytest.mark.parametrize("kind", bench_gen.BAD_KINDS)
def test_bad_images_are_rejected_with_exit_2(tmp_path, kind):
    import random

    path = tmp_path / kind
    facts = bench_gen._bad_image(random.Random(kind), path, kind)
    _, out = call_main(["scope", "--format", "json", str(path)])
    assert check_elf_calls(ElfOracle(), split_output(out), ("scope",),
                           {"path": str(path), **facts}) == []


@needs_readelf
def test_oracle_rejects_a_wrong_verdict(tmp_path):
    import random

    path = tmp_path / "x.elf"
    facts = bench_gen._synth_image(random.Random(0), path, bench_gen.Plan("pie", "symbols"),
                                   20_000)
    _, out = call_main(["scope", "--format", "json", str(path)])
    rc, stdout, stderr = split_output(out)[0]
    obj = json.loads(stdout)
    pred = obj["predictions"]["ddisasm"]
    pred["outcome"] = "PASS" if pred["outcome"] == "FAIL" else "FAIL"
    tampered = f"rc={rc}\n{json.dumps(obj)}\n--stderr--\n{stderr}"
    errors = check_elf_calls(ElfOracle(), split_output(tampered), ("scope",),
                             {"path": str(path), **facts})
    assert errors and "ddisasm" in errors[0]


@needs_gcc
def test_stub_adapters_give_their_intended_outcomes(tmp_path, monkeypatch):
    from rweval.cli import main

    programs = bench_gen.build_programs(tmp_path / "cache")
    assert len(programs["hello"]) == 16
    manifest = bench_gen.campaign_manifest(seed=1, programs=programs)[:2]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    (tmp_path / "a.json").write_text(json.dumps(bench_gen.stub_adapters(programs["other"])))
    log = tmp_path / "runs.log"
    monkeypatch.setenv("PERFBENCH_RUN_LOG", str(log))
    out = tmp_path / "out.csv"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["run", "--manifest", str(tmp_path / "m.json"),
                   "--adapters", str(tmp_path / "a.json"), "--out", str(out),
                   "--parallelism", "2", "--afl-driver", "true"])
    assert rc == 0
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 2 * len(bench_gen.STUB_EXPECTED) * 2
    paths = {m["id"]: m["path"] for m in manifest}
    for row in rows:
        want = bench_gen.STUB_EXPECTED[row["tool"]][row["task"]]
        assert (row["ir"], row["exe"], row["func"]) == want, row
        assert row["out_size_bytes"] == bench_gen.stub_expected_size(
            row["tool"], paths[row["binary_id"]], programs["other"])
    # the test programs log their runs: each original ran, at most once per null test
    originals = [line for line in log.read_text().splitlines() if line in paths.values()]
    null_tests = sum(1 for r in rows if r["task"] == "NOP" and r["func"] != "na")
    assert set(originals) == set(paths.values())
    assert len(originals) <= null_tests


def test_benchmark_json_matches_the_metrics_printed():
    from run import END_TO_END, PER_LAYER, WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_pace_scales_each_op_by_the_chunks_around_it():
    from bench_pace import NOMINAL_CHUNK_S as n
    from bench_pace import WINDOW, scaled

    # the host slows threefold after the first op: the second op ran between
    # a fast and a slow stretch, the third within the slow one
    ops = [(0.01, [n] * WINDOW), (0.01, [3 * n] * WINDOW), (0.01, [3 * n] * WINDOW)]
    assert scaled(ops) == pytest.approx([0.01, 0.005, 0.01 / 3])
    # few chunks per op: the pool widens over the neighbours
    assert scaled([(0.01, [2 * n])] * (2 * WINDOW)) == pytest.approx([0.005] * 2 * WINDOW)
    assert scaled([(0.3, [n / 2])]) == pytest.approx([0.6])


def test_tracer_keeps_each_threads_spans_nested():
    import threading

    from bench_trace import Tracer

    tracer = Tracer()

    def work():
        for _ in range(300):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 4 * 300 * 2
    for span in tracer.spans:
        if span.name == "inner":
            parent = tracer.spans[span.parent]
            assert (parent.name, parent.thread) == ("outer", span.thread)
