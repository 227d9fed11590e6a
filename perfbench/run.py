"""Layered benchmark of rweval's scope, report and campaign paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  This process stays small: it generates
nothing and imports no rweval code.  It starts one child per step (input
generation, set-up probes, the timed or traced run, the correctness check)
and meters each with wait4.  The kernel carries a parent's peak RSS into a
child's ru_maxrss across fork+exec, so a small parent keeps the children's
peak_rss_mb honest.

--trace 0 prints the end-to-end metrics of the named workload, taken over
every op of the run's whole cycles of ops.  Their times are scaled to a
nominal host speed measured between ops (bench_pace), because the shared
host's own speed drifts by more than the bounds; the raw wall times are
printed beside them.  --trace 1 runs each workload's
traced step, so that every per-layer metric is measured on the workload
whose path crosses that layer, and prints them with the tracing overhead of
the named workload; the spans of each traced step are kept in
.bench_build/perfbench-spans/seed-N/.  Human-readable lines come first; the
last line of stdout is the JSON result.  The exit code is 0 only when
every output matched its oracle.

The benchmark does not drop the page cache (that needs privileges it should
not have), so inputs are read warm and cold-I/O cost is not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import bench_pace
from bench_ops import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Workloads timed end to end.  scope_cold is traced only: its cost (a fresh
# interpreter importing rweval and answering one call) is what setup_s times
# for every workload, and timing it as a workload of its own cost the budget
# that longer runs of the others need on a noisy host.  campaign_stub is
# traced only because no host-speed reference tracks it (see bench_pace).
WORKLOADS = ("scope_batch", "report_paper")
TRACED = ("scope_batch", "scope_cold", "report_paper", "campaign_stub")
NEEDED = ("src/rweval/cli.py", "tests/elfbuild.py", "tests/oracles.py",
          "tests/transliterations.py")
SETUP_REPEATS = 11
# Seconds allowed for all but the timed loop: input generation, set-up
# probes and the check, or the whole traced run.
MARGIN_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
# per-layer metric -> (unit, the end-to-end metric it should move)
_BATCH_TAIL = "scope_batch latency_ms_tail"
_BATCH_P50 = "scope_batch latency_ms_p50"
_COLD = "setup_s of every workload, not scope_batch latency"
_REPORT = "report_paper latency_ms_p50 and peak_rss_mb"
_CAMPAIGN = "campaign op time (campaign_stub is traced only)"
PER_LAYER = {
    "io.read_mb": ("MB", _BATCH_TAIL),
    "io.read_us_p99": ("us", _BATCH_TAIL),
    "elf.parse_elf_us_p50": ("us", _BATCH_TAIL),
    "elf.parse_elf_us_p99": ("us", _BATCH_TAIL),
    "elf.size_profile_us_p50": ("us", _BATCH_TAIL),
    "scope.builtin_models_us_p50": ("us", _BATCH_P50),
    "features.extract_features_us_p50": ("us", _BATCH_P50),
    "dtree.predict_us_p50": ("us", _BATCH_P50),
    "cli.self_us_p50": ("us", _BATCH_P50),
    "python.start_ms": ("ms", "setup_s of every workload (its floor)"),
    "cli.import_ms": ("ms", _COLD),
    "cli.numpy_loaded": ("0/1", _COLD),
    "cli.main_ms": ("ms", _COLD),
    "harness.load_records_csv_ms": ("ms", _REPORT),
    "report.make_cohort_ms": ("ms", _REPORT),
    "report.success_table_ms": ("ms", _REPORT),
    "report.comparative_average_ms": ("ms", _REPORT),
    "report.render_ms": ("ms", _REPORT),
    "cli.report_self_ms": ("ms", _REPORT),
    "harness.run_task_ms_p50": ("ms", _CAMPAIGN),
    "harness.tool_runtime_ms_p50": ("ms", _CAMPAIGN),
    "harness.spawn_overhead_ms_p50": ("ms", _CAMPAIGN),
    "harness.null_function_test_ms_p50": ("ms", _CAMPAIGN),
    "harness.afl_function_test_ms_p50": ("ms", _CAMPAIGN),
    "harness.write_records_csv_ms": ("ms", _CAMPAIGN),
    "harness.original_runs_per_job": ("runs/job", _CAMPAIGN),
    "harness.reported_mem_kb_p50": ("KB", "none: fidelity of the campaign's mem_kb"),
    "trace.overhead_pct": ("%", "none: cost of tracing the named workload"),
}
# the issue's names for the end-to-end figures of each workload:
# (name, metric above, scale, unit)
ALIASES = {
    "scope_batch": [("scope_ms_p50", "latency_ms_p50", 1, "ms"),
                    ("scope_ms_p99", "latency_ms_tail", 1, "ms"),
                    ("scope_files_per_s", "throughput_per_s", 1, "1/s")],
    "report_paper": [("report_s_p50", "latency_ms_p50", 1e-3, "s")],
}


class BenchError(Exception):
    pass


class Children:
    """Starts one child at a time in its own session, meters it with wait4,
    and kills its whole process group when the run's deadline passes."""

    def __init__(self, deadline: float, env: dict):
        self.deadline = deadline
        self.env = env
        self.current: subprocess.Popen | None = None

    def run(self, argv: list[str], stdout=None) -> tuple[float, int]:
        """Run argv to completion; return (wall seconds, peak RSS in KB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=stdout if stdout is not None else sys.stderr,
                                start_new_session=True)
        self.current = proc
        reaped = threading.Event()
        expired = threading.Event()

        def on_deadline():
            if not reaped.is_set():
                expired.set()
                self._kill(proc)

        timer = threading.Timer(remaining, on_deadline)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        wall = time.perf_counter() - start
        if expired.is_set():
            raise BenchError(f"{argv[1:3]} ran past the time budget")
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}")
        return wall, usage.ru_maxrss

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self) -> None:
        """Kill and reap a child left running by an interruption."""
        proc = self.current
        if proc is not None and proc.returncode is None:
            self._kill(proc)
            proc.wait()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def setup_times(children: Children, work: Path, spec: dict) -> list[tuple[float, list[float]]]:
    """Fresh interpreter to first result: import rweval.cli and run the
    workload's first op on a tiny input, several times.  Returns each
    probe's wall time with the host-pace chunks run after it."""
    times = []
    argvs = json.dumps(spec["ready"])
    for i in range(SETUP_REPEATS):
        out = work / f"setup-{i}.json"
        with open(out, "w", encoding="utf-8") as f:
            wall, _ = children.run([sys.executable, str(HERE / "cold_probe.py"), argvs], f)
        failed = [o for o in _read_json(out)["outputs"] if not o.startswith("rc=0\n")]
        if failed:
            raise BenchError(f"set-up op failed: {failed[0][:300]}")
        times.append((wall, bench_pace.after(wall)))
    return times


def end_to_end(children: Children, work: Path, workload: str, spec: dict,
               seconds: int) -> tuple[dict, dict]:
    worker = [sys.executable, str(HERE / "worker.py")]
    setup = setup_times(children, work, spec)
    _, maxrss_kb = children.run([*worker, "measure", "--work", str(work),
                                 "--workload", workload, "--seconds", str(seconds)])
    children.run([*worker, "check", "--work", str(work), "--workload", workload])
    measured = _read_json(work / f"measure-{workload}.json")
    checked = _read_json(work / f"check-{workload}.json")
    tail = measured["tail_pct"]
    # Every op of the run's whole cycles, pooled: whole cycles keep the mix
    # of ops the same from run to run.  Times are scaled to the nominal host
    # pace (bench_pace); the raw wall times are printed beside them.
    ops = [op for c in measured["cycles"] for op in zip(c["latencies_s"], c["chunks_s"])]
    latencies = [s * 1e3 for s in bench_pace.scaled(ops)]
    raw = [wall * 1e3 for wall, _ in ops]
    units = sum(c["units"] for c in measured["cycles"])
    metrics = {
        "setup_s": statistics.median(bench_pace.scaled(setup)),
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_tail": percentile(latencies, tail),
        "throughput_per_s": units / sum(latencies) * 1e3,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "ok_rate": 1.0 - checked["failed"] / max(1, checked["attempted"]),
    }
    notes = {
        "figures": f"{len(latencies)} ops in {len(measured['cycles'])} whole cycles",
        "tail": f"p{tail}",
        "wall_ms_p50": f"{percentile(raw, 50):.6g} ms (not scaled)",
        f"wall_ms_p{tail}": f"{percentile(raw, tail):.6g} ms (not scaled)",
        "setup_wall_s": f"{statistics.median(wall for wall, _ in setup):.6g} s (not scaled)",
        "host_pace": f"{statistics.median(t for _, c in ops for t in c) / bench_pace.NOMINAL_CHUNK_S:.4g}"
                     " x the nominal chunk time",
        "error_rate": checked["failed"] / max(1, checked["attempted"]),
        "output_digest": checked["output_digest"],
    }
    return metrics, {workload: (checked, notes)}


def per_layer(children: Children, work: Path, workload: str, seed: int) -> tuple[dict, dict]:
    worker = [sys.executable, str(HERE / "worker.py")]
    spans = ROOT / ".bench_build" / "perfbench-spans" / f"seed-{seed}"
    metrics: dict = {}
    results = {}
    for name in TRACED:
        children.run([*worker, "trace", "--work", str(work), "--workload", name,
                      "--spans", str(spans)])
        children.run([*worker, "check", "--work", str(work), "--workload", name])
        traced = _read_json(work / f"trace-{name}.json")
        checked = _read_json(work / f"check-{name}.json")
        metrics.update(traced["layers"])
        if name == workload:
            metrics["trace.overhead_pct"] = traced["overhead_pct"]
        results[name] = (checked, {
            "trace.overhead_pct": traced["overhead_pct"],
            "error_rate": checked["failed"] / max(1, checked["attempted"]),
            "output_digest": checked["output_digest"],
            "missing_trace_targets": traced["missing_targets"],
            "spans": (spans / f"{name}.jsonl").relative_to(ROOT),
        })
    return metrics, results


def bench(args, work: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True)
    budget = MARGIN_S + (0 if args.trace else args.seconds)
    children = Children(time.monotonic() + budget, env)
    try:
        workloads = TRACED if args.trace else (args.workload,)
        children.run([sys.executable, str(HERE / "worker.py"), "gen", "--work", str(work),
                      "--seed", str(args.seed), "--workloads", ",".join(workloads)])
        inputs = _read_json(work / "inputs.json")
        if args.trace:
            metrics, results = per_layer(children, work, args.workload, args.seed)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, results = end_to_end(children, work, args.workload,
                                          inputs[args.workload], args.seconds)
            units = END_TO_END
    finally:
        children.stop()

    print(f"seed {args.seed}  workload {args.workload}  trace {args.trace}")
    for name in results:
        print(f"{name}  inputs {json.dumps(inputs[name]['identity'])}")
    attempted = failed = 0
    for name, (checked, notes) in results.items():
        attempted += checked["attempted"]
        failed += checked["failed"]
        for key, value in notes.items():
            print(f"{name}  {key} {value}")
        for error in checked["errors"]:
            print(f"{name}  FAILED {error}")
    if not args.trace:
        for alias, metric, scale, unit in ALIASES[args.workload]:
            print(f"{args.workload}  {alias} {metrics[metric] * scale:.6g} {unit}")
    for name, unit in units.items():
        moves = f"  (should move {PER_LAYER[name][1]})" if args.trace else ""
        print(f"{args.workload}  {name} {metrics[name]:.6g} {unit}{moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="length of the timed loop; required unless --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a full rweval checkout, missing {missing}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_build" / "perfbench-run" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return bench(args, work)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
