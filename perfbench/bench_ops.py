"""The four workloads: which ops make one cycle, how one op runs, and which
layer boundaries a traced run records.

Every op goes through a public entry point: ``rweval.cli.main`` in-process,
or a fresh ``python -m rweval.cli`` process.  ``run`` returns the op's wall
time and its output (exit codes, stdout, stderr and any file it wrote),
normalised so that it does not depend on where the checkout lives and with
the timing columns of results CSVs blanked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
TIMING_COLUMNS = (12, 13)  # runtime_s, mem_kb in the results CSV


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def p50(values: list[float]) -> float:
    return percentile(values, 50)


def read_rchar() -> int:
    with open("/proc/self/io", "rb") as f:
        for line in f:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise RuntimeError("no rchar in /proc/self/io")


class Workload:
    name = ""
    tail_pct = 90
    layers: list = []

    def __init__(self, inputs: dict):
        self.spec = inputs[self.name]
        self.root = inputs["root"]
        self.work = inputs["work"]

    def normalize(self, text: str) -> str:
        return text.replace(self.work, "<work>").replace(self.root, "<root>")

    def cycle(self) -> list[str]:
        raise NotImplementedError

    def units(self, key: str) -> int:
        return 1

    def run(self, key: str) -> tuple[float, str]:
        raise NotImplementedError

    def warm(self) -> None:
        for argv in self.spec["ready"]:
            call_main(argv)

    def untimed_keys(self) -> list[str]:
        """Ops run once before timing, for their outputs' sake only."""
        return []

    def trace_keys(self) -> list[str]:
        return self.cycle()

    def run_traced(self, key: str, tracer: Tracer) -> tuple[float, str]:
        return self.run(key)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError


def call_main(argv: list[str]) -> tuple[float, str]:
    """One in-process CLI call; returns (seconds, rc + stdout + stderr)."""
    from rweval import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)  # looked up per call so a traced run sees the wrapper
        elapsed = time.perf_counter() - start
    return elapsed, f"rc={rc}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}\n"


def _self_times_by_name(tracer: Tracer) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        out.setdefault(span.name, []).append(own)
    return out


def _per_op_total(tracer: Tracer, name: str) -> list[float]:
    totals: dict[int, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name == name:
            totals[span.op] = totals.get(span.op, 0.0) + own
    return list(totals.values())


class ScopeBatch(Workload):
    """Closed loop, one caller: scope then size on each corpus file."""

    name = "scope_batch"
    tail_pct = 99
    layers = [
        ("rweval.cli", "main", "cli.main"),
        ("rweval.cli", "_read_binary", "io.read"),
        ("rweval.cli", "parse_elf", "elf.parse_elf"),
        ("rweval.cli", "size_profile", "elf.size_profile"),
        ("rweval.features", "extract_features", "features.extract_features"),
        ("rweval.scope", "builtin_models", "scope.builtin_models"),
        ("rweval.dtree", "predict", "dtree.predict"),
    ]

    def __init__(self, inputs):
        super().__init__(inputs)
        self.read_bytes = 0

    def cycle(self):
        return [e["path"] for e in self.spec["entries"]]

    def run(self, key):
        t1, out1 = call_main(["scope", "--format", "json", key])
        t2, out2 = call_main(["size", "--format", "json", key])
        return t1 + t2, self.normalize(out1 + out2)

    def run_traced(self, key, tracer):
        before = read_rchar()
        result = self.run(key)
        self.read_bytes += read_rchar() - before
        return result

    def layer_metrics(self, tracer):
        own = _self_times_by_name(tracer)
        us = 1e6
        return {
            "io.read_mb": self.read_bytes / 1e6,
            "io.read_us_p99": percentile(own["io.read"], 99) * us,
            "elf.parse_elf_us_p50": p50(own["elf.parse_elf"]) * us,
            "elf.parse_elf_us_p99": percentile(own["elf.parse_elf"], 99) * us,
            "elf.size_profile_us_p50": p50(own["elf.size_profile"]) * us,
            "scope.builtin_models_us_p50": p50(own["scope.builtin_models"]) * us,
            "features.extract_features_us_p50": p50(own["features.extract_features"]) * us,
            "dtree.predict_us_p50": p50(own["dtree.predict"]) * us,
            "cli.self_us_p50": p50(_per_op_total(tracer, "cli.main")) * us,
        }


COLD_COMMANDS = ("scope", "features", "size")


class ScopeCold(Workload):
    """A fresh interpreter per invocation, run one after another."""

    name = "scope_cold"

    def __init__(self, inputs):
        super().__init__(inputs)
        self.probes: list[dict] = []

    def cycle(self):
        return [f"{COLD_COMMANDS[i % 3]} {e['path']}"
                for i, e in enumerate(self.spec["entries"])]

    def _argv(self, key):
        command, path = key.split(" ", 1)
        return [command, "--format", "json", path]

    def run(self, key):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "rweval.cli", *self._argv(key)],
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        return elapsed, self.normalize(
            f"rc={done.returncode}\n{done.stdout}\n--stderr--\n{done.stderr}\n")

    def warm(self):
        self.run(self.cycle()[0])

    def run_traced(self, key, tracer):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "cold_probe.py"), json.dumps([self._argv(key)])],
            capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - start
        probe = json.loads(done.stdout)
        self.probes.append(probe)
        return elapsed, self.normalize(probe["outputs"][0])

    def layer_metrics(self, tracer):
        starts = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            starts.append(time.perf_counter() - start)
        return {
            "python.start_ms": statistics.median(starts) * 1e3,
            "cli.import_ms": p50([p["import_s"] for p in self.probes]) * 1e3,
            "cli.numpy_loaded": float(max(p["numpy_loaded"] for p in self.probes)),
            "cli.main_ms": p50([p["main_s"][0] for p in self.probes]) * 1e3,
        }


REPORT_OPS = (
    ("success", "full"), ("success", "pi_symbols"), ("success", "gcc"),
    ("comparative", "runtime_s"), ("comparative", "mem_kb"),
    ("comparative", "out_size_bytes"), ("comparative", "runtime_s", "mean-of-ratios"),
)


def report_argv(csv_path: str, key: str) -> list[str]:
    table, arg, *mode = key.split(":")
    argv = ["report", csv_path, "--table", table, "--format", "json"]
    argv += ["--cohort", arg] if table == "success" else ["--metric", arg]
    if mode:
        argv.append("--mean-of-ratios")
    return argv


class ReportPaper(Workload):
    """One in-process `rweval report` per op on the paper-scale CSV."""

    name = "report_paper"
    layers = [
        ("rweval.cli", "main", "cli.main"),
        ("rweval.harness", "load_records_csv", "harness.load_records_csv"),
        ("rweval.report", "make_cohort", "report.make_cohort"),
        ("rweval.report", "success_table", "report.success_table"),
        ("rweval.report", "comparative_average", "report.comparative_average"),
        ("rweval.report", "render", "report.render"),
    ]

    def cycle(self):
        # One success and one comparative table: the rest of REPORT_OPS shares
        # their code paths, and a short cycle lets a run hold several cycles.
        return ["success:full", "comparative:runtime_s"]

    def untimed_keys(self):
        return [key for key in map(":".join, REPORT_OPS) if key not in self.cycle()]

    def run(self, key):
        elapsed, out = call_main(report_argv(self.spec["csv"], key))
        return elapsed, self.normalize(out)

    def layer_metrics(self, tracer):
        own = _self_times_by_name(tracer)
        ms = 1e3
        return {
            "harness.load_records_csv_ms": p50(own["harness.load_records_csv"]) * ms,
            "report.make_cohort_ms": p50(own["report.make_cohort"]) * ms,
            "report.success_table_ms": p50(own["report.success_table"]) * ms,
            "report.comparative_average_ms": p50(own["report.comparative_average"]) * ms,
            "report.render_ms": p50(own["report.render"]) * ms,
            "cli.report_self_ms": p50(own["cli.main"]) * ms,
        }


def _run_record_facts(record) -> dict:
    return {"tool": record.tool_name, "runtime_s": record.runtime_seconds,
            "mem_kb": record.memory_kbytes}


class CampaignStub(Workload):
    """`rweval run` in-process over 16 hello variants x 5 stubs x 2 tasks."""

    name = "campaign_stub"
    layers = [
        ("rweval.cli", "main", "cli.main"),
        ("rweval.harness", "run_task", "harness.run_task", _run_record_facts),
        ("rweval.harness", "null_function_test", "harness.null_function_test"),
        ("rweval.harness", "afl_function_test", "harness.afl_function_test"),
        ("rweval.harness", "write_records_csv", "harness.write_records_csv"),
    ]

    def __init__(self, inputs):
        super().__init__(inputs)
        self.out = os.path.join(self.work, "campaign-results.csv")
        self.run_log = os.path.join(self.work, "campaign-runs.log")
        self.original_runs = 0

    def trace_keys(self):
        return ["campaign", "campaign"]

    def units(self, key):
        return self.spec["jobs"]

    def run(self, key):
        elapsed, out = call_main([
            "run", "--manifest", self.spec["manifest"], "--adapters", self.spec["adapters"],
            "--out", self.out, "--parallelism", "2", "--timeout-s", "30",
            "--afl-driver", "true",
        ])
        rows = []
        if os.path.exists(self.out):
            with open(self.out, encoding="utf-8") as f:
                for line in f:
                    cells = line.rstrip("\n").split(",")
                    for i in TIMING_COLUMNS:
                        if i < len(cells) and rows:  # keep the header intact
                            cells[i] = ""
                    rows.append(",".join(cells))
            os.unlink(self.out)
        return elapsed, self.normalize(out + "--csv--\n" + "\n".join(rows) + "\n")

    def run_traced(self, key, tracer):
        os.environ["PERFBENCH_RUN_LOG"] = self.run_log
        try:
            result = self.run(key)
        finally:
            del os.environ["PERFBENCH_RUN_LOG"]
        if os.path.exists(self.run_log):
            originals = set(self.spec["originals"])
            with open(self.run_log, encoding="utf-8") as f:
                self.original_runs += sum(1 for line in f if line.strip() in originals)
            os.unlink(self.run_log)
        return result

    def layer_metrics(self, tracer):
        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        ms = 1e3
        jobs = by_name["harness.run_task"]
        null_tests = by_name["harness.null_function_test"]
        return {
            "harness.run_task_ms_p50": p50([s.duration for s in jobs]) * ms,
            "harness.tool_runtime_ms_p50": p50([s.extra["runtime_s"] for s in jobs]) * ms,
            "harness.spawn_overhead_ms_p50":
                p50([s.duration - s.extra["runtime_s"] for s in jobs]) * ms,
            "harness.null_function_test_ms_p50": p50([s.duration for s in null_tests]) * ms,
            "harness.afl_function_test_ms_p50":
                p50([s.duration for s in by_name["harness.afl_function_test"]]) * ms,
            "harness.write_records_csv_ms":
                p50([s.duration for s in by_name["harness.write_records_csv"]]) * ms,
            "harness.original_runs_per_job": self.original_runs / max(1, len(null_tests)),
            "harness.reported_mem_kb_p50":
                p50([s.extra["mem_kb"] for s in jobs if s.extra["tool"] == "copy"]),
        }


WORKLOADS = {w.name: w for w in (ScopeBatch, ScopeCold, ReportPaper, CampaignStub)}
