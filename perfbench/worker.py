"""Child-process side of the benchmark; run.py starts one per step.

  worker.py gen     --work DIR --seed N --workloads a,b   writes DIR/inputs.json
  worker.py measure --work DIR --workload W --seconds S   untraced timed cycles,
                                                          host-pace chunks between ops
  worker.py trace   --work DIR --workload W --spans D     paired untraced/traced ops
  worker.py check   --work DIR --workload W               oracles + output digest

Each step writes one JSON file into DIR; outputs of the timed and traced
steps go to DIR/outputs-W.jsonl for the check step.  The trace step also
writes its spans, one JSON object per line, to D/W.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # elfbuild, oracles, transliterations


def _load(work: Path) -> dict:
    return json.loads((work / "inputs.json").read_text(encoding="utf-8"))


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def gen(work: Path, seed: int, workloads: list[str]) -> None:
    import bench_gen as g

    programs = g.build_programs(ROOT / ".bench_build" / "perfbench-cache")
    probe_bin = programs["hello"]["hello-O2-pie-symbols"]
    inputs = {"root": str(ROOT), "work": str(work), "programs": programs}
    if "scope_batch" in workloads:
        entries = g.make_corpus(work / "corpus", seed, programs)
        inputs["scope_batch"] = {
            "entries": entries,
            "identity": g.corpus_identity([e["path"] for e in entries]),
            "ready": [["scope", "--format", "json", probe_bin],
                      ["size", "--format", "json", probe_bin]],
        }
    if "scope_cold" in workloads:
        entries = g.make_cold_set(work / "cold", seed, programs)
        inputs["scope_cold"] = {
            "entries": entries,
            "identity": g.corpus_identity([e["path"] for e in entries]),
            "ready": [["scope", "--format", "json", probe_bin]],
        }
    if "report_paper" in workloads:
        csv_path, tiny = work / "results.csv", work / "results-tiny.csv"
        g.write_results_csv(csv_path, seed)
        g.write_results_csv(tiny, seed, n_binaries=20)
        inputs["report_paper"] = {
            "csv": str(csv_path),
            "identity": g.corpus_identity([str(csv_path)]),
            "ready": [["report", str(tiny), "--table", "success", "--format", "json"]],
        }
    if "campaign_stub" in workloads:
        manifest = g.campaign_manifest(seed, programs)
        adapters = g.stub_adapters(programs["other"])
        files = {}
        for name, obj in (("manifest", manifest), ("adapters", adapters),
                          ("tiny-manifest", manifest[:1]), ("tiny-adapters", adapters[:1])):
            files[name] = str(work / f"campaign-{name}.json")
            _dump(Path(files[name]), obj)
        inputs["campaign_stub"] = {
            "manifest": files["manifest"], "adapters": files["adapters"],
            "jobs": len(manifest) * len(adapters) * 2,
            "originals": [m["path"] for m in manifest],
            "identity": g.corpus_identity([m["path"] for m in manifest]),
            "ready": [["run", "--manifest", files["tiny-manifest"],
                       "--adapters", files["tiny-adapters"],
                       "--out", str(work / "campaign-tiny.csv"), "--tasks", "NOP",
                       "--afl-driver", "true"]],
        }
    _dump(work / "inputs.json", inputs)


class OutputStore:
    """First output per op key, plus how often the key ran and how often a
    repeat differed from the first output."""

    def __init__(self):
        self.first: dict[str, tuple[str, str]] = {}
        self.count: dict[str, int] = {}
        self.mismatch: dict[str, int] = {}

    def add(self, key: str, out: str) -> None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.count[key] = self.count.get(key, 0) + 1
        if key not in self.first:
            self.first[key] = (digest, out)
        elif self.first[key][0] != digest:
            self.mismatch[key] = self.mismatch.get(key, 0) + 1

    def write(self, path: Path, units) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for key, (_, out) in self.first.items():
                f.write(json.dumps({"key": key, "out": out, "count": self.count[key],
                                    "mismatch": self.mismatch.get(key, 0),
                                    "units": units(key)}) + "\n")


def measure(work: Path, name: str, seconds: float) -> None:
    import bench_pace
    from bench_ops import WORKLOADS

    wl = WORKLOADS[name](_load(work))
    wl.warm()
    keys = wl.cycle()
    store = OutputStore()
    for key in wl.untimed_keys():
        store.add(key, wl.run(key)[1])
    cycles = []
    begin = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        latencies, chunks, units = [], [], 0
        for key in keys:
            elapsed, out = wl.run(key)
            chunks.append(bench_pace.after(elapsed))
            latencies.append(elapsed)
            units += wl.units(key)
            store.add(key, out)
        cycles.append({"latencies_s": latencies, "chunks_s": chunks, "units": units})
        cycle_s = time.perf_counter() - cycle_start
        # whole cycles only, so every run samples the same op mix
        if time.perf_counter() - begin + cycle_s > seconds:
            break
    store.write(work / f"outputs-{name}.jsonl", wl.units)
    _dump(work / f"measure-{name}.json", {"cycles": cycles, "tail_pct": wl.tail_pct})


def trace(work: Path, name: str, spans: Path) -> None:
    from bench_ops import WORKLOADS
    from bench_trace import Tracer

    wl = WORKLOADS[name](_load(work))
    wl.warm()
    tracer = Tracer()
    store = OutputStore()
    plain = traced = 0.0
    missing: list[str] = []
    for op, key in enumerate(wl.trace_keys()):
        elapsed, out = wl.run(key)
        plain += elapsed
        store.add(key, out)
        tracer.op = op
        missing = tracer.install(wl.layers)
        try:
            elapsed, out = wl.run_traced(key, tracer)
        finally:
            tracer.uninstall()
        traced += elapsed
        store.add(key, out)
    spans.mkdir(parents=True, exist_ok=True)
    tracer.write(spans / f"{name}.jsonl")
    store.write(work / f"outputs-{name}.jsonl", wl.units)
    _dump(work / f"trace-{name}.json", {
        "layers": wl.layer_metrics(tracer),
        "overhead_pct": (traced / plain - 1.0) * 100.0,
        "missing_targets": missing,
    })


def check(work: Path, name: str) -> None:
    from bench_check import Checker

    inputs = _load(work)
    checker = Checker(inputs)
    attempted = failed = 0
    errors: list[str] = []
    digest = hashlib.sha256()
    with open(work / f"outputs-{name}.jsonl", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            bad, why = checker.bad_units(name, rec["key"], rec["out"])
            attempted += rec["count"] * rec["units"]
            failed += (rec["count"] - rec["mismatch"]) * bad + rec["mismatch"] * rec["units"]
            if rec["mismatch"]:
                why.append(f"{rec['key']}: {rec['mismatch']} repeats differ from the first")
            errors += why
            key = rec["key"].replace(inputs["work"], "<work>").replace(inputs["root"], "<root>")
            digest.update(json.dumps([key, rec["out"]]).encode())
    _dump(work / f"check-{name}.json", {
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "output_digest": digest.hexdigest()[:16],
    })


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("gen", "measure", "trace", "check"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", type=Path, help="directory for the trace step's spans")
    args = parser.parse_args()
    if args.step == "gen":
        gen(args.work, args.seed, args.workloads.split(","))
    elif args.step == "measure":
        measure(args.work, args.workload, args.seconds)
    elif args.step == "trace":
        trace(args.work, args.workload, args.spans)
    else:
        check(args.work, args.workload)


if __name__ == "__main__":
    main()
