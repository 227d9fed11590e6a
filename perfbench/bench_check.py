"""Correctness of every op's output, judged outside the timed region.

The oracles do not use rweval: section names and ELF types come from
`readelf` (tests/oracles.py), verdicts from the line-by-line tree
transliterations (tests/transliterations.py), success tables from
tests/oracles.py's tally, comparative tables from a plain recomputation,
byte attributions and campaign rows from what the generators built.
"""

from __future__ import annotations

import csv
import io
import json
import os
from decimal import ROUND_DOWN, Decimal

from oracles import readelf_facts, tally_success
from transliterations import TRANSLITERATIONS

import bench_gen
from bench_ops import report_argv


def canonical(section: str) -> str:
    """Feature spelling of a section name, as the README defines it."""
    if section.startswith("."):
        section = section[1:]
    return "".join("_" if c == "-" else c.lower() if "A" <= c <= "Z" else c for c in section)


def trunc2(value: float | None) -> float | None:
    if value is None:
        return None
    return float(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def split_output(out: str) -> list[tuple[int, str, str]]:
    """Undo bench_ops' "rc=N / stdout / --stderr-- / stderr" framing for
    each CLI call concatenated in one op output."""
    calls = []
    rest = out
    while rest.startswith("rc="):
        head, _, rest = rest.partition("\n")
        stdout, _, rest = rest.partition("\n--stderr--\n")
        nxt = rest.find("\nrc=")
        stderr, rest = (rest, "") if nxt < 0 else (rest[:nxt], rest[nxt + 1:])
        calls.append((int(head[3:]), stdout, stderr))
    return calls


class ElfOracle:
    def __init__(self):
        self._facts: dict[str, tuple[str, list[str]]] = {}

    def facts(self, path: str) -> tuple[str, list[str]]:
        if path not in self._facts:
            f = readelf_facts(path)
            self._facts[path] = (f.elf_type, f.section_names)
        return self._facts[path]

    def features(self, path: str) -> dict[str, bool]:
        elf_type, names = self.facts(path)
        feats = {canonical(n): True for n in names}
        feats["pi"] = elf_type == "DYN"
        feats["strip"] = ".symtab" not in names
        return feats

    def check_features(self, obj: dict, path: str) -> list[str]:
        want = self.features(path)
        return [] if obj == want else [f"features of {path} differ from readelf"]

    def check_scope(self, obj: dict, path: str) -> list[str]:
        errors = []
        if obj.get("binary") != path:
            errors.append(f"scope names {obj.get('binary')!r}, not {path!r}")
        errors += self.check_features(obj.get("features"), path)
        feats = self.features(path)
        preds = obj.get("predictions", {})
        if set(preds) != set(TRANSLITERATIONS):
            errors.append(f"scope of {path} predicts for {sorted(preds)}")
            return errors
        for tool, (tree, params) in TRANSLITERATIONS.items():
            leaf = tree(*(feats.get(p, False) for p in params))
            fail, passed = leaf["FAIL"], leaf["PASS"]
            want = {
                "outcome": "PASS" if passed > fail else "FAIL",
                "confidence": max(fail, passed) / (fail + passed),
                "fail": fail,
                "pass": passed,
            }
            if preds[tool] != want:
                errors.append(f"{tool} verdict on {path}: {preds[tool]} != {want}")
        return errors

    def check_size(self, obj: dict, path: str, entry: dict) -> list[str]:
        errors = []
        size = os.path.getsize(path)
        if sum(obj.values()) != size:
            errors.append(f"size buckets of {path} sum to {sum(obj.values())}, not {size}")
        if "buckets" in entry:
            if obj != entry["buckets"]:
                errors.append(f"size buckets of {path} differ from construction")
        else:
            _, names = self.facts(path)
            named = {k for k in obj if not k.startswith("[")}
            if named != set(names):
                errors.append(f"size buckets of {path} name other sections than readelf")
        return errors


def _json_or_error(text: str, what: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as e:
        return None, [f"{what}: not JSON ({e})"]


def check_elf_calls(oracle: ElfOracle, calls, commands, entry) -> list[str]:
    path = entry["path"]
    if len(calls) != len(commands):
        return [f"{path}: {len(calls)} CLI results for {len(commands)} commands"]
    errors = []
    for (rc, stdout, _), command in zip(calls, commands):
        if rc != entry["expect_exit"]:
            errors.append(f"{command} {path}: exit {rc}, want {entry['expect_exit']}")
            continue
        if rc != 0:
            if stdout:
                errors.append(f"{command} {path}: printed output on failure")
            continue
        obj, bad = _json_or_error(stdout, f"{command} {path}")
        if bad:
            errors += bad
        elif command == "scope":
            errors += oracle.check_scope(obj, path)
        elif command == "features":
            errors += oracle.check_features(obj, path)
        else:
            errors += oracle.check_size(obj, path, entry)
    return errors


def _denormalize(text: str, inputs: dict) -> str:
    return text.replace("<work>", inputs["work"]).replace("<root>", inputs["root"])


class Checker:
    """Maps (workload, op key, normalised output) to the op's failed units."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.elf = ElfOracle()
        self._csv_text: str | None = None

    def bad_units(self, workload: str, key: str, out: str) -> tuple[int, list[str]]:
        out = _denormalize(out, self.inputs)
        spec = self.inputs[workload]
        if workload == "scope_batch":
            entry = next(e for e in spec["entries"] if e["path"] == key)
            errors = check_elf_calls(self.elf, split_output(out), ("scope", "size"), entry)
        elif workload == "scope_cold":
            command, path = key.split(" ", 1)
            entry = next(e for e in spec["entries"] if e["path"] == path)
            errors = check_elf_calls(self.elf, split_output(out), (command,), entry)
        elif workload == "report_paper":
            errors = self.check_report(key, out)
        else:
            return self.check_campaign(out)
        return (1 if errors else 0), errors

    # --- report ---------------------------------------------------------------

    def csv_text(self) -> str:
        if self._csv_text is None:
            with open(self.inputs["report_paper"]["csv"], encoding="utf-8", newline="") as f:
                self._csv_text = f.read()
        return self._csv_text

    def check_report(self, key: str, out: str) -> list[str]:
        calls = split_output(out)
        if len(calls) != 1 or calls[0][0] != 0:
            return [f"report {key}: exit {[c[0] for c in calls]}"]
        obj, errors = _json_or_error(calls[0][1], f"report {key}")
        if errors:
            return errors
        argv = report_argv("", key)
        if argv[3] == "success":
            want = self.success_table(argv[argv.index("--cohort") + 1])
        else:
            want = self.comparative_table(argv[argv.index("--metric") + 1],
                                          "--mean-of-ratios" in argv)
        return [] if obj == want else [f"report {key} differs from the oracle"]

    def success_table(self, cohort: str) -> dict:
        predicate = {"full": {}, "pi_symbols": {"relocation": "pie", "symbols": "present"},
                     "gcc": {"compiler": "gcc"}}[cohort]
        tally = tally_success(self.csv_text(), predicate)
        denom = tally.pop("__denominator__")
        return {
            "cohort": cohort,
            "denominator": denom,
            "tools": {
                tool: {
                    col: {"count": None, "pct": None} if cell is None
                    else {"count": cell[0], "pct": trunc2(cell[1])}
                    for col, cell in cols.items()
                }
                for tool, cols in sorted(tally.items())
            },
        }

    def comparative_table(self, metric: str, mean_of_ratios: bool) -> dict:
        per_tool: dict[str, dict[str, float]] = {}
        for row in csv.DictReader(io.StringIO(self.csv_text())):
            if row["task"] != "NOP" or row["exe"] != "1" or row[metric] == "":
                continue
            per_tool.setdefault(row["tool"], {})[row["binary_id"]] = float(row[metric])
        tools = sorted(per_tool)
        cells = {}
        for a in tools:
            for b in tools:
                shared = sorted(set(per_tool[a]) & set(per_tool[b]))
                xs = [per_tool[a][s] for s in shared]
                ys = [per_tool[b][s] for s in shared]
                value = None
                if shared and mean_of_ratios:
                    ratios = [x / y for x, y in zip(xs, ys) if y != 0]
                    value = sum(ratios) / len(ratios) * 100.0 if ratios else None
                elif shared and sum(ys) != 0:
                    value = (sum(xs) / len(xs)) / (sum(ys) / len(ys)) * 100.0
                cells[f"{a}/{b}"] = trunc2(value)
        return {"tools": tools, "cells": cells}

    # --- campaign -------------------------------------------------------------

    def check_campaign(self, out: str) -> tuple[int, list[str]]:
        spec = self.inputs["campaign_stub"]
        jobs = spec["jobs"]
        head, _, csv_part = out.partition("--csv--\n")
        calls = split_output(head)
        out_path = os.path.join(self.inputs["work"], "campaign-results.csv")
        if len(calls) != 1 or calls[0][0] != 0 or calls[0][1] != f"{jobs} records -> {out_path}\n":
            return jobs, [f"campaign run printed {calls!r}"]
        rows = list(csv.reader(io.StringIO(csv_part)))
        if not rows or tuple(rows[0]) != bench_gen.RESULTS_HEADER:
            return jobs, ["campaign CSV header differs"]
        with open(spec["manifest"], encoding="utf-8") as f:
            manifest = {m["id"]: m for m in json.load(f)}
        want_keys = sorted((b, t, task) for b in manifest
                           for t in bench_gen.STUB_EXPECTED for task in ("AFL", "NOP"))
        got_keys = [(r[0], r[7], r[8]) for r in rows[1:]]
        if got_keys != want_keys:
            return jobs, ["campaign rows are not one per (binary, tool, task) in sorted order"]
        bad = 0
        errors = []
        for row in rows[1:]:
            m = manifest[row[0]]
            want = [m["id"], m["program"], m["compiler"], m["flags"], m["relocation"],
                    m["symbols"], m["os"], row[7], row[8],
                    *bench_gen.STUB_EXPECTED[row[7]][row[8]], "", "",
                    bench_gen.stub_expected_size(row[7], m["path"], self.inputs["programs"]["other"])]
            if row != want:
                bad += 1
                errors.append(f"campaign row {row} != {want}")
        return bad, errors
