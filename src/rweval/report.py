"""Aggregation of run records into the standard report tables.

Percentages are computed against fixed cohort denominators (a tool that was
never attempted on a variant counts as failing it) and truncated to two
decimals for display -- the convention the published tables use -- with the
raw values kept alongside. Missing cells render as "NA". Comparative tables default to ratio-of-means over the
intersection of binaries both tools handled; mean-of-ratios is available
behind a flag.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .dtree import Task
from .elf import SizeProfile, size_delta
from .errors import UnknownTool
from .harness import VARIANT_COLUMNS, RunRecord, TriState
from .util import fmt_pct, trunc_pct

COHORT_PRESETS: dict[str, dict[str, str]] = {
    "full": {},
    "pi_symbols": {"relocation": "pie", "symbols": "present"},
    "gcc": {"compiler": "gcc"},
    "clang": {"compiler": "clang"},
    "icx": {"compiler": "icx"},
    "ollvm": {"compiler": "ollvm"},
}

SUCCESS_COLUMNS = ("IR", "EXE", "NullFunc", "AFL_EXE", "AFL_Func")


@dataclass(frozen=True)
class Cohort:
    name: str
    predicate: dict[str, str]  # equality conjunctions over variant fields
    denominator: int

    def matches(self, record: RunRecord) -> bool:
        return _variant_matches(record, self.predicate)


_VARIANT_INDEX = {name: i for i, name in enumerate(VARIANT_COLUMNS)}


def _variant_matches(record: RunRecord, predicate: dict[str, str]) -> bool:
    if not predicate:
        return True
    v = record.variant
    if v is None:
        return False
    cells = v.columns()
    for key, want in predicate.items():
        if cells[_VARIANT_INDEX[key]] != want:
            return False
    return True


def make_cohort(
    name: str, predicate: dict[str, str], records: Sequence[RunRecord]
) -> Cohort:
    """Build a cohort whose denominator is the number of distinct binaries
    in the record set matching the predicate."""
    unknown = set(predicate) - set(VARIANT_COLUMNS)
    if unknown:
        raise ValueError(f"unknown cohort fields {sorted(unknown)}")
    ids = {r.binary_id for r in records if _variant_matches(r, predicate)}
    return Cohort(name=name, predicate=dict(predicate), denominator=len(ids))


@dataclass(frozen=True)
class Cell:
    count: int | None  # None renders NA
    raw_pct: float | None

    @property
    def pct(self) -> float | None:
        return None if self.raw_pct is None else trunc_pct(self.raw_pct)


@dataclass(frozen=True)
class SuccessTable:
    cohort: Cohort
    tool_order: tuple[str, ...]
    cells: dict[tuple[str, str], Cell]  # (tool, column) -> Cell

    def to_rows(self) -> list[list[str]]:
        rows = [["tool", *SUCCESS_COLUMNS, *(c + "_pct" for c in SUCCESS_COLUMNS)]]
        for tool in self.tool_order:
            counts = []
            pcts = []
            for col in SUCCESS_COLUMNS:
                cell = self.cells[(tool, col)]
                counts.append("NA" if cell.count is None else str(cell.count))
                pcts.append(fmt_pct(cell.raw_pct))
            rows.append([tool, *counts, *pcts])
        return rows

    def to_json_obj(self) -> dict:
        return {
            "cohort": self.cohort.name,
            "denominator": self.cohort.denominator,
            "tools": {
                tool: {
                    col: {
                        "count": self.cells[(tool, col)].count,
                        "pct": self.cells[(tool, col)].pct,
                    }
                    for col in SUCCESS_COLUMNS
                }
                for tool in self.tool_order
            },
        }


def success_table(
    records: Sequence[RunRecord],
    cohort: Cohort,
    tool_order: Sequence[str] | None = None,
) -> SuccessTable:
    """Checkpoint/functional success counts and percentages per tool."""
    if tool_order is None:
        tool_order = sorted({r.tool_name for r in records})
    else:
        _check_tools(tool_order, records)

    # One pass: per (tool, task), the binaries that passed IR, EXE and the
    # functional test, and the keys with at least one IR verdict.
    passed: dict[tuple[str, Task], tuple[set[str], set[str], set[str]]] = {}
    ir_judged: set[tuple[str, Task]] = set()
    for r in records:
        if not cohort.matches(r):
            continue
        key = (r.tool_name, r.task)
        sets = passed.get(key)
        if sets is None:
            sets = passed[key] = (set(), set(), set())
        ir, exe, func = sets
        if r.ir_ok is not TriState.NA:
            ir_judged.add(key)
            if r.ir_ok is TriState.YES:
                ir.add(r.binary_id)
        if r.exe_ok:
            exe.add(r.binary_id)
        if r.func_ok is TriState.YES:
            func.add(r.binary_id)

    empty = (set(), set(), set())
    denom = cohort.denominator
    cells: dict[tuple[str, str], Cell] = {}
    for tool in tool_order:
        nop_ir, nop_exe, nop_func = passed.get((tool, Task.NOP), empty)
        _, afl_exe, afl_func = passed.get((tool, Task.AFL), empty)
        cells[(tool, "IR")] = (
            _cell(len(nop_ir), denom) if (tool, Task.NOP) in ir_judged else Cell(None, None)
        )
        cells[(tool, "EXE")] = _cell(len(nop_exe), denom)
        cells[(tool, "NullFunc")] = _cell(len(nop_func), denom)
        cells[(tool, "AFL_EXE")] = _cell(len(afl_exe), denom)
        cells[(tool, "AFL_Func")] = _cell(len(afl_func), denom)
    return SuccessTable(cohort=cohort, tool_order=tuple(tool_order), cells=cells)


def _check_tools(tool_order: Sequence[str], records: Sequence[RunRecord]) -> None:
    """Raise UnknownTool when a requested tool has no records at all."""
    missing = set(tool_order) - {r.tool_name for r in records}
    if missing:
        raise UnknownTool(f"no records for tools {sorted(missing)}")


def _cell(count: int, denom: int) -> Cell:
    return Cell(count=count, raw_pct=(count / denom * 100.0) if denom else None)


METRICS = ("runtime_s", "mem_kb", "out_size_bytes")


def _metric_value(record: RunRecord, metric: str) -> float | None:
    if metric == "runtime_s":
        return record.runtime_seconds
    if metric == "mem_kb":
        return float(record.memory_kbytes)
    if metric == "out_size_bytes":
        return None if record.output_size_bytes is None else float(record.output_size_bytes)
    raise ValueError(f"unknown metric {metric!r}")


def default_success_filter(record: RunRecord) -> bool:
    return record.task is Task.NOP and record.exe_ok


@dataclass(frozen=True)
class ComparativeTable:
    tools: tuple[str, ...]
    raw_cells: dict[tuple[str, str], float | None]

    def cell(self, row: str, col: str) -> float | None:
        raw = self.raw_cells[(row, col)]
        return None if raw is None else trunc_pct(raw)

    def to_rows(self) -> list[list[str]]:
        rows = [["tool", *self.tools]]
        for a in self.tools:
            rows.append([a, *(fmt_pct(self.raw_cells[(a, b)]) for b in self.tools)])
        return rows

    def to_json_obj(self) -> dict:
        return {
            "tools": list(self.tools),
            "cells": {
                f"{a}/{b}": self.cell(a, b) for a in self.tools for b in self.tools
            },
        }


def comparative_average(
    records: Sequence[RunRecord],
    metric: str = "runtime_s",
    tool_order: Sequence[str] | None = None,
    mean_of_ratios: bool = False,
) -> ComparativeTable:
    """Pairwise metric comparison over the intersection of binaries both
    tools handled (NOP runs that passed EXE); cell(row, col) is row's average as a percentage of
    col's. NA when no binary was handled by both. UnknownTool when
    tool_order names a tool with no records."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if tool_order:
        _check_tools(tool_order, records)

    per_tool: dict[str, dict[str, float]] = {}
    for r in records:
        if not default_success_filter(r):
            continue
        value = _metric_value(r, metric)
        if value is None:
            continue
        per_tool.setdefault(r.tool_name, {})[r.binary_id] = value

    tools = tuple(tool_order) if tool_order else tuple(sorted(per_tool))
    cells: dict[tuple[str, str], float | None] = {}
    for a in tools:
        for b in tools:
            va, vb = per_tool.get(a, {}), per_tool.get(b, {})
            shared = sorted(set(va) & set(vb))
            cells[(a, b)] = _compare(
                [va[s] for s in shared], [vb[s] for s in shared], mean_of_ratios
            )
    return ComparativeTable(tools=tools, raw_cells=cells)


def _compare(
    a_values: list[float], b_values: list[float], mean_of_ratios: bool
) -> float | None:
    if not a_values:
        return None
    if mean_of_ratios:
        ratios = [x / y for x, y in zip(a_values, b_values) if y != 0]
        return None if not ratios else sum(ratios) / len(ratios) * 100.0
    mean_a = sum(a_values) / len(a_values)
    mean_b = sum(b_values) / len(b_values)
    return None if mean_b == 0 else mean_a / mean_b * 100.0


def relative_size(
    pairs: Iterable[tuple[str, int, int]],
) -> dict[str, float | None]:
    """Mean rewritten/original size percentage per tool.

    ``pairs`` rows are (tool, original_size_bytes, rewritten_size_bytes),
    one per successful rewrite.
    """
    ratios: dict[str, list[float]] = {}
    for tool, original, rewritten in pairs:
        bucket = ratios.setdefault(tool, [])
        if original > 0:
            bucket.append(rewritten / original * 100.0)
    return {
        tool: (sum(v) / len(v) if v else None)
        for tool, v in sorted(ratios.items())
    }


@dataclass(frozen=True)
class MapTable:
    """A {name: value} map as a two-column table, such as relative_size's
    per-tool percentages or a size profile. JSON keeps the raw values."""

    key_label: str
    value_label: str
    values: dict[str, float | int | None]
    fmt: Callable[[float | int | None], str] = fmt_pct

    def to_rows(self) -> list[list[str]]:
        return [[self.key_label, self.value_label],
                *([k, self.fmt(v)] for k, v in self.values.items())]

    def to_json_obj(self) -> dict:
        return self.values


@dataclass(frozen=True)
class SectionSizeTable:
    buckets: tuple[str, ...]
    tools: tuple[str, ...]
    raw_cells: dict[tuple[str, str], float | None]  # (bucket, tool)

    def to_rows(self) -> list[list[str]]:
        rows = [["section", *self.tools]]
        for bucket in self.buckets:
            rows.append(
                [bucket, *(fmt_pct(self.raw_cells[(bucket, t)]) for t in self.tools)]
            )
        return rows

    def to_json_obj(self) -> dict:
        return {
            "tools": list(self.tools),
            "sections": {
                bucket: {
                    tool: (
                        None
                        if self.raw_cells[(bucket, tool)] is None
                        else trunc_pct(self.raw_cells[(bucket, tool)])
                    )
                    for tool in self.tools
                }
                for bucket in self.buckets
            },
        }


def section_size_table(
    profile_pairs: Iterable[tuple[str, SizeProfile, SizeProfile]],
) -> SectionSizeTable:
    """Average per-bucket size change per tool.

    ``profile_pairs`` rows are (tool, original_profile, rewritten_profile).
    Per (bucket, tool) the mean skips NA deltas; all-NA stays NA.
    """
    sums: dict[tuple[str, str], list[float]] = {}
    buckets_seen: dict[str, None] = {}
    tools_seen: dict[str, None] = {}
    for tool, before, after in profile_pairs:
        tools_seen[tool] = None
        for bucket, delta in size_delta(before, after).items():
            buckets_seen[bucket] = None
            if delta is not None:
                sums.setdefault((bucket, tool), []).append(delta)

    named = sorted(b for b in buckets_seen if not b.startswith("["))
    special = [b for b in buckets_seen if b.startswith("[")]
    buckets = tuple(named + sorted(special))
    tools = tuple(sorted(tools_seen))
    cells = {
        (bucket, tool): (
            sum(sums[(bucket, tool)]) / len(sums[(bucket, tool)])
            if (bucket, tool) in sums
            else None
        )
        for bucket in buckets
        for tool in tools
    }
    return SectionSizeTable(buckets=buckets, tools=tools, raw_cells=cells)


# --- rendering --------------------------------------------------------------


def rows_to_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows(rows)
    return buf.getvalue()


def rows_to_text(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def render(table, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_json_obj(), indent=2)
    rows = table.to_rows()
    return rows_to_csv(rows) if fmt == "csv" else rows_to_text(rows)
