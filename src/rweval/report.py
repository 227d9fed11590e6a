"""Aggregation of loaded run results into the standard report tables.

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
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .dtree import Task
from .elf import size_delta
from .errors import UnknownTool
from .util import fmt_pct, trunc_pct
from .variant import CLOSED_VALUES, VARIANT_COLUMNS, TriState, VariantConfig

if TYPE_CHECKING:  # annotations only: harness would load the process runner
    from .harness import Results

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

    def matches(self, variant: VariantConfig | None) -> bool:
        return _variant_matches(variant, self.predicate)


_VARIANT_INDEX = {name: i for i, name in enumerate(VARIANT_COLUMNS)}


def _variant_matches(variant: VariantConfig | None, predicate: dict[str, str]) -> bool:
    if not predicate:
        return True
    if variant is None:
        return False
    cells = variant.columns()
    return all(cells[_VARIANT_INDEX[key]] == want for key, want in predicate.items())


def check_cohort_fields(predicate: dict[str, str]) -> None:
    """Raise ValueError when predicate keys a field that is not a variant
    column, or asks a closed-set column for a value outside its set."""
    unknown = set(predicate) - set(VARIANT_COLUMNS)
    if unknown:
        raise ValueError(f"unknown cohort fields {sorted(unknown)}")
    for key, value in predicate.items():
        allowed = CLOSED_VALUES.get(key)
        if allowed is not None and value not in allowed:
            raise ValueError(
                f"bad cohort value {key}={value!r}; allowed: {', '.join(allowed)}")


def make_cohort(name: str, predicate: dict[str, str], results: Results) -> Cohort:
    """Build a cohort whose denominator is the number of distinct binaries
    in results matching the predicate."""
    check_cohort_fields(predicate)
    denominator = sum(_variant_matches(v, predicate) for v in results.variants.values())
    return Cohort(name=name, predicate=dict(predicate), denominator=denominator)


@dataclass(frozen=True)
class Cell:
    count: int | None  # None renders NA
    raw_pct: float | None

    @property
    def pct(self) -> float | None:
        return trunc_pct(self.raw_pct)


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
    results: Results,
    cohort: Cohort,
    tool_order: Sequence[str] | None = None,
) -> SuccessTable:
    """Checkpoint/functional success counts and percentages per tool."""
    if tool_order is None:
        tool_order = sorted(set(results.tools))
    else:
        _check_tools(tool_order, results)

    # How many of the cohort's rows share each (tool, NOP?, ir na?, ir yes?,
    # exe, func yes?) state. Results holds one row per (binary, tool, task),
    # so each count is a count of distinct binaries.
    states = zip(results.tools, _is(results.tasks, Task.NOP), _is(results.ir, TriState.NA),
                 _is(results.ir, TriState.YES), results.exe,
                 _is(results.func, TriState.YES))
    if cohort.predicate:
        members = {b for b, v in results.variants.items() if cohort.matches(v)}
        states = compress(states, map(members.__contains__, results.binary_ids))
    counts: Counter[tuple[str, str]] = Counter()
    ir_judged: set[str] = set()  # tools with an IR verdict on some NOP row
    for (tool, nop, ir_na, ir_yes, exe, func_yes), n in Counter(states).items():
        if nop:
            if not ir_na:
                ir_judged.add(tool)
            hits = (("IR", ir_yes), ("EXE", exe), ("NullFunc", func_yes))
        else:
            hits = (("AFL_EXE", exe), ("AFL_Func", func_yes))
        for column, hit in hits:
            if hit:
                counts[tool, column] += n

    denom = cohort.denominator
    cells: dict[tuple[str, str], Cell] = {}
    for tool in tool_order:
        for column in SUCCESS_COLUMNS:
            cells[(tool, column)] = (
                Cell(None, None) if column == "IR" and tool not in ir_judged
                else _cell(counts[tool, column], denom))
    return SuccessTable(cohort=cohort, tool_order=tuple(tool_order), cells=cells)


def _is(column: list, member) -> Iterable[bool]:
    return map(operator.is_, column, repeat(member))


def handled(results: Results) -> Iterable[bool]:
    """The mask of results' rows that a tool handled: NOP runs that passed EXE."""
    return map(operator.and_, _is(results.tasks, Task.NOP), results.exe)


def _check_tools(tool_order: Sequence[str], results: Results) -> None:
    """Raise UnknownTool when a requested tool has no records at all."""
    missing = set(tool_order).difference(results.tools)
    if missing:
        raise UnknownTool(f"no records for tools {sorted(missing)}")


def _cell(count: int, denom: int) -> Cell:
    return Cell(count=count, raw_pct=(count / denom * 100.0) if denom else None)


METRICS = ("runtime_s", "mem_kb", "out_size_bytes")


def _metric_column(results: Results, metric: str) -> Iterable[float | None]:
    if metric == "runtime_s":
        return results.runtime_s
    if metric == "mem_kb":
        return map(float, results.mem_kb)
    return (None if v is None else float(v) for v in results.out_size)


@dataclass(frozen=True)
class ComparativeTable:
    tools: tuple[str, ...]
    raw_cells: dict[tuple[str, str], float | None]

    def cell(self, row: str, col: str) -> float | None:
        return trunc_pct(self.raw_cells[(row, col)])

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
    results: Results,
    metric: str = "runtime_s",
    tool_order: Sequence[str] | None = None,
    mean_of_ratios: bool = False,
) -> ComparativeTable:
    """Pairwise metric comparison over the intersection of binaries both
    tools handled; cell(row, col) is row's average as a percentage of
    col's. NA when no binary was handled by both. UnknownTool when
    tool_order names a tool with no records."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if tool_order:
        _check_tools(tool_order, results)

    per_tool: defaultdict[str, dict[str, float]] = defaultdict(dict)
    rows = zip(results.tools, results.binary_ids, _metric_column(results, metric))
    for tool, binary_id, value in compress(rows, handled(results)):
        if value is not None:
            per_tool[tool][binary_id] = value

    tools = tuple(tool_order) if tool_order else tuple(sorted(per_tool))
    # Shared binaries are taken in sorted order, so every sum adds in one
    # order; sorting each tool's ids once gives it for every pair.
    ordered = {tool: sorted(values) for tool, values in per_tool.items()}
    cells: dict[tuple[str, str], float | None] = {}
    for a in tools:
        va = per_tool.get(a, {})
        for b in tools:
            vb = per_tool.get(b, {})
            shared = list(filter(vb.__contains__, ordered.get(a, ())))
            cells[(a, b)] = _compare(list(map(va.__getitem__, shared)),
                                     list(map(vb.__getitem__, shared)), mean_of_ratios)
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
                bucket: {tool: trunc_pct(self.raw_cells[(bucket, tool)])
                         for tool in self.tools}
                for bucket in self.buckets
            },
        }


def section_size_table(
    profile_pairs: Iterable[tuple[str, dict[str, int], dict[str, int]]],
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
