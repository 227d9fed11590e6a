"""Reference oracles kept deliberately independent of the implementation.

- readelf_facts: parses real `readelf -h -SW` output for parity checks.
- tally_success: a dumb success-table tally straight off the results CSV.
- correlation_ranking: features ranked by |phi correlation| with the label.
- numpy_select_features: dtree.select_features's descent over a dense numpy
  matrix; callers skip when numpy is not installed.
- columns: every column of a loaded results object, for equality checks.
- leaf_count_total: the FAIL+PASS counts summed over a tree's leaves.
"""

from __future__ import annotations

import csv
import io
import math
import re
import subprocess
from dataclasses import dataclass


@dataclass
class ReadelfFacts:
    elf_type: str  # DYN / EXEC / REL / ...
    section_names: list[str]


def readelf_facts(path: str) -> ReadelfFacts:
    out = subprocess.run(
        ["readelf", "-h", "-SW", path], check=True, capture_output=True, text=True
    ).stdout
    m = re.search(r"^\s*Type:\s+(\S+)", out, re.MULTILINE)
    assert m, f"no Type line in readelf output for {path}"
    elf_type = m.group(1)

    names = []
    for line in out.splitlines():
        m = re.match(r"^\s*\[\s*(\d+)\](.*)$", line)
        if not m or int(m.group(1)) == 0:
            continue
        rest = m.group(2)
        if not rest.startswith(" "):
            continue
        body = rest[1:]
        if body.startswith(" "):  # blank name column
            continue
        names.append(body.split()[0])
    return ReadelfFacts(elf_type=elf_type, section_names=names)


def tally_success(csv_text: str, predicate: dict[str, str]) -> dict:
    """Counts and raw percentages per tool/column, computed the dumb way."""
    rows = [
        r
        for r in csv.DictReader(io.StringIO(csv_text))
        if all(r[k] == v for k, v in predicate.items())
    ]
    denom = len({r["binary_id"] for r in rows})
    tools = sorted({r["tool"] for r in rows})
    out = {}
    for tool in tools:
        nop = [r for r in rows if r["tool"] == tool and r["task"] == "NOP"]
        afl = [r for r in rows if r["tool"] == tool and r["task"] == "AFL"]
        ir_na = all(r["ir"] == "na" for r in nop)
        counts = {
            "IR": None if ir_na else len({r["binary_id"] for r in nop if r["ir"] == "yes"}),
            "EXE": len({r["binary_id"] for r in nop if r["exe"] == "1"}),
            "NullFunc": len({r["binary_id"] for r in nop if r["func"] == "yes"}),
            "AFL_EXE": len({r["binary_id"] for r in afl if r["exe"] == "1"}),
            "AFL_Func": len({r["binary_id"] for r in afl if r["func"] == "yes"}),
        }
        out[tool] = {
            col: (None if c is None else (c, c / denom * 100.0))
            for col, c in counts.items()
        }
    out["__denominator__"] = denom
    return out


def correlation_ranking(columns: dict[str, list[bool]], labels: list[bool]) -> list[str]:
    """Features sorted by |phi coefficient| with the labels, descending."""

    def phi(xs: list[bool]) -> float:
        n = len(xs)
        mx = sum(xs) / n
        my = sum(labels) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, labels)) / n
        sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
        sy = math.sqrt(sum((y - my) ** 2 for y in labels) / n)
        if sx == 0 or sy == 0:
            return 0.0
        return cov / (sx * sy)

    return sorted(columns, key=lambda name: (-abs(phi(columns[name])), name))


def numpy_select_features(matrix, k: int) -> list[str]:
    """The hinge-loss ranking of dtree.select_features over a dense 0/1
    matrix, one row per sample, with numpy's dot products."""
    import numpy as np

    from rweval.dtree import SELECT_EPOCHS, SELECT_REG, SELECT_STEP
    from rweval.features import Label

    x = np.array([[1.0 if v else 0.0 for v in r.values] for r in matrix.rows])
    y = np.array([1.0 if r.label is Label.PASS else -1.0 for r in matrix.rows])
    n, d = x.shape

    w = np.zeros(d)
    b = 0.0
    for t in range(1, SELECT_EPOCHS + 1):
        margins = y * (x @ w + b)
        viol = margins < 1.0
        grad_w = SELECT_REG * w - (y[viol] @ x[viol]) / n
        grad_b = -float(np.sum(y[viol])) / n
        lr = SELECT_STEP / math.sqrt(t)
        w = w - lr * grad_w
        b = b - lr * grad_b

    ranked = sorted(zip(matrix.feature_names, np.abs(w)), key=lambda p: (-p[1], p[0]))
    return [name for name, _ in ranked[:k]]


def columns(results) -> dict:
    """Each of results' __slots__ and its value: two loads are equal when
    these are, column by column and in the binary-to-variant map."""
    return {name: getattr(results, name) for name in type(results).__slots__}


def leaf_count_total(model) -> float:
    """Sum of FAIL+PASS counts over all leaves of a DecisionTreeModel (the
    training-sample total)."""
    total, stack = 0.0, [model.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "feature"):
            stack += (node.when_false, node.when_true)
        else:
            total += node.fail_count + node.pass_count
    return total
