"""Training a decision tree from labeled binaries: the `rweval train` procedure.

Its steps, in the order `train` runs them: build_matrix assembles labeled
feature vectors into a matrix, split_train_test holds rows out, select_features
ranks the features on the train rows, select_columns keeps the top k,
train_cart grows the tree, and accuracy scores it on the held-out rows.
CART compares Gini impurities exactly (as rationals), so results never depend
on float rounding; feature ties break by name.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .dtree import DecisionTreeModel, Internal, Leaf, TreeNode, predict
from .errors import DegenerateSplit, EmptyMatrix
from .features import PI, STRIP, FeatureVector
from .util import record, round_half_up
from .variant import Label, Task


@record
class MatrixRow:
    binary_id: str
    values: tuple[bool, ...]
    label: Label


@record
class FeatureMatrix:
    feature_names: tuple[str, ...]
    rows: tuple[MatrixRow, ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            if len(row.values) != len(self.feature_names):
                raise ValueError(
                    f"row {row.binary_id!r} has {len(row.values)} values for "
                    f"{len(self.feature_names)} features"
                )
            if row.binary_id in seen:
                raise ValueError(f"duplicated binary id {row.binary_id!r}")
            seen.add(row.binary_id)

    def column(self, name: str) -> list[bool]:
        i = self.feature_names.index(name)
        return [row.values[i] for row in self.rows]


def check_train_settings(*, k: int = 8, train_fraction: float = 0.7, max_depth: int = 6,
                         min_leaf: int = 1, min_support: int = 2,
                         max_support_fraction: float = 1.0) -> None:
    """Raise ValueError for a training setting that no corpus could honour.
    Each training step checks its own settings here, so a caller can check
    them all before it loads anything."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be at least 1")
    if min_support < 0:
        raise ValueError("min_support must be at least 0")
    if not 0.0 <= max_support_fraction <= 1.0:
        raise ValueError("max_support_fraction must be within [0, 1]")


def build_matrix(
    vectors: list[tuple[str, FeatureVector, Label]],
    min_support: int = 2,
    max_support_fraction: float = 1.0,
) -> FeatureMatrix:
    """Assemble labeled feature vectors into a training matrix.

    Features present in >= max_support_fraction of rows are dropped (with the
    default 1.0 that means only features present in literally every row), as
    are features present in fewer than min_support rows -- the latter weeds
    out program-unique sections. "pi" and "strip" survive both filters.
    """
    if len(vectors) < 2:
        raise ValueError("need at least 2 rows to build a matrix")
    check_train_settings(min_support=min_support, max_support_fraction=max_support_fraction)

    n = len(vectors)
    support: dict[str, int] = {}
    for _, fv, _ in vectors:
        for name, value in fv.features.items():
            if value:
                support[name] = support.get(name, 0) + 1
    support.setdefault(PI, 0)
    support.setdefault(STRIP, 0)

    kept = []
    for name, count in support.items():
        if name in (PI, STRIP):
            kept.append(name)
        elif count >= min_support and count < max_support_fraction * n:
            kept.append(name)
    kept.sort()

    rows = tuple(
        MatrixRow(bid, tuple(fv.get(name) for name in kept), label)
        for bid, fv, label in vectors
    )
    matrix = FeatureMatrix(feature_names=tuple(kept), rows=rows)

    if set(kept) == {PI, STRIP}:
        constant = all(
            len(set(matrix.column(name))) == 1 for name in (PI, STRIP)
        )
        if constant:
            raise EmptyMatrix(
                "no discriminating features survive filtering "
                "(only constant pi/strip columns remain)"
            )
    return matrix


def select_columns(matrix: FeatureMatrix, names: list[str]) -> FeatureMatrix:
    """Project a matrix onto a subset of features, keeping the given order."""
    indices = [matrix.feature_names.index(name) for name in names]
    rows = tuple(
        MatrixRow(row.binary_id, tuple(row.values[i] for i in indices), row.label)
        for row in matrix.rows
    )
    return FeatureMatrix(feature_names=tuple(names), rows=rows)


def split_train_test(
    matrix: FeatureMatrix, train_fraction: float, seed: int = 0
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded shuffle, then the first ceil(n * train_fraction) rows train.
    DegenerateSplit unless that leaves at least 2 rows to train (as
    train_cart needs) and 1 to test."""
    check_train_settings(train_fraction=train_fraction)
    n = len(matrix.rows)
    # Fraction-of-string keeps ceil(10 * 0.7) == 7 rather than a float wobble.
    n_train = math.ceil(n * Fraction(str(train_fraction)))
    if n_train < 2 or n_train >= n:
        raise DegenerateSplit(
            f"{n} rows at train_fraction={train_fraction} leave {n_train} to train "
            f"and {n - n_train} to test; need at least 2 and 1"
        )
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train = tuple(matrix.rows[i] for i in order[:n_train])
    test = tuple(matrix.rows[i] for i in order[n_train:])
    return (
        FeatureMatrix(matrix.feature_names, train),
        FeatureMatrix(matrix.feature_names, test),
    )


# select_features's descent: epochs, base learning rate, L2 weight
SELECT_EPOCHS = 500
SELECT_STEP = 0.1
SELECT_REG = 0.01


def select_features(matrix: FeatureMatrix, k: int = 8) -> list[str]:
    """Rank features by a linear max-margin classifier and keep the top k.

    Minimizes L2-regularized hinge loss (weight SELECT_REG) over {-1,+1}
    labels (PASS=+1) with full-batch subgradient descent from zero weights
    for SELECT_EPOCHS epochs, learning rate SELECT_STEP/sqrt(t) at epoch t.
    Deterministic: the gradient sums are integer counts, and each margin is
    summed with math.fsum, which rounds once whatever the column order.
    Returns the k features with largest absolute weight, descending, ties
    by name.
    """
    check_train_settings(k=k)
    if not matrix.rows:
        raise EmptyMatrix("cannot select features from an empty matrix")
    n, d = len(matrix.rows), len(matrix.feature_names)

    # Equal rows give equal margins and gradient terms, so each distinct set
    # of true columns is visited once per epoch, with its PASS and FAIL counts.
    groups: dict[tuple[int, ...], list[int]] = {}
    for r in matrix.rows:
        counts = groups.setdefault(tuple(j for j, v in enumerate(r.values) if v), [0, 0])
        counts[r.label is Label.FAIL] += 1
    # members[j]: the groups in which column j is true, whose violating
    # rows make up column j's gradient count
    members: list[list[int]] = [[] for _ in range(d)]
    for i, active in enumerate(groups):
        for j in active:
            members[j].append(i)

    w = [0.0] * d
    b = 0.0
    for t in range(1, SELECT_EPOCHS + 1):
        net = []
        for active, (passes, fails) in groups.items():
            s = math.fsum(map(w.__getitem__, active)) + b
            # a row violates when its margin, label * s, is below 1
            net.append((passes if s < 1.0 else 0) - (fails if -s < 1.0 else 0))
        lr = SELECT_STEP / math.sqrt(t)
        w = [wj - lr * (SELECT_REG * wj - sum(map(net.__getitem__, m)) / n)
             for wj, m in zip(w, members)]
        b = b - lr * (-sum(net) / n)

    ranked = sorted(zip(matrix.feature_names, map(abs, w)), key=lambda p: (-p[1], p[0]))
    return [name for name, _ in ranked[:k]]


def train_cart(
    matrix: FeatureMatrix,
    max_depth: int = 6,
    min_leaf: int = 1,
    *,
    tool_name: str = "",
    task: Task = Task.AFL,
) -> DecisionTreeModel:
    """Greedy CART with Gini impurity over boolean splits.

    At each node the feature minimizing the weighted child Gini is chosen,
    with ties broken by lexicographic feature name; a node splits whenever
    any split keeps both children at min_leaf or more, even at zero Gini
    gain (XOR-style targets need the zero-gain split to become separable one
    level down). The procedure is fully deterministic.
    """
    if len(matrix.feature_names) < 1:
        raise EmptyMatrix("cannot train on a matrix with no feature columns")
    if len(matrix.rows) < 2:
        raise ValueError("need at least 2 rows to train")
    check_train_settings(max_depth=max_depth, min_leaf=min_leaf)

    # iterate candidates in name order so the first best wins ties by name
    ordered = sorted(range(len(matrix.feature_names)), key=lambda i: matrix.feature_names[i])

    def counts(rows: list[MatrixRow]) -> tuple[int, int]:
        fails = sum(1 for r in rows if r.label is Label.FAIL)
        return fails, len(rows) - fails

    def gini_term(fails: int, passes: int) -> Fraction:
        n = fails + passes
        return Fraction(n * n - fails * fails - passes * passes, n)

    def build(rows: list[MatrixRow], depth: int) -> TreeNode:
        fails, passes = counts(rows)
        if (
            fails == 0
            or passes == 0
            or depth >= max_depth
            or len(rows) < 2 * min_leaf
        ):
            return Leaf(float(fails), float(passes))

        best: tuple[Fraction, int] | None = None
        for col in ordered:
            t_fails = t_passes = 0
            n_true = 0
            for r in rows:
                if r.values[col]:
                    n_true += 1
                    if r.label is Label.FAIL:
                        t_fails += 1
                    else:
                        t_passes += 1
            n_false = len(rows) - n_true
            if n_true < min_leaf or n_false < min_leaf:
                continue
            score = gini_term(fails - t_fails, passes - t_passes) + gini_term(
                t_fails, t_passes
            )
            if best is None or score < best[0]:
                best = (score, col)
        if best is None:
            return Leaf(float(fails), float(passes))

        col = best[1]
        false_rows = [r for r in rows if not r.values[col]]
        true_rows = [r for r in rows if r.values[col]]
        return Internal(
            feature=matrix.feature_names[col],
            when_false=build(false_rows, depth + 1),
            when_true=build(true_rows, depth + 1),
        )

    return DecisionTreeModel(
        tool_name=tool_name,
        task=task,
        feature_order=matrix.feature_names,
        root=build(list(matrix.rows), 0),
    )


@record
class Accuracy:
    ratio: float  # raw fraction correct in [0, 1]
    percent: float  # hits * 100 / rows, rounded half-up to 2 decimals


def accuracy(model: DecisionTreeModel, matrix: FeatureMatrix) -> Accuracy:
    if not matrix.rows:
        raise EmptyMatrix("cannot score an empty matrix")
    hits = 0
    for row in matrix.rows:
        fv = FeatureVector(dict(zip(matrix.feature_names, row.values)))
        if predict(model, fv).outcome is row.label:
            hits += 1
    ratio = hits / len(matrix.rows)
    return Accuracy(ratio=ratio, percent=round_half_up(hits * 100 / len(matrix.rows)))
