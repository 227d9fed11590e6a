"""Boolean-feature decision trees: inference, CART training, and selection.

Trees here are deliberately simple: internal nodes test one boolean feature
(absent features read as false), leaves carry FAIL/PASS sample counts, and
the predicted class is the leaf majority with ties going to FAIL. Training
is greedy CART over boolean splits with exact (rational) Gini comparisons so
results never depend on float rounding; feature ties break by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DegenerateSplit, EmptyMatrix, SchemaError
from .features import FeatureMatrix, FeatureVector, Label, MatrixRow, check_support_fraction
from .util import round_half_up


class Task(Enum):
    NOP = "NOP"
    AFL = "AFL"


@dataclass(frozen=True)
class Leaf:
    fail_count: float
    pass_count: float


@dataclass(frozen=True)
class Internal:
    feature: str
    when_false: "TreeNode"
    when_true: "TreeNode"


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTreeModel:
    tool_name: str
    task: Task
    feature_order: tuple[str, ...]
    root: TreeNode
    reported_accuracy: float | None = None

    def __post_init__(self):
        declared = set(self.feature_order)
        for node, path in _walk(self.root):
            if isinstance(node, Internal) and node.feature not in declared:
                raise SchemaError(f"node tests undeclared feature {node.feature!r}", path)
            if isinstance(node, Leaf) and not all(
                    math.isfinite(c) and c >= 0 for c in (node.fail_count, node.pass_count)):
                raise SchemaError("leaf counts must be finite and non-negative", path)


def _walk(node: TreeNode, path: str = "root"):
    """Yield (node, path) for node and every node below it."""
    yield node, path
    if isinstance(node, Internal):
        yield from _walk(node.when_false, path + ".false")
        yield from _walk(node.when_true, path + ".true")


def leaf_count_total(model: DecisionTreeModel) -> float:
    """Sum of FAIL+PASS counts over all leaves (the training-sample total)."""
    return sum(
        node.fail_count + node.pass_count
        for node, _ in _walk(model.root)
        if isinstance(node, Leaf)
    )


@dataclass(frozen=True)
class Prediction:
    outcome: Label
    confidence: float
    leaf_counts: tuple[float, float]  # (fail_count, pass_count)


def predict(model: DecisionTreeModel, fv: FeatureVector) -> Prediction:
    """Route a feature vector to a leaf. Ties at the leaf predict FAIL."""
    node = model.root
    while isinstance(node, Internal):
        node = node.when_true if fv.get(node.feature) else node.when_false
    total = node.fail_count + node.pass_count
    outcome = Label.PASS if node.pass_count > node.fail_count else Label.FAIL
    confidence = max(node.fail_count, node.pass_count) / total if total > 0 else 0.0
    return Prediction(
        outcome=outcome,
        confidence=confidence,
        leaf_counts=(node.fail_count, node.pass_count),
    )


def check_train_settings(*, k: int = 8, train_fraction: float = 0.7, max_depth: int = 6,
                         min_leaf: int = 1, max_support_fraction: float = 1.0) -> None:
    """Raise ValueError for a training setting that no corpus could honour.
    Each training step checks its own settings here, so a caller can check
    them all before it loads anything."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be at least 1")
    check_support_fraction(max_support_fraction)


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
    # fractions and random are imported by the train-path functions that use
    # them, since every command imports this module
    from fractions import Fraction

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


def split_train_test(
    matrix: FeatureMatrix, train_fraction: float, seed: int = 0
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded shuffle, then the first ceil(n * train_fraction) rows train.
    DegenerateSplit unless that leaves at least 2 rows to train (as
    train_cart needs) and 1 to test."""
    import random
    from fractions import Fraction

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


@dataclass(frozen=True)
class Accuracy:
    ratio: float  # raw fraction correct in [0, 1]
    percent: float  # ratio * 100 rounded half-up to 2 decimals


def accuracy(model: DecisionTreeModel, matrix: FeatureMatrix) -> Accuracy:
    if not matrix.rows:
        raise EmptyMatrix("cannot score an empty matrix")
    hits = 0
    for row in matrix.rows:
        fv = FeatureVector(dict(zip(matrix.feature_names, row.values)))
        if predict(model, fv).outcome is row.label:
            hits += 1
    ratio = hits / len(matrix.rows)
    return Accuracy(ratio=ratio, percent=round_half_up(ratio * 100.0))


# --- serialization ---------------------------------------------------------
#
# {"tool": str, "task": "NOP"|"AFL", "features": [str], "accuracy": num|null,
#  "root": {"feature": str, "false": <node>, "true": <node>}
#        | {"fail": num, "pass": num}}


def serialize_tree(model: DecisionTreeModel) -> str:
    def node_obj(node: TreeNode):
        if isinstance(node, Leaf):
            return {"fail": node.fail_count, "pass": node.pass_count}
        return {
            "feature": node.feature,
            "false": node_obj(node.when_false),
            "true": node_obj(node.when_true),
        }

    return json.dumps(
        {
            "tool": model.tool_name,
            "task": model.task.value,
            "features": list(model.feature_order),
            "accuracy": model.reported_accuracy,
            "root": node_obj(model.root),
        },
        indent=2,
    )


def parse_tree(source: str) -> DecisionTreeModel:
    """Inverse of serialize_tree. SchemaError, with the node path, for
    unknown fields or values of the wrong type; DecisionTreeModel checks
    the counts and features of the tree itself."""
    # Every JSON number as a float: an integer too large for one then reads as
    # infinite, which the checks reject, where float(int) would overflow.
    obj = json.loads(source, parse_int=float)
    if not isinstance(obj, dict):
        raise SchemaError("model must be a JSON object")
    unknown = set(obj) - {"tool", "task", "features", "accuracy", "root"}
    if unknown:
        raise SchemaError(f"unknown model fields {sorted(unknown)}")
    for key in ("tool", "task", "features", "root"):
        if key not in obj:
            raise SchemaError(f"missing model field {key!r}")
    if not isinstance(obj["tool"], str):
        raise SchemaError("'tool' must be a string")
    try:
        task = Task(obj["task"])
    except ValueError:
        raise SchemaError(f"'task' must be NOP or AFL, got {obj['task']!r}") from None
    feats = obj["features"]
    if not isinstance(feats, list) or not all(isinstance(f, str) for f in feats):
        raise SchemaError("'features' must be a list of strings")
    acc = obj.get("accuracy")
    if acc is not None and not (isinstance(acc, float) and math.isfinite(acc)):
        raise SchemaError("'accuracy' must be a finite number or null")

    def node_from(o, path: str) -> TreeNode:
        if not isinstance(o, dict):
            raise SchemaError("node must be an object", path)
        keys = set(o)
        if keys == {"fail", "pass"}:
            for name in ("fail", "pass"):
                if not isinstance(o[name], float):
                    raise SchemaError(f"leaf {name!r} count must be a number", path)
            return Leaf(o["fail"], o["pass"])
        if keys == {"feature", "false", "true"}:
            if not isinstance(o["feature"], str):
                raise SchemaError("'feature' must be a string", path)
            return Internal(
                feature=o["feature"],
                when_false=node_from(o["false"], path + ".false"),
                when_true=node_from(o["true"], path + ".true"),
            )
        raise SchemaError(
            "node must have exactly {fail, pass} or {feature, false, true}, "
            f"got {sorted(keys)}",
            path,
        )

    return DecisionTreeModel(
        tool_name=obj["tool"],
        task=task,
        feature_order=tuple(feats),
        root=node_from(obj["root"], "root"),
        reported_accuracy=acc,
    )
