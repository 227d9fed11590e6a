"""Boolean-feature decision trees: the model, inference, and its JSON form.

Trees here are deliberately simple: internal nodes test one boolean feature
(absent features read as false), leaves carry FAIL/PASS sample counts, and
the predicted class is the leaf majority with ties going to FAIL. Training
one is rweval.training's job.
"""

from __future__ import annotations

import json
import math
from typing import Union

from .errors import SchemaError
from .features import FeatureVector
from .util import record
from .variant import Label, Task


@record
class Leaf:
    fail_count: float
    pass_count: float


@record
class Internal:
    feature: str
    when_false: "TreeNode"
    when_true: "TreeNode"


TreeNode = Union[Leaf, Internal]


@record
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


@record
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
