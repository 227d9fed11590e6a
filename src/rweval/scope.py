"""Built-in AFL-task success predictors and the scoping entry point.

Five rewriters ship with a published decision tree (ddisasm, e9patch,
mctoll, retrowrite, zipr); they are reproduced here node for node,
including branches that re-test a feature already fixed on the path --
those are unreachable under boolean semantics but kept for bit-exact
fidelity to the published models. The remaining evaluated tools (egalito,
multiverse, reopt, revng, uroboros) have no published AFL predictor and
are reported as "no model" rather than guessed.
"""

from __future__ import annotations

import functools
from typing import Sequence

from . import dtree, features
from .dtree import DecisionTreeModel, Internal, Leaf, Prediction, Task
from .elf import ElfSummary
from .features import FeatureVector
from .util import _flat_encoder, record

TOOLS_WITHOUT_MODELS = ("egalito", "multiverse", "reopt", "revng", "uroboros")


def _ddisasm() -> DecisionTreeModel:
    return DecisionTreeModel(
        tool_name="ddisasm",
        task=Task.AFL,
        feature_order=("note.abi_tag", "interp", "strip", "rela.plt", "pi"),
        reported_accuracy=81.47,
        root=Internal(
            "note.abi_tag",
            when_false=Internal(
                "interp",
                when_false=Internal(
                    "strip",
                    when_false=Leaf(12.0, 0.0),
                    when_true=Internal(
                        "interp",
                        when_false=Leaf(37.0, 33.0),
                        when_true=Leaf(50.0, 112.0),
                    ),
                ),
                when_true=Internal(
                    "rela.plt",
                    when_false=Leaf(10.0, 0.0),
                    when_true=Internal(
                        "interp",
                        when_false=Leaf(92.0, 368.0),
                        when_true=Leaf(47.0, 910.0),
                    ),
                ),
            ),
            when_true=Internal(
                "strip",
                when_false=Leaf(53.0, 0.0),
                when_true=Internal(
                    "interp",
                    when_false=Internal(
                        "interp",
                        when_false=Leaf(22.0, 3.0),
                        when_true=Leaf(64.0, 11.0),
                    ),
                    when_true=Internal(
                        "pi",
                        when_false=Internal(
                            "interp",
                            when_false=Leaf(82.0, 38.0),
                            when_true=Leaf(215.0, 168.0),
                        ),
                        when_true=Leaf(0.0, 15.0),
                    ),
                ),
            ),
        ),
    )


def _e9patch() -> DecisionTreeModel:
    return DecisionTreeModel(
        tool_name="e9patch",
        task=Task.AFL,
        feature_order=(
            "pi",
            "note.gnu.build_id",
            "got.plt",
            "interp",
            "strip",
            "note.abi_tag",
            "rela.plt",
        ),
        reported_accuracy=86.06,
        root=Internal(
            "pi",
            when_false=Internal(
                "note.gnu.build_id",
                when_false=Internal(
                    "got.plt",
                    when_false=Internal(
                        "note.gnu.build_id",
                        when_false=Internal(
                            "interp",
                            when_false=Leaf(160.0, 7.0),
                            when_true=Leaf(46.0, 0.0),
                        ),
                        when_true=Leaf(58.0, 0.0),
                    ),
                    when_true=Internal(
                        "note.gnu.build_id",
                        when_false=Internal(
                            "interp",
                            when_false=Leaf(39.0, 6.0),
                            when_true=Leaf(3.0, 0.0),
                        ),
                        when_true=Leaf(13.0, 0.0),
                    ),
                ),
                when_true=Leaf(723.0, 0.0),
            ),
            when_true=Internal(
                "interp",
                when_false=Internal(
                    "interp",
                    when_false=Internal(
                        "note.abi_tag",
                        when_false=Leaf(53.0, 0.0),
                        when_true=Internal(
                            "got.plt",
                            when_false=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(96.0, 21.0),
                                when_true=Leaf(6.0, 2.0),
                            ),
                            when_true=Leaf(23.0, 1.0),
                        ),
                    ),
                    when_true=Internal(
                        "strip",
                        when_false=Leaf(0.0, 15.0),
                        when_true=Internal(
                            "got.plt",
                            when_false=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(31.0, 32.0),
                                when_true=Leaf(22.0, 22.0),
                            ),
                            when_true=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(2.0, 3.0),
                                when_true=Leaf(9.0, 1.0),
                            ),
                        ),
                    ),
                ),
                when_true=Internal(
                    "got.plt",
                    when_false=Internal(
                        "note.abi_tag",
                        when_false=Leaf(10.0, 0.0),
                        when_true=Internal(
                            "note.gnu.build_id",
                            when_false=Internal(
                                "interp",
                                when_false=Leaf(80.0, 501.0),
                                when_true=Leaf(0.0, 47.0),
                            ),
                            when_true=Leaf(35.0, 132.0),
                        ),
                    ),
                    when_true=Internal(
                        "rela.plt",
                        when_false=Leaf(12.0, 0.0),
                        when_true=Internal(
                            "interp",
                            when_false=Leaf(51.0, 48.0),
                            when_true=Leaf(17.0, 15.0),
                        ),
                    ),
                ),
            ),
        ),
    )


def _mctoll() -> DecisionTreeModel:
    return DecisionTreeModel(
        tool_name="mctoll",
        task=Task.AFL,
        feature_order=(
            "note.abi_tag",
            "strip",
            "pi",
            "got.plt",
            "data.rel.ro",
            "symtab",
            "note.gnu.build_id",
        ),
        reported_accuracy=98.80,
        root=Internal(
            "note.abi_tag",
            when_false=Internal(
                "strip",
                when_false=Leaf(334.0, 0.0),
                when_true=Internal(
                    "pi",
                    when_false=Internal(
                        "symtab",
                        when_false=Leaf(69.0, 0.0),
                        when_true=Internal(
                            "got.plt",
                            when_false=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(98.0, 6.0),
                                when_true=Leaf(80.0, 3.0),
                            ),
                            when_true=Leaf(21.0, 0.0),
                        ),
                    ),
                    when_true=Internal(
                        "got.plt",
                        when_false=Internal(
                            "data.rel.ro",
                            when_false=Internal(
                                "symtab",
                                when_false=Leaf(3.0, 0.0),
                                when_true=Leaf(21.0, 4.0),
                            ),
                            when_true=Internal(
                                "symtab",
                                when_false=Leaf(5.0, 6.0),
                                when_true=Leaf(3.0, 0.0),
                            ),
                        ),
                        when_true=Leaf(17.0, 0.0),
                    ),
                ),
            ),
            when_true=Leaf(1672.0, 0.0),
        ),
    )


def _retrowrite() -> DecisionTreeModel:
    return DecisionTreeModel(
        tool_name="retrowrite",
        task=Task.AFL,
        feature_order=(
            "note.gnu.build_id",
            "pi",
            "got.plt",
            "note.abi_tag",
            "rela.plt",
            "data.rel.ro",
            "interp",
        ),
        reported_accuracy=93.02,
        root=Internal(
            "note.gnu.build_id",
            when_false=Leaf(1166.0, 0.0),
            when_true=Internal(
                "pi",
                when_false=Leaf(531.0, 0.0),
                when_true=Internal(
                    "got.plt",
                    when_false=Internal(
                        "note.abi_tag",
                        when_false=Internal(
                            "interp",
                            when_false=Internal(
                                "rela.plt",
                                when_false=Leaf(82.0, 36.0),
                                when_true=Leaf(4.0, 0.0),
                            ),
                            when_true=Leaf(11.0, 0.0),
                        ),
                        when_true=Internal(
                            "note.abi_tag",
                            when_false=Internal(
                                "rela.plt",
                                when_false=Leaf(8.0, 0.0),
                                when_true=Internal(
                                    "data.rel.ro",
                                    when_false=Leaf(78.0, 64.0),
                                    when_true=Leaf(36.0, 50.0),
                                ),
                            ),
                            when_true=Internal(
                                "data.rel.ro",
                                when_false=Leaf(64.0, 32.0),
                                when_true=Leaf(11.0, 0.0),
                            ),
                        ),
                    ),
                    when_true=Leaf(169.0, 0.0),
                ),
            ),
        ),
    )


def _zipr() -> DecisionTreeModel:
    return DecisionTreeModel(
        tool_name="zipr",
        task=Task.AFL,
        feature_order=(
            "got.plt",
            "interp",
            "pi",
            "rela.plt",
            "note.gnu.build_id",
            "note.abi_tag",
            "strip",
        ),
        reported_accuracy=79.98,
        root=Internal(
            "got.plt",
            when_false=Internal(
                "got.plt",
                when_false=Internal(
                    "interp",
                    when_false=Internal(
                        "pi",
                        when_false=Leaf(0.0, 15.0),
                        when_true=Internal(
                            "rela.plt",
                            when_false=Internal(
                                "note.gnu.build_id",
                                when_false=Internal(
                                    "pi",
                                    when_false=Leaf(29.0, 5.0),
                                    when_true=Leaf(21.0, 10.0),
                                ),
                                when_true=Leaf(13.0, 0.0),
                            ),
                            when_true=Leaf(14.0, 0.0),
                        ),
                    ),
                    when_true=Internal(
                        "pi",
                        when_false=Leaf(10.0, 26.0),
                        when_true=Leaf(7.0, 24.0),
                    ),
                ),
                when_true=Internal(
                    "interp",
                    when_false=Internal(
                        "pi",
                        when_false=Leaf(30.0, 103.0),
                        when_true=Leaf(26.0, 108.0),
                    ),
                    when_true=Internal(
                        "interp",
                        when_false=Leaf(19.0, 114.0),
                        when_true=Leaf(17.0, 113.0),
                    ),
                ),
            ),
            when_true=Internal(
                "pi",
                when_false=Internal(
                    "interp",
                    when_false=Internal(
                        "note.abi_tag",
                        when_false=Internal(
                            "strip",
                            when_false=Internal(
                                "got.plt",
                                when_false=Internal(
                                    "note.gnu.build_id",
                                    when_false=Leaf(23.0, 43.0),
                                    when_true=Leaf(41.0, 34.0),
                                ),
                                when_true=Internal(
                                    "note.gnu.build_id",
                                    when_false=Leaf(41.0, 133.0),
                                    when_true=Leaf(10.0, 45.0),
                                ),
                            ),
                            when_true=Leaf(21.0, 0.0),
                        ),
                        when_true=Internal(
                            "got.plt",
                            when_false=Internal(
                                "rela.plt",
                                when_false=Internal(
                                    "note.gnu.build_id",
                                    when_false=Leaf(32.0, 9.0),
                                    when_true=Leaf(30.0, 6.0),
                                ),
                                when_true=Leaf(6.0, 0.0),
                            ),
                            when_true=Internal(
                                "strip",
                                when_false=Internal(
                                    "note.gnu.build_id",
                                    when_false=Leaf(63.0, 55.0),
                                    when_true=Leaf(31.0, 27.0),
                                ),
                                when_true=Leaf(4.0, 0.0),
                            ),
                        ),
                    ),
                    when_true=Internal(
                        "got.plt",
                        when_false=Leaf(0.0, 16.0),
                        when_true=Internal(
                            "note.abi_tag",
                            when_false=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(4.0, 10.0),
                                when_true=Leaf(11.0, 76.0),
                            ),
                            when_true=Internal(
                                "note.gnu.build_id",
                                when_false=Leaf(0.0, 14.0),
                                when_true=Leaf(7.0, 29.0),
                            ),
                        ),
                    ),
                ),
                when_true=Internal(
                    "note.gnu.build_id",
                    when_false=Internal(
                        "note.abi_tag",
                        when_false=Internal(
                            "got.plt",
                            when_false=Internal(
                                "interp",
                                when_false=Internal(
                                    "note.abi_tag",
                                    when_false=Leaf(40.0, 22.0),
                                    when_true=Leaf(37.0, 7.0),
                                ),
                                when_true=Leaf(0.0, 9.0),
                            ),
                            when_true=Internal(
                                "note.abi_tag",
                                when_false=Internal(
                                    "interp",
                                    when_false=Leaf(134.0, 39.0),
                                    when_true=Leaf(13.0, 1.0),
                                ),
                                when_true=Internal(
                                    "interp",
                                    when_false=Leaf(98.0, 21.0),
                                    when_true=Leaf(8.0, 3.0),
                                ),
                            ),
                        ),
                        when_true=Leaf(30.0, 0.0),
                    ),
                    when_true=Leaf(355.0, 0.0),
                ),
            ),
        ),
    )


_BUILDERS = (_ddisasm, _e9patch, _mctoll, _retrowrite, _zipr)


@functools.cache
def builtin_models() -> tuple[DecisionTreeModel, ...]:
    """The five published AFL-task predictors, in tool-name order. The
    trees are frozen, so they are built and validated once per process."""
    return tuple(build() for build in _BUILDERS)


_REPORT = '{\n  "binary": %s,\n  "features": %s,\n  "predictions": %s\n}'
_PREDICTION = ('%s: {\n      "outcome": %s,\n      "confidence": %s,\n'
               '      "fail": %s,\n      "pass": %s\n    }')


def _member(items: str) -> str:
    """A top-level member object from its items, each on its own line."""
    return "{\n    " + items + "\n  }" if items else "{}"


@record
class ScopeReport:
    binary_id: str
    features: FeatureVector
    predictions: dict[str, Prediction]

    def to_json_obj(self) -> dict:
        return {
            "binary": self.binary_id,
            "features": self.features.to_json_obj(),
            "predictions": {
                tool: {
                    "outcome": p.outcome.value,
                    "confidence": p.confidence,
                    "fail": p.leaf_counts[0],
                    "pass": p.leaf_counts[1],
                }
                for tool, p in self.predictions.items()
            },
        }

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj(), indent=2), byte for byte."""
        cells = [self.binary_id]
        for tool, p in self.predictions.items():
            cells += (tool, p.outcome.value, p.confidence, *p.leaf_counts)
        # one C encoder call writes each cell as json.dumps does; it escapes
        # every line break in a string, so the separator cuts one piece per cell
        texts = _flat_encoder("\n")(cells)[1:-1].split(",\n")
        predictions = ",\n    ".join([_PREDICTION] * len(self.predictions)) % tuple(texts[1:])
        features = _flat_encoder("\n    ")(self.features.features)[1:-1]
        return _REPORT % (texts[0], _member(features), _member(predictions))

    def to_text(self) -> str:
        lines = [f"binary: {self.binary_id}", f"{'tool':<12} {'verdict':<8} confidence"]
        for tool, p in self.predictions.items():
            lines.append(f"{tool:<12} {p.outcome.value:<8} {p.confidence:.3f}")
        missing = [tool for tool in TOOLS_WITHOUT_MODELS if tool not in self.predictions]
        if missing:
            lines.append("no model: " + ", ".join(missing))
        return "\n".join(lines)


def scope_binary(
    binary_id: str, summary: ElfSummary, models: Sequence[DecisionTreeModel] | None = None
) -> ScopeReport:
    """Extract the features of a parsed binary and evaluate every model."""
    if models is None:
        models = builtin_models()
    fv = features.extract_features(summary)
    return ScopeReport(
        binary_id=binary_id,
        features=fv,
        predictions={m.tool_name: dtree.predict(m, fv) for m in models},
    )
