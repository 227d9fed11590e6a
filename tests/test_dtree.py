import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rweval.dtree import (
    Accuracy,
    DecisionTreeModel,
    Internal,
    Leaf,
    Task,
    accuracy,
    leaf_count_total,
    parse_tree,
    predict,
    select_features,
    serialize_tree,
    split_train_test,
    train_cart,
)
from rweval.errors import DegenerateSplit, EmptyMatrix, SchemaError
from rweval.features import FeatureMatrix, FeatureVector, Label, MatrixRow
from rweval.scope import builtin_models

from oracles import correlation_ranking, numpy_select_features


def matrix(names, rows):
    return FeatureMatrix(
        feature_names=tuple(names),
        rows=tuple(
            MatrixRow(f"b{i}", tuple(values), label)
            for i, (values, label) in enumerate(rows)
        ),
    )


class TestPredict:
    def test_tie_breaks_to_fail(self):
        model = DecisionTreeModel("t", Task.AFL, (), Leaf(1.0, 1.0))
        p = predict(model, FeatureVector({}))
        assert p.outcome is Label.FAIL
        assert p.confidence == 0.5

    def test_walk_and_confidence(self):
        model = DecisionTreeModel(
            "t",
            Task.AFL,
            ("a", "b"),
            Internal("a", when_false=Leaf(3.0, 1.0), when_true=Internal(
                "b", when_false=Leaf(0.0, 9.0), when_true=Leaf(5.0, 0.0))),
        )
        assert predict(model, FeatureVector({})).leaf_counts == (3.0, 1.0)
        p = predict(model, FeatureVector({"a": True}))
        assert p.outcome is Label.PASS and p.leaf_counts == (0.0, 9.0)
        assert p.confidence == 1.0
        p = predict(model, FeatureVector({"a": True, "b": True}))
        assert p.outcome is Label.FAIL and p.leaf_counts == (5.0, 0.0)

    def test_absent_features_read_false(self):
        model = DecisionTreeModel(
            "t", Task.AFL, ("x",), Internal("x", Leaf(0.0, 2.0), Leaf(2.0, 0.0))
        )
        assert predict(model, FeatureVector({})).outcome is Label.PASS

    def test_extra_features_ignored(self):
        model = DecisionTreeModel(
            "t", Task.AFL, ("x",), Internal("x", Leaf(0.0, 2.0), Leaf(2.0, 0.0))
        )
        junk = FeatureVector({"irrelevant": True, "noise": False})
        assert predict(model, junk) == predict(model, FeatureVector({}))

    def test_undeclared_feature_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DecisionTreeModel(
                "t", Task.AFL, ("a",), Internal("b", Leaf(1, 0), Leaf(0, 1))
            )


class TestTrainCart:
    def test_label_equals_feature_gives_depth_one_pure_tree(self):
        m = matrix(
            ["f", "noise"],
            [
                ((True, True), Label.PASS),
                ((True, False), Label.PASS),
                ((False, True), Label.FAIL),
                ((False, False), Label.FAIL),
            ],
        )
        model = train_cart(m)
        assert isinstance(model.root, Internal) and model.root.feature == "f"
        assert model.root.when_false == Leaf(2.0, 0.0)
        assert model.root.when_true == Leaf(0.0, 2.0)

    def test_constant_labels_give_single_leaf(self):
        m = matrix(["f"], [((True,), Label.PASS), ((False,), Label.PASS)])
        assert train_cart(m).root == Leaf(0.0, 2.0)

    def test_xor_with_depth_two_is_exact(self):
        rows = [
            ((a, b), Label.PASS if a ^ b else Label.FAIL)
            for a, b in itertools.product([False, True], repeat=2)
        ]
        m = matrix(["f1", "f2"], rows)
        model = train_cart(m, max_depth=2, min_leaf=1)

        leaves = []

        def collect(node, depth):
            if isinstance(node, Leaf):
                leaves.append((node, depth))
            else:
                collect(node.when_false, depth + 1)
                collect(node.when_true, depth + 1)

        collect(model.root, 0)
        assert len(leaves) == 4
        assert all(depth == 2 for _, depth in leaves)
        assert all(leaf.fail_count == 0 or leaf.pass_count == 0 for leaf, _ in leaves)
        # exhaustive oracle: the tree reproduces XOR on every input
        for a, b in itertools.product([False, True], repeat=2):
            want = Label.PASS if a ^ b else Label.FAIL
            got = predict(model, FeatureVector({"f1": a, "f2": b})).outcome
            assert got is want

    def test_feature_ties_break_lexicographically(self):
        rows = [
            ((True, True), Label.PASS),
            ((True, True), Label.PASS),
            ((False, False), Label.FAIL),
            ((False, False), Label.FAIL),
        ]
        model = train_cart(matrix(["zz", "aa"], rows))
        assert model.root.feature == "aa"

    def test_max_depth_limits_tree(self):
        rows = [
            ((a, b), Label.PASS if a ^ b else Label.FAIL)
            for a, b in itertools.product([False, True], repeat=2)
        ]
        model = train_cart(matrix(["f1", "f2"], rows), max_depth=1)
        assert isinstance(model.root, Internal)
        assert isinstance(model.root.when_false, Leaf)
        assert isinstance(model.root.when_true, Leaf)

    def test_min_leaf_respected(self):
        rows = [((True,), Label.PASS)] + [((False,), Label.FAIL)] * 9
        model = train_cart(matrix(["f"], rows), min_leaf=2)
        assert model.root == Leaf(9.0, 1.0)  # lone PASS side would violate min_leaf

    def test_zero_impurity_split_taken_at_root(self):
        rng = random.Random(1)
        rows = []
        for _ in range(40):
            label = rng.random() < 0.5
            noise = rng.random() < 0.5
            rows.append(
                ((label, noise), Label.PASS if label else Label.FAIL)
            )
        model = train_cart(matrix(["sep", "noise"], rows))
        assert isinstance(model.root, Internal) and model.root.feature == "sep"
        assert accuracy(model, matrix(["sep", "noise"], rows)).ratio == 1.0

    def test_no_features_raises(self):
        with pytest.raises(EmptyMatrix):
            train_cart(matrix([], [((), Label.PASS), ((), Label.FAIL)]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_leaf_counts_sum_to_routed_rows(self, data):
        n = data.draw(st.integers(2, 24))
        rows = [
            (
                tuple(data.draw(st.booleans()) for _ in range(3)),
                data.draw(st.sampled_from([Label.PASS, Label.FAIL])),
            )
            for _ in range(n)
        ]
        m = matrix(["a", "b", "c"], rows)
        model = train_cart(m, max_depth=4)
        assert leaf_count_total(model) == n
        # every row routes to a leaf that counted its label
        for row in m.rows:
            fv = FeatureVector(dict(zip(m.feature_names, row.values)))
            fail, pss = predict(model, fv).leaf_counts
            assert (fail if row.label is Label.FAIL else pss) >= 1


class TestSelectFeatures:
    def synth(self, seed=7, n=60, noise_cols=5):
        rng = random.Random(seed)
        names = ["target"] + [f"noise{i}" for i in range(noise_cols)]
        rows = []
        for _ in range(n):
            label = rng.random() < 0.5
            values = [label] + [rng.random() < 0.5 for _ in range(noise_cols)]
            rows.append((tuple(values), Label.PASS if label else Label.FAIL))
        return matrix(names, rows)

    def test_label_equal_column_ranked_first(self):
        m = self.synth()
        assert select_features(m, k=3)[0] == "target"

    def test_agrees_with_correlation_oracle_on_top_feature(self):
        m = self.synth(seed=11)
        columns = {name: m.column(name) for name in m.feature_names}
        labels = [r.label is Label.PASS for r in m.rows]
        assert select_features(m, k=1)[0] == correlation_ranking(columns, labels)[0]

    def test_k_larger_than_feature_count_returns_all(self):
        m = self.synth(noise_cols=2)
        assert sorted(select_features(m, k=50)) == sorted(m.feature_names)

    def test_duplicate_columns_tie_lexicographically(self):
        rows = [
            ((True, True), Label.PASS),
            ((True, True), Label.PASS),
            ((False, False), Label.FAIL),
            ((False, False), Label.FAIL),
        ]
        ranked = select_features(matrix(["dup_b", "dup_a"], rows), k=2)
        assert ranked == ["dup_a", "dup_b"]

    def test_deterministic(self):
        m = self.synth(seed=3)
        assert select_features(m, k=4) == select_features(m, k=4)

    @staticmethod
    def reference_case(seed):
        """A seeded matrix: odd seeds draw rows from a pool of 8, so rows
        repeat; seeds divisible by 3 repeat column 0 as the last column;
        seeds 0 and 1 mod 4 make a tenth of the rows all false."""
        rng = random.Random(seed)
        n, d = rng.choice((30, 90, 200)), rng.choice((4, 9, 16))
        pool = [tuple(rng.random() < 0.4 for _ in range(d)) for _ in range(8)]
        rows = []
        for i in range(n):
            if seed % 4 < 2 and i % 10 == 0:
                values = (False,) * d
            elif seed % 2:
                values = rng.choice(pool)
            else:
                values = tuple(rng.random() < 0.4 for _ in range(d))
            if seed % 3 == 0:
                values += values[:1]
            passed = values[0] + values[1] + rng.random() > 1.5
            rows.append((values, Label.PASS if passed else Label.FAIL))
        return matrix([f"f{j:02d}" for j in range(len(rows[0][0]))], rows)

    @pytest.mark.parametrize("seed", range(24))
    def test_ranking_matches_the_numpy_reference(self, seed):
        pytest.importorskip("numpy")
        m = self.reference_case(seed)
        d = len(m.feature_names)
        assert select_features(m, k=d) == numpy_select_features(m, k=d)


class TestSplit:
    def ten_rows(self):
        return matrix(
            ["f"], [((i % 2 == 0,), Label.PASS) for i in range(10)]
        )

    def test_70_30_sizes(self):
        train, test = split_train_test(self.ten_rows(), 0.7, seed=0)
        assert (len(train.rows), len(test.rows)) == (7, 3)

    def test_same_seed_same_partition(self):
        a = split_train_test(self.ten_rows(), 0.7, seed=42)
        b = split_train_test(self.ten_rows(), 0.7, seed=42)
        assert a == b

    def test_different_seed_usually_differs(self):
        m = self.ten_rows()
        a, _ = split_train_test(m, 0.7, seed=1)
        b, _ = split_train_test(m, 0.7, seed=2)
        assert a != b

    def test_partition_no_overlap_union_complete(self):
        m = self.ten_rows()
        train, test = split_train_test(m, 0.5, seed=9)
        train_ids = {r.binary_id for r in train.rows}
        test_ids = {r.binary_id for r in test.rows}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {r.binary_id for r in m.rows}

    def test_single_row_degenerate(self):
        m = matrix(["f"], [((True,), Label.PASS)])
        with pytest.raises(DegenerateSplit):
            split_train_test(m, 0.7)

    def test_one_train_row_degenerate(self):
        # ceil(10 * 0.1) leaves 1 row to train, and train_cart needs 2
        with pytest.raises(DegenerateSplit, match="leave 1 to train"):
            split_train_test(self.ten_rows(), 0.1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_train_test(self.ten_rows(), 1.0)


class TestAccuracy:
    def test_majority_leaf_on_uniform_fail(self):
        m = matrix(["f"], [((bool(i % 2),), Label.FAIL) for i in range(6)])
        model = DecisionTreeModel("t", Task.NOP, ("f",), Leaf(6.0, 0.0))
        score = accuracy(model, m)
        assert score == Accuracy(ratio=1.0, percent=100.0)

    def test_unconstrained_cart_fits_training_set(self):
        rng = random.Random(5)
        rows = [
            (
                (rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5),
                Label.PASS if rng.random() < 0.5 else Label.FAIL,
            )
            for _ in range(16)
        ]
        # deduplicate contradictory feature patterns so a lossless fit exists
        seen = {}
        rows = [
            seen.setdefault(values, (values, label)) for values, label in rows
        ]
        m = matrix(["a", "b", "c"], dict.fromkeys(rows))
        model = train_cart(m, max_depth=10)
        assert accuracy(model, m).percent == 100.0

    def test_depth_zero_tree_scores_majority_fraction(self):
        rng = random.Random(13)
        labels = [Label.PASS if rng.random() < 0.5 else Label.FAIL for _ in range(25)]
        m = matrix(["f"], [((rng.random() < 0.5,), lab) for lab in labels])
        fails = sum(1 for lab in labels if lab is Label.FAIL)
        model = DecisionTreeModel(
            "t", Task.NOP, ("f",), Leaf(float(fails), float(len(labels) - fails))
        )
        majority = max(fails, len(labels) - fails) / len(labels)
        assert accuracy(model, m).ratio == pytest.approx(majority)

    def test_empty_matrix_rejected(self):
        model = DecisionTreeModel("t", Task.NOP, ("f",), Leaf(1.0, 0.0))
        with pytest.raises(EmptyMatrix):
            accuracy(model, matrix(["f"], []))


class TestSerialization:
    def test_round_trip_every_builtin(self):
        for model in builtin_models():
            assert parse_tree(serialize_tree(model)) == model

    def test_round_trip_trained_model(self):
        m = matrix(
            ["f", "g"],
            [
                ((True, False), Label.PASS),
                ((False, True), Label.FAIL),
                ((True, True), Label.PASS),
                ((False, False), Label.FAIL),
            ],
        )
        model = train_cart(m, tool_name="stub", task=Task.NOP)
        assert parse_tree(serialize_tree(model)) == model

    def test_negative_count_rejected(self):
        obj = {
            "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
            "root": {"fail": -1, "pass": 2},
        }
        with pytest.raises(SchemaError):
            parse_tree(json.dumps(obj))

    def test_missing_true_branch_rejected(self):
        obj = {
            "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
            "root": {"feature": "f", "false": {"fail": 1, "pass": 0}},
        }
        with pytest.raises(SchemaError) as exc:
            parse_tree(json.dumps(obj))
        assert exc.value.path == "root"

    def test_unknown_field_rejected_with_path(self):
        obj = {
            "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
            "root": {
                "feature": "f",
                "false": {"fail": 1, "pass": 0},
                "true": {"fail": 0, "pass": 1, "extra": 1},
            },
        }
        with pytest.raises(SchemaError) as exc:
            parse_tree(json.dumps(obj))
        assert exc.value.path == "root.true"

    def test_undeclared_feature_rejected(self):
        obj = {
            "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
            "root": {"feature": "g", "false": {"fail": 1, "pass": 0},
                     "true": {"fail": 0, "pass": 1}},
        }
        with pytest.raises(SchemaError):
            parse_tree(json.dumps(obj))

    def test_bad_task_rejected(self):
        with pytest.raises(SchemaError):
            parse_tree(json.dumps({"tool": "x", "task": "FUZZ", "features": [],
                                   "accuracy": None, "root": {"fail": 1, "pass": 0}}))

    @pytest.mark.parametrize("count", ["NaN", "Infinity", "-Infinity",
                                       pytest.param("1" + "0" * 400, id="huge_int")])
    @pytest.mark.parametrize("side", ["fail", "pass"])
    def test_non_finite_count_rejected_with_path(self, side, count):
        leaf = {"fail": 1, "pass": 0, side: "COUNT"}
        source = json.dumps({
            "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
            "root": {"feature": "f", "false": {"fail": 1, "pass": 0}, "true": leaf},
        }).replace('"COUNT"', count)
        with pytest.raises(SchemaError) as exc:
            parse_tree(source)
        assert exc.value.path == "root.true"

    @pytest.mark.parametrize("acc", ["true", "false", "NaN", "Infinity", "-Infinity",
                                     '"81.47"', pytest.param("1" + "0" * 400, id="huge_int")])
    def test_bad_accuracy_rejected(self, acc):
        source = ('{"tool": "x", "task": "AFL", "features": [], "accuracy": %s, '
                  '"root": {"fail": 1, "pass": 0}}' % acc)
        with pytest.raises(SchemaError, match="accuracy"):
            parse_tree(source)


class TestTreeErrorsNameTheirNode:
    """DecisionTreeModel alone checks a tree; parse_tree only reads JSON, so
    a bad tree gets the same error, with the same node path, either way."""

    OBJ = {
        "tool": "x", "task": "AFL", "features": ["f"], "accuracy": None,
        "root": {
            "feature": "f",
            "false": {"fail": 1, "pass": 0},
            "true": {"feature": "f", "false": {"feature": "g", "false": {"fail": 1, "pass": 0},
                                               "true": {"fail": 0, "pass": 1}},
                     "true": {"fail": 0, "pass": 1}},
        },
    }

    def test_direct_construction(self):
        leaf = Leaf(1.0, 0.0)
        with pytest.raises(SchemaError) as exc:
            DecisionTreeModel("x", Task.AFL, ("f",), Internal(
                "f", leaf, Internal("f", Internal("g", leaf, leaf), leaf)))
        assert exc.value.path == "root.true.false"
        assert isinstance(exc.value, ValueError)

    def test_parsed_from_json(self):
        with pytest.raises(SchemaError) as exc:
            parse_tree(json.dumps(self.OBJ))
        assert exc.value.path == "root.true.false"

    @pytest.mark.parametrize("count", [math.nan, math.inf, -1.0])
    def test_bad_leaf_count_at_construction(self, count):
        with pytest.raises(SchemaError) as exc:
            DecisionTreeModel("x", Task.AFL, ("f",),
                              Internal("f", Leaf(1.0, 0.0), Leaf(count, 0.0)))
        assert exc.value.path == "root.true"
