import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rweval.dtree import Task, leaf_count_total, predict
from rweval.elf import ElfFile, parse_elf
from rweval.errors import MalformedElf
from rweval.features import FeatureVector, Label
from rweval.scope import TOOLS_WITHOUT_MODELS, ScopeReport, builtin_models, scope_binary

from transliterations import TRANSLITERATIONS

MODELS = {m.tool_name: m for m in builtin_models()}


def scope_file(path) -> ScopeReport:
    """scope_binary on the file at path, parsed as the CLI parses it."""
    with ElfFile(str(path)) as binary:
        return scope_binary(str(path), parse_elf(binary))


class TestBuiltinModels:
    def test_exactly_the_published_five(self):
        assert sorted(MODELS) == ["ddisasm", "e9patch", "mctoll", "retrowrite", "zipr"]
        assert all(m.task is Task.AFL for m in MODELS.values())

    def test_built_once_per_process(self):
        assert isinstance(builtin_models(), tuple)
        assert builtin_models() is builtin_models()

    def test_reported_accuracies(self):
        expected = {
            "ddisasm": 81.47,
            "e9patch": 86.06,
            "mctoll": 98.80,
            "retrowrite": 93.02,
            "zipr": 79.98,
        }
        assert {n: m.reported_accuracy for n, m in MODELS.items()} == expected

    def test_feature_order_matches_published_parameters(self):
        for tool, (_, params) in TRANSLITERATIONS.items():
            assert MODELS[tool].feature_order == params, tool

    @pytest.mark.parametrize("tool", sorted(TRANSLITERATIONS))
    def test_exhaustive_agreement_with_transliteration(self, tool):
        translit, params = TRANSLITERATIONS[tool]
        model = MODELS[tool]
        for combo in itertools.product((False, True), repeat=len(params)):
            expected = translit(*combo)
            got = predict(model, FeatureVector(dict(zip(params, combo))))
            assert got.leaf_counts == (expected["FAIL"], expected["PASS"]), (
                tool,
                combo,
            )
            want_outcome = (
                Label.PASS if expected["PASS"] > expected["FAIL"] else Label.FAIL
            )
            assert got.outcome is want_outcome, (tool, combo)

    @pytest.mark.parametrize("tool", sorted(TRANSLITERATIONS))
    def test_leaf_totals_equal_training_sample_count(self, tool):
        # every published tree routes the identical 2342-sample training set
        assert leaf_count_total(MODELS[tool]) == 2342.0

    @given(
        st.dictionaries(
            st.sampled_from(
                ["pi", "strip", "interp", "got.plt", "rela.plt", "symtab",
                 "note.abi_tag", "note.gnu.build_id", "data.rel.ro",
                 "junk.section", "another"]
            ),
            st.booleans(),
        )
    )
    def test_inference_total_over_arbitrary_vectors(self, flags):
        fv = FeatureVector(flags)
        for model in MODELS.values():
            p = predict(model, fv)
            assert 0.0 <= p.confidence <= 1.0
            assert p.leaf_counts[0] >= 0 and p.leaf_counts[1] >= 0

    def test_tools_without_models_not_guessed(self):
        assert set(TOOLS_WITHOUT_MODELS) == {
            "egalito",
            "multiverse",
            "reopt",
            "revng",
            "uroboros",
        }
        assert not set(TOOLS_WITHOUT_MODELS) & set(MODELS)


class TestSpotLeaves:
    def test_ddisasm_pass_leaf(self):
        fv = FeatureVector({"note.abi_tag": False, "interp": True, "rela.plt": True})
        p = predict(MODELS["ddisasm"], fv)
        assert p.leaf_counts == (47.0, 910.0)
        assert p.outcome is Label.PASS
        assert p.confidence == pytest.approx(910 / 957)

    def test_retrowrite_fail_without_build_id(self):
        p = predict(MODELS["retrowrite"], FeatureVector({"note.gnu.build_id": False}))
        assert p.leaf_counts == (1166.0, 0.0)
        assert p.outcome is Label.FAIL

    def test_mctoll_fail_with_abi_tag(self):
        p = predict(MODELS["mctoll"], FeatureVector({"note.abi_tag": True}))
        assert p.leaf_counts == (1672.0, 0.0)
        assert p.outcome is Label.FAIL

    def test_e9patch_fail_nopie_with_build_id(self):
        p = predict(
            MODELS["e9patch"],
            FeatureVector({"pi": False, "note.gnu.build_id": True}),
        )
        assert p.leaf_counts == (723.0, 0.0)
        assert p.outcome is Label.FAIL

    def test_zipr_pass_leaf(self):
        fv = FeatureVector({"got.plt": False, "interp": True, "pi": False})
        p = predict(MODELS["zipr"], fv)
        assert p.leaf_counts == (10.0, 26.0)
        assert p.outcome is Label.PASS


class TestScopeBinary:
    def test_non_elf_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("just some notes\n")
        with pytest.raises(MalformedElf):
            scope_file(path)

    def test_report_covers_loaded_models(self, hello_variants):
        variant = hello_variants[0]
        report = scope_file(variant.path)
        assert set(report.predictions) == set(MODELS)
        assert report.features.get("pi") is variant.pie

    def test_stripped_nopie_binary_fails_retrowrite(self, hello_variants):
        variant = next(v for v in hello_variants if v.stripped and not v.pie)
        report = scope_file(variant.path)
        # hand-trace: with pi false the published tree fails both build_id arms
        assert report.predictions["retrowrite"].outcome is Label.FAIL

    def test_deterministic_and_side_effect_free(self, hello_variants):
        path = hello_variants[0].path
        before = path.read_bytes()
        assert scope_file(path) == scope_file(path)
        assert path.read_bytes() == before

    def test_json_shape(self, hello_variants):
        report = scope_file(hello_variants[0].path)
        obj = report.to_json_obj()
        assert set(obj) == {"binary", "features", "predictions"}
        for cell in obj["predictions"].values():
            assert set(cell) == {"outcome", "confidence", "fail", "pass"}
            assert cell["outcome"] in ("PASS", "FAIL")

    def test_text_output_mentions_unmodeled_tools(self):
        report = ScopeReport("x", FeatureVector({}), {})
        assert "no model" in report.to_text()
