import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rweval.elf import parse_elf
from rweval.errors import EmptyMatrix
from rweval.features import (
    FeatureVector,
    Label,
    canonicalize,
    extract_features,
)
from rweval.training import build_matrix

from elfbuild import ET_EXEC, SHT_SYMTAB, Sec, build_elf
from oracles import readelf_facts


class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (".note.ABI-tag", "note.abi_tag"),
            (".got.plt", "got.plt"),
            (".note.gnu.build-id", "note.gnu.build_id"),
            (".data.rel.ro", "data.rel.ro"),
            (".symtab", "symtab"),
            (".interp", "interp"),
            ("no-leading-dot", "no_leading_dot"),
            ("..x", ".x"),
        ],
    )
    def test_known_spellings(self, raw, expected):
        assert canonicalize(raw) == expected

    def test_strips_one_leading_dot_only(self):
        assert canonicalize("..weird") == ".weird"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize("")

    @given(st.text(".", max_size=3), st.text(max_size=30))
    def test_matches_the_readme_rule(self, dots, text):
        # any non-empty name, with leading dots drawn often:
        # strip one leading ".", lowercase ASCII letters, "-" becomes "_"
        name = dots + text
        assume(name)
        rest = name[1:] if name.startswith(".") else name
        expected = "".join("_" if c == "-" else c.lower() if "A" <= c <= "Z" else c
                           for c in rest)
        assert canonicalize(name) == expected


class TestExtract:
    def test_exec_with_symtab(self):
        img = build_elf(
            [Sec(".text", b"\x90"), Sec(".symtab", b"\x00" * 24, SHT_SYMTAB)],
            elf_type=ET_EXEC,
        )
        fv = extract_features(parse_elf(img))
        assert fv.get("pi") is False
        assert fv.get("strip") is False
        assert fv.get("symtab") is True

    def test_dyn_without_symtab(self):
        fv = extract_features(parse_elf(build_elf([Sec(".text", b"\x90")])))
        assert fv.get("pi") is True
        assert fv.get("strip") is True
        assert "symtab" not in fv.features

    def test_absent_reads_false(self):
        fv = extract_features(parse_elf(build_elf()))
        assert fv.get("made.up.section") is False

    def test_stripped_pie_hello_matches_readelf(self, hello_variants):
        variant = next(v for v in hello_variants if v.stripped and v.pie)
        fv = extract_features(parse_elf(variant.path.read_bytes()))
        facts = readelf_facts(str(variant.path))
        assert fv.get("pi") is (facts.elf_type == "DYN") is True
        assert fv.get("strip") is (".symtab" not in facts.section_names) is True
        expected = {canonicalize(n) for n in facts.section_names}
        assert set(fv.features) - {"pi", "strip"} == expected - {"pi", "strip"}

    def test_duplicate_and_reordered_sections_collapse(self):
        a = build_elf([Sec(".text", b"\x90"), Sec(".data", b"\x01")])
        b = build_elf([Sec(".data", b"\x01"), Sec(".text", b"\x90"), Sec(".data", b"")])
        assert extract_features(parse_elf(a)) == extract_features(parse_elf(b))


def fv(**flags) -> FeatureVector:
    return FeatureVector({k.replace("__", "."): v for k, v in flags.items()})


class TestBuildMatrix:
    def rows(self, *vectors):
        return [
            (f"bin{i}", v, Label.PASS if i % 2 else Label.FAIL)
            for i, v in enumerate(vectors)
        ]

    def test_feature_in_every_row_dropped(self):
        rows = self.rows(fv(text=True, a=True), fv(text=True), fv(text=True, a=True))
        m = build_matrix(rows, min_support=1, max_support_fraction=1.0)
        assert "text" not in m.feature_names
        assert "a" in m.feature_names

    def test_pi_and_strip_always_retained(self):
        rows = self.rows(fv(pi=True, strip=True, a=True), fv(pi=True, strip=True))
        m = build_matrix(rows, min_support=1)
        assert "pi" in m.feature_names and "strip" in m.feature_names

    def test_min_support_threshold(self):
        vectors = [fv(rare=(i == 0), common=(i < 5)) for i in range(10)]
        m = build_matrix(self.rows(*vectors), min_support=2)
        assert "rare" not in m.feature_names
        assert "common" in m.feature_names

    def test_missing_keys_read_false(self):
        rows = self.rows(fv(a=True, b=True), fv(a=True), fv(b=True))
        m = build_matrix(rows, min_support=1)
        i = m.feature_names.index("b")
        assert [r.values[i] for r in m.rows] == [True, False, True]

    def test_names_sorted(self):
        rows = self.rows(fv(zz=True, aa=True), fv(zz=True, aa=True), fv())
        m = build_matrix(rows, min_support=1)
        assert list(m.feature_names) == sorted(m.feature_names)

    def test_empty_matrix_when_only_constant_pi_strip(self):
        rows = self.rows(fv(pi=True, strip=False), fv(pi=True, strip=False))
        with pytest.raises(EmptyMatrix):
            build_matrix(rows, min_support=2)

    def test_varying_pi_is_enough(self):
        rows = self.rows(fv(pi=True), fv(pi=False))
        m = build_matrix(rows)
        assert set(m.feature_names) == {"pi", "strip"}

    def test_fewer_than_2_rows_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 rows to build a matrix$"):
            build_matrix(self.rows(fv(a=True)), min_support=1)

    def test_duplicate_ids_rejected(self):
        rows = [("x", fv(a=True), Label.PASS), ("x", fv(), Label.FAIL)]
        with pytest.raises(ValueError):
            build_matrix(rows, min_support=1)

    @pytest.mark.parametrize("setting,message", [
        ({"min_support": -1}, "min_support must be at least 0"),
        ({"max_support_fraction": 1.5}, r"max_support_fraction must be within \[0, 1\]"),
    ])
    def test_bad_support_settings_rejected(self, setting, message):
        rows = self.rows(fv(a=True), fv(b=True))
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_matrix(rows, **setting)

    def test_deterministic(self):
        rows = self.rows(fv(a=True, b=True), fv(b=True), fv(a=True))
        assert build_matrix(rows, min_support=1) == build_matrix(rows, min_support=1)

