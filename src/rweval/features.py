"""Boolean formatting features of ELF binaries and training matrices.

A binary's feature vector is: position independence ("pi"), whether it is
stripped ("strip"), and one presence flag per section, under canonical
feature spellings (".note.ABI-tag" -> "note.abi_tag").
"""

from __future__ import annotations

import functools

from .elf import ElfSummary, ElfType
from .errors import EmptyMatrix
from .util import record
from .variant import Label

PI = "pi"
STRIP = "strip"

_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ-", "abcdefghijklmnopqrstuvwxyz_"
)


# Section names repeat across the binaries one process reads: a corpus of
# 7,531 names holds 57 distinct ones.
@functools.lru_cache(maxsize=4096)
def canonicalize(section_name: str) -> str:
    """Canonical feature name for a section: drop one leading dot,
    lowercase ASCII letters, turn "-" into "_"."""
    if not section_name:
        raise ValueError("section name must be non-empty")
    if section_name.startswith("."):
        section_name = section_name[1:]
    return section_name.translate(_ASCII_LOWER)


@record
class FeatureVector:
    features: dict[str, bool]

    def get(self, name: str) -> bool:
        """Feature lookup; absent features read as false."""
        return self.features.get(name, False)

    def to_json_obj(self) -> dict[str, bool]:
        return dict(self.features)


def extract_features(summary: ElfSummary) -> FeatureVector:
    names = [name for name, _, _ in summary.sections if name]
    feats = dict.fromkeys(map(canonicalize, names), True)
    feats[PI] = summary.elf_type is ElfType.DYN
    feats[STRIP] = ".symtab" not in names
    return FeatureVector(feats)


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


def check_support_fraction(max_support_fraction: float) -> None:
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
    check_support_fraction(max_support_fraction)

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
