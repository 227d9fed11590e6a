"""Boolean formatting features of ELF binaries.

A binary's feature vector is: position independence ("pi"), whether it is
stripped ("strip"), and one presence flag per section, under canonical
feature spellings (".note.ABI-tag" -> "note.abi_tag").
"""

from __future__ import annotations

import functools

from .elf import ElfSummary, ElfType
from .util import record
from .variant import Label  # noqa: F401  (the old path rweval.features.Label)

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
