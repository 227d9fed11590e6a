"""The binary-class vocabulary of the manifest, the results CSV and the
report tables. It loads nothing heavy, so the report tables can name it
without loading the campaign harness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

COMPILERS = ("clang", "gcc", "icx", "ollvm")
OPT_FLAGS = ("O0", "O1", "O2", "O3", "Os", "Ofast")
OLLVM_FLAGS = ("fla", "sub", "bcf")
RELOCATIONS = ("pie", "nopie")
SYMBOLS = ("present", "stripped")

# The binary class's key names, shared by the manifest, the results CSV and
# cohort predicates, in VariantConfig's field order.
VARIANT_COLUMNS = ("program", "compiler", "flags", "relocation", "symbols", "os")


class TriState(Enum):
    """yes / no / na; na reads "not applicable" for the IR checkpoint and
    "not run" for functional tests."""

    YES = "yes"
    NO = "no"
    NA = "na"


@dataclass(frozen=True)
class VariantConfig:
    """A binary's class: one field per VARIANT_COLUMNS entry, in order.
    All but program and os_tag are checked against their closed sets."""

    program: str
    compiler: str
    flags: str
    relocation: str
    symbols: str
    os_tag: str

    def __post_init__(self):
        if self.compiler not in COMPILERS:
            raise ValueError(f"unknown compiler {self.compiler!r}")
        allowed = OLLVM_FLAGS if self.compiler == "ollvm" else OPT_FLAGS
        if self.flags not in allowed:
            raise ValueError(
                f"flags {self.flags!r} invalid for compiler {self.compiler!r}"
            )
        if self.relocation not in RELOCATIONS:
            raise ValueError(f"unknown relocation {self.relocation!r}")
        if self.symbols not in SYMBOLS:
            raise ValueError(f"unknown symbols {self.symbols!r}")

    @classmethod
    def from_cells(cls, cells: Iterable[str]) -> VariantConfig:
        """From the values in VARIANT_COLUMNS order, as a manifest entry or a
        results row holds them. Values are interned: the variants of a
        loaded report share them."""
        return cls(*map(sys.intern, cells))

    def columns(self) -> tuple[str, ...]:
        """The field values in VARIANT_COLUMNS order."""
        return (self.program, self.compiler, self.flags, self.relocation,
                self.symbols, self.os_tag)
