"""The binary-class vocabulary of the manifest, the results CSV and the
report tables. It loads nothing heavy, so the report tables can name it
without loading the campaign harness.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Iterable

from .util import record

# The binary class's key names, shared by the manifest, the results CSV and
# cohort predicates, in VariantConfig's field order.
VARIANT_COLUMNS = ("program", "compiler", "flags", "relocation", "symbols", "os")

OPT_FLAGS = ("O0", "O1", "O2", "O3", "Os", "Ofast")
OLLVM_FLAGS = ("fla", "sub", "bcf")

# The closed value set of each variant column that has one; program and os
# are free. A binary's flags must also suit its compiler: OLLVM_FLAGS for
# ollvm, OPT_FLAGS for the others.
CLOSED_VALUES = {
    "compiler": ("clang", "gcc", "icx", "ollvm"),
    "flags": OPT_FLAGS + OLLVM_FLAGS,
    "relocation": ("pie", "nopie"),
    "symbols": ("present", "stripped"),
}


# Every valid (compiler, flags, relocation, symbols): 84 combinations.
_VALID_CLOSED = frozenset(
    (compiler, flags, relocation, symbols) for compiler in CLOSED_VALUES["compiler"]
    for flags in (OLLVM_FLAGS if compiler == "ollvm" else OPT_FLAGS)
    for relocation in CLOSED_VALUES["relocation"] for symbols in CLOSED_VALUES["symbols"])


class TriState(Enum):
    """yes / no / na; na reads "not applicable" for the IR checkpoint and
    "not run" for functional tests."""

    YES = "yes"
    NO = "no"
    NA = "na"


@record
class VariantConfig:
    """A binary's class: one field per VARIANT_COLUMNS entry, in order.
    Each field with a CLOSED_VALUES set is checked against it in field
    order, and flags against its compiler's part of that set."""

    program: str
    compiler: str
    flags: str
    relocation: str
    symbols: str
    os_tag: str

    def __post_init__(self):
        if (self.compiler, self.flags, self.relocation, self.symbols) in _VALID_CLOSED:
            return  # else the loop names the first bad field
        for key, value in zip(VARIANT_COLUMNS, self.columns()):
            if key == "flags":
                if value not in (OLLVM_FLAGS if self.compiler == "ollvm" else OPT_FLAGS):
                    raise ValueError(f"flags {value!r} invalid for compiler {self.compiler!r}")
            elif key in CLOSED_VALUES and value not in CLOSED_VALUES[key]:
                raise ValueError(f"unknown {key} {value!r}")

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
