from __future__ import annotations

import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

import pytest

HELLO_C = """
#include <stdio.h>

int main(int argc, char **argv) {
    (void)argv;
    printf("hello %d\\n", argc);
    return 0;
}
"""


OPT_LEVELS = ("O0", "O1", "O2")


@dataclass(frozen=True)
class HelloVariant:
    path: Path
    compiler: str
    opt: str
    pie: bool
    stripped: bool

    @property
    def name(self) -> str:
        return (
            f"{self.compiler}-{self.opt}-{'pie' if self.pie else 'nopie'}-"
            f"{'stripped' if self.stripped else 'symbols'}"
        )


def _available_compilers() -> list[str]:
    return [cc for cc in ("gcc", "clang") if shutil.which(cc)]


@pytest.fixture(scope="session")
def hello_variants(tmp_path_factory) -> list[HelloVariant]:
    """Each available compiler (gcc, clang) x -O0/-O1/-O2 x PIE/no-PIE x
    stripped/unstripped hello-world builds: 12 per compiler."""
    compilers = _available_compilers()
    if not compilers or not shutil.which("strip"):
        pytest.skip("need gcc or clang, and strip, on PATH")
    root = tmp_path_factory.mktemp("hello")
    src = root / "hello.c"
    src.write_text(HELLO_C)

    variants = []
    for cc in compilers:
        for opt in OPT_LEVELS:
            for pie in (True, False):
                base = root / f"{cc}-{opt}-{'pie' if pie else 'nopie'}"
                flags = ["-fPIE", "-pie"] if pie else ["-fno-PIE", "-no-pie"]
                subprocess.run(
                    [cc, *flags, f"-{opt}", "-o", str(base), str(src)],
                    check=True,
                    capture_output=True,
                )
                variants.append(HelloVariant(base, cc, opt, pie, stripped=False))
                stripped = root / (base.name + "-stripped")
                shutil.copy2(base, stripped)
                subprocess.run(["strip", str(stripped)], check=True, capture_output=True)
                variants.append(HelloVariant(stripped, cc, opt, pie, stripped=True))
    return variants
