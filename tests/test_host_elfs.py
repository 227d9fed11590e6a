"""Opt-in: parse_elf and size_profile agree with readelf on the host's ELFs.

Every regular file (not a symlink) under /usr/bin and /usr/lib/x86_64-linux-gnu
that starts with the ELF magic is one case. Skipped unless RWEVAL_HOST_ELFS is
set to a non-empty value:

    RWEVAL_HOST_ELFS=1 PYTHONPATH=src python -m pytest -q tests/test_host_elfs.py

Each file is checked against `oracles.readelf_facts` and
`oracles.readelf_program_headers`: the section names in table order, the ELF
type behind the `pi` feature, the `strip` feature (no .symtab), the three
header buckets of `size_profile`, and buckets that sum to the file size.
"""

from __future__ import annotations

import os
import shutil

import pytest

from rweval.elf import (BUCKET_EHDR, BUCKET_PHDRS, BUCKET_SHDRS, ElfFile, parse_elf,
                        size_profile)
from rweval.features import extract_features

from oracles import readelf_facts, readelf_program_headers

HOST_DIRS = ("/usr/bin", "/usr/lib/x86_64-linux-gnu")
ENABLED = bool(os.environ.get("RWEVAL_HOST_ELFS"))


def host_elfs() -> list[str]:
    paths = []
    for top in HOST_DIRS:
        for folder, _, names in os.walk(top):
            for name in names:
                path = os.path.join(folder, name)
                if os.path.islink(path) or not os.path.isfile(path):
                    continue
                try:
                    with open(path, "rb") as f:
                        if f.read(4) == b"\x7fELF":
                            paths.append(path)
                except OSError:
                    continue
    return sorted(paths)


pytestmark = pytest.mark.skipif(
    not ENABLED or shutil.which("readelf") is None,
    reason="set RWEVAL_HOST_ELFS to check the host's ELFs against readelf")


@pytest.mark.parametrize("path", host_elfs() if ENABLED else [None])
def test_agrees_with_readelf(path):
    with ElfFile(path) as binary:
        summary = parse_elf(binary)
    facts = readelf_facts(path)
    phnum, _ = readelf_program_headers(path)
    features = extract_features(summary).features
    profile = size_profile(summary)

    assert [s.name for s in summary.sections if s.name] == facts.section_names
    assert summary.elf_type.value == facts.elf_type
    assert features["pi"] == (facts.elf_type == "DYN")
    assert features["strip"] == (".symtab" not in facts.section_names)
    assert (profile[BUCKET_EHDR], profile[BUCKET_PHDRS], profile[BUCKET_SHDRS]) == (
        64, phnum * 56, facts.section_header_bytes)  # ELF64 header and entry sizes
    assert sum(profile.values()) == os.path.getsize(path)
