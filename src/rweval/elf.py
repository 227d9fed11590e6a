"""Minimal ELF64 reader and whole-file byte attribution.

Parses just enough of an ELF image to answer the questions the rest of the
toolkit asks: object type, the section inventory, and where the header
tables live in the file. An image comes from memory or from a file read by
pread (ElfFile); either way only the ELF header, the section-header table
and .shstrtab are fetched, and every extent is checked against the image
size before it is read.

Only 64-bit little-endian images are accepted (the x86-64 Linux corpus this
toolkit targets).
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .errors import MalformedElf, Unsupported

ELF_MAGIC = b"\x7fELF"
EHDR_SIZE = 64
PHDR_SIZE = 56
SHDR_SIZE = 64

SHT_NOBITS = 8

BUCKET_EHDR = "[ELF Header]"
BUCKET_PHDRS = "[ELF Program Headers]"
BUCKET_SHDRS = "[ELF Section Headers]"
BUCKET_UNMAPPED = "[Unmapped]"


class ElfType(Enum):
    EXEC = "EXEC"
    DYN = "DYN"
    REL = "REL"
    OTHER = "OTHER"

    @classmethod
    def from_code(cls, code: int) -> "ElfType":
        return {1: cls.REL, 2: cls.EXEC, 3: cls.DYN}.get(code, cls.OTHER)


@dataclass(frozen=True)
class SectionEntry:
    name: str
    file_offset: int
    file_size_on_disk: int  # always 0 for NOBITS sections


@dataclass(frozen=True)
class ElfSummary:
    file_size: int
    elf_type: ElfType
    sections: tuple[SectionEntry, ...]
    program_header_extent: tuple[int, int]  # (offset, length), (0, 0) if absent
    section_header_extent: tuple[int, int]


class ByteSource(Protocol):
    """What parse_elf reads: a total size, and the n bytes at an offset
    (fewer only when the source shrank after its size was taken)."""

    size: int

    def fetch(self, offset: int, n: int) -> bytes: ...


class ElfFile:
    """An input binary opened for header-only reads.

    Open it with ``with ElfFile(path) as binary`` and pass ``binary`` to
    parse_elf, which preads the ELF header, the section-header table and
    .shstrtab, and nothing else. The size comes from fstat. Anything but a
    regular file raises OSError("not a regular file") before any read, so a
    FIFO or a device cannot block or flood the reader.
    """

    def __init__(self, path: str | os.PathLike):
        # O_NONBLOCK: opening a FIFO would otherwise wait for a writer.
        # It does not change reads from a regular file.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise OSError("not a regular file")
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        self.size = st.st_size

    def fetch(self, offset: int, n: int) -> bytes:
        return os.pread(self._fd, n, offset)

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> ElfFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_elf(data: bytes | ByteSource) -> ElfSummary:
    """Parse an ELF64 image, in memory or from a ByteSource, into an ElfSummary.

    Raises MalformedElf for truncated or inconsistent images and Unsupported
    for 32-bit or big-endian inputs. A missing or unusable section-name
    string table is tolerated: affected sections get empty names. Every
    extent is checked against the size before its bytes are fetched, so a
    source is only asked for bytes inside it; one that returns fewer (a
    file that shrank after it was opened) raises MalformedElf.
    """
    if isinstance(data, (bytes, bytearray)):
        size, fetch = len(data), lambda off, n: data[off : off + n]
    else:
        size, fetch = data.size, data.fetch

    def read(off: int, n: int) -> bytes:
        chunk = fetch(off, n)
        if len(chunk) != n:
            raise MalformedElf(
                f"read {len(chunk)} of {n} bytes: the file shrank while being read",
                offset=off,
            )
        return chunk

    if size < EHDR_SIZE:
        raise MalformedElf(f"file too short for an ELF header ({size} bytes)", offset=0)
    ehdr = read(0, EHDR_SIZE)
    if ehdr[:4] != ELF_MAGIC:
        raise MalformedElf("bad ELF magic", offset=0)
    if ehdr[4] != 2:
        raise Unsupported("only 64-bit (ELFCLASS64) images are supported")
    if ehdr[5] != 1:
        raise Unsupported("only little-endian (ELFDATA2LSB) images are supported")

    (e_type,) = struct.unpack_from("<H", ehdr, 16)
    e_phoff, e_shoff = struct.unpack_from("<QQ", ehdr, 32)
    (e_phentsize, e_phnum, e_shentsize, e_shnum, e_shstrndx) = struct.unpack_from(
        "<HHHHH", ehdr, 54
    )

    ph_extent = _table_extent(
        "program header table", e_phoff, e_phentsize, e_phnum, PHDR_SIZE, size
    )
    sh_extent = _table_extent(
        "section header table", e_shoff, e_shentsize, e_shnum, SHDR_SIZE, size
    )

    shdrs = read(*sh_extent)
    raw_sections = []
    for i in range(e_shnum):
        base = i * e_shentsize
        sh_name, sh_type = struct.unpack_from("<II", shdrs, base)
        sh_offset, sh_size = struct.unpack_from("<QQ", shdrs, base + 24)
        raw_sections.append((sh_name, sh_type, sh_offset, sh_size))

    strtab = _section_name_table(read, size, raw_sections, e_shstrndx)

    sections = []
    for sh_name, sh_type, sh_offset, sh_size in raw_sections:
        name = _read_name(strtab, sh_name)
        on_disk = 0 if sh_type == SHT_NOBITS else sh_size
        if on_disk > 0 and sh_offset + on_disk > size:
            raise MalformedElf(
                f"section {name!r} data extends past end of file", offset=sh_offset
            )
        sections.append(SectionEntry(name, sh_offset, on_disk))

    return ElfSummary(
        file_size=size,
        elf_type=ElfType.from_code(e_type),
        sections=tuple(sections),
        program_header_extent=ph_extent,
        section_header_extent=sh_extent,
    )


def _table_extent(
    what: str, off: int, entsize: int, num: int, min_entsize: int, file_size: int
) -> tuple[int, int]:
    if num == 0:
        return (0, 0)
    if entsize < min_entsize:
        raise MalformedElf(f"{what} entry size {entsize} too small", offset=off)
    length = num * entsize
    if off >= file_size or off + length > file_size:
        raise MalformedElf(f"{what} extends past end of file", offset=off)
    return (off, length)


def _section_name_table(read, size: int, raw_sections, shstrndx: int) -> bytes:
    # SHN_UNDEF (0) or an out-of-range index means no name table; tolerated.
    if shstrndx == 0 or shstrndx >= len(raw_sections):
        return b""
    _, sh_type, sh_offset, sh_size = raw_sections[shstrndx]
    if sh_type == SHT_NOBITS or sh_offset + sh_size > size:
        return b""
    return read(sh_offset, sh_size)


def _read_name(strtab: bytes, off: int) -> str:
    if off >= len(strtab):
        return ""
    end = strtab.find(b"\x00", off)
    if end < 0:
        end = len(strtab)
    return strtab[off:end].decode("latin-1")


def _claim(claimed: list[tuple[int, int]], start: int, end: int) -> int:
    """Claim the unclaimed parts of [start, end); return the bytes gained.

    claimed holds disjoint half-open spans; only the new pieces are added,
    so it stays disjoint without merging."""
    pieces = [(start, end)] if start < end else []
    for s, e in claimed:
        if s < end and e > start:
            pieces = [(ps, pe) for a, b in pieces
                      for ps, pe in ((a, min(b, s)), (max(a, e), b)) if ps < pe]
    claimed.extend(pieces)
    return sum(pe - ps for ps, pe in pieces)


def size_profile(summary: ElfSummary) -> dict[str, int]:
    """Attribute every byte of a file to exactly one bucket: {bucket: bytes}.

    Claim precedence: ELF header, then program header table, then section
    header table, then sections in ascending file-offset order (section-table
    order breaks ties); a byte already claimed is never re-claimed. NOBITS
    sections claim nothing. A section without a name is labelled by its
    section-header index, as "[section N]". Whatever remains is "[Unmapped]".
    Bucket values always sum to summary.file_size exactly.
    """
    file_size = summary.file_size
    claimed: list[tuple[int, int]] = []
    buckets: dict[str, int] = {}

    def claim(off: int, length: int) -> int:
        start = min(max(off, 0), file_size)
        end = min(max(off + length, 0), file_size)
        return _claim(claimed, start, end)

    buckets[BUCKET_EHDR] = claim(0, EHDR_SIZE)
    buckets[BUCKET_PHDRS] = claim(*summary.program_header_extent)
    buckets[BUCKET_SHDRS] = claim(*summary.section_header_extent)

    for sec in summary.sections:
        # the unnamed null section would otherwise pollute every profile
        if sec.name and sec.name not in buckets:
            buckets[sec.name] = 0
    for index, sec in sorted(
        ((i, s) for i, s in enumerate(summary.sections) if s.file_size_on_disk > 0),
        key=lambda item: item[1].file_offset,
    ):
        gained = claim(sec.file_offset, sec.file_size_on_disk)
        label = sec.name or f"[section {index}]"
        buckets[label] = buckets.get(label, 0) + gained

    buckets[BUCKET_UNMAPPED] = file_size - sum(e - s for s, e in claimed)
    return buckets


def size_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, float | None]:
    """Per-bucket after/before ratio as a percentage.

    Buckets missing on either side, or with a zero before-value, map to None
    (rendered as "NA" in tables).
    """
    out: dict[str, float | None] = {}
    for k in {**before, **after}:  # before's order, then after's new buckets
        b, a = before.get(k), after.get(k)
        out[k] = None if not b or a is None else a / b * 100.0
    return out
