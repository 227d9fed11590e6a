"""Synthetic ELF64 image builder for tests.

Produces small but structurally honest little-endian ELF64 files: real
header, optional program headers (PT_LOAD / PT_INTERP), section data, a
section-name string table, and a section header table. Layout is fully
deterministic and gap-free unless gaps are requested, so byte-attribution
tests can rely on exact tiling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

ET_REL, ET_EXEC, ET_DYN = 1, 2, 3
EM_X86_64 = 0x3E
SHT_PROGBITS, SHT_SYMTAB, SHT_STRTAB, SHT_NOBITS = 1, 2, 3, 8
PT_LOAD, PT_INTERP = 1, 3

INTERP_PATH = b"/lib64/ld-linux-x86-64.so.2\x00"


@dataclass
class Sec:
    name: str
    data: bytes = b""
    sh_type: int = SHT_PROGBITS
    gap_before: int = 0  # unclaimed filler bytes preceding the section data


def build_elf(
    sections: list[Sec] | None = None,
    elf_type: int = ET_DYN,
    machine: int = EM_X86_64,
    interp: bool = False,
    load_phdr: bool = True,
    trailing: bytes = b"",
    with_shstrtab: bool = True,
    ei_class: int = 2,
    ei_data: int = 1,
) -> bytes:
    if sections is None:
        sections = [Sec(".text", b"\x90" * 16)]
    sections = list(sections)
    if interp:
        sections.insert(0, Sec(".interp", INTERP_PATH))

    phdr_specs: list[tuple[int, int, int]] = []  # (p_type, offset, filesz) later
    n_phdrs = (1 if load_phdr else 0) + (1 if interp else 0)
    phoff = 64 if n_phdrs else 0
    cursor = 64 + n_phdrs * 56

    # lay out section data
    placed: list[tuple[Sec, int, int]] = []  # (sec, offset, size_on_disk)
    for sec in sections:
        cursor += sec.gap_before
        on_disk = 0 if sec.sh_type == SHT_NOBITS else len(sec.data)
        placed.append((sec, cursor, on_disk))
        cursor += on_disk

    # section-name string table
    names = [""] + [sec.name for sec in sections]
    if with_shstrtab:
        names.append(".shstrtab")
    strtab = bytearray(b"\x00")
    name_off = {"": 0}
    for n in names[1:]:
        if n not in name_off:
            name_off[n] = len(strtab)
            strtab += n.encode("latin-1") + b"\x00"
    shstr_off = cursor
    if with_shstrtab:
        cursor += len(strtab)

    shoff = cursor
    n_shdrs = 1 + len(sections) + (1 if with_shstrtab else 0)
    shstrndx = n_shdrs - 1 if with_shstrtab else 0

    blob = bytearray()
    blob += struct.pack(
        "<4sBBBBB7xHHIQQQIHHHHHH",
        b"\x7fELF",
        ei_class,
        ei_data,
        1,  # EI_VERSION
        0,  # EI_OSABI
        0,  # EI_ABIVERSION
        elf_type,
        machine,
        1,  # e_version
        0x1000,  # e_entry
        phoff,
        shoff,
        0,  # e_flags
        64,
        56 if n_phdrs else 0,
        n_phdrs,
        64,
        n_shdrs,
        shstrndx,
    )
    assert len(blob) == 64

    if interp:
        interp_off = next(off for sec, off, _ in placed if sec.name == ".interp")
        phdr_specs.append((PT_INTERP, interp_off, len(INTERP_PATH)))
    if load_phdr:
        phdr_specs.append((PT_LOAD, 0, shoff))
    for p_type, off, filesz in phdr_specs:
        blob += struct.pack(
            "<IIQQQQQQ", p_type, 5, off, off, off, filesz, filesz, 0x1000
        )

    for sec, off, on_disk in placed:
        if sec.gap_before:
            blob += b"\xcc" * sec.gap_before
        assert len(blob) == off, (sec.name, len(blob), off)
        if on_disk:
            blob += sec.data
    if with_shstrtab:
        assert len(blob) == shstr_off
        blob += strtab

    assert len(blob) == shoff
    blob += b"\x00" * 64  # null section header
    for sec, off, on_disk in placed:
        blob += struct.pack(
            "<IIQQQQIIQQ",
            name_off[sec.name],
            sec.sh_type,
            0,
            0,
            off,
            len(sec.data),
            0,
            0,
            1,
            0,
        )
    if with_shstrtab:
        blob += struct.pack(
            "<IIQQQQIIQQ",
            name_off[".shstrtab"],
            SHT_STRTAB,
            0,
            0,
            shstr_off,
            len(strtab),
            0,
            0,
            1,
            0,
        )
    return bytes(blob) + trailing


def section_table(img: bytes) -> tuple[int, int, int]:
    """e_shoff, e_shentsize and e_shnum of an image."""
    (shoff,) = struct.unpack_from("<Q", img, 40)
    return (shoff, *struct.unpack_from("<HH", img, 58))


def extended_numbering(img: bytes) -> bytes:
    """img as an ELF with 0xff00 sections or more lays it out: e_shnum 0 and
    e_shstrndx SHN_XINDEX, the count in entry 0's sh_size and the .shstrtab
    index in entry 0's sh_link."""
    shoff, _, shnum = section_table(img)
    (shstrndx,) = struct.unpack_from("<H", img, 62)
    out = bytearray(img)
    struct.pack_into("<HH", out, 60, 0, 0xFFFF)
    struct.pack_into("<Q", out, shoff + 32, shnum)
    struct.pack_into("<I", out, shoff + 40, shstrndx)
    return bytes(out)


def pn_xnum(img: bytes) -> bytes:
    """img as an ELF with 0xffff program headers or more lays it out:
    e_phnum PN_XNUM (0xffff) and the count in entry 0's sh_info."""
    shoff, _, _ = section_table(img)
    (phnum,) = struct.unpack_from("<H", img, 56)
    out = bytearray(img)
    struct.pack_into("<H", out, 56, 0xFFFF)
    struct.pack_into("<I", out, shoff + 44, phnum)
    return bytes(out)


def wide_entries(img: bytes, entsize: int) -> bytes:
    """img with its section-header table (the last thing in an elfbuild
    image without trailing bytes) rewritten with entsize-byte entries, each
    zero-padded."""
    shoff, old, shnum = section_table(img)
    table = b"".join(img[shoff + i * old:shoff + (i + 1) * old].ljust(entsize, b"\x00")
                     for i in range(shnum))
    out = bytearray(img[:shoff] + table)
    struct.pack_into("<H", out, 58, entsize)
    return bytes(out)
