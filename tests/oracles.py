"""Reference oracles kept deliberately independent of the implementation.

- readelf_facts: parses real `readelf -h -SW` output for parity checks: the
  ELF type, the section names, and the section-header table's size.
- tally_success: a dumb success-table tally straight off the results CSV.
- correlation_ranking: features ranked by |phi correlation| with the label.
- numpy_select_features: training.select_features's descent over a dense numpy
  matrix; callers skip when numpy is not installed.
- columns: every column of a loaded results object, for equality checks.
- leaf_count_total: the FAIL+PASS counts summed over a tree's leaves.
- two_level_cli: the CLI with every command a subparser of one top-level
  parser, which parses the whole argv.
- claim_walk_size_profile: elf.size_profile as a walk that claims each
  section against every span claimed before it.
- readelf_program_headers: the program-header count and offset that
  `readelf -lW` reads, (0, 0) for a file without program headers.
- per_entry_parse_elf: elf.parse_elf of an in-memory image, with each
  section header unpacked at its own offset.
- field_order_variant_error: VariantConfig's field-order check of the
  closed variant cells.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct
import subprocess
import sys
from dataclasses import dataclass

from rweval.elf import (BUCKET_EHDR, BUCKET_PHDRS, BUCKET_SHDRS, BUCKET_UNMAPPED, EHDR_SIZE,
                        PHDR_SIZE, SHDR_SIZE, SHT_NOBITS, ElfSummary, ElfType, SectionEntry)
from rweval.errors import MalformedElf, Unsupported
from rweval.variant import CLOSED_VALUES, OLLVM_FLAGS, OPT_FLAGS


@dataclass
class ReadelfFacts:
    elf_type: str  # DYN / EXEC / REL / ...
    section_names: list[str]
    section_header_bytes: int  # entry size x entry count


def readelf_facts(path: str) -> ReadelfFacts:
    out = subprocess.run(
        ["readelf", "-h", "-SW", path], check=True, capture_output=True, text=True
    ).stdout
    m = re.search(r"^\s*Type:\s+(\S+)", out, re.MULTILINE)
    assert m, f"no Type line in readelf output for {path}"
    elf_type = m.group(1)
    # an extended count reads "0 (N)"; N is the count
    entsize = re.search(r"^\s*Size of section headers:\s+(\d+)", out, re.MULTILINE)
    count = re.search(r"^\s*Number of section headers:\s+(\d+)(?: \((\d+)\))?$", out,
                      re.MULTILINE)
    assert entsize and count, f"no section header size in readelf output for {path}"
    shdr_bytes = int(entsize.group(1)) * int(count.group(2) or count.group(1))

    names = []
    for line in out.splitlines():
        m = re.match(r"^\s*\[\s*(\d+)\](.*)$", line)
        if not m or int(m.group(1)) == 0:
            continue
        rest = m.group(2)
        if not rest.startswith(" "):
            continue
        body = rest[1:]
        if body.startswith(" "):  # blank name column
            continue
        names.append(body.split()[0])
    return ReadelfFacts(elf_type=elf_type, section_names=names,
                        section_header_bytes=shdr_bytes)


def readelf_program_headers(path: str) -> tuple[int, int]:
    """(count, offset) from readelf's "There are N program headers, starting
    at offset M" line."""
    out = subprocess.run(
        ["readelf", "-lW", path], check=True, capture_output=True, text=True
    ).stdout
    if re.search(r"^There are no program headers in this file\.$", out, re.MULTILINE):
        return 0, 0
    m = re.search(r"^There (?:are|is) (\d+) program headers?, starting at offset (\d+)$",
                  out, re.MULTILINE)
    assert m, f"no program header count in readelf output for {path}"
    return int(m.group(1)), int(m.group(2))


def tally_success(csv_text: str, predicate: dict[str, str]) -> dict:
    """Counts and raw percentages per tool/column, computed the dumb way."""
    rows = [
        r
        for r in csv.DictReader(io.StringIO(csv_text))
        if all(r[k] == v for k, v in predicate.items())
    ]
    denom = len({r["binary_id"] for r in rows})
    tools = sorted({r["tool"] for r in rows})
    out = {}
    for tool in tools:
        nop = [r for r in rows if r["tool"] == tool and r["task"] == "NOP"]
        afl = [r for r in rows if r["tool"] == tool and r["task"] == "AFL"]
        ir_na = all(r["ir"] == "na" for r in nop)
        counts = {
            "IR": None if ir_na else len({r["binary_id"] for r in nop if r["ir"] == "yes"}),
            "EXE": len({r["binary_id"] for r in nop if r["exe"] == "1"}),
            "NullFunc": len({r["binary_id"] for r in nop if r["func"] == "yes"}),
            "AFL_EXE": len({r["binary_id"] for r in afl if r["exe"] == "1"}),
            "AFL_Func": len({r["binary_id"] for r in afl if r["func"] == "yes"}),
        }
        out[tool] = {
            col: (None if c is None else (c, c * 100 / denom))
            for col, c in counts.items()
        }
    out["__denominator__"] = denom
    return out


def correlation_ranking(columns: dict[str, list[bool]], labels: list[bool]) -> list[str]:
    """Features sorted by |phi coefficient| with the labels, descending."""

    def phi(xs: list[bool]) -> float:
        n = len(xs)
        mx = sum(xs) / n
        my = sum(labels) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, labels)) / n
        sx = math.sqrt(sum((x - mx) ** 2 for x in xs) / n)
        sy = math.sqrt(sum((y - my) ** 2 for y in labels) / n)
        if sx == 0 or sy == 0:
            return 0.0
        return cov / (sx * sy)

    return sorted(columns, key=lambda name: (-abs(phi(columns[name])), name))


def numpy_select_features(matrix, k: int) -> list[str]:
    """The hinge-loss ranking of training.select_features over a dense 0/1
    matrix, one row per sample, with numpy's dot products."""
    import numpy as np

    from rweval.training import SELECT_EPOCHS, SELECT_REG, SELECT_STEP
    from rweval.features import Label

    x = np.array([[1.0 if v else 0.0 for v in r.values] for r in matrix.rows])
    y = np.array([1.0 if r.label is Label.PASS else -1.0 for r in matrix.rows])
    n, d = x.shape

    w = np.zeros(d)
    b = 0.0
    for t in range(1, SELECT_EPOCHS + 1):
        margins = y * (x @ w + b)
        viol = margins < 1.0
        grad_w = SELECT_REG * w - (y[viol] @ x[viol]) / n
        grad_b = -float(np.sum(y[viol])) / n
        lr = SELECT_STEP / math.sqrt(t)
        w = w - lr * grad_w
        b = b - lr * grad_b

    ranked = sorted(zip(matrix.feature_names, np.abs(w)), key=lambda p: (-p[1], p[0]))
    return [name for name, _ in ranked[:k]]


def columns(results) -> dict:
    """Each of results' __slots__ and its value: two loads are equal when
    these are, column by column and in the binary-to-variant map."""
    return {name: getattr(results, name) for name in type(results).__slots__}


def leaf_count_total(model) -> float:
    """Sum of FAIL+PASS counts over all leaves of a DecisionTreeModel (the
    training-sample total)."""
    total, stack = 0.0, [model.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "feature"):
            stack += (node.when_false, node.when_true)
        else:
            total += node.fail_count + node.pass_count
    return total


def two_level_cli(cli, argv: list[str]) -> int:
    """The exit code of the rweval CLI for argv, printing what it prints, with
    argv parsed the two-level way: a top-level "rweval" parser that has each
    command of cli._COMMANDS as a subparser, with its options and handler.
    Errors map to exit codes and messages as in cli.main: 3 for bad
    configuration, 2 for bad input, 130 for an interrupt, 1 for the rest."""
    from rweval.errors import (DegenerateSplit, EmptyMatrix, MalformedElf, RwevalError,
                               UnknownTool, Unsupported)

    parser = cli._Parser(prog="rweval", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_options) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=func)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except cli.CliConfigError as e:
        print(f"rweval: {e}", file=sys.stderr)
        return 3
    except (cli.CliInputError, MalformedElf, Unsupported, UnknownTool, EmptyMatrix,
            DegenerateSplit) as e:
        print(f"rweval: {e}", file=sys.stderr)
        return 2
    except RwevalError as e:
        print(f"rweval: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except KeyboardInterrupt:
        print("rweval: interrupted", file=sys.stderr)
        return 130
    except Exception as e:  # noqa: BLE001
        print(f"rweval: internal error: {e}", file=sys.stderr)
        return 1


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


def claim_walk_size_profile(summary) -> dict[str, int]:
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


def per_entry_parse_elf(data: bytes) -> ElfSummary:
    """elf.parse_elf of an in-memory image: each header field and each
    section header unpacked at its own offset, each SectionEntry built by
    its constructor. Extended numbering (e_shnum 0, e_shstrndx SHN_XINDEX,
    e_phnum PN_XNUM) is read from section 0."""
    size = len(data)
    if size < EHDR_SIZE:
        raise MalformedElf(f"file too short for an ELF header ({size} bytes)", offset=0)
    if data[:4] != b"\x7fELF":
        raise MalformedElf("bad ELF magic", offset=0)
    if data[4] != 2:
        raise Unsupported("only 64-bit (ELFCLASS64) images are supported")
    if data[5] != 1:
        raise Unsupported("only little-endian (ELFDATA2LSB) images are supported")
    (e_type,) = struct.unpack_from("<H", data, 16)
    e_phoff, e_shoff = struct.unpack_from("<QQ", data, 32)
    e_phentsize, e_phnum, e_shentsize, e_shnum, e_shstrndx = struct.unpack_from(
        "<HHHHH", data, 54)

    def extent(what: str, off: int, entsize: int, num: int, min_entsize: int):
        if num == 0:
            return (0, 0)
        if entsize < min_entsize:
            raise MalformedElf(f"{what} entry size {entsize} too small", offset=off)
        if off >= size or off + num * entsize > size:
            raise MalformedElf(f"{what} extends past end of file", offset=off)
        return (off, num * entsize)

    if e_shoff and (e_shnum == 0 or e_phnum == 0xFFFF):
        extent("section header table", e_shoff, e_shentsize, 1, SHDR_SIZE)
        if e_shnum == 0:
            (e_shnum,) = struct.unpack_from("<Q", data, e_shoff + 32)
        (sh_info,) = struct.unpack_from("<I", data, e_shoff + 44)
        if e_phnum == 0xFFFF and sh_info:
            e_phnum = sh_info
    ph_extent = extent("program header table", e_phoff, e_phentsize, e_phnum, PHDR_SIZE)
    sh_extent = extent("section header table", e_shoff, e_shentsize, e_shnum, SHDR_SIZE)

    raw = [struct.unpack_from("<II16xQQ", data, e_shoff + i * e_shentsize)
           for i in range(e_shnum)]
    if raw:
        raw[0] = (*raw[0][:3], 0)
        if e_shstrndx == 0xFFFF:
            (e_shstrndx,) = struct.unpack_from("<I", data, e_shoff + 40)
    names = b""
    if 0 < e_shstrndx < len(raw):
        _, sh_type, sh_offset, sh_size = raw[e_shstrndx]
        if sh_type != SHT_NOBITS and sh_offset + sh_size <= size:
            names = data[sh_offset:sh_offset + sh_size]

    def name(sh_name: int) -> str:
        if sh_name >= len(names):
            return ""
        end = names.find(b"\x00", sh_name)
        return names[sh_name:end if end >= 0 else len(names)].decode("latin-1")

    sections = [SectionEntry(name(sh_name), sh_offset, 0 if sh_type == SHT_NOBITS else sh_size)
                for sh_name, sh_type, sh_offset, sh_size in raw]
    for sec in sections:
        if sec.file_size_on_disk > 0 and sec.file_offset + sec.file_size_on_disk > size:
            raise MalformedElf(f"section {sec.name!r} data extends past end of file",
                               offset=sec.file_offset)
    return ElfSummary(file_size=size, elf_type=ElfType.from_code(e_type),
                      sections=tuple(sections), program_header_extent=ph_extent,
                      section_header_extent=sh_extent)


def field_order_variant_error(compiler: str, flags: str, relocation: str,
                              symbols: str) -> str | None:
    """The ValueError message VariantConfig gives these closed cells, from
    its check of each field in order, or None when they are valid."""
    for key, value in (("compiler", compiler), ("flags", flags),
                       ("relocation", relocation), ("symbols", symbols)):
        if key == "flags":
            if value not in (OLLVM_FLAGS if compiler == "ollvm" else OPT_FLAGS):
                return f"flags {value!r} invalid for compiler {compiler!r}"
        elif value not in CLOSED_VALUES[key]:
            return f"unknown {key} {value!r}"
    return None
