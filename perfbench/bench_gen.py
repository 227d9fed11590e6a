"""Seeded input generators for the benchmark.

Everything here takes the workload seed and writes only below the directory
it is given.  The same seed always yields byte-identical inputs:

- a corpus of ELF64 images built to the measured shape of the x86-64
  Linux system corpus (see the tables below), plus a few malformed or
  32-bit images whose correct answer is exit code 2;
- gcc-built hello-world variants (O0-O3 x pie/nopie x symbols/stripped),
  cached because they do not depend on the seed;
- five stub rewriter adapters whose checkpoint outcomes are known by
  construction;
- a results CSV at the paper's scale (3,344 binaries x 10 tools x 2 tasks).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shlex
import shutil
import struct
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from elfbuild import (ET_DYN, ET_EXEC, ET_REL, INTERP_PATH, SHT_NOBITS, SHT_PROGBITS, Sec,
                      build_elf)

HERE = Path(__file__).resolve().parent

TYPE_NAMES = {ET_REL: "REL", ET_EXEC: "EXEC", ET_DYN: "DYN"}
# kind -> (ELF type, has PT_INTERP); the corpus holds no other kinds
KINDS = {"shlib": (ET_DYN, False), "pie": (ET_DYN, True),
         "nopie": (ET_EXEC, True), "relobj": (ET_REL, False)}
NOBITS_NAMES = {".bss", ".tbss"}

# The corpus shape below was measured with corpus_shares.py, which runs
# `readelf -W -h -l -S` on the 1,314 regular ELF files under /usr/bin and
# /usr/lib/x86_64-linux-gnu of a Debian 12 x86-64 system (1.06 GB; median
# 39 KB, p99 26 MB, largest 117 MB).  All are ELF64 little-endian x86-64;
# none is static, none is a Go binary, none has .text.* sections, and none
# has bytes past its section header table.
#
# A log-normal through the median and p99, sampled at fixed quantiles and
# capped, keeps the size shape at a fifth of the bytes.  Fixed quantiles
# (with a small seeded jitter) keep tail latency comparable from seed to seed.
SYNTH_FILES = 256
SIZE_MEDIAN = 38_000
SIZE_SIGMA = 2.79
SIZE_CAP = 30_000_000  # below 32 MiB, where glibc's malloc strategy changes
SIZE_FLOOR = 6_000
BAD_KINDS = ("short", "magic", "class32", "bigendian", "shdr_past_eof", "data_past_eof")

# Corpus files per size decile, smallest first, as (shlib, pie, nopie, relobj).
KINDS_BY_SIZE_DECILE = (
    (102, 20, 0, 9), (99, 32, 0, 0), (132, 0, 0, 0), (84, 47, 0, 0), (60, 69, 3, 0),
    (48, 83, 0, 0), (60, 71, 0, 0), (68, 64, 0, 0), (96, 35, 0, 0), (100, 23, 9, 0),
)
# Per kind, in section-table order, each section that at least 2% of the
# kind's files have: (name, share of files that have it, median sh_size as
# a share of the file size).
SECTIONS = {
    "shlib": [
        (".note.gnu.build-id", 1.00, 0.0013), (".note.gnu.property", 0.32, 0.0017),
        (".gnu.hash", 1.00, 0.0025), (".note.ABI-tag", 0.32, 0.0017),
        (".dynsym", 1.00, 0.025), (".hash", 0.32, 0.0036), (".dynstr", 1.00, 0.021),
        (".gnu.version", 0.98, 0.0021), (".gnu.version_d", 0.16, 0.0014),
        (".gnu.version_r", 0.98, 0.0029), (".rela.dyn", 1.00, 0.01),
        (".rela.plt", 0.97, 0.01), (".init", 1.00, 0.00086), (".plt", 1.00, 0.0068),
        (".relr.dyn", 0.32, 0.0013), (".plt.got", 1.00, 0.00035), (".text", 1.00, 0.25),
        (".fini", 1.00, 0.00034), (".rodata", 0.97, 0.086), (".eh_frame_hdr", 0.99, 0.0058),
        (".gcc_except_table", 0.09, 0.0046), (".eh_frame", 1.00, 0.035),
        (".tdata", 0.02, 3.6e-05), (".tbss", 0.08, 4.4e-05), (".init_array", 0.99, 0.00034),
        (".fini_array", 0.99, 0.0003), (".data.rel.ro", 0.41, 0.0095),
        (".dynamic", 1.00, 0.019), (".got", 1.00, 0.0017), (".got.plt", 0.63, 0.0034),
        (".data", 1.00, 0.00043), (".bss", 1.00, 0.00043),
        (".gnu_debugaltlink", 0.33, 0.0035), (".gnu_debuglink", 0.98, 0.0019),
    ],
    "pie": [
        (".interp", 1.00, 0.00058), (".note.gnu.property", 0.95, 0.00062),
        (".note.gnu.build-id", 1.00, 0.00074), (".note.ABI-tag", 0.99, 0.00065),
        (".hash", 0.02, 0.021), (".note.package", 0.07, 0.0042), (".gnu.hash", 1.00, 0.0015),
        (".dynsym", 1.00, 0.038), (".dynstr", 1.00, 0.019), (".gnu.version", 1.00, 0.0032),
        (".gnu.version_r", 1.00, 0.0029), (".rela.dyn", 1.00, 0.019),
        (".rela.plt", 1.00, 0.03), (".init", 1.00, 0.00047), (".relr.dyn", 0.02, 0.0012),
        (".plt", 1.00, 0.02), (".plt.got", 1.00, 0.00018), (".text", 1.00, 0.41),
        (".fini", 1.00, 0.00019), (".rodata", 1.00, 0.084), (".eh_frame_hdr", 1.00, 0.0096),
        (".eh_frame", 1.00, 0.06), (".tbss", 0.02, 6.6e-05),
        (".gcc_except_table", 0.05, 0.007), (".init_array", 1.00, 0.00017),
        (".fini_array", 1.00, 0.00016), (".data.rel.ro", 0.81, 0.0089),
        (".dynamic", 1.00, 0.01), (".got", 1.00, 0.0044), (".got.plt", 0.47, 0.0092),
        (".data", 1.00, 0.002), ("SYSTEMD_STATIC_DESTRUCT", 0.04, 0.00085),
        (".bss", 1.00, 0.0072), (".gnu_debugaltlink", 0.85, 0.0015),
        (".gnu_debuglink", 0.94, 0.0011),
    ],
    "nopie": [
        (".interp", 1.00, 3e-05), (".note.gnu.property", 0.92, 4.3e-05),
        (".note.gnu.build-id", 1.00, 3.8e-05), (".note.ABI-tag", 1.00, 3.4e-05),
        (".gnu.hash", 1.00, 0.00082), (".dynsym", 1.00, 0.0065), (".dynstr", 1.00, 0.0039),
        (".gnu.version", 1.00, 0.00054), (".gnu.version_r", 1.00, 0.00021),
        (".rela.dyn", 1.00, 0.00039), (".rela.plt", 1.00, 0.0031), (".init", 1.00, 2.4e-05),
        (".plt", 1.00, 0.0021), (".plt.got", 0.58, 1.8e-05), ("lpstub", 0.08, 4.9e-06),
        (".text", 1.00, 0.48), (".fini", 1.00, 9.6e-06), (".rodata", 1.00, 0.17),
        (".stapsdt.base", 0.67, 7.7e-07), (".eh_frame_hdr", 1.00, 0.013),
        (".eh_frame", 1.00, 0.073), (".gcc_except_table", 0.67, 0.00016),
        (".tdata", 0.08, 4e-08), (".tbss", 0.67, 1.2e-05), (".init_array", 1.00, 6.5e-05),
        (".fini_array", 1.00, 8.5e-06), (".data.rel.ro", 0.92, 0.0082),
        (".dynamic", 1.00, 0.00052), (".got", 1.00, 7.6e-05), (".PyRuntime", 0.08, 0.024),
        (".got.plt", 0.92, 0.0013), (".probes", 0.08, 3.5e-06), (".data", 1.00, 0.0011),
        (".bss", 1.00, 0.0063), (".comment", 0.08, 9.2e-07), (".note.stapsdt", 0.67, 0.00018),
        (".gnu.build.attributes", 0.08, 0.00013), (".gnu_debuglink", 0.92, 7.1e-05),
    ],
    "relobj": [
        (".note.gnu.property", 0.56, 0.018), (".note.ABI-tag", 0.56, 0.018),
        (".text", 1.00, 0.021), (".rela.text", 0.67, 0.029), (".rodata.cst4", 0.56, 0.0023),
        (".data.rel.local", 0.11, 0.0059), (".init", 0.22, 0.012), (".eh_frame", 0.67, 0.039),
        (".rela.data.rel.local", 0.11, 0.018), (".rela.eh_frame", 0.67, 0.02),
        (".rela.init", 0.11, 0.022), (".data", 1.00, 0.0016), (".fini", 0.22, 0.0057),
        (".bss", 1.00, 0.0), (".note.GNU-stack", 1.00, 0.0),
    ],
}
# Per kind: (files, files with .symtab only, files with .symtab and .debug_*).
SYMBOLS = {"shlib": (849, 0, 5), "pie": (444, 0, 0), "nopie": (12, 0, 1),
           "relobj": (9, 7, 0)}
# Appended to the table of files that keep symbols, in this order, as
# (name, share of such files that have it, median share of the file size).
DEBUG_SECTIONS = [
    (".debug_aranges", 1.00, 0.00077), (".debug_info", 1.00, 0.39),
    (".debug_abbrev", 1.00, 0.024), (".debug_line", 1.00, 0.099),
    (".debug_str", 1.00, 0.048), (".debug_line_str", 0.83, 0.0031),
    (".debug_loclists", 0.83, 0.17), (".debug_rnglists", 0.83, 0.027),
    (".debug_loc", 0.17, 0.0087), (".debug_ranges", 0.17, 0.001),
]
SYMTAB_SECTIONS = [(".symtab", 1.00, 0.11), (".strtab", 1.00, 0.048)]
# Share of file-backed sections that follow a gap of unclaimed bytes, and
# the deciles of the gap sizes (alignment padding, page alignment at the top).
GAP_SHARE = 0.43
GAP_DECILES = (2, 3, 4, 4, 6, 8, 13, 1208, 2532)


def _apportion(counts: dict[str, int], n: int) -> list[str]:
    """n labels in the proportions of counts, by largest remainder."""
    total = sum(counts.values())
    exact = {k: c * n / total for k, c in counts.items()}
    out = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(exact, key=lambda k: out[k] - exact[k])
    for k in by_remainder[: n - sum(out.values())]:
        out[k] += 1
    return [k for k, c in out.items() for _ in range(c)]


@dataclass(frozen=True)
class Plan:
    kind: str
    symbols: str  # "stripped", "symbols" or "debug" (symbols plus DWARF sections)


def plans(rng: random.Random, n: int) -> list[Plan]:
    """Plans for n files in ascending size order.  Each tenth of them gets
    the kinds of the matching corpus size decile, and each kind keeps its
    symbol tables in the corpus' shares; the seed decides only which file
    gets which.  Fixed shares keep runs on different seeds alike."""
    kinds: list[str] = []
    for d, counts in enumerate(KINDS_BY_SIZE_DECILE):
        column = _apportion(dict(zip(KINDS, counts)), (d + 1) * n // 10 - d * n // 10)
        rng.shuffle(column)
        kinds += column
    symbols = [""] * n
    for kind, (files, symtab, debug) in SYMBOLS.items():
        at = [i for i, k in enumerate(kinds) if k == kind]
        column = _apportion({"symbols": symtab, "debug": debug,
                             "stripped": files - symtab - debug}, len(at))
        rng.shuffle(column)
        for i, s in zip(at, column):
            symbols[i] = s
    return [Plan(k, s) for k, s in zip(kinds, symbols)]


def _table_for(rng: random.Random, plan: Plan) -> list[tuple[str, float]]:
    """Section names and byte shares, chosen with the measured odds."""
    table = SECTIONS[plan.kind]
    if plan.symbols == "debug":
        table = table + DEBUG_SECTIONS
    if plan.symbols != "stripped":
        table = table + SYMTAB_SECTIONS
    return [(name, share) for name, p, share in table if rng.random() < p]


def _image(rng: random.Random, plan: Plan, target: int) -> tuple[bytes, dict]:
    """One image of about target bytes; return it with its construction facts.

    The facts are what a correct reader must report: the ELF type, the
    section names in table order, and the byte attribution of every bucket.
    """
    e_type, interp = KINDS[plan.kind]
    table = [(n, s) for n, s in _table_for(rng, plan) if n != ".interp"]  # build_elf adds it
    gaps = [rng.choice(GAP_DECILES) if rng.random() < GAP_SHARE else 0 for _ in table]
    names = [".interp"] * interp + [n for n, _ in table] + [".shstrtab"]
    n_ph = 1 + interp if e_type != ET_REL else 0
    strtab = 1 + sum(len(n) + 1 for n in names)
    fixed = 64 + 56 * n_ph + 64 * (len(names) + 1) + strtab + sum(gaps)
    fixed += len(INTERP_PATH) * interp
    bulk = max(0, target - fixed)
    total_share = sum(s for _, s in table)
    pool = rng.randbytes(1 << 16)
    sections, buckets = [], {"[ELF Header]": 64, "[ELF Program Headers]": 56 * n_ph,
                             "[ELF Section Headers]": 64 * (len(names) + 1)}
    if interp:
        buckets[".interp"] = len(INTERP_PATH)
    for (name, share), gap in zip(table, gaps):
        size = int(bulk * share / total_share)
        nobits = name in NOBITS_NAMES
        data = bytes(size) if nobits else (pool * (size // len(pool) + 1))[:size]
        sections.append(Sec(name, data, SHT_NOBITS if nobits else SHT_PROGBITS, gap))
        buckets[name] = 0 if nobits else size
    buckets[".shstrtab"] = strtab
    buckets["[Unmapped]"] = sum(gaps)
    blob = build_elf(sections, elf_type=e_type, interp=interp, load_phdr=e_type != ET_REL)
    facts = {"elf_type": TYPE_NAMES[e_type], "sections": names, "buckets": buckets,
             "size": len(blob)}
    return blob, facts


def _write(path: Path, blob: bytes) -> None:
    with open(path, "wb") as f:
        f.write(blob)
        # write back now, not while a later step is being timed
        f.flush()
        os.fsync(f.fileno())


def size_schedule(seed: int) -> list[int]:
    """File sizes at fixed log-normal quantiles, jittered +-3% by the seed."""
    rng = random.Random(f"sizes-{seed}")
    nd = NormalDist()
    sizes = []
    for i in range(SYNTH_FILES):
        size = SIZE_MEDIAN * math.exp(SIZE_SIGMA * nd.inv_cdf((i + 0.5) / SYNTH_FILES))
        sizes.append(int(min(SIZE_CAP, max(SIZE_FLOOR, size)) * rng.uniform(0.97, 1.03)))
    return sizes


def _synth_image(rng: random.Random, path: Path, plan: Plan, target: int) -> dict:
    blob, facts = _image(rng, plan, target)
    _write(path, blob)
    facts.update(kind=plan.kind, symbols=plan.symbols, expect_exit=0)
    return facts


def _bad_image(rng: random.Random, path: Path, kind: str) -> dict:
    if kind == "short":
        path.write_bytes(b"\x7fELF" + rng.randbytes(rng.randint(8, 59)))
    elif kind == "magic":
        path.write_bytes(b"MZ\x90\x00" + rng.randbytes(rng.randint(100, 8000)))
    else:
        blob, facts = _image(rng, Plan("pie", "symbols"), rng.randint(8_000, 60_000))
        blob = bytearray(blob)
        if kind == "class32":
            blob[4] = 1  # EI_CLASS = ELFCLASS32
        elif kind == "bigendian":
            blob[5] = 2  # EI_DATA = ELFDATA2MSB
        elif kind == "shdr_past_eof":
            del blob[len(blob) - rng.randint(1, 63):]
        else:  # data_past_eof: .text claims a gigabyte more than the file holds
            shoff = struct.unpack_from("<Q", blob, 40)[0]
            at = shoff + 64 * (1 + facts["sections"].index(".text")) + 32  # its sh_size
            struct.pack_into("<Q", blob, at, struct.unpack_from("<Q", blob, at)[0] + (1 << 30))
        _write(path, blob)
    return {"kind": "bad:" + kind, "expect_exit": 2}


def make_corpus(dest: Path, seed: int, programs: dict) -> list[dict]:
    """Seeded scope/size corpus: synthetic images, malformed images and the
    gcc-built hello variants."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"corpus-{seed}")
    entries = []
    sizes = size_schedule(seed)
    for i, (plan, target) in enumerate(zip(plans(rng, len(sizes)), sizes)):
        path = dest / f"synth-{i:03d}.elf"
        entries.append({"path": str(path), **_synth_image(rng, path, plan, target)})
    for kind in BAD_KINDS:
        path = dest / f"bad-{kind}.bin"
        entries.append({"path": str(path), **_bad_image(rng, path, kind)})
    for name, path in sorted(programs["hello"].items()):
        entries.append({"path": path, "kind": "gcc:" + name, "expect_exit": 0})
    # The visiting order is the same for every seed: peak RSS depends on the
    # order in which big buffers are allocated and freed.
    random.Random("corpus-order").shuffle(entries)
    return entries


def make_cold_set(dest: Path, seed: int, programs: dict) -> list[dict]:
    """Small binaries (under 100 KB) for fresh-process CLI invocations:
    three gcc-built and three synthetic."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"cold-{seed}")
    hello = sorted(programs["hello"].items())
    entries = [{"path": p, "kind": "gcc:" + n, "expect_exit": 0}
               for n, p in rng.sample(hello, 3)]
    for i, plan in enumerate(plans(rng, 3)):
        path = dest / f"small-{i}.elf"
        entries.append({"path": str(path),
                        **_synth_image(rng, path, plan, rng.randint(8_000, 90_000))})
    rng.shuffle(entries)
    return entries


def corpus_identity(paths: list[str]) -> dict:
    """File count, total bytes and a digest of the sorted (name, size) list.
    Input file names are unique, so the digest ignores where they live."""
    listing = sorted((os.path.basename(p), os.path.getsize(p)) for p in paths)
    digest = hashlib.sha256(json.dumps(listing).encode()).hexdigest()[:16]
    return {"files": len(listing), "bytes": sum(s for _, s in listing), "digest": digest}


# --- gcc-built test programs --------------------------------------------------

OPT_LEVELS = ("O0", "O1", "O2", "O3")


def build_programs(cache_root: Path) -> dict:
    """Build (once per source and compiler) the 16 hello variants and the
    'other' program; return {"hello": {name: path}, "other": path}."""
    gcc = shutil.which("gcc")
    strip = shutil.which("strip")
    if gcc is None or strip is None:
        raise RuntimeError("gcc and strip are needed to build the test programs")
    version = subprocess.run([gcc, "--version"], capture_output=True, text=True,
                             check=True).stdout
    key = hashlib.sha256(
        (HERE / "hello.c").read_bytes() + (HERE / "other.c").read_bytes() + version.encode()
    ).hexdigest()[:16]
    out = cache_root / f"programs-{key}"
    if not (out / "done").is_file():
        cache_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="programs-", dir=cache_root))
        for opt in OPT_LEVELS:
            for pie in ("pie", "nopie"):
                flags = ["-fPIE", "-pie"] if pie == "pie" else ["-fno-PIE", "-no-pie"]
                base = tmp / f"hello-{opt}-{pie}-symbols"
                subprocess.run([gcc, *flags, f"-{opt}", "-o", str(base), str(HERE / "hello.c")],
                               check=True, capture_output=True)
                stripped = tmp / f"hello-{opt}-{pie}-stripped"
                shutil.copy2(base, stripped)
                subprocess.run([strip, str(stripped)], check=True, capture_output=True)
        subprocess.run([gcc, "-O1", "-o", str(tmp / "other"), str(HERE / "other.c")],
                       check=True, capture_output=True)
        (tmp / "done").write_text("ok\n")
        if out.exists():
            shutil.rmtree(out)
        os.rename(tmp, out)
    hello = {p.name: str(p) for p in sorted(out.glob("hello-*"))}
    return {"hello": hello, "other": str(out / "other")}


# --- campaign stubs -------------------------------------------------------------

NOT_ELF_TEXT = "not-an-elf\n"

# tool -> task -> (ir, exe, func) the harness must record, by construction
STUB_EXPECTED = {
    "copy": {"NOP": ("na", "1", "yes"), "AFL": ("na", "1", "yes")},
    "copy_ir": {"NOP": ("yes", "1", "yes"), "AFL": ("yes", "1", "yes")},
    "ir_missing": {"NOP": ("no", "0", "na"), "AFL": ("no", "0", "na")},
    "not_elf": {"NOP": ("na", "0", "na"), "AFL": ("na", "0", "na")},
    "other_elf": {"NOP": ("na", "1", "no"), "AFL": ("na", "1", "yes")},
}


def stub_adapters(other: str) -> list[dict]:
    """Five stub rewriters, one per checkpoint outcome:
    copy; copy plus an IR artifact; IR declared but never produced; output
    that is not an ELF; output that is another ELF with another exit code."""
    other_q = shlex.quote(other)

    def both(tpl: str) -> dict:
        return {"nop_command": tpl, "afl_command": tpl}

    return [
        {"tool_name": "copy", "emits_ir": False, **both("cp {input} {output}")},
        {"tool_name": "copy_ir", "emits_ir": True, "ir_artifact_glob": "*.ir",
         **both("sh -c 'cp \"$0\" \"$1\" && : > lifted.ir' {input} {output}")},
        {"tool_name": "ir_missing", "emits_ir": True, "ir_artifact_glob": "*.ir",
         **both("cp {input} {output}")},
        {"tool_name": "not_elf", "emits_ir": False,
         **both("sh -c 'echo not-an-elf > \"$1\"' {input} {output}")},
        {"tool_name": "other_elf", "emits_ir": False,
         **both(f"sh -c 'cp \"$2\" \"$1\"' {{input}} {{output}} {other_q}")},
    ]


def stub_expected_size(tool: str, original: str, other: str) -> str:
    if tool in ("copy", "copy_ir", "ir_missing"):
        return str(os.path.getsize(original))
    if tool == "not_elf":
        return str(len(NOT_ELF_TEXT))
    return str(os.path.getsize(other))


def campaign_manifest(seed: int, programs: dict) -> list[dict]:
    """All 16 hello variants, each with a seeded 1-3 word null invocation."""
    rng = random.Random(f"campaign-{seed}")
    words = ("alpha", "beta", "gamma", "delta", "-v", "--", "x")
    manifest = []
    for name, path in sorted(programs["hello"].items()):
        _, opt, reloc, symbols = name.split("-")
        manifest.append({
            "id": name, "path": path, "program": "hello", "compiler": "gcc",
            "flags": opt, "relocation": reloc,
            "symbols": "present" if symbols == "symbols" else "stripped",
            "os": "host",
            "null_invocation": rng.sample(words, rng.randint(1, 3)),
        })
    rng.shuffle(manifest)
    return manifest


# --- results CSV at paper scale -------------------------------------------------

RESULTS_HEADER = ("binary_id", "program", "compiler", "flags", "relocation", "symbols",
                  "os", "tool", "task", "ir", "exe", "func", "runtime_s", "mem_kb",
                  "out_size_bytes")
# tool -> (emits_ir, has_afl, base success probability)
PAPER_TOOLS = {
    "ddisasm": (True, True, 0.85), "e9patch": (False, True, 0.80),
    "egalito": (True, True, 0.30), "mctoll": (True, False, 0.15),
    "multiverse": (False, False, 0.25), "reopt": (True, False, 0.35),
    "retrowrite": (True, True, 0.40), "revng": (True, False, 0.30),
    "uroboros": (True, False, 0.20), "zipr": (False, True, 0.75),
}
PAPER_BINARIES = 3344
_COMPILER_FLAGS = {
    "gcc": ("O0", "O1", "O2", "O3", "Os", "Ofast"),
    "clang": ("O0", "O1", "O2", "O3", "Os", "Ofast"),
    "icx": ("O0", "O1", "O2", "O3", "Os", "Ofast"),
    "ollvm": ("fla", "sub", "bcf"),
}
_PROGRAMS = tuple(f"prog{i:02d}" for i in range(40))


def write_results_csv(path: Path, seed: int, n_binaries: int = PAPER_BINARIES) -> int:
    """Seeded results CSV, sorted like the harness writes it; every row
    satisfies the RunRecord invariants.  Returns the row count."""
    rng = random.Random(f"results-{seed}")
    compilers = list(_COMPILER_FLAGS)
    binaries = []
    for i in range(n_binaries):
        compiler = rng.choices(compilers, weights=(35, 35, 15, 15))[0]
        variant = (rng.choice(_PROGRAMS), compiler, rng.choice(_COMPILER_FLAGS[compiler]),
                   rng.choice(("pie", "nopie")), rng.choice(("present", "stripped")),
                   rng.choice(("ubuntu18", "ubuntu20")))
        binaries.append((f"{variant[0]}-{compiler}-{variant[2]}-{i:04d}", variant))
    binaries.sort()
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(RESULTS_HEADER)
        for binary_id, variant in binaries:
            bonus = 0.08 * (variant[3] == "pie") + 0.08 * (variant[4] == "present")
            for tool, (emits_ir, has_afl, p) in sorted(PAPER_TOOLS.items()):
                for task in ("AFL", "NOP"):
                    w.writerow([binary_id, *variant, tool, task,
                                *_outcome(rng, emits_ir, has_afl or task == "NOP",
                                          min(0.98, p + bonus))])
                    rows += 1
    return rows


def _outcome(rng: random.Random, emits_ir: bool, supported: bool, p: float) -> list[str]:
    if not supported:  # what the harness records as NoAflSupport
        return ["no" if emits_ir else "na", "0", "na", "0.000000", "0", ""]
    ir = ("yes" if rng.random() < p ** 0.5 else "no") if emits_ir else "na"
    exe = ir != "no" and rng.random() < p ** 0.5
    func = ("yes" if rng.random() < p else "no") if exe else "na"
    runtime = rng.lognormvariate(math.log(20.0), 1.2)
    mem = int(rng.lognormvariate(math.log(200_000), 0.8))
    size = str(int(rng.lognormvariate(math.log(2_000_000), 1.0))) if exe else ""
    return [ir, "1" if exe else "0", func, f"{runtime:.6f}", str(mem), size]
