"""Measure the shape of an ELF corpus, as bench_gen's tables use it.

    python3 perfbench/corpus_shares.py [DIR ...]

Not part of a benchmark run: it reads the system directories it is given
(by default /usr/bin and /usr/lib/x86_64-linux-gnu) and prints the tables
that bench_gen's synthetic corpus is built from.  Every figure comes from
`readelf -W -h -l -S` on the regular ELF files found there:

- files, bytes, median, p99 and largest file size;
- corpus files per size decile, by kind (a kind is the ELF type plus
  whether a PT_INTERP header is present);
- per kind, each section that at least 2% of the kind's files have, in its
  usual place in the section table, with the share of files that have it
  and the median of its sh_size as a share of the file size;
- per kind, the shares of files with a .symtab and with .debug_* sections,
  and the byte shares of those sections where present;
- the share of file-backed sections that follow a gap of unclaimed bytes,
  the gap sizes' deciles, and the files with bytes past the section headers.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict

DIRS = ("/usr/bin", "/usr/lib/x86_64-linux-gnu")
SECTION = re.compile(r"^\s*\[\s*\d+\]\s+(\S+)\s+(\S+)\s+[0-9a-f]+\s+([0-9a-f]+)\s+([0-9a-f]+)")
KINDS = ("shlib", "pie", "nopie", "relobj")


def elf_files(dirs) -> list[str]:
    found = []
    for top in dirs:
        for root, _, names in os.walk(top):
            for name in names:
                path = os.path.join(root, name)
                if os.path.islink(path) or not os.path.isfile(path):
                    continue
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        found.append(path)
    return sorted(found)


def describe(path: str) -> dict:
    out = subprocess.run(["readelf", "-W", "-h", "-l", "-S", path],
                         capture_output=True, text=True, check=True).stdout
    e_type = re.search(r"^\s*Type:\s+(\S+)", out, re.M).group(1)
    interp = re.search(r"^\s*INTERP\s", out, re.M) is not None
    shoff = int(re.search(r"Start of section headers:\s+(\d+)", out).group(1))
    shnum = int(re.search(r"Number of section headers:\s+(\d+)", out).group(1))
    sections = []
    for line in out.splitlines():
        m = SECTION.match(line)
        if m and m.group(1) != "NULL":
            name, sh_type, off, size = m.groups()
            sections.append((name, sh_type, int(off, 16), int(size, 16)))
    kind = {"REL": "relobj", "EXEC": "nopie" if interp else "static",
            "DYN": "pie" if interp else "shlib"}.get(e_type, e_type)
    size = os.path.getsize(path)
    return {"kind": kind, "size": size, "sections": sections,
            "trailing": size - (shoff + 64 * shnum)}


def symbol_like(name: str) -> bool:
    return name in (".symtab", ".strtab") or name.startswith(".debug_")


def main(dirs) -> None:
    files = sorted((describe(p) for p in elf_files(dirs)), key=lambda f: f["size"])
    sizes = [f["size"] for f in files]
    q = statistics.quantiles(sizes, n=100)
    print(f"# files {len(files)}, bytes {sum(sizes)}, median {statistics.median(sizes):.0f},"
          f" p99 {q[98]:.0f}, max {sizes[-1]}")
    print(f"# kinds {dict(Counter(f['kind'] for f in files))}")
    n = len(files)
    print(f"KINDS_BY_SIZE_DECILE = (  # {KINDS}")
    for i in range(10):
        counts = Counter(f["kind"] for f in files[i * n // 10 : (i + 1) * n // 10])
        print(f"    {tuple(counts[k] for k in KINDS)},")
    print(")")

    print("SECTIONS = {")
    for kind in KINDS:
        group = [f for f in files if f["kind"] == kind]
        have, where, share = Counter(), defaultdict(list), defaultdict(list)
        for f in group:
            secs = [s for s in f["sections"] if not symbol_like(s[0]) and s[0] != ".shstrtab"]
            for i, (name, _, _, sh_size) in enumerate(secs):
                have[name] += 1
                where[name].append(i / max(1, len(secs) - 1))
                share[name].append(sh_size / f["size"])
        rows = sorted((statistics.median(where[s]), s) for s in have if have[s] >= 0.02 * len(group))
        print(f"    {kind!r}: [")
        for _, s in rows:
            print(f"        ({s!r}, {have[s] / len(group):.2f}, {statistics.median(share[s]):.2g}),")
        print("    ],")
    print("}")

    print("SYMBOLS = {  # kind: (files, with .symtab only, with .symtab and .debug_*)")
    for kind in KINDS:
        group = [f for f in files if f["kind"] == kind]
        names = [{s[0] for s in f["sections"]} for f in group]
        debug = sum(any(s.startswith(".debug_") for s in ns) for ns in names)
        symtab = sum(".symtab" in ns for ns in names)
        print(f"    {kind!r}: ({len(group)}, {symtab - debug}, {debug}),")
    print("}")
    with_symbols = [f for f in files if any(symbol_like(s[0]) for s in f["sections"])]
    have, share = Counter(), defaultdict(list)
    for f in with_symbols:
        for name, _, _, sh_size in f["sections"]:
            if symbol_like(name):
                have[name] += 1
                share[name].append(sh_size / f["size"])
    print("SYMBOL_SECTIONS = {  # name: (files with it, median share of the file)")
    for name in sorted(have, key=lambda s: (not s.startswith(".debug_"), s)):
        print(f"    {name!r}: ({have[name]}, {statistics.median(share[name]):.2g}),")
    print("}")

    follows, gaps = 0, []
    for f in files:
        end = None
        for _, sh_type, off, size in sorted((s for s in f["sections"] if s[1] != "NOBITS"
                                             and s[3] > 0), key=lambda s: s[2]):
            if end is not None:
                follows += 1
                if off > end:
                    gaps.append(off - end)
            end = max(end or 0, off + size)
    print(f"GAP_SHARE = {len(gaps) / follows:.2f}")
    print(f"GAP_DECILES = {tuple(round(g) for g in statistics.quantiles(gaps, n=10))}")
    print(f"# files with bytes past the section headers: {sum(f['trailing'] > 0 for f in files)}")


if __name__ == "__main__":
    main(sys.argv[1:] or DIRS)
