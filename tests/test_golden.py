"""Golden outputs: the CLI's exact bytes for fixed inputs, pinned as digests.

Every input is built here, from tests/elfbuild.py images or a seeded
generator, so the digests hold on any host. Before hashing, the test's temp
directory is replaced by "<tmp>" and the results CSV's runtime_s and mem_kb
columns are blanked. A refactor that changes any of these outputs by one byte
fails here; a deliberate output change must update the digest with a reason.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random

import pytest

from rweval.cli import main

from elfbuild import (ET_DYN, ET_EXEC, ET_REL, SHT_NOBITS, SHT_PROGBITS, SHT_STRTAB, SHT_SYMTAB,
                      Sec, build_elf, extended_numbering, pn_xnum, wide_entries)

IMAGES = {
    "dyn": lambda: build_elf(),
    "pie": lambda: build_elf(
        [
            Sec(".note.ABI-tag", b"\x04" * 32),
            Sec(".text", b"\x90" * 96),
            Sec(".rela.plt", b"\x00" * 48, gap_before=8),
            Sec(".data", b"\x01" * 24, gap_before=3),
            Sec(".bss", b"\x00" * 512, SHT_NOBITS),
            Sec(".symtab", b"\x00" * 48, SHT_SYMTAB),
            Sec(".strtab", b"\x00main\x00", SHT_STRTAB),
        ],
        interp=True,
        trailing=b"\xee" * 40,
    ),
    "exec": lambda: build_elf(
        [Sec(".text", b"\x90" * 200), Sec(".plt", b"\xcc" * 32), Sec(".got", b"\x00" * 16)],
        elf_type=ET_EXEC,
        interp=True,
    ),
    "rel": lambda: build_elf(
        [Sec(".text", b"\x90" * 40), Sec(".rela.text", b"\x00" * 24)],
        elf_type=ET_REL,
        load_phdr=False,
    ),
    "nonames": lambda: build_elf([Sec(".text", b"\x90" * 12)], with_shstrtab=False),
}

RESULTS_HEADER = ["binary_id", "program", "compiler", "flags", "relocation", "symbols",
                  "os", "tool", "task", "ir", "exe", "func", "runtime_s", "mem_kb",
                  "out_size_bytes"]
TIMING_COLUMNS = (12, 13)

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli(root, *argv) -> str:
    """rc and stdout of one in-process CLI call, with the temp dir masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return f"rc={rc}\n{out.getvalue()}".replace(str(root), "<tmp>")


@pytest.fixture
def images(tmp_path):
    paths = {}
    for name, build in IMAGES.items():
        path = tmp_path / f"{name}.elf"
        path.write_bytes(build())
        paths[name] = path
    return paths


INSPECT_CASES = [
    (command, image, fmt)
    for image in IMAGES
    for command, formats in (("scope", ("json", "text")),
                             ("features", ("json", "text")),
                             ("size", ("json", "csv", "text")))
    for fmt in formats
]


@pytest.mark.parametrize("command,image,fmt", INSPECT_CASES,
                         ids=["-".join(c) for c in INSPECT_CASES])
def test_inspect_commands(tmp_path, images, command, image, fmt):
    out = cli(tmp_path, command, images[image], "--format", fmt)
    assert digest(out) == GOLDEN[f"{command}-{image}-{fmt}"], out


# The exec image with its header tables laid out the other ways parse_elf
# reads: 80-byte section headers, and the counts in section 0.
LAYOUTS = {
    "wide80": lambda: wide_entries(IMAGES["exec"](), 80),
    "extended": lambda: extended_numbering(IMAGES["exec"]()),
    "pn_xnum": lambda: pn_xnum(IMAGES["exec"]()),
}
LAYOUT_CASES = [(command, layout) for layout in LAYOUTS for command in ("scope", "size")]


@pytest.mark.parametrize("command,layout", LAYOUT_CASES,
                         ids=["-".join(c) for c in LAYOUT_CASES])
def test_header_table_layouts(tmp_path, command, layout):
    path = tmp_path / f"{layout}.elf"
    path.write_bytes(LAYOUTS[layout]())
    out = cli(tmp_path, command, path, "--format", "json")
    assert digest(out) == GOLDEN[f"{command}-{layout}-json"], out


DELTA_CASES = [(a, b, fmt) for a, b in (("dyn", "pie"), ("pie", "exec"))
               for fmt in ("json", "csv", "text")]


@pytest.mark.parametrize("before,after,fmt", DELTA_CASES,
                         ids=["-".join(c) for c in DELTA_CASES])
def test_size_delta(tmp_path, images, before, after, fmt):
    out = cli(tmp_path, "size", images[before], images[after], "--format", fmt)
    assert digest(out) == GOLDEN[f"delta-{before}-{after}-{fmt}"], out


@pytest.fixture
def seeded_results(tmp_path):
    """A seeded 24-binary x 3-tool x 2-task results CSV and its manifest.

    The originals are real files so the size table can stat them; one binary
    is left out of the manifest and one tool skips some binaries."""
    rng = random.Random(20220326)
    rows = [RESULTS_HEADER]
    manifest = []
    for i in range(24):
        binary_id = f"b{i:02d}"
        compiler = rng.choice(["gcc", "clang"])
        flags = rng.choice(["O0", "O2", "O3"])
        relocation = rng.choice(["pie", "nopie"])
        symbols = rng.choice(["present", "stripped"])
        original = tmp_path / f"{binary_id}.elf"
        original.write_bytes(build_elf([Sec(".text", b"\x90" * (16 + 24 * i))]))
        if i != 5:
            manifest.append({"id": binary_id, "path": str(original), "program": "p",
                             "compiler": compiler, "flags": flags,
                             "relocation": relocation, "symbols": symbols,
                             "os": "u20"})
        for tool in ("alpha", "beta", "gamma"):
            if tool == "gamma" and i % 4 == 3:
                continue
            for task in ("NOP", "AFL"):
                ir = rng.choice(["yes", "yes", "no"]) if tool == "alpha" else "na"
                exe = ir != "no" and rng.random() < 0.75
                func = ("yes" if rng.random() < 0.7 else "no") if exe else "na"
                size = int(original.stat().st_size * rng.uniform(0.8, 1.9))
                rows.append([binary_id, "p", compiler, flags, relocation, symbols,
                             "u20", tool, task, ir, "1" if exe else "0", func,
                             f"{rng.uniform(0.05, 9.0):.6f}",
                             str(rng.randint(1000, 90000)),
                             str(size) if exe else ""])
    results = tmp_path / "results.csv"
    with open(results, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return results, manifest_path


REPORT_TABLES = {
    "success-full": ("--table", "success", "--cohort", "full"),
    "success-pi_symbols": ("--table", "success", "--cohort", "pi_symbols"),
    "comparative-ratio_of_means": ("--table", "comparative", "--metric", "runtime_s"),
    "comparative-mean_of_ratios": ("--table", "comparative", "--metric", "runtime_s",
                                   "--mean-of-ratios"),
    "size": ("--table", "size"),
}
REPORT_CASES = [(table, fmt) for table in REPORT_TABLES for fmt in ("json", "csv", "text")]


@pytest.mark.parametrize("table,fmt", REPORT_CASES, ids=["-".join(c) for c in REPORT_CASES])
def test_report_tables(tmp_path, seeded_results, table, fmt):
    results, manifest = seeded_results
    out = cli(tmp_path, "report", results, *REPORT_TABLES[table],
              "--manifest", manifest, "--format", fmt)
    assert digest(out) == GOLDEN[f"report-{table}-{fmt}"], out


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_campaign_with_stub_tools(tmp_path, images, parallelism):
    # dyn and rel are executable, so their null tests run (and fail); the
    # nonames original has no exec bit, so its null test gives
    # OriginalUnusable (func=no), like any original that cannot be executed.
    for name in ("dyn", "rel"):
        images[name].chmod(0o755)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"id": name, "path": str(images[name]), "program": "p", "compiler": "gcc",
         "flags": "O2", "relocation": "pie", "symbols": "present", "os": "u20",
         "null_invocation": ["--version"]}
        for name in ("dyn", "rel", "nonames")
    ]))
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps([
        {"tool_name": "cp", "nop_command": "cp {input} {output}",
         "afl_command": "cp {input} {output}"},
        {"tool_name": "false", "nop_command": "false {input} {output}",
         "afl_command": "false {input} {output}"},
    ]))
    results = tmp_path / "results.csv"
    kept = tmp_path / "kept"
    out = cli(tmp_path, "run", "--manifest", manifest, "--adapters", adapters,
              "--out", results, "--afl-driver", "true {target}",
              "--parallelism", parallelism, "--keep-outputs", kept)
    with open(results, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        for i in TIMING_COLUMNS:
            row[i] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    listing = "".join(f"{name} {os.path.getsize(kept / name)}\n"
                      for name in sorted(os.listdir(kept)))
    text = out + "--csv--\n" + buf.getvalue() + "--kept--\n" + listing
    assert digest(text) == GOLDEN["run-stub"], text


@pytest.fixture
def trainable_corpus(tmp_path):
    """A seeded 22-binary corpus and results for two tools and both tasks.

    Each binary carries a random subset of six marker sections and random pi
    and strip bits. Each (tool, task) labels by its own noisy rule over those
    features; one results binary is missing from the manifest and one manifest
    binary has no results rows."""
    rng = random.Random(20220327)
    pool = (".alpha", ".beta", ".gamma", ".delta", ".eps", ".zeta")
    rules = {
        ("alpha", "AFL"): lambda s: ".alpha" in s and ".beta" not in s,
        ("alpha", "NOP"): lambda s: ".gamma" in s or ".symtab" in s,
        ("beta", "AFL"): lambda s: ".delta" not in s,
        ("beta", "NOP"): lambda s: ".eps" in s or ".alpha" in s,
    }
    rows = [RESULTS_HEADER]
    manifest = []
    for i in range(22):
        binary_id = f"t{i:02d}"
        names = {n for n in pool if rng.random() < 0.5}
        if rng.random() < 0.5:
            names.add(".symtab")
        pie = rng.random() < 0.6
        path = tmp_path / f"{binary_id}.elf"
        path.write_bytes(build_elf(
            [Sec(".text", b"\x90" * 8),
             *(Sec(n, b"\x00" * 8, SHT_SYMTAB if n == ".symtab" else SHT_PROGBITS)
               for n in sorted(names))],
            elf_type=ET_DYN if pie else ET_EXEC))
        if i != 7:
            manifest.append({"id": binary_id, "path": str(path), "program": "p",
                             "compiler": "gcc", "flags": "O2",
                             "relocation": "pie" if pie else "nopie",
                             "symbols": "present" if ".symtab" in names else "stripped",
                             "os": "u20"})
        if i == 11:
            continue
        for (tool, task), rule in rules.items():
            passed = rule(names) != (rng.random() < 0.1)
            exe = passed or rng.random() < 0.5
            func = "yes" if passed else ("no" if exe else "na")
            rows.append([binary_id, "p", "gcc", "O2", "pie" if pie else "nopie",
                         "present" if ".symtab" in names else "stripped", "u20",
                         tool, task, "na", "1" if exe else "0", func, "1.000000",
                         "100", "4096" if exe else ""])
    results = tmp_path / "results.csv"
    with open(results, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return results, manifest_path


TRAIN_CASES = {
    "alpha-AFL": ("--tool", "alpha", "--task", "AFL", "--seed", "3", "--k", "4",
                  "--max-depth", "3", "--train-fraction", "0.6"),
    "beta-NOP": ("--tool", "beta", "--task", "NOP"),
}


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train(tmp_path, trainable_corpus, case):
    results, manifest = trainable_corpus
    model = tmp_path / "model.json"
    out = cli(tmp_path, "train", "--results", results, "--manifest", manifest,
              *TRAIN_CASES[case], "--out-model", model)
    text = out + "--model--\n" + model.read_text(encoding="utf-8")
    assert digest(text) == GOLDEN[f"train-{case}"], text


@pytest.fixture
def kept_campaign(tmp_path, images):
    """A stub campaign's results, manifest and kept outputs. Tool cp copies
    each original, topie and toexec replace it with the pie and exec images,
    and false writes nothing. The exec original is deleted after the run, so
    the sections table drops its rows."""
    originals = tmp_path / "originals"
    originals.mkdir()
    manifest = tmp_path / "manifest.json"
    entries = []
    for name in ("dyn", "rel", "nonames", "exec"):
        path = originals / f"{name}.elf"
        path.write_bytes(images[name].read_bytes())
        entries.append({"id": name, "path": str(path), "program": "p", "compiler": "gcc",
                        "flags": "O2", "relocation": "pie", "symbols": "present",
                        "os": "u20", "null_invocation": ["--version"]})
    manifest.write_text(json.dumps(entries))
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps([
        {"tool_name": "cp", "nop_command": "cp {input} {output}",
         "afl_command": "cp {input} {output}"},
        *({"tool_name": f"to{image}", "nop_command": replace, "afl_command": replace}
          for image in ("pie", "exec")
          for replace in [f"sh -c 'cp \"$1\" \"$3\"' r {images[image]} {{input}} {{output}}"]),
        {"tool_name": "false", "nop_command": "false {input} {output}",
         "afl_command": "false {input} {output}"},
    ]))
    results = tmp_path / "results.csv"
    kept = tmp_path / "kept"
    assert main(["run", "--manifest", str(manifest), "--adapters", str(adapters),
                 "--out", str(results), "--afl-driver", "true {target}",
                 "--keep-outputs", str(kept)]) == 0
    (originals / "exec.elf").unlink()
    return results, manifest, kept


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_report_sections(tmp_path, kept_campaign, fmt):
    results, manifest, kept = kept_campaign
    out = cli(tmp_path, "report", results, "--table", "sections", "--manifest", manifest,
              "--outputs", kept, "--format", fmt)
    assert digest(out) == GOLDEN[f"report-sections-{fmt}"], out


USAGE_CASES = {
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"]
       for command in ("scope", "features", "size", "run", "train", "report")},
    "no-command": [],
    "double-dash": ["--", "scope", "x"],
    "unknown-command": ["bogus"],
    "missing-scope-path": ["scope"],
    "missing-run-options": ["run"],
    "bad-choice": ["report", "x", "--table", "nope"],
    "unknown-option": ["scope", "x", "--bogus"],
    "unknown-top-option": ["--bogus"],
    "option-before-command": ["--bogus", "scope"],
    "extra-positional": ["scope", "x", "y"],
    "extra-after-size": ["size", "a", "b", "c"],
    "dash-before-path": ["scope", "--", "x"],
    "abbreviated-option": ["scope", "x", "--form", "json"],
    "option-without-value": ["scope", "x", "--format"],
    "dash-before-size-path": ["size", "--", "a"],
    "extra-features-path": ["features", "a", "b"],
}


@pytest.mark.parametrize("case", USAGE_CASES)
def test_help_and_usage_errors(monkeypatch, tmp_path, case):
    # argparse's wording is the interpreter's; these digests are Python 3.11's
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # so that no input name is an existing file
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(USAGE_CASES[case])
        except SystemExit as e:  # argparse exits after printing help
            rc = e.code
    text = f"rc={rc}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    assert digest(text) == GOLDEN[f"usage-{case}"], text


# sha256 of each case's masked output. A refactor must leave every one unchanged.
GOLDEN = {
    "delta-dyn-pie-csv":
        "ba23525385faf1bc3fb65fa1a727c4d61180aa33aa2fe5a50c361a26500f945f",
    "delta-dyn-pie-json":
        "ffee4d814b971eb189cd616b37133bf888098b3358679b512869bec536538be7",
    "delta-dyn-pie-text":
        "33942604e77d0f4b2322907952c83bb298de782191e1b55505416bfc5a853eac",
    "delta-pie-exec-csv":
        "3680498ef931976c95ec5bf3f81bc26ad50c5a969d26fb2c4f110c6985b40385",
    "delta-pie-exec-json":
        "d15446797c31ed43dd35a3785f34f4d65c03aba66e568612d99111e131fa36a0",
    "delta-pie-exec-text":
        "1b85febda0cad0a534c8947716180fa2eda17484948648e1ca5a3e8aa3cee695",
    "features-dyn-json":
        "e8d368a7c2bd500c586697c66c3586ad0634db268f25ed08d64382a28e7ac2e9",
    "features-dyn-text":
        "472107412c4075cd64029800ade272803486b1befb8e6e5e63a6625b3142c363",
    "features-exec-json":
        "42dc4b7486acdb726a5f6ecfdf28944a26b20ace917fb0b7283934273b6faab6",
    "features-exec-text":
        "25a49436efdf370341bb164115da3f09b6b4aca8f9a0d089b38a627968b02623",
    "features-nonames-json":
        "28c3ff25b979f092a84d6ccccbbeca3578667cee2f65777c01ff0a58d6eafde3",
    "features-nonames-text":
        "4a36c1420b2ef38072652433b092811c4e2e021e1cf15c7619ed84c4a51ff34c",
    "features-pie-json":
        "e364f9f6ea703ebcdfba08c51ee12fada6b9b67f32e751835ba1b7dba8c83853",
    "features-pie-text":
        "6550508671b98bd13cb71546055f205b5c5d6fc1246a001e1827335ce4e5e6f6",
    "features-rel-json":
        "9def3a0a32c21c5a5e263d00c68aae4cc21370d303d5a8bd186259a73dd30ebf",
    "features-rel-text":
        "ea1964f349d7e00c2d67c72dc9e47e61583ec48fe6860714532b150d92cae02c",
    # the six report-*-csv digests changed once on purpose: report's CSV
    # output ended in a blank line, and now ends in one line break as size's does.
    "report-comparative-mean_of_ratios-csv":
        "66b9b5a844e1cbe3ab97d45c2713b9da0e4f97b5ad79851ea06b5c1be5559bd6",
    "report-comparative-mean_of_ratios-json":
        "61452adaabbfc94573c87cfa80c5aed1105572305c19aacf8f26f45ea640fcbd",
    "report-comparative-mean_of_ratios-text":
        "e7056d80f0182e00742bf0932afea96842ed26feb3ab26d8e2c949aa72d535e1",
    "report-comparative-ratio_of_means-csv":
        "71187c1786ecc3ec7f5bcc86120377e024a7a8af38bc1d46b9c36077cc94f668",
    "report-comparative-ratio_of_means-json":
        "6802f20c7e0ca74520390e60dcea940b9229cfc44e87c1c534f4ed37df3093eb",
    "report-comparative-ratio_of_means-text":
        "6281594939c12e79de6605c1a220cb18b7a97e9ae2588e301003f98cf48e87fe",
    # report-sections-* and size-nonames-* changed once on purpose: the
    # nameless section's row went from a blank label to "[section 1]".
    "report-sections-csv":
        "bc5a2bd5935ca458ada7a7173108065b099f67d3630e2f5282b4a55a4c4096a7",
    "report-sections-json":
        "ff56c45c446a5cd6fd3d37b4e2820e64d5d9336576ac5d6b1853e55379d99e76",
    "report-sections-text":
        "f0d48367cb18a7968997990548f43d2d3220094dc53ce92908ef1cda4db436c4",
    "report-size-csv":
        "07f8c8537611645dc59aa9929478ecc03d55cfcedd7010629ed00c127c837ac4",
    "report-size-json":
        "eb0f236853418e56ea503feb1887defb90a96de794e24636112faf36c4b5c112",
    "report-size-text":
        "94d2aba54d06fffb23b85817a54ddd32d3969600b4b36e25a49594363512c5a6",
    "report-success-full-csv":
        "a69af905f5dfec4788532401b09b47228a6ea40bc62c35676241248d05c57a99",
    "report-success-full-json":
        "0db76a8dfcc355a1b1a58bd7a537ebd4ed2cc077178729223d6ba9da42ffa65e",
    "report-success-full-text":
        "4ac028301273040d4db104117d2b4e1f03449237370687498079867920a3156a",
    "report-success-pi_symbols-csv":
        "6b1eae6c2a48336edaddabece8abe1ec4854d4a798807ce883d9a9536e693959",
    "report-success-pi_symbols-json":
        "f19900879a79e92c5c64055240d7821ff6fd6de7cce044968aa9a9288ff9b7b8",
    "report-success-pi_symbols-text":
        "bed87efde3371c7aef9f85e15f4b88910d121fe446689f1ec2abd9515c9b6da6",
    # Changed once on purpose: the nonames/cp/NOP row's func went from na to
    # no when a non-executable original stopped being a FuncError and became
    # OriginalUnusable.
    "run-stub":
        "3781f5e87c4909c3a44ebf3dbab0a1c01259c1ef4d12c1e52a3aedaf6b7e387a",
    "scope-dyn-json":
        "622a03b51cc6058d9d6fbf2d91bda1b516b0c294dabbd5906517b2393f76d2dc",
    "scope-dyn-text":
        "03918518c1ae8c7720f04f6ceb0aaa5b987069941a7bc829b9091f3dc9d389c8",
    "scope-exec-json":
        "e0f7e7af882101ccd8e74b47a916a7096bc3e60ecb2b58ede45ee8da89914c14",
    "scope-exec-text":
        "1208a639bc3b6998708eefc24499fcb567070304633ead7fde4919550a84cc1b",
    "scope-extended-json":
        "cc84114b96e0df96d2f326552f73f29360a67b9ebfa3a8b97b4f3786c86f92ba",
    "scope-nonames-json":
        "cd163df5f61482bdf2ba4c18e37fa25a183a6db8bcc5f1118ab5d7a72aac7bfc",
    "scope-nonames-text":
        "587c5868467195922be3f14ed0a5c658ac389d5368980d894097a0c603ea01aa",
    "scope-pie-json":
        "3d2e844d9ef35c9352a0aefc08c0787540924813d2829b3b57c7972468113adc",
    "scope-pie-text":
        "b65b035c29cb11dfd8d18a78d53fdaea650a08e6564249fa17ab8199426fd943",
    "scope-pn_xnum-json":
        "cb531676daa0aac1a8b66a33e9b4938f4b99e80b34857a3b520c20c0b64a5dbb",
    "scope-rel-json":
        "8464d8c05d5348fa71d4531779473e10332df05c9148f650792928c4154ad093",
    "scope-rel-text":
        "57d1f7360fb456bfdf0b7ca89a0870a7ca5f909591ae895c56e22cb817bccbb1",
    "scope-wide80-json":
        "2f994aa8137863680d2678a0bf66d70f7fa931d47ca1b53f33a31676f8b74911",
    "size-dyn-csv":
        "479870143bb86cf1925515e3b4a40fdd314245bb17d1fcafd1624d8caa6b897b",
    "size-dyn-json":
        "ebd43e3e84d68b9dfa55bb3722932d10e3fc190a9da906bf979ab0a720263095",
    "size-dyn-text":
        "7619c68effbb4f98813c4789e97f8a8cf276132e1275fb83bffdb8bf15413503",
    "size-exec-csv":
        "8703598ab267cf5394bf9c5edb26527624fdca286808b8da54348e5d29f094f2",
    "size-exec-json":
        "7ae5e6f1649e35d29c6b93749aec23f088f82827dc0a05eaaa52a31ee1d7a6a3",
    "size-exec-text":
        "86962315c7a61182c7a0a3f9427daffa2f0d73fc93078bcb9753abd1a1170127",
    # the counts in section 0 leave the profile as exec's: size-exec-json
    "size-extended-json":
        "7ae5e6f1649e35d29c6b93749aec23f088f82827dc0a05eaaa52a31ee1d7a6a3",
    # changed once on purpose, like report-sections-* above
    "size-nonames-csv":
        "659a9209faf44480d3158f499cb73d74e6f74f4e95eca72b99b41b656b8ee741",
    "size-nonames-json":
        "becf7c683831f0fe1847047f53fc3fc4ad0fc1f943e78a2d9ea39933fa6a2d23",
    "size-nonames-text":
        "92179e4a87bdbe2847df82bf5c069e3548a6769c91b493a1ec27f4c70f2d6223",
    "size-pie-csv":
        "9d56e4e0127b900b5d0091b30b5505d83908166439785f1a094c7434578ea078",
    "size-pie-json":
        "6f39509c7de39bdff645d59bdb1054c6faff9f3a3d8aeee96eb922a3ce5f8cd5",
    "size-pie-text":
        "3377f15c21248888d941cf81c5c35d9f4ac55d3b3a3beca98aebe7d4a4db312a",
    "size-pn_xnum-json":
        "7ae5e6f1649e35d29c6b93749aec23f088f82827dc0a05eaaa52a31ee1d7a6a3",
    "size-rel-csv":
        "244c7dabde4fdf8edc7538d70b1ad245957938b3007007f29ea1751eab9857d7",
    "size-rel-json":
        "127bf18849f9133d38bbb12a190ea7a2f05e9a6e8114073255dfe84136484ead",
    "size-rel-text":
        "1097023ed85196fdc2dfdac8bc81caf15a1d9d8bdceec5bdb374c3dc1f928609",
    "size-wide80-json":
        "d7e1616081c2d6ca5a0754eddb9937ec24d076d5b627407482f3e09f79412a35",
    "train-alpha-AFL":
        "46bda492b79413c280d7e66940a329cf0f695519b7f0c2a7c1f72e73fce9a231",
    "train-beta-NOP":
        "00776a3a95300523a91b8b216b7a26b57e9ac4e516e0ebbeae0eeef0707eaa26",
    "usage-abbreviated-option":
        "58c16e9e7ea1ae651fc8f42ad12edb9c488fa03bea7a872985945e453be0efde",
    "usage-bad-choice":
        "bdf91a0cfbe5109e7a20440d33cef741bb8c14fa02b4b0a39d30aae4adb11332",
    "usage-dash-before-path":
        "58c16e9e7ea1ae651fc8f42ad12edb9c488fa03bea7a872985945e453be0efde",
    "usage-dash-before-size-path":
        "8a5a63812411b15e04472a3d4fb451b2ae62ce4102e777176cf5826244449a98",
    "usage-double-dash":
        "d8ddfdca712ad0aa0b99572d46dd605dc793c1cf73197aeab86b31baca94158a",
    "usage-extra-after-size":
        "3bf6895ca2b652d2e8b2e64fc30a94321dde49a054526d0c1785a1d5dba7d0ed",
    "usage-extra-features-path":
        "e2b2e73376de0160d6d741cd566d14306ee248547947df10d41ea5a14276cb2b",
    "usage-extra-positional":
        "4b9b65973ce053a282ada7c3ce29973b455c53f3655ae850fa55fd5b48390d2d",
    "usage-help":
        "e4aab85f72015286d537e65f0dcaa589d4cbae1a4b464555300ea2b60b066f27",
    "usage-help-features":
        "b87b59f700dd2f2640de3800e37a16408c20374a5f9844f12780e81561b7e36a",
    "usage-help-report":
        "5f0f1ac8dbc5a8aeb616ac38f53318c412ac006348abae56b48e1f6025191275",
    "usage-help-run":
        "46f7a543cf6390d8a94449aab8e8255bb2b9c7d5717dcc8b2ea777b538bf1a68",
    "usage-help-scope":
        "f7a9eb3d787b54286aadd9e2d6d46a6cd705e4c530cb22b10308ab05d1deb893",
    "usage-help-size":
        "bb180cd40b29b93115122eb825b54b972be08578711b2ca595941ce3b4ccad6a",
    "usage-help-train":
        "9b6ce1ae7977f24209cfbf130179bfa20b517a223f07f2cfa032ba6a346e9d5a",
    "usage-missing-run-options":
        "72e5eb7463b8ed897c509fb17e484e3f830f156823d4fed066c64bc7966b1c91",
    "usage-missing-scope-path":
        "be2240ccd38ea8898bad84b3a9d5d53abe01d53df84594481bd2a0bdbeaa334a",
    "usage-no-command":
        "62e8545babddb3d7acc6e2560b34715fff476ca4de34d25e4a11e5d2eec1c8ee",
    "usage-option-before-command":
        "be2240ccd38ea8898bad84b3a9d5d53abe01d53df84594481bd2a0bdbeaa334a",
    "usage-option-without-value":
        "50c6996c8947553c0b2f6fd40dd69205ecc05c1573212f8869b191f0df149c69",
    "usage-unknown-command":
        "32c0f52010338c9342f7b5c57add6c9fb12d002c2db1639a7b01819d73b6f355",
    "usage-unknown-option":
        "4853db46f790bb47408ca18242cef471c8b1d87ff7c4b7701125300ac67f182c",
    "usage-unknown-top-option":
        "62e8545babddb3d7acc6e2560b34715fff476ca4de34d25e4a11e5d2eec1c8ee",
}
