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

from elfbuild import ET_EXEC, ET_REL, SHT_NOBITS, SHT_STRTAB, SHT_SYMTAB, Sec, build_elf

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
    "report-comparative-mean_of_ratios-csv":
        "945b76a24620fdbd2f5cfcb966b0a820493874606da86ffcd046354adb822ae7",
    "report-comparative-mean_of_ratios-json":
        "61452adaabbfc94573c87cfa80c5aed1105572305c19aacf8f26f45ea640fcbd",
    "report-comparative-mean_of_ratios-text":
        "e7056d80f0182e00742bf0932afea96842ed26feb3ab26d8e2c949aa72d535e1",
    "report-comparative-ratio_of_means-csv":
        "06c12187c6f647f3feb36451bc7f57fbf37a14b190c49414159e86d04e5fc5bf",
    "report-comparative-ratio_of_means-json":
        "6802f20c7e0ca74520390e60dcea940b9229cfc44e87c1c534f4ed37df3093eb",
    "report-comparative-ratio_of_means-text":
        "6281594939c12e79de6605c1a220cb18b7a97e9ae2588e301003f98cf48e87fe",
    "report-size-csv":
        "6948b7618ba2da3531b6cd16214feb2cf65039a26f00378584eb63500ee1c200",
    "report-size-json":
        "eb0f236853418e56ea503feb1887defb90a96de794e24636112faf36c4b5c112",
    "report-size-text":
        "94d2aba54d06fffb23b85817a54ddd32d3969600b4b36e25a49594363512c5a6",
    "report-success-full-csv":
        "4fe47d465bacd411774e25e98fbd8ada39599e744b2a4d079d0afeab61e87e10",
    "report-success-full-json":
        "0db76a8dfcc355a1b1a58bd7a537ebd4ed2cc077178729223d6ba9da42ffa65e",
    "report-success-full-text":
        "4ac028301273040d4db104117d2b4e1f03449237370687498079867920a3156a",
    "report-success-pi_symbols-csv":
        "e5f08e6a64125fe1ab9cdc122a12e70f67f69e420d00fa3a4bc5e045b7677503",
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
    "scope-nonames-json":
        "cd163df5f61482bdf2ba4c18e37fa25a183a6db8bcc5f1118ab5d7a72aac7bfc",
    "scope-nonames-text":
        "587c5868467195922be3f14ed0a5c658ac389d5368980d894097a0c603ea01aa",
    "scope-pie-json":
        "3d2e844d9ef35c9352a0aefc08c0787540924813d2829b3b57c7972468113adc",
    "scope-pie-text":
        "b65b035c29cb11dfd8d18a78d53fdaea650a08e6564249fa17ab8199426fd943",
    "scope-rel-json":
        "8464d8c05d5348fa71d4531779473e10332df05c9148f650792928c4154ad093",
    "scope-rel-text":
        "57d1f7360fb456bfdf0b7ca89a0870a7ca5f909591ae895c56e22cb817bccbb1",
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
    "size-nonames-csv":
        "5b3fc56c5bbd62e8230083c44fa9ea8fc2b073d12454a10639ba61e0a9b0d9ca",
    "size-nonames-json":
        "ea4f44ea2a40d331e6b4094a97ba3fa71a1679016a5712e4684e47b8f89fccda",
    "size-nonames-text":
        "e40646e6529890c64a283272202aa2b6ce1d219c91354ee5afca2136155fead6",
    "size-pie-csv":
        "9d56e4e0127b900b5d0091b30b5505d83908166439785f1a094c7434578ea078",
    "size-pie-json":
        "6f39509c7de39bdff645d59bdb1054c6faff9f3a3d8aeee96eb922a3ce5f8cd5",
    "size-pie-text":
        "3377f15c21248888d941cf81c5c35d9f4ac55d3b3a3beca98aebe7d4a4db312a",
    "size-rel-csv":
        "244c7dabde4fdf8edc7538d70b1ad245957938b3007007f29ea1751eab9857d7",
    "size-rel-json":
        "127bf18849f9133d38bbb12a190ea7a2f05e9a6e8114073255dfe84136484ead",
    "size-rel-text":
        "1097023ed85196fdc2dfdac8bc81caf15a1d9d8bdceec5bdb374c3dc1f928609",
}
