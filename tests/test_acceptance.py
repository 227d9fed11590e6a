"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines on the terminal.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from rweval.dtree import Internal, Leaf, Task, predict
from rweval.elf import BUCKET_UNMAPPED, ElfFile, parse_elf, size_profile
from rweval.features import FeatureVector, Label, extract_features
from rweval.harness import (
    ManifestEntry,
    Results,
    ToolAdapter,
    TriState,
    VariantConfig,
    null_function_test,
    run_campaign,
    write_records_csv,
    RunRecord,
)
from rweval.report import comparative_average, make_cohort, success_table
from rweval.scope import builtin_models, scope_binary
from rweval.training import (FeatureMatrix, MatrixRow, accuracy, select_features,
                             split_train_test, train_cart)

from elfbuild import Sec, build_elf
from oracles import correlation_ranking, readelf_facts, tally_success
from transliterations import TRANSLITERATIONS


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


MODELS = {m.tool_name: m for m in builtin_models()}


def test_criterion_1_baked_in_model_fidelity():
    with criterion(1, "baked-in model fidelity, exhaustive, <1s"):
        start = time.perf_counter()
        combos_checked = 0
        for tool, (translit, params) in TRANSLITERATIONS.items():
            model = MODELS[tool]
            for combo in itertools.product((False, True), repeat=len(params)):
                expected = translit(*combo)
                got = predict(model, FeatureVector(dict(zip(params, combo))))
                assert got.leaf_counts == (expected["FAIL"], expected["PASS"])
                want = Label.PASS if expected["PASS"] > expected["FAIL"] else Label.FAIL
                assert got.outcome is want
                combos_checked += 1
        elapsed = time.perf_counter() - start
        assert combos_checked == 32 + 4 * 128
        assert elapsed < 1.0, f"exhaustive check took {elapsed:.3f}s"


def test_criterion_2_spot_leaves():
    with criterion(2, "published spot leaves reproduce exactly"):
        p = predict(
            MODELS["ddisasm"],
            FeatureVector({"note.abi_tag": False, "interp": True, "rela.plt": True}),
        )
        assert (p.outcome, p.leaf_counts) == (Label.PASS, (47.0, 910.0))

        p = predict(MODELS["retrowrite"], FeatureVector({"note.gnu.build_id": False}))
        assert (p.outcome, p.leaf_counts) == (Label.FAIL, (1166.0, 0.0))

        p = predict(MODELS["mctoll"], FeatureVector({"note.abi_tag": True}))
        assert (p.outcome, p.leaf_counts) == (Label.FAIL, (1672.0, 0.0))


def test_criterion_3_readelf_parity(hello_variants):
    with criterion(3, "readelf parity on compiled variants, <5s"):
        assert len(hello_variants) >= 8
        start = time.perf_counter()
        for variant in hello_variants:
            fv = extract_features(parse_elf(variant.path.read_bytes()))
            facts = readelf_facts(str(variant.path))
            assert fv.get("pi") is (facts.elf_type == "DYN"), variant.name
            assert fv.get("pi") is variant.pie, variant.name
            assert fv.get("strip") is (".symtab" not in facts.section_names)
            assert fv.get("strip") is variant.stripped, variant.name
            from rweval.features import canonicalize

            oracle_sections = {canonicalize(n) for n in facts.section_names}
            assert set(fv.features) - {"pi", "strip"} == oracle_sections - {"pi", "strip"}
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"parity checks took {elapsed:.3f}s"


def test_criterion_4_size_conservation(hello_variants):
    with criterion(4, "size conservation and trailing-byte attribution"):
        images = [v.path.read_bytes() for v in hello_variants]
        images.append(build_elf([Sec(".text", b"\x90" * 10, gap_before=3)]))
        images.append(build_elf([Sec(".bss", b"\x00" * 50, sh_type=8)]))
        for data in images:
            profile = size_profile(parse_elf(data))
            assert sum(profile.values()) == len(data)
            grown = data + bytes(137)
            p1 = size_profile(parse_elf(grown))
            assert p1[BUCKET_UNMAPPED] == profile[BUCKET_UNMAPPED] + 137
            for name, value in profile.items():
                if name != BUCKET_UNMAPPED:
                    assert p1[name] == value


def _matrix(names, rows):
    return FeatureMatrix(
        tuple(names),
        tuple(MatrixRow(f"b{i}", tuple(v), lab) for i, (v, lab) in enumerate(rows)),
    )


def test_criterion_5_training_pipeline():
    with criterion(5, "training pipeline properties"):
        # (a) perfectly separable -> 100.00% training accuracy
        rng = random.Random(0)
        rows = [
            ((sep, rng.random() < 0.5), Label.PASS if sep else Label.FAIL)
            for sep in (rng.random() < 0.5 for _ in range(40))
        ]
        m = _matrix(["sep", "noise"], rows)
        model = train_cart(m)
        assert accuracy(model, m).percent == 100.00

        # (b) XOR with max_depth=2 -> four pure leaves, exhaustive oracle
        xor_rows = [
            ((a, b), Label.PASS if a ^ b else Label.FAIL)
            for a, b in itertools.product((False, True), repeat=2)
        ]
        xm = _matrix(["f1", "f2"], xor_rows)
        xor_model = train_cart(xm, max_depth=2, min_leaf=1)
        leaves = []

        def collect(node, depth):
            if isinstance(node, Leaf):
                leaves.append((node, depth))
            else:
                assert isinstance(node, Internal)
                collect(node.when_false, depth + 1)
                collect(node.when_true, depth + 1)

        collect(xor_model.root, 0)
        assert len(leaves) == 4
        assert all(n.fail_count == 0 or n.pass_count == 0 for n, _ in leaves)
        for a, b in itertools.product((False, True), repeat=2):
            want = Label.PASS if a ^ b else Label.FAIL
            assert predict(xor_model, FeatureVector({"f1": a, "f2": b})).outcome is want

        # (c) 70/30 split sizes and seed determinism
        ten = _matrix(["f"], [((i % 2 == 0,), Label.PASS) for i in range(10)])
        train, test = split_train_test(ten, 0.7, seed=3)
        assert (len(train.rows), len(test.rows)) == (7, 3)
        assert split_train_test(ten, 0.7, seed=3) == (train, test)

        # (d) label-equal column ranked first, against the correlation oracle
        rowsd = []
        rngd = random.Random(9)
        for _ in range(50):
            label = rngd.random() < 0.5
            rowsd.append(
                ((label, rngd.random() < 0.5, rngd.random() < 0.5),
                 Label.PASS if label else Label.FAIL)
            )
        md = _matrix(["target", "noise1", "noise2"], rowsd)
        ranked = select_features(md, k=3)
        columns = {n: md.column(n) for n in md.feature_names}
        labels = [r.label is Label.PASS for r in md.rows]
        assert ranked[0] == "target" == correlation_ranking(columns, labels)[0]

        # published accuracies are stored metadata, not reproduced at desk scale
        stored = {n: m.reported_accuracy for n, m in MODELS.items()}
        assert stored == {"ddisasm": 81.47, "e9patch": 86.06, "mctoll": 98.80,
                          "retrowrite": 93.02, "zipr": 79.98}


def _campaign_fixtures(hello_variants):
    manifest = [
        ManifestEntry(
            "bin-a",
            str(hello_variants[0].path),
            VariantConfig("hello", "gcc", "O1", "pie", "present", "u22"),
        ),
        ManifestEntry(
            "bin-b",
            str(hello_variants[1].path),
            VariantConfig("hello", "gcc", "O1", "pie", "stripped", "u22"),
        ),
    ]
    adapters = [
        ToolAdapter("copytool", "cp {input} {output}",
                    "cp {input} {output}"),
        ToolAdapter("failtool", 'sh -c "exit 1" r {input} {output}',
                    'sh -c "exit 1" r {input} {output}'),
    ]
    return manifest, adapters


def test_criterion_6_harness_determinism(hello_variants, tmp_path):
    with criterion(6, "harness determinism, monotonicity, differential null test"):
        manifest, adapters = _campaign_fixtures(hello_variants)
        seq = run_campaign(manifest, adapters, parallelism=1, timeout_s=60)
        par = run_campaign(manifest, adapters, parallelism=4, timeout_s=60)
        assert len(seq) == len(par) == 8

        def multiset(records):
            return sorted(
                (r.binary_id, r.tool_name, r.task.value, r.ir_ok.value,
                 r.exe_ok, r.func_ok.value, r.output_size_bytes)
                for r in records
            )

        assert multiset(seq) == multiset(par)
        for r in seq + par:
            if r.func_ok is TriState.YES:
                assert r.exe_ok
            if r.exe_ok:
                assert r.ir_ok in (TriState.YES, TriState.NA)

        original = tmp_path / "orig"
        original.write_text("#!/bin/sh\nexit 0\n")
        original.chmod(0o755)
        clone = tmp_path / "clone"
        clone.write_bytes(original.read_bytes())
        clone.chmod(0o755)
        mismatch = tmp_path / "mismatch"
        mismatch.write_text("#!/bin/sh\nexit 1\n")
        mismatch.chmod(0o755)
        assert null_function_test(str(original), str(clone)).result is TriState.YES
        assert null_function_test(str(original), str(mismatch)).result is TriState.NO


def _synthetic_20_records():
    rng = random.Random(20)
    records = []
    for i in range(5):
        for tool in ("alpha", "beta"):
            for task in (Task.NOP, Task.AFL):
                emits_ir = tool == "alpha"
                ir = (TriState.YES if rng.random() < 0.7 else TriState.NO) if emits_ir else TriState.NA
                exe = ir is not TriState.NO and rng.random() < 0.8
                func = TriState.YES if exe and rng.random() < 0.6 else (
                    TriState.NO if exe else TriState.NA)
                records.append(RunRecord(
                    binary_id=f"bin{i}",
                    variant=VariantConfig("p", "gcc", "O2", "pie", "present", "u20"),
                    tool_name=tool,
                    task=task,
                    ir_ok=ir,
                    exe_ok=exe,
                    func_ok=func,
                    runtime_seconds=rng.uniform(0.5, 20.0),
                    memory_kbytes=rng.randrange(64, 4096),
                    output_size_bytes=rng.randrange(500, 5000) if exe else None,
                ))
    assert len(records) == 20
    return records


def test_criterion_7_report_math(tmp_path):
    with criterion(7, "report math vs independent tally and fixtures"):
        records = _synthetic_20_records()
        loaded = Results.from_records(records)
        cohort = make_cohort("full", {}, loaded)
        table = success_table(loaded, cohort)
        results = tmp_path / "results.csv"
        write_records_csv(records, str(results))
        oracle = tally_success(results.read_text(encoding="utf-8"), {})
        assert cohort.denominator == oracle["__denominator__"]
        for tool in table.tool_order:
            for col in ("IR", "EXE", "NullFunc", "AFL_EXE", "AFL_Func"):
                cell = table.cells[(tool, col)]
                want = oracle[tool][col]
                if want is None:
                    assert cell.count is None
                else:
                    assert cell.count == want[0]
                    assert cell.raw_pct == pytest.approx(want[1], abs=1e-9)

        comp = comparative_average(loaded, "runtime_s")
        for a in comp.tools:
            for b in comp.tools:
                x, y = comp.raw_cells[(a, b)], comp.raw_cells[(b, a)]
                assert (x is None) == (y is None)
                if a == b and x is not None:
                    assert x == pytest.approx(100.0)
                if x is not None:
                    assert x * y == pytest.approx(10000.0, abs=0.05)

        fixture = []
        for i, (a_val, b_val) in enumerate([(2.0, 4.0), (4.0, 8.0), (6.0, 12.0)]):
            for tool, val in (("alpha", a_val), ("beta", b_val)):
                fixture.append(RunRecord(
                    binary_id=f"fb{i}", variant=None, tool_name=tool,
                    task=Task.NOP, ir_ok=TriState.NA, exe_ok=True,
                    func_ok=TriState.YES, runtime_seconds=val, memory_kbytes=1,
                ))
        fixture = Results.from_records(fixture)
        assert comparative_average(fixture, "runtime_s").cell("alpha", "beta") == 50.00


def test_criterion_8_end_to_end_scope(hello_variants):
    with criterion(8, "end-to-end scope on stripped no-PIE binary, <100ms"):
        variant = next(v for v in hello_variants if v.stripped and not v.pie)
        data = variant.path.read_bytes()

        start = time.perf_counter()
        fv = extract_features(parse_elf(data))
        predictions = {m.tool_name: predict(m, fv) for m in builtin_models()}
        elapsed = time.perf_counter() - start
        assert elapsed < 0.100, f"scope pipeline took {elapsed * 1000:.1f}ms"
        assert len(predictions) == 5

        # hand-traced listing walks for the extracted feature vector
        for tool, (translit, params) in TRANSLITERATIONS.items():
            expected = translit(*(fv.get(p) for p in params))
            want = Label.PASS if expected["PASS"] > expected["FAIL"] else Label.FAIL
            assert predictions[tool].outcome is want, tool

        with ElfFile(str(variant.path)) as binary:
            report = scope_binary(str(variant.path), parse_elf(binary))
        assert {t: p.outcome for t, p in report.predictions.items()} == {
            t: p.outcome for t, p in predictions.items()
        }
        assert report.predictions["retrowrite"].outcome is Label.FAIL
