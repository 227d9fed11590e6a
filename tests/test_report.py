import csv
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rweval import cli, harness
from rweval.dtree import Task
from rweval.errors import UnknownTool
from rweval.harness import (
    Results,
    RunRecord,
    TriState,
    VariantConfig,
    load_records_csv,
    row_to_record,
    write_records_csv,
)
from rweval.report import (
    COHORT_PRESETS,
    METRICS,
    SUCCESS_COLUMNS,
    comparative_average,
    make_cohort,
    relative_size,
    section_size_table,
    success_table,
)
from rweval.util import round_half_up, trunc_pct

from oracles import per_tool_size_ratios, tally_success


def variant(program="prog", compiler="gcc", pie=True, symbols=True):
    return VariantConfig(
        program=program,
        compiler=compiler,
        flags="fla" if compiler == "ollvm" else "O2",
        relocation="pie" if pie else "nopie",
        symbols="present" if symbols else "stripped",
        os_tag="ubuntu20",
    )


def record(binary_id, tool, task, ir, exe, func, runtime=1.0, mem=100,
           out_size=None, pie=True, symbols=True, compiler="gcc"):
    return RunRecord(
        binary_id=binary_id,
        variant=variant(compiler=compiler, pie=pie, symbols=symbols),
        tool_name=tool,
        task=task,
        ir_ok=ir,
        exe_ok=exe,
        func_ok=func,
        runtime_seconds=runtime,
        memory_kbytes=mem,
        output_size_bytes=out_size,
    )


def synthetic_records(seed=0, n_binaries=5, tools=("alpha", "beta"),
                      compilers=("gcc",)):
    """Randomized but invariant-respecting record set, 20 records at défaults.
    Binary i is built by compilers[i % len(compilers)]."""
    rng = random.Random(seed)
    records = []
    for i in range(n_binaries):
        pie = rng.random() < 0.5
        for tool in tools:
            emits_ir = tool == "alpha"
            for task in (Task.NOP, Task.AFL):
                ir = (
                    TriState.NA
                    if not emits_ir
                    else (TriState.YES if rng.random() < 0.8 else TriState.NO)
                )
                exe = ir is not TriState.NO and rng.random() < 0.8
                func = (
                    TriState.YES
                    if exe and rng.random() < 0.7
                    else (TriState.NO if exe else TriState.NA)
                )
                records.append(
                    record(f"bin{i}", tool, task, ir, exe, func,
                           runtime=rng.uniform(0.5, 9.0),
                           mem=rng.randrange(100, 9000),
                           out_size=rng.randrange(1000, 5000) if exe else None,
                           pie=pie, compiler=compilers[i % len(compilers)])
                )
    return records


def csv_text(records, tmp_path):
    """The results CSV the harness writes for records."""
    path = tmp_path / "results.csv"
    write_records_csv(records, str(path))
    return path.read_text(encoding="utf-8")


def assert_matches_tally(table, oracle):
    for tool in table.tool_order:
        for col in SUCCESS_COLUMNS:
            cell = table.cells[(tool, col)]
            want = oracle[tool][col]
            if want is None:
                assert cell.count is None and cell.raw_pct is None, (tool, col)
            else:
                assert cell.count == want[0], (tool, col)
                assert cell.raw_pct == pytest.approx(want[1]), (tool, col)


class TestSuccessTable:
    def test_matches_independent_tally(self, tmp_path):
        records = synthetic_records(seed=7)
        results = Results.from_records(records)
        cohort = make_cohort("full", {}, results)
        table = success_table(results, cohort)
        oracle = tally_success(csv_text(records, tmp_path), {})
        assert cohort.denominator == oracle["__denominator__"]
        assert_matches_tally(table, oracle)

    def test_cohort_filter_matches_tally(self, tmp_path):
        records = synthetic_records(seed=3, n_binaries=16,
                                    compilers=("gcc", "clang", "icx", "ollvm"))
        text = csv_text(records, tmp_path)
        results = Results.from_records(records)
        for name, predicate in COHORT_PRESETS.items():
            cohort = make_cohort(name, predicate, results)
            table = success_table(results, cohort)
            oracle = tally_success(text, predicate)
            assert cohort.denominator == oracle["__denominator__"] > 0, name
            assert set(table.tool_order) == set(oracle) - {"__denominator__"}
            assert_matches_tally(table, oracle)

    def test_percentage_rounding_convention(self):
        # 3282 of 3344 is the canonical two-decimal case: 98.14
        records = []
        for i in range(3344):
            records.append(
                record(f"b{i}", "alpha", Task.NOP, TriState.YES if i < 3282 else TriState.NO,
                       i < 3282, TriState.NA if i >= 3282 else TriState.YES)
            )
        results = Results.from_records(records)
        cohort = make_cohort("full", {}, results)
        table = success_table(results, cohort)
        cell = table.cells[("alpha", "IR")]
        assert cell.count == 3282
        assert cell.pct == 98.14

    def test_percentages_are_exact_before_they_are_truncated(self):
        # 29 / 100 * 100.0 is 28.999999999999996, which truncates to 28.99
        results = Results.from_records(
            [record(f"b{i}", "alpha", Task.NOP, TriState.NA, i < 29, TriState.NA)
             for i in range(100)])
        table = success_table(results, make_cohort("full", {}, results))
        assert table.cells[("alpha", "EXE")].pct == 29.0
        assert table.to_json_obj()["tools"]["alpha"]["EXE"] == {"count": 29, "pct": 29.0}
        header, row = table.to_rows()
        assert row[header.index("EXE_pct")] == "29.00%"

    def test_zero_successes(self):
        results = Results.from_records(
            [record("b0", "alpha", Task.NOP, TriState.NO, False, TriState.NA)])
        table = success_table(results, make_cohort("full", {}, results))
        cell = table.cells[("alpha", "EXE")]
        assert (cell.count, cell.pct) == (0, 0.0)

    def test_ir_na_for_non_emitting_tool(self):
        results = Results.from_records(
            [record("b0", "direct", Task.NOP, TriState.NA, True, TriState.YES)])
        table = success_table(results, make_cohort("full", {}, results))
        assert table.cells[("direct", "IR")].count is None

    def test_unknown_tool_rejected(self):
        results = Results.from_records(synthetic_records())
        with pytest.raises(UnknownTool):
            success_table(results, make_cohort("full", {}, results), ["nosuch"])

    def test_checkpoint_columns_monotone(self):
        results = Results.from_records(synthetic_records(seed=11, n_binaries=8))
        table = success_table(results, make_cohort("full", {}, results))
        for tool in table.tool_order:
            assert (
                table.cells[(tool, "NullFunc")].count
                <= table.cells[(tool, "EXE")].count
            )
            assert (
                table.cells[(tool, "AFL_Func")].count
                <= table.cells[(tool, "AFL_EXE")].count
            )


class TestNopOnlyResults:
    """A task that no results row holds, as after `run --tasks NOP`, counts
    as failed against the cohort's fixed denominator: AFL_EXE and AFL_Func
    read 0 and 0.00%. IR reads NA only for a tool none of whose NOP rows
    carries an IR verdict."""

    ROWS = ("b0,p,gcc,O0,pie,present,u20,alpha,NOP,yes,1,yes,1.0,100,1000",
            "b1,p,gcc,O0,nopie,present,u20,alpha,NOP,no,0,na,1.0,100,",
            "b0,p,gcc,O0,pie,present,u20,direct,NOP,na,1,no,1.0,100,1000",
            "b1,p,gcc,O0,nopie,present,u20,direct,NOP,na,1,yes,1.0,100,1000")

    def report(self, capsys, tmp_path, *options):
        path = tmp_path / "results.csv"
        path.write_text("\n".join((",".join(harness.RESULTS_COLUMNS), *self.ROWS)) + "\n")
        assert cli.main(["report", str(path), *options]) == 0
        return capsys.readouterr().out

    def test_text(self, capsys, tmp_path):
        assert self.report(capsys, tmp_path).splitlines()[1:] == [
            "alpha   1   1    1         0        0         "
            "50.00%  50.00%   50.00%        0.00%        0.00%",
            "direct  NA  2    1         0        0         "
            "NA      100.00%  50.00%        0.00%        0.00%"]

    def test_json(self, capsys, tmp_path):
        tools = json.loads(self.report(capsys, tmp_path, "--format", "json"))["tools"]
        zero = {"count": 0, "pct": 0.0}
        assert [tools[t]["AFL_EXE"] for t in tools] == [zero, zero]
        assert [tools[t]["AFL_Func"] for t in tools] == [zero, zero]
        assert tools["alpha"]["IR"] == {"count": 1, "pct": 50.0}
        assert tools["direct"]["IR"] == {"count": None, "pct": None}


class TestComparativeAverage:
    def fixture_records(self):
        """alpha at 2, 4, 6 s and beta at 4, 8, 12 s on b0-b2; a list, to
        extend before it goes through Results.from_records."""
        records = []
        for i, (a_val, b_val) in enumerate([(2, 4), (4, 8), (6, 12)]):
            records.append(record(f"b{i}", "alpha", Task.NOP, TriState.NA, True,
                                  TriState.YES, runtime=float(a_val)))
            records.append(record(f"b{i}", "beta", Task.NOP, TriState.NA, True,
                                  TriState.YES, runtime=float(b_val)))
        return records

    def test_unknown_tool_rejected(self):
        records = self.fixture_records()
        records.append(record("b0", "gamma", Task.NOP, TriState.NA, False, TriState.NA))
        results = Results.from_records(records)
        with pytest.raises(UnknownTool):
            comparative_average(results, tool_order=["alpha", "nosuch"])
        # a tool with records but no successful run is known: its cells are NA
        table = comparative_average(results, tool_order=["alpha", "gamma"])
        assert table.cell("alpha", "gamma") is None

    def test_unknown_metric_rejected(self):
        results = Results.from_records(self.fixture_records())
        with pytest.raises(ValueError, match="^metric must be one of "):
            comparative_average(results, metric="x")

    def test_2_4_6_versus_4_8_12_is_50_percent(self):
        table = comparative_average(Results.from_records(self.fixture_records()),
                                    "runtime_s")
        assert table.cell("alpha", "beta") == 50.00
        assert table.cell("beta", "alpha") == 200.00

    def test_diagonal_is_100(self):
        table = comparative_average(Results.from_records(self.fixture_records()),
                                    "runtime_s")
        assert table.cell("alpha", "alpha") == 100.0
        assert table.cell("beta", "beta") == 100.0

    def test_empty_intersection_is_na_and_symmetric(self):
        records = [
            record("b0", "alpha", Task.NOP, TriState.NA, True, TriState.YES),
            record("b1", "beta", Task.NOP, TriState.NA, True, TriState.YES),
        ]
        table = comparative_average(Results.from_records(records), "runtime_s")
        assert table.cell("alpha", "beta") is None
        assert table.cell("beta", "alpha") is None

    def test_reciprocal_property_within_tolerance(self):
        rng = random.Random(5)
        records = []
        for i in range(12):
            for tool in ("alpha", "beta", "gamma"):
                if rng.random() < 0.2:
                    continue
                records.append(record(f"b{i}", tool, Task.NOP, TriState.NA, True,
                                      TriState.YES, runtime=rng.uniform(0.1, 50)))
        table = comparative_average(Results.from_records(records), "runtime_s")
        for a in table.tools:
            for b in table.tools:
                x, y = table.raw_cells[(a, b)], table.raw_cells[(b, a)]
                assert (x is None) == (y is None)
                if x is not None:
                    assert x * y == pytest.approx(10000.0, abs=0.05)

    def test_only_successful_runs_count(self):
        records = self.fixture_records() + [
            record("b9", "alpha", Task.NOP, TriState.NA, False, TriState.NA,
                   runtime=999.0),
            record("b9", "beta", Task.NOP, TriState.NA, True, TriState.YES,
                   runtime=999.0),
        ]
        table = comparative_average(Results.from_records(records), "runtime_s")
        assert table.cell("alpha", "beta") == 50.00

    def test_mean_of_ratios_mode(self):
        records = []
        for i, (a_val, b_val) in enumerate([(1, 2), (30, 40)]):
            records.append(record(f"b{i}", "alpha", Task.NOP, TriState.NA, True,
                                  TriState.YES, runtime=float(a_val)))
            records.append(record(f"b{i}", "beta", Task.NOP, TriState.NA, True,
                                  TriState.YES, runtime=float(b_val)))
        results = Results.from_records(records)
        ratio_of_means = comparative_average(results, "runtime_s")
        mean_of_ratios = comparative_average(results, "runtime_s", mean_of_ratios=True)
        assert ratio_of_means.raw_cells[("alpha", "beta")] == pytest.approx(
            (31 / 42) * 100
        )
        assert mean_of_ratios.raw_cells[("alpha", "beta")] == pytest.approx(62.5)

    def test_memory_metric(self):
        records = [
            record("b0", "alpha", Task.NOP, TriState.NA, True, TriState.YES, mem=500),
            record("b0", "beta", Task.NOP, TriState.NA, True, TriState.YES, mem=1000),
        ]
        table = comparative_average(Results.from_records(records), "mem_kb")
        assert table.cell("alpha", "beta") == 50.0


def plain_comparative(csv_text, metric, mean_of_ratios):
    """Comparative cells recomputed straight off the results CSV: per pair,
    the sorted shared binaries of NOP runs that passed EXE."""
    per_tool = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        if row["task"] == "NOP" and row["exe"] == "1" and row[metric] != "":
            per_tool.setdefault(row["tool"], {})[row["binary_id"]] = float(row[metric])
    cells = {}
    for a in sorted(per_tool):
        for b in sorted(per_tool):
            shared = sorted(set(per_tool[a]) & set(per_tool[b]))
            xs = [per_tool[a][s] for s in shared]
            ys = [per_tool[b][s] for s in shared]
            if mean_of_ratios:
                ratios = [x / y for x, y in zip(xs, ys) if y != 0]
                cells[(a, b)] = sum(ratios) / len(ratios) * 100.0 if ratios else None
            else:
                cells[(a, b)] = (sum(xs) / len(xs) / (sum(ys) / len(ys)) * 100.0
                                 if xs and sum(ys) else None)
    return cells


class TestTablesFromLoadedResults:
    """Every table built from load_records_csv's columns, read in chunks
    smaller than the file, equals a recomputation straight off the CSV."""

    @pytest.fixture
    def loaded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_ROWS", 7)
        records = synthetic_records(seed=5, n_binaries=24, tools=("alpha", "beta", "gamma"),
                                    compilers=("gcc", "clang", "icx", "ollvm"))
        text = csv_text(records, tmp_path)
        return records, text, load_records_csv(str(tmp_path / "results.csv"))

    @pytest.mark.parametrize("name", sorted(COHORT_PRESETS))
    def test_success_table_matches_tally(self, loaded, name):
        records, text, results = loaded
        predicate = COHORT_PRESETS[name]
        cohort = make_cohort(name, predicate, results)
        table = success_table(results, cohort)
        oracle = tally_success(text, predicate)
        assert cohort.denominator == oracle["__denominator__"] > 0
        assert table.tool_order == ("alpha", "beta", "gamma")
        assert_matches_tally(table, oracle)
        # a list of records goes through Results.from_records to the same table
        from_list = Results.from_records(records)
        assert success_table(from_list, make_cohort(name, predicate, from_list)) == table

    @pytest.mark.parametrize("mean_of_ratios", [False, True])
    @pytest.mark.parametrize("metric", METRICS)
    def test_comparative_matches_plain_recomputation(self, loaded, metric, mean_of_ratios):
        _, text, results = loaded
        table = comparative_average(results, metric, mean_of_ratios=mean_of_ratios)
        want = plain_comparative(text, metric, mean_of_ratios)
        assert table.tools == ("alpha", "beta", "gamma")
        assert table.raw_cells == want  # same sums in the same order: exact
        # a list of the file's records goes through Results.from_records to the same table
        from_list = Results.from_records(map(row_to_record, csv.DictReader(io.StringIO(text))))
        assert comparative_average(from_list, metric, mean_of_ratios=mean_of_ratios) == table


class TestRelativeSize:
    def test_identity(self):
        assert relative_size([("t", 100, 100), ("t", 5000, 5000)]) == {"t": 100.0}

    def test_single_large_ratio_formats_exactly(self):
        (value,) = relative_size([("multiverse", 10000, 87071)]).values()
        assert trunc_pct(value) == 870.71

    def test_mean_of_two_ratios(self):
        assert relative_size([("t", 100, 50), ("t", 100, 150)]) == {"t": 100.0}

    def test_zero_original_skipped(self):
        assert relative_size([("t", 0, 50)]) == {"t": None}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["t2", "t0", "t1", ""]),
        st.one_of(st.just(0), st.integers(0, 1 << 20), st.integers(0, 1 << 62)),
        st.one_of(st.just(0), st.integers(0, 1 << 20), st.integers(0, 1 << 62)))))
    def test_equals_the_per_tool_loop(self, pairs):
        got = relative_size(iter(pairs))
        want = per_tool_size_ratios(pairs)
        assert list(got.items()) == list(want.items())  # key order too


class TestSectionSizeTable:
    def test_all_identity(self):
        pairs = [
            ("t", {".text": 10}, {".text": 10}),
            ("t", {".text": 99}, {".text": 99}),
        ]
        table = section_size_table(pairs)
        assert table.raw_cells[(".text", "t")] == 100.0

    def test_bucket_absent_from_rewrites_is_na(self):
        pairs = [
            ("zipr", {".text": 10, ".got.plt": 4},
             {".text": 10}),
        ]
        table = section_size_table(pairs)
        assert table.raw_cells[(".got.plt", "zipr")] is None

    def test_mixed_deltas_average(self):
        pairs = [
            ("t", {".data": 100}, {".data": 50}),
            ("t", {".data": 100}, {".data": 150}),
        ]
        assert section_size_table(pairs).raw_cells[(".data", "t")] == 100.0

    def test_na_pairs_skipped_in_mean(self):
        pairs = [
            ("t", {".data": 0}, {".data": 50}),
            ("t", {".data": 100}, {".data": 150}),
        ]
        assert section_size_table(pairs).raw_cells[(".data", "t")] == 150.0

    def test_named_sections_sort_before_bracketed(self):
        pairs = [
            ("t", {"[Unmapped]": 5, ".text": 10},
             {"[Unmapped]": 5, ".text": 10}),
        ]
        assert section_size_table(pairs).buckets == (".text", "[Unmapped]")


class TestCohorts:
    def test_presets_cover_paper_cohorts(self):
        assert set(COHORT_PRESETS) == {"full", "pi_symbols", "gcc", "clang", "icx",
                                       "ollvm"}

    def test_denominator_counts_matching_binaries(self):
        records = [
            record("b0", "alpha", Task.NOP, TriState.NA, True, TriState.YES, pie=True),
            record("b1", "alpha", Task.NOP, TriState.NA, True, TriState.YES, pie=False),
        ]
        cohort = make_cohort("pi", {"relocation": "pie"}, Results.from_records(records))
        assert cohort.denominator == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            make_cohort("x", {"architecture": "x86"}, Results())


class TestRounding:
    def test_half_up_at_two_decimals(self):
        assert round_half_up(33.335) == 33.34
        assert round_half_up(33.334) == 33.33
        assert round_half_up(0.125) == 0.13
        assert round_half_up(98.144999) == 98.14

    def test_tables_truncate_like_the_published_ones(self):
        # cells where truncation and half-up disagree, all verifiable
        assert trunc_pct(3282 / 3344 * 100) == 98.14
        assert trunc_pct(2972 / 3344 * 100) == 88.87
        assert trunc_pct(2620 / 3344 * 100) == 78.34
        assert trunc_pct(30 / 3344 * 100) == 0.89
