import argparse
import csv
import io
import json
import os
import resource
import subprocess
import sys

import pytest

import rweval
from rweval import cli, harness
from rweval.cli import main

from elfbuild import Sec, build_elf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def elf_file(tmp_path):
    p = tmp_path / "sample.elf"
    p.write_bytes(build_elf([Sec(".text", b"\x90" * 16, gap_before=4)]))
    return str(p)


@pytest.fixture
def text_file(tmp_path):
    p = tmp_path / "notes.txt"
    p.write_text("these are notes, not an ELF\n")
    return str(p)


class TestScopeCommand:
    def test_table_with_five_predictions(self, capsys, elf_file):
        code, out, _ = run_cli(capsys, "scope", elf_file)
        assert code == 0
        for tool in ("ddisasm", "e9patch", "mctoll", "retrowrite", "zipr"):
            assert tool in out
        assert "no model" in out

    def test_non_elf_exits_2(self, capsys, text_file):
        code, _, err = run_cli(capsys, "scope", text_file)
        assert code == 2
        assert "ELF" in err or "magic" in err

    def test_json_format_parses_and_matches_schema(self, capsys, elf_file):
        code, out, _ = run_cli(capsys, "scope", elf_file, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"binary", "features", "predictions"}
        assert len(obj["predictions"]) == 5
        for cell in obj["predictions"].values():
            assert set(cell) == {"outcome", "confidence", "fail", "pass"}

    def test_custom_model_dir(self, capsys, elf_file, tmp_path):
        mdir = tmp_path / "models"
        mdir.mkdir()
        (mdir / "custom.json").write_text(json.dumps({
            "tool": "custom", "task": "AFL", "features": ["pi"],
            "accuracy": None,
            "root": {"feature": "pi", "false": {"fail": 1, "pass": 0},
                     "true": {"fail": 0, "pass": 1}},
        }))
        code, out, _ = run_cli(capsys, "scope", elf_file, "--models", str(mdir),
                               "--format", "json")
        assert code == 0
        assert list(json.loads(out)["predictions"]) == ["custom"]

    @staticmethod
    def write_leaf_model(path, tool, passed):
        path.write_text(json.dumps({
            "tool": tool, "task": "AFL", "features": [], "accuracy": None,
            "root": {"fail": 0 if passed else 1, "pass": 1 if passed else 0}}))

    def test_no_model_line_omits_tools_with_a_verdict(self, capsys, elf_file, tmp_path):
        mdir = tmp_path / "models"
        mdir.mkdir()
        self.write_leaf_model(mdir / "egalito.json", "egalito", passed=True)
        code, out, _ = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert code == 0
        assert out.splitlines()[2:] == [
            "egalito      PASS     1.000",
            "no model: multiverse, reopt, revng, uroboros"]
        for tool in ("multiverse", "reopt", "revng", "uroboros"):
            self.write_leaf_model(mdir / f"{tool}.json", tool, passed=False)
        code, out, _ = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert code == 0 and "no model" not in out

    def test_two_models_for_one_tool_exit_3(self, capsys, elf_file, tmp_path):
        mdir = tmp_path / "models"
        mdir.mkdir()
        self.write_leaf_model(mdir / "a.json", "egalito", passed=True)
        self.write_leaf_model(mdir / "b.json", "egalito", passed=False)
        code, out, err = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert (code, out) == (3, "")
        assert "two models for tool 'egalito': a.json and b.json" in err

    @pytest.mark.parametrize("field,value", [
        ("fail", "NaN"), ("pass", "Infinity"), ("accuracy", "NaN"), ("accuracy", "true"),
        pytest.param("fail", "1" + "0" * 400, id="fail-huge_int")])
    def test_bad_model_number_exits_3(self, capsys, elf_file, tmp_path, field, value):
        mdir = tmp_path / "models"
        mdir.mkdir()
        model = {"tool": "nanny", "task": "AFL", "features": [], "accuracy": None,
                 "root": {"fail": 1, "pass": 0}}
        (model if field == "accuracy" else model["root"])[field] = "VALUE"
        (mdir / "nanny.json").write_text(json.dumps(model).replace('"VALUE"', value))
        code, out, err = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert (code, out) == (3, "")
        assert "cannot load models" in err

    def test_model_file_not_utf8_exits_3(self, capsys, elf_file, tmp_path):
        mdir = tmp_path / "models"
        mdir.mkdir()
        (mdir / "latin1.json").write_bytes(b'{"tool": "caf\xe9"}')
        code, out, err = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert (code, out) == (3, "")
        assert "cannot load models" in err

    def test_bad_model_dir_exits_3(self, capsys, elf_file, tmp_path):
        code, _, _ = run_cli(capsys, "scope", elf_file, "--models",
                             str(tmp_path / "nothing-here"))
        assert code == 3

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "scope", str(tmp_path / "absent"))
        assert code == 2

    def test_unknown_flag_exits_3(self, capsys, elf_file):
        code, _, _ = run_cli(capsys, "scope", elf_file, "--bogus")
        assert code == 3


class TestFeaturesCommand:
    def test_json_with_pi_and_strip(self, capsys, elf_file):
        code, out, _ = run_cli(capsys, "features", elf_file)
        assert code == 0
        obj = json.loads(out)
        assert "pi" in obj and "strip" in obj
        assert obj["text"] is True

    def test_non_elf_exits_2(self, capsys, text_file):
        assert run_cli(capsys, "features", text_file)[0] == 2


class TestSizeCommand:
    def test_profile_sums_to_file_size(self, capsys, elf_file):
        code, out, _ = run_cli(capsys, "size", elf_file, "--format", "json")
        assert code == 0
        import os

        assert sum(json.loads(out).values()) == os.path.getsize(elf_file)

    def test_identical_paths_all_100(self, capsys, elf_file):
        code, out, _ = run_cli(capsys, "size", elf_file, elf_file,
                               "--format", "json")
        assert code == 0
        values = json.loads(out).values()
        assert values and all(v == 100.0 for v in values)

    def test_second_path_non_elf_exits_2(self, capsys, elf_file, text_file):
        assert run_cli(capsys, "size", elf_file, text_file)[0] == 2


def _rchar() -> int:
    with open("/proc/self/io", "rb") as f:
        for line in f:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise RuntimeError("no rchar in /proc/self/io")


class TestInputFiles:
    """Every command that opens an input binary reads only its headers, and
    refuses anything but a regular file."""

    @pytest.mark.parametrize("kind", ["fifo", "dev_zero", "directory"])
    @pytest.mark.parametrize("command", ["scope", "features", "size"])
    def test_non_regular_file_exits_2(self, tmp_path, command, kind):
        if kind == "fifo":
            path = str(tmp_path / "fifo")
            os.mkfifo(path)
        elif kind == "directory":
            path = str(tmp_path)
        else:
            path = "/dev/zero"

        def cap_memory():  # a reader that slurps /dev/zero fails here, not the host
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        src = os.path.dirname(os.path.dirname(rweval.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rweval.cli", command, path],
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_memory,
            capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"rweval: cannot read {path!r}: not a regular file\n"

    def test_scope_and_size_of_a_large_file_read_only_its_headers(self, capsys, tmp_path):
        path = tmp_path / "large.elf"
        path.write_bytes(build_elf([Sec(".text", b"\x90" * 64)]))
        os.truncate(path, 64 << 20)  # a sparse tail of unmapped bytes
        before = _rchar()
        assert run_cli(capsys, "scope", str(path))[0] == 0
        assert run_cli(capsys, "size", str(path))[0] == 0
        assert _rchar() - before < 1 << 20


@pytest.fixture
def campaign_files(tmp_path):
    bins = []
    for i in range(2):
        p = tmp_path / f"bin{i}.elf"
        p.write_bytes(build_elf([Sec(".text", b"\x90" * (16 + i))]))
        bins.append(p)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"id": f"bin{i}", "path": str(p), "program": "p", "compiler": "gcc",
         "flags": "O0", "relocation": "pie", "symbols": "present", "os": "u20"}
        for i, p in enumerate(bins)
    ]))
    adapters = tmp_path / "adapters.json"
    adapters.write_text(json.dumps([
        {"tool_name": "copytool", "nop_command": "cp {input} {output}",
         "afl_command": "cp {input} {output}"},
        {"tool_name": "failtool",
         "nop_command": 'sh -c "exit 1" r {input} {output}',
         "afl_command": 'sh -c "exit 1" r {input} {output}'},
    ]))
    return manifest, adapters


def read_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


class TestRunCommand:
    def test_2x2x2_yields_8_rows(self, capsys, campaign_files, tmp_path):
        manifest, adapters = campaign_files
        out_csv = tmp_path / "results.csv"
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest),
                             "--adapters", str(adapters), "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert len(rows) == 9  # header + 8
        assert rows[0][0] == "binary_id"

    def test_rerun_identical_minus_timing(self, capsys, campaign_files, tmp_path):
        manifest, adapters = campaign_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csvv"
        run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                str(adapters), "--out", str(a), "--parallelism", "1")
        run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                str(adapters), "--out", str(b), "--parallelism", "4")

        def strip_timing(path):
            return [r[:12] + r[14:] for r in read_rows(path)]

        assert strip_timing(a) == strip_timing(b)

    def test_missing_adapter_file_exits_3(self, capsys, campaign_files, tmp_path):
        manifest, _ = campaign_files
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest),
                             "--adapters", str(tmp_path / "none.json"),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 3

    def test_manifest_id_outside_workroot_exits_2(self, capsys, campaign_files, tmp_path):
        manifest, adapters = campaign_files
        entries = json.loads(manifest.read_text())
        entries[0]["id"] = "../escape"
        manifest.write_text(json.dumps(entries))
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters), "--out", str(tmp_path / "o.csv"),
                               "--keep-outputs", str(tmp_path / "kept"))
        assert code == 2 and "../escape" in err
        assert not (tmp_path / "escape__copytool__NOP").exists()

    def test_job_name_collision_is_rejected(self, capsys, campaign_files, tmp_path):
        # ("a__b", "c") and ("a", "b__c") would share the job name a__b__c__NOP
        manifest, adapters = campaign_files
        entries = json.loads(manifest.read_text())
        entries[0]["id"], entries[1]["id"] = "a__b", "a"
        manifest.write_text(json.dumps(entries))
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest),
                             "--adapters", str(adapters), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        entries[0]["id"] = "b"
        manifest.write_text(json.dumps(entries))
        tools = json.loads(adapters.read_text())
        tools[0]["tool_name"] = "b__c"
        adapters.write_text(json.dumps(tools))
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest),
                             "--adapters", str(adapters), "--out", str(tmp_path / "o.csv"))
        assert code == 3

    @pytest.mark.parametrize("flag,value", [
        ("--parallelism", "0"), ("--timeout-s", "0"), ("--timeout-s", "-1"),
        ("--afl-driver", "x 'unclosed {target}"), ("--afl-driver", ""),
    ])
    def test_bad_settings_exit_3_before_anything_runs(self, capsys, campaign_files,
                                                      tmp_path, flag, value):
        manifest, adapters = campaign_files
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters), "--out", str(out_csv),
                               flag, value)
        assert code == 3 and "bad run settings" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("repeated", ["tool_name", "task"])
    def test_shared_job_names_exit_3_before_anything_runs(self, capsys, campaign_files,
                                                          tmp_path, repeated):
        # a repeated tool or task would run two jobs in one workdir
        manifest, adapters = campaign_files
        tasks = "NOP"
        if repeated == "tool_name":
            tools = json.loads(adapters.read_text())
            tools[1]["tool_name"] = tools[0]["tool_name"]
            adapters.write_text(json.dumps(tools))
        else:
            tasks = "NOP,NOP"
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters), "--out", str(out_csv),
                               "--tasks", tasks)
        assert code == 3 and ("duplicate" in err or "repeated" in err)
        assert not out_csv.exists()

    def test_unusable_keep_outputs_exits_2_before_anything_runs(self, capsys,
                                                                campaign_files, tmp_path):
        manifest, adapters = campaign_files
        afile = tmp_path / "afile"
        afile.write_text("")
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters), "--out", str(out_csv),
                               "--keep-outputs", str(afile / "sub"))
        assert code == 2 and f"cannot write {str(afile / 'sub')!r}" in err
        assert not out_csv.exists()

    def test_unwritable_out_exits_2(self, capsys, campaign_files, tmp_path):
        manifest, adapters = campaign_files
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters),
                               "--out", str(tmp_path / "missing" / "o.csv"))
        assert code == 2 and "cannot write" in err

    @pytest.mark.parametrize("spec", ["", ",", " , "])
    def test_tasks_without_a_name_exits_3(self, capsys, campaign_files, tmp_path, spec):
        manifest, adapters = campaign_files
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(capsys, "run", "--manifest", str(manifest),
                                 "--adapters", str(adapters), "--out", str(out_csv),
                                 "--tasks", spec)
        assert (code, out) == (3, "")
        assert "--tasks" in err and "no task names" in err
        assert not out_csv.exists()

    def test_missing_manifest_exits_2(self, capsys, campaign_files, tmp_path):
        _, adapters = campaign_files
        code, _, _ = run_cli(capsys, "run", "--manifest", str(tmp_path / "no.json"),
                             "--adapters", str(adapters),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 2


@pytest.fixture
def trainable_corpus(tmp_path):
    """12 synthetic binaries; success is exactly 'has a .marker section'."""
    manifest_entries = []
    rows = [harness_header()]
    for i in range(12):
        has_marker = i % 2 == 0
        sections = [Sec(".text", b"\x90" * 8)]
        if has_marker:
            sections.append(Sec(".marker", b"\x01" * 4))
        p = tmp_path / f"bin{i}.elf"
        p.write_bytes(build_elf(sections))
        manifest_entries.append(
            {"id": f"bin{i}", "path": str(p), "program": "p", "compiler": "gcc",
             "flags": "O0", "relocation": "pie", "symbols": "stripped", "os": "u20"}
        )
        rows.append(
            [f"bin{i}", "p", "gcc", "O0", "pie", "stripped", "u20", "toolx",
             "AFL", "na", "1" if has_marker else "0",
             "yes" if has_marker else "no", "1.0", "100", ""]
        )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(manifest_entries))
    results = tmp_path / "results.csv"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    results.write_text(buf.getvalue())
    return manifest, results


def harness_header():
    return ["binary_id", "program", "compiler", "flags", "relocation", "symbols",
            "os", "tool", "task", "ir", "exe", "func", "runtime_s", "mem_kb",
            "out_size_bytes"]


class TestTrainCommand:
    def test_separable_corpus_reports_100(self, capsys, trainable_corpus, tmp_path):
        manifest, results = trainable_corpus
        out_model = tmp_path / "model.json"
        code, out, _ = run_cli(capsys, "train", "--results", str(results),
                               "--manifest", str(manifest), "--tool", "toolx",
                               "--task", "AFL", "--out-model", str(out_model))
        assert code == 0
        assert "test accuracy: 100.00%" in out
        obj = json.loads(out_model.read_text())
        assert obj["tool"] == "toolx" and obj["accuracy"] == 100.0
        assert obj["root"]["feature"] == "marker"

    def test_same_seed_identical_model_bytes(self, capsys, trainable_corpus, tmp_path):
        manifest, results = trainable_corpus
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out_model in (m1, m2):
            code, _, _ = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--seed", "7", "--out-model", str(out_model))
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("flag,value,message", [
        ("--k", "0", "k must be at least 1"),
        ("--train-fraction", "1.5", "train_fraction must be strictly between 0 and 1"),
        ("--max-depth", "0", "max_depth and min_leaf must be at least 1"),
        ("--min-leaf", "0", "max_depth and min_leaf must be at least 1"),
        ("--max-support-fraction", "2", "max_support_fraction must be within [0, 1]"),
    ])
    def test_bad_settings_exit_3_before_anything_loads(self, capsys, monkeypatch,
                                                       trainable_corpus, tmp_path,
                                                       flag, value, message):
        manifest, results = trainable_corpus
        loads = []
        for name in ("_load_results", "_load_manifest"):
            monkeypatch.setattr(cli, name, lambda path, name=name: loads.append(name))
        out_model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--out-model", str(out_model), flag, value)
        assert (code, out, loads) == (3, "", [])
        assert err == f"rweval: bad train settings: {message}\n"
        assert not out_model.exists()

    def test_split_with_one_train_row_exits_2(self, capsys, trainable_corpus, tmp_path):
        manifest, results = trainable_corpus
        manifest.write_text(json.dumps(json.loads(manifest.read_text())[:3]))
        out_model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--task", "AFL", "--train-fraction", "0.1",
                                 "--out-model", str(out_model))
        assert (code, out) == (2, "")
        assert "3 rows at train_fraction=0.1 leave 1 to train" in err
        assert not out_model.exists()

    def test_tool_absent_exits_2(self, capsys, trainable_corpus, tmp_path):
        manifest, results = trainable_corpus
        code, _, _ = run_cli(capsys, "train", "--results", str(results),
                             "--manifest", str(manifest), "--tool", "ghost",
                             "--out-model", str(tmp_path / "m.json"))
        assert code == 2


@pytest.mark.parametrize("command", ["success", "comparative", "size", "sections", "train"])
def test_read_side_builds_no_run_record(capsys, monkeypatch, trainable_corpus, tmp_path,
                                        command):
    # the tables and train read the loaded columns, not one RunRecord per row
    manifest, results = trainable_corpus
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    rows = read_rows(results)
    for row in rows[1:]:
        original = (tmp_path / f"{row[0]}.elf").read_bytes()
        (outputs / f"{row[0]}__toolx__NOP").write_bytes(original)
        rows.append([*row[:8], "NOP", "na", "1", "yes", "1.0", "100", str(len(original))])
    with open(results, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    calls = []
    real_post_init = harness.RunRecord.__post_init__
    monkeypatch.setattr(harness.RunRecord, "__post_init__",
                        lambda self: (calls.append(self), real_post_init(self))[1])
    if command == "train":
        argv = ["train", "--results", str(results), "--manifest", str(manifest),
                "--tool", "toolx", "--task", "AFL", "--out-model", str(tmp_path / "m.json")]
    else:
        argv = ["report", str(results), "--table", command, "--manifest", str(manifest),
                "--outputs", str(outputs), "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "toolx" in out or command == "train"
    assert calls == []


REPORT_TABLES = ("success", "comparative", "size", "sections")


class TestSizeReportPipeline:
    def test_keep_outputs_feeds_size_and_sections_tables(self, capsys,
                                                         hello_variants, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": f"h{i}", "path": str(v.path), "program": "hello",
             "compiler": v.compiler, "flags": v.opt,
             "relocation": "pie" if v.pie else "nopie",
             "symbols": "stripped" if v.stripped else "present", "os": "u22"}
            for i, v in enumerate(hello_variants[:2])
        ]))
        adapters = tmp_path / "adapters.json"
        adapters.write_text(json.dumps([
            {"tool_name": "copytool", "nop_command": "cp {input} {output}"},
        ]))
        results = tmp_path / "results.csv"
        outputs = tmp_path / "outputs"
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest),
                             "--adapters", str(adapters), "--tasks", "NOP",
                             "--out", str(results), "--keep-outputs", str(outputs))
        assert code == 0

        code, out, _ = run_cli(capsys, "report", str(results), "--table", "size",
                               "--manifest", str(manifest), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"copytool": 100.0}

        code, out, _ = run_cli(capsys, "report", str(results), "--table",
                               "sections", "--manifest", str(manifest),
                               "--outputs", str(outputs), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["tools"] == ["copytool"]
        cells = [c["copytool"] for c in obj["sections"].values()]
        # identical files: every byte-bearing bucket is exactly 100%,
        # zero-byte buckets (.bss and friends) are NA
        assert cells.count(100.0) + cells.count(None) == len(cells)
        assert ".text" in obj["sections"]
        assert obj["sections"][".text"]["copytool"] == 100.0

    @pytest.fixture
    def three_binaries(self, tmp_path):
        """Originals b0 and b1, each with a section of its own, and b2, which
        is not an ELF file; outputs of tools t0-t2 are copies of them, but
        b1's t2 output is not an ELF file and b2's outputs are ELF files
        with a section of their own."""
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        entries, rows = [], [harness_header()]
        for b in ("b0", "b1", "b2"):
            original = tmp_path / f"{b}.elf"
            image = build_elf([Sec(".text", b"\x90" * 8), Sec(f".{b}only", b"\x01" * 4)])
            original.write_bytes(b"not an ELF" if b == "b2" else image)
            entries.append({"id": b, "path": str(original), "program": "p",
                            "compiler": "gcc", "flags": "O0", "relocation": "pie",
                            "symbols": "present", "os": "u22"})
            for tool in ("t0", "t1", "t2"):
                broken = (b, tool) == ("b1", "t2")
                (outputs / f"{b}__{tool}__NOP").write_bytes(
                    b"not an ELF" if broken else image)
                rows.append([b, "p", "gcc", "O0", "pie", "present", "u22", tool, "NOP",
                             "na", "1", "yes", "1.0", "100", str(len(image))])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        results = tmp_path / "results.csv"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        results.write_text(buf.getvalue())
        return results, manifest, outputs

    def test_sections_table_parses_each_original_once(self, capsys, monkeypatch,
                                                      three_binaries):
        results, manifest, outputs = three_binaries
        opened, parsed = [], []
        real_parse_elf = cli.parse_elf

        class RecordingElfFile(cli.ElfFile):
            def __init__(self, path):
                opened.append(os.path.basename(path))
                super().__init__(path)

        def counting_parse_elf(binary):
            parsed.append(opened[-1])
            return real_parse_elf(binary)

        monkeypatch.setattr(cli, "ElfFile", RecordingElfFile)
        monkeypatch.setattr(cli, "parse_elf", counting_parse_elf)
        code, out, _ = run_cli(capsys, "report", str(results), "--table", "sections",
                               "--manifest", str(manifest), "--outputs", str(outputs),
                               "--format", "json")
        assert code == 0
        # three originals once each; the rewritten files of b0 and b1 once
        # each; none of b2's, whose original is broken
        assert sorted(parsed) == sorted(
            ["b0.elf", "b1.elf", "b2.elf",
             *(f"{b}__{t}__NOP" for b in ("b0", "b1") for t in ("t0", "t1", "t2"))])
        obj = json.loads(out)
        assert obj["tools"] == ["t0", "t1", "t2"]
        assert ".b2only" not in obj["sections"]
        # the broken output skips only its own row
        assert obj["sections"][".b1only"] == {"t0": 100.0, "t1": 100.0, "t2": None}
        assert obj["sections"][".b0only"] == {"t0": 100.0, "t1": 100.0, "t2": 100.0}

    def test_size_table_stats_each_original_once(self, capsys, monkeypatch,
                                                 three_binaries):
        results, manifest, _ = three_binaries
        calls = []
        for name in ("isfile", "getsize"):
            real = getattr(os.path, name)
            monkeypatch.setattr(os.path, name, lambda path, name=name, real=real: (
                calls.append((name, os.path.basename(path))), real(path))[1])
        code, out, _ = run_cli(capsys, "report", str(results), "--table", "size",
                               "--manifest", str(manifest), "--format", "json")
        assert code == 0
        originals = [call for call in calls if call[1].endswith(".elf")]
        assert sorted(originals) == sorted(
            (name, f"{b}.elf") for name in ("isfile", "getsize") for b in ("b0", "b1", "b2"))
        assert json.loads(out)["t0"] > 0

    def test_size_table_skips_rows_without_an_output_size(self, capsys, three_binaries):
        results, manifest, _ = three_binaries
        rows = read_rows(results)
        for row in rows[1:]:
            if row[7] == "t0":
                row[-1] = ""
        with open(results, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        code, out, err = run_cli(capsys, "report", str(results), "--table", "size",
                                 "--manifest", str(manifest), "--format", "json")
        assert (code, err) == (0, "")
        assert set(json.loads(out)) == {"t1", "t2"}

    @pytest.mark.parametrize("cohort", ["bogus", "arch=x86", "compiler=gcc,pie"])
    def test_bad_cohort_exits_3_on_every_table(self, capsys, three_binaries, cohort):
        results, manifest, outputs = three_binaries
        runs = [run_cli(capsys, "report", str(results), "--table", table, "--cohort", cohort,
                        "--manifest", str(manifest), "--outputs", str(outputs))
                for table in REPORT_TABLES]
        # every table gives the success table's exit code and message
        assert runs == [(3, "", runs[0][2])] * len(REPORT_TABLES)
        assert "cohort" in runs[0][2]

    @pytest.mark.parametrize("table", ["size", "sections"])
    def test_unknown_tool_exits_2_on_size_tables(self, capsys, three_binaries, table):
        results, manifest, outputs = three_binaries
        code, out, err = run_cli(capsys, "report", str(results), "--table", table,
                                 "--tools", "ghost,t0", "--manifest", str(manifest),
                                 "--outputs", str(outputs))
        assert (code, out) == (2, "")
        assert "ghost" in err

    @pytest.mark.parametrize("table", REPORT_TABLES)
    def test_valid_values_of_unused_options_are_accepted(self, capsys, three_binaries,
                                                         table):
        results, manifest, outputs = three_binaries
        files = ("--manifest", str(manifest), "--outputs", str(outputs))
        unused = {
            "success": ("--metric", "mem_kb", "--mean-of-ratios", *files),
            "comparative": ("--cohort", "compiler=gcc", *files),
            "size": ("--cohort", "gcc", "--tools", "t2,t0", "--metric", "mem_kb",
                     "--mean-of-ratios"),
            "sections": ("--cohort", "compiler=gcc", "--tools", "t2,t0", "--metric",
                         "mem_kb", "--mean-of-ratios"),
        }[table]
        used = files if table in ("size", "sections") else ()
        argv = ("report", str(results), "--table", table, "--format", "json", *used)
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, *unused) == plain

    def test_sections_without_outputs_dir_exits_3(self, capsys, tmp_path):
        results = tmp_path / "results.csv"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([harness_header()])
        results.write_text(buf.getvalue())
        code, _, _ = run_cli(capsys, "report", str(results), "--table", "sections",
                             "--manifest", str(tmp_path / "m.json"))
        assert code == 3


class TestReportCommand:
    @pytest.fixture
    def results_csv(self, tmp_path):
        rows = [harness_header()]
        for i in range(4):
            rows.append([f"b{i}", "p", "gcc", "O0", "pie", "present", "u20",
                         "alpha", "NOP", "yes" if i < 3 else "no",
                         "1" if i < 3 else "0", "yes" if i < 2 else "na",
                         str(float(i + 1)), "100", "1000"])
        path = tmp_path / "results.csv"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        path.write_text(buf.getvalue())
        return str(path)

    def test_success_table(self, capsys, results_csv):
        code, out, _ = run_cli(capsys, "report", results_csv, "--table", "success",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["denominator"] == 4
        assert obj["tools"]["alpha"]["EXE"] == {"count": 3, "pct": 75.0}
        assert obj["tools"]["alpha"]["IR"] == {"count": 3, "pct": 75.0}
        assert obj["tools"]["alpha"]["NullFunc"] == {"count": 2, "pct": 50.0}

    def test_comparative_single_tool_is_100(self, capsys, results_csv):
        code, out, _ = run_cli(capsys, "report", results_csv, "--table",
                               "comparative", "--format", "json")
        assert code == 0
        assert json.loads(out)["cells"] == {"alpha/alpha": 100.0}

    def test_unknown_cohort_exits_3(self, capsys, results_csv):
        code, _, err = run_cli(capsys, "report", results_csv, "--cohort", "bogus")
        assert code == 3
        assert "cohort" in err

    def test_keyvalue_cohort(self, capsys, results_csv):
        code, out, _ = run_cli(capsys, "report", results_csv, "--cohort",
                               "compiler=gcc,relocation=pie", "--format", "json")
        assert code == 0
        assert json.loads(out)["denominator"] == 4

    @pytest.mark.parametrize("term,allowed", [
        ("compiler=gc", "clang, gcc, icx, ollvm"),
        ("flags=O4", "O0, O1, O2, O3, Os, Ofast, fla, sub, bcf"),
        ("relocation=pi", "pie, nopie"),
        ("symbols=yes", "present, stripped"),
    ])
    def test_bad_cohort_value_exits_3(self, capsys, results_csv, term, allowed):
        code, out, err = run_cli(capsys, "report", results_csv, "--cohort",
                                 f"program=p,{term}")
        assert (code, out) == (3, "")
        assert term.partition("=")[2] in err and allowed in err

    @pytest.mark.parametrize("term", ["program=other", "os=u99"])
    def test_free_cohort_values_are_accepted(self, capsys, results_csv, term):
        code, out, err = run_cli(capsys, "report", results_csv, "--cohort", term,
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["denominator"] == 0

    def test_unknown_tool_exits_2(self, capsys, results_csv):
        code, _, _ = run_cli(capsys, "report", results_csv, "--tools", "ghost")
        assert code == 2

    @pytest.mark.parametrize("spec", ["alpha,", " alpha , ,", ",alpha"])
    def test_blank_tool_terms_are_skipped(self, capsys, results_csv, spec):
        for table in ("success", "comparative"):
            code, out, err = run_cli(capsys, "report", results_csv, "--table", table,
                                     "--tools", spec, "--format", "json")
            assert (code, err) == (0, "")
            assert "alpha" in out

    @pytest.mark.parametrize("spec", ["", ",", " , "])
    def test_tools_without_a_name_exits_3(self, capsys, results_csv, spec):
        code, out, err = run_cli(capsys, "report", results_csv, "--tools", spec)
        assert (code, out) == (3, "")
        assert "--tools" in err

    @pytest.mark.parametrize("table", ["success", "comparative"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_repeated_tool_exits_3(self, capsys, results_csv, table, fmt):
        code, out, err = run_cli(capsys, "report", results_csv, "--table", table,
                                 "--tools", "alpha, alpha", "--format", fmt)
        assert (code, out) == (3, "")
        assert "--tools" in err and "repeated alpha" in err

    @pytest.mark.parametrize("argv,message", [
        (["--cohort", "relocation=pi"], "bad cohort value relocation='pi'"),
        (["--tools", "a,a"], "bad --tools value 'a,a': repeated a"),
        (["--cohort", "compiler=gcc, compiler=clang"],
         "bad --cohort value 'compiler=gcc, compiler=clang': repeated compiler"),
        (["--table", "size"], "--manifest is required for this table"),
    ], ids=["cohort", "tools", "cohort_key", "manifest"])
    def test_options_are_checked_before_the_results_load(self, capsys, argv, message):
        # /dev/null is no results CSV: loading it would exit 2
        code, out, err = run_cli(capsys, "report", "/dev/null", *argv)
        assert (code, out) == (3, "")
        assert message in err and "cannot load" not in err

    def test_unknown_tool_in_comparative_exits_2(self, capsys, results_csv):
        code, out, err = run_cli(capsys, "report", results_csv, "--table",
                                 "comparative", "--tools", "alpha,nosuch")
        assert code == 2 and "nosuch" in err and out == ""

    @pytest.mark.parametrize("column,cell", [
        ("func", None),  # the row ends after func, as in a partly written --out
        ("exe", "yes"),
        ("runtime_s", "nan"),
        ("mem_kb", str(1 << 63)),  # Results holds it as a signed 64-bit integer
        ("out_size_bytes", str(1 << 63)),
    ])
    def test_malformed_row_exits_2_and_names_its_line(self, capsys, results_csv,
                                                      column, cell):
        lines = open(results_csv).read().splitlines()
        cells = lines[2].split(",")
        index = harness_header().index(column)
        cells = cells[:index + 1] if cell is None else [
            *cells[:index], cell, *cells[index + 1:]]
        lines[2] = ",".join(cells)
        with open(results_csv, "w") as f:
            f.write("\n".join(lines) + "\n")
        for table in ("success", "comparative"):
            code, out, err = run_cli(capsys, "report", results_csv, "--table", table)
            assert (code, out) == (2, "")
            assert "line 3: " in err

    def test_repeated_row_exits_2_and_names_its_line(self, capsys, results_csv):
        with open(results_csv) as f:
            lines = f.read().splitlines()
        lines.insert(3, lines[2].replace(",1,yes,", ",0,no,"))
        with open(results_csv, "w") as f:
            f.write("\n".join(lines) + "\n")
        for table in ("success", "comparative"):
            code, out, err = run_cli(capsys, "report", results_csv, "--table", table)
            assert (code, out) == (2, "")
            assert "line 4: repeated row for 'b1', tool 'alpha', task NOP" in err

    def test_bad_table_choice_exits_3(self, capsys, results_csv):
        assert run_cli(capsys, "report", results_csv, "--table", "nope")[0] == 3

    def test_csv_format(self, capsys, results_csv):
        code, out, _ = run_cli(capsys, "report", results_csv, "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("tool,IR,EXE,NullFunc,AFL_EXE,AFL_Func")
        assert out.endswith("\n") and not out.endswith("\n\n")


# options each command adds to its parser, besides its -h
COMMAND_OPTIONS = {"scope": 3, "features": 2, "size": 3, "run": 8, "train": 12, "report": 9}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_main_builds_only_the_invoked_commands_options(capsys, monkeypatch, tmp_path,
                                                       command):
    # an in-process caller pays for the parser on every call
    added = []
    real_add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *args, **kwargs: (
                            added.append(args), real_add_argument(self, *args, **kwargs))[1])
    missing = str(tmp_path / "missing")
    argv = {
        "scope": [missing],
        "features": [missing],
        "size": [missing],
        "run": ["--manifest", missing, "--adapters", missing, "--out", missing],
        "train": ["--results", missing, "--manifest", missing, "--tool", "t",
                  "--out-model", missing],
        "report": [missing],
    }[command]
    code, _, err = run_cli(capsys, command, *argv)
    assert code == 2 and "missing" in err  # parsed, and the command's handler ran
    parsers = len(COMMAND_OPTIONS) + 1
    assert added.count(("-h", "--help")) == parsers
    assert len(added) == parsers + COMMAND_OPTIONS[command]


def test_import_leaves_numpy_unloaded():
    # numpy costs more start-up time than the rest of rweval; only train needs it
    src = os.path.dirname(os.path.dirname(rweval.__file__))
    subprocess.run(
        [sys.executable, "-c", "import rweval.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
