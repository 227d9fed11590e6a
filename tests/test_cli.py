import argparse
import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rweval
from rweval import cli, harness, training
from rweval.cli import main

from elfbuild import (ET_EXEC, SHT_NOBITS, Sec, build_elf, extended_numbering, pn_xnum,
                      section_table, wide_entries)
from oracles import two_level_cli


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
        pytest.param("fail", "1" + "0" * 400, id="fail-huge_int"),
        pytest.param("pass", '"1"', id="pass-string")])
    def test_bad_model_number_exits_3(self, capsys, elf_file, tmp_path, field, value):
        mdir = tmp_path / "models"
        mdir.mkdir()
        model = {"tool": "nanny", "task": "AFL", "features": [], "accuracy": None,
                 "root": {"fail": 1, "pass": 0}}
        (model if field == "accuracy" else model["root"])[field] = "VALUE"
        (mdir / "nanny.json").write_text(json.dumps(model).replace('"VALUE"', value))
        code, out, err = run_cli(capsys, "scope", elf_file, "--models", str(mdir))
        assert (code, out) == (3, "")
        assert err.startswith("rweval: cannot load models") and err.count("\n") == 1

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

    def test_path_with_a_nul_byte_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scope", "a\0b")
        assert (code, out) == (2, "")
        assert err == "rweval: cannot read 'a\\x00b': embedded null byte\n"

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

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_parallelism_past_the_usable_cpus_is_noted(self, capsys, monkeypatch,
                                                       campaign_files, tmp_path, parallelism):
        manifest, adapters = campaign_files
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, _, err = run_cli(capsys, "run", "--manifest", str(manifest),
                               "--adapters", str(adapters), "--out", str(tmp_path / "o.csv"),
                               "--parallelism", parallelism)
        assert code == 0 and len(read_rows(tmp_path / "o.csv")) == 9
        assert err == ("" if parallelism == "1" else
                       "rweval: --parallelism 2 exceeds the 1 usable CPUs: wall times "
                       "(runtime_s) will include waiting for a CPU\n")

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

    @pytest.mark.parametrize("which,kind,code", [
        (0, "manifest", 2), (1, "adapter config", 3)], ids=["manifest", "adapters"])
    def test_a_file_that_is_no_json_array_exits(self, capsys, campaign_files, tmp_path,
                                                which, kind, code):
        path = campaign_files[which]
        path.write_text(json.dumps({"entries": json.loads(path.read_text())}))
        out_csv = tmp_path / "o.csv"
        got, out, err = run_cli(capsys, "run", "--manifest", str(campaign_files[0]),
                                "--adapters", str(campaign_files[1]), "--out", str(out_csv))
        assert (got, out) == (code, "")
        assert f"{kind} must be a JSON array" in err
        assert not out_csv.exists()

    def test_an_interrupted_rewrite_keeps_the_streamed_rows(self, capsys, campaign_files,
                                                           tmp_path, monkeypatch):
        manifest, adapters = campaign_files
        rows, to_row = [], harness.record_to_row

        def interrupted(record):
            if len(rows) == 10:  # the 8 streamed rows, then 2 of the sorted rewrite
                raise KeyboardInterrupt
            rows.append(to_row(record))
            return rows[-1]

        monkeypatch.setattr(harness, "record_to_row", interrupted)
        out_csv = tmp_path / "out" / "results.csv"
        out_csv.parent.mkdir()
        code, out, err = run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                                 str(adapters), "--out", str(out_csv), "--parallelism", "1")
        assert (code, out, err) == (130, "", "rweval: interrupted\n")
        streamed = read_rows(out_csv)
        assert streamed[0] == harness_header()
        assert sorted(streamed[1:]) == sorted(rows[:8]) and len(rows[:8]) == 8
        assert os.listdir(out_csv.parent) == ["results.csv"]

    def test_the_sorted_rewrite_replaces_the_file_a_symlink_names(self, capsys,
                                                                  campaign_files, tmp_path):
        manifest, adapters = campaign_files
        target, link = tmp_path / "kept" / "results.csv", tmp_path / "link.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                             str(adapters), "--out", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert len(read_rows(target)) == 9
        assert target.stat().st_mode & 0o777 == 0o640
        assert os.listdir(target.parent) == ["results.csv"]

    def test_an_out_in_a_directory_that_takes_no_new_file_is_written_in_place(
            self, capsys, campaign_files, tmp_path, monkeypatch):
        import tempfile

        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        manifest, adapters = campaign_files
        out_csv = tmp_path / "results.csv"
        out_csv.write_text("old\n")
        inode = out_csv.stat().st_ino
        monkeypatch.setattr(tempfile, "mkstemp", refused)
        code, out, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                               str(adapters), "--out", str(out_csv))
        assert (code, out) == (0, f"8 records -> {out_csv}\n")
        rows = read_rows(out_csv)
        assert rows[0] == harness_header() and rows[1:] == sorted(rows[1:])
        assert len(rows) == 9 and out_csv.stat().st_ino == inode

    def test_an_out_that_is_no_regular_file_is_written_in_place(self, capsys,
                                                                campaign_files):
        manifest, adapters = campaign_files
        code, out, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--adapters",
                               str(adapters), "--out", os.devnull)
        assert (code, out) == (0, f"8 records -> {os.devnull}\n")

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

    def test_a_results_cache_hit_writes_the_same_model(self, capsys, monkeypatch,
                                                       trainable_corpus, tmp_path):
        # MIN_CACHE_BYTES 1: the second load of results reads the cache the first wrote
        manifest, results = trainable_corpus
        cache, runs, inodes = tmp_path / ".results.csv.rwcache", [], set()
        for name, threshold in (("plain", 1 << 62), ("miss", 1), ("hit", 1)):
            monkeypatch.setattr(harness, "MIN_CACHE_BYTES", threshold)
            model = tmp_path / f"{name}.json"
            code, out, err = run_cli(capsys, "train", "--results", str(results), "--manifest",
                                     str(manifest), "--tool", "toolx", "--seed", "3",
                                     "--out-model", str(model))
            runs.append((code, out.replace(str(model), "MODEL"), err, model.read_bytes()))
            if threshold == 1:
                inodes.add(cache.stat().st_ino)  # a rewrite would be a new inode
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[0] == runs[1] == runs[2]
        assert len(inodes) == 1

    def test_features_are_ranked_on_the_train_split_alone(self, capsys, monkeypatch,
                                                          trainable_corpus, tmp_path):
        # the held-out labels must not help pick the features they then score
        manifest, results = trainable_corpus
        splits, ranked = [], []
        split, select = training.split_train_test, training.select_features

        def spy_split(*args, **kwargs):
            splits.append(split(*args, **kwargs))
            return splits[-1]

        def spy_select(matrix, **kwargs):
            ranked.append(matrix)
            return select(matrix, **kwargs)

        monkeypatch.setattr(training, "split_train_test", spy_split)
        monkeypatch.setattr(training, "select_features", spy_select)
        code, out, _ = run_cli(capsys, "train", "--results", str(results),
                               "--manifest", str(manifest), "--tool", "toolx",
                               "--out-model", str(tmp_path / "m.json"))
        assert code == 0 and "(9 train / 3 test rows)" in out
        [(train, _)], [matrix] = splits, ranked
        assert matrix.rows == train.rows

    @pytest.mark.parametrize("flag,value,message", [
        ("--k", "0", "k must be at least 1"),
        ("--train-fraction", "1.5", "train_fraction must be strictly between 0 and 1"),
        ("--max-depth", "0", "max_depth and min_leaf must be at least 1"),
        ("--min-leaf", "0", "max_depth and min_leaf must be at least 1"),
        ("--min-support", "-1", "min_support must be at least 0"),
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

    @pytest.mark.parametrize("where", ["missing_dir", "directory", "nul_in_name",
                                       "nul_in_folder", "empty"])
    def test_unwritable_out_model_exits_2_before_anything_loads(
            self, capsys, monkeypatch, trainable_corpus, tmp_path, where):
        manifest, results = trainable_corpus
        loads = []
        for name in ("_load_results", "_load_manifest"):
            monkeypatch.setattr(cli, name, lambda path, name=name: loads.append(name))
        # os.path.isdir is False for a path with a NUL byte, which no file can have
        out_model = {"missing_dir": str(tmp_path / "missing" / "m.json"),
                     "directory": str(tmp_path),
                     "nul_in_name": f"{tmp_path}/m\0.json",
                     "nul_in_folder": f"{tmp_path}/a\0b/m.json",
                     "empty": ""}[where]
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--out-model", out_model)
        assert (code, out, loads) == (2, "", [])
        assert err.startswith(f"rweval: cannot write {out_model!r}: ")
        if where.startswith("nul"):
            assert err.endswith(": embedded null byte\n")

    def test_failed_model_write_exits_2(self, capsys, monkeypatch, trainable_corpus,
                                        tmp_path):
        manifest, results = trainable_corpus

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.Path, "write_text", refuse)
        out_model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--out-model", str(out_model))
        assert (code, out) == (2, "")
        assert err == (f"rweval: cannot write {str(out_model)!r}: "
                       "[Errno 13] Permission denied\n")

    def test_only_constant_pi_and_strip_columns_exit_2(self, capsys, trainable_corpus,
                                                       tmp_path):
        # .text is in all 12 binaries and .marker in 6, under a min support of 7
        manifest, results = trainable_corpus
        out_model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--min-support", "7", "--out-model", str(out_model))
        assert (code, out) == (2, "")
        assert err == ("rweval: no discriminating features survive filtering "
                       "(only constant pi/strip columns remain)\n")
        assert not out_model.exists()

    def test_manifest_path_with_a_nul_byte_exits_2(self, capsys, trainable_corpus,
                                                   tmp_path):
        manifest, results = trainable_corpus
        entries = json.loads(manifest.read_text())
        entries[0]["path"] += "\0x"
        manifest.write_text(json.dumps(entries))
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--out-model", str(tmp_path / "m.json"))
        assert (code, out) == (2, "")
        assert err == f"rweval: cannot read {entries[0]['path']!r}: embedded null byte\n"

    def test_one_manifest_binary_with_records_exits_2(self, capsys, trainable_corpus,
                                                      tmp_path):
        manifest, results = trainable_corpus
        manifest.write_text(json.dumps(json.loads(manifest.read_text())[:1]))
        out_model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--results", str(results),
                                 "--manifest", str(manifest), "--tool", "toolx",
                                 "--out-model", str(out_model))
        assert (code, out) == (2, "")
        assert err == "rweval: fewer than 2 manifest binaries have records to train on\n"
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

    def test_empty_outputs_dir_gives_an_empty_sections_table(self, capsys, tmp_path,
                                                            three_binaries):
        results, manifest, _ = three_binaries
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = run_cli(capsys, "report", str(results), "--table", "sections",
                                 "--manifest", str(manifest), "--outputs", str(empty),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["sections"] == {}

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

    @pytest.mark.parametrize("table", ["size", "sections"])
    def test_binaries_without_a_manifest_entry_or_original_drop_out(
            self, capsys, tmp_path, three_binaries, table):
        # b1 has no manifest entry and b2's original is gone: only b0 is left
        results, manifest, outputs = three_binaries
        manifest.write_text(json.dumps(
            [e for e in json.loads(manifest.read_text()) if e["id"] != "b1"]))
        (tmp_path / "b2.elf").unlink()
        rows = read_rows(results)
        for row in rows[1:]:
            if row[0] != "b0":  # sizes that would move the means, were they counted
                row[-1] = "1"
        with open(results, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        code, out, err = run_cli(capsys, "report", str(results), "--table", table,
                                 "--manifest", str(manifest), "--outputs", str(outputs),
                                 "--format", "json")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        every_tool = {"t0": 100.0, "t1": 100.0, "t2": 100.0}
        if table == "size":
            assert obj == every_tool
        else:
            assert obj["tools"] == ["t0", "t1", "t2"]
            assert obj["sections"][".b0only"] == every_tool
            assert ".b1only" not in obj["sections"] and ".b2only" not in obj["sections"]

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

    @pytest.mark.parametrize("cohort,denominator,exe,exe_pct", [
        ("gcc", 0, {"count": 0, "pct": None}, "NA"),
        ("full", 2, {"count": 1, "pct": 50.0}, "50.00%")])
    def test_rows_without_variant_cells_count_only_in_the_full_cohort(
            self, capsys, tmp_path, cohort, denominator, exe, exe_pct):
        rows = [harness_header()] + [
            [f"b{i}", "", "", "", "", "", "", "alpha", "NOP", "na", str(1 - i), "na",
             "1.0", "100", ""] for i in range(2)]
        path = tmp_path / "results.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        code, out, err = run_cli(capsys, "report", str(path), "--cohort", cohort,
                                 "--format", "json")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["denominator"], obj["tools"]["alpha"]["EXE"]) == (denominator, exe)
        code, out, _ = run_cli(capsys, "report", str(path), "--cohort", cohort)
        header, alpha = (line.split() for line in out.splitlines())
        assert code == 0 and dict(zip(header, alpha))["EXE_pct"] == exe_pct

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
        (["report", "/dev/null", "--cohort", "relocation=pi"],
         "bad cohort value relocation='pi'"),
        (["report", "/dev/null", "--tools", "a,a"], "bad --tools value 'a,a': repeated a"),
        (["run", "--manifest", "/dev/null", "--adapters", "/dev/null", "--out", "/dev/null",
          "--tasks", "NOP,NOP"], "bad --tasks value 'NOP,NOP': repeated NOP"),
        (["report", "/dev/null", "--cohort", "compiler=gcc, compiler=clang"],
         "bad --cohort value 'compiler=gcc, compiler=clang': repeated compiler"),
        (["report", "/dev/null", "--table", "size"], "--manifest is required for this table"),
    ], ids=["cohort", "tools", "tasks", "cohort_key", "manifest"])
    def test_options_are_checked_before_the_results_load(self, capsys, argv, message):
        # /dev/null is no results CSV, manifest or adapter list: loading it would fail
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert message in err and "cannot load" not in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_outputs_that_is_no_directory_exits_2_before_the_results_load(
            self, capsys, tmp_path, kind):
        outputs = tmp_path / "outputs"
        if kind == "file":
            outputs.write_text("")
        code, out, err = run_cli(capsys, "report", "/dev/null", "--table", "sections",
                                 "--manifest", str(tmp_path / "m.json"),
                                 "--outputs", str(outputs))
        assert (code, out) == (2, "")
        assert err == f"rweval: cannot read outputs {str(outputs)!r}: not a directory\n"

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


@pytest.fixture
def added(monkeypatch):
    """The positional arguments of every add_argument call, in order, with
    no command parser built yet."""
    cli._command_parser.cache_clear()
    added = []
    real_add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *args, **kwargs: (
                            added.append(args), real_add_argument(self, *args, **kwargs))[1])
    return added


def _missing_argv(command, missing):
    """Arguments for command that name only the missing path."""
    return {
        "scope": [missing],
        "features": [missing],
        "size": [missing],
        "run": ["--manifest", missing, "--adapters", missing, "--out", missing],
        "train": ["--results", missing, "--manifest", missing, "--tool", "t",
                  "--out-model", missing],
        "report": [missing],
    }[command]


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_main_builds_only_the_invoked_commands_options(capsys, added, tmp_path, command):
    # an in-process caller pays for a command's parser on its first direct call only
    missing = str(tmp_path / "missing")
    other = "report" if command == "scope" else "scope"
    for name, expected in ((command, 1 + COMMAND_OPTIONS[command]), (command, 0),
                           (other, 1 + COMMAND_OPTIONS[other])):
        added.clear()
        code, _, err = run_cli(capsys, name, *_missing_argv(name, missing))
        assert code == 2 and "missing" in err  # parsed, and the command's handler ran
        # at most one parser: the command that argv[0] names, with nothing above it
        assert added.count(("-h", "--help")) == min(expected, 1)
        assert len(added) == expected


def test_an_option_before_the_command_registers_every_command(capsys, added, tmp_path):
    code, _, err = run_cli(capsys, "--bogus", "scope", str(tmp_path / "missing"))
    assert (code, err) == (3, "rweval: unrecognized arguments: --bogus\n")
    # every command by name and help, for the top-level usage; scope's options only
    parsers = len(COMMAND_OPTIONS) + 1
    assert added.count(("-h", "--help")) == parsers
    assert len(added) == parsers + COMMAND_OPTIONS["scope"]


def _tokens(command):
    """Tokens that may follow command: its option strings, whole, abbreviated
    and as --opt=value; -- and -h; values, including each option's choices;
    and names of files that do not exist, as paths or extra positionals."""
    p = cli._Parser()
    cli._COMMANDS[command][2](p)
    values = ["json", "text", "1", "-1", "0.5", "x", "no/such/file"]
    options = []
    for action in p._actions:
        values += action.choices or ()
        for opt in action.option_strings:
            forms = [opt[:n] for n in range(3, len(opt) + 1)] if opt.startswith("--") else [opt]
            options += forms
            options += [f"{form}={value}" for form in forms[-1:] for value in ("json", "x")]
    return st.sampled_from(sorted(set(options + values + ["--", "-h"])))


def _argv():
    return st.sampled_from(sorted(cli._COMMANDS)).flatmap(
        lambda command: st.lists(_tokens(command), max_size=6).map(
            lambda rest: [command, *rest]))


def _outcome(call, argv):
    """(exit code or SystemExit code, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as e:  # argparse exits after printing help
            code = ("exit", e.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_a_direct_command_parses_as_the_two_level_parser_would(empty_dir, argv):
    # every path named is missing, so each handler stops at its first read
    with contextlib.chdir(empty_dir), pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        expected = _outcome(lambda a: two_level_cli(cli, a), argv)
        # twice: the second call may reuse the parser that the first one built
        assert _outcome(main, argv) == expected
        assert _outcome(main, argv) == expected


class TestReusedParser:
    """A command's parser is reused by every direct call in a process, so no
    call may leave anything behind for the next one."""

    @pytest.fixture
    def two_tools_csv(self, tmp_path):
        rows = [harness_header()]
        for i in range(4):
            for tool, runtime in (("alpha", i + 1), ("beta", 2 * i + 3)):
                rows.append([f"b{i}", "p", "gcc", "O0", "pie", "present", "u20",
                             tool, "NOP", "yes", "1", "yes" if i < 2 else "no",
                             str(float(runtime)), "100", "1000"])
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        return str(path)

    def test_options_of_one_call_do_not_reach_the_next(self, capsys, two_tools_csv):
        code, out, _ = run_cli(capsys, "report", two_tools_csv, "--tools", "beta,alpha",
                               "--mean-of-ratios", "--format", "csv")
        assert code == 0 and out.startswith("tool,")
        src = os.path.dirname(os.path.dirname(rweval.__file__))
        fresh = subprocess.run(
            [sys.executable, "-m", "rweval.cli", "report", two_tools_csv, "--format", "csv"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert (fresh.returncode, fresh.stderr) == (0, "") and fresh.stdout != out
        assert run_cli(capsys, "report", two_tools_csv, "--format", "csv") == (
            0, fresh.stdout, "")

    def test_a_usage_error_does_not_break_the_next_call(self, capsys, elf_file):
        first = run_cli(capsys, "scope", elf_file)
        assert first[0] == 0
        assert run_cli(capsys, "scope", elf_file, "--format", "nope")[0] == 3
        assert run_cli(capsys, "scope", elf_file, "--bogus")[0] == 3
        assert run_cli(capsys, "scope", elf_file) == first

    def test_help_wraps_to_the_columns_of_each_call(self, capsys, monkeypatch):
        def help_at(columns, fresh=False):
            if fresh:
                cli._command_parser.cache_clear()
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit):
                main(["scope", "--help"])
            return capsys.readouterr().out

        fresh = {columns: help_at(columns, fresh=True) for columns in (40, 120)}
        assert fresh[40] != fresh[120]
        # the parser built at 120 columns, reused at 40 and then at 120
        assert {columns: help_at(columns) for columns in (40, 120)} == fresh


def test_import_leaves_numpy_unloaded():
    # numpy costs more start-up time than the rest of rweval; only train needs it
    src = os.path.dirname(os.path.dirname(rweval.__file__))
    subprocess.run(
        [sys.executable, "-c", "import rweval.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)


# Damaged ELF files: each of scope, size and features either answers (0) or
# names the damage on one stderr line (2); none ends in an internal error (1).
_REGION = st.sampled_from(["header", "table"])
_AT = st.integers(0, 2**16)
_MUTATION = (
    st.tuples(st.just("bytes"), _REGION, _AT, st.binary(min_size=1, max_size=16))
    | st.tuples(st.just("u64"), _REGION, _AT,
                st.sampled_from(["zero", "ones", "size-1", "2**63"]))
    | st.tuples(st.just("u16"), _REGION, _AT,
                st.sampled_from([0, 1, 0xFF00, 0xFFFF]) | st.integers(0, 0xFFFF)))


def _mutant(img: bytes, mutations, cut: int | None) -> bytes:
    """img with each mutation written into its ELF header or its section-header
    table (the last thing in the file), then cut to `cut % (len + 1)` bytes.
    Numbers go to 8-aligned slots, but 2-byte header writes to the sizes,
    counts and indices at 52-62."""
    out = bytearray(img)
    regions = {"header": (0, 64), "table": (section_table(img)[0], len(img))}
    for kind, region, at, value in mutations:
        start, end = regions[region]
        if kind == "bytes":
            at = start + at % (end - start)
            out[at:at + len(value)] = value[:end - at]
            continue
        if kind == "u16" and region == "header":
            at = 52 + 2 * (at % 6)
        else:
            at = start + 8 * (at % ((end - start) // 8))
        width = 2
        if kind == "u64":
            width = 8
            value = {"zero": 0, "ones": 2**64 - 1, "size-1": len(img) - 1, "2**63": 2**63}[value]
        out[at:at + width] = value.to_bytes(width, "little")
    return bytes(out if cut is None else out[:cut % (len(out) + 1)])


def _check_damaged(path, img: bytes) -> None:
    path.write_bytes(img)
    for argv in (["scope", str(path)], ["size", "--format", "json", str(path)],
                 ["features", str(path)]):
        code, out, err = _outcome(main, argv)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == "" and err.endswith("\n"), (argv, out, err)
            assert len(err.splitlines()) == 1 and err.startswith("rweval: "), (argv, err)


_BASE = build_elf([Sec(".interp", b"/lib64/ld-linux-x86-64.so.2\x00"),
                   Sec(".text", b"\x90" * 32, gap_before=4), Sec(".data", b"\x01" * 8),
                   Sec(".bss", b"\x00" * 16, sh_type=SHT_NOBITS), Sec(".symtab", b"\x00" * 24)])
_IMAGES = {
    "exec": _BASE,
    "no_shstrtab": build_elf([Sec(".text", b"\x90" * 16)], elf_type=ET_EXEC,
                             with_shstrtab=False),
    "no_phdrs": build_elf([Sec(".text", b"\x90" * 16)], load_phdr=False),
    "extended": extended_numbering(_BASE),
    "pn_xnum": pn_xnum(_BASE),
    "wide80": wide_entries(_BASE, 80),
}


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.elf"


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(sorted(_IMAGES)), mutations=st.lists(_MUTATION, max_size=3),
       cut=st.none() | st.integers(0, 2**16))
def test_a_damaged_synthetic_elf_exits_0_or_2(mutant_path, name, mutations, cut):
    _check_damaged(mutant_path, _mutant(_IMAGES[name], mutations, cut))


@settings(max_examples=100, deadline=None)
@given(pick=st.sampled_from([0, -1]), mutations=st.lists(_MUTATION, min_size=1, max_size=3),
       cut=st.none() | st.integers(0, 2**16))
def test_a_damaged_gcc_build_exits_0_or_2(hello_variants, mutant_path, pick, mutations, cut):
    # the first and last builds: -O0 PIE with symbols, -O2 non-PIE stripped
    img = hello_variants[pick].path.read_bytes()
    _check_damaged(mutant_path, _mutant(img, mutations, cut))
