import contextlib
import csv
import errno
import io
import itertools
import json
import os
import random
import re
import shutil
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rweval
from rweval import harness
from rweval.dtree import Task
from rweval.errors import SpawnError, WorkdirError
from rweval.harness import (
    RESULTS_COLUMNS,
    FuncTest,
    ManifestEntry,
    Results,
    RunRecord,
    ToolAdapter,
    TriState,
    VariantConfig,
    afl_function_test,
    load_adapters,
    load_manifest,
    load_records_csv,
    null_function_test,
    record_to_row,
    row_to_record,
    run_campaign,
    run_task,
    task_output_path,
    write_records_csv,
)
from rweval.util import replace
from rweval.variant import CLOSED_VALUES

from elfbuild import build_elf
from oracles import columns, field_order_variant_error

COPY = ToolAdapter("copytool", nop_command="cp {input} {output}",
                   afl_command="cp {input} {output}")
FAIL = ToolAdapter("failtool",
                   nop_command='sh -c "exit 1" runner {input} {output}',
                   afl_command='sh -c "exit 1" runner {input} {output}')
LIFT = ToolAdapter(
    "lifttool",
    nop_command='sh -c \'echo IR > lifted.ir && cp "$1" "$2"\' runner {input} {output}',
    ir_artifact_glob="*.ir",
)
NO_IR = ToolAdapter(
    "forgetful",
    nop_command='sh -c \'cp "$1" "$2"\' runner {input} {output}',
    ir_artifact_glob="*.ir",
)
SLEEPER = ToolAdapter("sleeper",
                      nop_command='sh -c "sleep 5" runner {input} {output}')


def variant(program="prog", compiler="gcc", flags="O2",
            relocation="pie", symbols="present"):
    return VariantConfig(program, compiler, flags, relocation, symbols, "ubuntu20")


def script(path, body):
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(path)


def process_gone(pid, wait_s=5.0):
    """True once pid has exited: no longer listed, or a zombie nobody reaped."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def with_missing_loader(src, dest):
    """Copy src, an ELF executable, to dest with its PT_INTERP string
    replaced by a path of the same length that does not exist."""
    data = bytearray(src.read_bytes())
    (phoff,) = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    for i in range(phnum):
        p_type, _, offset, _, _, filesz = struct.unpack_from(
            "<IIQQQQ", data, phoff + i * phentsize)
        if p_type == 3:  # PT_INTERP; filesz counts the trailing NUL
            data[offset:offset + filesz - 1] = b"/nonexistent/".ljust(filesz - 1, b"x")
            break
    else:
        raise AssertionError(f"{src} has no PT_INTERP")
    dest.write_bytes(bytes(data))
    dest.chmod(0o755)
    return str(dest)


def without_exec_bit(src, dest):
    """Copy src to dest with every exec bit cleared."""
    shutil.copyfile(src, dest)
    dest.chmod(0o644)
    return str(dest)


@pytest.fixture
def bg_pidfile(tmp_path):
    """Where a test program records the pid of a sleep it put in the
    background; a sleep that survived is killed at teardown."""
    path = tmp_path / "bg.pid"
    yield path
    if path.exists():
        try:
            os.kill(int(path.read_text()), signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture
def elf_input(tmp_path):
    p = tmp_path / "input.elf"
    p.write_bytes(build_elf())
    return str(p)


class TestVariantConfig:
    def test_optimization_flags_for_normal_compilers(self):
        variant(compiler="clang", flags="Ofast")
        with pytest.raises(ValueError):
            variant(compiler="clang", flags="fla")

    def test_obfuscation_flags_for_ollvm(self):
        variant(compiler="ollvm", flags="bcf")
        with pytest.raises(ValueError):
            variant(compiler="ollvm", flags="O2")

    def test_unknown_compiler(self):
        with pytest.raises(ValueError):
            variant(compiler="tcc")

    def test_closed_cells_are_checked_as_the_field_order_loop_checks_them(self):
        junk = ("", "GCC", "O4", "pie ", "none")
        valid = 0
        for cells in itertools.product(*(values + junk for values in CLOSED_VALUES.values())):
            want = field_order_variant_error(*cells)
            if want is None:
                variant("p", *cells)
                valid += 1
            else:
                with pytest.raises(ValueError) as exc:
                    variant("p", *cells)
                assert str(exc.value) == want, cells
        assert valid == 84


class TestToolAdapter:
    def test_templates_must_have_placeholders(self):
        with pytest.raises(ValueError):
            ToolAdapter("x", nop_command="cp {input} out")
        with pytest.raises(ValueError):
            ToolAdapter("x", nop_command="cp {input} {output}",
                        afl_command="true")


class TestRunRecordInvariants:
    def base(self, **kw):
        defaults = dict(
            binary_id="b", variant=None, tool_name="t", task=Task.NOP,
            ir_ok=TriState.NA, exe_ok=False, func_ok=TriState.NA,
            runtime_seconds=0.0, memory_kbytes=0,
        )
        defaults.update(kw)
        return RunRecord(**defaults)

    def test_func_yes_requires_exe(self):
        with pytest.raises(ValueError):
            self.base(func_ok=TriState.YES, exe_ok=False)

    def test_exe_requires_ir_not_failed(self):
        with pytest.raises(ValueError):
            self.base(exe_ok=True, ir_ok=TriState.NO)
        self.base(exe_ok=True, ir_ok=TriState.YES)
        self.base(exe_ok=True, ir_ok=TriState.NA)

    def test_accepts_exactly_the_states(self):
        # of 36 combinations, 6 pass the functional test without EXE and 6
        # pass EXE after a failed IR checkpoint
        assert len(harness.STATES) == 24
        for state in itertools.product(Task, TriState, (False, True), TriState):
            task, ir, exe, func = state
            fields = dict(task=task, ir_ok=ir, exe_ok=exe, func_ok=func)
            if state in harness.STATES:
                assert self.base(**fields).func_ok is func
                continue
            message = ("func_ok=yes requires exe_ok" if func is TriState.YES and not exe
                       else "exe_ok requires ir_ok in {yes, na}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                self.base(**fields)

    def test_the_row_vocabulary_resolves_from_every_path(self):
        from rweval import dtree, features, variant

        assert harness.STATES is variant.STATES
        assert dtree.Task is harness.Task is rweval.Task is variant.Task
        assert features.Label is rweval.Label is variant.Label

    def test_negative_resources_rejected(self):
        with pytest.raises(ValueError):
            self.base(runtime_seconds=-1.0)
        with pytest.raises(ValueError):
            self.base(memory_kbytes=-1)
        with pytest.raises(ValueError):
            self.base(output_size_bytes=-1)

    @pytest.mark.parametrize("field", ["memory_kbytes", "output_size_bytes"])
    def test_integers_of_2_63_or_more_rejected(self, field):
        # Results holds them in signed 64-bit arrays
        assert getattr(self.base(**{field: (1 << 63) - 1}), field) == (1 << 63) - 1
        with pytest.raises(ValueError, match=r"^mem_kb and out_size_bytes must be below 2\*\*63$"):
            self.base(**{field: 1 << 63})

    @pytest.mark.parametrize("runtime", [float("nan"), float("inf")])
    def test_non_finite_runtime_rejected(self, runtime):
        with pytest.raises(ValueError, match="not finite"):
            self.base(runtime_seconds=runtime)


class TestRunTask:
    def test_identity_rewriter(self, elf_input, tmp_path):
        rec = run_task(COPY, Task.NOP, elf_input, str(tmp_path / "w"), timeout_s=10)
        assert rec.exe_ok is True
        assert rec.ir_ok is TriState.NA
        assert rec.func_ok is TriState.NA
        assert rec.output_size_bytes == os.path.getsize(elf_input)
        assert rec.runtime_seconds >= 0
        assert rec.memory_kbytes > 0

    def test_failing_rewriter(self, elf_input, tmp_path):
        rec = run_task(FAIL, Task.NOP, elf_input, str(tmp_path / "w"), timeout_s=10)
        assert rec.exe_ok is False
        assert rec.output_size_bytes is None

    def test_non_elf_output_is_not_exe(self, tmp_path):
        textfile = tmp_path / "input.elf"
        textfile.write_text("plain text, not an ELF\n")
        rec = run_task(COPY, Task.NOP, str(textfile), str(tmp_path / "w"), 10)
        assert rec.exe_ok is False

    def test_timeout_kills_and_annotates(self, elf_input, tmp_path):
        start = time.monotonic()
        rec = run_task(SLEEPER, Task.NOP, elf_input, str(tmp_path / "w"),
                       timeout_s=0.5)
        elapsed = time.monotonic() - start
        assert rec.exe_ok is False
        assert "TimedOut" in rec.annotation
        assert 0.5 <= rec.runtime_seconds <= elapsed
        assert elapsed < 4  # the sleep was actually cut short

    def test_backgrounded_children_die_with_the_rewriter(self, elf_input, tmp_path,
                                                         bg_pidfile):
        tool = script(tmp_path / "tool", f'sleep 30 & echo $! > "{bg_pidfile}"; cp "$1" "$2"')
        bg = ToolAdapter("bg", nop_command=f"{tool} {{input}} {{output}}")
        rec = run_task(bg, Task.NOP, elf_input, str(tmp_path / "w"), timeout_s=10)
        assert rec.exe_ok is True
        assert process_gone(int(bg_pidfile.read_text())), "the tool's background sleep outlived it"

    def test_processes_do_not_read_the_callers_stdin(self, tmp_path):
        # a process that read the caller's stdin could take a user's typing,
        # race a parallel job for it, or wait on a terminal until its timeout
        code = ("import sys; from rweval import harness; "
                "harness._run(['sh', '-c', 'cat > got.txt'], sys.argv[1], 10)")
        src = os.path.dirname(os.path.dirname(rweval.__file__))
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], input=b"typed-by-the-user",
                       env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert (tmp_path / "got.txt").read_bytes() == b""

    def test_missing_afl_command(self, elf_input, tmp_path):
        rec = run_task(LIFT, Task.AFL, elf_input, str(tmp_path / "w"), 10)
        assert rec.exe_ok is False
        assert rec.annotation == "NoAflSupport"

    def test_ir_artifact_detected(self, elf_input, tmp_path):
        rec = run_task(LIFT, Task.NOP, elf_input, str(tmp_path / "w"), 10)
        assert rec.ir_ok is TriState.YES
        assert rec.exe_ok is True

    def test_missing_ir_artifact_demotes_exe(self, elf_input, tmp_path):
        rec = run_task(NO_IR, Task.NOP, elf_input, str(tmp_path / "w"), 10)
        assert rec.ir_ok is TriState.NO
        assert rec.exe_ok is False
        assert "MissingIrArtifact" in rec.annotation

    def test_unknown_command_raises_spawn_error(self, elf_input, tmp_path):
        ghost = ToolAdapter("ghost",
                            nop_command="definitely-not-a-command {input} {output}")
        with pytest.raises(SpawnError):
            run_task(ghost, Task.NOP, elf_input, str(tmp_path / "w"), 10)

    def test_workdir_under_a_regular_file_raises(self, elf_input, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(WorkdirError, match="cannot prepare workdir"):
            run_task(COPY, Task.NOP, elf_input, str(tmp_path / "file" / "w"), 10)

    def test_missing_input_recorded(self, tmp_path):
        rec = run_task(COPY, Task.NOP, str(tmp_path / "nope"), str(tmp_path / "w"), 10)
        assert rec.exe_ok is False
        assert "InputMissing" in rec.annotation

    def test_peak_rss_reflects_child_allocation(self, tmp_path):
        elf = tmp_path / "input.elf"
        elf.write_bytes(build_elf())
        hog = ToolAdapter(
            "hog",
            nop_command="python3 -c \"import sys,shutil; x=bytearray(60*1024*1024); "
                        "shutil.copy(sys.argv[1], sys.argv[2])\" {input} {output}",
        )
        rec = run_task(hog, Task.NOP, str(elf), str(tmp_path / "w"), 30)
        assert rec.exe_ok is True
        assert rec.memory_kbytes >= 60 * 1024


class TestNullFunctionTest:
    def test_identical_copy_passes(self, tmp_path):
        a = script(tmp_path / "orig", "exit 0")
        b = script(tmp_path / "copy", "exit 0")
        assert null_function_test(a, b) == FuncTest(TriState.YES)

    def test_same_nonzero_exit_code_passes(self, tmp_path):
        a = script(tmp_path / "orig", "exit 3")
        b = script(tmp_path / "copy", "exit 3")
        assert null_function_test(a, b).result is TriState.YES

    def test_exit_code_mismatch_fails(self, tmp_path):
        a = script(tmp_path / "orig", "exit 1")
        b = script(tmp_path / "rewritten", "exit 0")
        out = null_function_test(a, b)
        assert out.result is TriState.NO
        assert "ExitCodeMismatch" in out.annotation

    def test_signal_death_fails(self, tmp_path):
        a = script(tmp_path / "orig", "exit 0")
        b = script(tmp_path / "rewritten", "kill -SEGV $$")
        out = null_function_test(a, b)
        assert out.result is TriState.NO
        assert out.annotation.startswith("Signaled")

    def test_rewritten_timeout_fails(self, tmp_path):
        a = script(tmp_path / "orig", "exit 0")
        b = script(tmp_path / "rewritten", "sleep 5")
        out = null_function_test(a, b, timeout_s=0.5)
        assert out == FuncTest(TriState.NO, "TimedOut")

    def test_invocation_is_passed_through(self, tmp_path):
        a = script(tmp_path / "orig", 'test "$1" = "--help"')
        b = script(tmp_path / "copy", 'test "$1" = "--help"')
        assert null_function_test(a, b).result is TriState.YES  # default --help
        assert null_function_test(a, b, invocation=("other",)).result is TriState.YES

    def test_runs_in_the_rewritten_binary_directory(self, tmp_path):
        seen = tmp_path / "cwd.txt"
        workdir = tmp_path / "job"
        workdir.mkdir()
        a = script(tmp_path / "orig", "exit 0")
        b = script(workdir / "rewritten", f'pwd -P > "{seen}"')
        assert null_function_test(a, b).result is TriState.YES
        assert seen.read_text().strip() == os.path.realpath(workdir)

    @pytest.mark.parametrize("broken_role,breakage,expected", [
        ("rewritten", with_missing_loader, FuncTest(TriState.NO, "ExecFailed")),
        ("original", with_missing_loader, FuncTest(TriState.NO, "OriginalUnusable")),
        ("rewritten", without_exec_bit, FuncTest(TriState.NO, "ExecFailed")),
        ("original", without_exec_bit, FuncTest(TriState.NO, "OriginalUnusable")),
    ], ids=["rewritten", "original", "rewritten_no_exec_bit", "original_no_exec_bit"])
    def test_missing_loader_is_an_outcome_of_the_test(self, hello_variants, tmp_path,
                                                     broken_role, breakage, expected):
        good = tmp_path / "good"
        shutil.copy2(hello_variants[0].path, good)
        broken = breakage(hello_variants[0].path, tmp_path / "broken")
        if broken_role == "rewritten":
            assert null_function_test(str(good), broken) == expected
        else:
            assert null_function_test(broken, str(good)) == expected


class TestAflFunctionTest:
    def test_driver_exit_zero_passes(self, tmp_path):
        target = script(tmp_path / "target", "exit 0")
        driver = script(tmp_path / "driver", 'test -x "$1"')
        assert afl_function_test(target, f"{driver} {{target}}") == FuncTest(TriState.YES)

    def test_driver_exit_one_fails(self, tmp_path):
        target = script(tmp_path / "target", "exit 0")
        driver = script(tmp_path / "driver", "exit 1")
        out = afl_function_test(target, f"{driver} {{target}}")
        assert out.result is TriState.NO
        assert "DriverExit" in out.annotation

    def test_driver_timeout(self, tmp_path):
        target = script(tmp_path / "target", "exit 0")
        driver = script(tmp_path / "driver", "sleep 5")
        out = afl_function_test(target, f"{driver} {{target}}", timeout_s=0.5)
        assert out == FuncTest(TriState.NO, "TimedOut")

    @pytest.mark.parametrize("template", ["", "  \t "])
    def test_blank_driver_template_raises(self, tmp_path, template):
        target = script(tmp_path / "target", "exit 0")
        with pytest.raises(SpawnError, match="^empty command template "):
            afl_function_test(target, template)

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "no_exec_bit"])
    def test_driver_that_cannot_be_executed_raises(self, tmp_path, exists):
        target = script(tmp_path / "target", "exit 0")
        driver = tmp_path / "driver"
        if exists:
            driver.write_text("#!/bin/sh\nexit 0\n")  # without the exec bit
        with pytest.raises(SpawnError):
            afl_function_test(target, f"{driver} {{target}}")

    @pytest.mark.parametrize("ending,timeout_s,expected", [
        ("wait", 0.5, FuncTest(TriState.NO, "TimedOut")),
        ("exit 0", 10, FuncTest(TriState.YES)),
    ], ids=["timeout", "exit0"])
    def test_backgrounded_children_die_with_the_driver(self, tmp_path, bg_pidfile,
                                                       ending, timeout_s, expected):
        target = script(tmp_path / "target", "exit 0")
        driver = script(tmp_path / "driver", f'sleep 30 & echo $! > "{bg_pidfile}"; {ending}')
        out = afl_function_test(target, f"{driver} {{target}}", timeout_s=timeout_s)
        assert out == expected
        assert process_gone(int(bg_pidfile.read_text())), "the driver's background sleep outlived it"


class TestCampaignStubs:
    """Campaign behaviour that needs only synthetic, non-runnable inputs."""

    def test_unrunnable_rewriter_is_a_per_run_spawn_error(self, elf_input, tmp_path):
        garbage = tmp_path / "garbage-tool"
        garbage.write_bytes(b"\x00\x01 not a program \xff\n")
        garbage.chmod(0o755)
        broken = ToolAdapter("broken", nop_command=f"{garbage} {{input}} {{output}}")
        records = run_campaign([ManifestEntry("bin", elf_input, variant())],
                               [broken, COPY], tasks=(Task.NOP,), timeout_s=30)
        by_tool = {r.tool_name: r for r in records}
        assert len(records) == 2
        assert by_tool["broken"].annotation.startswith("SpawnError")
        assert not by_tool["broken"].exe_ok
        assert by_tool["copytool"].exe_ok

    def test_function_tests_run_in_the_job_workdir(self, elf_input, tmp_path):
        seen = tmp_path / "cwd.txt"
        driver = script(tmp_path / "driver", f'pwd -P > "{seen}"')
        records = run_campaign([ManifestEntry("bin", elf_input, variant())], [COPY],
                               tasks=(Task.AFL,), timeout_s=30,
                               afl_driver=f"{driver} {{target}}")
        assert [r.func_ok for r in records] == [TriState.YES]
        assert os.path.basename(seen.read_text().strip()) == "bin__copytool__AFL"

    def test_kept_outputs_are_copied_for_exe_passing_jobs(self, elf_input, tmp_path):
        kept = tmp_path / "kept" / "sub"
        run_campaign([ManifestEntry("bin", elf_input, variant())], [COPY, FAIL],
                     tasks=(Task.NOP,), timeout_s=30, keep_outputs=str(kept))
        assert os.listdir(kept) == ["bin__copytool__NOP"]
        assert (kept / "bin__copytool__NOP").read_bytes() == open(elf_input, "rb").read()

    @pytest.mark.parametrize("repeated", ["tool_name", "task"])
    def test_shared_job_names_are_rejected_before_any_process_starts(
            self, elf_input, tmp_path, repeated):
        # two jobs with one job name would share a workdir and a kept output
        marker = tmp_path / "ran"
        tool = script(tmp_path / "tool", f'touch "{marker}"; cp "$1" "$2"')
        first = ToolAdapter("t", nop_command=f"{tool} {{input}} {{output}}")
        second = replace(first, nop_command="false {input} {output}")
        adapters, tasks = [first, second], (Task.NOP,)
        if repeated == "task":
            adapters, tasks = [first], (Task.NOP, Task.NOP)
        with pytest.raises(ValueError, match="duplicate job names"):
            run_campaign([ManifestEntry("bin", elf_input, variant())], adapters,
                         tasks=tasks, timeout_s=30)
        assert not marker.exists()

    @pytest.mark.parametrize("driver", ["x 'unclosed {target}", "", " "])
    def test_a_driver_that_does_not_split_is_rejected_before_any_process_starts(
            self, elf_input, tmp_path, driver):
        marker = tmp_path / "ran"
        tool = script(tmp_path / "tool", f'touch "{marker}"; cp "$1" "$2"')
        adapter = ToolAdapter("t", nop_command=f"{tool} {{input}} {{output}}",
                              afl_command=f"{tool} {{input}} {{output}}")
        with pytest.raises(ValueError, match="^'afl_driver' must be a command line"):
            run_campaign([ManifestEntry("bin", elf_input, variant())], [adapter],
                         tasks=(Task.AFL,), timeout_s=30, afl_driver=driver)
        assert not marker.exists()

    def test_an_empty_null_invocation_runs_both_binaries_without_arguments(self, tmp_path):
        # the original exits with its argument count; the rewriter puts true in its place
        argc = tmp_path / "argc"
        original = script(tmp_path / "original", f'echo $# > "{argc}"; exit $#')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": "bin", "path": original, "program": "p", "compiler": "gcc",
             "flags": "O0", "relocation": "pie", "symbols": "present", "os": "u20",
             "null_invocation": []}]))
        (entry,) = load_manifest(str(manifest))
        assert entry.null_invocation == ()
        swap = ToolAdapter("swap", nop_command=(
            f"sh -c 'cp {shutil.which('true')} \"$1\"' x {{output}} {{input}}"))
        (record,) = run_campaign([entry], [swap], tasks=(Task.NOP,), timeout_s=30)
        assert (record.exe_ok, record.func_ok) == (True, TriState.YES), record.annotation
        assert argc.read_text() == "0\n"

    def test_sigint_at_parallelism_1_leaves_no_tool_behind(self, elf_input, tmp_path,
                                                           bg_pidfile):
        tool = script(tmp_path / "tool", f'sleep 30 & echo $! > "{bg_pidfile}"; wait')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": "bin", "path": elf_input, "program": "p", "compiler": "gcc",
             "flags": "O0", "relocation": "pie", "symbols": "present", "os": "u20"}]))
        adapters = tmp_path / "adapters.json"
        adapters.write_text(json.dumps([
            {"tool_name": "slow", "nop_command": f"{tool} {{input}} {{output}}"}]))
        src = os.path.dirname(os.path.dirname(rweval.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rweval.cli", "run", "--manifest", str(manifest),
             "--adapters", str(adapters), "--out", str(tmp_path / "o.csv"),
             "--tasks", "NOP", "--parallelism", "1", "--timeout-s", "2"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            # an ignored SIGINT would be inherited, as under a background shell job
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 20
            while not (bg_pidfile.exists() and bg_pidfile.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline, \
                    "the tool never started"
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
            proc.wait()
        assert process_gone(int(bg_pidfile.read_text())), "the tool outlived the campaign"
        assert "Traceback" not in err
        assert (proc.returncode, err) == (130, "rweval: interrupted\n")


class TestCampaign:
    def manifest(self, hello_variants):
        a, b = hello_variants[0], hello_variants[1]
        return [
            ManifestEntry("bin-a", str(a.path), variant(program="hello")),
            ManifestEntry("bin-b", str(b.path), variant(program="hello")),
        ]

    def strip_timing(self, records):
        return sorted(
            (r.binary_id, r.tool_name, r.task.value, r.ir_ok.value, r.exe_ok,
             r.func_ok.value, r.output_size_bytes, r.annotation)
            for r in records
        )

    def test_cross_product_count(self, hello_variants):
        records = run_campaign(self.manifest(hello_variants), [COPY, FAIL],
                               parallelism=1, timeout_s=30)
        assert len(records) == 8
        keys = {(r.binary_id, r.tool_name, r.task.value) for r in records}
        assert len(keys) == 8

    def test_parallelism_does_not_change_results(self, hello_variants):
        m = self.manifest(hello_variants)
        seq = run_campaign(m, [COPY, FAIL], parallelism=1, timeout_s=30)
        par = run_campaign(m, [COPY, FAIL], parallelism=4, timeout_s=30)
        assert self.strip_timing(seq) == self.strip_timing(par)

    def test_differential_null_test_runs_in_campaign(self, hello_variants):
        records = run_campaign(self.manifest(hello_variants), [COPY],
                               tasks=(Task.NOP,), timeout_s=30)
        assert all(r.func_ok is TriState.YES for r in records)

    def test_afl_driver_wiring(self, hello_variants, tmp_path):
        driver = script(tmp_path / "driver", 'test -x "$1"')
        records = run_campaign(
            self.manifest(hello_variants), [COPY], tasks=(Task.AFL,),
            timeout_s=30, afl_driver=f"{driver} {{target}}",
        )
        assert all(r.func_ok is TriState.YES for r in records)

    def test_no_driver_leaves_afl_func_not_run(self, hello_variants):
        records = run_campaign(self.manifest(hello_variants), [COPY],
                               tasks=(Task.AFL,), timeout_s=30)
        assert all(r.exe_ok and r.func_ok is TriState.NA for r in records)

    def test_missing_input_is_isolated(self, hello_variants, tmp_path):
        entries = self.manifest(hello_variants) + [
            ManifestEntry("ghost", str(tmp_path / "missing"), variant())
        ]
        records = run_campaign(entries, [COPY], tasks=(Task.NOP,), timeout_s=30)
        by_id = {r.binary_id: r for r in records}
        assert "InputMissing" in by_id["ghost"].annotation
        assert by_id["bin-a"].exe_ok and by_id["bin-b"].exe_ok

    def test_monotonicity_holds_on_every_record(self, hello_variants):
        records = run_campaign(self.manifest(hello_variants),
                               [COPY, FAIL, LIFT, NO_IR], timeout_s=30)
        for r in records:
            if r.func_ok is TriState.YES:
                assert r.exe_ok
            if r.exe_ok:
                assert r.ir_ok in (TriState.YES, TriState.NA)

    def test_streaming_sees_every_record(self, hello_variants):
        seen = []
        records = run_campaign(self.manifest(hello_variants), [COPY, FAIL],
                               parallelism=4, timeout_s=30, on_record=seen.append)
        assert sorted(self.strip_timing(seen)) == sorted(self.strip_timing(records))

    def test_spawn_error_captured_per_run(self, hello_variants):
        ghost = ToolAdapter("ghost",
                            nop_command="definitely-not-a-command {input} {output}")
        records = run_campaign(self.manifest(hello_variants), [ghost],
                               tasks=(Task.NOP,), timeout_s=30)
        assert all("SpawnError" in r.annotation for r in records)
        assert all(not r.exe_ok for r in records)


class TestSerialization:
    def make_records(self):
        return [
            RunRecord("b1", variant(), "tool", Task.NOP, TriState.YES, True,
                      TriState.YES, 1.25, 2048, 1234),
            RunRecord("b2", variant(compiler="ollvm", flags="sub"), "tool",
                      Task.AFL, TriState.NA, False, TriState.NA, 0.0, 0, None),
            RunRecord("b3", None, "tool", Task.NOP, TriState.NO, False,
                      TriState.NO, 0.5, 100, None),
        ]

    def test_csv_round_trip(self, tmp_path):
        first = tmp_path / "first.csv"
        write_records_csv(self.make_records(), str(first))
        assert columns(load_records_csv(str(first))) == columns(
            Results.from_records(self.make_records()))

    def test_csv_header(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_records_csv(self.make_records(), path)
        with open(path) as f:
            header = f.readline().strip()
        assert header == ("binary_id,program,compiler,flags,relocation,symbols,os,"
                          "tool,task,ir,exe,func,runtime_s,mem_kb,out_size_bytes")

    def test_tristate_wire_values(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_records_csv(self.make_records(), path)
        rows = open(path).read().splitlines()
        assert rows[1].split(",")[9:12] == ["yes", "1", "yes"]
        assert rows[2].split(",")[9:12] == ["na", "0", "na"]

    def test_bad_relocation_value_rejected(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_records_csv(self.make_records()[:1], path)
        with open(path) as f:
            text = f.read()
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(",pie,", ",PIE,"))
        with pytest.raises(ValueError):
            load_records_csv(str(bad))

    @staticmethod
    def seeded_records(seed, n_binaries=9):
        """Records covering every Task and TriState value and both exe
        values; every third binary has no variant."""
        rng = random.Random(seed)
        records = []
        for i in range(n_binaries):
            v = None if i % 3 == 2 else variant(
                program=f"p{i}", compiler=rng.choice(["gcc", "clang", "icx"]),
                relocation=rng.choice(["pie", "nopie"]))
            for tool in ("alpha", "beta"):
                for task in Task:
                    ir = rng.choice(list(TriState))
                    exe = ir is not TriState.NO and rng.random() < 0.7
                    func = rng.choice(list(TriState) if exe else [TriState.NO, TriState.NA])
                    records.append(RunRecord(
                        f"b{i}", v, tool, task, ir, exe, func,
                        round(rng.uniform(0, 9), 6), rng.randrange(10**6),
                        rng.choice([None, rng.randrange(10**6)])))
        assert {r.ir_ok for r in records} == {r.func_ok for r in records} == set(TriState)
        assert {r.exe_ok for r in records} == {True, False}
        return records

    @pytest.mark.parametrize("layout", ["plain", "reordered", "extra_column", "blank_lines",
                                        "crlf_rows"])
    def test_loader_matches_dictreader_conversion(self, tmp_path, layout):
        records = self.seeded_records(seed=len(layout))
        header = list(RESULTS_COLUMNS)
        if layout == "reordered":
            random.Random(5).shuffle(header)
            assert header != list(RESULTS_COLUMNS)
        if layout == "extra_column":
            header.insert(8, "note")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        if layout == "crlf_rows":  # the header line ends in LF, each row in CRLF
            w = csv.writer(buf, lineterminator="\r\n")
        for i, r in enumerate(records):
            row = dict(zip(RESULTS_COLUMNS, record_to_row(r)), note=f"n,{i}")
            w.writerow([row[c] for c in header])
            if layout == "blank_lines" and i % 4 == 0:
                buf.write("\n")
        path = tmp_path / "results.csv"
        path.write_text(buf.getvalue())

        loaded = load_records_csv(str(path))
        with open(path, newline="") as f:
            assert columns(loaded) == columns(
                Results.from_records(map(row_to_record, csv.DictReader(f))))
        assert columns(loaded) == columns(Results.from_records(records))
        # one variant per binary id, and equal variants are one object
        shared = {}
        for v in filter(None, loaded.variants.values()):
            assert shared.setdefault(v, v) is v

    def bad_results(self, tmp_path, edit):
        """A three-record results CSV whose second record, on line 3, is
        passed through edit(cells)."""
        lines = [RESULTS_COLUMNS, *map(record_to_row, self.make_records())]
        lines[2] = edit(list(lines[2]))
        path = tmp_path / "bad.csv"
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        return str(path)

    @pytest.mark.parametrize("cut,message", [
        (12, "expected 15 fields, got 12"),
        (16, "expected 15 fields, got 16"),
    ])
    def test_wrong_field_count_names_its_line(self, tmp_path, cut, message):
        path = self.bad_results(tmp_path, lambda cells: (cells + ["x"])[:cut])
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            load_records_csv(path)

    @pytest.mark.parametrize("column,cell,message", [
        ("task", "nop", "unknown task 'nop'"),
        ("ir", "YES", "unknown ir value 'YES'"),
        ("func", "maybe", "unknown func value 'maybe'"),
        ("exe", "yes", "exe must be 0 or 1, got 'yes'"),
        ("exe", "", "exe must be 0 or 1, got ''"),
        ("runtime_s", "nan", "runtime nan is not finite"),
        ("runtime_s", "inf", "runtime inf is not finite"),
        ("runtime_s", "-1.0", "resource fields must be non-negative"),
        ("out_size_bytes", "-5", "resource fields must be non-negative"),
        ("out_size_bytes", "-1", "resource fields must be non-negative"),
        ("mem_kb", "lots", "invalid literal"),
    ])
    def test_malformed_cell_names_its_line(self, tmp_path, column, cell, message):
        index = RESULTS_COLUMNS.index(column)
        path = self.bad_results(
            tmp_path, lambda cells: cells[:index] + [cell] + cells[index + 1:])
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            load_records_csv(path)

    # b0/alpha/NOP passes, then fails; then b0 turns up as another variant
    CONFLICTING_ROWS = [
        "b0,p,gcc,O0,pie,present,u20,alpha,NOP,yes,1,yes,1.0,100,1000",
        "b0,p,gcc,O0,pie,present,u20,alpha,NOP,yes,0,no,1.0,100,1000",
        "b0,p,clang,O0,nopie,present,u20,beta,NOP,yes,1,yes,1.0,100,1000",
    ]

    @pytest.mark.parametrize("rows,message", [
        ((0, 1, 2), "repeated row for 'b0', tool 'alpha', task NOP"),
        ((0, 2), "binary 'b0' has a second variant"),
    ], ids=["repeated_triple", "second_variant"])
    def test_conflicting_rows_name_their_line(self, tmp_path, rows, message):
        path = tmp_path / "conflict.csv"
        path.write_text("\n".join(
            [",".join(RESULTS_COLUMNS), *(self.CONFLICTING_ROWS[i] for i in rows)]))
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            load_records_csv(str(path))

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("binary_id,tool\nx,y\n")
        with pytest.raises(ValueError):
            load_records_csv(str(path))

    def test_repeated_results_columns_rejected(self, tmp_path):
        # a repeated extra column is ignored like any other extra column
        row = record_to_row(self.make_records()[0])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join([*RESULTS_COLUMNS, "note", "tool", "note"]),
                                   ",".join([*row, "n", "beta", "n"])]))
        with pytest.raises(ValueError, match=r"^results CSV repeats columns \['tool'\]$"):
            load_records_csv(str(path))


def in_both_layouts(*cases):
    """Parameters for TestColumnarLoader: each case, a value or a tuple, under
    the "note" layout with the id pytest gives the case alone, then under the
    "canonical" layout with "-canonical" added to that id."""
    params = []
    for layout in ("note", "canonical"):
        for case in cases:
            values = case if isinstance(case, tuple) else (case,)
            case_id = "-".join(map(str, values))
            params.append(pytest.param(*values, layout, id=case_id if layout == "note"
                                       else f"{case_id}-canonical"))
    return params


class TestColumnarLoader:
    """load_records_csv reads CHUNK_ROWS rows at a time. These tests shrink
    the chunk, so that a dozen rows cross several chunk boundaries."""

    @staticmethod
    def rows(n=12, note="note", layout="note"):
        """n valid rows, binary b{i // 2} under tools alpha and beta. The
        "note" layout has a free-text note column after the standard ones;
        the "canonical" one, RESULTS_COLUMNS alone, has the note, without i,
        in every program cell."""
        noted = layout == "note"
        return [[f"b{i // 2}", "p" if noted else f"p {note}", "gcc", "O0", "pie", "present",
                 "u20", ("alpha", "beta")[i % 2], "NOP", "yes", "1", "yes", f"{i}.5", "100",
                 "1000", *([f"{note} {i}"] if noted else [])] for i in range(n)]

    @staticmethod
    def write(tmp_path, rows, layout="note"):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([*RESULTS_COLUMNS, *(["note"] if layout == "note" else [])])
        w.writerows(rows)
        path = tmp_path / "results.csv"
        path.write_bytes(buf.getvalue().encode())
        return str(path)

    @staticmethod
    def line_of(path, k):
        """The line on which non-blank data row k ends, as csv.reader counts."""
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = (reader.line_num for row in reader if row)
            next(rows)  # the header
            return next(itertools.islice(rows, k, None))

    BAD = {
        "exe": (lambda rows, k: rows[k].__setitem__(10, "yes"),
                "exe must be 0 or 1, got 'yes'"),
        "fields": (lambda rows, k: rows[k].pop(-2), "expected {} fields, got {}"),
        "repeat": (lambda rows, k: rows.__setitem__(k, [*rows[0][:10], "0", "no",
                                                        *rows[0][12:]]),
                   "repeated row for 'b0', tool 'alpha', task NOP"),
        "variant": (lambda rows, k: rows.__setitem__(k, [*rows[0][:2], "clang",
                                                         *rows[0][3:7], "gamma",
                                                         *rows[0][8:]]),
                    "binary 'b0' has a second variant"),
    }

    @staticmethod
    def message(kind, layout):
        """BAD[kind]'s message, for a row of the given layout."""
        width = len(RESULTS_COLUMNS) + (layout == "note")
        return TestColumnarLoader.BAD[kind][1].format(width, width - 1)

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("where,layout", in_both_layouts(
        "last_of_chunk", "first_of_next", "after_quoted_newline"))
    def test_error_line_at_chunk_boundaries(self, tmp_path, monkeypatch, kind, where,
                                            layout):
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        if where == "after_quoted_newline":
            rows, k = self.rows(note="two\nlines, \r\nthree", layout=layout), 6
            rows.insert(5, [])  # a blank line: skipped, but counted
        else:
            rows, k = self.rows(layout=layout), {"last_of_chunk": 3, "first_of_next": 4}[where]
        edit, message = self.BAD[kind][0], self.message(kind, layout)
        edit(rows, k + (where == "after_quoted_newline"))
        path = self.write(tmp_path, rows, layout)
        line = {"last_of_chunk": 5, "first_of_next": 6, "after_quoted_newline": 23}[where]
        assert self.line_of(path, k) == line
        with pytest.raises(ValueError, match=f"^line {line}: {re.escape(message)}$"):
            load_records_csv(path)

    @pytest.mark.parametrize("first,second,layout", in_both_layouts(
        ("repeat", "exe"), ("exe", "fields"), ("fields", "variant"), ("variant", "exe"),
    ))
    def test_first_bad_row_of_a_chunk_wins(self, tmp_path, monkeypatch, first, second,
                                           layout):
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        rows = self.rows(layout=layout)
        self.BAD[second][0](rows, 6)
        self.BAD[first][0](rows, 5)
        message = re.escape(self.message(first, layout))
        with pytest.raises(ValueError, match=f"^line 7: {message}$"):
            load_records_csv(self.write(tmp_path, rows, layout))

    @pytest.mark.parametrize("bad_row,message,layout", in_both_layouts(
        (None, "line 9: field larger than field limit"),
        (6, "line 8: exe must be 0 or 1"),  # before the long field, same chunk
        (2, "line 4: exe must be 0 or 1"),  # an earlier chunk
    ))
    def test_a_reader_error_comes_after_the_rows_before_it(self, tmp_path, monkeypatch,
                                                           bad_row, message, layout):
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        rows = self.rows(layout=layout)
        rows[7][-1] = "x" * (csv.field_size_limit() + 1)
        if bad_row is not None:
            self.BAD["exe"][0](rows, bad_row)
        with pytest.raises(ValueError, match=f"^{message}"):
            load_records_csv(self.write(tmp_path, rows, layout))

    @pytest.mark.parametrize("ending,line", [("", 2), ("\n", 3), ("\r\n", 3)])
    def test_a_quote_open_at_the_end_names_the_last_line(self, tmp_path, ending, line):
        path = tmp_path / "results.csv"
        path.write_bytes(f"{','.join(RESULTS_COLUMNS)}\n\"open,\n{ending}".encode())
        assert self.line_of(path, 0) == line
        with pytest.raises(ValueError, match=f"^line {line}: expected 15 fields, got 1$"):
            load_records_csv(str(path))

    @pytest.mark.parametrize("chunk_rows", [1, 3, 4, 512])
    def test_every_chunk_size_loads_the_same_records(self, tmp_path, monkeypatch,
                                                     chunk_rows):
        monkeypatch.setattr(harness, "CHUNK_ROWS", chunk_rows)
        rows = self.rows(note="a\nb")
        rows[3:3] = [[], []]
        rows[7][-2] = ""  # no output size
        path = self.write(tmp_path, rows)
        with open(path, newline="") as f:
            want = [row_to_record(row) for row in csv.DictReader(f) if row["binary_id"]]
        assert columns(load_records_csv(path)) == columns(Results.from_records(want))
        assert len(want) == 12

    def test_columns_are_typed_and_share_their_strings(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_ROWS", 3)
        rows = self.rows()
        rows[1][-2] = ""
        rows[5][8:12] = ["AFL", "na", "0", "no"]
        results = load_records_csv(self.write(tmp_path, rows))
        assert len(results) == 12
        assert results.binary_ids[0] is results.binary_ids[1]
        assert results.tools[0] is results.tools[10]
        assert type(results.states) is bytearray
        assert [harness.STATES[code] for code in results.states] == [
            (Task.AFL, TriState.NA, False, TriState.NO) if i == 5
            else (Task.NOP, TriState.YES, True, TriState.YES) for i in range(12)]
        assert results.runtime_s == array("d", [i + 0.5 for i in range(12)])
        assert results.mem_kb == array("q", [100] * 12)
        assert results.out_size == array("q", [1000, -1, *[1000] * 10])
        assert list(results.variants) == [f"b{i}" for i in range(6)]
        assert len({id(v) for v in results.variants.values()}) == 1
        assert results.variants["b0"] == VariantConfig("p", "gcc", "O0", "pie", "present",
                                                       "u20")

    @pytest.mark.parametrize("column,layout", in_both_layouts("mem_kb", "out_size_bytes"))
    def test_integers_of_2_63_or_more_name_their_line(self, tmp_path, column, layout):
        rows = self.rows(layout=layout)
        index = RESULTS_COLUMNS.index(column)
        rows[4][index] = str((1 << 63) - 1)
        results = load_records_csv(self.write(tmp_path, rows, layout))
        assert (1 << 63) - 1 in (*results.mem_kb, *results.out_size)
        rows[4][index] = str(1 << 63)
        with pytest.raises(ValueError, match=(
                r"^line 6: mem_kb and out_size_bytes must be below 2\*\*63$")):
            load_records_csv(self.write(tmp_path, rows, layout))

    def test_results_hold_at_most_64_bytes_per_row(self, tmp_path):
        # paper-like shape: 20 rows (10 tools x 2 tasks) per binary
        rng = random.Random(17)
        lines = [",".join(RESULTS_COLUMNS)]
        for b in range(150):
            for tool in range(10):
                for task in ("NOP", "AFL"):
                    exe = rng.random() < 0.7
                    lines.append(",".join([
                        f"bin{b}", f"p{b % 7}", "gcc", "O2", "pie", "present", "u20",
                        f"tool{tool}", task, "yes" if exe else "na", "1" if exe else "0",
                        rng.choice(["yes", "no"]) if exe else "na",
                        f"{rng.uniform(0, 9):.6f}", str(rng.randrange(10**6)),
                        str(rng.randrange(10**6)) if exe else ""]))
        path = tmp_path / "results.csv"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = load_records_csv(str(path))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == 3000
        assert held / len(results) <= 64

    @staticmethod
    def rowwise_error(path):
        """The error of the first bad row of a results CSV that csv.reader
        alone reads row by row, with the line it names; None when no row is
        bad."""
        with open(path, newline="") as f:
            reader = csv.reader(f)
            records = []
            try:
                header = next(reader)
                for row in filter(None, reader):
                    try:
                        if len(row) != len(header):
                            raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                        records.append(row_to_record(dict(zip(header, row))))
                        Results.from_records(records)
                    except ValueError as e:
                        return f"line {reader.line_num}: {e}"
            except csv.Error as e:
                return f"line {reader.line_num}: {e}"
        return None

    VARIANTS = [("p", "gcc", "O0", "pie", "present", "u20"),
                ("p", "clang", "O2", "nopie", "present", "u20"), ("",) * 6]
    STATES = [("yes", "1", "yes"), ("na", "1", "no"), ("no", "0", "na"), ("yes", "0", "no")]

    @staticmethod
    @st.composite
    def results_texts(draw):
        """A results CSV with the header results_writer writes: rows of a few
        binaries, tools and tasks, some of them repeated or bad, some quoted
        and some not, with cells of ',', '"', CR, LF and NUL, sizes of -1 or
        2**63, and blank lines."""
        cls, lines = TestColumnarLoader, [",".join(RESULTS_COLUMNS)]
        variants = draw(st.lists(st.sampled_from(cls.VARIANTS), min_size=1, max_size=3))
        for _ in range(draw(st.integers(0, 14))):
            b = draw(st.integers(0, len(variants) - 1))
            cells = [f"b{b % 2}", *variants[b],
                     draw(st.sampled_from(["alpha", "beta", "a,b"])),
                     draw(st.sampled_from(["NOP", "AFL"])), *draw(st.sampled_from(cls.STATES)),
                     draw(st.sampled_from(["1.5", "0"])), "100",
                     draw(st.sampled_from(["", "7", str((1 << 63) - 1)]))]
            if draw(st.integers(0, 3)) == 0:
                cells[draw(st.integers(0, 14))] = draw(st.text(',"\r\n\0a1', max_size=3))
            elif draw(st.integers(0, 7)) == 0:  # mem_kb or out_size_bytes
                cells[draw(st.sampled_from([13, 14]))] = draw(
                    st.sampled_from(["-1", str(1 << 63)]))
            if draw(st.booleans()):
                buf = io.StringIO()
                csv.writer(buf, lineterminator="").writerow(cells)
                lines.append(buf.getvalue())
            else:
                lines.append(",".join(cells))
            if draw(st.integers(0, 4)) == 0:
                lines.append("")
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))

    @settings(max_examples=150, deadline=None)
    @given(text=results_texts(), chunk_rows=st.sampled_from([1, 2, 3, 512]))
    def test_split_and_csv_reader_load_alike(self, tmp_path_factory, text, chunk_rows):
        path = tmp_path_factory.getbasetemp() / "split-or-reader.csv"
        path.write_bytes(text.encode())
        error = self.rowwise_error(path)
        saved, harness.CHUNK_ROWS = harness.CHUNK_ROWS, chunk_rows
        try:
            if error is None:
                with open(path, newline="") as f:
                    want = Results.from_records(map(row_to_record, csv.DictReader(f)))
                assert columns(load_records_csv(str(path))) == columns(want)
            else:
                with pytest.raises(ValueError) as raised:
                    load_records_csv(str(path))
                assert str(raised.value) == error
        finally:
            harness.CHUNK_ROWS = saved

    def test_files_as_written_are_split_without_csv_reader(self, tmp_path, monkeypatch):
        yielded = []

        class CountingReader:
            def __init__(self, *args, **kwargs):
                self.reader = real_reader(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                yielded.append(next(self.reader))
                return yielded[-1]

            @property
            def line_num(self):
                return self.reader.line_num

        real_reader = csv.reader
        monkeypatch.setattr(harness.csv, "reader", CountingReader)
        monkeypatch.setattr(harness, "CHUNK_ROWS", 5)
        records = TestSerialization.seeded_records(seed=8)
        path = str(tmp_path / "results.csv")
        write_records_csv(records, path)
        assert columns(load_records_csv(path)) == columns(Results.from_records(records))
        assert len(yielded) <= 1  # at most the header
        # a quoted cell in the fourth chunk: csv.reader reads from there on
        records[17] = replace(records[17], tool_name="a,b")
        write_records_csv(records, path)
        assert columns(load_records_csv(path)) == columns(Results.from_records(records))
        assert len(yielded) == len(records) - 3 * 5

    def test_from_records_round_trips_and_checks_rows(self):
        records = TestSerialization.seeded_records(seed=3)
        results = Results.from_records(records)
        rows = zip(results.binary_ids, map(results.variants.__getitem__, results.binary_ids),
                   results.tools, map(harness.STATES.__getitem__, results.states),
                   results.runtime_s, results.mem_kb, results.out_size)
        assert [RunRecord(b, v, tool, *state, runtime, mem, None if size < 0 else size)
                for b, v, tool, state, runtime, mem, size in rows] == records
        assert -1 in results.out_size  # some records have no output size
        assert columns(Results.from_records([])) == columns(Results())
        repeat = replace(records[0], exe_ok=False, func_ok=TriState.NO)
        with pytest.raises(ValueError, match=(
                f"^repeated row for 'b0', tool 'alpha', task {records[0].task.value}$")):
            Results.from_records([*records, repeat])
        other = replace(records[0], variant=variant(compiler="icx", program="other"),
                        tool_name="gamma")
        with pytest.raises(ValueError, match="^binary 'b0' has a second variant$"):
            Results.from_records([*records, other])

    @staticmethod
    def not_utf8(path):
        """The file at path with each "@" made byte 0xff, and the message that
        names the first such byte's line and its position in that line."""
        with open(path, "rb") as f:
            data = f.read().replace(b"@", b"\xff")
        with open(path, "wb") as f:
            f.write(data)
        # the line breaks of open(newline=""): LF, CR and CRLF
        before = re.split(rb"\r\n|\r|\n", data[:data.index(b"\xff")])
        return (f"line {len(before)}: 'utf-8' codec can't decode byte 0xff in position "
                f"{len(before[-1])}: invalid start byte")

    @pytest.mark.parametrize("other,layout", in_both_layouts("none", "before", "after"))
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, monkeypatch, other,
                                                      layout):
        # rows 4 to 7 are one chunk: a malformed row before the byte is named
        # first, one after it is not
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        rows = self.rows(layout=layout)
        rows[5][6] += "@"
        if other != "none":
            self.BAD["exe"][0](rows, {"before": 4, "after": 6}[other])
        path = self.write(tmp_path, rows, layout)
        message = self.not_utf8(path)
        assert message.startswith("line 7: ")
        if other == "before":
            message = "line 6: exe must be 0 or 1, got 'yes'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_records_csv(path)

    @pytest.mark.parametrize("where", ["header", "after_quoted_newline"])
    def test_a_byte_that_is_not_utf8_names_its_line_as_csv_reader_counts(
            self, tmp_path, where):
        rows = self.rows(note="two\nlines, \r\nthree\rfour")
        if where == "header":
            path = self.write(tmp_path, rows)
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(data.replace(b"note", b"n@te", 1))
        else:
            rows[3][-1] += "@"  # in the last of the note's four lines
            path = self.write(tmp_path, rows)
        message = self.not_utf8(path)
        line = {"header": 1, "after_quoted_newline": 17}[where]
        assert message.startswith(f"line {line}: ")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_records_csv(path)

    @pytest.mark.parametrize("layout", ["canonical", "note", "quoted"])
    def test_a_pipe_loads_as_the_file_does(self, tmp_path, layout):
        rows = self.rows(layout="note" if layout == "note" else "canonical")
        if layout == "quoted":
            rows[7][7] = "be,ta"
        path = self.write(tmp_path, rows, "note" if layout == "note" else "canonical")
        with open(path, "rb") as f:
            data = f.read()
        assert len(data) < 1 << 12  # fits in a pipe's buffer
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            piped = load_records_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert columns(piped) == columns(load_records_csv(path))
        assert len(piped) == 12

    def test_a_header_csv_reader_rejects_names_line_1(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(",".join([*RESULTS_COLUMNS, "x" * (csv.field_size_limit() + 1)]) + "\n")
        with pytest.raises(ValueError, match="^line 1: field larger than field limit"):
            load_records_csv(str(path))


def loaded(results) -> tuple:
    """results' columns, its variants in order, and whether equal binary ids,
    tools and variants are each one object: two loads are the same when these
    are."""
    variants = list(results.variants.values())
    return (columns(results), list(results.variants),
            [len(set(map(id, values))) == len(set(values))
             for values in (results.binary_ids, results.tools, variants)])


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="a load is cut into parts only where it can fork")
class TestPartLoader:
    """load_records_csv cuts a file with results_writer's header into one
    part per usable CPU, each at least MIN_PART_BYTES long, and splits each
    part after the first in a forked child. These tests make MIN_PART_BYTES
    1 and set the CPU count, so that a few rows make several parts."""

    @staticmethod
    @contextlib.contextmanager
    def cpus(n):
        """Loads in up to n parts, one when n is 1; yields the list of what
        each _merge_part call returned."""
        saved = harness.MIN_PART_BYTES, os.sched_getaffinity, harness._merge_part
        merged = []

        def merge(*args):
            merged.append(saved[2](*args))
            return merged[-1]

        harness.MIN_PART_BYTES = 1 if n > 1 else 1 << 62
        os.sched_getaffinity = lambda pid: set(range(n))
        harness._merge_part = merge
        try:
            yield merged
        finally:
            harness.MIN_PART_BYTES, os.sched_getaffinity, harness._merge_part = saved

    @classmethod
    def outcome(cls, path, n):
        """What load_records_csv gives in up to n parts, loaded() or the
        error text, with the _merge_part results."""
        with cls.cpus(n) as merged:
            try:
                return loaded(load_records_csv(str(path))), merged
            except ValueError as e:
                return str(e), merged

    @staticmethod
    def lines(n=20):
        """n rows as results_writer writes them, four per binary: b0, b1, ...
        under tools alpha and beta and both tasks."""
        return [",".join([f"b{i // 4}", *TestColumnarLoader.VARIANTS[0],
                          ("alpha", "beta")[i % 2], ("NOP", "AFL")[i // 2 % 2],
                          "yes", "1", "yes", f"{i}.5", "100", "1000"]).encode()
                for i in range(n)]

    @staticmethod
    def write(tmp_path, lines, end=b"\n"):
        path = tmp_path / "results.csv"
        path.write_bytes(b"\n".join([",".join(RESULTS_COLUMNS).encode(), *lines]) + end)
        return path

    @staticmethod
    def cuts(path, n):
        """The (last, first) lines on either side of each cut of n parts."""
        data = path.read_bytes()
        with open(path, "rb") as f, TestPartLoader.cpus(n):
            f.readline()
            starts = harness._part_starts(f, n)
        return [(data[:start].split(b"\n")[-2], data[start:].split(b"\n")[0])
                for start in starts[1:]]

    def edit(self, case, lines):
        """lines with case's change: (the new lines, whether they load in
        parts, the first line of the message when they are malformed)."""
        if case == "repeat_across":  # rows 0 and 20 are b0, alpha, NOP
            return [*lines, lines[0].replace(b",yes,1,yes,", b",yes,0,no,")], False, (
                "line 22: repeated row for 'b0', tool 'alpha', task NOP")
        if case == "variant_across":
            variant = b",".join(s.encode() for s in TestColumnarLoader.VARIANTS[1])
            return [*lines, b"b0," + variant + lines[0][lines[0].index(b",alpha"):]
                    .replace(b"alpha", b"gamma")], False, (
                "line 22: binary 'b0' has a second variant")
        late = {"quote_late": (b",p,", b',"p",'), "nul_late": (b",beta,", b",be\0ta,"),
                "cr_late": (b"1000", b"1000\r"), "not_utf8_late": (b",p,", b",p\xff,")}
        if case in late:
            lines[-1] = lines[-1].replace(*late[case])
            return lines, False, "line 21: 'utf-8' codec" if case == "not_utf8_late" else None
        if case == "blank_at_cut":  # a blank line on one side of every cut
            return [cut for line in lines for cut in (line, b"", b"")], True, None
        return lines, True, None  # straddle and no_final_newline

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", [
        "straddle", "repeat_across", "variant_across", "quote_late", "cr_late", "nul_late",
        "not_utf8_late", "blank_at_cut", "no_final_newline", "header_only"])
    def test_parts_load_as_one_part(self, tmp_path, case, n):
        if case == "header_only":
            lines, split, error = [], False, None
        else:
            lines, split, error = self.edit(case, self.lines())
        path = self.write(tmp_path, lines, b"" if case == "no_final_newline" else b"\n")
        cuts = self.cuts(path, n)
        assert len(cuts) == (0 if case == "header_only" else n - 1)
        if case == "straddle":
            assert any(last[:3] == first[:3] for last, first in cuts)
        if case == "blank_at_cut":
            assert any(b"" in cut for cut in cuts)
        one, _ = self.outcome(path, 1)
        many, merged = self.outcome(path, n)
        assert many == one
        assert (merged == [True] * (n - 1)) == split
        if error is None:
            assert not isinstance(one, str)
        else:
            assert one.startswith(error)

    @staticmethod
    @st.composite
    def part_files(draw):
        """A results file with results_writer's header: rows of four binaries,
        two tools and two tasks, mostly in order, some repeating a triple or
        giving a binary a second variant, a few with a quoted cell, a CR, a
        NUL, a byte that is not UTF-8 or a negative size, and blank lines."""
        triples = list(itertools.product(range(4), ("alpha", "beta"), ("NOP", "AFL")))
        lines, rows = [",".join(RESULTS_COLUMNS).encode()], draw(st.integers(0, 16))
        odd_row = draw(st.integers(0, 3 * rows))  # none when past the last row
        for i in range(rows):
            b, tool, task = (draw(st.sampled_from(triples)) if draw(st.integers(0, 19)) == 0
                             else triples[i])
            second = draw(st.integers(0, 19)) == 0
            cells = [f"b{b}", *TestColumnarLoader.VARIANTS[(b + second) % 2], tool, task,
                     *draw(st.sampled_from(TestColumnarLoader.STATES)), f"{i}.5", "100"]
            size = (draw(st.sampled_from([b'"7"', b"7\r", b"7\0", b"7\xff", b"-1"]))
                    if i == odd_row else b"7")
            lines.append(",".join(cells).encode() + b"," + size)
            if draw(st.integers(0, 5)) == 0:
                lines.append(b"")
        return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))

    @settings(max_examples=150, deadline=None)
    @given(data=part_files(), n=st.sampled_from([2, 3, 4]),
           chunk_rows=st.sampled_from([1, 2, 512]))
    def test_parts_and_one_part_load_alike(self, tmp_path_factory, data, n, chunk_rows):
        path = tmp_path_factory.getbasetemp() / "parts.csv"
        path.write_bytes(data)
        saved, harness.CHUNK_ROWS = harness.CHUNK_ROWS, chunk_rows
        try:
            assert self.outcome(path, n)[0] == self.outcome(path, 1)[0]
        finally:
            harness.CHUNK_ROWS = saved

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("bad_row", [None, 0, -1], ids=["valid", "parent", "child"])
    def test_no_process_outlives_a_load(self, tmp_path, bad_row):
        lines = self.lines()
        if bad_row is not None:  # row 0 is in this process's part, row 19 in the child's
            lines[bad_row] = lines[bad_row].replace(b",yes,1,yes,", b",yes,yes,yes,")
        path = self.write(tmp_path, lines)
        with self.cpus(2) as merged:
            if bad_row is None:
                assert len(load_records_csv(str(path))) == 20
                assert merged == [True]
            else:
                with pytest.raises(ValueError, match=(
                        f"^line {2 + bad_row % 20}: exe must be 0 or 1, got 'yes'$")):
                    load_records_csv(str(path))
        self.assert_no_child_left()

    def test_no_process_outlives_an_interrupted_load(self, tmp_path, monkeypatch):
        parent, checked, fork = os.getpid(), harness._checked_columns, os.fork
        forked = []

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return checked(*args)

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def hung(signum, frame):
            raise TimeoutError("the load waits for its child")

        monkeypatch.setattr(harness, "_checked_columns", interrupted)
        monkeypatch.setattr(os, "fork", counted_fork)
        # the child's columns outgrow a pipe's buffer, so it waits to write
        # them until it is killed
        path = self.write(tmp_path, self.lines(4000))
        saved = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with self.cpus(2), pytest.raises(KeyboardInterrupt):
                load_records_csv(str(path))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, saved)
        assert len(forked) == 1
        self.assert_no_child_left()

    @staticmethod
    def alive(pid):
        """Whether pid runs: an exited child of a dead parent is gone, or a
        zombie until init reaps it."""
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
    def test_a_child_outlives_no_killed_load(self, tmp_path):
        # The loading process stalls in its own part and is SIGKILLed, so no
        # finally runs; its child, whose columns outgrow a pipe's buffer,
        # must then fail to write them and exit.
        path = self.write(tmp_path, self.lines(20000))
        code = (
            "import os, sys, time\n"
            "from rweval import harness\n"
            "harness.MIN_PART_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "parent, fork, checked = os.getpid(), os.fork, harness._checked_columns\n"
            "def reported_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "def stalled(*args):\n"
            "    if os.getpid() == parent:\n"
            "        time.sleep(60)\n"
            "    return checked(*args)\n"
            "os.fork, harness._checked_columns = reported_fork, stalled\n"
            "harness.load_records_csv(sys.argv[1])\n")
        src = os.path.dirname(os.path.dirname(rweval.__file__))
        load = subprocess.Popen([sys.executable, "-c", code, str(path)],
                                stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        child = None
        try:
            child = int(load.stdout.readline())
            time.sleep(0.5)  # the child splits its part and waits on the full pipe
            load.kill()
            load.wait()
            deadline = time.monotonic() + 10
            while self.alive(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not self.alive(child)
        finally:
            load.kill()
            load.wait()
            load.stdout.close()
            if child is not None and self.alive(child):
                os.kill(child, signal.SIGKILL)

    def test_every_part_is_of_the_file_opened(self, tmp_path, monkeypatch):
        # a writer replaces the file by rename after the load opened it
        path = self.write(tmp_path, self.lines())
        one, _ = self.outcome(path, 1)
        other = tmp_path / "other.csv"
        other.write_bytes(path.read_bytes().replace(b"b", b"bin"))
        fork = os.fork

        def replacing_fork():
            if other.exists():
                os.replace(other, path)
            return fork()

        monkeypatch.setattr(os, "fork", replacing_fork)
        many, merged = self.outcome(path, 2)
        assert not other.exists()
        assert many == one
        assert merged == [True]

    def test_a_load_beside_another_thread_forks_nothing(self, tmp_path, monkeypatch):
        # a child forked beside a running thread could inherit a lock it holds
        path = self.write(tmp_path, self.lines())
        one, _ = self.outcome(path, 1)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            many, merged = self.outcome(path, 2)
        finally:
            release.set()
            waiting.join()
        assert (many, merged, forks) == (one, [], [])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    @pytest.mark.parametrize("forks_before_failing", [0, 1])
    def test_a_load_that_cannot_fork_loads_as_one_part(self, tmp_path, monkeypatch,
                                                       forks_before_failing):
        path = self.write(tmp_path, self.lines())
        one, _ = self.outcome(path, 1)
        forked, fork = [], os.fork

        def failing_fork():
            if len(forked) == forks_before_failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = os.listdir("/proc/self/fd")
        # 1 + forks_before_failing children are wanted; the last one fails
        many, merged = self.outcome(path, 2 + forks_before_failing)
        assert os.listdir("/proc/self/fd") == fds
        assert (many, merged, len(forked)) == (one, [], forks_before_failing)
        self.assert_no_child_left()


class TestRangeLines:
    """_range_lines yields the lines of a byte range of a file, as
    readlines() of those bytes gives them."""

    @pytest.fixture(scope="class")
    def lines_file(self, tmp_path_factory):
        """About 200 KiB of lines of 0 to 600 bytes, a CR inside some, one
        line longer than a 64 KiB block, and no final line break."""
        rng = random.Random(7)
        lines = [bytes(rng.choice(b"abc,\r") for _ in range(rng.randrange(600))) + b"\n"
                 for _ in range(450)]
        lines.insert(200, b"x" * 70_000 + b"\n")
        path = tmp_path_factory.mktemp("range") / "lines"
        path.write_bytes(b"".join(lines) + b"no final line break")
        return path

    @staticmethod
    def ranges(data):
        """(start, end) of each case, each range starting a line."""
        starts = [0, *(i + 1 for i, byte in enumerate(data) if byte == ord("\n"))]
        boundary = 2 << 16  # of the second block read from offset 0
        # the line that straddles it starts at `line` and ends at `after`
        line = max(s for s in starts if s <= boundary)
        after = min(s for s in starts if s > boundary)
        assert line < boundary < after - 1
        return {
            "end_inside_a_line_across_a_block": (0, after - 1),
            "end_on_a_block_boundary": (starts[3], starts[3] + boundary),
            "last_without_final_newline": (starts[300], None),
            "whole_file": (0, None),
            "empty": (starts[40], starts[40]),
        }

    @pytest.mark.parametrize("case", [
        "end_inside_a_line_across_a_block", "end_on_a_block_boundary",
        "last_without_final_newline", "whole_file", "empty"])
    def test_lines_equal_readlines_of_the_range(self, lines_file, case):
        data = lines_file.read_bytes()
        start, end = self.ranges(data)[case]
        expected = io.BytesIO(data[start:end]).readlines()
        with open(lines_file, "rb") as f:
            assert list(harness._range_lines(f.fileno(), start, end)) == expected
            assert f.tell() == 0  # read by offset
        if case == "last_without_final_newline":
            assert expected[-1] == b"no final line break"

    def test_a_line_of_many_blocks(self, tmp_path):
        # a 1 MiB line is carried across 16 blocks before its line break
        data = b"a,b\n" + b"x" * (1 << 20) + b"\n" + b"y" * (3 << 16) + b"\nlast"
        path = tmp_path / "long"
        path.write_bytes(data)
        with open(path, "rb") as f:
            for start, end in [(0, None), (4, None), (0, len(data) - 4), (4, 4 + (1 << 20))]:
                expected = io.BytesIO(data[start:end]).readlines()
                lines = list(harness._range_lines(f.fileno(), start, end))
                assert lines == expected
                assert set(map(type, lines)) == {bytes}


class TestConfigLoaders:
    def test_manifest_round_trip(self, tmp_path):
        entries = [
            {"id": "a", "path": "/bin/a", "program": "p", "compiler": "gcc",
             "flags": "O0", "relocation": "pie", "symbols": "present",
             "os": "u20", "null_invocation": ["--version"]},
            {"id": "b", "path": "/bin/b", "program": "p", "compiler": "icx",
             "flags": "Ofast", "relocation": "nopie", "symbols": "stripped",
             "os": "u20"},
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        loaded = load_manifest(str(path))
        assert loaded[0].null_invocation == ("--version",)
        assert loaded[1].variant.relocation == "nopie"
        assert loaded[1].null_invocation == ("--help",)

    @pytest.mark.parametrize("field,bad", [("relocation", "partially"),
                                           ("symbols", "some"), ("program", 5)])
    def test_manifest_bad_relocation(self, tmp_path, field, bad):
        entry = {"id": "a", "path": "/bin/a", "program": "p", "compiler": "gcc",
                 "flags": "O0", "relocation": "pie", "symbols": "present",
                 "os": "u20"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{**entry, field: bad}]))
        with pytest.raises(ValueError):
            load_manifest(str(path))

    def test_manifest_duplicate_ids(self, tmp_path):
        entry = {"id": "a", "path": "/bin/a", "program": "p", "compiler": "gcc",
                 "flags": "O0", "relocation": "pie", "symbols": "present",
                 "os": "u20"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(ValueError):
            load_manifest(str(path))

    def test_adapters_round_trip(self, tmp_path):
        path = tmp_path / "adapters.json"
        path.write_text(json.dumps([
            {"tool_name": "t", "emits_ir": True,
             "nop_command": "t {input} {output}",
             "afl_command": "t --afl {input} {output}",
             "ir_artifact_glob": "*.ir"},
        ]))
        (adapter,) = load_adapters(str(path))
        assert adapter.emits_ir and adapter.ir_artifact_glob == "*.ir"

    @pytest.mark.parametrize("bad_id", ["../x", "a/b", "..", ".", "", "a__b"])
    def test_manifest_ids_are_single_names_without_separator(self, tmp_path, bad_id):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{
            "id": bad_id, "path": "/bin/a", "program": "p", "compiler": "gcc",
            "flags": "O0", "relocation": "pie", "symbols": "present", "os": "u20"}]))
        with pytest.raises(ValueError):
            load_manifest(str(path))

    @pytest.mark.parametrize("bad_name", ["../t", "t/u", "b__c", ""])
    def test_tool_names_are_single_names_without_separator(self, tmp_path, bad_name):
        path = tmp_path / "adapters.json"
        path.write_text(json.dumps([
            {"tool_name": bad_name, "nop_command": "t {input} {output}"},
        ]))
        with pytest.raises(ValueError):
            load_adapters(str(path))

    @pytest.mark.parametrize("config,field,bad,code", [
        ("manifest", "null_invocation", "--version", 2),
        ("manifest", "null_invocation", ["--version", 1], 2),
        ("adapters", "emits_ir", "false", 3),
        ("adapters", "emits_ir", 0, 3),
        ("manifest", "path", 5, 2),
        ("manifest", "path", "", 2),
        ("manifest", "id", 5, 2),
        ("adapters", "tool_name", 5, 3),
        ("adapters", "nop_command", ["cp", "{input}", "{output}"], 3),
        ("adapters", "afl_command", ["cp", "{input}", "{output}"], 3),
        ("adapters", "ir_artifact_glob", 5, 3),
        # emits_ir restates whether there is an ir_artifact_glob: both must agree
        ("adapters", "emits_ir", True, 3),
        ("adapters", "ir_artifact_glob", "*.ir", 3),
        ("manifest", "program", 5, 2),
        ("manifest", "os", ["u20"], 2),
        # a template must split as shlex splits a command line
        ("adapters", "nop_command", "cp '{input} {output}", 3),
        ("adapters", "afl_command", "cp {input} {output} \\", 3)])
    def test_field_of_the_wrong_json_type(self, tmp_path, capsys, config, field, bad, code):
        from rweval.cli import main

        manifest = {"id": "a", "path": "/bin/a", "program": "p", "compiler": "gcc",
                    "flags": "O0", "relocation": "pie", "symbols": "present", "os": "u20"}
        adapter = {"tool_name": "t", "emits_ir": False, "nop_command": "t {input} {output}"}
        (manifest if config == "manifest" else adapter)[field] = bad
        for name, obj in (("manifest", manifest), ("adapters", adapter)):
            (tmp_path / f"{name}.json").write_text(json.dumps([obj]))
        loader = load_manifest if config == "manifest" else load_adapters
        with pytest.raises(ValueError, match=f"entry 0: '{field}' must be"):
            loader(str(tmp_path / f"{config}.json"))
        assert main(["run", "--manifest", str(tmp_path / "manifest.json"),
                     "--adapters", str(tmp_path / "adapters.json"),
                     "--out", str(tmp_path / "out.csv")]) == code
        assert f"entry 0: '{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("config,entry,message,code", [
        ("manifest", 5, "must be a JSON object, got 5", 2),
        ("adapters", ["t"], "must be a JSON object, got ['t']", 3),
        ("manifest", {"id": "a", "path": "/bin/a", "program": "p", "compiler": "gcc",
                      "flags": "O0", "relocation": "pie", "symbols": "present"},
         "missing key 'os'", 2),
        ("adapters", {"tool_name": "t"}, "missing key 'nop_command'", 3)])
    def test_entry_that_is_not_an_object_or_lacks_a_key(self, tmp_path, capsys, config,
                                                        entry, message, code):
        from rweval.cli import main

        configs = {"manifest": {"id": "a", "path": "/bin/a", "program": "p",
                                "compiler": "gcc", "flags": "O0", "relocation": "pie",
                                "symbols": "present", "os": "u20"},
                   "adapters": {"tool_name": "t", "nop_command": "t {input} {output}"},
                   config: entry}
        for name, obj in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps([obj]))
        assert main(["run", "--manifest", str(tmp_path / "manifest.json"),
                     "--adapters", str(tmp_path / "adapters.json"),
                     "--out", str(tmp_path / "out.csv")]) == code
        assert f"entry 0: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_adapters_missing_placeholder(self, tmp_path):
        path = tmp_path / "adapters.json"
        path.write_text(json.dumps([
            {"tool_name": "t", "nop_command": "t {input}"},
        ]))
        with pytest.raises(ValueError):
            load_adapters(str(path))
