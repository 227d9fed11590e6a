"""Rewriting-experiment orchestration.

Runs (binary x tool x task) jobs in isolated working directories, checks
the IR and EXE checkpoints, applies the functional tests, and meters wall
time plus the peak resident set of each spawned process tree via the
kernel's child accounting (wait4 rusage, kbytes) -- no sampling involved.

Checkpoints are ordered: a run only reaches EXE if the IR checkpoint
passed (or does not apply), and only an EXE-passing run gets a functional
test. The NOP functional check is differential: the rewritten binary must
terminate normally under the same invocation as the original and exit with
the same code.
"""

from __future__ import annotations

import csv
import glob as globlib
import itertools
import json
import math
import operator
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .dtree import Task
from .elf import ELF_MAGIC
from .errors import SpawnError, WorkdirError
from .variant import VARIANT_COLUMNS, TriState, VariantConfig

DEFAULT_NULL_INVOCATION = ("--help",)
DEFAULT_TIMEOUT_S = 300.0

_variant_cells = operator.itemgetter(*VARIANT_COLUMNS)


@dataclass(frozen=True)
class ToolAdapter:
    tool_name: str
    nop_command: str
    afl_command: str | None = None
    ir_artifact_glob: str | None = None

    def __post_init__(self):
        _check_name("tool_name", self.tool_name)
        _check_text("ir_artifact_glob", self.ir_artifact_glob, optional=True)
        for label, tpl in (("nop_command", self.nop_command),
                           ("afl_command", self.afl_command)):
            _check_text(label, tpl, optional=label == "afl_command")
            if tpl is not None:
                _check_command(label, tpl, "{input}", "{output}")

    @property
    def emits_ir(self) -> bool:
        """Whether the tool has an IR checkpoint: it names its IR artifact."""
        return self.ir_artifact_glob is not None

    def command_for(self, task: Task) -> str | None:
        return self.nop_command if task is Task.NOP else self.afl_command


@dataclass(frozen=True)
class RunRecord:
    binary_id: str
    variant: VariantConfig | None
    tool_name: str
    task: Task
    ir_ok: TriState
    exe_ok: bool
    func_ok: TriState
    runtime_seconds: float
    memory_kbytes: int
    output_size_bytes: int | None = None
    annotation: str = ""

    def __post_init__(self):
        if not math.isfinite(self.runtime_seconds):
            raise ValueError(f"runtime {self.runtime_seconds} is not finite")
        if (self.runtime_seconds < 0 or self.memory_kbytes < 0
                or (self.output_size_bytes or 0) < 0):
            raise ValueError("resource fields must be non-negative")
        if max(self.memory_kbytes, self.output_size_bytes or 0) >= 1 << 63:
            raise ValueError("mem_kb and out_size_bytes must be below 2**63")
        if self.func_ok is TriState.YES and not self.exe_ok:
            raise ValueError("func_ok=yes requires exe_ok")
        if self.exe_ok and self.ir_ok is TriState.NO:
            raise ValueError("exe_ok requires ir_ok in {yes, na}")


class FuncTest(NamedTuple):
    """Outcome of a functional test plus a short reason when it failed."""

    result: TriState
    annotation: str = ""


@dataclass(frozen=True)
class ManifestEntry:
    binary_id: str
    path: str
    variant: VariantConfig
    null_invocation: tuple[str, ...] = DEFAULT_NULL_INVOCATION

    def __post_init__(self):
        _check_name("id", self.binary_id)
        _check_text("path", self.path)


def _check_text(key: str, value, optional: bool = False) -> None:
    """A config value that names a file, a command or a pattern is a
    non-empty string, or None where it is optional."""
    if not (optional and value is None) and not (isinstance(value, str) and value):
        raise ValueError(f"{key!r} must be a non-empty string, got {value!r}")


def _check_command(key: str, template: str, *placeholders: str) -> None:
    """A command template holds each of placeholders and splits, as
    _substitute splits it, into at least one token."""
    if not all(p in template for p in placeholders):
        raise ValueError(f"{key!r} must contain {' and '.join(placeholders)}, "
                         f"got {template!r}")
    try:
        problem = "" if shlex.split(template) else "no command"
    except ValueError as e:  # an open quote or a trailing backslash
        problem = str(e)
    if problem:
        raise ValueError(f"{key!r} must be a command line shlex can split, "
                         f"got {template!r}: {problem}")


def _check_name(key: str, name) -> None:
    """Binary ids and tool names become path components in job_name."""
    _check_text(key, name)
    if name in (".", "..") or "/" in name or "\0" in name or "__" in name:
        raise ValueError(f"{key!r} must be one path component without '__', got {name!r}")


def job_name(binary_id: str, tool_name: str, task: Task) -> str:
    """Name of a job's private workdir and of its kept output file."""
    return f"{binary_id}__{tool_name}__{task.value}"


class _Run(NamedTuple):
    exit_code: int  # negative signal number when the process was killed
    runtime_seconds: float
    maxrss_kbytes: int
    timed_out: bool


def _substitute(template: str, mapping: dict[str, str]) -> list[str]:
    # split first so substituted paths with spaces stay one argv token
    argv = []
    for token in shlex.split(template):
        for key, value in mapping.items():
            token = token.replace(key, value)
        argv.append(token)
    if not argv:
        raise SpawnError(f"empty command template {template!r}")
    return argv


def _run(argv: Sequence[str], cwd: str, timeout_s: float, log=None) -> _Run:
    """The harness's one process runner.

    Spawns argv in cwd in its own session and waits up to timeout_s for it
    to exit. Then, whether it exited or timed out, kills its whole process
    group and reaps it, so nothing it put in the background outlives it.
    Every exec failure raises SpawnError. stdin is /dev/null, so no process
    waits on or reads the caller's input; stdout and stderr go to log, or
    to /dev/null. maxrss is the kernel's high-water mark in kbytes for the
    child and everything it reaped. Needs Linux >= 5.3 (pidfd_open)."""
    start = time.monotonic()
    out = log if log is not None else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=out, start_new_session=True)
    except OSError as e:
        raise SpawnError(f"cannot execute {argv[0]!r}: {e.strerror}") from e
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        # poll takes at most INT_MAX milliseconds, about 24.8 days
        timed_out = not poller.poll(min(timeout_s * 1000, 2**31 - 1))
    finally:
        os.close(pidfd)
    # The leader is not reaped yet, so its pid (the group id) cannot have
    # been reused. Members running as another user cannot be signalled.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except PermissionError:
        pass
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return _Run(proc.returncode, time.monotonic() - start, rusage.ru_maxrss, timed_out)


def _run_under_test(argv: Sequence[str], cwd: str, timeout_s: float) -> _Run | None:
    """_run for a binary under test. None when it cannot be executed for any
    reason (missing loader, bad image, ...): that is the test's outcome.
    A driver that cannot be executed is a harness fault and raises."""
    try:
        return _run(argv, cwd, timeout_s)
    except SpawnError:
        return None


def _is_elf(path: Path) -> bool:
    try:
        with open(path, "rb") as f:
            return f.read(4) == ELF_MAGIC
    except OSError:
        return False


def run_task(
    adapter: ToolAdapter,
    task: Task,
    input_path: str,
    workdir: str,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    *,
    binary_id: str | None = None,
    variant: VariantConfig | None = None,
) -> RunRecord:
    """Execute one rewriting task in an isolated working directory.

    The record's func_ok is always "na" here; functional tests belong to
    run_campaign (or can be applied separately) because they need the
    original binary and per-program invocations.
    """
    if binary_id is None:
        binary_id = Path(input_path).name
    template = adapter.command_for(task)
    if template is None:
        return _failed_record(adapter, task, binary_id, variant, "NoAflSupport")
    if not os.path.isfile(input_path):
        return _failed_record(adapter, task, binary_id, variant,
                              f"InputMissing: {input_path}")

    workdir = os.path.abspath(workdir)
    try:
        os.makedirs(workdir, exist_ok=True)
    except OSError as e:
        raise WorkdirError(f"cannot prepare workdir {workdir!r}: {e}") from e

    output = task_output_path(workdir, input_path)
    argv = _substitute(
        template, {"{input}": os.path.abspath(input_path), "{output}": str(output)}
    )
    with open(Path(workdir) / "tool.log", "wb") as log:
        metered = _run(argv, workdir, timeout_s, log)

    notes = []
    if adapter.emits_ir:
        pattern = os.path.join(globlib.escape(workdir), adapter.ir_artifact_glob)
        ir_ok = TriState.YES if globlib.glob(pattern) else TriState.NO
    else:
        ir_ok = TriState.NA

    exe_ok = output.is_file() and _is_elf(output)
    if metered.timed_out:
        exe_ok = False
        notes.append("TimedOut")
    if exe_ok and ir_ok is TriState.NO:
        # ordered checkpoints: no EXE credit without the IR stage
        exe_ok = False
        notes.append("MissingIrArtifact")

    return RunRecord(
        binary_id=binary_id,
        variant=variant,
        tool_name=adapter.tool_name,
        task=task,
        ir_ok=ir_ok,
        exe_ok=exe_ok,
        func_ok=TriState.NA,
        runtime_seconds=metered.runtime_seconds,
        memory_kbytes=metered.maxrss_kbytes,
        output_size_bytes=output.stat().st_size if output.is_file() else None,
        annotation="; ".join(notes),
    )


def _failed_record(adapter: ToolAdapter, task: Task, binary_id: str,
                   variant: VariantConfig | None, annotation: str) -> RunRecord:
    """Record of a run that produced nothing: no EXE, and no IR where the
    tool was meant to emit one."""
    return RunRecord(
        binary_id=binary_id,
        variant=variant,
        tool_name=adapter.tool_name,
        task=task,
        ir_ok=TriState.NO if adapter.emits_ir else TriState.NA,
        exe_ok=False,
        func_ok=TriState.NA,
        runtime_seconds=0.0,
        memory_kbytes=0,
        annotation=annotation,
    )


def task_output_path(workdir: str, input_path: str) -> Path:
    return Path(workdir) / (Path(input_path).name + ".rewritten")


def null_function_test(
    original: str,
    rewritten: str,
    invocation: Sequence[str] = DEFAULT_NULL_INVOCATION,
    timeout_s: float = 30.0,
) -> FuncTest:
    """Differential smoke test of a NOP-rewritten binary.

    Both binaries run with the identical invocation; pass means the
    rewritten process terminated normally (no signal, no timeout) with the
    same exit code as the original. Both run in the rewritten binary's
    directory. A rewritten binary that cannot be executed for any reason
    (missing, no exec bit, bad image, missing loader, ...) fails the test
    (ExecFailed); an original that cannot be executed gives
    OriginalUnusable.
    """
    cwd = os.path.dirname(os.path.abspath(rewritten))
    orig = _run_under_test([os.path.abspath(original), *invocation], cwd, timeout_s)
    new = _run_under_test([os.path.abspath(rewritten), *invocation], cwd, timeout_s)

    if new is None:
        return FuncTest(TriState.NO, "ExecFailed")
    if new.timed_out:
        return FuncTest(TriState.NO, "TimedOut")
    if new.exit_code < 0:
        return FuncTest(TriState.NO, f"Signaled:{-new.exit_code}")
    if orig is None or orig.timed_out:
        return FuncTest(TriState.NO, "OriginalUnusable")
    if new.exit_code != orig.exit_code:
        return FuncTest(TriState.NO, f"ExitCodeMismatch:{new.exit_code}!={orig.exit_code}")
    return FuncTest(TriState.YES)


def afl_function_test(
    rewritten: str, driver_command: str, timeout_s: float = 30.0
) -> FuncTest:
    """Run the configured fuzzer driver against an instrumented binary;
    pass means the driver exits 0 within the timeout. The driver is fully
    pluggable -- tests ship stubs, production wires the real AFL++ one.
    The driver runs in the rewritten binary's directory; a driver that
    cannot be executed raises SpawnError."""
    argv = _substitute(driver_command, {"{target}": os.path.abspath(rewritten)})
    run = _run(argv, os.path.dirname(os.path.abspath(rewritten)), timeout_s)
    if run.timed_out:
        return FuncTest(TriState.NO, "TimedOut")
    if run.exit_code != 0:
        return FuncTest(TriState.NO, f"DriverExit:{run.exit_code}")
    return FuncTest(TriState.YES)


def run_campaign(
    manifest: Sequence[ManifestEntry],
    adapters: Sequence[ToolAdapter],
    tasks: Sequence[Task] = (Task.NOP, Task.AFL),
    parallelism: int = 1,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    afl_driver: str | None = None,
    keep_outputs: str | None = None,
    on_record: Callable[[RunRecord], None] | None = None,
) -> list[RunRecord]:
    """Run the full (binary x adapter x task) cross product.

    Each job owns a private working directory under a temporary root;
    per-run failures land in the record's annotation and never abort the
    campaign. A job that passes EXE copies its output to
    keep_outputs/<job_name> when it finishes. The returned list is sorted by
    (binary_id, tool, task) so the output is independent of the parallelism
    degree; on_record streams records in completion order.
    """
    check_run_settings(manifest, adapters, tasks, parallelism, timeout_s, afl_driver)
    if keep_outputs is not None:
        os.makedirs(keep_outputs, exist_ok=True)
    emit_lock = threading.Lock()

    def job(entry: ManifestEntry, adapter: ToolAdapter, task: Task) -> RunRecord:
        name = job_name(entry.binary_id, adapter.tool_name, task)
        workdir = os.path.join(workroot, name)
        try:
            record = run_task(
                adapter,
                task,
                entry.path,
                workdir,
                timeout_s,
                binary_id=entry.binary_id,
                variant=entry.variant,
            )
        except (SpawnError, WorkdirError) as e:
            record = _failed_record(adapter, task, entry.binary_id, entry.variant,
                                    f"{type(e).__name__}: {e}")
        if record.exe_ok:
            record = _apply_functional(record, entry, workdir, timeout_s, afl_driver)
            output = task_output_path(workdir, entry.path)
            if keep_outputs is not None and output.is_file():
                shutil.copy2(output, os.path.join(keep_outputs, name))
        if on_record is not None:
            with emit_lock:
                on_record(record)
        return record

    with (tempfile.TemporaryDirectory(prefix="rweval-campaign-") as workroot,
          ThreadPoolExecutor(max_workers=parallelism) as pool):
        records = list(pool.map(
            lambda args: job(*args),
            itertools.product(manifest, adapters, tasks),
        ))
    records.sort(key=lambda r: (r.binary_id, r.tool_name, r.task.value))
    return records


def check_run_settings(
    manifest: Sequence[ManifestEntry],
    adapters: Sequence[ToolAdapter],
    tasks: Sequence[Task],
    parallelism: int,
    timeout_s: float,
    afl_driver: str | None = None,
) -> None:
    """Raise ValueError for settings no run could honour, such as two jobs that
    would share a job name and so a workdir, or an AFL driver shlex cannot split."""
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    if not timeout_s > 0:  # also rejects NaN
        raise ValueError("timeout_s must be positive")
    if afl_driver is not None:
        _check_command("afl_driver", afl_driver)
    names = Counter(job_name(e.binary_id, a.tool_name, t)
                    for e in manifest for a in adapters for t in tasks)
    repeated = sorted(n for n, c in names.items() if c > 1)
    if repeated:
        raise ValueError(f"duplicate job names {repeated}")


def _apply_functional(
    record: RunRecord,
    entry: ManifestEntry,
    workdir: str,
    timeout_s: float,
    afl_driver: str | None,
) -> RunRecord:
    output = str(task_output_path(workdir, entry.path))
    try:
        if record.task is Task.NOP:
            os.chmod(output, os.stat(output).st_mode | 0o111)
            outcome = null_function_test(entry.path, output, entry.null_invocation, timeout_s)
        else:
            if afl_driver is None:
                return record
            outcome = afl_function_test(output, afl_driver, timeout_s)
    except (SpawnError, OSError) as e:
        return replace(record, annotation=_join(record.annotation, f"FuncError: {e}"))
    return replace(
        record,
        func_ok=outcome.result,
        annotation=_join(record.annotation, outcome.annotation),
    )


def _join(*parts: str) -> str:
    return "; ".join(p for p in parts if p)


# --- manifest / adapter / results I/O --------------------------------------

RESULTS_COLUMNS = ("binary_id", *VARIANT_COLUMNS, "tool", "task", "ir", "exe", "func",
                   "runtime_s", "mem_kb", "out_size_bytes")


def load_manifest(path: str) -> list[ManifestEntry]:
    def entry(obj) -> ManifestEntry:
        invocation = obj.get("null_invocation")
        if invocation is not None and not (
                isinstance(invocation, list) and all(isinstance(a, str) for a in invocation)):
            raise ValueError(f"'null_invocation' must be a list of strings, got {invocation!r}")
        cells = _variant_cells(obj)
        for key, cell in zip(VARIANT_COLUMNS, cells):
            if not isinstance(cell, str):
                raise ValueError(f"{key!r} must be a string, got {cell!r}")
        return ManifestEntry(
            binary_id=obj["id"],
            path=obj["path"],
            variant=VariantConfig.from_cells(cells),
            null_invocation=DEFAULT_NULL_INVOCATION if invocation is None else tuple(invocation),
        )

    return _load_json_list(path, "manifest", entry, lambda e: e.binary_id)


def load_adapters(path: str) -> list[ToolAdapter]:
    def adapter(obj) -> ToolAdapter:
        tool = ToolAdapter(
            tool_name=obj["tool_name"],
            nop_command=obj["nop_command"],
            afl_command=obj.get("afl_command"),
            ir_artifact_glob=obj.get("ir_artifact_glob"),
        )
        # emits_ir follows from ir_artifact_glob; the optional key restates it
        emits_ir = obj.get("emits_ir", tool.emits_ir)
        if not isinstance(emits_ir, bool):
            raise ValueError(f"'emits_ir' must be true or false, got {emits_ir!r}")
        if emits_ir is not tool.emits_ir:
            raise ValueError("'emits_ir' must be false when there is no 'ir_artifact_glob'"
                             if emits_ir else
                             "'ir_artifact_glob' must be absent when 'emits_ir' is false")
        return tool

    return _load_json_list(path, "adapter config", adapter, lambda a: a.tool_name)


def _load_json_list(path: str, kind: str, build: Callable, name: Callable) -> list:
    """Build one item per element of the JSON array in path, each a JSON
    object. ValueError names the first bad element, or a name that two items
    share: names become job names, and two jobs must never share a workdir."""
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise ValueError(f"{kind} must be a JSON array")
    items = []
    for i, obj in enumerate(raw):
        try:
            if not isinstance(obj, dict):
                raise ValueError(f"must be a JSON object, got {obj!r}")
            items.append(build(obj))
        except (KeyError, ValueError) as e:
            problem = f"missing key {e}" if isinstance(e, KeyError) else e
            raise ValueError(f"{kind} entry {i}: {problem}") from e
    repeated = sorted(n for n, c in Counter(map(name, items)).items() if c > 1)
    if repeated:
        raise ValueError(f"{kind} contains duplicate names {repeated}")
    return items


def record_to_row(record: RunRecord) -> list[str]:
    v = record.variant
    return [
        record.binary_id,
        *(v.columns() if v else ("",) * len(VARIANT_COLUMNS)),
        record.tool_name,
        record.task.value,
        record.ir_ok.value,
        "1" if record.exe_ok else "0",
        record.func_ok.value,
        f"{record.runtime_seconds:.6f}",
        str(record.memory_kbytes),
        "" if record.output_size_bytes is None else str(record.output_size_bytes),
    ]


_TASKS = {t.value: t for t in Task}
_TRISTATES = {t.value: t for t in TriState}
_EXE_CELLS = {"1": True, "0": False}
_result_cells = operator.itemgetter(*RESULTS_COLUMNS)


class _VariantCache(dict):
    """Six variant cells -> their VariantConfig, or None when all six are
    empty. One load shares one cache, so a binary's rows share one variant
    and identity is equality."""

    def __missing__(self, key: tuple[str, ...]) -> VariantConfig | None:
        variant = self[key] = VariantConfig.from_cells(key) if any(key) else None
        return variant


def row_to_record(row: Mapping[str, str]) -> RunRecord:
    """One results row keyed by column name, such as a csv.DictReader row."""
    return _record_from_cells(_result_cells(row), _VariantCache())


def _record_from_cells(cells: tuple[str, ...], variant_of: _VariantCache) -> RunRecord:
    """One results row's cells, in RESULTS_COLUMNS order, as a RunRecord.
    Its checks, in order, decide which message a bad row gets."""
    binary_id, *_, tool, task, ir, exe, func, runtime, mem, out_size = cells
    variant = variant_of[cells[1:7]]
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    if ir not in _TRISTATES:
        raise ValueError(f"unknown ir value {ir!r}")
    if func not in _TRISTATES:
        raise ValueError(f"unknown func value {func!r}")
    if exe not in _EXE_CELLS:
        raise ValueError(f"exe must be 0 or 1, got {exe!r}")
    return RunRecord(
        binary_id=binary_id,
        variant=variant,
        tool_name=tool,
        task=_TASKS[task],
        ir_ok=_TRISTATES[ir],
        exe_ok=_EXE_CELLS[exe],
        func_ok=_TRISTATES[func],
        runtime_seconds=float(runtime),
        memory_kbytes=int(mem),
        output_size_bytes=int(out_size) if out_size else None,
    )


def _admit(binary_id: str, variant: VariantConfig | None, tool: str, task: str,
           variants: dict[str, VariantConfig | None], seen: set) -> None:
    """Record one row's binary variant and (binary_id, tool, task value)
    triple. ValueError when the binary already has another variant or the
    triple was seen before."""
    if variants.setdefault(binary_id, variant) is not variant:
        raise ValueError(f"binary {binary_id!r} has a second variant")
    triple = (binary_id, tool, task)
    if triple in seen:
        raise ValueError(f"repeated row for {binary_id!r}, tool {tool!r}, task {task}")
    seen.add(triple)


def _valid_state(state: tuple[Task, TriState, bool, TriState]) -> bool:
    try:
        RunRecord("", None, "", *state, 0.0, 0)
    except ValueError:
        return False
    return True


# The (task, ir, exe, func) outcomes that RunRecord accepts; Results.states
# holds each row's index here.
STATES = tuple(filter(_valid_state, itertools.product(Task, TriState, (False, True), TriState)))
_CODE_OF_STATE = {state: code for code, state in enumerate(STATES)}
# A row's cells -> its code: a string's hash is cached, an Enum member's is not
_CODE_OF_CELLS = {(task.value, ir.value, "1" if exe else "0", func.value): code
                  for (task, ir, exe, func), code in _CODE_OF_STATE.items()}


class Results:
    """Run results as columns: entry i of every column describes one run.

    Binary ids and tool names share one string object per distinct value.
    states holds one byte per run, its (task, ir, exe, func) outcome as an
    index into STATES. runtime_s is an array('d'); mem_kb and out_size are
    array('q')s, with out_size -1 when unknown. variants maps each binary id
    to its VariantConfig, or None.
    load_records_csv and from_records check what RunRecord checks, and that
    no (binary_id, tool, task) triple repeats and no binary has two
    variants: so the rows of one (tool, task) pair are of distinct binaries.
    """

    __slots__ = ("binary_ids", "tools", "states", "runtime_s", "mem_kb", "out_size",
                 "variants")

    def __init__(self):
        self.binary_ids: list[str] = []
        self.tools: list[str] = []
        self.states = bytearray()
        self.runtime_s = array("d")
        self.mem_kb = array("q")
        self.out_size = array("q")
        self.variants: dict[str, VariantConfig | None] = {}

    def __len__(self) -> int:
        return len(self.binary_ids)

    def _extend(self, ids, tools, states, runtime_s, mem_kb, out_size):
        self.binary_ids += ids
        self.tools += tools
        self.states.extend(states)
        self.runtime_s.extend(runtime_s)
        self.mem_kb.extend(mem_kb)
        self.out_size.extend(out_size)

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> Results:
        """The columns of records, in order. ValueError for a record that
        repeats a triple or gives a binary a second variant."""
        results, seen, canonical = cls(), set(), {}
        rows = []
        for r in records:
            binary_id, tool = sys.intern(r.binary_id), sys.intern(r.tool_name)
            _admit(binary_id, canonical.setdefault(r.variant, r.variant), tool,
                   r.task.value, results.variants, seen)
            rows.append((binary_id, tool, _CODE_OF_STATE[r.task, r.ir_ok, r.exe_ok, r.func_ok],
                         r.runtime_seconds, r.memory_kbytes,
                         -1 if r.output_size_bytes is None else r.output_size_bytes))
        if rows:
            results._extend(*zip(*rows))
        return results


def results_writer(stream) -> Callable[[RunRecord], None]:
    """Write the results CSV header to a text stream and return the
    function that appends one record's row."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(RESULTS_COLUMNS)
    return lambda record: w.writerow(record_to_row(record))


def write_records_csv(records: Iterable[RunRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_row = results_writer(f)
        for record in records:
            write_row(record)


# Rows per chunk of load_records_csv: it never holds more raw cells than these.
CHUNK_ROWS = 512
# The header line results_writer writes.
_HEADER_LINE = ",".join(RESULTS_COLUMNS)
# A row's binary cells: binary_id and the variant columns.
_BINARY_CELLS = 1 + len(VARIANT_COLUMNS)


def load_records_csv(path: str) -> Results:
    """The runs of a results CSV, as columns. Columns may come in any order,
    extra columns are ignored and blank lines skipped. ValueError names a
    repeated results column, or the 1-based line of the first malformed row,
    including a row that repeats a (binary_id, tool, task) triple or gives a
    binary a second variant.

    Rows are read CHUNK_ROWS at a time; each chunk is turned into typed
    columns and checked column by column. Only a chunk that fails a check is
    walked row by row, by csv.reader, to find its first bad row and that
    row's message. A file as results_writer writes it is split by
    str.split. From the first chunk that csv.reader might read otherwise (a
    quote, CR or NUL, or a line as long as the field size limit), or after
    any other header, csv.reader reads the rest: the columns and the errors
    are the same."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        head = f.readline()
        # offset: the lines before the split chunk, or before reader's first line
        if head.rstrip("\n") == _HEADER_LINE:
            header, reader, offset = RESULTS_COLUMNS, None, 1
        else:
            reader, offset = csv.reader(itertools.chain([head], f)), 0
            header = next(reader, [])
        pick, width = _results_picker(header), len(header)
        cuts = width - _BINARY_CELLS
        results = Results()
        binary_of, pair_bit = _BinaryIds(results.variants), _PairBits()
        masks: dict[str, int] = {}  # binary id -> the bits of its rows' pairs
        more, read_error = True, None
        while more:
            # each pass reads a chunk into rows, columns if widths agree, and numbered
            if reader is None:
                lines = list(itertools.islice(f, CHUNK_ROWS))
                text = "".join(lines)
                # csv.reader might read these otherwise: a quoted cell, a CR line
                # break, a NUL (rejected before Python 3.11), a field past its limit
                if ('"' in text or "\r" in text or "\0" in text
                        or max(map(len, lines), default=0) >= csv.field_size_limit()):
                    reader = csv.reader(itertools.chain(lines, f))
                    continue
                # csv.reader reads each line as line.split(","); the binary's
                # cells stay one string, the row's key in binary_of
                rows = [line.rsplit(",", cuts) for line in text.split("\n") if line]
                columns = zip(*rows) if set(map(len, rows)) == {1 + cuts} else None
                numbered = enumerate(csv.reader(lines), offset + 1)
                offset += len(lines)
                more = len(lines) == CHUNK_ROWS
            else:
                numbered = []
                try:
                    for row in itertools.islice(reader, CHUNK_ROWS):
                        numbered.append((offset + reader.line_num, row))
                except csv.Error as e:  # the rows before it are checked first
                    read_error = e
                more = len(numbered) == CHUNK_ROWS
                rows = [row for _, row in numbered if row]
                columns = None
                if set(map(len, rows)) == {width}:
                    picked = pick(list(zip(*rows)))
                    columns = (zip(*picked[:_BINARY_CELLS]), *picked[_BINARY_CELLS:])
            if rows:
                if columns is not None:
                    columns = _checked_columns(columns, binary_of, pair_bit, masks)
                if columns is None:
                    raise _first_error(numbered, width, pick, binary_of.variant_of, results)
                results._extend(*columns)
            if read_error is not None:
                raise ValueError(f"line {offset + reader.line_num}: {read_error}") from read_error
        return results


def _results_picker(header: Sequence[str]):
    """The itemgetter of a header's RESULTS_COLUMNS cells, in that order.
    ValueError when the header lacks or repeats one of them."""
    missing = set(RESULTS_COLUMNS).difference(header)
    if missing:
        raise ValueError(f"results CSV missing columns {sorted(missing)}")
    repeated = sorted(c for c in RESULTS_COLUMNS if header.count(c) > 1)
    if repeated:
        raise ValueError(f"results CSV repeats columns {repeated}")
    return operator.itemgetter(*map(header.index, RESULTS_COLUMNS))


class _BinaryIds(dict):
    """A row's binary cells -> the binary id, interned: the line prefix
    "binary_id,program,...,os" of a split row, or the (binary_id, *variant
    cells) tuple of a csv.reader row. A new key's variant is checked and
    recorded in variants once, so each distinct key is checked once; a key
    seen before names the same binary and variant. ValueError for a prefix
    of another field count or a bad or second variant."""

    def __init__(self, variants: dict[str, VariantConfig | None]):
        super().__init__()
        self.variants = variants
        self.variant_of = _VariantCache()

    def __missing__(self, key: str | tuple[str, ...]) -> str:
        binary_id, *cells = key.split(",") if isinstance(key, str) else key
        if len(cells) != len(VARIANT_COLUMNS):
            raise ValueError(f"expected {len(VARIANT_COLUMNS)} variant cells")
        binary_id = sys.intern(binary_id)
        variant = self.variant_of[tuple(cells)]
        if self.variants.setdefault(binary_id, variant) is not variant:
            raise ValueError(f"binary {binary_id!r} has a second variant")
        self[key] = binary_id
        return binary_id


class _PairBits(dict):
    """(tool, task) cells -> a bit of their own."""

    def __missing__(self, key: tuple[str, str]) -> int:
        bit = self[key] = 1 << len(self)
        return bit


def _checked_columns(columns: Iterable[Sequence], binary_of: _BinaryIds,
                     pair_bit: _PairBits, masks: dict[str, int]):
    """The typed columns Results._extend takes, from a chunk's columns: the
    rows' binary_of keys, then their cells from tool to out_size_bytes.
    None when a row fails a check of _record_from_cells or _admit; variants
    and masks may then hold rows of the chunk."""
    keys, tools, tasks, ir, exe, func, runtime, mem, out = columns
    try:  # KeyError: an outcome RunRecord rejects; OverflowError: 2**63 or more
        states = bytes(map(_CODE_OF_CELLS.__getitem__, zip(tasks, ir, exe, func)))
        ids = list(map(binary_of.__getitem__, keys))
        runtime = array("d", map(float, runtime))
        mem = array("q", map(int, mem))
        sizes = array("q", [int(cell) if cell else -1 for cell in out])
    except (KeyError, ValueError, OverflowError):
        return None
    # -1 stands for an empty cell only: a "-1" cell is negative
    if (not all(map(math.isfinite, runtime)) or min(runtime) < 0 or min(mem) < 0
            or min(sizes) < -1 or sizes.count(-1) != out.count("")):
        return None
    tools = list(map(sys.intern, tools))
    # Not a set of every (binary_id, tool, task): that holds a tuple per row,
    # 9 MB more at paper scale. One int per binary holds a bit per pair.
    for binary_id, bit in zip(ids, map(pair_bit.__getitem__, zip(tools, tasks))):
        mask = masks.get(binary_id, 0)
        if mask & bit:
            return None
        masks[binary_id] = mask | bit
    return ids, tools, states, runtime, mem, sizes


def _first_error(numbered: Iterable[tuple[int, list[str]]], width: int, pick,
                 variant_of: _VariantCache, results: Results) -> ValueError:
    """The error of the first of a chunk's non-blank rows that fails a check,
    taking the rows one at a time after the rows already in results. numbered
    holds (line, row) pairs, each row with the line csv.reader read it to;
    the message names that line."""
    known = dict(results.variants)
    seen = set(zip(results.binary_ids, results.tools,
                   (STATES[code][0].value for code in results.states)))
    for line, row in filter(operator.itemgetter(1), numbered):  # the non-blank rows
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            r = _record_from_cells(pick(row), variant_of)
            _admit(r.binary_id, r.variant, r.tool_name, r.task.value, known, seen)
        except ValueError as e:
            error = ValueError(f"line {line}: {e}")
            error.__cause__ = e
            return error
    raise AssertionError("a chunk failed a column check that none of its rows fails")
