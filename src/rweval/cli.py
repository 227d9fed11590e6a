"""Command-line entry point.

Subcommands: scope, features, size, run, train, report. Exit codes:
0 success, 1 internal error, 2 bad input, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager, suppress
from itertools import compress
from pathlib import Path

# dtree, features, harness, report, scope and training are imported inside the handlers
# and option adders that use them, so a call loads only its own command's
# modules: a cold `scope` never loads the harness, nor a `report` the trees.
from .elf import ElfFile, ElfSummary, parse_elf, size_delta, size_profile
from .errors import (
    DegenerateSplit,
    EmptyMatrix,
    MalformedElf,
    RwevalError,
    UnknownTool,
    Unsupported,
)
from .util import json_text, replace
from .variant import Task

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_INTERRUPTED = 130


class CliConfigError(Exception):
    pass


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on its own; route usage problems to exit 3
    def error(self, message):
        raise CliConfigError(message)


@contextmanager
def _failing_as(error: type[Exception], prefix: str):
    """Raise error(prefix + message) for an OSError or ValueError raised
    inside: a path or value that cannot be read, written or parsed."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise error(f"{prefix}{e}") from e


def _read_binary(path: str) -> ElfFile:
    return ElfFile(path)


def _parse_path(path: str) -> ElfSummary:
    with _failing_as(CliInputError, f"cannot read {path!r}: "), _read_binary(path) as binary:
        return parse_elf(binary)


def _load_models(model_dir: str | None):
    """The trees under model_dir; None, for the built-in models, without one.
    Verdicts are keyed by tool, so two trees for one tool are an error."""
    if model_dir is None:
        return None
    import glob

    from . import dtree

    with _failing_as(CliConfigError, f"cannot load models from {model_dir!r}: "):
        paths = sorted(glob.glob(os.path.join(glob.escape(model_dir), "*.json")))
        if not paths:
            raise CliConfigError(f"no *.json models under {model_dir!r}")
        models = {}
        for p in paths:
            with open(p, "r", encoding="utf-8") as f:
                model = dtree.parse_tree(f.read())
            first = models.setdefault(model.tool_name, (p, model))[0]
            if first != p:
                raise ValueError(f"two models for tool {model.tool_name!r}: "
                                 f"{os.path.basename(first)} and {os.path.basename(p)}")
        return [model for _, model in models.values()]


def cmd_scope(args) -> int:
    from . import scope

    models = _load_models(args.models)
    rep = scope.scope_binary(args.path, _parse_path(args.path), models)
    print(rep.to_json() if args.format == "json" else rep.to_text())
    return EXIT_OK


def cmd_features(args) -> int:
    from . import features

    fv = features.extract_features(_parse_path(args.path))
    if args.format == "text":
        for name, value in sorted(fv.features.items()):
            print(f"{name} {'1' if value else '0'}")
    else:
        print(json_text(dict(sorted(fv.features.items()))))
    return EXIT_OK


def cmd_size(args) -> int:
    from . import report

    profile = _profile_path(args.path)
    if args.path2 is None:
        table = report.MapTable("bucket", "bytes", profile, str)
    else:
        delta = size_delta(profile, _profile_path(args.path2))
        table = report.MapTable("bucket", "pct", delta)
    _print_table(table, args.format)
    return EXIT_OK


def _print_table(table, fmt: str) -> None:
    from . import report

    # rendered CSV already ends in a line break; text and JSON do not
    print(report.render(table, fmt), end="" if fmt == "csv" else "\n")


def _load_manifest(path: str):
    from . import harness

    with _failing_as(CliInputError, f"cannot load manifest {path!r}: "):
        return harness.load_manifest(path)


def _load_adapters(path: str):
    from . import harness

    with _failing_as(CliConfigError, f"cannot load adapters {path!r}: "):
        return harness.load_adapters(path)


def cmd_run(args) -> int:
    from . import harness

    tasks = _parse_tasks(args.tasks)
    manifest = _load_manifest(args.manifest)
    adapters = _load_adapters(args.adapters)
    with _failing_as(CliConfigError, "bad run settings: "):
        harness.check_run_settings(manifest, adapters, tasks, args.parallelism,
                                   args.timeout_s, args.afl_driver)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus and args.parallelism > cpus:
        print(f"rweval: --parallelism {args.parallelism} exceeds the {cpus} usable CPUs: "
              "wall times (runtime_s) will include waiting for a CPU", file=sys.stderr)
    if args.keep_outputs is not None:
        with _failing_as(CliInputError, f"cannot write {args.keep_outputs!r}: "):
            os.makedirs(args.keep_outputs, exist_ok=True)
    with _failing_as(CliInputError, f"cannot write {args.out!r}: "):
        stream = open(args.out, "w", encoding="utf-8", newline="")

    with stream:
        write_row = harness.results_writer(stream)

        def on_record(record):
            write_row(record)
            stream.flush()

        records = harness.run_campaign(
            manifest,
            adapters,
            tasks=tasks,
            parallelism=args.parallelism,
            timeout_s=args.timeout_s,
            afl_driver=args.afl_driver,
            keep_outputs=args.keep_outputs,
            on_record=on_record,
        )
    # rewrite sorted so reruns produce identical files regardless of scheduling
    _rewrite_whole(records, args.out)
    print(f"{len(records)} records -> {args.out}")
    return EXIT_OK


def _rewrite_whole(records, path: str) -> None:
    """Write records to path, sorted. Where path names a regular file, they
    go to a new file beside it that gets its mode and then replaces it: an
    error or an interrupt leaves the old file whole and no new file behind.
    The new file is a new inode, so the old one's owner, group, ACLs and
    hard links are not kept. Where path names no regular file (/dev/null, a
    FIFO) or no file can be made beside it, path is rewritten in place."""
    import shutil
    import tempfile

    from . import harness

    target, temp = os.path.realpath(path), None
    if os.path.isfile(target):
        with suppress(OSError):  # a directory this process cannot write
            fd, temp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".rweval-",
                                        suffix=".tmp")
            os.close(fd)
    if temp is None:
        harness.write_records_csv(records, path)
        return
    try:
        harness.write_records_csv(records, temp)
        shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _parse_tasks(spec: str) -> list[Task]:
    with _failing_as(CliConfigError, f"bad --tasks value {spec!r}: "):
        return [Task(t) for t in _names(spec, "task")]


def _names(spec: str, kind: str) -> list[str]:
    """The comma-separated names of spec, the value of --{kind}s, blank terms
    skipped; CliConfigError where it names none, or one more than once."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise CliConfigError(f"bad --{kind}s value {spec!r}: no {kind} names")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise CliConfigError(f"bad --{kind}s value {spec!r}: repeated {', '.join(repeated)}")
    return names


def _load_results(path: str):
    from . import harness

    with _failing_as(CliInputError, f"cannot load results {path!r}: "):
        return harness.load_records_csv(path)


def cmd_train(args) -> int:
    from . import dtree, features, report, training

    with _failing_as(CliConfigError, "bad train settings: "):
        training.check_train_settings(
            k=args.k, train_fraction=args.train_fraction, max_depth=args.max_depth,
            min_leaf=args.min_leaf, min_support=args.min_support,
            max_support_fraction=args.max_support_fraction)
    _check_writable(args.out_model)
    results = _load_results(args.results)
    manifest = _load_manifest(args.manifest)
    task = Task(args.task)

    label_by_id = report.labels(results, args.tool, task)
    if not label_by_id:
        raise CliInputError(
            f"no records for tool {args.tool!r} task {task.value} in {args.results!r}"
        )

    vectors = [(e.binary_id, features.extract_features(_parse_path(e.path)),
                label_by_id[e.binary_id]) for e in manifest if e.binary_id in label_by_id]
    if len(vectors) < 2:
        raise CliInputError("fewer than 2 manifest binaries have records to train on")

    matrix = training.build_matrix(vectors, min_support=args.min_support,
                                   max_support_fraction=args.max_support_fraction)
    train, test = training.split_train_test(matrix, args.train_fraction, seed=args.seed)
    # ranked on the train rows alone: held-out labels must not pick what they score
    chosen = training.select_features(train, k=args.k)
    train, test = (training.select_columns(m, chosen) for m in (train, test))
    model = training.train_cart(train, max_depth=args.max_depth, min_leaf=args.min_leaf,
                                tool_name=args.tool, task=task)
    score = training.accuracy(model, test)

    model = replace(model, reported_accuracy=score.percent)
    with _failing_as(CliInputError, f"cannot write {args.out_model!r}: "):
        Path(args.out_model).write_text(dtree.serialize_tree(model) + "\n", encoding="utf-8")
    print(f"test accuracy: {score.percent:.2f}% ({len(train.rows)} train / {len(test.rows)} test rows)")
    print(f"model -> {args.out_model}")
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Fail now, before a long load, where path cannot be written as a file."""
    if not path:  # Path("") is the current directory
        raise CliInputError(f"cannot write {path!r}: no file name")
    folder = os.path.dirname(path) or "."
    # os.path.isdir is False for a name the OS rejects outright, such as one with a NUL byte
    with _failing_as(CliInputError, f"cannot write {path!r}: "), \
            suppress(FileNotFoundError, NotADirectoryError):
        os.stat(path)
    if os.path.isdir(path):
        raise CliInputError(f"cannot write {path!r}: is a directory")
    if not os.path.isdir(folder):
        raise CliInputError(f"cannot write {path!r}: {folder!r} is not a directory")


def _cohort_predicate(spec: str) -> dict[str, str]:
    """The variant predicate of a --cohort value: a preset name, or
    key=value terms over the variant columns."""
    from . import report

    if "=" not in spec:
        if spec not in report.COHORT_PRESETS:
            raise CliConfigError(
                f"unknown cohort {spec!r}; presets: {', '.join(report.COHORT_PRESETS)}"
            )
        return report.COHORT_PRESETS[spec]
    predicate = {}
    for part in spec.split(","):
        if "=" not in part:
            raise CliConfigError(f"bad cohort term {part!r}, want key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in predicate:
            raise CliConfigError(f"bad --cohort value {spec!r}: repeated {key}")
        predicate[key] = value.strip()
    with _failing_as(CliConfigError, ""):
        report.check_cohort_fields(predicate)
    return predicate


def cmd_report(args) -> int:
    from . import report

    # every check that needs only the options comes before the load
    tool_order = None if args.tools is None else _names(args.tools, "tool")
    # checked on every table, so a mistyped value is not silently ignored
    predicate = _cohort_predicate(args.cohort)
    if args.table == "sections" and not args.outputs:
        raise CliConfigError("--outputs DIR (from run --keep-outputs) is required")
    if args.table in ("size", "sections") and not args.manifest:
        raise CliConfigError("--manifest is required for this table")
    if args.table == "sections" and not os.path.isdir(args.outputs):
        raise CliInputError(f"cannot read outputs {args.outputs!r}: not a directory")
    results = _load_results(args.results)
    if args.table == "success":
        cohort = report.make_cohort(args.cohort, predicate, results)
        table = report.success_table(results, cohort, tool_order)
    elif args.table == "comparative":
        table = report.comparative_average(
            results,
            metric=args.metric,
            tool_order=tool_order,
            mean_of_ratios=args.mean_of_ratios,
        )
    else:  # size, sections
        from . import harness

        # these tables list every tool, but a tool that --tools names
        # must still have records
        if tool_order is not None:
            report._check_tools(tool_order, results)
        paths = {e.binary_id: e.path for e in _load_manifest(args.manifest)}
        size = args.table == "size"
        originals: dict = {}  # binary id -> its original's size or profile, or None
        pairs = []  # (tool, original's measure, rewritten's measure)
        rows = zip(results.tools, results.binary_ids, results.out_size)
        for tool, binary_id, out_size in compress(rows, report.handled(results)):
            if binary_id not in originals:
                path = paths.get(binary_id)
                originals[binary_id] = (None if path is None else
                                        _file_size(path) if size else _profile_file(path))
            if originals[binary_id] is None:
                continue
            if size:
                after = None if out_size < 0 else out_size  # -1: unknown
            else:  # the NOP job's file kept under --outputs
                after = _profile_file(os.path.join(
                    args.outputs, harness.job_name(binary_id, tool, Task.NOP)))
            if after is not None:
                pairs.append((tool, originals[binary_id], after))
        table = (report.MapTable("tool", "pct", report.relative_size(pairs)) if size
                 else report.section_size_table(pairs))
    _print_table(table, args.format)
    return EXIT_OK


def _file_size(path: str) -> int | None:
    return os.path.getsize(path) if os.path.isfile(path) else None


def _profile_file(path: str) -> dict[str, int] | None:
    """path's size profile; None when path is not a file, or its section
    table is too broken to profile."""
    if not os.path.isfile(path):
        return None
    try:
        return _profile_path(path)
    except (MalformedElf, Unsupported):
        return None


def _profile_path(path: str) -> dict[str, int]:
    return size_profile(_parse_path(path))


def _scope_options(p: _Parser) -> None:
    p.add_argument("path")
    p.add_argument("--models", default=None, metavar="DIR",
                   help="directory of tree JSON files (default: built-in models)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _features_options(p: _Parser) -> None:
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _size_options(p: _Parser) -> None:
    p.add_argument("path")
    p.add_argument("path2", nargs="?", default=None)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _run_options(p: _Parser) -> None:
    from . import harness

    p.add_argument("--manifest", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--tasks", default="NOP,AFL")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--timeout-s", type=float, default=harness.DEFAULT_TIMEOUT_S)
    p.add_argument("--afl-driver", default=None,
                   help="driver command template with {target}")
    p.add_argument("--keep-outputs", default=None, metavar="DIR")


def _train_options(p: _Parser) -> None:
    p.add_argument("--results", required=True, metavar="CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tool", required=True)
    p.add_argument("--task", choices=[t.value for t in Task], default=Task.AFL.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--max-support-fraction", type=float, default=1.0)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out-model", required=True)


def _report_options(p: _Parser) -> None:
    from . import report

    p.add_argument("results", metavar="CSV")
    p.add_argument("--table", choices=("success", "comparative", "size", "sections"),
                   default="success")
    p.add_argument("--cohort", default="full",
                   help="preset name or key=value[,key=value...]")
    p.add_argument("--metric", choices=report.METRICS, default="runtime_s")
    p.add_argument("--tools", default=None, help="comma-separated tool order")
    p.add_argument("--mean-of-ratios", action="store_true",
                   help="comparative cells as mean of per-binary ratios "
                   "(default: ratio of per-tool means over the intersection)")
    p.add_argument("--manifest", default=None)
    p.add_argument("--outputs", default=None, metavar="DIR")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


# command -> (help, handler, adds its options)
_COMMANDS = {
    "scope": ("predict which rewriters can handle a binary", cmd_scope, _scope_options),
    "features": ("print a binary's boolean feature vector", cmd_features,
                 _features_options),
    "size": ("byte attribution profile, or delta of two files", cmd_size, _size_options),
    "run": ("execute a rewriting campaign", cmd_run, _run_options),
    "train": ("train a success predictor from results", cmd_train, _train_options),
    "report": ("aggregate results into tables", cmd_report, _report_options),
}


def _with_command(p: _Parser, command: str) -> _Parser:
    """p, given command's options and handler."""
    _, func, add_options = _COMMANDS[command]
    add_options(p)
    p.set_defaults(func=func)
    return p


@functools.cache
def _command_parser(command: str) -> _Parser:
    """command's own parser, built on its first direct call and reused by
    every later one: parse_args does not change a parser."""
    return _with_command(_Parser(prog=f"rweval {command}"), command)


def build_parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """The parser main runs and the argv it parses: when argv[0] is a command,
    that command's parser alone and argv[1:], as argparse would enter the
    command at once; it is built on the command's first such call in a process
    and reused afterwards. For any other argv (no arguments, --help, an option
    or -- before the command, an unknown command), a new top-level parser and
    argv, with every command by name and help, and options only for the one
    named."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]), argv[1:]
    parser = _Parser(prog="rweval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    # argparse enters the first argument that is not an option: no top-level option takes a value
    command = next((a for a in argv if not a.startswith("-")), None)
    if command in sub.choices:
        _with_command(sub.choices[command], command)
    return parser, argv


def main(argv=None) -> int:
    try:
        parser, argv = build_parser(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliConfigError as e:
        print(f"rweval: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (CliInputError, MalformedElf, Unsupported, UnknownTool, EmptyMatrix,
            DegenerateSplit) as e:
        print(f"rweval: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RwevalError as e:
        print(f"rweval: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("rweval: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as e:  # noqa: BLE001 - last-resort mapping to exit 1
        print(f"rweval: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
