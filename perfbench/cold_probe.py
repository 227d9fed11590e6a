"""Fresh-process probe: time `import rweval.cli`, then each main() call.

Usage: python3 cold_probe.py '[["scope", "--format", "json", "PATH"], ...]'

Prints one JSON object: import_s, main_s (one per call), numpy_loaded and
outputs (exit code, stdout and stderr of each call).  Nothing but sys and
time is imported before rweval, so import_s is what `rweval` pays.
"""

import sys
import time

start = time.perf_counter()
import rweval.cli  # noqa: E402

import_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

main_s, outputs = [], []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = rweval.cli.main(argv)
        main_s.append(time.perf_counter() - t0)
    outputs.append(f"rc={rc}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}\n")
print(json.dumps({
    "import_s": import_s,
    "main_s": main_s,
    "numpy_loaded": int("numpy" in sys.modules),
    "outputs": outputs,
}))
