"""A content-keyed cache of loaded results files.

harness.load_records_csv loads a regular file of at least
harness.MIN_CACHE_BYTES through load(): the columns it loaded are kept
beside the file, in .<name>.rwcache, keyed by the SHA-256 of the file's
bytes and of the results layout (SCHEMA). A second load of the same bytes
reads the columns back with one marshal.loads instead of parsing the rows
again.

The cache only saves time. A cache that is missing, unreadable, not a
regular file, not owned by this user, writable by others, of another key or
of the wrong shape reads as a miss, and a miss is a full load: the same
columns, the same errors, nothing printed. A cache is written only after a
load that succeeded, of a file that did not change while it was hashed and
loaded, and never where no file can be made beside it.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import stat
import tempfile
from contextlib import suppress

from .harness import RESULTS_COLUMNS, Results, _load_file, _VariantCache
from .variant import STATES, VARIANT_COLUMNS

# The payload's layout; a change to it must change this number.
FORMAT = 1
# Hashed before the file's bytes: a cache written for another payload
# layout, marshal format, column set or STATES order reads as a miss.
SCHEMA = repr((FORMAT, marshal.version, RESULTS_COLUMNS, STATES)).encode()
# The variant cells of a binary without a variant.
_NO_VARIANT = ("",) * len(VARIANT_COLUMNS)


def load(path, f, before: os.stat_result) -> Results:
    """The columns of the results file at path, open as the binary file f at
    its start, whose os.fstat was before: read from its cache,
    .<name>.rwcache beside it, when the cache's key is the file's, else
    loaded in full and then cached."""
    fd = f.fileno()
    key = _file_key(fd)
    head, name = os.path.split(os.fsdecode(path))
    cache = os.path.join(head, f".{name}.rwcache")
    results = _read(cache, key)
    if results is None:
        results = _load_file(f)
        if _identity(os.fstat(fd)) == _identity(before):
            _write(cache, key, results)
    return results


def _file_key(fd: int) -> bytes:
    """The SHA-256 of SCHEMA and the bytes of the file open as fd, read by
    os.pread so that its offset does not move."""
    digest, offset = hashlib.sha256(SCHEMA), 0
    while block := os.pread(fd, 1 << 18, offset):
        digest.update(block)
        offset += len(block)
    return digest.digest()


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _read(cache: str, key: bytes) -> Results | None:
    """The columns held by the cache file at cache under key, or None. Only
    a regular file that this user owns and no one else can write is read:
    marshal data is trusted only from there."""
    try:
        fd = os.open(cache, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return None
    try:
        st = os.fstat(fd)
        if (not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid()
                or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
            return None
        with open(fd, "rb", closefd=False) as c:
            blob = c.read()  # one read, then loads: marshal.load(c) is many times slower
    except OSError:
        return None
    finally:
        os.close(fd)
    try:
        return _decode(marshal.loads(blob), key)
    except (EOFError, ValueError, TypeError):  # not marshal data, or a bad value
        return None


def _decode(payload, key: bytes) -> Results | None:
    """The Results that _write's payload holds, or None when the payload is
    of another key or any field is of the wrong type or length."""
    if type(payload) is not tuple or len(payload) != 9 or payload[0] != key:
        return None
    _, ids, cells, binary_ids, tools, states, runtime, mem, sizes = payload
    if not (type(ids) is list and type(cells) is list and len(cells) == len(ids)
            and type(binary_ids) is list and type(tools) is list):
        return None
    rows = len(binary_ids)
    if not (len(tools) == rows and type(states) is bytes and len(states) == rows
            and max(states, default=0) < len(STATES)
            and all(type(column) is bytes and len(column) == 8 * rows
                    for column in (runtime, mem, sizes))):
        return None
    # Each distinct value is checked once; TypeError for an unhashable one
    if not all(type(v) is str for v in {*ids, *tools}) or not all(
            type(c) is tuple and len(c) == len(_NO_VARIANT) and set(map(type, c)) <= {str}
            for c in set(cells)):
        return None
    variant_of = _VariantCache()  # equal cells share one VariantConfig, as in a full load
    variants = dict(zip(ids, map(variant_of.__getitem__, cells)))
    # ids are distinct, and each binary id is one of them, so a str too
    if len(variants) != len(ids) or not variants.keys() >= set(binary_ids):
        return None
    results = Results()
    results.variants, results.binary_ids, results.tools = variants, binary_ids, tools
    results.states = bytearray(states)
    results.runtime_s.frombytes(runtime)
    results.mem_kb.frombytes(mem)
    results.out_size.frombytes(sizes)
    return results


def _write(cache: str, key: bytes, results: Results) -> None:
    """Replace the cache file at cache with results under key, through a new
    file beside it. Where no file can be made or written there, write
    nothing and leave no file behind."""
    blob = marshal.dumps((
        key, list(results.variants),
        [_NO_VARIANT if v is None else v.columns() for v in results.variants.values()],
        results.binary_ids, results.tools, bytes(results.states),
        results.runtime_s.tobytes(), results.mem_kb.tobytes(), results.out_size.tobytes()))
    head, name = os.path.split(cache)
    try:
        fd, temp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=head or os.curdir)
    except OSError:  # a directory this process cannot write
        return
    try:
        with open(fd, "wb") as out:
            out.write(blob)
        os.replace(temp, cache)
        temp = None
    except OSError:  # a full disk, or a directory where the cache should be
        pass
    finally:
        if temp is not None:
            with suppress(OSError):
                os.unlink(temp)
