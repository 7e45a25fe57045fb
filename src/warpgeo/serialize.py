"""Deterministic JSON and text output.

Floats are rendered with repr-faithful '%.17g' so that identical inputs
produce byte-identical files across runs and platforms; keys are emitted in
sorted order. Writes go through a temp file and os.replace so a crashed run
never leaves a half-written artifact, and refuse a path that is there but is
not a regular file.
"""

import errno
import math
import os
import stat
import tempfile
from json.encoder import encode_basestring

import numpy as np


def fmt_float(x):
    """The float formatter of every writer: '%.17g', NaN and +-Infinity."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def fmt_rows(table):
    """CSV lines of a 2-D float table, one a row, each value as fmt_float
    writes it: a finite row in one '%.17g,...' % row, any other row value by
    value through fmt_float."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1])
    finite = np.isfinite(table).all(axis=1).tolist()
    return [line % tuple(row) if ok else ",".join(map(fmt_float, row))
            for row, ok in zip(table.tolist(), finite)]


def to_json(obj, indent=0):
    """Render obj as a JSON string with sorted keys and stable floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj.keys())
        items = [
            "%s%s: %s" % (pad_in, encode_basestring(str(k)),
                          to_json(obj[k], indent + 1))
            for k in keys
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError("cannot serialize %r" % type(obj))


def write_text_atomic(path, text):
    """Write text to path via a same-directory temp file and os.replace.

    A path that exists and is not a regular file (a symlink, directory,
    device or fifo) is refused before anything is written, since replacing
    it would not write where it points. The file gets the mode a plain open
    gives a new file, 0o666 less the umask, or keeps the mode of the
    regular file it replaces. An OSError names path, not the directory or
    temp file that failed.
    """
    tmp = None
    try:
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file")
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        os.fchmod(fd, stat.S_IMODE(mode))
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        # os.replace has consumed tmp unless something failed
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj):
    write_text_atomic(path, to_json(obj) + "\n")
