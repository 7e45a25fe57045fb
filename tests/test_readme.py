"""The README's examples run, and its check table is the program's.

Every ```python block runs in order in one namespace. Every `warpgeo`
command of the ```sh blocks runs in a temporary directory, after the
`echo '...' > FILE` lines that make its input, and exits 0, or 1 where
the comment above it says so. The check names those commands and
`report --seed 0` emit must be exactly the check table's full names and
report prefixes.
"""

import contextlib
import io
import json
import os
import re
import shlex

from warpgeo import cli, geometry

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _blocks(lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```%s\n(.*?)^```$" % lang, text, re.M | re.S)


def _commands():
    """(argv, files, exit code) of each warpgeo command in the sh blocks."""
    out = []
    for block in _blocks("sh"):
        comment, files = "", {}
        for line in block.replace("\\\n", " ").splitlines():
            echo = re.match(r"echo '(.*)' > (\S+)$", line)
            if echo:
                files[echo.group(2)] = echo.group(1)
            elif line.startswith("#"):
                comment += line
            elif line.startswith("warpgeo "):
                want = 1 if "exits 1" in comment else 0
                out.append((shlex.split(line)[1:], dict(files), want))
            else:
                comment = ""
    return out


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, json.loads(text) if text.startswith("{") else None


def _table():
    """The check table's full names and report prefixes."""
    full, prefixes = set(), set()
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            row = re.match(r"\| `([a-z-]+)` \| `([a-z-]+)-` \|", line)
            if row:
                full.add(row.group(1))
                prefixes.add(row.group(2))
    return full, prefixes


def test_python_examples_run():
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)


def _run_examples(tmp_path, monkeypatch):
    """(argv, exit code wanted, exit code, report) of each command."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for argv, files, want in _commands():
        for name, text in files.items():
            (tmp_path / name).write_text(text + "\n")
        runs.append((argv, want) + _run(argv))
    return runs


def test_command_examples_exit_as_stated(tmp_path, monkeypatch):
    runs = _run_examples(tmp_path, monkeypatch)
    assert len(runs) >= 10
    for argv, want, code, _ in runs:
        assert code == want, argv


def test_check_table_is_the_checks(tmp_path, monkeypatch):
    full = set()
    for argv, _, _, doc in _run_examples(tmp_path, monkeypatch):
        if argv[0] not in ("build", "report"):
            full.update(c["name"] for c in doc["checks"])
    code, doc = _run(["report", "--seed", "0"])
    assert code == 0
    # a report name is <prefix>-<label>, the label a family member's
    label = re.compile(r"^(.*?)-(?:%s)-n\d" % "|".join(
        re.escape(f) for f in geometry.FAMILIES))
    prefixes = {label.match(c["name"]).group(1) for c in doc["checks"]}
    assert _table() == (full, prefixes)
