import json
import os
import stat

import numpy as np
import pytest

from warpgeo import cli, serialize


def test_strings_round_trip_through_json():
    # every control character, the quote, the backslash and a few code
    # points that JSON passes through as they are, as values and as keys
    chars = [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "\u2028",
                                             "\u2029", "\ufeff", "\U0001f600"]
    for ch in chars:
        s = "a%sb" % ch
        assert json.loads(serialize.to_json(s)) == s, repr(ch)
        assert json.loads(serialize.to_json({s: [s]})) == {s: [s]}, repr(ch)
    text = serialize.to_json("".join(chars))
    assert all(ord(c) >= 0x20 for c in text)
    assert json.loads(text) == "".join(chars)


def test_rows_are_formatted_as_fmt_float_formats_each_value():
    # magnitudes from 1e-320 (subnormal) to 1e308 of either sign, -0.0, and
    # rows holding NaN or an infinity, against the value-by-value writer
    rng = np.random.default_rng(11)
    table = rng.choice([-1.0, 1.0], (2000, 6)) * 10.0 ** rng.uniform(
        -320, 308, (2000, 6))
    table[::7, 1] = -0.0
    table[3::11, 2] = 5e-324
    table[5::13, 3] = np.nan
    table[6::17, 4] = np.inf
    table[8::19, 5] = -np.inf
    table[9] = [0.0, -0.0, 1.0, -2.5, 1e308, -1e-320]
    want = [",".join(serialize.fmt_float(float(v)) for v in row)
            for row in table]
    assert serialize.fmt_rows(table) == want
    assert serialize.fmt_rows(np.empty((0, 3))) == []


def test_failed_write_names_the_path_and_leaves_no_temp_file(tmp_path):
    # os.replace onto a directory fails after the temp file exists
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError) as info:
        serialize.write_text_atomic(str(target), "x")
    assert (info.value.filename, info.value.filename2) == (str(target), None)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("command", [
    ["report", "--seed", "0", "--out"],
    ["warp", "--family", "schwarzschild", "--n", "5", "--t-end", "1",
     "--csv"],
    ["build", "--family", "sphere", "--n", "3", "--count", "4", "--res", "3",
     "--out"],
], ids=["report", "warp-csv", "build"])
def test_symlink_is_refused_and_left_as_it_is(tmp_path, capsys, command):
    # os.replace would put a regular file where the link was and leave the
    # file it points to as it was; the writer refuses the path, so the
    # command exits 3 and both stay as they were
    target = tmp_path / "target"
    target.write_text("keep")
    out = tmp_path / "out"
    out.mkdir()
    build = command[0] == "build"   # writes out/<label>.csv, .obj, .json
    link = out / "sphere-n3.csv" if build else tmp_path / "link"
    link.symlink_to(target)
    assert cli.main(command + [str(out if build else link)]) == 3
    assert str(link) in capsys.readouterr().err
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "keep"
    assert [p.name for p in out.iterdir()] == (["sphere-n3.csv"] if build
                                               else [])


def test_output_mode_is_what_a_plain_open_gives(tmp_path):
    # a new file gets 0o666 less the umask, and a regular file that is
    # replaced keeps its mode
    path = tmp_path / "out.json"
    old = os.umask(0o027)
    try:
        serialize.write_text_atomic(str(path), "x")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    path.chmod(0o604)
    serialize.write_text_atomic(str(path), "y")
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    assert path.read_text() == "y"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
