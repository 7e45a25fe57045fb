import json

import pytest

from warpgeo import serialize


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


def test_failed_write_names_the_path_and_leaves_no_temp_file(tmp_path):
    # os.replace onto a directory fails after the temp file exists
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError) as info:
        serialize.write_text_atomic(str(target), "x")
    assert (info.value.filename, info.value.filename2) == (str(target), None)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
