"""``read_input``, the one reader of input text, against text mode's ``open``.

Every command reads its inputs through ``read_input``, which decodes the whole
file's bytes in one call; these tests hold it to what ``open(path,
encoding="utf-8").read()`` gives, including its errors."""

from pathlib import Path

import pytest

from vrueval.errors import ParseError, read_input


def text_mode(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "data, text",
    [
        (b"a\r\nb\r\n", "a\nb\n"),
        (b"a\rb\r", "a\nb\n"),
        (b"a\r\r\nb\n\rc", "a\n\nb\n\nc"),
        (b"\r\n\r", "\n\n"),
        (b"a\n\nb", "a\n\nb"),
        (b"\xef\xbb\xbf0 0.5\r\n", "\ufeff0 0.5\n"),
        (b"", ""),
        (" x\x85y\x0cz\r\n".encode(), " x\x85y\x0cz\n"),
    ],
    ids=["crlf", "lone-cr", "mixed", "only-endings", "lf", "bom-kept", "empty", "other-breaks"],
)
def test_line_endings_read_as_text_mode_reads_them(tmp_path, data, text):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert read_input(path) == text == text_mode(path)
    assert read_input(str(path)) == text


@pytest.mark.parametrize(
    "offset, tail, reason",
    [
        (0, b"\xff", "invalid start byte"),
        (10_000, b"\xc3(", "invalid continuation byte"),
        (8192 * 3 + 1, b"\xe2\x82", "unexpected end of data"),
    ],
)
def test_undecodable_byte_names_its_absolute_offset(tmp_path, offset, tail, reason):
    path = tmp_path / "input.txt"
    # CRLF lines before the bad byte: the offset counts bytes, not decoded characters
    path.write_bytes((b"0 0.5\r\n" * (offset // 7 + 1))[:offset] + tail)
    with pytest.raises(UnicodeDecodeError) as expected:
        text_mode(path)
    assert expected.value.start == offset
    with pytest.raises(ParseError) as info:
        read_input(path)
    assert str(info.value) == f"{path}: not UTF-8 text: byte {offset}: {reason}"


@pytest.mark.parametrize("kind", ["missing", "directory", "under-a-file"])
@pytest.mark.parametrize("as_str", [True, False], ids=["str", "Path"])
def test_unopenable_path_raises_what_text_mode_raises(tmp_path, kind, as_str):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    path = tmp_path / {"missing": "none.txt", "directory": "dir", "under-a-file": "file/x"}[kind]
    path = str(path) if as_str else Path(path)
    with pytest.raises(OSError) as expected:
        text_mode(path)
    with pytest.raises(OSError) as info:
        read_input(path)
    assert type(info.value) is type(expected.value)
    assert str(info.value) == str(expected.value)
