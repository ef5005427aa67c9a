import struct

import pytest

from geosketch import (
    HypercubePoint, TurnstileUpdate, parse_stream, parse_stream_binary, write_stream,
    write_stream_binary,
)


def _updates():
    return [
        TurnstileUpdate(1, "A", HypercubePoint(12, 0xABC)),
        TurnstileUpdate(-1, "B", HypercubePoint(12, 0x001)),
        TurnstileUpdate(1, "X", HypercubePoint(12, 0xFFF)),
    ]


def test_binary_round_trip():
    ups = _updates()
    assert parse_stream_binary(write_stream_binary(ups)) == ups
    assert parse_stream_binary(write_stream_binary([])) == []


def test_binary_short_header_raises():
    with pytest.raises(ValueError, match="header"):
        parse_stream_binary(b"GSK1\x08\x00")


def test_binary_bad_magic_and_truncation_raise():
    blob = write_stream_binary(_updates())
    with pytest.raises(ValueError, match="magic"):
        parse_stream_binary(b"GSK2" + blob[4:])
    with pytest.raises(ValueError, match="truncated"):
        parse_stream_binary(blob[:-1])


def _with_byte(blob: bytes, record: int, field: int, byte: bytes) -> bytes:
    d = struct.unpack_from("<I", blob, 4)[0]
    pos = 16 + record * (2 + (d + 7) // 8) + field
    return blob[:pos] + byte + blob[pos + 1 :]


@pytest.mark.parametrize("field,byte,what", [
    (0, b"*", "sign"),
    (1, b"C", "label"),
    (1, b"\xc3", "label"),  # not ASCII
])
def test_binary_bad_record_byte_names_the_record(field, byte, what):
    blob = _with_byte(write_stream_binary(_updates()), 2, field, byte)
    with pytest.raises(ValueError, match=f"record 2: bad {what} byte"):
        parse_stream_binary(blob)


def test_text_round_trip_sets_dimension_from_comment_or_first_point():
    """The `# d=` comment sets the dimension (d = 3 is not a whole nibble);
    without it the first point's hex width does."""
    ups = [TurnstileUpdate(1, "X", HypercubePoint(3, v)) for v in (5, 7)]
    assert parse_stream(write_stream(ups)) == ups
    assert parse_stream("+ A 0f\n- B f0\n") == [TurnstileUpdate(1, "A", HypercubePoint(8, 0x0F)),
                                                 TurnstileUpdate(-1, "B", HypercubePoint(8, 0xF0))]


def test_write_stream_rejects_mixed_dimensions():
    """Both writers refuse a stream whose points differ in dimension, which
    the text reader would otherwise reject only at the odd point."""
    ups = [TurnstileUpdate(1, "X", HypercubePoint(d, 1)) for d in (8, 12)]
    for write in (write_stream, write_stream_binary):
        with pytest.raises(ValueError, match="mixed dimensions"):
            write(ups)


@pytest.mark.parametrize("text,line", [
    ("# d=12\n+ X f_f\n", 2),  # int(s, 16) reads the underscore
    ("# d=12\n+ X +0f\n", 2),  # ... and a sign
    ("# d=12\n- X -0f\n", 2),
    ("+ X 0xf\n", 1),  # ... and a base prefix
    ("# d=3\n+ X e\n- X f\n", 3),  # pad bit set: f would read as e
    ("# d=12\n+ A abc\n+ A ab\n", 3),
])
def test_text_rejects_noncanonical_points(text, line):
    """A point is exactly the hex digits `to_hex` writes (in either case),
    and the error names its line."""
    with pytest.raises(ValueError, match=f"line {line}: hex point for d="):
        parse_stream(text)


def test_text_accepts_either_case():
    assert parse_stream("# d=12\n+ A aBc\n") == [TurnstileUpdate(1, "A", HypercubePoint(12, 0xABC))]


def test_binary_rejects_nonzero_pad_bits():
    """At d = 3 the record's byte is the point followed by five pad bits,
    which must be 0, so no two records encode one point."""
    blob = write_stream_binary([TurnstileUpdate(1, "X", HypercubePoint(3, 7))] * 2)
    assert parse_stream_binary(blob)[1].point == HypercubePoint(3, 7)
    with pytest.raises(ValueError, match="record 1: nonzero pad bits"):
        parse_stream_binary(_with_byte(blob, 1, 2, b"\xe1"))


def test_binary_header_of_dimension_zero():
    """A header of dimension 0 is an empty stream, as written; with records
    it fails at the header."""
    assert parse_stream_binary(b"GSK1" + struct.pack("<IQ", 0, 0)) == []
    with pytest.raises(ValueError, match="header: dimension 0 with 1 records"):
        parse_stream_binary(b"GSK1" + struct.pack("<IQ", 0, 1) + b"+X")
