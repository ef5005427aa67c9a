import struct

import pytest

from geosketch import HypercubePoint, TurnstileUpdate, parse_stream_binary, write_stream_binary


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
