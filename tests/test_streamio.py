import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from geosketch import (
    HypercubePoint, Stream, aggregate, parse_stream, parse_stream_binary, write_stream,
    write_stream_binary,
)

from conftest import stream_of, updates_of


def _stream():
    return stream_of(12, [(1, "A", 0xABC), (-1, "B", 0x001), (1, "X", 0xFFF)])


def test_binary_round_trip():
    s, empty = _stream(), stream_of(12, [])
    assert parse_stream_binary(write_stream_binary(s)) == s
    assert parse_stream_binary(write_stream_binary(empty)) == empty


def test_binary_short_header_raises():
    with pytest.raises(ValueError, match="header"):
        parse_stream_binary(b"GSK1\x08\x00")


def test_binary_bad_magic_and_truncation_raise():
    blob = write_stream_binary(_stream())
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
    blob = _with_byte(write_stream_binary(_stream()), 2, field, byte)
    with pytest.raises(ValueError, match=f"record 2: bad {what} byte"):
        parse_stream_binary(blob)


def test_stream_check_names_the_first_bad_record_and_its_first_bad_field():
    """`Stream` checks all records at once, and names the first bad record
    and, in it, the first bad field, whatever later records hold."""
    records = stream_of(3, [(1, "A", 1)] * 4).records.copy()
    records[1, 1], records[1, 2] = ord("C"), records[1, 2] | 1  # bad label and pad bits
    records[2, 0] = ord("*")
    with pytest.raises(ValueError, match=r"^record 1: bad label byte b'C'$"):
        Stream(3, records)
    records[1, 1] = ord("B")
    with pytest.raises(ValueError, match="^record 1: nonzero pad bits after the 3 point bits$"):
        Stream(3, records)
    records[1, 2] &= 0xFE
    with pytest.raises(ValueError, match=r"^record 2: bad sign byte b'\*'$"):
        Stream(3, records)


def test_stream_records_have_the_width_of_one_dimension():
    """A stream has one dimension: the records of a d = 12 point are one
    byte too wide for a d = 8 stream, and are refused."""
    with pytest.raises(ValueError, match=r"a d=8 stream holds \(count, 3\) uint8 records"):
        Stream(8, stream_of(12, [(1, "X", 1)]).records)


def test_text_round_trip_sets_dimension_from_comment_or_first_point():
    """The `# d=` comment sets the dimension (d = 3 is not a whole nibble);
    without it the first point's hex width does."""
    s = stream_of(3, [(1, "X", v) for v in (5, 7)])
    assert parse_stream(write_stream(s)) == s
    assert parse_stream("+ A 0f\n- B f0\n") == stream_of(8, [(1, "A", 0x0F), (-1, "B", 0xF0)])


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
    assert parse_stream("# d=12\n+ A aBc\n") == stream_of(12, [(1, "A", 0xABC)])


def test_binary_rejects_nonzero_pad_bits():
    """At d = 3 the record's byte is the point followed by five pad bits,
    which must be 0, so no two records encode one point."""
    blob = write_stream_binary(stream_of(3, [(1, "X", 7)] * 2))
    assert updates_of(parse_stream_binary(blob))[1] == (1, "X", 7)
    with pytest.raises(ValueError, match="record 1: nonzero pad bits"):
        parse_stream_binary(_with_byte(blob, 1, 2, b"\xe1"))


def test_binary_header_of_dimension_zero():
    """A header of dimension 0 is an empty stream; with records it fails at
    the header."""
    assert parse_stream_binary(b"GSK1" + struct.pack("<IQ", 0, 0)) == stream_of(0, [])
    with pytest.raises(ValueError, match="header: dimension 0 with 1 records"):
        parse_stream_binary(b"GSK1" + struct.pack("<IQ", 0, 1) + b"+X")


# -- property tests of the codecs and of netting --------------------------------


@st.composite
def turnstile_streams(draw):
    """(d, updates): insertions of a few points under the three labels, then
    deletions of some of them, all in a drawn order, so points repeat and
    every final count is at least 0. d in [1, 130] crosses byte, 64-bit and
    128-bit boundaries."""
    d = draw(st.integers(1, 130))
    pool = draw(st.lists(st.integers(0, 2**d - 1), min_size=1, max_size=4))
    ins = draw(st.lists(st.tuples(st.sampled_from("ABX"), st.sampled_from(pool)), max_size=30))
    gone = draw(st.lists(st.booleans(), min_size=len(ins), max_size=len(ins)))
    ups = [(1, lbl, v) for lbl, v in ins] + [(-1, lbl, v) for (lbl, v), g in zip(ins, gone) if g]
    return d, draw(st.permutations(ups))


# A cancels out entirely; B keeps one of its two copies.
_CANCELLING = (5, [(1, "A", 3), (1, "B", 1), (1, "B", 1), (-1, "A", 3), (-1, "B", 1)])


def _netted(d, ups):
    """{label: {point: net count}} by a dict, zero counts dropped and every
    label of the updates kept."""
    nets = {}
    for sign, label, value in ups:
        counts = nets.setdefault(label, {})
        counts[value] = counts.get(value, 0) + sign
    return {label: {HypercubePoint(d, v): c for v, c in counts.items() if c}
            for label, counts in nets.items()}


def _as_dicts(nets):
    return {label: dict(ms.items()) for label, ms in nets.items()}


@settings(deadline=None)
@given(turnstile_streams())
def test_text_and_binary_round_trips_give_the_stream_back(case):
    s = stream_of(*case)
    assert parse_stream(write_stream(s)) == s
    assert parse_stream_binary(write_stream_binary(s)) == s


@settings(deadline=None)
@given(turnstile_streams())
@example(_CANCELLING)
def test_aggregate_nets_like_a_dict(case):
    """`aggregate` equals a dict netting of the same records, a label whose
    updates all cancel included (as an empty multiset)."""
    d, ups = case
    nets = aggregate(stream_of(d, ups))
    assert _as_dicts(nets) == _netted(d, ups)
    assert all(ms.d == d for ms in nets.values())
    if case == _CANCELLING:
        assert len(nets["A"]) == 0 and len(nets["B"]) == 1


@settings(deadline=None)
@given(turnstile_streams(), st.data())
def test_aggregate_rejects_a_negative_final_count(case, data):
    """Deleting a point once more than the stream holds it raises, naming
    the point's hex and its label."""
    d, ups = case
    label = data.draw(st.sampled_from("ABX"))
    p = HypercubePoint(d, data.draw(st.integers(0, 2**d - 1)))
    held = _netted(d, ups).get(label, {}).get(p, 0)
    s = stream_of(d, ups + [(-1, label, p.value)] * (held + 1))
    with pytest.raises(ValueError, match=f"^negative final multiplicity for {p.to_hex()} in {label}$"):
        aggregate(s)


@settings(deadline=None)
@given(turnstile_streams(), st.integers(0, 70))
def test_aggregate_of_a_padded_stream_shifts_each_point(case, extra):
    """Padding to D = d + extra appends zero bits: each netted point is the
    same point shifted left by D - d."""
    d, ups = case
    D = d + extra
    want = {label: {HypercubePoint(D, p.value << extra): c for p, c in counts.items()}
            for label, counts in _netted(d, ups).items()}
    nets = aggregate(stream_of(d, ups).padded(D))
    assert _as_dicts(nets) == want
    assert all(ms.d == D for ms in nets.values())
    if d > 1:
        with pytest.raises(ValueError, match=f"cannot pad a d={d} stream to d={d - 1}"):
            stream_of(d, ups).padded(d - 1)
