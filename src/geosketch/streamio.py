"""Turnstile streams: the in-memory form and its two wire formats.

In memory a stream is a `Stream`: the dimension d and one (count, 2 +
ceil(d/8)) uint8 array of records `[sign byte][label byte][packed point]`,
the sign `+` or `-`, the label `A`, `B` or `X`, and the point packed
most-significant-bit first with zero pad bits. The binary format is that
array behind a header: magic `GSK1`, little-endian u32 dimension and u64
record count. Text: one update per line, `<sign> <label> <hex>` (e.g.
`+ A 0f`), with `#` comment lines; our writer puts `# d=<dim>` first so
dimension survives the round trip.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable

import numpy as np

from .points import HypercubePoint, PointMultiset, packed_from_hex

__all__ = [
    "Stream",
    "parse_stream",
    "write_stream",
    "parse_stream_binary",
    "write_stream_binary",
    "aggregate",
]

_LABELS = ("A", "B", "X")
# _BAD[f, b]: byte b is not a valid field f of a record (0 the sign, 1 the label)
_BAD = np.ones((2, 256), bool)
_BAD[0, [ord("+"), ord("-")]] = _BAD[1, [ord(c) for c in _LABELS]] = False
_MAGIC = b"GSK1"


class Stream:
    """A turnstile stream of dimension d: one row of `records` per update.

    A stream with no records may have d = 0 (no dimension known). The
    constructor checks every record and names the first bad one, and its
    first bad field: the sign byte, the label byte or the pad bits.
    """

    def __init__(self, d: int, records: np.ndarray):
        width = 2 + (d + 7) // 8
        if records.dtype != np.uint8 or records.shape[1:] != (width,) or (d < 1 and len(records)):
            raise ValueError(f"a d={d} stream holds (count, {width}) uint8 records, got "
                             f"{records.dtype} {records.shape}")
        bad = np.column_stack([_BAD[0, records[:, 0]], _BAD[1, records[:, 1]],
                               records[:, -1] & ((1 << (-d % 8)) - 1) != 0])
        if bad.any():
            i, field = divmod(int(bad.argmax()), 3)
            byte = records[i, field:field + 1].tobytes()
            raise ValueError(f"record {i}: " + (f"bad sign byte {byte!r}", f"bad label byte {byte!r}",
                             f"nonzero pad bits after the {d} point bits")[field])
        self.d = d
        self.records = records

    @classmethod
    def insertions(cls, **bits: np.ndarray) -> "Stream":
        """The stream inserting every row of each (n, d) bit matrix, under the
        label its keyword names, label by label."""
        (d,) = {m.shape[1] for m in bits.values()}  # one dimension
        return cls(d, np.vstack([
            np.hstack([np.tile(np.frombuffer(f"+{label}".encode("ascii"), np.uint8), (len(m), 1)),
                       np.packbits(m, axis=1)])
            for label, m in bits.items()]))

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Stream) and self.d == other.d
                and np.array_equal(self.records, other.records))

    def padded(self, d: int) -> "Stream":
        """The stream with every point zero-padded on the right to dimension
        d: zero bytes appended to each record. Hamming distances are
        unchanged."""
        if d < self.d:
            raise ValueError(f"cannot pad a d={self.d} stream to d={d}")
        extra = np.zeros((len(self), (d + 7) // 8 - (self.d + 7) // 8), np.uint8)
        return Stream(d, np.hstack([self.records, extra]))


def parse_stream(data: bytes | str) -> Stream:
    """Parse the text format; malformed input raises with the line number.

    The dimension is set by a `# d=<int>` comment before the first point,
    or else by the first point's hex width (a whole number of nibbles).
    A point must be canonical (`points.packed_from_hex`).
    """
    d = None
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as e:  # the line of a stand-in for the bad byte
            ln = len((data[:e.start] + b"x").decode("ascii").splitlines())
            raise ValueError(f"line {ln}: byte {data[e.start]:#04x} is not ASCII") from None
    records = bytearray()
    for ln, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if d is None and body.startswith("d="):
                try:
                    d = int(body[2:].split()[0])
                except (IndexError, ValueError):
                    d = 0
                if d < 1:
                    raise ValueError(f"line {ln}: bad dimension comment {line!r}, want d >= 1")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected '<sign> <label> <hex>', got {line!r}")
        sign_s, label, hexpt = parts
        if sign_s not in ("+", "-"):
            raise ValueError(f"line {ln}: sign must be '+' or '-', got {sign_s!r}")
        if label not in _LABELS:
            raise ValueError(f"line {ln}: label must be A, B or X, got {label!r}")
        d = d or 4 * len(hexpt)  # the first point sets a dimension not yet set
        try:
            point = packed_from_hex(hexpt, d)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
        records += (sign_s + label).encode("ascii") + point
    d = d or 0
    return Stream(d, np.frombuffer(records, np.uint8).reshape(-1, 2 + (d + 7) // 8))


def write_stream(stream: Stream, comments: Iterable[str] = ()) -> str:
    """The text form: `# d=` (if d >= 1), the comments, then one line per
    record, the point as ceil(d/4) lower-case hex digits."""
    head = ([f"# d={stream.d}"] if stream.d else []) + [f"# {c}" for c in comments]
    rec, nib = stream.records, (stream.d + 3) // 4
    digits = np.frombuffer(rec[:, 2:].tobytes().hex().encode("ascii"), np.uint8)
    lines = np.empty((len(rec), 5 + nib), np.uint8)
    lines[:, 0], lines[:, 2] = rec[:, 0], rec[:, 1]
    lines[:, [1, 3]], lines[:, -1] = ord(" "), ord("\n")
    lines[:, 4:-1] = digits.reshape(len(rec), 2 * rec.shape[1] - 4)[:, :nib]
    return "".join(f"{h}\n" for h in head) + lines.tobytes().decode("ascii")


def write_stream_binary(stream: Stream) -> bytes:
    return _MAGIC + struct.pack("<IQ", stream.d, len(stream)) + stream.records.tobytes()


def parse_stream_binary(data: bytes) -> Stream:
    """Parse the binary format; malformed input raises ValueError naming the
    header or the record index (`Stream`'s check). The dimension must be at
    least 1 unless there are no records."""
    if data[:4] != _MAGIC:
        raise ValueError("bad magic: not a GSK1 binary stream")
    off = 4 + 12
    if len(data) < off:
        raise ValueError(f"header: truncated, {len(data)} of {off} bytes")
    d, count = struct.unpack_from("<IQ", data, 4)
    if d == 0 and count:
        raise ValueError(f"header: dimension 0 with {count} records, want d >= 1")
    width = 2 + (d + 7) // 8
    if len(data) != off + width * count:
        raise ValueError("truncated binary stream")
    return Stream(d, np.frombuffer(data, np.uint8, offset=off).reshape(count, width))


def aggregate(stream: Stream) -> Dict[str, PointMultiset]:
    """Net multisets per label, by one sort of the records on (label,
    point); a negative final multiplicity raises. Every label of the stream
    is a key, also one whose updates all cancel (an empty multiset)."""
    d, rec = stream.d, stream.records
    keys = np.ascontiguousarray(rec[:, 1:]).view(np.dtype((np.void, rec.shape[1] - 1)))
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    net = np.bincount(inv, np.where(rec[:, 0] == ord("+"), 1.0, -1.0), len(uniq)).astype(np.int64)
    nb, pad = rec.shape[1] - 2, -d % 8
    uniq = uniq.view(np.uint8).reshape(len(uniq), 1 + nb)
    packed = uniq[:, 1:].tobytes()
    out = {chr(c): PointMultiset(d) for c in sorted(set(uniq[:, 0].tolist()))}
    for k, (code, c) in enumerate(zip(uniq[:, 0].tolist(), net.tolist())):
        if c:
            p = HypercubePoint(d, int.from_bytes(packed[k * nb:(k + 1) * nb], "big") >> pad)
            if c < 0:
                raise ValueError(f"negative final multiplicity for {p.to_hex()} in {chr(code)}")
            out[chr(code)].add(p, c)
    return out
