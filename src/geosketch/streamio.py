"""Turnstile stream wire formats.

Text: one update per line, `<sign> <label> <hex>` (e.g. `+ A 0f`), with `#`
comment lines; our writer puts `# d=<dim>` first so dimension survives the
round trip. Binary: magic `GSK1`, little-endian u32 dimension and u64 record
count, then fixed-width records `[sign byte][label byte][packed point]` with
the point packed most-significant-bit-first like the hex form.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .points import HypercubePoint, PointMultiset

__all__ = [
    "TurnstileUpdate",
    "parse_stream",
    "write_stream",
    "parse_stream_binary",
    "write_stream_binary",
    "aggregate",
]

_LABELS = ("A", "B", "X")


@dataclass(frozen=True)
class TurnstileUpdate:
    sign: int  # +1 or -1
    label: str  # 'A', 'B' or 'X'
    point: HypercubePoint

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {self.label!r}")


def parse_stream(data: bytes | str, d: Optional[int] = None) -> List[TurnstileUpdate]:
    """Parse the text format; malformed input raises with the line number.

    The dimension is taken from a `# d=<int>` comment unless given; otherwise
    it is inferred from the first point's hex width (a whole number of
    nibbles).
    """
    if isinstance(data, bytes):
        data = data.decode("ascii")
    updates: List[TurnstileUpdate] = []
    for ln, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if d is None and body.startswith("d="):
                try:
                    d = int(body[2:].split()[0])
                except ValueError as e:
                    raise ValueError(f"line {ln}: bad dimension comment {line!r}") from e
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected '<sign> <label> <hex>', got {line!r}")
        sign_s, label, hexpt = parts
        if sign_s not in ("+", "-"):
            raise ValueError(f"line {ln}: sign must be '+' or '-', got {sign_s!r}")
        if label not in _LABELS:
            raise ValueError(f"line {ln}: label must be A, B or X, got {label!r}")
        dim = d if d is not None else 4 * len(hexpt)
        try:
            point = HypercubePoint.from_hex(hexpt, dim)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
        if d is None:
            d = dim
        updates.append(TurnstileUpdate(1 if sign_s == "+" else -1, label, point))
    return updates


def write_stream(updates: Iterable[TurnstileUpdate], comments: Iterable[str] = ()) -> str:
    updates = list(updates)
    lines = []
    if updates:
        lines.append(f"# d={updates[0].point.d}")
    for c in comments:
        lines.append(f"# {c}")
    for u in updates:
        lines.append(f"{'+' if u.sign > 0 else '-'} {u.label} {u.point.to_hex()}")
    return "\n".join(lines) + "\n"


_MAGIC = b"GSK1"
_LABEL_BYTES = tuple(lbl.encode("ascii") for lbl in _LABELS)


def write_stream_binary(updates: Iterable[TurnstileUpdate]) -> bytes:
    updates = list(updates)
    if not updates:
        return _MAGIC + struct.pack("<IQ", 0, 0)
    d = updates[0].point.d
    nbytes = (d + 7) // 8
    out = [_MAGIC, struct.pack("<IQ", d, len(updates))]
    for u in updates:
        if u.point.d != d:
            raise ValueError("mixed dimensions in one stream")
        out.append(b"+" if u.sign > 0 else b"-")
        out.append(u.label.encode("ascii"))
        out.append((u.point.value << (nbytes * 8 - d)).to_bytes(nbytes, "big"))
    return b"".join(out)


def parse_stream_binary(data: bytes) -> List[TurnstileUpdate]:
    """Parse the binary format; malformed input raises ValueError naming the
    header or the record index."""
    if data[:4] != _MAGIC:
        raise ValueError("bad magic: not a GSK1 binary stream")
    off = 4 + 12
    if len(data) < off:
        raise ValueError(f"header: truncated, {len(data)} of {off} bytes")
    d, count = struct.unpack_from("<IQ", data, 4)
    nbytes = (d + 7) // 8
    rec = 2 + nbytes
    if len(data) != off + rec * count:
        raise ValueError("truncated binary stream")
    updates = []
    for i in range(count):
        base = off + i * rec
        sign_b, label_b = data[base : base + 1], data[base + 1 : base + 2]
        if sign_b not in (b"+", b"-"):
            raise ValueError(f"record {i}: bad sign byte {sign_b!r}")
        if label_b not in _LABEL_BYTES:
            raise ValueError(f"record {i}: bad label byte {label_b!r}")
        value = int.from_bytes(data[base + 2 : base + rec], "big") >> (nbytes * 8 - d)
        updates.append(
            TurnstileUpdate(1 if sign_b == b"+" else -1, label_b.decode("ascii"),
                            HypercubePoint(d, value))
        )
    return updates


def aggregate(updates: Iterable[TurnstileUpdate]) -> Dict[str, PointMultiset]:
    """Net multisets per label; negative final multiplicities raise."""
    nets: Dict[str, Dict[HypercubePoint, int]] = {}
    d = None
    for u in updates:
        d = u.point.d if d is None else d
        nets.setdefault(u.label, {})
        nets[u.label][u.point] = nets[u.label].get(u.point, 0) + u.sign
    out: Dict[str, PointMultiset] = {}
    for label, counts in nets.items():
        ms = PointMultiset(d)
        for p, c in counts.items():
            if c < 0:
                raise ValueError(
                    f"negative final multiplicity for {p.to_hex()} in {label}"
                )
            if c:
                ms.add(p, c)
        out[label] = ms
    return out
