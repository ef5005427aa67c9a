"""Hypercube points, point multisets and Hamming distance matrices.

A point is a bit vector of fixed dimension d, stored packed (one Python int,
bit 0 of the vector being the most significant bit of the integer, so the hex
serialization reads left to right). Points are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "HypercubePoint",
    "PointMultiset",
    "hamming_matrix",
    "packed_from_hex",
    "points_to_matrix",
    "values_to_matrix",
]


@dataclass(frozen=True)
class HypercubePoint:
    """An element of {0,1}^d, packed most-significant-bit-first."""

    d: int
    value: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if not 0 <= self.value < (1 << self.d):
            raise ValueError("packed value out of range for dimension")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "HypercubePoint":
        bits = list(bits)
        value = 0
        for b in bits:
            value = (value << 1) | (1 if b else 0)
        return cls(len(bits), value)

    @classmethod
    def from_hex(cls, s: str, d: int) -> "HypercubePoint":
        """The point whose `to_hex` is s (`packed_from_hex`)."""
        return cls(d, int.from_bytes(packed_from_hex(s, d), "big") >> (-d % 8))

    def to_hex(self) -> str:
        nib = (self.d + 3) // 4
        return format(self.value << (nib * 4 - self.d), f"0{nib}x")

    def bits(self) -> np.ndarray:
        """Coordinates as a uint8 array of length d."""
        return values_to_matrix([self.value], self.d)[0]


def packed_from_hex(s: str, d: int) -> bytes:
    """The point whose `to_hex` is s, packed most-significant-bit first in
    ceil(d/8) bytes with zero pad bits. s is in either case: ceil(d/4) hex
    digits (no sign or `_`), left-aligned, with zero pad bits."""
    nib, pad = (d + 3) // 4, -d % 4
    value = int(s, 16) if len(s) == nib else -1
    if value < 0 or format(value, f"0{nib}x") != s.lower() or value % (1 << pad):
        raise ValueError(f"hex point for d={d} must be {nib} hex digits"
                         + (f" ending in {pad} zero bits" if pad else "") + f", got {s!r}")
    return (value << 4 * (nib % 2)).to_bytes((d + 7) // 8, "big")


class PointMultiset:
    """Multiset of hypercube points: map point -> nonnegative multiplicity."""

    def __init__(self, d: int):
        self.d = d
        self._counts: Dict[HypercubePoint, int] = {}

    @classmethod
    def from_points(cls, points: Iterable[HypercubePoint]) -> "PointMultiset":
        """The multiset of the points, of the first point's dimension."""
        it = iter(points)
        first = next(it, None)
        if first is None:
            raise ValueError("from_points needs at least one point: the dimension "
                             "is read from the first point")
        ms = cls(first.d)
        ms.add(first)
        for p in it:
            ms.add(p)
        return ms

    def add(self, p: HypercubePoint, count: int = 1) -> None:
        if p.d != self.d:
            raise ValueError(f"dimension mismatch: {p.d} != {self.d}")
        c = self._counts.get(p, 0) + count
        if c < 0:
            raise ValueError(f"negative multiplicity for {p.to_hex()}")
        if c == 0:
            self._counts.pop(p, None)
        else:
            self._counts[p] = c

    def items(self) -> Iterator[Tuple[HypercubePoint, int]]:
        return iter(self._counts.items())

    def support(self):
        return self._counts.keys()

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return self.total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointMultiset)
            and self.d == other.d
            and self._counts == other._counts
        )


def points_to_matrix(ms: PointMultiset) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct points of a multiset as a (k, d) uint8 matrix plus counts.

    Row order is deterministic (sorted by packed value), so everything derived
    from the matrix is stream-order independent.
    """
    items = sorted(ms.items(), key=lambda pc: pc[0].value)
    mat = values_to_matrix([p.value for p, _ in items], ms.d)
    return mat, np.array([c for _, c in items], dtype=np.int64)


def values_to_matrix(values: Sequence[int], d: int) -> np.ndarray:
    """Packed points of dimension d as a (len(values), d) uint8 bit matrix."""
    nb = (d + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nb, "big") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), nb), axis=1)[:, nb * 8 - d:]


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All pairwise Hamming distances between rows of two (n, d) bit matrices."""
    xp = np.packbits(xs.astype(np.uint8), axis=1)
    yp = np.packbits(ys.astype(np.uint8), axis=1)
    out = np.zeros((xp.shape[0], yp.shape[0]), dtype=np.int64)
    for j in range(xp.shape[1]):
        out += _POPCOUNT[xp[:, j][:, None] ^ yp[:, j][None, :]]
    return out
