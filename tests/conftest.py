import struct

import numpy as np
import pytest

from geosketch import hashing as hx
from geosketch import CauchyL1Sketch, CountSketch, HypercubePoint, L1Sampler, PointMultiset


def random_multiset(n: int, d: int, seed: int) -> PointMultiset:
    rng = np.random.default_rng(seed)
    return PointMultiset.from_points(
        [HypercubePoint.from_bits(rng.integers(0, 2, d)) for _ in range(n)]
    )


def random_pair(n: int, d: int, seed: int, noise: float = 0.25):
    """(A, B) with B a noisy copy of A, so EMD is non-trivial but small."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    b = a ^ (rng.random((n, d)) < noise).astype(np.uint8)
    A = PointMultiset.from_points([HypercubePoint.from_bits(r) for r in a])
    B = PointMultiset.from_points([HypercubePoint.from_bits(r) for r in b])
    return A, B


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class FedL1Sampler(L1Sampler):
    """Reference l1 sampler that feeds its Count-Sketch of the scaled vector
    and its Cauchy l1 sketch on every update, instead of building both from
    its count map when it is read. L1Sampler must equal it bit for bit."""

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.cs = CountSketch(self.rows, self.buckets, int(hx.combine(seed, 0xC5)[()]))
        self.l1 = CauchyL1Sketch(self.l1_rows, int(hx.combine(seed, 0xCA)[()]))

    def update(self, index, delta):
        super().update(index, delta)
        inv_t = min(1.0 / self.scaler.variate(index), 2.0**20)
        self.cs.update(index, int(delta) * int(round(inv_t * (1 << 20))))
        self.l1.update(index, delta)

    def _views(self):
        return self.cs._materialize(), self.l1

    @classmethod
    def like(cls, smp: L1Sampler) -> "FedL1Sampler":
        """An empty reference with the seed and shape of `smp`."""
        return cls(smp.seed, rows=smp.rows, buckets=smp.buckets, gamma=smp.gamma,
                   l1_rows=smp.l1_rows)


def store_sizes(blob: bytes):
    """(width, row count) of every count store of an `encode_state` blob."""
    off = 9 + 8 * blob[8]  # magic, version, kind, word count, words
    (n_stores,) = struct.unpack_from("<I", blob, off)
    off += 4
    sizes = []
    for _ in range(n_stores):
        width, count = struct.unpack_from("<II", blob, off)
        off += 8
        for _ in range(count):
            off += 1 + 8 * blob[off] + 8 * width
        sizes.append((width, count))
    assert off == len(blob)
    return sizes
