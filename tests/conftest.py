import os
import struct
from collections import namedtuple

# One BLAS thread, set before numpy is imported, as perfbench runs: BLAS
# splits the rows of a matrix-vector product among its threads, and a split
# inside a group of 4 rows sums those rows in another order, so the dense
# Cauchy sums of tests/reference.py, which `cauchy_l1`'s blocked sums must
# equal bit for bit, would depend on the machine's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from geosketch.hashing import U64
from geosketch import sketches as sk
from geosketch import CountView, HypercubePoint, L1Sampler, PointMultiset, SparseCounts, Stream


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


def stream_of(d: int, updates) -> Stream:
    """The d-dimensional stream of (sign, label, packed value) updates, its
    records built byte by byte: the sign and label characters, then the
    value shifted to the top of ceil(d/8) big-endian bytes."""
    nb = (d + 7) // 8
    blob = b"".join(f"{'+' if sign > 0 else '-'}{label}".encode("ascii")
                    + (value << (8 * nb - d)).to_bytes(nb, "big") for sign, label, value in updates)
    return Stream(d, np.frombuffer(blob, np.uint8).reshape(-1, 2 + nb))


def updates_of(stream: Stream) -> list:
    """The (sign, label, packed value) of each record, decoded byte by byte."""
    return [(1 if r[0] == ord("+") else -1, chr(r[1]),
             int.from_bytes(bytes(r[2:]), "big") >> (-stream.d % 8))
            for r in stream.records.tolist()]


def view_of(store: SparseCounts) -> CountView:
    """The read-only view of a hand-built store of keys below 2^64, one key
    word each: what a sketch reads for those counts."""
    keys, rows = store.sorted()
    return CountView(np.array(keys, dtype=U64).reshape(len(keys), 1), rows)


def split_view(view: CountView, R: int) -> list:
    """The R views of a stacked view (`CountView.grouped`), each without
    its leading replica column."""
    cut = view.cuts(R)
    return [CountView(view.keys[a:b, 1:], view.rows[a:b]) for a, b in zip(cut[:-1], cut[1:])]


Replica = namedtuple("Replica", "cfg level seed")


def replicas(sk) -> list:
    """Per level, the (cfg, level, seed) of each replica of a tree sketch."""
    return [[Replica(sk.cfg, i, s) for s in seeds.tolist()]
            for i, seeds in enumerate(sk.seeds, start=1)]


def replica_views(sk, counts, reps) -> list:
    """Per replica in reps (anything with a level and a seed), its view of
    the store `counts`: its slice of the sketch's one stacked view."""
    seeds = np.array([rep.seed for rep in reps], dtype=U64)
    return split_view(sk.views(sk._read(counts), [rep.level for rep in reps], seeds), len(reps))


def view_dict(view: CountView) -> dict:
    """A view's counts as {key tuple: row list}."""
    return {tuple(k): r for k, r in zip(view.keys.tolist(), view.rows.tolist())}


def assert_view_is(view: CountView, counts: dict) -> None:
    """The view's keys are in canonical order without repeats, and its
    counts are the dict reference's (`reference.tally`): together these fix
    its bytes."""
    keys = [tuple(k) for k in view.keys.tolist()]
    assert keys == sorted(set(keys))
    assert view_dict(view) == counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def counts_of(stream) -> SparseCounts:
    """A width-1 store fed each (key, delta) of the stream in order."""
    counts = SparseCounts()
    for key, delta in stream:
        counts.add(key, int(delta))
    return counts


def sample(smp: L1Sampler, l1: float):
    """The key of smp's view, as a tuple of ints, that `l1_samples` draws at
    smp's one seed and shape, its mass test reading l1; FAIL for -1."""
    i = int(sk.l1_samples(smp.counts, [smp.seed], l1, smp.rows, smp.buckets, smp.gamma)[0])
    return sk.FAIL if i < 0 else tuple(smp.counts.keys[i].tolist())


def sampler_reads(smp: L1Sampler) -> np.ndarray:
    """The Count-Sketch table of the scaled vector that `sample` reads, from
    the same helper."""
    return sk._sampler_tables(smp.counts, np.array([smp.seed], dtype=U64), smp.rows,
                              smp.buckets)[0][0]


def state_header(kind: int, shape) -> bytes:
    """The head of an `encode_state` blob of one store: magic, version 2,
    kind, the shape words and the store count."""
    return b"GSKS" + struct.pack(f"<HHB{len(shape)}QI", 2, kind, len(shape), *shape, 1)


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
