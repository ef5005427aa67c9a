"""Linear sketches as functions of the counts they read.

State discipline: there is one count store, `SparseCounts`, the ingest
store. It keeps one dict of Python ints per column, packed point (a
nonnegative int) -> nonzero count, and drops a point from a column whose
count sums to zero. An update adds an int to one column: one dict read,
one int add, one int64 range check and one dict write or pop, with no
numpy call and no row allocated. An estimator keeps its state in one such
store, plus seeds. That store is the aggregated input, the smallest exact
state, not the paper's polylog-size sketch (a bounded mode is in the
ROADMAP item on the space claim).

Everything that reads counts reads a view, not a second store: a
`CountView` holds (n, k) uint64 key words in canonical (lexicographic)
order without repeats and their (n, width) int64 rows, none all zero. The
estimators sort their store once per read and build every replica's counts
from it: `CountView.grouped` sums the rows of all replicas in one sort and
one grouped sum, into one view whose slices are the replicas' views, the
first key word the replica. The vectors the estimators count exactly (the
node discrepancies of Delta-hat and the round-one samplers, the per-level
node counts of l0) are such views. A sketch keeps no state: it is a
function of a width-1 view, seeds and a shape (`cauchy_l1`,
`l0_estimate`, `l1_samples`), which builds its accumulators -- the
classical dense view -- from those arrays each time it is read. This
keeps every read exactly linear: permuting, splitting or merging update
streams yields bit-identical counts and hence bit-identical estimates
(floating-point accumulation in stream order could not promise that).
A Count-Sketch read at a few keys (`_cs_read`) signs and sums only the
entries in the read buckets, for the whole tables' estimates bit for bit.
`l1_samples` decodes many samplers of one view at once, over a seed axis,
and its mass test reads an l1 estimate the caller gives (a two-pass EMD
replica gives its Delta-hat). `L1Sampler` is the one sketch kept as an
object: a seed, a shape and its counts, read by `l1_samples` at that seed.

`encode_state` is the one serializer: magic, version, kind, the shape/seed
words, then the sorted counts of each store or view, whose records both
encode with `_encode_counts`. It writes nothing that can be derived from
the counts, so a serialized state holds no accumulator.

Coefficients (Count-Sketch signs, Cauchy and p-stable scalars, exponential
scalings) are derived from the seed and the index by keyed hashing, never
stored; a view's key words are hashed with one call, and a list of packed
points with one call per word count.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import hashing as hx
from .hashing import U64

__all__ = [
    "SparseCounts",
    "CountView",
    "encode_state",
    "cauchy_l1",
    "l0_estimate",
    "L1Sampler",
    "l1_samples",
    "stable_median",
    "FAIL",
]


class _Fail:
    """Failure symbol returned by samplers (falsy singleton)."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "FAIL"


FAIL = _Fail()

# 1/t scalings are capped here; Pr[t < 1/cap] ~ 1e-6 per index
_INV_EXP_CAP = 2.0**20


def _hash_keys(prefix: tuple, keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """combine(*prefix, *words of key) for every key: an (n, k) uint64 word
    array in one combine call, a sequence of packed points in one call per
    word count (`hashing.int_words`; elementwise, so both equal the per-key
    calls bit for bit). Array prefix parts broadcast: the keys run along
    the last axis."""
    if isinstance(keys, np.ndarray):
        return hx.combine(*prefix, *keys.T)
    words = [hx.int_words(k) for k in keys]
    by_width: Dict[int, List[int]] = {}
    for i, w in enumerate(words):
        by_width.setdefault(len(w), []).append(i)
    out = np.empty(np.broadcast_shapes(*map(np.shape, prefix), (len(words),)), dtype=U64)
    for idx in by_width.values():
        cols = np.array([words[i] for i in idx], dtype=U64).T
        out[..., idx] = hx.combine(*prefix, *cols)
    return out


_I64_MIN, _I64_MAX, _U64_MAX = -(1 << 63), (1 << 63) - 1, (1 << 64) - 1


def _overflow(key: int, row: List[int]) -> OverflowError:
    """The error for a count row that leaves the int64 range."""
    return OverflowError(f"count row {row} of key {key!r} leaves the int64 range")


def _encode_counts(width: int, words: Sequence[Sequence[int]], rows: np.ndarray) -> bytes:
    """The serialized counts: width, row count, then each (word count, key
    words, int64 row) record in the given order, little-endian."""
    rows = rows.astype("<i8")
    return struct.pack("<II", width, len(rows)) + b"".join(
        struct.pack(f"<B{len(w)}Q", len(w), *w) + row.tobytes() for w, row in zip(words, rows)
    )


@dataclass(eq=False)
class CountView:
    """Read-only counts: keys (n, k) uint64, each key the tuple of its k
    words, in canonical (lexicographic) order without repeats, and their
    rows (n, width) int64, none all zero. All replicas' counts are one, keyed
    (replica, ...) (`grouped`), sliced by `cuts`."""

    keys: np.ndarray
    rows: np.ndarray

    @classmethod
    def summed(cls, keys: np.ndarray, rows: np.ndarray) -> "CountView":
        """The rows summed at equal keys, all-zero sums dropped; the keys
        (n, k) uint64 must be lexsorted, so equal keys are adjacent."""
        if len(keys):
            starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
            rows = np.add.reduceat(rows, starts, axis=0)
            nz = rows.any(axis=1)
            keys, rows = keys[starts[nz]], rows[nz]
        return cls(keys, rows)

    @classmethod
    def grouped(cls, keys: np.ndarray, rows: np.ndarray) -> "CountView":
        """One view of rows[r] summed at equal keys[r], keyed (r, *keys[r]),
        for each leading index r of keys (R, n, k) uint64 and rows (R, n,
        width) int64: one sort (a lexsort along the n axis, which sorts each
        r apart) and one grouped sum."""
        R, n, k = keys.shape
        rep = np.repeat(np.arange(R, dtype=U64), n)[:, None]
        flat = np.concatenate([rep, keys.reshape(R * n, k)], axis=1)
        order = (np.lexsort(keys.transpose(2, 0, 1)[::-1]) + n * np.arange(R)[:, None]).ravel()
        return cls.summed(flat[order], rows.reshape(R * n, rows.shape[-1])[order])

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def cuts(self, R: int) -> np.ndarray:
        """The R + 1 bounds of the slices of first key word 0..R-1 (`grouped`)."""
        return np.searchsorted(self.keys[:, 0], np.arange(R + 1, dtype=U64))

    def to_bytes(self) -> bytes:
        """The rows serialized as `SparseCounts.to_bytes` serializes a store's."""
        return _encode_counts(self.width, self.keys.tolist(), self.rows)

    def __len__(self) -> int:
        return len(self.keys)


class SparseCounts:
    """Exact sparse counts: packed point (a nonnegative int) -> a row of
    `width` Python ints, the ingest store of the package. It keeps one dict
    per column, key -> nonzero count, and drops a key from a column whose
    count sums to zero, so a store depends on the net vector only, not on
    the order of the updates; `sorted` and `to_bytes` list the keys with a
    nonzero count in some column in the canonical key order (by
    `hashing.int_words`), with their rows as an int64 matrix. Every entry
    stays in the int64 range: `add_to`, `add` and `merge` check each sum
    before they write it. An update (`add_to`) makes no numpy call and
    allocates no row."""

    __slots__ = ("width", "cols")

    def __init__(self, width: int = 1):
        self.width = width
        self.cols: Tuple[Dict[int, int], ...] = tuple({} for _ in range(width))

    def add_to(self, col: int, key: int, delta: int) -> None:
        """Add the int delta to column col of key's row: one dict read, one
        int add, one int64 range comparison, and one dict write, or a pop at
        a zero sum. If the sum leaves the int64 range, raise OverflowError
        naming the key and change nothing."""
        c = self.cols[col]
        v = c.get(key, 0) + delta
        if not v:
            c.pop(key, None)
        elif _I64_MIN <= v <= _I64_MAX:
            c[key] = v
        else:
            row = [other.get(key, 0) for other in self.cols]
            row[col] = v
            raise _overflow(key, row)

    def add(self, key: int, delta) -> None:
        """Add delta to key's row: a tuple of `width` integers, or an int
        added to every column (any other delta raises ValueError, and a
        tuple entry that is not an integer TypeError). If an entry of the
        sum leaves the int64 range, raise OverflowError naming the key and
        change nothing."""
        if type(delta) is not tuple or len(delta) != self.width:
            if type(delta) is not int:
                raise ValueError(f"a count delta must be an int or a tuple of {self.width} "
                                 f"ints, got {delta!r}")
            delta = (delta,) * self.width
        try:
            new = [c.get(key, 0) + operator.index(v) for c, v in zip(self.cols, delta)]
        except TypeError:
            raise TypeError(f"count row {list(delta)} of key {key!r} is not integer") from None
        if not all(_I64_MIN <= v <= _I64_MAX for v in new):
            raise _overflow(key, new)
        for c, v in zip(self.cols, new):
            if v:
                c[key] = v
            else:
                c.pop(key, None)

    def merge(self, other: "SparseCounts") -> None:
        """Add another store of the same width; an OverflowError leaves
        this store unchanged."""
        if other.width != self.width:
            raise ValueError("cannot merge count stores of different width")
        before = tuple(map(dict, self.cols))  # the counts are ints: shallow copies restore
        try:
            for col, counts in enumerate(other.cols):
                for k, delta in counts.items():
                    self.add_to(col, k, delta)
        except OverflowError:
            self.cols = before
            raise

    def _keys(self):
        """The keys with a nonzero count in some column."""
        return self.cols[0].keys() | set().union(*self.cols[1:])

    def total(self) -> Tuple[int, ...]:
        """The column sums of the rows."""
        return tuple(sum(c.values()) for c in self.cols)

    def sorted(self) -> Tuple[List[int], np.ndarray]:
        """Keys in canonical order and their (len, width) int64 rows. Keys
        below 2^64 are one word each, so their canonical order is the
        order of the ints, which sorts without a key function."""
        keys = self._keys()
        keys = sorted(keys) if max(keys, default=0) <= _U64_MAX else sorted(keys, key=hx.int_words)
        rows = np.empty((len(keys), self.width), dtype=np.int64)
        for j, c in enumerate(self.cols):
            rows[:, j] = np.fromiter(map(c.get, keys, repeat(0)), np.int64, len(keys))
        return keys, rows

    def to_bytes(self) -> bytes:
        """Width, row count, then each (key words, int64 row) in canonical
        order, little-endian."""
        keys, rows = self.sorted()
        return _encode_counts(self.width, [hx.int_words(k) for k in keys], rows)

    def __len__(self) -> int:
        return len(self._keys())


_STATE_MAGIC = b"GSKS"
_STATE_VERSION = 2


def encode_state(kind: int, shape: Sequence[int],
                 stores: Sequence[SparseCounts | CountView]) -> bytes:
    """The one serialized form of a sketch state: magic, version, kind, the
    shape/seed words (taken mod 2^64), then the count stores (or views) in
    order. It holds nothing that can be derived from the counts."""
    words = [int(v) & 0xFFFFFFFFFFFFFFFF for v in shape]
    head = _STATE_MAGIC + struct.pack(
        f"<HHB{len(words)}QI", _STATE_VERSION, kind, len(words), *words, len(stores)
    )
    return head + b"".join(st.to_bytes() for st in stores)


# ---------------------------------------------------------------------------
# Count-Sketch and the Cauchy l1 estimate
# ---------------------------------------------------------------------------


def _cs_buckets(rows_b: np.ndarray, hkeys: np.ndarray, buckets: int) -> np.ndarray:
    """(..., rows, n) buckets of a batch of Count-Sketches for the keys
    hashed to hkeys (..., n): extend(row state, key hash) picks each one,
    from the row states (..., rows) combine(*seed words, row)."""
    hk = np.asarray(hkeys, dtype=U64)[..., None, :]
    return hx.bucket(hx.extend(rows_b[..., None], hk), buckets)


def _cs_coords(rows_b: np.ndarray, rows_s: np.ndarray, hkeys: np.ndarray, buckets: int) -> tuple:
    """(..., rows, n) slots and signs of a batch of Count-Sketches: a slot
    indexes the flattened (..., rows, buckets) tables, flat row times buckets
    plus bucket (`_cs_buckets`); the signs come from the row states rows_s."""
    f = _cs_buckets(rows_b, hkeys, buckets)
    f += np.arange(math.prod(f.shape[:-1]), dtype=np.int64).reshape(f.shape[:-1] + (1,)) * buckets
    return f, hx.sign_pm1(hx.extend(rows_s[..., None], hkeys[..., None, :]))


def _scatter_sum(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """(..., size) sums of the terms w (..., n) at the slots idx (..., n) of
    their last axis, all in one `bincount`. Each sum adds its terms in index
    order from 0.0, so it equals `np.add.at` slice by slice bit for bit."""
    lead, cells = w.shape[:-1], math.prod(w.shape[:-1])
    flat = np.arange(cells, dtype=np.int64).reshape(lead + (1,)) * size + idx
    return np.bincount(flat.ravel(), w.ravel(), cells * size).reshape(lead + (size,))


def _cs_table(f: np.ndarray, s: np.ndarray, values: np.ndarray, buckets: int) -> np.ndarray:
    """(..., rows, buckets) tables of the vectors with `values` (..., n) at
    the keys of the slots and signs (f, s), in one `bincount` that adds each
    bucket in key order from 0.0, as `np.add.at` does."""
    lead = f.shape[:-1]
    w = s * np.asarray(values, dtype=np.float64)[..., None, :]
    return np.bincount(f.ravel(), w.ravel(), math.prod(lead) * buckets).reshape(lead + (-1,))


def _median(x: np.ndarray, axis: int) -> np.ndarray:
    """`np.median` along axis, of values that are not NaN (+-inf included):
    the n slices are sorted, then the middle one of an odd n is taken, or
    (a + b) / 2 of the middle two of an even n. Up to n = 8 an
    insertion-order network of n(n - 1)/2 compare-exchanges (`np.minimum`,
    `np.maximum`) sorts them, faster than `np.sort` on short axes; beyond,
    one `np.sort` along the axis does, faster than `np.median`'s partition.
    Only the sign of a zero median can differ from `np.median`'s. A 1-D x
    is read as one column, whose slices are arrays the network can write,
    not numpy scalars."""
    if x.ndim == 1:
        return _median(x[:, None], 0)[0]
    n = x.shape[axis]
    if n > 8:
        xs = np.sort(x, axis)
        a, b = np.take(xs, (n - 1) // 2, axis), np.take(xs, n // 2, axis)
    else:
        xs = [np.take(x, i, axis) for i in range(n)]  # copies, which the network writes
        for i in range(1, n):
            for k in range(i, 0, -1):
                lo, hi = xs[k - 1], xs[k]
                xs[k - 1], xs[k] = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
        a, b = xs[(n - 1) // 2], xs[n // 2]
    return b if n % 2 else (a + b) / 2


def _cs_estimates(table: np.ndarray, f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(..., n) median-over-rows estimates at the keys of the slots and signs
    (f, s), gathered from the flattened tables with one `np.take`."""
    return _median(s * np.take(table, f), -2)


def _cs_read(rows_b: np.ndarray, rows_s: np.ndarray, hkeys: np.ndarray, values: np.ndarray,
             read: np.ndarray, buckets: int) -> np.ndarray:
    """Estimates, in (sketch, key) order, at the keys of a read mask (broadcast
    to values) of Count-Sketches with row states rows_b, rows_s (..., rows)
    of the vectors `values` (..., n) at the key hashes hkeys (n,), from only
    the entries in the read keys' slots (`_cs_coords`), found in one flat
    pass. One `bincount` adds each bucket's keys in key order from 0.0, as
    `_cs_table` does, so they equal `_cs_estimates` of the whole tables."""
    n, rows = len(hkeys), rows_b.shape[-1]
    read = np.broadcast_to(read, values.shape).reshape(-1, n)
    f = _cs_buckets(rows_b.reshape(-1, rows), hkeys, buckets)  # (sketch, row, key)
    f += np.arange(f.size // n, dtype=np.int64).reshape(-1, rows, 1) * buckets  # slots
    hot = np.zeros(f.size // n * buckets, dtype=bool)
    hot[f.transpose(0, 2, 1)[read]] = True
    hit = np.flatnonzero(hot.take(f))
    sketch_row, key = np.divmod(hit, n)
    slot, at = f.reshape(-1)[hit], sketch_row // rows * n + key  # at: index into the mask
    s = hx.sign_pm1(hx.extend(rows_s.reshape(-1)[sketch_row], hkeys[key]))
    table = np.bincount(slot, s * values.reshape(-1)[at])
    mine = np.flatnonzero(read.reshape(-1)[at])
    mine = mine[np.argsort(at[mine], kind="stable")]  # each read key's rows, in row order
    return _cs_estimates(table, slot[mine].reshape(-1, rows).T, s[mine].reshape(-1, rows).T)


_CS_SALT_B = 0xC5B0
_CS_SALT_S = 0xC551
_CAUCHY_SALT = 0xCA0C


def _sketch_coords(seed, rows: int, buckets: int,
                   keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, n) slots and signs (`_cs_coords`) at the keys of the
    Count-Sketch with this seed and shape, or (m, rows, n) those of m
    sketches for an (m, 1) seed array. Its estimate at i, the median
    over rows of sign(i) * bucket(h(i)), is within eps * ||x_{-1/eps^2}||_2
    of x_i with high probability for buckets ~ 6/eps^2."""
    r = np.arange(rows, dtype=U64)
    return _cs_coords(hx.combine(_CS_SALT_B, r), hx.combine(_CS_SALT_S, r),
                      _hash_keys((seed,), keys), buckets)


# Words per Cauchy block, so that the block's two (rows, n) arrays stay
# inside a core's L2 cache: 64 rows at the n of about 500 nodes of the deep
# levels of `emd2-matched`. On a 2-vCPU x86 VM, Delta-hat of the 7 replicas
# of that instance (512 rows each, one BLAS thread) took 0.008-0.011 CPU s
# at 16k-64k words, 0.013 s at 8k and 0.017 s at 128k, against 0.026-0.030
# s for the whole (512, n) matrix (medians of 21, over two runs).
_CAUCHY_BLOCK_WORDS = 1 << 15


def _cauchy_block_rows(n: int) -> int:
    """Rows per Cauchy block over n keys: a multiple of 8, at least 8."""
    return max(8, _CAUCHY_BLOCK_WORDS // max(n, 1) // 8 * 8)


def cauchy_l1(counts: CountView, s: int, seed: int) -> float:
    """Indyk's l1 estimate of width-1 counts: the median magnitude of s
    Cauchy-weighted sums of them (median |Cauchy| = tan(pi/4) = 1, so no
    rescaling); 0.0 for no counts.

    The coefficient of key k in row r is cauchy(combine(0xCA0C, r,
    combine(seed, *words of k))), never held for all rows at once: the keys
    are hashed once, and each block of `_cauchy_block_rows(n)` rows is built
    in two preallocated arrays (row prefixes xor key hashes, splitmix64, the
    Cauchy map, all in place) and multiplied into its rows of the sums. BLAS
    sums each row as it does in the product of the whole (s, n) matrix, so
    the sums equal that product's bit for bit on one BLAS thread, and on two
    when s is a multiple of 8: a split between two threads then falls
    between the groups of 4 rows that BLAS sums together. A last block of
    one row joins the one before it, since numpy would take a one-row
    product as a dot product, which sums in another order."""
    n, b = len(counts), _cauchy_block_rows(len(counts))
    hk, x = _hash_keys((seed,), counts.keys), counts.rows[:, 0].astype(np.float64)
    pre = hx.combine(_CAUCHY_SALT, np.arange(s, dtype=U64))[:, None]
    starts = list(range(0, s, b))
    if len(starts) > 1 and s - starts[-1] == 1:
        starts.pop()
    h, c = np.empty((min(s, b + 1), n), dtype=U64), np.empty((min(s, b + 1), n))
    sums = np.empty(s)
    for r0, r1 in zip(starts, starts[1:] + [s]):
        hb, cb = h[:r1 - r0], c[:r1 - r0]
        np.bitwise_xor(pre[r0:r1], hk, out=hb)
        hx._cauchy_(hx._splitmix_(hb, cb.view(U64)), cb)
        np.matmul(cb, x, out=sums[r0:r1])
    return float(_median(np.abs(sums), 0))


# ---------------------------------------------------------------------------
# the median of |D_p|
# ---------------------------------------------------------------------------


# median(|D_p|) at the MST sketch's p = 1/(4L), L = 1..25, as float.hex: the
# values of `_stable_median_slow(1.0 / (4.0 * L))` in tests/reference.py,
# which take 0.5-2 s each. At L >= 26 its quadrature fails ("function value
# at x=1e-12 is NaN"). The table is of the float64 law: the MST decode's
# draws take their sines in float32 (`mst_sketch._log_stable_draws`), and
# this median still centres them (tests/test_mst_sketch.py).
_STABLE_MEDIAN_HEX = (
    "0x1.449e6b63d5ac6p+1", "0x1.57988ce8f6340p+3", "0x1.71932c5c9316fp+5",  # L = 1..3
    "0x1.8ef6e824a8f38p+7", "0x1.af47c67cac3e7p+9", "0x1.d2850c4f7aa2dp+11",  # L = 4..6
    "0x1.f8d26fa7874cbp+13", "0x1.1131f9958cfa3p+16", "0x1.27bbdf9476e59p+18",  # L = 7..9
    "0x1.402a058e3fdf7p+20", "0x1.5aa337dab2483p+22", "0x1.7751f378b4c54p+24",  # L = 10..12
    "0x1.96648329c4bbfp+26", "0x1.b80d3772d60a2p+28", "0x1.dc82ae3f66493p+30",  # L = 13..15
    "0x1.020011c16c439p+33", "0x1.1762e6b529285p+35", "0x1.2e8ca0ffc0a2ep+37",  # L = 16..18
    "0x1.47a2f336c157cp+39", "0x1.62ceb43c4c0fbp+41", "0x1.803c21534cdb4p+43",  # L = 19..21
    "0x1.a01b25d7df865p+45", "0x1.c29fa8dff4427p+47", "0x1.e801e206cd5b7p+49",  # L = 22..24
    "0x1.083f5a3d22f74p+52",  # L = 25
)
_STABLE_MEDIAN = {1.0 / (4.0 * L): float.fromhex(h) for L, h in enumerate(_STABLE_MEDIAN_HEX, 1)}


def stable_median(p: float) -> float:
    """median(|D_p|) from the committed table, at the p = 1/(4L), L = 1..25,
    of the MST sketch; `_stable_median_slow` in tests/reference.py solves
    it at any p."""
    if p not in _STABLE_MEDIAN:
        raise ValueError(f"stable_median supports p = 1/(4L), L = 1..25, only; got p = {p}")
    return _STABLE_MEDIAN[p]


# ---------------------------------------------------------------------------
# l1 sampler (precision sampling)
# ---------------------------------------------------------------------------

# The fourth shape word of `L1Sampler.state_bytes`, kept only so that those
# bytes stay as they were: no read uses it (`l1_samples` is given its l1).
_L1_ROWS = 128
_EXP_SEED_SALT = 0x15A3
_EXP_SALT = 0xE259


def _sampler_tables(counts: CountView, seeds: np.ndarray, rows: int, buckets: int) -> tuple:
    """The (m, rows, buckets) Count-Sketch tables of the scaled vectors of
    the samplers with the given seeds (m,), and their (m, rows, n) slots
    and signs at the keys (`_cs_coords`). The exponential and Count-Sketch
    seeds are combine(seed, 0x15A3) and combine(seed, 0xC5), one call each.
    A scaled vector x_i / t_i (t_i ~ Exp(1)) is kept on an integer grid of
    step 2^-20, x_i * round(min(1/t_i, 2^20) * 2^20), so a table is as
    exactly linear as x."""
    t = hx.exp1(_hash_keys((hx.combine(seeds, _EXP_SEED_SALT)[:, None], _EXP_SALT), counts.keys))
    inv_t = np.minimum(1.0 / t, _INV_EXP_CAP)
    scaled = counts.rows[:, 0].astype(np.float64) * np.round(inv_t * (1 << 20))
    f, s = _sketch_coords(hx.combine(seeds, 0xC5)[:, None], rows, buckets, counts.keys)
    return _cs_table(f, s, scaled, buckets), f, s


def l1_samples(counts: CountView, seeds, l1: float, rows: int, buckets: int,
               gamma: float) -> np.ndarray:
    """Precision sampling (Andoni-Krauthgamer-Onak 2011) of width-1 counts x
    by m samplers at once, one per seed: per sampler, the index into the
    view of its sample, or -1 for FAIL.

    A sampler scales x_i by 1/t_i (t_i ~ Exp(1)), recovers the scaled
    vector through a rows x buckets Count-Sketch, and returns its largest
    estimate (the first maximum) if it clears the gap test (at least
    (1 + gamma) times the second largest, 0 for one key) and the mass test
    (at least gamma * l1, for l1 a constant-factor estimate of ||x||_1
    that the caller gives); no counts FAIL. Conditioned on not failing,
    index i is returned with probability ~ |x_i| / ||x||_1 (the anti-rank
    law), up to recovery noise.

    All m tables are one (m, rows, buckets) `_cs_table` (`_sampler_tables`),
    read with one `_cs_estimates`; a sampler's bucket sums add its keys in
    key order from 0.0, so its outcome equals that of its seed alone."""
    seeds = np.asarray(seeds, dtype=U64)
    if not len(counts):
        return np.full(len(seeds), -1)
    est = np.abs(_cs_estimates(*_sampler_tables(counts, seeds, rows, buckets))) / float(1 << 20)
    top, best = np.argmax(est, axis=1), est.max(axis=1)
    second = np.partition(est, -2, axis=1)[:, -2] if len(counts) > 1 else 0.0
    ok = (best >= (1.0 + gamma) * second) & (best >= gamma * l1)
    return np.where(ok, top, -1)


class L1Sampler:
    """One l1 sampler of width-1 counts x: a seed, a shape (Count-Sketch
    rows and buckets, the validity factor gamma) and the counts, given at
    construction. It is read by `l1_samples`: a two-pass EMD replica
    decodes all of its samplers in one call over their seeds."""

    def __init__(self, counts: CountView, seed: int, rows: int = 5,
                 buckets: int = 256, gamma: float = 0.05):
        self.counts = counts
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.rows = rows
        self.buckets = buckets
        self.gamma = gamma

    def state_bytes(self) -> bytes:
        """The seed/shape words (seed, rows, buckets, `_L1_ROWS`) and the
        counts of x. No sketch of the package serializes a sampler: this is
        kept, byte for byte, because `perfbench/run.py` `state_size` sums it
        over the round-one samplers of an `EmdTwoPassSketch`, which has no
        serializer of its own."""
        return encode_state(4, (self.seed, self.rows, self.buckets, _L1_ROWS), [self.counts])


# ---------------------------------------------------------------------------
# l0 (distinct support) estimate
# ---------------------------------------------------------------------------

_L0_LEVELS = 25  # nested subsample levels
_L0_SALT_LVL = 0x10A0
_L0_SALT_BKT = 0x10A1


def _l0_occupancy(seed: int, buckets: int, keys: np.ndarray) -> np.ndarray:
    """The occupied buckets at each subsample level eta < `_L0_LEVELS`: the
    decoded view of the fingerprinted bucket tables."""
    hk = _hash_keys((seed,), keys)
    u = hx.uniform01(hx.combine(_L0_SALT_LVL, hk))
    b = hx.bucket(hx.combine(_L0_SALT_BKT, hk), buckets)
    return np.array([len(np.unique(b[u < 2.0**-eta])) for eta in range(_L0_LEVELS)])


def l0_estimate(counts: CountView, seed: int, buckets: int) -> float:
    """Distinct-support estimate of width-1 counts: nested subsamples at
    rates 2^-eta feed fingerprinted occupancy tables; the first level whose
    occupancy is at most 0.7 * buckets is inverted by linear counting and
    inflated by 1.25, giving an estimate inside [c, 1.5c] with high
    probability; 0.0 for no counts."""
    if not len(counts):
        return 0.0
    for eta, occ in enumerate(_l0_occupancy(seed, buckets, counts.keys).tolist()):
        if occ <= 0.7 * buckets:
            if occ == 0:
                return 0.0
            c = math.log1p(-occ / buckets) / math.log1p(-1.0 / buckets)
            return 1.25 * 2**eta * c
    raise RuntimeError("all l0 subsample levels saturated")
