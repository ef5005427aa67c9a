"""Linear sketches as functions of the counts they read.

State discipline: there is one count store, `SparseCounts`, the ingest
store. It maps a packed point (a nonnegative int) to a fixed-width row of
Python ints (a tuple, checked against the int64 range at every `add`, so an
update makes no numpy call) and drops a row once it is all zero. An
estimator keeps its state in one such store, plus seeds. That store is the
aggregated input, the smallest exact state, not the paper's polylog-size
sketch (a bounded mode is in the ROADMAP item on the space claim).

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
`l1_samples` decodes many samplers of one view at once, over a seed axis,
and its mass test reads an l1 estimate the caller gives (a two-pass EMD
replica gives its Delta-hat). `L1Sampler` is the one sketch kept as an
object: a seed, a shape and its counts; its `sample(l1)` is `l1_samples`
at that one seed.

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


def _bad_row(key: int, row: tuple) -> Exception:
    """The error for a row that its store's int64 check rejected."""
    if all(isinstance(v, (int, np.integer)) for v in row):
        return OverflowError(f"count row {list(row)} of key {key!r} leaves the int64 range")
    return TypeError(f"count row {list(row)} of key {key!r} is not integer")


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
    `width` Python ints (a tuple), the ingest store of the package. A row is
    dropped once it is all zero, so a store depends on the net vector only,
    not on the order of the updates; `sorted` and `to_bytes` list the rows
    in the canonical key order (by `hashing.int_words`) as an int64 matrix.
    Every entry stays in the int64 range: `add` and `merge` check each sum
    before they write it. An update makes no numpy call."""

    __slots__ = ("width", "rows", "_check")

    def __init__(self, width: int = 1):
        self.width = width
        self.rows: Dict[int, Tuple[int, ...]] = {}
        self._check = struct.Struct(f"<{width}q").pack  # struct.error outside int64

    def add(self, key: int, delta) -> None:
        """Add delta to key's row: a tuple of `width` ints, or an int added
        to every column (any other delta raises ValueError, and a tuple
        entry that is not an integer TypeError). If an entry of the sum
        leaves the int64 range, raise OverflowError naming the key and
        change nothing."""
        if type(delta) is not tuple or len(delta) != self.width:
            if type(delta) is not int:
                raise ValueError(f"a count delta must be an int or a tuple of {self.width} "
                                 f"ints, got {delta!r}")
            delta = (delta,) * self.width
        row = self.rows.get(key)
        new = delta if row is None else tuple(map(operator.add, row, delta))
        if not any(new):
            self.rows.pop(key, None)
            return
        try:
            self._check(*new)
        except struct.error:
            raise _bad_row(key, new) from None
        self.rows[key] = new

    def merge(self, other: "SparseCounts") -> None:
        """Add another store of the same width; an OverflowError leaves
        this store unchanged."""
        if other.width != self.width:
            raise ValueError("cannot merge count stores of different width")
        before = dict(self.rows)  # the rows are tuples: a shallow copy restores
        try:
            for k, delta in other.rows.items():
                self.add(k, delta)
        except OverflowError:
            self.rows = before
            raise

    def total(self) -> Tuple[int, ...]:
        """The column sums of the rows."""
        return tuple(map(sum, zip(*self.rows.values()))) or (0,) * self.width

    def sorted(self) -> Tuple[List[int], np.ndarray]:
        """Keys in canonical order and their (len, width) int64 rows."""
        keys = sorted(self.rows, key=hx.int_words)
        return keys, np.array([self.rows[k] for k in keys], dtype=np.int64).reshape(-1, self.width)

    def to_bytes(self) -> bytes:
        """Width, row count, then each (key words, int64 row) in canonical
        order, little-endian."""
        keys, rows = self.sorted()
        return _encode_counts(self.width, [hx.int_words(k) for k in keys], rows)

    def __len__(self) -> int:
        return len(self.rows)


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


def _cs_coords(rows_b: np.ndarray, rows_s: np.ndarray, hkeys: np.ndarray, buckets: int,
               read: np.ndarray | None = None) -> tuple:
    """(..., rows, n) slots and signs of a batch of Count-Sketches. A slot is
    the index in the flattened (..., rows, buckets) tables, flat row times
    buckets plus bucket (`_cs_buckets`): the table's `bincount` and the
    read's gather share it. The signs come from the row states rows_s. A
    read mask (..., n) of the keys each sketch is read at keeps only the
    entries whose slot a read key takes, the ones its estimates sum, and
    hashes only their signs: slots and signs are then flat in (..., row,
    key) order, and a third array holds their flat indices into the mask."""
    hk = np.asarray(hkeys, dtype=U64)
    f = _cs_buckets(rows_b, hk, buckets)
    row = np.arange(math.prod(f.shape[:-1]), dtype=np.int64).reshape(f.shape[:-1] + (1,))
    f += row * buckets
    rs, hk = rows_s[..., None], hk[..., None, :]
    if read is None:
        return f, hx.sign_pm1(hx.extend(rs, hk))
    hot = np.zeros(row.size * buckets, dtype=bool)
    hot[np.swapaxes(f, -1, -2)[read]] = True
    at = np.nonzero(hot.take(f))
    rs, hk = (np.broadcast_to(a, f.shape)[at] for a in (rs, hk))
    return f[at], hx.sign_pm1(hx.extend(rs, hk)), np.ravel_multi_index(at[:-2] + at[-1:], read.shape)


def _scatter_sum(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """(..., size) sums of the terms w (..., n) at the slots idx (..., n) of
    their last axis, all in one `bincount`. Each sum adds its terms in index
    order from 0.0, so it equals `np.add.at` slice by slice bit for bit."""
    lead, cells = w.shape[:-1], math.prod(w.shape[:-1])
    flat = np.arange(cells, dtype=np.int64).reshape(lead + (1,)) * size + idx
    return np.bincount(flat.ravel(), w.ravel(), cells * size).reshape(lead + (size,))


def _cs_table(f: np.ndarray, s: np.ndarray, values: np.ndarray, buckets: int) -> np.ndarray:
    """(..., rows, buckets) tables of the vectors with `values` (..., n) at
    the keys of the slots and signs (f, s), or flat ones, in one `bincount`
    that adds each bucket in key order from 0.0, as `np.add.at` does."""
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
    Only the sign of a zero median can differ from `np.median`'s."""
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


def _cauchy_coefficients(seed: int, s: int, keys: np.ndarray) -> np.ndarray:
    """(s, n) Cauchy coefficients at the keys of the s-row l1 sketch with
    this seed."""
    r = np.arange(s, dtype=U64)[:, None]
    return hx.cauchy(hx.combine(_CAUCHY_SALT, r, _hash_keys((seed,), keys)[None, :]))


def cauchy_l1(counts: CountView, s: int, seed: int) -> float:
    """Indyk's l1 estimate of width-1 counts: the median magnitude of s
    Cauchy-weighted sums of them (median |Cauchy| = tan(pi/4) = 1, so no
    rescaling); 0.0 for no counts."""
    sums = _cauchy_coefficients(seed, s, counts.keys) @ counts.rows[:, 0].astype(np.float64)
    return float(_median(np.abs(sums), 0))


# ---------------------------------------------------------------------------
# the median of |D_p|
# ---------------------------------------------------------------------------


# median(|D_p|) at the MST sketch's p = 1/(4L), L = 1..25, as float.hex: the
# values of `_stable_median_slow(1.0 / (4.0 * L))` in tests/reference.py,
# which take 0.5-2 s each. At L >= 26 its quadrature fails ("function value
# at x=1e-12 is NaN").
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
    construction. `sample(l1)` is `l1_samples` at its one seed; a two-pass
    EMD replica decodes all of its samplers in one `l1_samples` call."""

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

    def sample(self, l1: float):
        """A key of the view, as a tuple of ints, or FAIL (`l1_samples`,
        whose mass test reads the given l1 estimate of ||x||_1)."""
        i = int(l1_samples(self.counts, [self.seed], l1, self.rows, self.buckets, self.gamma)[0])
        return FAIL if i < 0 else tuple(self.counts.keys[i].tolist())


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
