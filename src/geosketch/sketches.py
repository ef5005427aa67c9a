"""Reusable linear-sketch toolbox.

State discipline: there is one count store, `SparseCounts`, which maps a key
to a fixed-width row of Python ints (a tuple, checked against the int64
range at every `add`, so an update makes no numpy call) and drops a row once
it is all zero; it is read as an int64 matrix. An estimator keeps its state
in one such store, plus seeds. That store is the aggregated input, the
smallest exact state, not the paper's polylog-size sketch (a bounded mode is
ROADMAP Direction 6). A sketch keeps no store: it is a seed, a shape and the
width-1 counts it was built over, and it reads them. Accumulator vectors --
the classical dense view -- are materialized on demand as a pure function of
those counts, in canonical key order. This keeps every read exactly linear:
permuting, splitting or merging update streams yields bit-identical counts
and hence bit-identical estimates (floating-point accumulation in stream
order could not promise that).

Everything else is a view, not a second store. The estimators build every
replica's counts from their one store once per read: `SparseCounts.grouped`
sums the rows of all replicas in one sort and one grouped sum, and slices
each replica's `CountView` out of the result -- (n, k) uint64 key words in
canonical order and (n, width) int64 rows, none all zero. Every reader
takes those arrays as they are, and a sketch of a vector the estimators
count exactly (Delta-hat, the round-one samplers, the per-level l0) is built
over such a view; a sketch reads a store or a view through the same
`sorted` and `len`. The l1 sampler builds its Count-Sketch table and its
Cauchy l1 sketch from those counts when it samples. Each view has the keys
and the integers that feeding every update to it would have given.

`encode_state` is the one serializer: magic, version, kind, the shape/seed
words, then the sorted counts of each store or view, whose records both
encode with `_encode_counts`. It writes nothing that can be derived from
the counts, so a serialized state holds no accumulator.

Coefficients (Count-Sketch signs, Cauchy and p-stable scalars, exponential
scalings) are derived from the seed and the index by keyed hashing, never
stored; a view's key words are hashed with one call, and a list of keys
with one call per key width.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import hashing as hx
from .hashing import U64

__all__ = [
    "SparseCounts",
    "CountView",
    "encode_state",
    "CountSketch",
    "CauchyL1Sketch",
    "ExpScaler",
    "L1Sampler",
    "L0Sketch",
    "sample_p_stable",
    "stable_median",
    "tail_truncated_norms",
    "FAIL",
]


class _Fail:
    """Failure symbol returned by samplers (falsy singleton)."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "FAIL"


FAIL = _Fail()

Key = Union[int, Tuple[int, ...]]
Keys = Union[Sequence[Key], np.ndarray]  # a store's key list, a view's word array

# 1/t scalings are capped here; Pr[t < 1/cap] ~ 1e-6 per index
_INV_EXP_CAP = 2.0**20


def _key_words(key: Key) -> Tuple[int, ...]:
    if isinstance(key, tuple):
        return tuple(w for part in key for w in _key_words(part))
    return hx.int_words(key)


def _hash_keys(prefix: tuple, keys: Keys) -> np.ndarray:
    """combine(*prefix, *words of key) for every key: an (n, k) uint64 word
    array in one combine call, a sequence of keys in one call per key width
    (elementwise, so both equal the per-key calls bit for bit). Array prefix
    parts broadcast: the keys run along the last axis."""
    if isinstance(keys, np.ndarray):
        return hx.combine(*prefix, *keys.T)
    words = [_key_words(k) for k in keys]
    by_width: Dict[int, List[int]] = {}
    for i, w in enumerate(words):
        by_width.setdefault(len(w), []).append(i)
    out = np.empty(np.broadcast_shapes(*map(np.shape, prefix), (len(words),)), dtype=U64)
    for idx in by_width.values():
        cols = np.array([words[i] for i in idx], dtype=U64).T
        out[..., idx] = hx.combine(*prefix, *cols)
    return out


def _bad_row(key: Key, row: tuple) -> Exception:
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
    rows (n, width) int64, none all zero. Every replica's counts are one of
    these (`SparseCounts.grouped`), and every reader takes the arrays."""

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

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.keys, self.rows  # already in canonical order

    def to_bytes(self) -> bytes:
        """The bytes of the `SparseCounts` that holds the same rows."""
        return _encode_counts(self.width, self.keys.tolist(), self.rows)

    def __len__(self) -> int:
        return len(self.keys)


class SparseCounts:
    """Exact sparse counts: key -> a row of `width` Python ints (a tuple),
    the one count store of the package. A row is dropped once it is all
    zero, so a store depends on the net vector only, not on the order of the
    updates; `sorted` and `to_bytes` list the rows in the canonical key order
    (`_key_words`) as an int64 matrix. Every entry stays in the int64 range:
    `add` and `merge` check each sum before they write it. An update whose
    delta is a tuple or an int makes no numpy call."""

    __slots__ = ("width", "rows", "_check")

    def __init__(self, width: int = 1):
        self.width = width
        self.rows: Dict[Key, Tuple[int, ...]] = {}
        self._check = struct.Struct(f"<{width}q").pack  # struct.error outside int64

    def add(self, key: Key, delta) -> None:
        """Add delta to key's row: a tuple of `width` ints, an integer added
        to every column, or an integer numpy row. If an entry of the sum
        leaves the int64 range, raise OverflowError naming the key and
        change nothing."""
        if type(delta) is not tuple or len(delta) != self.width:
            delta = (delta,) * self.width if type(delta) is int else self._row(delta)
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

    def _row(self, delta) -> Tuple[int, ...]:
        """An integer or an integer row as a tuple of `width` ints."""
        if isinstance(delta, (int, np.integer)):
            return (int(delta),) * self.width
        arr = np.asarray(delta)
        if arr.dtype.kind not in "biu":
            raise TypeError(f"a count delta must be an integer or an integer row, got {delta!r}")
        if arr.shape != (self.width,):
            raise ValueError(f"a count delta row must have {self.width} entries, got {delta!r}")
        return tuple(map(int, arr.tolist()))

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

    @staticmethod
    def grouped(keys: np.ndarray, rows: np.ndarray) -> List[CountView]:
        """One view per leading index r of keys (R, n, k) uint64 and rows
        (R, n, width) int64: rows[r] summed at equal keys[r], for all r in
        one sort and one grouped sum, each view a slice of the result."""
        R, n, k = keys.shape
        rep = np.repeat(np.arange(R, dtype=U64), n)[:, None]
        flat = np.concatenate([rep, keys.reshape(R * n, k)], axis=1)
        order = np.lexsort(flat.T[::-1])
        flat = CountView.summed(flat[order], rows.reshape(R * n, rows.shape[-1])[order])
        cut = np.searchsorted(flat.keys[:, 0], np.arange(R + 1, dtype=U64))
        return [CountView(flat.keys[a:b, 1:], flat.rows[a:b]) for a, b in zip(cut[:-1], cut[1:])]

    def total(self) -> Tuple[int, ...]:
        """The column sums of the rows."""
        return tuple(map(sum, zip(*self.rows.values()))) or (0,) * self.width

    def _matrix(self, keys: List[Key]) -> np.ndarray:
        """The (len(keys), width) int64 rows of the given keys."""
        return np.array([self.rows[k] for k in keys], dtype=np.int64).reshape(-1, self.width)

    def sorted(self) -> Tuple[List[Key], np.ndarray]:
        """Keys in canonical order and their (len, width) rows."""
        keys = sorted(self.rows, key=_key_words)
        return keys, self._matrix(keys)

    def to_bytes(self) -> bytes:
        """Width, row count, then each (key words, int64 row) in canonical
        order, little-endian."""
        keys, rows = self.sorted()
        return _encode_counts(self.width, [_key_words(k) for k in keys], rows)

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


class LinearSketch:
    """Base class: a seed and the width-1 counts of the sketched vector, a
    `SparseCounts` or a `CountView` given at construction. The sketch keeps
    no store of its own and only reads those counts."""

    def __init__(self, counts: SparseCounts | CountView, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counts = counts

    def _sorted_items(self) -> Tuple[Keys, np.ndarray]:
        keys, rows = self.counts.sorted()
        return keys, rows[:, 0].astype(np.float64)

    def _key_hashes(self, keys: Keys) -> np.ndarray:
        return _hash_keys((self.seed,), keys)


# ---------------------------------------------------------------------------
# Count-Sketch
# ---------------------------------------------------------------------------


def _cs_buckets(rows_b: np.ndarray, hkeys: np.ndarray, buckets: int) -> np.ndarray:
    """(..., rows, n) buckets of a batch of Count-Sketches for the keys
    hashed to hkeys (..., n): extend(row state, key hash) picks each one,
    from the row states (..., rows) combine(*seed words, row)."""
    hk = np.asarray(hkeys, dtype=U64)[..., None, :]
    return hx.bucket(hx.extend(rows_b[..., None], hk), buckets)


def _cs_coords(rows_b: np.ndarray, rows_s: np.ndarray, hkeys: np.ndarray,
               buckets: int) -> Tuple[np.ndarray, np.ndarray]:
    """(..., rows, n) buckets (`_cs_buckets`) and signs of a batch of
    Count-Sketches, the signs picked the same way from the row states
    rows_s."""
    hk = np.asarray(hkeys, dtype=U64)
    return (_cs_buckets(rows_b, hk, buckets),
            hx.sign_pm1(hx.extend(rows_s[..., None], hk[..., None, :])))


def _scatter_sum(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """(..., size) sums of the terms w (..., n) at the slots idx (..., n) of
    their last axis, all in one `bincount`. Each sum adds its terms in index
    order from 0.0, so it equals `np.add.at` slice by slice bit for bit."""
    lead, cells = w.shape[:-1], math.prod(w.shape[:-1])
    flat = np.arange(cells, dtype=np.int64).reshape(lead + (1,)) * size + idx
    return np.bincount(flat.ravel(), w.ravel(), cells * size).reshape(lead + (size,))


def _cs_table(b: np.ndarray, s: np.ndarray, values: np.ndarray, buckets: int) -> np.ndarray:
    """(..., rows, buckets) tables of the vectors with `values` (..., n) at
    the keys of (b, s), every bucket added in key order."""
    return _scatter_sum(b, s * np.asarray(values, dtype=np.float64)[..., None, :], buckets)


def _median(x: np.ndarray, axis: int) -> np.ndarray:
    """`np.median` of finite values along axis, from one sort: the middle
    element of an odd count, (a + b) / 2 of the middle two of an even one."""
    x, n = np.sort(x, axis=axis), x.shape[axis]
    mid = np.take(x, n // 2, axis)
    return mid if n % 2 else (np.take(x, n // 2 - 1, axis) + mid) / 2


def _cs_estimates(table: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(..., n) median-over-rows estimates at the keys of (b, s)."""
    return _median(s * np.take_along_axis(table, b, axis=-1), -2)


_CS_SALT_B = 0xC5B0
_CS_SALT_S = 0xC551
_CAUCHY_SALT = 0xCA0C


def _sketch_coords(seed: int, rows: int, buckets: int,
                   keys: Keys) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, n) buckets and signs at the keys of the Count-Sketch with this
    seed and shape."""
    r = np.arange(rows, dtype=U64)
    return _cs_coords(hx.combine(_CS_SALT_B, r), hx.combine(_CS_SALT_S, r),
                      _hash_keys((seed,), keys), buckets)


def _cauchy_coefficients(seed: int, s: int, keys: Keys) -> np.ndarray:
    """(s, n) Cauchy coefficients at the keys of the s-row l1 sketch with
    this seed."""
    r = np.arange(s, dtype=U64)[:, None]
    return hx.cauchy(hx.combine(_CAUCHY_SALT, r, _hash_keys((seed,), keys)[None, :]))


class CountSketch(LinearSketch):
    """Classic Count-Sketch: `rows` hash rows of `buckets` signed counters.

    The estimate at i is the median over rows of sign(i) * bucket(h(i)); the
    error is eps * ||x_{-1/eps^2}||_2 with high probability for buckets
    ~ 6/eps^2.
    """

    def __init__(self, counts: SparseCounts | CountView, rows: int, buckets: int, seed: int):
        super().__init__(counts, seed)
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be positive")
        self.rows = rows
        self.buckets = buckets

    def _materialize(self) -> np.ndarray:
        keys, vals = self._sorted_items()
        coords = _sketch_coords(self.seed, self.rows, self.buckets, keys)
        return _cs_table(*coords, vals, self.buckets)

    def estimate_many(self, indices: Sequence[Key]) -> np.ndarray:
        """Median-of-rows estimates for a batch of indices."""
        coords = _sketch_coords(self.seed, self.rows, self.buckets, list(indices))
        return _cs_estimates(self._materialize(), *coords)


# ---------------------------------------------------------------------------
# Cauchy l1 sketch
# ---------------------------------------------------------------------------


class CauchyL1Sketch(LinearSketch):
    """Indyk's l1 estimator: s Cauchy-weighted accumulators, report the
    median magnitude (median |Cauchy| = tan(pi/4) = 1, so no rescaling)."""

    def __init__(self, counts: SparseCounts | CountView, s: int, seed: int):
        super().__init__(counts, seed)
        if s < 1:
            raise ValueError("s must be positive")
        self.s = s

    def _materialize(self) -> np.ndarray:
        keys, vals = self._sorted_items()
        if not len(keys):
            return np.zeros(self.s)
        return _cauchy_coefficients(self.seed, self.s, keys) @ vals

    def estimate(self) -> float:
        return float(np.median(np.abs(self._materialize())))


# ---------------------------------------------------------------------------
# p-stable generation and the median of |D_p|
# ---------------------------------------------------------------------------


def sample_p_stable_array(p: float, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Vectorized Chambers-Mallows-Stuck p-stable generator; extreme inputs
    saturate to inf/0, which is the right semantics for the heavy tails."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return (np.sin(p * theta) / np.cos(theta) ** (1.0 / p)) * (
            np.cos(theta * (1.0 - p)) / np.log(1.0 / r)
        ) ** ((1.0 - p) / p)


def sample_p_stable(p: float, r: float, theta: float) -> float:
    """One standard p-stable variate from uniforms r in (0,1) and
    theta in (-pi/2, pi/2); monotone increasing in both on the positive
    quadrant. Valid for p in (0,1) or (1,2]."""
    if not (0.0 < p <= 2.0) or p == 1.0:
        raise ValueError(f"p must be in (0,1) or (1,2], got {p}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must be inside (0,1), got {r}")
    if not -np.pi / 2 < theta < np.pi / 2:
        raise ValueError(f"theta must be inside (-pi/2, pi/2), got {theta}")
    return float(sample_p_stable_array(p, np.float64(r), np.float64(theta)))


def _g_abs(p: float, r, theta):
    """|D_p| generator g(r, theta) on (0,1) x (0, pi/2)."""
    return np.abs(sample_p_stable_array(p, r, theta))


# median(|D_p|) at the MST sketch's p = 1/(4L), L = 1..25, as float.hex: the
# values of `_stable_median_slow(1.0 / (4.0 * L))`, which take 0.5-2 s each.
# At L >= 26 its quadrature fails ("function value at x=1e-12 is NaN").
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
    """median(|D_p|): from the committed table at p = 1/(4L), L = 1..25,
    otherwise solved by `_stable_median_slow`."""
    return _STABLE_MEDIAN[p] if p in _STABLE_MEDIAN else _stable_median_slow(p)


@lru_cache(maxsize=64)
def _stable_median_slow(p: float) -> float:
    """median(|D_p|), found by bisection on t -> F(g(t, pi t / 2)).

    The CDF F is evaluated by quadrature over theta of the inverse of the
    generator (monotone in r for p < 1); the solution t* lies in [1/10, 9/10].
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")

    def r_bar(theta: float, z: float) -> float:
        lo, hi = 1e-12, 1.0 - 1e-12
        if _g_abs(p, hi, theta) <= z:
            return 1.0
        if _g_abs(p, lo, theta) >= z:
            return 0.0
        return brentq(lambda r: _g_abs(p, r, theta) - z, lo, hi, xtol=1e-12)

    def cdf(z: float) -> float:
        val, _ = quad(lambda th: r_bar(th, z), 1e-9, np.pi / 2 - 1e-9, limit=200)
        return val / (np.pi / 2)

    t_star = brentq(
        lambda t: cdf(_g_abs(p, t, np.pi * t / 2)) - 0.5, 0.02, 0.98, rtol=1e-9
    )
    return float(_g_abs(p, t_star, np.pi * t_star / 2))


# ---------------------------------------------------------------------------
# Exponential scalings
# ---------------------------------------------------------------------------


class ExpScaler:
    """Deterministic map index -> Exp(1) variate (keyed inverse CDF)."""

    _SALT = 0xE259

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def variates(self, indices: Sequence[Key]) -> np.ndarray:
        return hx.exp1(_hash_keys((self.seed, self._SALT), indices))


def tail_truncated_norms(z: np.ndarray, beta: int) -> Tuple[float, float]:
    """(l2, l1) norms of z after zeroing its beta largest-magnitude entries
    (ties broken toward smaller index)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    if beta >= z.size:
        return 0.0, 0.0
    if beta > 0:
        # primary key: magnitude descending; secondary: index ascending
        order = np.lexsort((np.arange(z.size), -np.abs(z)))
        z = z.copy()
        z[order[:beta]] = 0.0
    return float(np.sqrt((z**2).sum())), float(np.abs(z).sum())


# ---------------------------------------------------------------------------
# l1 sampler (precision sampling)
# ---------------------------------------------------------------------------


class L1Sampler(LinearSketch):
    """Perfect-style l1 sampler: scale x_i by 1/t_i (t_i ~ Exp(1)), recover
    the scaled vector through a Count-Sketch, return the argmax if it clears
    the gap and mass validity tests, otherwise FAIL.

    Conditioned on not failing, the returned index is distributed
    ~ |x_i| / ||x||_1 (the anti-rank law), up to recovery noise.

    The counts of x are all it reads: `sample` builds the Count-Sketch table
    of the scaled vector and the Cauchy l1 sketch of x from them.
    """

    _SALT_EXP = 0x15A3

    def __init__(
        self,
        counts: SparseCounts | CountView,
        seed: int,
        rows: int = 5,
        buckets: int = 256,
        gamma: float = 0.05,
        l1_rows: int = 128,
    ):
        super().__init__(counts, seed)
        self.rows = rows
        self.buckets = buckets
        self.gamma = gamma
        self.l1_rows = l1_rows
        self.scaler = ExpScaler(int(hx.combine(self.seed, self._SALT_EXP)[()]))
        self.cs_seed = int(hx.combine(self.seed, 0xC5)[()])
        self.l1_seed = int(hx.combine(self.seed, 0xCA)[()])

    def state_bytes(self) -> bytes:
        """The seed/shape words and the counts of x. No sketch of the package
        serializes a sampler: this is kept, byte for byte, because
        `perfbench/run.py` `state_size` sums it over the round-one samplers
        of an `EmdTwoPassSketch`, which has no serializer of its own."""
        return encode_state(4, (self.seed, self.rows, self.buckets, self.l1_rows), [self.counts])

    def _table(self, keys: Keys, vals: np.ndarray, coords) -> np.ndarray:
        """The Count-Sketch table of the scaled vector x_i / t_i at the
        coords of keys. It is kept on an integer grid of step 2^-20,
        x_i * round(min(1/t_i, 2^20) * 2^20), so the table is as exactly
        linear as x."""
        inv_t = np.minimum(1.0 / self.scaler.variates(keys), _INV_EXP_CAP)
        return _cs_table(*coords, vals * np.round(inv_t * (1 << 20)), self.buckets)

    def sample(self):
        """Return an index (a view's key as a tuple of ints) or FAIL. The
        counts are read once: one sort, and one set of Count-Sketch coords
        for both the table and its read."""
        keys, vals = self._sorted_items()
        if not len(keys):
            return FAIL
        coords = _sketch_coords(self.cs_seed, self.rows, self.buckets, keys)
        est = np.abs(_cs_estimates(self._table(keys, vals, coords), *coords)) / float(1 << 20)
        l1 = _cauchy_coefficients(self.l1_seed, self.l1_rows, keys) @ vals
        l1_hat = float(np.median(np.abs(l1)))
        top = int(np.argmax(est))
        best = est[top]
        second = np.max(np.delete(est, top)) if len(keys) > 1 else 0.0
        if best < self.gamma * l1_hat:
            return FAIL
        if best < (1.0 + self.gamma) * second:
            return FAIL
        key = keys[top]
        return tuple(key.tolist()) if isinstance(key, np.ndarray) else key


# ---------------------------------------------------------------------------
# l0 (distinct support) estimator
# ---------------------------------------------------------------------------


class L0Sketch(LinearSketch):
    """Distinct-support estimator: nested subsamples at rates 2^-eta feed
    fingerprinted occupancy tables; the first level whose occupancy is below
    0.7 * buckets is inverted by linear counting and inflated by 1.25, giving
    an estimate inside [c, 1.5c] with high probability."""

    _SALT_LVL = 0x10A0
    _SALT_BKT = 0x10A1
    _LOAD = 0.7
    _CENTER = 1.25

    def __init__(self, counts: SparseCounts | CountView, seed: int, levels: int = 25,
                 buckets: int = 4096):
        super().__init__(counts, seed)
        self.levels = levels
        self.buckets = buckets

    def _materialize(self) -> np.ndarray:
        """Occupancy per level (the decoded view of the bucket tables)."""
        keys, _ = self._sorted_items()
        occ = np.zeros(self.levels)
        if not len(keys):
            return occ
        hk = self._key_hashes(keys)
        u = hx.uniform01(hx.combine(self._SALT_LVL, hk))
        b = hx.bucket(hx.combine(self._SALT_BKT, hk), self.buckets)
        for eta in range(self.levels):
            member = u < 2.0**-eta
            occ[eta] = len(np.unique(b[member]))
        return occ

    def estimate(self) -> float:
        if not self.counts:
            return 0.0
        occ = self._materialize()
        k = float(self.buckets)
        for eta in range(self.levels):
            if occ[eta] <= self._LOAD * k:
                if occ[eta] == 0:
                    return 0.0
                c_eta = math.log1p(-occ[eta] / k) / math.log1p(-1.0 / k)
                return self._CENTER * (2.0**eta) * c_eta
        raise RuntimeError("all subsample levels saturated; raise `levels`")
