"""Reusable linear-sketch toolbox.

All sketches share one state discipline: the stored state is (seeds, a
canonical sparse integer map from touched index to net count). Accumulator
vectors -- the classical dense view -- are materialized on demand as a pure
function of that state, in canonical index order. This keeps every state
exactly linear: permuting, splitting or merging update streams yields
bit-identical states and hence bit-identical estimates (floating-point
accumulation in stream order could not promise that).

A composite sketch is a view of one count map, not a second store: the
l1 sampler builds its Count-Sketch and its Cauchy l1 sketch from its own map
when it is read, and the estimators build the sketches of a vector they
already count exactly (Delta-hat, the round-one samplers, the per-level l0)
from that count with `with_counts`. Each derived map has the keys and the
integers that feeding every update to the sketch would have given.

Coefficients (Count-Sketch signs, Cauchy and p-stable scalars, exponential
scalings) are derived from the seed and the index by keyed hashing, never
stored; a batch of indices is hashed with one call per index width.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import hashing as hx
from .hashing import U64

__all__ = [
    "CountSketch",
    "CauchyL1Sketch",
    "SmallPStableSketch",
    "ExpScaler",
    "L1Sampler",
    "L0Sketch",
    "sample_p_stable",
    "stable_median",
    "default_small_p_t",
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

# 1/t scalings are capped here; Pr[t < 1/cap] ~ 1e-6 per index
_INV_EXP_CAP = 2.0**20


def _key_words(key: Key) -> Tuple[int, ...]:
    if isinstance(key, tuple):
        words: Tuple[int, ...] = ()
        for part in key:
            words += _key_words(part)
        return words
    return hx.int_words(key)


def _hash_keys(prefix: tuple, keys: Sequence[Key]) -> np.ndarray:
    """combine(*prefix, *words of key) for every key, with one combine call
    per key width (elementwise, so equal to the per-key calls bit for
    bit)."""
    words = [_key_words(k) for k in keys]
    by_width: Dict[int, List[int]] = {}
    for i, w in enumerate(words):
        by_width.setdefault(len(w), []).append(i)
    out = np.empty(len(words), dtype=U64)
    for idx in by_width.values():
        cols = np.array([words[i] for i in idx], dtype=U64).T
        out[idx] = hx.combine(*prefix, *cols)
    return out


def _encode_key(key: Key) -> bytes:
    words = _key_words(key)
    return struct.pack("<B", len(words)) + struct.pack(f"<{len(words)}Q", *words)


class LinearSketch:
    """Base class: canonical sparse integer state plus seed."""

    _KIND = 0

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counts: Dict[Key, int] = {}
        self._dirty = True

    # -- state -------------------------------------------------------------
    def update(self, index: Key, delta: int) -> None:
        """Add delta to the implicit vector coordinate `index`."""
        c = self._counts.get(index, 0) + int(delta)
        if c == 0:
            self._counts.pop(index, None)
        else:
            self._counts[index] = c
        self._dirty = True

    def with_counts(self, counts: Dict[Key, int]) -> "LinearSketch":
        """Replace the state by the nonzero entries of `counts` -- the state
        that feeding every entry through update() gives -- and return self."""
        self._counts = {k: int(c) for k, c in counts.items() if c}
        self._dirty = True
        return self

    def merge(self, other: "LinearSketch") -> None:
        """Add another state built with identical seeds/shape."""
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ValueError("cannot merge sketches of different shape/seed")
        for k, c in other._counts.items():
            self.update(k, c)

    def support_size(self) -> int:
        return len(self._counts)

    def _sorted_items(self) -> Tuple[List[Key], np.ndarray]:
        keys = sorted(self._counts.keys(), key=_key_words)
        vals = np.array([self._counts[k] for k in keys], dtype=np.float64)
        return keys, vals

    def _key_hashes(self, keys: Sequence[Key]) -> np.ndarray:
        return _hash_keys((self.seed,), keys)

    def _shape(self) -> tuple:
        return (self._KIND, self.seed)

    # -- serialization -----------------------------------------------------
    def state_bytes(self) -> bytes:
        """Versioned little-endian binary: header, seeds/shape, sparse counts,
        materialized accumulators."""
        head = b"GSKS" + struct.pack("<HH", 1, self._KIND)
        shape = self._shape()
        head += struct.pack("<B", len(shape)) + struct.pack(
            f"<{len(shape)}Q", *[int(s) & 0xFFFFFFFFFFFFFFFF for s in shape]
        )
        keys, vals = self._sorted_items()
        body = struct.pack("<I", len(keys))
        for k, v in zip(keys, vals.astype(np.int64)):
            body += _encode_key(k) + struct.pack("<q", int(v))
        acc = np.ascontiguousarray(self._materialize(), dtype=np.float64)
        body += struct.pack("<I", acc.size) + acc.tobytes()
        return head + body

    def _materialize(self) -> np.ndarray:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self._counts == other._counts
        )


# ---------------------------------------------------------------------------
# Count-Sketch
# ---------------------------------------------------------------------------


class CountSketch(LinearSketch):
    """Classic Count-Sketch: `rows` hash rows of `buckets` signed counters.

    estimate(i) is the median over rows of sign(i) * bucket(h(i)); the error
    is eps * ||x_{-1/eps^2}||_2 with high probability for buckets ~ 6/eps^2.
    """

    _KIND = 1
    _SALT_B = 0xC5B0
    _SALT_S = 0xC551

    def __init__(self, rows: int, buckets: int, seed: int):
        super().__init__(seed)
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be positive")
        self.rows = rows
        self.buckets = buckets
        self._table: Optional[np.ndarray] = None

    def _shape(self) -> tuple:
        return (self._KIND, self.seed, self.rows, self.buckets)

    def _coords(self, hkeys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r = np.arange(self.rows, dtype=U64)[:, None]
        hb = hx.combine(self._SALT_B, r, hkeys[None, :])
        hs = hx.combine(self._SALT_S, r, hkeys[None, :])
        return hx.bucket(hb, self.buckets), hx.sign_pm1(hs)

    def _materialize(self) -> np.ndarray:
        if not self._dirty and self._table is not None:
            return self._table
        table = np.zeros((self.rows, self.buckets))
        keys, vals = self._sorted_items()
        if keys:
            b, s = self._coords(self._key_hashes(keys))
            for r in range(self.rows):
                np.add.at(table[r], b[r], s[r] * vals)
        self._table = table
        self._dirty = False
        return table

    def estimate(self, index: Key) -> float:
        return float(self.estimate_many([index])[0])

    def estimate_many(self, indices: Sequence[Key]) -> np.ndarray:
        """Median-of-rows estimates for a batch of indices."""
        table = self._materialize()
        b, s = self._coords(self._key_hashes(list(indices)))
        vals = s * table[np.arange(self.rows)[:, None], b]
        return np.median(vals, axis=0)


# ---------------------------------------------------------------------------
# Cauchy l1 sketch
# ---------------------------------------------------------------------------


class CauchyL1Sketch(LinearSketch):
    """Indyk's l1 estimator: s Cauchy-weighted accumulators, report the
    median magnitude (median |Cauchy| = tan(pi/4) = 1, so no rescaling)."""

    _KIND = 2
    _SALT = 0xCA0C

    def __init__(self, s: int, seed: int):
        super().__init__(seed)
        if s < 1:
            raise ValueError("s must be positive")
        self.s = s
        self._acc: Optional[np.ndarray] = None

    @classmethod
    def for_accuracy(cls, eps: float, delta: float, seed: int) -> "CauchyL1Sketch":
        s = max(8, math.ceil(8.0 * math.log(2.0 / delta) / eps**2))
        return cls(s, seed)

    def _shape(self) -> tuple:
        return (self._KIND, self.seed, self.s)

    def coefficients(self, indices: Sequence[Key]) -> np.ndarray:
        """(s, n) Cauchy coefficient matrix for the given indices."""
        hk = self._key_hashes(list(indices))
        r = np.arange(self.s, dtype=U64)[:, None]
        return hx.cauchy(hx.combine(self._SALT, r, hk[None, :]))

    def _materialize(self) -> np.ndarray:
        if not self._dirty and self._acc is not None:
            return self._acc
        keys, vals = self._sorted_items()
        if keys:
            self._acc = self.coefficients(keys) @ vals
        else:
            self._acc = np.zeros(self.s)
        self._dirty = False
        return self._acc

    def estimate(self) -> float:
        return float(np.median(np.abs(self._materialize())))


# ---------------------------------------------------------------------------
# p-stable generation, median of |D_p|, and the small-p sketch
# ---------------------------------------------------------------------------


def sample_p_stable_array(p: float, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Vectorized Chambers-Mallows-Stuck p-stable generator; extreme inputs
    saturate to inf/0, which is the right semantics for the heavy tails."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
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


@lru_cache(maxsize=64)
def stable_median(p: float) -> float:
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


def default_small_p_t(p: float, eps: float, delta: float) -> int:
    """Accumulator count for the small-p median estimator.

    The per-draw margin of the median test is ~0.31 * p * eps (measured),
    so t = 6 ln(2/delta) / (p eps)^2 puts the median inside (1 +- eps) with
    probability well above 1 - delta.
    """
    return int(math.ceil(6.0 * math.log(2.0 / delta) / (p * eps) ** 2))


class SmallPStableSketch(LinearSketch):
    """l_p sketch for p near 0: t stable-weighted accumulators; the estimate
    is median|acc| / median(|D_p|), a (1 +- eps) proxy for the stable scale
    ||x||_p of the accumulated vector."""

    _KIND = 3
    _SALT_R = 0x59A1
    _SALT_T = 0x59A2

    def __init__(self, p: float, t: int, seed: int):
        super().__init__(seed)
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0,1), got {p}")
        if t < 1:
            raise ValueError("t must be positive")
        self.p = p
        self.t = t
        self._acc: Optional[np.ndarray] = None

    def _shape(self) -> tuple:
        # p encoded through its IEEE bits so merge checks catch mismatches
        return (self._KIND, self.seed, self.t, np.float64(self.p).view(np.int64))

    def coefficients(self, indices: Sequence[Key]) -> np.ndarray:
        hk = self._key_hashes(list(indices))
        j = np.arange(self.t, dtype=U64)[:, None]
        r = hx.uniform01(hx.combine(self._SALT_R, j, hk[None, :]))
        th = np.pi * (hx.uniform01(hx.combine(self._SALT_T, j, hk[None, :])) - 0.5)
        return sample_p_stable_array(self.p, r, th)

    def _materialize(self) -> np.ndarray:
        if not self._dirty and self._acc is not None:
            return self._acc
        keys, vals = self._sorted_items()
        acc = np.zeros(self.t)
        if keys:
            hk = self._key_hashes(keys)
            # chunk over accumulators: t can be large for tight accuracy targets
            step = max(1, int(4e6) // len(keys))
            for lo in range(0, self.t, step):
                j = np.arange(lo, min(self.t, lo + step), dtype=U64)[:, None]
                r = hx.uniform01(hx.combine(self._SALT_R, j, hk[None, :]))
                th = np.pi * (hx.uniform01(hx.combine(self._SALT_T, j, hk[None, :])) - 0.5)
                acc[lo : lo + j.shape[0]] = sample_p_stable_array(self.p, r, th) @ vals
        self._acc = acc
        self._dirty = False
        return self._acc

    def estimate(self) -> float:
        if not self._counts:
            return 0.0
        return float(np.median(np.abs(self._materialize())) / stable_median(self.p))


# ---------------------------------------------------------------------------
# Exponential scalings
# ---------------------------------------------------------------------------


class ExpScaler:
    """Deterministic map index -> Exp(1) variate (keyed inverse CDF)."""

    _SALT = 0xE259

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def variate(self, index: Key) -> float:
        return float(self.variates([index])[0])

    def variates(self, indices: Sequence[Key]) -> np.ndarray:
        return hx.exp1(_hash_keys((self.seed, self._SALT), indices))

    def variates_u64(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized variant for plain uint64 index arrays."""
        return hx.exp1(hx.combine(self.seed, self._SALT, np.asarray(idx, dtype=U64)))


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

    The count map of x is the whole state; the Count-Sketch and the Cauchy
    l1 sketch are built from it when the sampler is read (`_views`).
    """

    _KIND = 4
    _SALT_EXP = 0x15A3

    def __init__(
        self,
        seed: int,
        rows: int = 5,
        buckets: int = 256,
        gamma: float = 0.05,
        l1_rows: int = 128,
    ):
        super().__init__(seed)
        self.rows = rows
        self.buckets = buckets
        self.gamma = gamma
        self.l1_rows = l1_rows
        self.scaler = ExpScaler(int(hx.combine(self.seed, self._SALT_EXP)[()]))

    def _shape(self) -> tuple:
        return (self._KIND, self.seed, self.rows, self.buckets, self.l1_rows)

    def _views(self) -> Tuple[CountSketch, CauchyL1Sketch]:
        """The Count-Sketch of the scaled vector x_i / t_i and the Cauchy l1
        sketch of x, built from the current count map. The scaled vector is
        kept on an integer grid of step 2^-20, x_i * round(min(1/t_i, 2^20)
        * 2^20), so the Count-Sketch state is as exactly linear as x."""
        keys = list(self._counts)
        inv_t = np.minimum(1.0 / self.scaler.variates(keys), _INV_EXP_CAP)
        grid = np.round(inv_t * (1 << 20))
        scaled = {k: self._counts[k] * int(g) for k, g in zip(keys, grid)}
        cs = CountSketch(self.rows, self.buckets, int(hx.combine(self.seed, 0xC5)[()]))
        l1 = CauchyL1Sketch(self.l1_rows, int(hx.combine(self.seed, 0xCA)[()]))
        return cs.with_counts(scaled), l1.with_counts(self._counts)

    def _materialize(self) -> np.ndarray:
        return self._views()[0]._materialize()

    def sample(self):
        """Return an index or FAIL."""
        keys, _ = self._sorted_items()
        if not keys:
            return FAIL
        cs, l1 = self._views()
        est = np.abs(cs.estimate_many(keys)) / float(1 << 20)
        l1_hat = l1.estimate()
        top = int(np.argmax(est))
        best = est[top]
        second = np.max(np.delete(est, top)) if len(keys) > 1 else 0.0
        if best < self.gamma * l1_hat:
            return FAIL
        if best < (1.0 + self.gamma) * second:
            return FAIL
        return keys[top]


# ---------------------------------------------------------------------------
# l0 (distinct support) estimator
# ---------------------------------------------------------------------------


class L0Sketch(LinearSketch):
    """Distinct-support estimator: nested subsamples at rates 2^-eta feed
    fingerprinted occupancy tables; the first level whose occupancy is below
    0.7 * buckets is inverted by linear counting and inflated by 1.25, giving
    an estimate inside [c, 1.5c] with high probability."""

    _KIND = 5
    _SALT_LVL = 0x10A0
    _SALT_BKT = 0x10A1
    _LOAD = 0.7
    _CENTER = 1.25

    def __init__(self, seed: int, levels: int = 25, buckets: int = 4096):
        super().__init__(seed)
        self.levels = levels
        self.buckets = buckets

    def _shape(self) -> tuple:
        return (self._KIND, self.seed, self.levels, self.buckets)

    def _materialize(self) -> np.ndarray:
        """Occupancy per level (the decoded view of the bucket tables)."""
        keys, _ = self._sorted_items()
        occ = np.zeros(self.levels)
        if not keys:
            return occ
        hk = self._key_hashes(keys)
        u = hx.uniform01(hx.combine(self._SALT_LVL, hk))
        b = hx.bucket(hx.combine(self._SALT_BKT, hk), self.buckets)
        for eta in range(self.levels):
            member = u < 2.0**-eta
            occ[eta] = len(np.unique(b[member]))
        return occ

    def estimate(self) -> float:
        if not self._counts:
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
