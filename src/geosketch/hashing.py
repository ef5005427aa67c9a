"""Keyed 64-bit hashing and the deterministic variates derived from it.

Every random object in this package (tree coordinates, sketch coefficients,
subsample memberships, exponential scalings) is a pure function of a 64-bit
seed and an index, computed with the splitmix64 finalizer. That makes all
states replayable, mergeable and order-invariant: two processes with the same
seed always derive the same coefficient for the same index.

Functions accept and return numpy uint64 arrays so callers can batch.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64

_GAMMA = U64(0x9E3779B97F4A7C15)
_M1 = U64(0xBF58476D1CE4E5B9)
_M2 = U64(0x94D049BB133111EB)
_S30, _S27, _S31 = U64(30), U64(27), U64(31)

# fills the low 53 bits after shift; keeps uniforms inside the open interval
_INV53 = float(2.0**-53)
_HALF54 = float(2.0**-54)


def mix64(x: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer: a bijective mixer on 64-bit words.

    uint64 arrays wrap silently, but 0-d input computes on numpy scalars,
    which warn on overflow; only that case enters an errstate guard (it is
    costly next to the mixing of a small array)."""
    z = np.asarray(x, dtype=U64)
    if z.ndim == 0:
        with np.errstate(over="ignore"):
            return _splitmix(z)
    return _splitmix(z)


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = z + _GAMMA
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


_ACC0 = U64(0x8421_5A5A_C3C3_1E1E)


def combine(*parts) -> np.ndarray:
    """Hash a tuple of 64-bit words/arrays into one word (order-sensitive).

    Broadcasts over array arguments, so combine(seed, np.arange(n)) yields n
    independent-looking streams.
    """
    return extend(_ACC0, *parts)


def extend(acc, *parts) -> np.ndarray:
    """combine(*prefix, *parts), given acc = combine(*prefix): a prefix
    shared by many calls is hashed once (broadcasts like combine)."""
    acc = np.asarray(acc, dtype=U64)
    for p in parts:
        acc = mix64(acc ^ np.asarray(p, dtype=U64))
    return acc


def int_words(v: int) -> tuple:
    """The 64-bit words of a nonnegative int, least significant first (one
    word for v < 2^64): the form in which combine() takes a wide int."""
    v = int(v)
    if 0 <= v <= 0xFFFFFFFFFFFFFFFF:
        return (v,)
    if v < 0:
        raise ValueError("only nonnegative ints split into 64-bit words")
    words = []
    while v:
        words.append(v & 0xFFFFFFFFFFFFFFFF)
        v >>= 64
    return tuple(words)


def uniform01(h: np.ndarray) -> np.ndarray:
    """Map hash words to uniforms in the open interval (0, 1)."""
    return (np.asarray(h, dtype=U64) >> U64(11)).astype(np.float64) * _INV53 + _HALF54


def exp1(h: np.ndarray) -> np.ndarray:
    """Map hash words to Exp(1) variates via inverse CDF."""
    return -np.log(uniform01(h))


def cauchy(h: np.ndarray) -> np.ndarray:
    """Map hash words to standard Cauchy variates, tan(pi (u - 1/2))."""
    return np.tan(np.pi * (uniform01(h) - 0.5))


def sign_pm1(h: np.ndarray) -> np.ndarray:
    """Map hash words to +-1 (float) using one bit."""
    # bit 17, read as 0 or 2
    return ((np.asarray(h, dtype=U64) >> U64(16)) & U64(2)).astype(np.float64) - 1.0


def bit01(h: np.ndarray) -> np.ndarray:
    """Map hash words to a single {0,1} bit."""
    return ((np.asarray(h, dtype=U64) >> U64(23)) & U64(1)).astype(np.uint8)


def bucket(h: np.ndarray, k: int) -> np.ndarray:
    """Map hash words to buckets [0, k); modulo bias is ~k/2^64, negligible.
    For a power of two k the remainder is read off the low bits."""
    h = np.asarray(h, dtype=U64)
    return (h & U64(k - 1) if k & (k - 1) == 0 else h % U64(k)).astype(np.int64)


def fingerprint_words(words: np.ndarray, key: int) -> np.ndarray:
    """Hash rows of a (n, w) uint64 matrix to single words (keyed, vectorized)."""
    w = np.asarray(words, dtype=U64)
    if w.ndim == 1:
        w = w[:, None]
    acc = np.full(w.shape[0], U64(key) ^ U64(w.shape[1]), dtype=U64)
    for j in range(w.shape[1]):
        acc = mix64(acc ^ w[:, j])
    return acc
