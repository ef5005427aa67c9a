"""Keyed 64-bit hashing and the deterministic variates derived from it.

Every random object in this package (tree coordinates, sketch coefficients,
subsample memberships, exponential scalings) is a pure function of a 64-bit
seed and an index, computed with the splitmix64 finalizer. That makes all
states replayable, mergeable and order-invariant: two processes with the same
seed always derive the same coefficient for the same index.

Functions accept and return numpy uint64 arrays so callers can batch. Their
inputs are never written: a mix is finished in place on the fresh array
that its first step (the xor with the chain word, or a copy) returns, so
hashing n words allocates two arrays of n words, that one and one scratch
array for the shifts.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64

_GAMMA = U64(0x9E3779B97F4A7C15)
_M1 = U64(0xBF58476D1CE4E5B9)
_M2 = U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = U64(30), U64(27), U64(31), U64(11)

# fills the low 53 bits after shift; keeps uniforms inside the open interval
_INV53 = float(2.0**-53)
_HALF54 = float(2.0**-54)
_BELOW1 = 1.0 - _INV53  # the largest float64 below 1


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, a bijective mixer on 64-bit words."""
    z = z + _GAMMA
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _splitmix_(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """`_splitmix` of a uint64 array that the caller owns, in place: every
    step writes z, and the three shifts write one scratch array t of z's
    shape (made if None)."""
    z += _GAMMA
    t = np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _M1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


_ACC0 = U64(0x8421_5A5A_C3C3_1E1E)


def combine(*parts) -> np.ndarray:
    """Hash a tuple of 64-bit words/arrays into one word (order-sensitive).

    Broadcasts over array arguments, so combine(seed, np.arange(n)) yields n
    independent-looking streams.
    """
    return extend(_ACC0, *parts)


def extend(acc, *parts) -> np.ndarray:
    """combine(*prefix, *parts), given acc = combine(*prefix): a prefix
    shared by many calls is hashed once (broadcasts like combine). uint64
    arrays wrap silently, but 0-d words compute on numpy scalars, which
    warn on overflow; only they enter an errstate guard (it is costly next
    to the mixing of a small array). extend(0, x) is splitmix64's finalizer
    of x."""
    acc = np.asarray(acc, dtype=U64)
    for p in parts:
        z = acc ^ np.asarray(p, dtype=U64)  # fresh, or a numpy scalar for 0-d
        if z.ndim == 0:
            with np.errstate(over="ignore"):
                acc = _splitmix(z)
        else:
            acc = _splitmix_(z)
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
    """Map hash words to uniforms in the open interval (0, 1): the top 53
    bits k give (k + 1/2) 2^-53, which rounds to 1.0 at k = 2^53 - 1 only;
    that one value is clamped to 1 - 2^-53."""
    h = np.array(h, dtype=U64)  # a copy, which _uniform01_ overwrites
    return _uniform01_(h, np.empty(h.shape))


def _uniform01_(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`uniform01` of a uint64 array that the caller owns, in place: h is
    overwritten, and the uniforms are written to out, a float64 array of
    h's shape."""
    h >>= _S11
    np.multiply(h, _INV53, out=out)
    out += _HALF54
    return np.minimum(out, _BELOW1, out=out)


def exp1(h: np.ndarray) -> np.ndarray:
    """Map hash words to Exp(1) variates via inverse CDF, -log(u), in place
    on the uniforms' array."""
    u = uniform01(h)
    np.log(u, out=u)
    return np.negative(u, out=u)


def _cauchy_(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard Cauchy variates tan(pi (u - 1/2)) of a uint64 array that the
    caller owns, in place, as `_uniform01_`."""
    u = _uniform01_(h, out)
    u -= 0.5
    u *= np.pi
    return np.tan(u, out=u)


def sign_pm1(h: np.ndarray) -> np.ndarray:
    """Map hash words to +-1 (float) using one bit."""
    # bit 17, read as 0 or 2
    return ((np.asarray(h, dtype=U64) >> U64(16)) & U64(2)).astype(np.float64) - 1.0


def bucket(h: np.ndarray, k: int) -> np.ndarray:
    """Map hash words to buckets [0, k); modulo bias is ~k/2^64, negligible.
    For a power of two k the remainder is read off the low bits. The int64
    result views the uint64 remainders (below k < 2^63) without a copy."""
    h = np.asarray(h, dtype=U64)
    return (h & U64(k - 1) if k & (k - 1) == 0 else h % U64(k)).view(np.int64)

