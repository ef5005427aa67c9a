"""Instance generators, including the planted hard distributions.

The hard instances place point clusters on cosets of the first-order
Reed-Muller (punctured Hadamard) code RM(1, log2 d) -- length d, dimension
log2(d)+1, minimum weight d/2 -- so points inside one cluster are pairwise
far apart. In the planted branch (Z=1) successive cluster centers differ by
sparse Bernoulli(1/(200 alpha)) noise, making one chain of clusters cheap to
span; in the null branch (Z=0) centers are independent, so every spanning
edge costs ~d/2 and the MST is a factor ~k more expensive. Clusters larger
than the code (n > 2d) take unions of random cosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .streamio import Stream

__all__ = ["GeneratedInstance", "gen_instance", "rm1_codewords"]


@dataclass
class GeneratedInstance:
    """One instance: `updates` is its `Stream` (insertions only, label by
    label), and `meta` its parameters, which `gen` writes as comments."""

    kind: str
    updates: Stream
    meta: Dict[str, object] = field(default_factory=dict)


def rm1_codewords(d: int) -> np.ndarray:
    """All 2d codewords of RM(1, log2 d) as a (2d, d) bit matrix."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"d must be a power of two >= 2, got {d}")
    m = d.bit_length() - 1
    pts = np.arange(d, dtype=np.uint32)
    basis = ((pts[None, :] >> np.arange(m)[:, None]) & 1).astype(np.uint8)
    basis = np.vstack([basis, np.ones((1, d), np.uint8)])
    sel = ((np.arange(2 * d)[:, None] >> np.arange(m + 1)[None, :]) & 1).astype(np.uint8)
    return (sel @ basis) % 2


def _cluster_shape(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n-point cluster: union of n/(2d) cosets of RM(1, log2 d)."""
    code = rm1_codewords(d)
    if n % (2 * d) != 0:
        raise ValueError(
            f"hard instances need n to be a multiple of 2d = {2*d}, got n = {n}"
        )
    reps = n // (2 * d)
    offs = rng.integers(0, 2, size=(reps, d)).astype(np.uint8)
    offs[0] = 0
    return np.vstack([code ^ off for off in offs])


# The parameters each kind reads.
_PARAMS = {"uniform": (), "clustered": ("k",), "matched_noise": ("eps",),
           "hard_mst": ("k", "alpha", "z"), "hard_emd": ("alpha", "z")}


def _check_params(kind: str, params: Dict[str, object]) -> None:
    """Reject a kind, or a parameter name or value, that gen_instance cannot use."""
    if kind not in _PARAMS:
        raise ValueError(f"unknown instance kind {kind!r}")
    unknown = sorted(set(params) - set(_PARAMS[kind]))
    if unknown:
        raise ValueError(f"{kind} takes no parameter(s) {', '.join(map(repr, unknown))} "
                         f"(it reads: {', '.join(_PARAMS[kind]) or 'none'})")
    k, alpha, eps, z = (params.get(name) for name in ("k", "alpha", "eps", "z"))
    k_min = 2 if kind == "hard_mst" else 1
    if k is not None and not (k >= k_min and k % 1 == 0):
        raise ValueError(f"{kind} needs an integer k >= {k_min}, got {k!r}")
    if alpha is not None and not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number greater than 0, got {alpha!r}")
    if eps is not None and not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps!r}")
    if z is not None and z not in (0, 1):
        raise ValueError(f"z must be 0 or 1, got {z!r}")


def gen_instance(kind: str, n: int, d: int, seed: int, **params) -> GeneratedInstance:
    """Reproducible stream for one instance family.

    Kinds: uniform, clustered(k) (MST inputs, label X); matched_noise(eps),
    hard_emd(alpha, z) (EMD inputs, labels A/B); hard_mst(k, alpha, z) (MST
    input). The planted bit Z is drawn unless z is given, and lands in meta
    and a stream comment. A parameter the kind does not read, or a value
    out of its range, raises ValueError.

    n counts the points of each label, and meta's `n` is that n: uniform,
    clustered and matched_noise write n points per label, hard_emd one
    cluster of n points each to A and B, and hard_mst k clusters of n
    points, k n in all, to X. The hard kinds build their clusters from
    cosets of RM(1, log2 d), so they need n to be a multiple of 2d.
    """
    rng = np.random.default_rng(seed)
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    _check_params(kind, params)

    if kind == "uniform":
        X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        return GeneratedInstance(kind, Stream.insertions(X=X), {"n": n, "d": d})

    if kind == "clustered":
        k = int(params.get("k", 4))
        centers = rng.integers(0, 2, size=(k, d)).astype(np.uint8)
        who = rng.integers(0, k, size=n)
        noise = (rng.random((n, d)) < 1.0 / 16).astype(np.uint8)
        X = centers[who] ^ noise
        return GeneratedInstance(kind, Stream.insertions(X=X), {"n": n, "d": d, "k": k})

    if kind == "matched_noise":
        eps = float(params.get("eps", 0.1))
        A = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        B = A ^ (rng.random((n, d)) < eps).astype(np.uint8)
        return GeneratedInstance(kind, Stream.insertions(A=A, B=B), {"n": n, "d": d, "eps": eps})

    # hard_mst and hard_emd: a chain of k cluster centers; hard_emd's two
    # clusters are A and B.
    k = int(params.get("k", 5 if kind == "hard_mst" else 2))
    alpha = float(params.get("alpha", 4.0))
    z = int(params.get("z", rng.integers(0, 2)))
    eps = 1.0 / (200.0 * alpha)
    shape = _cluster_shape(n, d, rng)
    xs = [rng.integers(0, 2, size=d).astype(np.uint8)]
    for _ in range(k - 1):
        if z == 1:
            xs.append(xs[-1] ^ (rng.random(d) < eps).astype(np.uint8))
        else:
            xs.append(rng.integers(0, 2, size=d).astype(np.uint8))
    meta = {"n": n, "d": d, "k": k, "alpha": alpha, "eps": eps, "Z": z}
    if kind == "hard_mst":
        return GeneratedInstance(kind, Stream.insertions(X=np.vstack([shape ^ x for x in xs])), meta)
    del meta["k"]
    return GeneratedInstance(kind, Stream.insertions(A=shape ^ xs[0], B=shape ^ xs[1]), meta)
