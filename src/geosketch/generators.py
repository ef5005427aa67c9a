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

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .points import HypercubePoint
from .streamio import TurnstileUpdate

__all__ = ["GeneratedInstance", "gen_instance", "rm1_codewords"]


@dataclass
class GeneratedInstance:
    kind: str
    updates: List[TurnstileUpdate]
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


def _points_of(mat: np.ndarray) -> List[HypercubePoint]:
    return [HypercubePoint.from_bits(row) for row in mat]


def _insertions(mat: np.ndarray, label: str) -> List[TurnstileUpdate]:
    return [TurnstileUpdate(1, label, p) for p in _points_of(mat)]


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


def gen_instance(kind: str, n: int, d: int, seed: int, **params) -> GeneratedInstance:
    """Reproducible stream for one instance family.

    Kinds: uniform, clustered (MST inputs, label X); matched_noise(eps),
    hard_emd(alpha) (EMD inputs, labels A/B); hard_mst(k, alpha) (MST input,
    the planted bit Z lands in meta and a stream comment).
    """
    rng = np.random.default_rng(seed)
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")

    if kind == "uniform":
        X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        return GeneratedInstance(kind, _insertions(X, "X"), {"n": n, "d": d})

    if kind == "clustered":
        k = int(params.get("k", 4))
        centers = rng.integers(0, 2, size=(k, d)).astype(np.uint8)
        who = rng.integers(0, k, size=n)
        noise = (rng.random((n, d)) < 1.0 / 16).astype(np.uint8)
        X = centers[who] ^ noise
        return GeneratedInstance(kind, _insertions(X, "X"), {"n": n, "d": d, "k": k})

    if kind == "matched_noise":
        eps = float(params.get("eps", 0.1))
        A = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        B = A ^ (rng.random((n, d)) < eps).astype(np.uint8)
        ups = _insertions(A, "A") + _insertions(B, "B")
        return GeneratedInstance(kind, ups, {"n": n, "d": d, "eps": eps})

    if kind == "hard_mst":
        k = int(params.get("k", 5))
        alpha = float(params.get("alpha", 4.0))
        z = int(params.get("z", rng.integers(0, 2)))
        if k < 2:
            raise ValueError("hard_mst needs k >= 2")
        eps = 1.0 / (200.0 * alpha)
        shape = _cluster_shape(n, d, rng)
        xs = [rng.integers(0, 2, size=d).astype(np.uint8)]
        for _ in range(k - 1):
            if z == 1:
                xs.append(xs[-1] ^ (rng.random(d) < eps).astype(np.uint8))
            else:
                xs.append(rng.integers(0, 2, size=d).astype(np.uint8))
        X = np.vstack([shape ^ x for x in xs])
        ups = _insertions(X, "X")
        meta = {"n": n, "d": d, "k": k, "alpha": alpha, "eps": eps, "Z": z}
        return GeneratedInstance(kind, ups, meta)

    if kind == "hard_emd":
        alpha = float(params.get("alpha", 4.0))
        z = int(params.get("z", rng.integers(0, 2)))
        eps = 1.0 / (200.0 * alpha)
        shape = _cluster_shape(n, d, rng)
        x = rng.integers(0, 2, size=d).astype(np.uint8)
        if z == 1:
            y = x ^ (rng.random(d) < eps).astype(np.uint8)
        else:
            y = rng.integers(0, 2, size=d).astype(np.uint8)
        ups = _insertions(shape ^ x, "A") + _insertions(shape ^ y, "B")
        return GeneratedInstance(
            kind, ups, {"n": n, "d": d, "alpha": alpha, "eps": eps, "Z": z}
        )

    raise ValueError(f"unknown instance kind {kind!r}")
