"""Randomized quadtree over {0,1}^d.

The tree has depth h = log2(2d). A node at depth j < h-1 carries a tuple of
2^j coordinates sampled uniformly from [d]; all nodes at one depth share the
same tuple (the per-level variant, which the source analyses treat as
equivalent to per-node sampling). Depth h-1 implicitly queries every
coordinate, so all points sharing a leaf are identical.

Nodes are never materialized. A node is identified by its depth and a 128-bit
keyed fingerprint of the point's bits restricted to every coordinate sampled
above it; two points share a node iff they agree on those coordinates (up to
fingerprint collision, which tests assert absent).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .hashing import U64, bucket, combine, extend

__all__ = ["QuadtreeSpec"]

_LEVEL_SALT = 0x51AD_7EE5
_FP_SALT_A = 0xF1A9_0001
_FP_SALT_B = 0xF1A9_0002


class QuadtreeSpec:
    """Sampled coordinate tuples for one random quadtree (immutable)."""

    def __init__(self, d: int, seed: int):
        if d <= 0 or (d & (d - 1)) != 0:
            raise ValueError(f"dimension must be a power of two, got {d}")
        self.d = d
        self.h = (2 * d).bit_length() - 1  # log2(2d)
        self.seed = seed
        # levels[j] holds the 2^j coordinates queried by depth-j nodes,
        # j = 0 .. h-2; the depth-(h-1) label (1..d) is implicit. Index k of
        # depth j is bucket(combine(seed, salt, j, k), d), every (depth,
        # index) pair hashed in one combine, in depth order.
        depth = np.repeat(np.arange(self.h - 1), 1 << np.arange(self.h - 1))  # d - 1 pairs
        index = np.arange(len(depth)) - (1 << depth) + 1
        all_coords = bucket(combine(seed, _LEVEL_SALT, depth, index), d)
        self.levels: List[np.ndarray] = [
            all_coords[(1 << j) - 1:(2 << j) - 1] for j in range(self.h - 1)
        ]
        # prefix of coordinates determining the node at each depth
        self._coords_at = [all_coords[: (1 << i) - 1] for i in range(self.h)]
        self._coords_at.append(np.concatenate([all_coords, np.arange(d)]))
        # the two fingerprint keys, combine(seed, salt) of each salt, in one call
        self._key_a, self._key_b = combine(seed, np.array([_FP_SALT_A, _FP_SALT_B], U64)).tolist()

    def node_fingerprints(self, X: np.ndarray, depth: int) -> np.ndarray:
        """Fingerprints of the depth-`depth` nodes of the rows of X.

        X is a (n, d) 0/1 matrix; returns a (n, 2) uint64 array (128 bits per
        point). Points with equal rows always get equal fingerprints.
        """
        if not 0 <= depth <= self.h:
            raise ValueError(f"depth must be in [0, {self.h}], got {depth}")
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError("X must be a (n, d) bit matrix")
        sub = X[:, self._coords_at[depth]]
        words = (
            np.packbits(sub, axis=1).view(np.uint8).astype(np.uint64)
            if sub.shape[1]
            else np.zeros((X.shape[0], 1), dtype=np.uint64)
        )
        # one keyed hash chain per half, over the words of each row
        fa, fb = (extend(U64(combine(key, depth)[()]) ^ U64(words.shape[1]), *words.T)
                  for key in (self._key_a, self._key_b))
        return np.stack([fa, fb], axis=1)

    def node_path(self, X: np.ndarray) -> np.ndarray:
        """(n, h+1, 2) uint64 array of fingerprints along each root-to-leaf path."""
        return np.stack(
            [self.node_fingerprints(X, i) for i in range(self.h + 1)], axis=1
        )

