"""Exact offline quantities on a fixed quadtree, and the exact EMD/MST oracles.

Everything here sees the full input (no streaming):
- `LevelDecomposition` groups the distinct points of A u B (or of one set)
  by quadtree node. Its `level_table` is the one home of the exact
  per-level quantities: Delta_i, E_S[p], I_i, |L_i|, mu_i and the EMD and
  MST tree-value terms. The tree values of EMD and MST are the sums of
  `tree_terms`, the closed-form tree columns, which never build the
  pairwise matrix.
- `exact_emd` and `exact_mst` are the brute-force optima behind `--oracle`.

Average inter-node distances are computed in closed form per coordinate from
bit-count accumulators: for uniform c ~ C_u, c' ~ C_v,
E||c - c'||_1 = sum_k [p_k(u)(1 - p_k(v)) + p_k(v)(1 - p_k(u))]
with p_k the fraction of points in the node whose bit k is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .emd_sketch import log2n
from .points import PointMultiset, hamming_matrix, points_to_matrix, values_to_matrix
from .quadtree import QuadtreeSpec

__all__ = ["LevelDecomposition", "LevelTable", "expected_split_probability", "exact_emd",
           "exact_mst"]

EMD_ORACLE_CAP = 512
MST_ORACLE_CAP = 2048


def _disagree(dists: np.ndarray, rate: float) -> np.ndarray:
    """Pr_S[chi_S(x) != chi_S(y)] at ||x - y||_1 = D, S keeping each coordinate
    with probability rate: (1 - (1 - 2 rate)^D) / 2."""
    return (1.0 - (1.0 - 2.0 * rate) ** dists) / 2.0


def expected_split_probability(dists: np.ndarray, weights: np.ndarray, rate: float) -> float:
    """E_S[p] over weighted point pairs at Hamming distances dists."""
    return float((_disagree(dists, rate) * weights).sum() / weights.sum())


@dataclass
class LevelTable:
    """Exact per-level quantities; entry i - 1 of each array is level i."""

    delta: np.ndarray  # Delta_i = sum_v ||A_v| - |B_v||
    esp: np.ndarray  # E_S[p_{pi(v), v, S}], v weighted by its discrepancy (0 if Delta_i = 0)
    I: np.ndarray  # I_i = (2 Delta_i / alpha_i) E_S[p], alpha_i set by n = |A|
    ell: np.ndarray  # |L_i|, the non-empty nodes
    # mu_i = E_{v ~ L_i} ||r_v - c_pi(v)||_1, r_v uniform over the distinct
    # points of X_v, and c_pi(v) a uniform point of X_v' for a uniform child
    # v' of pi(v)
    mu: np.ndarray
    tree_emd: np.ndarray  # sum_v ||A_v| - |B_v|| avg_{pi(v), v}
    tree_mst: np.ndarray  # sum_v avg_{pi(v), v} where |L_i| > 1, else 0


class LevelDecomposition:
    """Per-depth grouping of the distinct points of A u B by quadtree node.

    Row r of X is a distinct point (rows sorted by packed value) with
    multiplicity wa[r] in A and wb[r] in B; B is empty when one set X is
    decomposed. For each depth i it stores each row's node (group) index and,
    per non-empty node: the two weight totals |A_v| and |B_v|, the weighted
    bit-count vector of C_v = A_v u B_v, and the index of the parent group at
    depth i-1. Children partition parents by construction.
    """

    def __init__(self, tree: QuadtreeSpec, A: PointMultiset, B: Optional[PointMultiset] = None):
        ca, cb = dict(A.items()), dict(B.items()) if B is not None else {}
        pts = sorted(ca.keys() | cb.keys(), key=lambda p: p.value)
        self.tree = tree
        self.X = values_to_matrix([p.value for p in pts], tree.d)
        self.wa = np.array([ca.get(p, 0) for p in pts], dtype=np.int64)
        self.wb = np.array([cb.get(p, 0) for p in pts], dtype=np.int64)
        self.h = tree.h
        path = tree.node_path(self.X)
        wc = (self.wa + self.wb).astype(np.float64)

        self.group_of: List[np.ndarray] = []  # depth -> group index per row
        self.sum_a: List[np.ndarray] = []
        self.sum_b: List[np.ndarray] = []
        self.bitsum: List[np.ndarray] = []  # depth -> (g, d) weighted bit counts
        self.parent: List[np.ndarray] = []  # depth -> parent group index (depth-1)
        for i in range(self.h + 1):
            fps, inv = np.unique(path[:, i, :], axis=0, return_inverse=True)
            inv, g = inv.reshape(-1), fps.shape[0]
            bs = np.zeros((g, tree.d))
            np.add.at(bs, inv, self.X * wc[:, None])
            par = np.zeros(g, dtype=np.int64)
            par[inv] = self.group_of[i - 1] if i else 0
            self.group_of.append(inv)
            self.sum_a.append(np.bincount(inv, self.wa, g))
            self.sum_b.append(np.bincount(inv, self.wb, g))
            self.bitsum.append(bs)
            self.parent.append(par)

    def node_count(self, i: int) -> int:
        return len(self.parent[i])

    def bit_fraction(self, i: int) -> np.ndarray:
        """(g, d) matrix of per-coordinate set-bit fractions of C_v."""
        tot = (self.sum_a[i] + self.sum_b[i])[:, None]
        return self.bitsum[i] / np.maximum(tot, 1)

    def edge_avgs(self, i: int) -> np.ndarray:
        """avg_{pi(v), v} for every non-empty node v at depth i >= 1."""
        pu = self.bit_fraction(i - 1)[self.parent[i]]
        pv = self.bit_fraction(i)
        return (pu * (1.0 - pv) + pv * (1.0 - pu)).sum(axis=1)

    def tree_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """The EMD and the MST tree-value terms of levels 1..h, in closed form
        from the bit counts: O(n d) per level, no pairwise matrix."""
        emd, mst = np.zeros(self.h), np.zeros(self.h)
        for i in range(1, self.h + 1):
            avg = self.edge_avgs(i)
            emd[i - 1] = (np.abs(self.sum_a[i] - self.sum_b[i]) * avg).sum()
            mst[i - 1] = avg.sum() if self.node_count(i) > 1 else 0.0
        return emd, mst

    def level_table(self) -> LevelTable:
        """The exact per-level quantities of levels 1..h.

        The pairwise columns read one Hamming matrix D over the rows. At
        level i, D is masked to the pairs under one depth-(i-1) node, so that
        a column sum over it runs over the population of a row's parent, and
        a node's pair sums are grouped sums of its rows:
        - E_S[p] of node v is sum_{r in pi(v), s in v} w_r w_s rho(D_rs) /
          (|C_pi(v)| |C_v|), with w the multiplicities in A u B and rho the
          closed form (`_disagree`) at rate alpha_i = 2^i / (d log^2 |A|);
        - |L_i| mu_i is sum_v (1 / k_pi(v)) sum_{v' sibling of v} of the mean
          of D over X_v x X_v', each distinct point weighted 1, with k_u the
          number of children of u.
        """
        h, d, n = self.h, self.tree.d, int(self.wa.sum())
        D = hamming_matrix(self.X, self.X)
        wc = (self.wa + self.wb).astype(np.float64)
        ell = np.array([self.node_count(i) for i in range(1, h + 1)])
        delta, esp, I, mu = (np.zeros(h) for _ in range(4))
        for i in range(1, h + 1):
            g, up, par = self.group_of[i], self.group_of[i - 1], self.parent[i]
            Dm = np.where(up[:, None] == up[None, :], D, 0)
            alpha = min(1.0, 2.0**i / (d * log2n(n) ** 2))
            tot = self.sum_a[i] + self.sum_b[i]
            tot_up = self.sum_a[i - 1] + self.sum_b[i - 1]
            pair = np.bincount(g, wc * (wc @ _disagree(np.arange(d + 1), alpha)[Dm]),
                               minlength=len(tot))
            disc = np.abs(self.sum_a[i] - self.sum_b[i])
            total = float((disc * pair / (tot_up[par] * tot)).sum())
            delta[i - 1] = disc.sum()
            esp[i - 1] = total / delta[i - 1] if delta[i - 1] else 0.0
            I[i - 1] = (2.0 / alpha) * total
            # unit weight per distinct point: 1 / |X_v| for each row of v
            w = 1.0 / np.bincount(g)[g]
            kids = np.bincount(par)[up]
            mu[i - 1] = (w / kids) @ (Dm @ w) / max(ell[i - 1], 1)
        return LevelTable(delta, esp, I, ell, mu, *self.tree_terms())


def exact_emd(A: PointMultiset, B: PointMultiset) -> int:
    """Minimum-cost perfect matching cost (optimal assignment, exact). scipy
    is imported here: only the oracle loads it."""
    from scipy.optimize import linear_sum_assignment

    n = len(A)
    if n != len(B):
        raise ValueError(f"|A| = {n} != |B| = {len(B)}")
    if n > EMD_ORACLE_CAP:
        raise ValueError(f"exact_emd capped at n = {EMD_ORACLE_CAP}, got {n}")
    if n == 0:
        return 0
    ma, ca = points_to_matrix(A)
    mb, cb = points_to_matrix(B)
    cost = hamming_matrix(ma, mb)
    full = np.repeat(np.repeat(cost, ca, axis=0), cb, axis=1)
    rows, cols = linear_sum_assignment(full)
    return int(full[rows, cols].sum())


def exact_mst(X: PointMultiset) -> int:
    """Minimum spanning tree cost over the multiset (Prim, dense Hamming graph).

    Duplicate points connect at cost zero, so the computation runs on the
    distinct support.
    """
    n = len(X)
    if n > MST_ORACLE_CAP:
        raise ValueError(f"exact_mst capped at n = {MST_ORACLE_CAP}, got {n}")
    if n == 0:
        raise ValueError("X must be non-empty")
    mx, _ = points_to_matrix(X)
    k = mx.shape[0]
    if k <= 1:
        return 0
    packed = np.packbits(mx, axis=1)
    from .points import _POPCOUNT

    def dist_to(j: int) -> np.ndarray:
        return _POPCOUNT[packed ^ packed[j]].sum(axis=1).astype(np.int64)

    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    best = dist_to(0)
    total = 0
    for _ in range(k - 1):
        masked = np.where(in_tree, np.iinfo(np.int64).max, best)
        j = int(np.argmin(masked))
        total += int(masked[j])
        in_tree[j] = True
        best = np.minimum(best, dist_to(j))
    return total
