"""Offline quantities on a fixed quadtree, plus exact EMD/MST oracles.

Everything here sees the full input (no streaming): depth-greedy matchings
and spanning trees, the tree values that sandwich EMD/MST, inspector
payments, and brute-force optima used as test oracles.

Average inter-node distances are computed in closed form per coordinate from
bit-count accumulators: for uniform c ~ C_u, c' ~ C_v,
E||c - c'||_1 = sum_k [p_k(u)(1 - p_k(v)) + p_k(v)(1 - p_k(u))]
with p_k the fraction of points in the node whose bit k is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .points import (
    HypercubePoint,
    PointMultiset,
    hamming_distance,
    hamming_matrix,
    points_to_matrix,
)
from .quadtree import QuadtreeSpec

__all__ = [
    "Matching",
    "SpanningTree",
    "LevelDecomposition",
    "depth_greedy_matching",
    "matching_cost",
    "value_emd",
    "depth_greedy_spanning_tree",
    "spanning_tree_cost",
    "value_mst",
    "inspector_payment",
    "total_inspector_payment",
    "exact_emd",
    "exact_mst",
]

EMD_ORACLE_CAP = 512
MST_ORACLE_CAP = 2048


@dataclass
class Matching:
    """Perfect matching between equal-size multisets, pairs with multiplicity."""

    pairs: List[Tuple[HypercubePoint, HypercubePoint, int]]


@dataclass
class SpanningTree:
    """Spanning tree over a multiset, edges with multiplicity."""

    edges: List[Tuple[HypercubePoint, HypercubePoint, int]]


class LevelDecomposition:
    """Per-depth grouping of a weighted point matrix by quadtree node.

    For each depth i it stores, per non-empty node: the member row indices,
    the two weight totals (e.g. |A_v| and |B_v|), the weighted bit-count
    vector of C_v = A_v u B_v, and the index of the parent group at depth
    i-1. Children partition parents by construction.
    """

    def __init__(self, tree: QuadtreeSpec, X: np.ndarray, wa: np.ndarray, wb: np.ndarray):
        self.tree = tree
        self.X = np.asarray(X, dtype=np.uint8)
        self.wa = np.asarray(wa, dtype=np.int64)
        self.wb = np.asarray(wb, dtype=np.int64)
        self.h = tree.h
        n = self.X.shape[0]
        path = tree.node_path(self.X) if n else np.zeros((0, self.h + 1, 2), np.uint64)
        wc = (self.wa + self.wb).astype(np.float64)

        self.group_of: List[np.ndarray] = []  # depth -> group index per row
        self.fp: List[np.ndarray] = []  # depth -> (g, 2) fingerprints
        self.sum_a: List[np.ndarray] = []
        self.sum_b: List[np.ndarray] = []
        self.bitsum: List[np.ndarray] = []  # depth -> (g, d) weighted bit counts
        self.parent: List[np.ndarray] = []  # depth -> parent group index (depth-1)
        for i in range(self.h + 1):
            fps, inv = (
                np.unique(path[:, i, :], axis=0, return_inverse=True)
                if n
                else (np.zeros((0, 2), np.uint64), np.zeros(0, np.int64))
            )
            inv = inv.reshape(-1)
            g = fps.shape[0]
            sa = np.zeros(g)
            sb = np.zeros(g)
            bs = np.zeros((g, tree.d))
            np.add.at(sa, inv, self.wa)
            np.add.at(sb, inv, self.wb)
            np.add.at(bs, inv, self.X * wc[:, None])
            self.group_of.append(inv)
            self.fp.append(fps)
            self.sum_a.append(sa)
            self.sum_b.append(sb)
            self.bitsum.append(bs)
            if i == 0:
                self.parent.append(np.zeros(g, dtype=np.int64))
            else:
                par = np.zeros(g, dtype=np.int64)
                par[inv] = self.group_of[i - 1]
                self.parent.append(par)

    def node_count(self, i: int) -> int:
        return self.fp[i].shape[0]

    def bit_fraction(self, i: int) -> np.ndarray:
        """(g, d) matrix of per-coordinate set-bit fractions of C_v."""
        tot = (self.sum_a[i] + self.sum_b[i])[:, None]
        return self.bitsum[i] / np.maximum(tot, 1)

    def edge_avgs(self, i: int) -> np.ndarray:
        """avg_{pi(v), v} for every non-empty node v at depth i >= 1."""
        pu = self.bit_fraction(i - 1)[self.parent[i]]
        pv = self.bit_fraction(i)
        return (pu * (1.0 - pv) + pv * (1.0 - pu)).sum(axis=1)


def _decompose_pair(
    tree: QuadtreeSpec, A: PointMultiset, B: PointMultiset
) -> LevelDecomposition:
    ma, ca = points_to_matrix(A)
    mb, cb = points_to_matrix(B)
    X = np.vstack([ma, mb])
    wa = np.concatenate([ca, np.zeros(len(cb), np.int64)])
    wb = np.concatenate([np.zeros(len(ca), np.int64), cb])
    return LevelDecomposition(tree, X, wa, wb)


def _decompose_single(tree: QuadtreeSpec, X: PointMultiset) -> LevelDecomposition:
    mx, cx = points_to_matrix(X)
    return LevelDecomposition(tree, mx, cx, np.zeros(len(cx), np.int64))


def value_emd(tree: QuadtreeSpec, A: PointMultiset, B: PointMultiset) -> float:
    """Value of (A, B) in the tree: sum over edges of discrepancy x avg."""
    if len(A) != len(B):
        raise ValueError(f"|A| = {len(A)} != |B| = {len(B)}")
    dec = _decompose_pair(tree, A, B)
    total = 0.0
    for i in range(1, tree.h + 1):
        disc = np.abs(dec.sum_a[i] - dec.sum_b[i])
        if disc.any():
            total += float((disc * dec.edge_avgs(i)).sum())
    return total


def value_mst(tree: QuadtreeSpec, X: PointMultiset) -> float:
    """Value of X in the tree: levels with >1 non-empty node contribute the
    sum over nodes of the parent-child average distance."""
    if len(X) < 1:
        raise ValueError("X must be non-empty")
    dec = _decompose_single(tree, X)
    total = 0.0
    for i in range(1, tree.h + 1):
        if dec.node_count(i) > 1:
            total += float(dec.edge_avgs(i).sum())
    return total


def depth_greedy_matching(
    tree: QuadtreeSpec, A: PointMultiset, B: PointMultiset
) -> Matching:
    """A matching maximizing the total LCA depth, built bottom-up.

    Within every node, surviving points of the two sides are paired off; the
    number of pairs matched strictly above any node v is then exactly
    ||A_v| - |B_v||. Determinism: children are merged in ascending
    fingerprint order, survivors keep (sorted point, input) order.
    """
    if len(A) != len(B):
        raise ValueError(f"|A| = {len(A)} != |B| = {len(B)}")
    dec = _decompose_pair(tree, A, B)
    X = dec.X
    n_rows = X.shape[0]
    pts = [HypercubePoint.from_bits(X[r]) for r in range(n_rows)]

    # surviving multiplicity per row, updated as we match upward
    live_a = dec.wa.copy()
    live_b = dec.wb.copy()
    pairs: List[Tuple[HypercubePoint, HypercubePoint, int]] = []

    for i in range(tree.h, -1, -1):
        g = dec.node_count(i)
        if g == 0:
            break
        # rows grouped by node, node order = ascending fingerprint (np.unique
        # sorts), rows inside a node in matrix order
        order = np.argsort(dec.group_of[i], kind="stable")
        bounds = np.searchsorted(dec.group_of[i][order], np.arange(g + 1))
        for gi in range(g):
            rows = order[bounds[gi] : bounds[gi + 1]]
            ra = [r for r in rows if live_a[r] > 0]
            rb = [r for r in rows if live_b[r] > 0]
            ia = ib = 0
            while ia < len(ra) and ib < len(rb):
                m = min(live_a[ra[ia]], live_b[rb[ib]])
                pairs.append((pts[ra[ia]], pts[rb[ib]], int(m)))
                live_a[ra[ia]] -= m
                live_b[rb[ib]] -= m
                if live_a[ra[ia]] == 0:
                    ia += 1
                if live_b[rb[ib]] == 0:
                    ib += 1
        if not live_a.any() and not live_b.any():
            break
    assert not live_a.any() and not live_b.any()
    return Matching(pairs)


def matching_cost(m: Matching) -> int:
    return sum(c * hamming_distance(a, b) for a, b, c in m.pairs)


def depth_greedy_spanning_tree(tree: QuadtreeSpec, X: PointMultiset) -> SpanningTree:
    """Spanning tree from a DFS walk of the quadtree (children in ascending
    fingerprint order): consecutive points in the walk are joined."""
    if len(X) < 1:
        raise ValueError("X must be non-empty")
    mx, cx = points_to_matrix(X)
    path = tree.node_path(mx)
    # DFS visit order = lexicographic order of the fingerprint path
    keys = [
        tuple(int(path[r, i, w]) for i in range(1, tree.h + 1) for w in (0, 1))
        for r in range(mx.shape[0])
    ]
    order = sorted(range(mx.shape[0]), key=lambda r: (keys[r], r))
    pts = [HypercubePoint.from_bits(mx[r]) for r in order]
    counts = [int(cx[r]) for r in order]
    edges: List[Tuple[HypercubePoint, HypercubePoint, int]] = []
    for j, (p, c) in enumerate(zip(pts, counts)):
        if c > 1:
            edges.append((p, p, c - 1))
        if j + 1 < len(pts):
            edges.append((p, pts[j + 1], 1))
    return SpanningTree(edges)


def spanning_tree_cost(t: SpanningTree) -> int:
    return sum(c * hamming_distance(a, b) for a, b, c in t.edges)


def _payment_with_dec(
    dec: LevelDecomposition, tree: QuadtreeSpec, a: HypercubePoint, b: HypercubePoint
) -> float:
    if a == b:
        return 0.0
    pts = np.stack([a.bits(), b.bits()])
    path = tree.node_path(pts)

    # locate the node groups of a and b at each depth; both must be in C's
    # support for the averages to be over their own populations
    def avg_to_node(point_bits: np.ndarray, fp_pair: np.ndarray, i: int) -> float:
        fps = dec.fp[i]
        g = np.nonzero((fps[:, 0] == fp_pair[0]) & (fps[:, 1] == fp_pair[1]))[0]
        if len(g) == 0:
            raise ValueError("point does not belong to the population C")
        pk = dec.bit_fraction(i)[g[0]]
        x = point_bits.astype(np.float64)
        return float((x * (1.0 - pk) + (1.0 - x) * pk).sum())

    total = 0.0
    for i in range(1, tree.h + 1):
        if not np.array_equal(path[0, i], path[1, i]):
            total += avg_to_node(pts[0], path[0, i - 1], i - 1)
            total += avg_to_node(pts[1], path[1, i - 1], i - 1)
    return total


def inspector_payment(
    tree: QuadtreeSpec, a: HypercubePoint, b: HypercubePoint, C: PointMultiset
) -> float:
    """Total charge of the pair (a, b) against the population C: at every
    depth where their nodes differ, pay the average distances to their
    depth-(i-1) node populations."""
    return _payment_with_dec(_decompose_single(tree, C), tree, a, b)


def total_inspector_payment(
    tree: QuadtreeSpec, m: Matching, C: PointMultiset
) -> float:
    """Sum of inspector payments over the pairs of a matching (with
    multiplicity), decomposing C only once."""
    dec = _decompose_single(tree, C)
    return sum(c * _payment_with_dec(dec, tree, a, b) for a, b, c in m.pairs)


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
