import numpy as np
import pytest

from geosketch import HypercubePoint, PointMultiset, QuadtreeSpec, exact_emd, exact_mst
from geosketch.emd_sketch import log2n
from geosketch.offline import LevelDecomposition, expected_split_probability
from geosketch.points import points_to_matrix, hamming_matrix

from conftest import random_multiset, random_pair
from reference import (
    cost, depth_greedy_matching, depth_greedy_spanning_tree, hamming_distance, inspector_payment,
    lca_depth,
)


def pt(bits):
    return HypercubePoint.from_bits(bits)


def pm(*points):
    return PointMultiset.from_points(points)


def value_emd(t, A, B):
    """Value_T(A, B), the sum of the level table's EMD tree terms."""
    return LevelDecomposition(t, A, B).tree_terms()[0].sum()


def value_mst(t, X):
    """Value_T(X), the sum of the level table's MST tree terms."""
    return LevelDecomposition(t, X).tree_terms()[1].sum()


# -- exact oracles ------------------------------------------------------------


def test_exact_emd_trivial():
    A = pm(pt([0, 0]), pt([1, 1]))
    assert exact_emd(A, A) == 0
    assert exact_emd(pm(pt([0, 0])), pm(pt([1, 1]))) == 2


def test_exact_emd_enumerated():
    # both matchings of {00,11} vs {01,10} cost 2
    A = pm(pt([0, 0]), pt([1, 1]))
    B = pm(pt([0, 1]), pt([1, 0]))
    assert exact_emd(A, B) == 2


def test_exact_emd_brute_force_agreement():
    """Oracle vs enumeration of all matchings on small instances."""
    from itertools import permutations

    for seed in range(12):
        A, B = random_pair(5, 6, seed)
        ma, ca = points_to_matrix(A)
        mb, cb = points_to_matrix(B)
        fa = np.repeat(ma, ca, axis=0)
        fb = np.repeat(mb, cb, axis=0)
        cost = hamming_matrix(fa, fb)
        best = min(
            sum(cost[i, p[i]] for i in range(len(fa))) for p in permutations(range(len(fb)))
        )
        assert exact_emd(A, B) == best


def test_exact_emd_errors():
    with pytest.raises(ValueError):
        exact_emd(pm(pt([0, 0])), pm(pt([0, 0]), pt([1, 1])))


def test_exact_mst_cases():
    assert exact_mst(pm(pt([0, 0, 0]))) == 0
    assert exact_mst(pm(pt([0, 0, 0]), pt([0, 0, 1]), pt([0, 1, 1]))) == 2
    dup = PointMultiset(3)
    dup.add(pt([1, 0, 1]), 5)
    assert exact_mst(dup) == 0


def test_exact_mst_brute_force_agreement():
    """Prim vs enumeration over spanning trees (Cayley-small instances)."""
    from itertools import combinations

    for seed in range(8):
        X = random_multiset(5, 6, seed + 50)
        mx, _ = points_to_matrix(X)
        k = mx.shape[0]
        dmat = hamming_matrix(mx, mx)
        edges = list(combinations(range(k), 2))
        best = None
        # enumerate all spanning trees via edge subsets of size k-1
        for sub in combinations(edges, k - 1):
            parent = list(range(k))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            ok = True
            for a, b in sub:
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if ok:
                c = sum(dmat[a, b] for a, b in sub)
                best = c if best is None else min(best, c)
        assert exact_mst(X) == best


# -- depth-greedy matching ----------------------------------------------------


def test_matching_identical_sets_is_free():
    A = random_multiset(8, 8, 3)
    t = QuadtreeSpec(8, seed=1)
    m = depth_greedy_matching(t, A, A)
    assert cost(m) == 0


def test_matching_forced_pair():
    A, B = pm(pt([0] * 4)), pm(pt([1] * 4))
    t = QuadtreeSpec(4, seed=2)
    m = depth_greedy_matching(t, A, B)
    assert len(m) == 1 and cost(m) == 4


def test_matching_size_mismatch():
    t = QuadtreeSpec(4, seed=2)
    with pytest.raises(ValueError):
        depth_greedy_matching(t, pm(pt([0] * 4)), pm(pt([1] * 4), pt([0] * 4)))


def test_matching_is_depth_greedy_class_member():
    """For every node v, pairs matched strictly above v number exactly
    ||A_v| - |B_v||."""
    for seed in range(10):
        A, B = random_pair(8, 8, seed)
        t = QuadtreeSpec(8, seed=seed + 100)
        m = depth_greedy_matching(t, A, B)
        # count pairs whose LCA depth < i but both endpoints in the node at
        # depth i, for every node: compare against the discrepancy via a
        # per-depth census
        dec = LevelDecomposition(t, A, B)
        for i in range(1, t.h + 1):
            disc = np.abs(dec.sum_a[i] - dec.sum_b[i])
            fps = np.unique(t.node_fingerprints(dec.X, i), axis=0)
            crossing = np.zeros(len(fps))
            for a, b, c in m:
                fa = t.node_fingerprints(a.bits()[None, :], i)[0]
                fb = t.node_fingerprints(b.bits()[None, :], i)[0]
                if not np.array_equal(fa, fb):
                    for fp, arr in ((fa, crossing), (fb, crossing)):
                        g = np.nonzero((fps[:, 0] == fp[0]) & (fps[:, 1] == fp[1]))[0]
                        arr[g[0]] += c
            assert np.array_equal(crossing, disc), f"depth {i}"


def test_matching_cost_bounded_by_value():
    """Cost(M) <= Value_T(A,B) for the produced matching, many trees."""
    A, B = random_pair(8, 8, 7)
    for seed in range(500):
        t = QuadtreeSpec(8, seed=seed)
        assert cost(depth_greedy_matching(t, A, B)) <= value_emd(t, A, B) + 1e-9


# -- values -------------------------------------------------------------------


def test_value_emd_zero_for_equal_sets():
    A = random_multiset(10, 16, 9)
    t = QuadtreeSpec(16, seed=4)
    assert value_emd(t, A, A) == 0.0


def test_value_emd_singletons_first_principles():
    """A = {0000}, B = {1111}: enumerate the definition directly. The only
    level with both a nonzero discrepancy and a mixed parent population is
    the split level (below it, parent and child populations are the same
    singleton, so the average distance is zero): Value = 2 * avg = 4."""
    d = 4
    A, B = pm(pt([0] * d)), pm(pt([1] * d))
    t = QuadtreeSpec(d, seed=11)
    x, y = pt([0] * d), pt([1] * d)
    expected = 0.0
    for i in range(1, t.h + 1):
        for v_holder in (x, y):
            # population of the node of v_holder at depth i and its parent
            child = [p for p in (x, y) if lca_depth(t, p, v_holder) >= i]
            parent = [p for p in (x, y) if lca_depth(t, p, v_holder) >= i - 1]
            disc = abs(
                sum(1 for p in child if p == x) - sum(1 for p in child if p == y)
            )
            if disc == 0:
                continue
            avg = np.mean(
                [
                    np.count_nonzero(c.bits() != cc.bits())
                    for c in parent
                    for cc in child
                ]
            )
            expected += disc * avg
    # no double counting: while x and y share a node its discrepancy is 0,
    # and below the split each holder's node is visited exactly once
    assert value_emd(t, A, B) == pytest.approx(expected)
    assert expected == pytest.approx(4.0)
    assert exact_emd(A, B) <= expected


def test_value_emd_sandwich_with_oracle():
    for seed in range(60):
        n = int(np.random.default_rng(seed).integers(2, 16))
        A, B = random_pair(n, 16, seed)
        t = QuadtreeSpec(16, seed=seed + 999)
        assert exact_emd(A, B) <= value_emd(t, A, B) + 1e-9


def test_avg_formula_matches_sampling(rng):
    """Closed-form per-coordinate avg equals Monte-Carlo pair sampling."""
    A, B = random_pair(12, 8, 77)
    t = QuadtreeSpec(8, seed=13)
    dec = LevelDecomposition(t, A, B)
    i = 2
    avgs = dec.edge_avgs(i)
    X = dec.X
    w = (dec.wa + dec.wb).astype(float)
    for g in range(dec.node_count(i)):
        rows_v = np.nonzero(dec.group_of[i] == g)[0]
        rows_u = np.nonzero(dec.group_of[i - 1] == dec.parent[i][g])[0]
        # exact pairwise expectation
        dmat = hamming_matrix(X[rows_u], X[rows_v]).astype(float)
        wu = w[rows_u] / w[rows_u].sum()
        wv = w[rows_v] / w[rows_v].sum()
        exact = float(wu @ dmat @ wv)
        assert avgs[g] == pytest.approx(exact, abs=1e-9)


# -- spanning trees -----------------------------------------------------------


def test_spanning_tree_trivial_cases():
    t = QuadtreeSpec(8, seed=21)
    single = pm(pt([0] * 8))
    assert depth_greedy_spanning_tree(t, single) == []
    dup = PointMultiset(8)
    dup.add(pt([1] * 8), 4)
    g = depth_greedy_spanning_tree(t, dup)
    assert cost(g) == 0


def test_spanning_tree_cost_vs_value():
    X = random_multiset(8, 8, 31)
    for seed in range(500):
        t = QuadtreeSpec(8, seed=seed)
        g = depth_greedy_spanning_tree(t, X)
        assert cost(g) / 2 <= value_mst(t, X) + 1e-9


def test_spanning_tree_is_dfs_order():
    """Consecutive points share the deepest possible prefix: the walk order
    sorts by fingerprint path, so LCA depths along the walk dominate any
    crossing pair."""
    X = random_multiset(12, 16, 41)
    t = QuadtreeSpec(16, seed=77)
    g = depth_greedy_spanning_tree(t, X)
    pts = [g[0][0]] + [b for _, b, _ in g]
    # every prefix of the walk stays connected inside each node it visits:
    # once the walk leaves a node it never returns
    seen_at = {}
    for i in range(1, t.h + 1):
        visited = []
        for p in pts:
            fp = t.node_fingerprints(p.bits()[None, :], i)[0]
            key = (int(fp[0]), int(fp[1]))
            if not visited or visited[-1] != key:
                visited.append(key)
        assert len(visited) == len(set(visited)), f"depth {i} revisited a node"


def test_value_mst_trivial():
    t = QuadtreeSpec(8, seed=51)
    single = pm(pt([0] * 8))
    assert value_mst(t, single) == 0.0
    dup = PointMultiset(8)
    dup.add(pt([0] * 8), 2)
    assert value_mst(t, dup) == 0.0


def test_value_mst_sandwich():
    for seed in range(30):
        X = random_multiset(16, 16, seed)
        mst = exact_mst(X)
        t = QuadtreeSpec(16, seed=seed + 500)
        assert mst / 2 <= value_mst(t, X) + 1e-9


# -- inspector payments ---------------------------------------------------------


def test_payment_zero_for_equal_points():
    t = QuadtreeSpec(8, seed=61)
    C = random_multiset(6, 8, 3)
    p = next(iter(C.support()))
    assert inspector_payment(t, [(p, p, 1)], C) == 0.0


def test_payment_two_point_population_hand_check():
    """C = {a, b}: at depths above the split each avg term is 0 (node holds
    only the point itself... population averages include both points); below
    the split terms vanish; hand-derive for one fixed tree."""
    d = 8
    a, b = pt([0] * d), pt([1] * d)
    t = QuadtreeSpec(d, seed=71)
    C = pm(a, b)
    split = lca_depth(t, a, b)
    # for i > split the nodes differ: avg_{a,i-1} is the mean distance from a
    # to the population of its depth-(i-1) node: that population is {a, b}
    # while i-1 <= split (distance mean d/2), and {a} afterwards (0).
    expected = 0.0
    for i in range(1, t.h + 1):
        if i > split:
            term = d / 2 if (i - 1) <= split else 0.0
            expected += 2 * term
    assert inspector_payment(t, [(a, b, 1)], C) == pytest.approx(expected)


def test_value_bounded_by_payments():
    """Value_T(A,B) <= 2 sum of payments over the exact optimal matching
    (and in fact over any matching; we use the greedy one)."""
    for seed in range(15):
        A, B = random_pair(8, 8, seed + 11)
        C = PointMultiset(8)
        for p, c in A.items():
            C.add(p, c)
        for p, c in B.items():
            C.add(p, c)
        t = QuadtreeSpec(8, seed=seed + 300)
        m = depth_greedy_matching(t, A, B)
        total = inspector_payment(t, m, C)
        assert value_emd(t, A, B) <= 2 * total + 1e-9


# -- the level table ------------------------------------------------------------


def _enumerated_levels(t, A, B):
    """Rows (Delta_i, E_S[p], I_i, |L_i|, mu_i, EMD tree term, MST tree term)
    of levels 1..h, by explicit enumeration of the nodes and sibling pairs,
    the definitions the level table computes in grouped sums. Points are the
    distinct points of A u B, weighted by multiplicity in E_S[p] and the
    tree terms and by one in mu_i."""
    wa, wb = dict(A.items()), dict(B.items())
    pts = wa.keys() | wb.keys()
    w = {p: wa.get(p, 0) + wb.get(p, 0) for p in pts}

    def node(p, i):
        return (i, *t.node_fingerprints(p.bits()[None, :], i)[0])

    def dists(us, vs):
        return np.array([[hamming_distance(u, v) for v in vs] for u in us], dtype=float)

    rows = []
    for i in range(1, t.h + 1):
        alpha = min(1.0, 2.0**i / (t.d * log2n(len(A)) ** 2))
        members, children = {}, {}
        for p in pts:
            members.setdefault(node(p, i - 1), []).append(p)
            members.setdefault(node(p, i), []).append(p)
            children.setdefault(node(p, i - 1), set()).add(node(p, i))
        delta = total = tree_emd = tree_mst = mu = 0.0
        nodes = [v for kids in children.values() for v in kids]
        for u, kids in children.items():
            for v in kids:
                cu, cv = members[u], members[v]
                wts = np.outer([w[p] for p in cu], [w[p] for p in cv])
                disc = abs(sum(wa.get(p, 0) for p in cv) - sum(wb.get(p, 0) for p in cv))
                avg = float((dists(cu, cv) * wts).sum() / wts.sum())
                delta += disc
                if disc:
                    total += disc * expected_split_probability(dists(cu, cv), wts, alpha)
                tree_emd += disc * avg
                tree_mst += avg if len(nodes) > 1 else 0.0
                mu += sum(dists(cv, members[s]).mean() for s in kids) / len(kids)
        rows.append((delta, total / delta if delta else 0.0, 2.0 / alpha * total,
                     len(nodes), mu / len(nodes), tree_emd, tree_mst))
    return np.array(rows)


def _table_instances():
    """Random pairs whose points repeat and are shared by A and B, pairs
    that differ in one point by one bit (Delta_i = 0 above their split),
    single sets (B empty, as `value_mst` decomposes X) and single points."""
    rng = np.random.default_rng(2111)
    for s in range(30):
        d = (8, 16)[s % 2]
        support = [HypercubePoint.from_bits(rng.integers(0, 2, d)) for _ in range(6)]
        A, B = PointMultiset(d), PointMultiset(d)
        for _ in range(12):
            A.add(support[rng.integers(6)])
            B.add(support[rng.integers(6)])
        if s % 3 == 0:
            B = PointMultiset(d)
            for p, c in A.items():
                B.add(p, c)
            x = next(iter(A.support()))
            flipped = x.bits()
            flipped[rng.integers(d)] ^= 1
            B.add(x, -1)
            B.add(HypercubePoint.from_bits(flipped))
        yield QuadtreeSpec(d, seed=s), A, B if s % 5 else PointMultiset(d)
    x = HypercubePoint.from_bits(rng.integers(0, 2, 8))
    for B in (pm(x), pm(HypercubePoint.from_bits(1 - x.bits())), PointMultiset(8)):
        yield QuadtreeSpec(8, seed=99), pm(x), B


def test_level_table_matches_enumeration():
    """Every column of the level table equals the per-node enumeration of
    its definition, at relative error 1e-12, on instances that cover
    points in both A and B, multiplicities above 1, levels with Delta_i = 0
    and with Delta_i > 0, one set alone and a single point."""
    seen = set()
    for t, A, B in _table_instances():
        want = _enumerated_levels(t, A, B)
        got = LevelDecomposition(t, A, B).level_table()
        cols = np.column_stack([got.delta, got.esp, got.I, got.ell, got.mu,
                                got.tree_emd, got.tree_mst])
        np.testing.assert_allclose(cols, want, rtol=1e-12, atol=0)
        seen |= {"shared" if A.support() & B.support() else None,
                 "repeated" if max(c for _, c in A.items()) > 1 else None,
                 "alone" if len(B) == 0 else None,
                 "single" if len(A) == 1 else None}
        seen |= {"zero delta" if dl == 0 else "positive delta" for dl in got.delta}
    assert {"shared", "repeated", "alone", "single", "zero delta", "positive delta"} <= seen
