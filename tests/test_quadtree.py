import numpy as np
import pytest

from geosketch import HypercubePoint, QuadtreeSpec
from geosketch.points import points_to_matrix

from conftest import random_multiset
from reference import lca_depth


def test_power_of_two_required():
    with pytest.raises(ValueError):
        QuadtreeSpec(6, seed=1)


def test_d2_shape():
    t = QuadtreeSpec(2, seed=0)
    assert t.h == 2
    assert len(t.levels) == 1 and len(t.levels[0]) == 1
    assert 0 <= t.levels[0][0] < 2


def test_determinism_and_serde():
    """A tree is a pure function of its (d, seed) pair, so that pair is all
    there is to store: rebuilding from it gives the same nodes."""
    t1 = QuadtreeSpec(16, seed=99)
    t2 = QuadtreeSpec(t1.d, seed=t1.seed)
    assert all(np.array_equal(a, b) for a, b in zip(t1.levels, t2.levels))
    X = np.stack([HypercubePoint(16, v).bits() for v in range(0, 2**16, 997)])
    assert np.array_equal(t1.node_path(X), t2.node_path(X))


def test_level_sizes():
    t = QuadtreeSpec(32, seed=5)
    assert [len(l) for l in t.levels] == [1, 2, 4, 8, 16]


def test_level0_uniform_chi_square():
    """Over many seeds the first sampled coordinate is uniform on [d]."""
    d = 8
    trials = 10_000
    counts = np.zeros(d)
    for s in range(trials):
        counts[QuadtreeSpec(d, seed=s).levels[0][0]] += 1
    tv = 0.5 * np.abs(counts / trials - 1.0 / d).sum()
    assert tv < 0.02, tv


def test_root_is_shared_and_leaves_separate():
    t = QuadtreeSpec(8, seed=3)
    X = np.stack([HypercubePoint(8, v).bits() for v in range(40)])
    roots = {tuple(fp) for fp in t.node_fingerprints(X, 0)}
    assert len(roots) == 1
    leaves = {tuple(fp) for fp in t.node_fingerprints(X, t.h)}
    assert len(leaves) == len(X)


def test_depth_out_of_range():
    t = QuadtreeSpec(4, seed=1)
    X = HypercubePoint(4, 0).bits()[None, :]
    with pytest.raises(ValueError):
        t.node_fingerprints(X, t.h + 1)
    with pytest.raises(ValueError):
        t.node_fingerprints(X, -1)


def test_hand_built_split_depth():
    """For d=4, if no sampled coordinate hits coordinate 3 (0-indexed) before
    the full-label depth, points differing only there separate at depth h."""
    d = 4
    x = HypercubePoint.from_bits([0, 0, 0, 0])
    y = HypercubePoint.from_bits([0, 0, 0, 1])
    for seed in range(200):
        t = QuadtreeSpec(d, seed)
        sampled = np.concatenate(t.levels)
        if 3 not in sampled:
            assert lca_depth(t, x, y) == t.h - 1
            path = t.node_path(np.stack([x.bits(), y.bits()]))
            for i in range(t.h):
                assert np.array_equal(path[0, i], path[1, i])
            assert not np.array_equal(path[0, t.h], path[1, t.h])
            return
    pytest.fail("no tree avoiding the last coordinate in 200 seeds")


def test_lca_depth_extremes():
    t = QuadtreeSpec(8, seed=17)
    x = HypercubePoint(8, 0b10110010)
    assert lca_depth(t, x, x) == t.h
    y = HypercubePoint(8, 0b01001101)  # differs in every coordinate
    assert lca_depth(t, x, y) == 0


def test_lca_tail_probability_closed_form():
    """Pr[lca >= i] = (1 - ||x-y||_1/d)^(2^i - 1) since each of the 2^i - 1
    sampled coordinates splits with probability ||x-y||_1/d."""
    d = 16
    rng = np.random.default_rng(0)
    xb = rng.integers(0, 2, d)
    yb = xb.copy()
    flip = rng.choice(d, size=4, replace=False)
    yb[flip] ^= 1
    x, y = HypercubePoint.from_bits(xb), HypercubePoint.from_bits(yb)
    dist_frac = 4 / d
    trials = 6000
    depths = np.array([lca_depth(QuadtreeSpec(d, seed=s), x, y) for s in range(trials)])
    for i in (1, 2, 3):
        emp = (depths >= i).mean()
        expect = (1 - dist_frac) ** (2**i - 1)
        assert abs(emp - expect) < 0.02, (i, emp, expect)


def test_partition_refinement():
    """Same node at depth i+1 implies same node at depth i."""
    t = QuadtreeSpec(16, seed=23)
    X, _ = points_to_matrix(random_multiset(64, 16, 4))
    path = t.node_path(X)
    n = X.shape[0]
    for i in range(t.h):
        for a in range(0, n, 7):
            for b in range(a + 1, n, 5):
                same_deeper = np.array_equal(path[a, i + 1], path[b, i + 1])
                same_here = np.array_equal(path[a, i], path[b, i])
                assert not (same_deeper and not same_here)


def test_no_fingerprint_collisions_bulk():
    """Distinct points never share a leaf fingerprint (128-bit keyed hash)."""
    t = QuadtreeSpec(16, seed=31)
    vals = np.random.default_rng(1).choice(2**16, size=2000, replace=False)
    X = np.stack([HypercubePoint(16, int(v)).bits() for v in vals])
    leaf = t.node_fingerprints(X, t.h)
    seen = {(int(a), int(b)) for a, b in leaf}
    assert len(seen) == len(vals)
