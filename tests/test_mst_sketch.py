import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geosketch import (
    FAIL,
    CountView,
    HypercubePoint,
    aggregate,
    gen_instance,
    MstSketch,
    MstSketchConfig,
    PointMultiset,
    exact_mst,
    l0_estimate,
    QuadtreeSpec,
)
from geosketch import hashing as hx
from geosketch import emd_sketch, mst_sketch
from geosketch.emd_sketch import SamplesFailed, replica_node_ids
from geosketch.offline import LevelDecomposition
from geosketch.sketches import stable_median
from geosketch.mst_sketch import (
    _LevelStack, _grouped_log_abs_sum, _log_stable_draws, _point_fps, _representatives,
)

from conftest import (
    Replica, assert_view_is, random_multiset, replica_views, replicas, state_header, store_sizes,
    view_dict,
)
from reference import (
    CharacterSet, add_count, charsets, dict_view, lca_depth, node_key, sample_p_stable_array,
    tally, universe_ids,
)


def pt(bits):
    return HypercubePoint.from_bits(bits)


def small_cfg(**kw):
    kw.setdefault("n", 8)
    kw.setdefault("d", 8)
    kw.setdefault("seed", 1)
    kw.setdefault("samples", 6)
    kw.setdefault("j_reps", 2)
    return MstSketchConfig(**kw)


def feed(sk, X):
    for p, c in X.items():
        sk.update(p, c)
    return sk


def stack_of(cfg, seeds, views):
    """The `_LevelStack` of samples with the given seeds and views of their
    point entries (u, w, fp), stacked with the sample as first key word."""
    sample = np.repeat(np.arange(len(views), dtype=np.uint64), [len(v) for v in views])
    keys = np.concatenate([v.keys for v in views]).reshape(-1, 3)
    points = CountView(np.concatenate([sample[:, None], keys], axis=1),
                       np.concatenate([v.rows for v in views]).reshape(-1, 2))
    return _LevelStack(cfg, np.array(seeds, dtype=np.uint64), points)


def _level_view(sk, i):
    """The stacked view of every sample of level i."""
    seeds = sk.seeds[i - 1]
    return sk.views(sk._read(sk.counts), [i] * len(seeds), seeds)


def view_with_nodes(cfg, nodes, seed=7):
    """A one-sample level stack of a bare sample with prescribed (u, w) ->
    count nodes: each node holds one point entry of that net count and
    chi = -1."""
    points = tally(((u, w, 1), [cnt, 0]) for (u, w), cnt in nodes.items())
    view = stack_of(cfg, [seed], [dict_view(points, 3, 2)])
    assert dict(zip(map(tuple, view.keys.tolist()), view.nx.tolist())) == nodes
    return view


def _fp(rep, p):
    """The fingerprint of point p in a replica's point entries."""
    return int(_point_fps(np.uint64(rep.seed), [p.value])[0])


# -- reference quantities ----------------------------------------------------------


def test_reference_single_point():
    t = QuadtreeSpec(8, seed=2)
    X = PointMultiset(8)
    X.add(pt([0] * 8), 1)
    table = LevelDecomposition(t, X).level_table()
    for i in range(1, t.h + 1):
        assert (table.ell[i - 1], table.mu[i - 1]) == (1, 0.0)


def test_reference_two_points_after_split():
    d = 8
    x, y = pt([0] * d), pt([1] * d)
    X = PointMultiset.from_points([x, y])
    t = QuadtreeSpec(d, seed=3)
    split = lca_depth(t, x, y)
    table = LevelDecomposition(t, X).level_table()
    for i in range(split + 1, t.h + 1):
        ell, mu = table.ell[i - 1], table.mu[i - 1]
        assert ell == 2
        if i == split + 1:
            # parent holds both points: parent representative is uniform on
            # {x, y}, so the expected distance is d/2
            assert mu == pytest.approx(d / 2)
        else:
            assert mu == pytest.approx(0.0)


def test_reference_upper_bounds_mst():
    """MST(X) <= sum_i 1{|L_i|>1} |L_i| E[...] holds exactly (every
    representative choice spans X)."""
    for s in range(15):
        X = random_multiset(12, 16, s + 70)
        t = QuadtreeSpec(16, seed=s)
        total = 0.0
        table = LevelDecomposition(t, X).level_table()
        for i in range(1, t.h + 1):
            ell, mu = table.ell[i - 1], table.mu[i - 1]
            if ell > 1:
                total += ell * mu
        assert exact_mst(X) <= total + 1e-9


# -- log-space arithmetic ------------------------------------------------------------


# Each float32 sine of `_log_stable_draws` is within _SINE_UNITS * 2^-24 of
# its value, relative: rounding its angle x in [0, pi/2] to float32 moves x
# by at most 2^-24 relative and sin(x) by at most x cot(x) <= 1 times that
# (one unit), and numpy gates its float32 sine at 2 ulp of the correctly
# rounded result, which is within 1/2 ulp of sin: 2.5 ulp <= 2.5 * 2^-23
# (five units). A relative error e of a sine moves its log by about e, and
# log|x| weighs the logs of the three sines by 1, 1/p and (1 - p)/p.
_SINE_UNITS = 6
# The reference rounds theta = pi (u - 1/2) by up to 1.7e-16, so where
# pi/2 - |theta| >= this its float64 cos(theta) is within 2^-32 relative (a
# 256th of a unit above), and closer to pi/2 it may be off by more; the
# draw's complementary angle keeps its relative accuracy there.
_COS_WINDOW = 2.0**-20


def _log_draw_bound(p: float) -> float:
    """The largest |log|x| - reference log|x|| of a float32-sine draw at p."""
    return _SINE_UNITS * 2.0**-24 * (1.0 + 1.0 / p + (1.0 - p) / p)


@pytest.mark.parametrize("L", [1, 4, 8, 25])
def test_log_stable_draws_match_the_reference_generator(L):
    """At p = 1/(4L), the (sign, log|x|) of `_log_stable_draws` equal the
    sign and log|x| of `sample_p_stable_array` (the float64 formula) at the
    r and theta drawn from the same hash words, wherever the reference is
    finite and nonzero (nearly everywhere): the signs exactly, and log|x|
    within `_log_draw_bound(p)` (the float32 rounding of its three sines)
    wherever pi/2 - |theta| >= `_COS_WINDOW`. They warn about nothing."""
    p, n = 1.0 / (4.0 * L), 20_000
    h_r, h_t = hx.combine(0x5EED, L, np.array([[1], [2]], dtype=np.uint64),
                          np.arange(n, dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sign, log_mag = _log_stable_draws(h_r, h_t, p)
        x = sample_p_stable_array(p, hx.uniform01(h_r), np.pi * (hx.uniform01(h_t) - 0.5))
    ok = np.isfinite(x) & (x != 0)
    assert ok.mean() > 0.99
    assert np.array_equal(sign[ok], np.sign(x[ok]))
    inside = ok & (np.pi * (0.5 - np.abs(hx.uniform01(h_t) - 0.5)) >= _COS_WINDOW)
    err = np.abs(log_mag[inside] - np.log(np.abs(x[inside])))
    assert err.max() <= _log_draw_bound(p), (err.max(), _log_draw_bound(p))


@pytest.mark.parametrize("L", [1, 4, 7, 25])
def test_log_stable_draws_are_centred_by_the_float64_median(L):
    """Over 10^6 hashed words at p = 1/(4L), the share of float32-sine draws
    with |x| <= `stable_median(p)`, the median of the float64 law's |x|, is
    within 0.002 (4 sigma at this count) of 1/2."""
    p, n = 1.0 / (4.0 * L), 10**6
    h_r, h_t = hx.combine(0xCE17, L, np.array([[1], [2]], dtype=np.uint64),
                          np.arange(n, dtype=np.uint64))
    _, log_mag = _log_stable_draws(h_r, h_t, p)
    share = (log_mag <= math.log(stable_median(p))).mean()
    assert abs(share - 0.5) <= 0.002, share


@pytest.mark.parametrize("L", [1, 4, 25])
def test_log_stable_draws_at_the_edge_words(L):
    """The theta words at the ends of the interval, h_t = 0 (theta next to
    -pi/2) and the top word (next to +pi/2), give signs -1 and +1 and a
    finite log|x|, with the top r word (r = 1 - 2^-53) and a middle one,
    and warn about nothing, the float32 casts of their angles included.
    log|x| is within `_log_draw_bound(p)` of the formula in float64 sines of
    the exact angles, pi/2 - |theta| = pi (1/2 - |u - 1/2|) among them (the
    float64 pi/2 - |theta| is 2.2e-16 at h_t = 0, 1.27 times pi 2^-54). The
    theta = 0 word gives sign +1 and log|x| = -inf, a draw of 0, with no
    warning but log's division by zero."""
    p = 1.0 / (4.0 * L)
    top_r = ((1 << 53) - 1) << 11
    h_r = np.array([top_r, top_r, 1 << 62, 1 << 62], dtype=np.uint64)
    h_t = np.array([0, 2**64 - 1, 0, 2**64 - 1], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sign, log_mag = _log_stable_draws(h_r, h_t, p)
        with np.errstate(divide="ignore"):
            zero_sign, zero_log = _log_stable_draws(h_r[:1], np.array([1 << 63], np.uint64), p)
    assert sign.tolist() == [-1.0, 1.0, -1.0, 1.0]
    assert np.isfinite(log_mag).all()
    r, u = hx.uniform01(h_r), hx.uniform01(h_t)
    at, comp = np.pi * np.abs(u - 0.5), np.pi * (0.5 - np.abs(u - 0.5))
    want = (np.log(np.sin(p * at)) - np.log(np.sin(comp)) / p
            + (1.0 - p) / p * (np.log(np.sin(comp + p * at)) - np.log(np.log(1.0 / r))))
    assert np.abs(log_mag - want).max() <= _log_draw_bound(p)
    assert zero_sign.tolist() == [1.0] and zero_log.tolist() == [-np.inf]


@pytest.mark.parametrize("L", [1, 4, 25])
def test_log_stable_draws_have_unit_signs_and_finite_magnitudes(L):
    """Over 10^6 hashed words at p = 1/(4L), `_log_stable_draws` gives signs
    in {-1, +1} only and a finite log|x| (it takes sin(p |theta|) without
    an abs). The one theta word `uniform01` maps to 1/2 (h >> 11 = 2^52)
    gives sign +1 and log|x| = -inf, a draw of 0: it leaves its group's
    `_grouped_log_abs_sum` as it was, bit for bit."""
    p, n = 1.0 / (4.0 * L), 10**6
    h_r, h_t = hx.combine(0xD1CE, L, np.array([[1], [2]], dtype=np.uint64),
                          np.arange(n, dtype=np.uint64))
    sign, log_mag = _log_stable_draws(h_r, h_t, p)
    assert np.isin(sign, (-1.0, 1.0)).all() and np.isfinite(log_mag).all()
    assert 0.49 < (sign > 0).mean() < 0.51
    half = np.array([1 << 63], dtype=np.uint64)
    assert hx.uniform01(half)[0] == 0.5
    with np.errstate(divide="ignore"):
        zero_sign, zero_log = _log_stable_draws(h_r[:1], half, p)
    assert zero_sign.tolist() == [1.0] and zero_log.tolist() == [-np.inf]
    idx = np.array([0, 0, 1, 1])
    want = _grouped_log_abs_sum(idx, log_mag[:4], sign[:4], 2)
    for g in (0, 1):
        got = _grouped_log_abs_sum(np.r_[idx, g], np.r_[log_mag[:4], zero_log],
                                   np.r_[sign[:4], zero_sign], 2)
        assert got.tobytes() == want.tobytes()


def test_grouped_log_abs_sum_matches_a_direct_sum():
    """`_grouped_log_abs_sum` equals log|sum of sign * exp(log_mag)| per
    group, summed directly with `np.add.at`, within rounding scaled by the
    cancellation of each group (sum of |terms| over |sum|); groups without
    entries, also between groups with entries, read -inf; and it warns
    about nothing."""
    rng = np.random.default_rng(3)
    size, n = 50, 300
    idx = rng.choice([g for g in range(45) if g % 7], n)  # 0, 7, .., 42 and 45.. stay empty
    log_mag, sign = rng.uniform(-30.0, 30.0, n), rng.choice([-1.0, 1.0], n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _grouped_log_abs_sum(idx, log_mag, sign, size)
    total, mass = np.zeros(size), np.zeros(size)
    np.add.at(total, idx, sign * np.exp(log_mag))
    np.add.at(mass, idx, np.exp(log_mag))
    empty = np.bincount(idx, minlength=size) == 0
    assert np.isneginf(got[empty]).all() and empty.sum() == size - 38
    want = np.log(np.abs(total[~empty]))
    np.testing.assert_array_less(np.abs(got[~empty] - want),
                                 1e-13 * mass[~empty] / np.abs(total[~empty]))


# -- parent recovery -----------------------------------------------------------------


def test_parent_recover_single_parent():
    cfg = small_cfg()
    view = view_with_nodes(cfg, {(5, 1): 3, (5, 2): 1})
    assert view.uu[view.parents()[0]] == 5


def test_parent_recover_dominant_counts():
    """|C| ratio 50:1 between two parents: the heavy parent wins >= 99%."""
    cfg = small_cfg(rec_buckets=64, rec_t0_parent=8)
    wins = 0
    trials = 80
    for s in range(trials):
        nodes = {(1, w): 1 for w in range(50)}
        nodes[(2, 999)] = 1
        view = view_with_nodes(cfg, nodes, seed=s)
        # condition on favorable scalings: equal t makes |C|/t dominant
        view.t_u = np.ones(len(view.uu))
        wins += view.uu[view.parents()[0]] == 1
    assert wins >= 0.99 * trials, wins


def test_parent_recover_matches_exact_argmax_under_events():
    """Under the event that the scaled-count gap holds, the sketch recovers
    the exact argmax of |C(u)|/t_u >= 98% of the time."""
    gap = 1.10
    # the config's noise note: log-space noise ~ 2/(p sqrt(t0)) against a
    # gap of ln(gap)/p, so the smallest budget that resolves the gap is the
    # smallest t0 with 2/sqrt(t0) <= ln(gap)
    t0 = math.ceil((2.0 / math.log(gap)) ** 2)
    cfg = small_cfg(n=64, d=16, rec_buckets=64, rec_t0_parent=t0)
    hits = total = 0
    for s in range(150):
        nodes = {}
        rng = np.random.default_rng(s)
        for u in range(8):
            for c in range(int(rng.integers(1, 6))):
                nodes[(u, 10 * u + c)] = int(rng.integers(1, 4))
        view = view_with_nodes(cfg, nodes, seed=s + 1000)
        kid_count = {u: 0 for u in range(8)}
        for (u, w) in nodes:
            kid_count[u] += 1
        scaled = np.array(
            [kid_count[int(u)] / view.t_u[i] for i, u in enumerate(view.uu)]
        )
        order = np.sort(scaled)[::-1]
        if order[0] < gap * order[1]:  # gap event fails: skip
            continue
        total += 1
        hits += view.parents()[0] == int(np.argmax(scaled))
    assert total >= 50
    assert hits >= 0.98 * total, (hits, total)


def test_parent_law_exact_side():
    """Pr[argmax |C(u)|/t_u = u] = |C(u)|/|L_i| (anti-rank law), TV <= 0.02."""
    counts = np.array([4, 2, 1, 1, 3, 2, 2, 1], dtype=float)
    trials = 40_000
    rng = np.random.default_rng(8)
    t = rng.exponential(size=(trials, len(counts)))
    wins = np.bincount(np.argmax(counts / t, axis=1), minlength=len(counts)) / trials
    tv = 0.5 * np.abs(wins - counts / counts.sum()).sum()
    assert tv < 0.02, tv


# -- child recovery -----------------------------------------------------------------


def test_child_recover_full_subsample_recovers_children():
    """D covering all children at 2^kappa >= |C(u*)| recovers C(u*) exactly
    (direct set compare on a small fixture)."""
    cfg = small_cfg(n=16, d=8)
    hits = 0
    trials = 60
    for s in range(trials):
        nodes = {(1, w): 1 + (w % 2) for w in range(4)}
        nodes[(2, 100)] = 2
        view = view_with_nodes(cfg, nodes, seed=s + 31)
        # find a (kappa, j) whose D contains every child of parent 1
        got = None
        for kappa in (0,):  # rate 1: D = everything
            for j in range(cfg.j_reps):
                if view.in_D(kappa, j, 0, slice(None)).all():
                    got = set(_children(view, 1, kappa, j, 0))
                    break
        if got is not None and got == set(np.flatnonzero(view.u == 1).tolist()):
            hits += 1
    assert hits >= 0.9 * trials, hits


def _children(view, u_star, kappa, j, side):
    """The node indices of the children of u_star whose presence the (kappa,
    j, side) sketch of a one-sample stack detects."""
    cand = np.flatnonzero((view.u == u_star) & (view.nx > 0))
    return cand[view.children_present(cand, kappa)[:, j, side]].tolist()


def _reference_scan(view, u_star):
    """The scan spelled out with _children: down the kappas, per side the
    first j with a single hit; FAIL if no kappa gives both."""
    for kappa in range(view.cfg.L, -1, -1):
        picks = []
        for side in (0, 1):
            for j in range(view.cfg.j_reps):
                got = _children(view, u_star, kappa, j, side)
                if len(got) == 1:
                    picks.append(got[0])
                    break
        if len(picks) == 2:
            return tuple(picks)
    return FAIL


def test_scan_children_matches_child_recover_reference():
    cfg = small_cfg(n=16, d=8, j_reps=3)
    outcomes = {"pair": 0, "fail": 0}
    for s in range(25):
        rng = np.random.default_rng(s)
        nodes = {}
        for u in range(int(rng.integers(1, 4))):
            for c in range(int(rng.integers(1, 9))):
                nodes[(u, 100 * u + c)] = int(rng.integers(1, 4))
        view = view_with_nodes(cfg, nodes, seed=s + 500)
        for c, u in enumerate(view.uu.tolist()):
            want = _reference_scan(view, u)
            got = tuple(view.scan(np.array([c]))[0].tolist())
            if want is FAIL:
                assert got == (-1, -1)
                outcomes["fail"] += 1
            else:
                assert got == want
                assert all(view.u[v] == u for v in got)
                outcomes["pair"] += 1
    assert outcomes["pair"] > 0 and outcomes["fail"] > 0, outcomes


def test_child_recover_empty_subsample():
    """Where D_{kappa,0} holds none of the children, none is recovered. The
    fixture is the first seed of a small fixed range where some kappa
    empties D."""
    cfg = small_cfg(n=16, d=8)
    for seed in range(77, 87):
        view = view_with_nodes(cfg, {(1, w): 1 for w in range(4)}, seed=seed)
        empty = [k for k in range(cfg.L, -1, -1)
                 if not view.in_D(k, 0, 0, slice(None)).any()]
        if empty:
            break
    assert empty, "no seed in 77..86 empties D at any kappa"
    assert _children(view, 1, empty[0], 0, 0) == []


def test_child_pair_law_uniform():
    """The kappa-scan yields (v*, v**) ~ uniform over C(u*)^2 (exact-side
    Monte Carlo over subsample seeds), TV <= 0.03."""
    kids = list(range(5))
    trials = 20_000
    rng = np.random.default_rng(9)
    counts = {}
    for _ in range(trials):
        pick = [None, None]
        for side in (0, 1):
            for kappa in range(8, -1, -1):
                done = False
                for j in range(3):
                    members = [v for v in kids if rng.random() < 2.0**-kappa]
                    if len(members) == 1:
                        pick[side] = members[0]
                        done = True
                        break
                if done:
                    break
        if pick[0] is not None and pick[1] is not None:
            counts[(pick[0], pick[1])] = counts.get((pick[0], pick[1]), 0) + 1
    total = sum(counts.values())
    tv = 0.5 * sum(
        abs(counts.get((a, b), 0) / total - 1 / 25) for a in kids for b in kids
    )
    assert tv < 0.03, tv


# -- representatives and characters -----------------------------------------------------


def _witness_fixture(cfg, points, seed=5, level=1, charset=None):
    """A replica over real points placed at prescribed (u, w) nodes, (key,
    point, net) -> the entry (u, w, fp) -> [net, net * chi], its one-sample
    stack, and the validated witnesses of the first node (side 0)."""
    st = Replica(cfg, level, seed)
    charset = charset or charsets(st)[0]
    entries = tally(((*key, _fp(st, p)), c * np.array([1, charset.eval(p) == 1]))
                    for key, p, c in points)
    stack = stack_of(cfg, [seed], [dict_view(entries, 3, 2)])
    return st, stack, stack.witnesses(np.array([0]), stack.hk_v[:1], np.array([0]))[0]


def _witness_groups(stack, s, v, side):
    """{(restriction, eta, row): point entry indices} of the item (sample s,
    node index v, side), enumerated entry by entry with the hashes written
    out here: an entry of sample s is in the group when its node's bucket
    in the row's Count-Sketch (salt 0x9C00 + side, `wit_buckets` buckets)
    is v's, the row's point subsample keeps it at eta and, for restriction
    1, its net * chi is nonzero."""
    cfg, seed = stack.cfg, int(stack.seeds[s])

    def buckets(u, w):  # per row
        hk = hx.combine(seed, 0xAC, u, w)
        return [int(hx.bucket(hx.combine(seed, 0x9C00 + side, 0xB0, r, hk), cfg.wit_buckets))
                for r in range(cfg.rec_rows)]

    mine = buckets(*stack.keys[v].tolist())
    groups = {(k, e, r): [] for k in (0, 1) for e in range(cfg.L + 1)
              for r in range(cfg.rec_rows)}
    for i in range(stack.pstart[s], stack.pstart[s + 1]):
        _, u, w, fp = stack.points.keys[i].tolist()
        for r, b in enumerate(buckets(u, w)):
            lvl = float(hx.uniform01(hx.combine(seed, 0xBE, side, r, fp)))
            for e in range(cfg.L + 1):
                if b == mine[r] and lvl < 2.0**-e:
                    groups[0, e, r].append(i)
                    if stack.points.rows[i, 1] != 0:
                        groups[1, e, r].append(i)
    return groups


def _brute_witnesses(stack, s, v, side) -> np.ndarray:
    """(2, L + 1, rows) witnesses of the item from `_witness_groups`:
    the fingerprint of a group's one entry where that entry is a point of v
    with a positive net count, 0 elsewhere."""
    cfg = stack.cfg
    out = np.zeros((2, cfg.L + 1, cfg.rec_rows), dtype=np.uint64)
    for at, entries in _witness_groups(stack, s, v, side).items():
        if len(entries) == 1:
            _, u, w, fp = stack.points.keys[entries[0]].tolist()
            if [u, w] == stack.keys[v].tolist() and stack.points.rows[entries[0], 0] > 0:
                out[at] = fp
    return out


def _assert_witnesses_brute(stack):
    """`witnesses` of every (sample, node, side) item of the stack, in one
    call, equals the brute-force enumeration; returns the validated count."""
    v = np.repeat(np.arange(len(stack.ns)), 2)
    side = np.tile([0, 1], len(stack.ns))
    got = stack.witnesses(stack.ns[v], stack.hk_v[v], side)
    assert got.shape == (len(v), 2, stack.cfg.L + 1, stack.cfg.rec_rows)
    for k in range(len(v)):
        assert np.array_equal(got[k], _brute_witnesses(stack, stack.ns[v[k]], v[k], side[k]))
    return int((got != 0).sum())


def _sibling_in_bucket(cfg, seed, v):
    """A sibling (u, w) of node v that shares v's side-0 witness bucket in
    some row of the sample of the given seed."""
    probe = stack_of(cfg, [seed], [dict_view({}, 3, 2)])
    ws = np.arange(v[1] + 1, v[1] + 1000, dtype=np.uint64)
    b_w = probe._buckets([0x9C00], 0, 0, probe._node_hash(np.uint64(v[0]), ws, 0), cfg.wit_buckets)
    b_v = probe._buckets([0x9C00], 0, 0, probe._node_hash(np.uint64(v[0]), np.uint64(v[1]), 0),
                         cfg.wit_buckets)
    return v[0], int(ws[np.argmax((b_w == b_v).any(axis=1))])


@pytest.mark.parametrize("chi", ["mixed", "none", "all"])
def test_witnesses_match_brute_force_enumeration(chi):
    """On hand-built stacks of one and of three samples, with negative nets,
    two or three points in one node, and another node's point alone in v's
    bucket, `witnesses` equals the enumeration. chi sets the chi column:
    the points' own characters, no entry with chi = +1 (an empty
    restricted copy, so restriction 1 validates nothing), or every entry
    (an empty character set S, so restriction 1 equals restriction 0)."""
    cfg = small_cfg(n=8, d=8)
    rng = np.random.default_rng(4)
    pts = [HypercubePoint(8, int(x)) for x in rng.choice(256, 6, replace=False)]
    v = (1, 10)
    alien_alone = validated = 0
    for seeds in ([3], [5, 8, 13]):
        reps = [Replica(cfg, 1, s) for s in seeds]
        views = []
        for rep in reps:
            other = _sibling_in_bucket(cfg, rep.seed, v)
            placed = [(v, pts[0], 2), (v, pts[1], -1), (v, pts[2], 1), (other, pts[3], 1),
                      ((2, 7), pts[4], -3), ((2, 9), pts[5], 1)]
            entries = {}
            for key, p, c in placed:
                plus = {"mixed": charsets(rep)[0].eval(p) == 1, "none": 0, "all": 1}[chi]
                add_count(entries, (*key, _fp(rep, p)), c * np.array([1, plus]))
            views.append(dict_view(entries, 3, 2))
        stack = stack_of(cfg, seeds, views)
        validated += _assert_witnesses_brute(stack)
        for s in range(len(reps)):
            fz = _fp(reps[s], pts[3])
            iz = int(np.flatnonzero((stack.points.keys[:, 0] == s)
                                    & (stack.points.keys[:, 3] == fz))[0])
            v_idx = int(np.flatnonzero((stack.ns == s) & (stack.u == 1) & (stack.w == 10))[0])
            groups = _witness_groups(stack, s, v_idx, 0)
            alien_alone += sum(g == [iz] for g in groups.values())
            got = stack.witnesses(np.array([s]), stack.hk_v[[v_idx]], np.array([0]))[0]
            if chi == "none":
                assert not got[1].any()
            if chi == "all":
                assert np.array_equal(got[1], got[0])
    assert validated > 0
    # another node's point sat alone in v's bucket, and was rejected
    assert alien_alone > 0


def test_witnesses_of_a_sketch_match_brute_force_enumeration():
    """On the multi-sample stacks of a sketch's first two levels, over a
    stream whose final nets include negative counts, `witnesses` equals the
    enumeration for every node and side."""
    cfg = small_cfg(n=8, d=8, samples=4)
    sk = feed(MstSketch(cfg), random_multiset(8, 8, 3))
    for value in (0x0F, 0xA5):
        sk.update(HypercubePoint(8, value), -2)
    assert min(r[0] for r in sk.counts.sorted()[1].tolist()) < 0
    validated = 0
    for i in (1, 2):
        validated += _assert_witnesses_brute(_stack_of_level(sk, i))
    assert validated > 0


def test_representative_singleton_found_at_eta_zero():
    cfg = small_cfg(n=8, d=8)
    x = pt([1, 0, 1, 0, 1, 0, 1, 0])
    st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1)])
    fp, eta, _ = (int(a[0]) for a in _representatives(fps[None]))
    assert fp != 0
    assert eta == 0
    assert fp == _fp(st, x)


def test_representative_two_points_balanced():
    cfg = small_cfg(n=8, d=8)
    x, y = pt([0] * 8), pt([1] * 8)
    hits = {0: 0, 1: 0}
    succ = 0
    for s in range(2500):
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1), ((1, 10), y, 1)], seed=s)
        fp = int(_representatives(fps[None])[0][0])
        if fp == 0:
            continue
        succ += 1
        hits[0 if fp == _fp(st, x) else 1] += 1
    assert succ / 2500 >= 0.95
    frac = hits[0] / succ
    assert abs(frac - 0.5) < 0.05, frac


def test_representative_rejects_point_of_another_node():
    """A point of another node that shares v's bucket in some row never
    validates as v's representative, also where it is alone in that bucket."""
    cfg = small_cfg(n=8, d=8)
    x, z = pt([1, 0, 1, 0, 1, 0, 1, 0]), pt([0, 1, 1, 0, 0, 1, 1, 1])
    v = (1, 10)
    alien_alone = 0
    for s in range(40):
        # a sibling (1, w) that shares v's side-0 bucket in some row
        other = _sibling_in_bucket(cfg, s, v)
        # v sorts before other, so its witnesses are those of the first node
        st, stack, fps = _witness_fixture(cfg, [(v, x, 1), (other, z, 1)], seed=s)
        fx, fz = _fp(st, x), _fp(st, z)
        assert [int(a[0]) for a in _representatives(fps[None])[:2]] == [fx, 0]
        iz = int(np.flatnonzero(stack.points.keys[:, 3] == fz)[0])
        groups = _witness_groups(stack, 0, 0, 0)
        for eta in range(cfg.L + 1):
            assert set(fps[0, eta].tolist()) <= {fx, 0}
            alien_alone += any(groups[0, eta, r] == [iz] for r in range(cfg.rec_rows))
    # the guard was exercised: z sat alone in v's bucket in some (eta, row)
    assert alien_alone > 0


def test_char_of_representative_two_points_matches_direct_eval():
    """On a two-point node the character read for the token equals chi of
    the point the token names (multi-point counterpart of the test below)."""
    cfg = small_cfg(n=8, d=8)
    x, y = pt([0, 0, 1, 1, 0, 1, 0, 1]), pt([1, 0, 0, 1, 1, 1, 0, 0])
    agree = minus = 0
    trials = 200
    for s in range(trials):
        # a dense character, so that both signs occur across seeds
        cs = CharacterSet(cfg.d, 0.5, s)
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1), ((1, 10), y, 1)], seed=s,
                                      charset=cs)
        fp, _, plus = (a[0] for a in _representatives(fps[None]))
        if fp == 0:
            continue
        named = {_fp(st, x): x, _fp(st, y): y}[int(fp)]
        want = cs.eval(named)
        minus += want == -1
        agree += (1 if plus else -1) == want
    assert agree >= 0.98 * trials, agree
    assert minus >= 0.2 * trials, minus


def test_char_of_representative_matches_direct_eval():
    cfg = small_cfg(n=8, d=8)
    x = pt([1, 1, 0, 0, 1, 0, 0, 1])
    agree = 0
    trials = 200
    for s in range(trials):
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1)], seed=s)
        fp, _, plus = (a[0] for a in _representatives(fps[None]))
        assert fp != 0
        agree += (1 if plus else -1) == charsets(st)[0].eval(x)
    assert agree >= 0.98 * trials, agree


def _representative(fps: np.ndarray):
    """Scalar reference of `_representatives` for one item's witnesses fps
    (2, L + 1, rows): the token (fp, eta) of the first (eta, row),
    eta upward and rows in order, whose unrestricted bucket validates a
    point; FAIL if none does."""
    first = np.flatnonzero(fps[0] != 0)
    if len(first) == 0:
        return FAIL
    eta, row = divmod(int(first[0]), fps.shape[-1])
    return int(fps[0, eta, row]), eta


def _character(fps: np.ndarray, token) -> int:
    """Scalar reference of chi(r_v): +1 iff some row of the chi-restricted
    copy at the token's eta validates the token's point."""
    fp, eta = token
    return 1 if fp in fps[1, eta].tolist() else -1


def _stack_of_level(sk, i):
    return _LevelStack(sk.cfg, sk.seeds[i - 1], _level_view(sk, i))


def test_outcomes_name_the_stage_each_sample_failed_at():
    """Each sample's outcome is read off the stages: stage 1 iff `parents`
    is -1, 2 iff its `scan` row is -1, 3 iff the restriction-0 witnesses
    of v* or v** are all zero, 0 otherwise; mismatch is chi(r_v) !=
    chi(r_v') of the scalar reference, and `_representatives` equals the
    reference on every (v, side) item. One repetition per kappa and 4
    buckets make scan and witness failures common. A stack without nodes
    fails every sample at parent recovery."""
    X = aggregate(gen_instance("uniform", 16, 16, 1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(16, 16, seed=0, rec_buckets=4, j_reps=1)), X)
    seen = np.zeros(4, dtype=np.int64)
    for i in range(1, sk.h + 1):
        stack = _stack_of_level(sk, i)
        stage, mismatch = stack.outcomes()
        parents = stack.parents()
        pairs = stack.scan(parents)
        ok = np.flatnonzero(pairs[:, 0] >= 0)
        fps = stack.witnesses(np.repeat(ok, 2), stack.hk_v[pairs[ok].ravel()],
                              np.tile([0, 1], len(ok)))
        fp, eta, plus = _representatives(fps)
        tokens = [_representative(f) for f in fps]
        for k, tok in enumerate(tokens):
            if tok is FAIL:
                assert (fp[k], eta[k], plus[k]) == (0, 0, False)
            else:
                assert (int(fp[k]), int(eta[k])) == tok
                assert plus[k] == (_character(fps[k], tok) == 1)
        for s in range(len(stack.seeds)):
            assert (stage[s] == 1) == (parents[s] == -1)
            assert (pairs[s, 0] == -1) == (pairs[s, 1] == -1)
            if stage[s] == 1:
                assert (pairs[s] == -1).all()
            assert (stage[s] == 2) == (parents[s] >= 0 and pairs[s, 0] == -1)
            if s not in ok:
                assert stage[s] in (1, 2) and not mismatch[s]
                continue
            k = 2 * int(np.searchsorted(ok, s))
            assert (stage[s] == 3) == (not fps[k, 0].any() or not fps[k + 1, 0].any())
            assert (stage[s] == 3) == (tokens[k] is FAIL or tokens[k + 1] is FAIL)
            want = stage[s] == 0 and (_character(fps[k], tokens[k])
                                      != _character(fps[k + 1], tokens[k + 1]))
            assert mismatch[s] == want
        seen += np.bincount(stage, minlength=4)
    assert seen[0] > 0 and seen[2] > 0 and seen[3] > 0 and seen[1] == 0, seen
    assert seen.sum() == sk.h * sk.cfg.samples
    cfg = small_cfg()
    empty = stack_of(cfg, [3, 4], [dict_view({}, 3, 2)] * 2)
    stage, mismatch = empty.outcomes()
    assert stage.tolist() == [1, 1] and mismatch.tolist() == [False, False]


# -- level estimates ---------------------------------------------------------------


def _records(sk):
    """`levels` as (ell, stages, mismatches, mu) tuples, each record's
    stages as a list, comparable with ==."""
    return [(rec.ell, rec.stages.tolist(), rec.mismatches, rec.mu) for rec in sk.levels()]


def test_level_mu_identical_points_is_zero():
    """One point, eight times: every level has one node, so ell = 1.25 and
    `levels` decodes none of them. Decoded anyway, every sample is ok and
    the characters of r_v and r_v' agree: the mismatch count is 0."""
    cfg = small_cfg()
    X = PointMultiset(8)
    X.add(pt([0] * 8), 8)
    sk = feed(MstSketch(cfg), X)
    assert _records(sk) == [(1.25, [0, 0, 0, 0], 0, None)] * sk.h
    for i in range(1, sk.h + 1):
        stage, mismatch = _stack_of_level(sk, i).outcomes()
        assert stage.tolist() == [0] * cfg.samples and not mismatch.any()


def test_level_mu_two_clusters_tracks_expectation():
    """Two tight clusters at distance ~d/2: at the first split level mu
    approximates the exact representative expectation within the additive
    slack d/2^i (plus sampling noise)."""
    d = 16
    rng = np.random.default_rng(11)
    base = rng.integers(0, 2, d)
    far = base ^ (rng.random(d) < 0.5).astype(int)
    X = PointMultiset.from_points([HypercubePoint.from_bits(base),
                                   HypercubePoint.from_bits(far)])
    cfg = MstSketchConfig(n=2, d=d, seed=13, samples=64, j_reps=2)
    sk = feed(MstSketch(cfg), X)
    tree = sk.tree
    split = lca_depth(tree, *list(X.support())) + 1
    table = LevelDecomposition(tree, X).level_table()
    ell, mu_exact = table.ell[split - 1], table.mu[split - 1]
    assert ell == 2
    mu_hat = sk.levels()[split - 1].mu
    slack = d / 2**split + 6.0 / np.sqrt(64) / cfg.alpha(split)
    assert abs(mu_hat - mu_exact) <= slack, (mu_hat, mu_exact, slack)


def test_level_mu_clamped():
    cfg = small_cfg()
    X = random_multiset(8, 8, 17)
    sk = feed(MstSketch(cfg), X)
    mus = [(rec.level, rec.mu) for rec in sk.levels() if rec.mu is not None]
    assert mus
    for i, mu in mus:
        assert mu <= cfg.mu_cap(i) + 1e-9


# -- estimator ---------------------------------------------------------------------


def test_estimate_single_and_identical_points():
    cfg = small_cfg()
    X1 = PointMultiset(8)
    X1.add(pt([1] * 8), 1)
    assert feed(MstSketch(cfg), X1).estimate() == 0.0
    X2 = PointMultiset(8)
    X2.add(pt([1] * 8), 8)
    assert feed(MstSketch(cfg), X2).estimate() == 0.0


def test_a_level_without_an_ok_sample_is_a_record():
    """On the stream and config of the CLI's
    `test_mst_level_without_a_sample_exits_2` (uniform n=2 d=2 seed 1, one
    sample per level), level 1's one sample fails at the child scan: its
    record has no terms, and `estimate` raises SamplesFailed with the
    message that the CLI prints."""
    X = aggregate(gen_instance("uniform", 2, 2, seed=1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(n=2, d=2, samples=1)), X)
    rec = sk.levels()[0]
    assert (rec.level, rec.terms, rec.stages.tolist(), rec.mu) == (1, [], [0, 0, 1, 0], None)
    with pytest.raises(SamplesFailed) as e:
        sk.estimate()
    assert str(e.value) == ("all samples failed at level 1 (samples = 1: 0 at parent recovery, "
                            "1 at the child scan, 0 at the witnesses)")


def test_estimate_empty_raises():
    with pytest.raises(ValueError):
        MstSketch(small_cfg()).estimate()


def test_estimate_dominates_mst_usually():
    over = 0
    trials = 10
    for s in range(trials):
        X = random_multiset(8, 8, s + 90)
        cfg = small_cfg(seed=s, samples=10)
        est = feed(MstSketch(cfg), X).estimate()
        over += est >= exact_mst(X)
    assert over >= 7, over


@pytest.mark.parametrize("kind,seed,n,d,want", [
    pytest.param("uniform", 1, 8, 8, "0x1.b37caf8decf48p+6", id="uniform-1-0x1.b37caf8decf48p+6"),
    pytest.param("uniform", 2, 8, 8, "0x1.362b2c1ae3924p+5", id="uniform-2-0x1.362b2c1ae3924p+5"),
    pytest.param("clustered", 1, 8, 8, "0x1.bd580729a3666p+5",
                 id="clustered-1-0x1.bd580729a3666p+5"),
    ("uniform", 1, 16, 16, "0x1.1095661e89519p+8"),
    ("uniform", 2, 16, 16, "0x1.c2b6ebf5a1152p+7"),
    # read from the per-sample decode, before a level's samples were stacked
    ("uniform", 3, 16, 16, "0x1.00d5ca49ee501p+8"),
    ("clustered", 1, 16, 16, "0x1.f7fff8cb0ee09p+6"),
    ("uniform", 1, 32, 16, "0x1.f6e93d8cfd004p+7"),
    # near-ties of the draws are likelier at this size: it guards their precision
    ("uniform", 1, 64, 32, "0x1.d7098780e8fc6p+10"),
])
def test_estimate_bit_identical_to_pinned(kind, seed, n, d, want):
    """The decode is batched for speed only: the n=8 estimates are pinned to
    the values of the per-row, per-(kappa, j, side) loop it replaced, and
    the n=16 ones to those of the dict-store replica views, before the
    views became sorted arrays."""
    X = aggregate(gen_instance(kind, n, d, seed).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(n, d, seed=0)), X)
    assert sk.estimate().hex() == want


def _decoded(stack):
    """Per sample of a stack: u* (its key, None where `parents` is -1), the
    (v*, v**) node keys (None where the `scan` row is -1), the
    representatives' fingerprints and chi(r) = +1 bits of (v*, v**) (None
    without a pair), and the `outcomes` stage and mismatch."""
    parents = stack.parents()
    pairs = stack.scan(parents)
    ok = np.flatnonzero(pairs[:, 0] >= 0)
    fp, _, plus = _representatives(stack.witnesses(
        np.repeat(ok, 2), stack.hk_v[pairs[ok].ravel()], np.tile([0, 1], len(ok))))
    reps = dict(zip(ok.tolist(), zip(fp.reshape(-1, 2).tolist(), plus.reshape(-1, 2).tolist())))
    stage, mismatch = stack.outcomes()
    return [(None if p < 0 else int(stack.uu[p]),
             None if pair[0] < 0 else tuple(tuple(stack.keys[v].tolist()) for v in pair),
             reps.get(k), int(stage[k]), bool(mismatch[k]))
            for k, (p, pair) in enumerate(zip(parents.tolist(), pairs))]


def test_level_stack_matches_samples_decoded_alone(monkeypatch):
    """The stacked stages of a level give every sample the u*, the
    (v*, v**) pair, the representatives and characters, and the outcome
    of decoding that sample alone, also where its scan fails (one
    repetition per kappa makes that common). Splitting the draws into
    blocks of one or a few samples, or the level into several stacks,
    changes no value."""
    X = aggregate(gen_instance("uniform", 16, 16, 1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(16, 16, seed=0, samples=12, j_reps=1)), X)
    levels = (2, 3, 4)
    whole = {i: _decoded(_stack_of_level(sk, i)) for i in levels}
    scans = {"pair": 0, "fail": 0}
    for i in levels:
        reps = replicas(sk)[i - 1]
        for k, (rep, points) in enumerate(zip(reps, replica_views(sk, sk.counts, reps))):
            assert _decoded(stack_of(sk.cfg, [rep.seed], [points])) == [whole[i][k]]
            scans["fail" if whole[i][k][1] is None else "pair"] += 1
    assert scans["pair"] > 0 and scans["fail"] > 0, scans
    records = _records(sk)
    assert all(records[i - 1][3] is not None for i in levels)
    for draws, words in ((1, 1), (2_000, 1_000)):
        monkeypatch.setattr(mst_sketch, "_BLOCK_DRAWS", draws)
        monkeypatch.setattr(mst_sketch, "_BLOCK_WORDS", words)
        assert {i: _decoded(_stack_of_level(sk, i)) for i in levels} == whole
        assert _records(sk) == records


def test_sketch_passes_one_level_to_each_views_call(monkeypatch):
    """estimate and levels build the views of a level when they read it:
    no `views` call of the sketch gets the replicas of two levels, and
    every level is read. The estimate is the pinned one."""
    X = aggregate(gen_instance("uniform", 8, 8, 1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(8, 8, seed=0)), X)
    levels, views = [], MstSketch.views

    def spy(self, read, lv, seeds):
        levels.append(set(lv))
        return views(self, read, lv, seeds)

    monkeypatch.setattr(MstSketch, "views", spy)
    assert sk.estimate().hex() == "0x1.b37caf8decf48p+6"
    sk.levels()
    assert all(len(lv) == 1 for lv in levels)
    assert set.union(*levels) == set(range(1, sk.h + 1))


def test_default_universe_fits_uint64():
    """The n^3 default is clamped to 2^64 - 1, so node ids can still be
    computed where n^3 overflows uint64; below that it is n^3."""
    assert MstSketchConfig(n=2_642_245, d=8).universe_m == 2_642_245**3
    cfg = MstSketchConfig(n=3_000_000, d=8, samples=2)
    assert cfg.universe_m == 2**64 - 1
    sk = MstSketch(cfg)
    X = np.array([[0] * 8, [1] * 8], dtype=np.uint8)
    seeds = sk.seeds[-1]
    for ids in replica_node_ids(sk.tree.node_path(X), [sk.h] * len(seeds), seeds, cfg.universe_m):
        assert ids.shape == (2, 2) and ids.dtype == np.uint64


_LIN_PTS = [pt(b) for b in np.random.default_rng(21).integers(0, 2, (8, 8))]


def _outcome(sk):
    """The estimate's float hex, or the error an estimate raises."""
    try:
        return sk.estimate().hex()
    except (ValueError, RuntimeError) as e:
        return repr(e)


@settings(max_examples=15, deadline=None)
@example(ins=[(0, 2), (1, 1)], dels=1, cut=2)
@given(
    ins=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)), min_size=1, max_size=8),
    dels=st.integers(0, 8),
    cut=st.integers(0, 17),
)
def test_mst_sketch_linearity_bit_identical(ins, dels, cut):
    """A turnstile stream -- insertions, then the deletions of the first
    `dels` of them -- split at any point: the merged halves, and the stream
    reversed, give the state bytes and the estimate of the whole stream, bit
    for bit. The example's halves cancel point 0 to net zero."""
    ups = ins + [(i, -c) for i, c in ins[:dels]]
    cut = min(cut, len(ups))
    whole, rev, left, right = (MstSketch(small_cfg()) for _ in range(4))
    for sk, part in ((whole, ups), (rev, ups[::-1]), (left, ups[:cut]), (right, ups[cut:])):
        for i, c in part:
            sk.update(_LIN_PTS[i], c)
    left.merge(right)
    assert left.state_bytes() == whole.state_bytes() == rev.state_bytes()
    assert _outcome(left) == _outcome(whole)


def test_state_holds_one_entry_per_distinct_point():
    """The serialized state is one store with one net-count row per
    distinct point of non-zero net: the levels and samples add no entries,
    and a point whose updates cancel leaves none."""
    X = random_multiset(10, 8, 21)
    sk = feed(MstSketch(small_cfg()), X)
    x, c = next(X.items())
    sk.update(x, -c)
    assert store_sizes(sk.state_bytes()) == [(1, len(X.support()) - 1)]


def test_l0_views_equal_fed_reference():
    """The per-level l0 estimate, of the node counts of the level's first
    sample, equals an l0 estimate of the same seed over a dict reference fed
    ((u, w), +-delta) update by update, with the ids of the sample's
    universe map at the point's tree path (the same node counts and
    estimate): read after half of a turnstile stream with deletions and
    cancellations, and after the rest. The streams include nodes whose net
    count is 0 while their chi count is not, which the l0 estimate must
    not count."""
    zero_count_nodes = 0
    for s in range(4):
        rng = np.random.default_rng(s)
        # n = 2 puts alpha_i at 1/4, 1/2, 1, so points differ in chi
        sk = MstSketch(small_cfg(seed=s, n=2))
        firsts = [per_level[0] for per_level in replicas(sk)]
        fed = [{} for _ in firsts]
        # pairs (x, c), (y, -c) with y one bit from x cancel in the nodes
        # holding both, and leave chi counts there when chi(x) != chi(y)
        ups = []
        for _ in range(12):
            bits = rng.integers(0, 2, 8)
            flip = bits.copy()
            flip[rng.integers(8)] ^= 1
            c = int(rng.choice([1, 2, 3]))
            ups += [(pt(bits), c), (pt(flip), -c), (pt(rng.integers(0, 2, 8)), -c)]
        ups = [ups[j] for j in rng.permutation(len(ups))]
        cut = len(ups) // 2
        for part in (ups[:cut], ups[cut:]):
            for p, c in part:
                sk.update(p, c)
                for f, first in zip(fed, firsts):
                    add_count(f, node_key(sk.tree, first, p), c)
            views = [_level_view(sk, i) for i in range(1, sk.h + 1)]
            nodes = [CountView.summed(v.keys[:, :2], v.rows[:, :1])
                     for v in replica_views(sk, sk.counts, firsts)]
            for node_counts, f in zip(nodes, fed):
                assert_view_is(node_counts, f)
            seeds = [int(hx.combine(sk.cfg.seed, 0x10, i)[()]) for i in range(1, sk.h + 1)]
            want = [l0_estimate(dict_view(f, 2), seed, sk.cfg.l0_buckets)
                    for f, seed in zip(fed, seeds)]
            assert [rec.ell for rec in sk.levels()] == want
            assert [sk._l0(i, v) for i, v in enumerate(views, start=1)] == want
            zero_count_nodes += sum(
                int((stack_of(sk.cfg, [first.seed], [points]).nx == 0).sum())
                for first, points in zip(firsts, replica_views(sk, sk.counts, firsts))
            )
    assert zero_count_nodes > 0


def test_node_counts_derived_from_point_entries():
    """Every replica's point entries are [net, net * chi] at (u, w, point
    fingerprint), read off the one count store, and its node counts [net,
    net chi-plus] are their sums; a merged state equals the whole-stream
    state."""
    cfg = small_cfg(n=2)
    x, y, z = pt([0, 0, 1, 1, 0, 1, 0, 1]), pt([1, 0, 0, 1, 1, 1, 0, 0]), pt([1] * 8)
    ups = [(x, 3), (y, -1), (z, 2), (y, 2)]
    sk, left, right = MstSketch(cfg), MstSketch(cfg), MstSketch(cfg)
    for target, part in ((sk, ups), (left, ups[:1]), (right, ups[1:])):
        for p, c in part:
            target.update(p, c)
    reps = [rep for per_level in replicas(sk) for rep in per_level]
    for rep, entries in zip(reps, replica_views(sk, sk.counts, reps)):
        want_pts, want_nodes = {}, {}
        for p, c in {x: 3, y: 1, z: 2}.items():
            row = [c, c * int(charsets(rep)[0].eval(p) == 1)]
            key = node_key(sk.tree, rep, p)
            want_pts[(*key, _fp(rep, p))] = row
            want_nodes[key] = [a + b for a, b in zip(want_nodes.get(key, [0, 0]), row)]
        assert view_dict(entries) == want_pts
        view = stack_of(cfg, [rep.seed], [entries])
        assert view_dict(CountView(view.keys, view.node_rows)) == want_nodes
        assert dict(zip(map(tuple, view.keys.tolist()), view.nx.tolist())) == {
            k: r[0] for k, r in want_nodes.items()}
    left.merge(right)
    assert left.counts.to_bytes() == sk.counts.to_bytes()
    assert left.state_bytes() == sk.state_bytes()


def test_node_ids_above_2_63_stay_unsigned():
    """With a universe of 2^64 - 1 about half the node ids are 2^63 or more;
    they stay uint64, so the estimator decodes and serializes."""
    X = aggregate(gen_instance("uniform", 8, 8, seed=1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(n=8, d=8, samples=4, universe_m=2**64 - 1)), X)
    reps = [rep for per_level in replicas(sk) for rep in per_level]
    views = replica_views(sk, sk.counts, reps)
    keys = [k for points in views for k in points.keys.tolist()]
    assert min(min(k[:2]) for k in keys) >= 0
    assert max(max(k[:2]) for k in keys) >= 2**63
    assert stack_of(sk.cfg, [reps[0].seed], views[:1]).u.dtype == np.uint64
    assert len(sk.state_bytes()) > 0
    assert math.isfinite(sk.estimate())


def test_state_bytes_pinned_for_a_small_sketch():
    """The whole state of a one-point sketch: magic, version 2, kind 7, the
    shape words (seed, d, universe_m, samples), one store of width 1 with
    one row, its key word and its net count."""
    sk = MstSketch(small_cfg(n=4, seed=5, samples=3))
    sk.update(pt([1, 0, 0, 0, 0, 0, 0, 1]), 2)
    want = state_header(7, (5, 8, 64, 3)) + struct.pack("<IIBQq", 1, 1, 1, 0x81, 2)
    assert sk.state_bytes() == want


def test_merge_rejects_another_config():
    """Sketches of different configs do not merge."""
    sk = MstSketch(small_cfg())
    for other in (MstSketch(small_cfg(seed=2)), MstSketch(small_cfg(samples=5))):
        with pytest.raises(ValueError, match="different configs"):
            sk.merge(other)


@pytest.mark.parametrize("cfg", [
    MstSketchConfig(n=5, d=8),
    MstSketchConfig(n=9, d=16, seed=3, samples=4, j_reps=2, universe_m=1000),
])
def test_config_json_round_trip(cfg):
    """A config read back from its JSON form equals it, with the derived
    sample count and universe size written out."""
    text = cfg.to_json()
    assert MstSketchConfig.from_json(text) == cfg
    assert json.loads(text)["kind"] == "mst-config" and json.loads(text)["version"] == 1


def test_config_rejects_universe_of_one():
    """universe_m is 0 (about n^3) or at least 2, and the error names it."""
    assert MstSketchConfig(n=4, d=8, universe_m=2).universe_m == 2
    with pytest.raises(ValueError, match="'universe_m' must be 0 or at least 2, got 1"):
        MstSketchConfig(n=4, d=8, universe_m=1)


def test_config_rejects_n_beyond_stable_median_table():
    """n up to 2^25 (L = 25) is accepted; n = 2^25 + 1 needs L = 26, where
    median(|D_p|) is neither tabulated nor solvable, and is rejected when
    the config is made, naming the limit."""
    assert MstSketchConfig(n=2**25, d=8).L == 25
    with pytest.raises(ValueError, match=r"n <= 2\^25"):
        MstSketchConfig(n=2**25 + 1, d=8)


def test_views_equal_per_replica_ids_of_the_node_path(monkeypatch):
    """The stacked view of the samples of a level, or of samples of mixed
    levels, equals the one built with each sample's node ids written out
    from the node path of every point (`universe_ids`), bit for bit."""
    sk = feed(MstSketch(small_cfg(n=16, d=8)), random_multiset(16, 8, 5))
    per_level = replicas(sk)
    mixed = [per_level[0][0], per_level[-1][1], per_level[1][2]]
    fast = [[v.to_bytes() for v in replica_views(sk, sk.counts, reps)]
            for reps in [*per_level, mixed]]

    def per_replica_ids(path, levels, seeds, m):
        return tuple(np.stack([universe_ids(s, m, salt, path[:, i + k])
                               for i, s in zip(levels, seeds.tolist())])
                     for salt, k in ((0x0E0A, -1), (0x0E0B, 0)))

    monkeypatch.setattr(emd_sketch, "replica_node_ids", per_replica_ids)
    slow = [[v.to_bytes() for v in replica_views(sk, sk.counts, reps)]
            for reps in [*per_level, mixed]]
    assert fast == slow
