import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geosketch import (
    FAIL,
    CharacterSet,
    CountView,
    HypercubePoint,
    L0Sketch,
    aggregate,
    gen_instance,
    MstSketch,
    MstSketchConfig,
    PointMultiset,
    SparseCounts,
    exact_mst,
    reference_level_quantities,
    sample_quadtree,
    value_mst,
)
from geosketch import mst_sketch
from geosketch.mst_sketch import _LevelStack, _RepState, _character, _point_fps, _representative

from conftest import random_multiset, store_sizes, view_dict, view_of


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


def view_with_nodes(cfg, nodes, level=1, seed=7):
    """A one-sample level stack of a bare replica with prescribed (u, w) ->
    count nodes: each node holds one point entry of that net count and
    chi = -1."""
    points = SparseCounts(2)
    for (u, w), cnt in nodes.items():
        points.add((u, w, 1), np.array([cnt, 0]))
    view = _LevelStack([_RepState(cfg, level, seed)], [view_of(points, k=3)])
    assert dict(zip(map(tuple, view.keys.tolist()), view.nx.tolist())) == nodes
    return view


def _fp(rep, p):
    """The fingerprint of point p in a replica's point entries."""
    return int(_point_fps(np.uint64(rep.seed), [p.value])[0])


def _node_key(tree, rep, p):
    """The (u, w) id of p's node in a replica, from the tree path and the
    replica's universe map."""
    path = tree.node_path(p.bits()[None, :])[0]
    return int(rep.umap.u_of(path[rep.level - 1])[0]), int(rep.umap.w_of(path[rep.level])[0])


# -- reference quantities ----------------------------------------------------------


def test_reference_single_point():
    t = sample_quadtree(8, seed=2)
    X = PointMultiset(8)
    X.add(pt([0] * 8), 1)
    for i in range(1, t.h + 1):
        assert reference_level_quantities(t, X, i) == (1, 0.0)


def test_reference_two_points_after_split():
    d = 8
    x, y = pt([0] * d), pt([1] * d)
    X = PointMultiset.from_points([x, y])
    t = sample_quadtree(d, seed=3)
    from geosketch import lca_depth

    split = lca_depth(t, x, y)
    for i in range(split + 1, t.h + 1):
        ell, mu = reference_level_quantities(t, X, i)
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
        t = sample_quadtree(16, seed=s)
        total = 0.0
        for i in range(1, t.h + 1):
            ell, mu = reference_level_quantities(t, X, i)
            if ell > 1:
                total += ell * mu
        assert exact_mst(X) <= total + 1e-9


# -- parent recovery -----------------------------------------------------------------


def test_parent_recover_single_parent():
    cfg = small_cfg()
    assert view_with_nodes(cfg, {(5, 1): 3, (5, 2): 1}).parents()[0] == 5


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
        wins += view.parents()[0] == 1
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
        hits += view.parents()[0] == int(view.uu[int(np.argmax(scaled))])
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
    for kappa in range(view.cfg.kappa_max, -1, -1):
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
        for u in map(int, view.uu):
            want = _reference_scan(view, u)
            got = view.scan([u])[0]
            if want is FAIL:
                assert got is FAIL
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
        empty = [k for k in range(cfg.kappa_max, -1, -1)
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
    st = _RepState(cfg, level, seed)
    st.charset = charset or st.charset
    entries = SparseCounts(2)
    for key, p, c in points:
        entries.add((*key, _fp(st, p)), c * np.array([1, st.charset.eval(p) == 1]))
    stack = _LevelStack([st], [view_of(entries, k=3)])
    return st, stack, stack.witnesses(np.array([0]), stack.hk_v[:1], np.array([0]))[0]


def test_representative_singleton_found_at_eta_zero():
    cfg = small_cfg(n=8, d=8)
    x = pt([1, 0, 1, 0, 1, 0, 1, 0])
    st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1)])
    tok = _representative(fps)
    assert tok is not FAIL
    fp, eta = tok
    assert eta == 0
    assert fp == _fp(st, x)


def test_representative_two_points_balanced():
    cfg = small_cfg(n=8, d=8)
    x, y = pt([0] * 8), pt([1] * 8)
    hits = {0: 0, 1: 0}
    succ = 0
    for s in range(2500):
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1), ((1, 10), y, 1)], seed=s)
        tok = _representative(fps)
        if tok is FAIL:
            continue
        succ += 1
        hits[0 if tok[0] == _fp(st, x) else 1] += 1
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
        probe = _LevelStack([_RepState(cfg, 1, s)], [view_of(SparseCounts(2), k=3)])
        ws = np.arange(11, 1000, dtype=np.uint64)
        b_w = probe._buckets([0x9C00], 0, 0, probe._node_hash(np.uint64(1), ws, 0))
        b_v = probe._buckets([0x9C00], 0, 0, probe._node_hash(np.uint64(1), np.uint64(10), 0))
        other = (1, int(ws[np.argmax((b_w == b_v).any(axis=1))]))
        # v sorts before other, so its witnesses are those of the first node
        st, stack, fps = _witness_fixture(cfg, [(v, x, 1), (other, z, 1)], seed=s)
        fx, fz = _fp(st, x), _fp(st, z)
        assert _representative(fps) == (fx, 0)
        cnt, fs, _ = stack.witness_triples(np.array([0]), stack.hk_v[:1], np.array([0]))
        for eta in range(cfg.eta_max + 1):
            assert set(fps[0, eta].tolist()) <= {fx, 0}
            alien_alone += (1, fz) in zip(cnt[0, 0, eta].tolist(), fs[0, 0, eta].tolist())
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
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1), ((1, 10), y, 1)], seed=s,
                                      charset=CharacterSet(cfg.d, 0.5, s))
        tok = _representative(fps)
        if tok is FAIL:
            continue
        named = {_fp(st, x): x, _fp(st, y): y}[tok[0]]
        want = st.charset.eval(named)
        minus += want == -1
        agree += _character(fps, tok) == want
    assert agree >= 0.98 * trials, agree
    assert minus >= 0.2 * trials, minus


def test_char_of_representative_matches_direct_eval():
    cfg = small_cfg(n=8, d=8)
    x = pt([1, 1, 0, 0, 1, 0, 0, 1])
    agree = 0
    trials = 200
    for s in range(trials):
        st, _, fps = _witness_fixture(cfg, [((1, 10), x, 1)], seed=s)
        tok = _representative(fps)
        assert tok is not FAIL
        agree += _character(fps, tok) == st.charset.eval(x)
    assert agree >= 0.98 * trials, agree


# -- level estimates ---------------------------------------------------------------


def test_level_mu_identical_points_is_zero():
    cfg = small_cfg()
    X = PointMultiset(8)
    X.add(pt([0] * 8), 8)
    sk = feed(MstSketch(cfg), X)
    # every node holds one distinct point: chi values agree, mu = 0
    assert sk.level_mu(1) == 0.0


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
    from geosketch import lca_depth

    split = lca_depth(tree, *list(X.support())) + 1
    ell, mu_exact = reference_level_quantities(tree, X, split)
    assert ell == 2
    mu_hat = sk.level_mu(split)
    slack = d / 2**split + 6.0 / np.sqrt(64) / cfg.alpha(split)
    assert abs(mu_hat - mu_exact) <= slack, (mu_hat, mu_exact, slack)


def test_level_mu_clamped():
    cfg = small_cfg()
    X = random_multiset(8, 8, 17)
    sk = feed(MstSketch(cfg), X)
    for i in range(1, sk.h + 1):
        try:
            mu = sk.level_mu(i)
        except RuntimeError:
            continue
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
])
def test_estimate_bit_identical_to_pinned(kind, seed, n, d, want):
    """The decode is batched for speed only: the n=8 estimates are pinned to
    the values of the per-row, per-(kappa, j, side) loop it replaced, and
    the n=16 ones to those of the dict-store replica views, before the
    views became sorted arrays."""
    X = aggregate(gen_instance(kind, n, d, seed).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(n, d, seed=0)), X)
    assert sk.estimate().hex() == want


def test_level_stack_matches_samples_decoded_alone(monkeypatch):
    """The stacked stages of a level give every sample the u*, the
    (v*, v**) pair, and the tokens and characters of decoding that sample
    alone, also where its scan fails (one repetition per kappa makes that
    common). Splitting the draws into blocks of one or a few samples, or
    the level into several stacks, changes no value."""
    X = aggregate(gen_instance("uniform", 16, 16, 1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(16, 16, seed=0, samples=12, j_reps=1)), X)

    def keyed(stack, pairs):
        return [pair if pair is FAIL else tuple(tuple(stack.keys[v].tolist()) for v in pair)
                for pair in pairs]

    def decode(i):
        stack = _LevelStack(sk.reps[i - 1], sk.views(sk.reps[i - 1]))
        u_stars = stack.parents()
        return u_stars, keyed(stack, stack.scan(u_stars)), stack.sample_tuples()

    levels = (2, 3, 4)
    whole = {i: decode(i) for i in levels}
    scans = {"pair": 0, "fail": 0}
    for i in levels:
        for k, (rep, points) in enumerate(zip(sk.reps[i - 1], sk.views(sk.reps[i - 1]))):
            alone = _LevelStack([rep], [points])
            u_star, pair, tup = (stage[k] for stage in whole[i])
            assert alone.parents()[0] == u_star
            assert keyed(alone, alone.scan([u_star])) == [pair]
            assert alone.sample_tuples()[0] == tup
            scans["fail" if pair is FAIL else "pair"] += 1
    assert scans["pair"] > 0 and scans["fail"] > 0, scans
    mu = [sk.level_mu(i) for i in levels]
    for draws, words in ((1, 1), (2_000, 1_000)):
        monkeypatch.setattr(mst_sketch, "_BLOCK_DRAWS", draws)
        monkeypatch.setattr(mst_sketch, "_BLOCK_WORDS", words)
        assert {i: decode(i) for i in levels} == whole
        assert [sk.level_mu(i) for i in levels] == mu


def test_sketch_passes_one_level_to_each_views_call(monkeypatch):
    """estimate, level_mu, level_counts and l0 build the views of a level
    when they read it: no `views` call of the sketch gets the replicas of
    two levels, and every level is read. The estimate is the pinned one."""
    X = aggregate(gen_instance("uniform", 8, 8, 1).updates)["X"]
    sk = feed(MstSketch(MstSketchConfig(8, 8, seed=0)), X)
    levels, views = [], MstSketch.views

    def spy(self, reps):
        levels.append({rep.level for rep in reps})
        return views(self, reps)

    monkeypatch.setattr(MstSketch, "views", spy)
    assert sk.estimate().hex() == "0x1.b37caf8decf48p+6"
    sk.level_mu(2), sk.level_counts(), sk.l0
    assert all(len(lv) == 1 for lv in levels)
    assert set.union(*levels) == set(range(1, sk.h + 1))


def test_default_universe_fits_uint64():
    """The n^3 default is clamped to 2^64 - 1, so node ids can still be
    computed where n^3 overflows uint64; below that it is n^3."""
    assert MstSketchConfig(n=2_642_245, d=8).universe_m == 2_642_245**3
    cfg = MstSketchConfig(n=3_000_000, d=8)
    assert cfg.universe_m == 2**64 - 1
    st = _RepState(cfg, 1, 3)
    fps = np.array([[1, 2], [2**64 - 1, 0]], dtype=np.uint64)
    assert st.umap.u_of(fps).shape == (2,)
    assert st.umap.w_of(fps).shape == (2,)


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
    x = next(iter(X.support()))
    sk.update(x, -X.count(x))
    assert store_sizes(sk.state_bytes()) == [(1, len(X.support()) - 1)]


def test_l0_views_equal_fed_reference():
    """The per-level l0 sketch, built from the node counts of the level's
    first sample, equals an l0 sketch of the same seed fed ((u, w), +-delta)
    update by update, with the ids of the sample's universe map at the
    point's tree path (the same occupancy,
    state bytes and estimate): read after half of a
    turnstile stream with deletions and cancellations, and after the rest.
    The streams include nodes whose net count is 0 while their chi count is
    not, which the l0 sketch must not count."""
    zero_count_nodes = 0
    for s in range(4):
        rng = np.random.default_rng(s)
        # n = 2 puts alpha_i at 1/4, 1/2, 1, so points differ in chi
        sk = MstSketch(small_cfg(seed=s, n=2))
        fed = [SparseCounts() for _ in sk.l0]
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
                for f, per_level in zip(fed, sk.reps):
                    f.add(_node_key(sk.tree, per_level[0], p), c)
            fed_l0 = [L0Sketch(f, l0.seed, levels=l0.levels, buckets=l0.buckets)
                      for l0, f in zip(sk.l0, fed)]
            for l0, f in zip(sk.l0, fed_l0):
                assert np.array_equal(l0._materialize(), f._materialize())
                assert l0.counts.to_bytes() == f.counts.to_bytes()
            assert sk.level_counts() == [f.estimate() for f in fed_l0]
            zero_count_nodes += sum(
                int((_LevelStack([per_level[0]], [points]).nx == 0).sum())
                for per_level, points in zip(
                    sk.reps, sk.views([per_level[0] for per_level in sk.reps]))
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
    reps = [rep for per_level in sk.reps for rep in per_level]
    for rep, entries in zip(reps, sk.views(reps)):
        want_pts, want_nodes = {}, {}
        for p, c in {x: 3, y: 1, z: 2}.items():
            row = [c, c * int(rep.charset.eval(p) == 1)]
            key = _node_key(sk.tree, rep, p)
            want_pts[(*key, _fp(rep, p))] = row
            want_nodes[key] = [a + b for a, b in zip(want_nodes.get(key, [0, 0]), row)]
        assert view_dict(entries) == want_pts
        view = _LevelStack([rep], [entries])
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
    reps = [rep for per_level in sk.reps for rep in per_level]
    views = sk.views(reps)
    keys = [k for points in views for k in points.keys.tolist()]
    assert min(min(k[:2]) for k in keys) >= 0
    assert max(max(k[:2]) for k in keys) >= 2**63
    assert _LevelStack(reps[:1], views[:1]).u.dtype == np.uint64
    assert len(sk.state_bytes()) > 0
    assert math.isfinite(sk.estimate())


def test_config_rejects_n_beyond_stable_median_table():
    """n up to 2^25 (L = 25) is accepted; n = 2^25 + 1 needs L = 26, where
    median(|D_p|) is neither tabulated nor solvable, and is rejected when
    the config is made, naming the limit."""
    assert MstSketchConfig(n=2**25, d=8).L == 25
    with pytest.raises(ValueError, match=r"n <= 2\^25"):
        MstSketchConfig(n=2**25 + 1, d=8)


def test_views_fingerprint_only_the_depths_of_their_level(monkeypatch):
    """`views` fingerprints depths i - 1 and i for the replicas of level i,
    and its views equal those built from the whole node path of every
    point, bit for bit, also for replicas of mixed levels."""
    sk = feed(MstSketch(small_cfg(n=16, d=8)), random_multiset(16, 8, 5))
    depths = []
    node_fingerprints = sk.tree.node_fingerprints
    monkeypatch.setattr(sk.tree, "node_fingerprints",
                        lambda X, j: depths.append(j) or node_fingerprints(X, j))
    mixed = [sk.reps[0][0], sk.reps[-1][1], sk.reps[1][2]]
    fast = []
    for reps in [*sk.reps, mixed]:
        depths.clear()
        fast.append([v.to_bytes() for v in sk.views(reps)])
        want = {r.level + k for r in reps for k in (-1, 0)}
        assert sorted(depths) == sorted(want)

    def full_path_ids(tree, X, reps):
        path = tree.node_path(X)
        return (np.stack([r.umap.u_of(path[:, r.level - 1]) for r in reps]),
                np.stack([r.umap.w_of(path[:, r.level]) for r in reps]))

    monkeypatch.setattr(mst_sketch, "replica_node_ids", full_path_ids)
    slow = [[v.to_bytes() for v in sk.views(reps)] for reps in [*sk.reps, mixed]]
    assert fast == slow
