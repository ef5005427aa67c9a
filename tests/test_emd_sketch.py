import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geosketch import hashing as hx
from geosketch import (
    CauchyL1Sketch,
    CharacterSet,
    EmdOnePassSketch,
    EmdSketchConfig,
    EmdTwoPassSketch,
    HypercubePoint,
    PointMultiset,
    UniverseMap,
    exact_emd,
    gen_instance,
    reference_I_i,
    run_estimator,
    sample_quadtree,
    split_probability,
    SparseCounts,
)
from geosketch import emd_sketch
from geosketch.emd_sketch import expected_split_probability, log2n

from conftest import (
    FedL1Sampler, random_multiset, random_pair, reference_one_round_estimates, sampler_reads,
    store_sizes,
    view_of,
)


def pt(bits):
    return HypercubePoint.from_bits(bits)


def pm(*points):
    return PointMultiset.from_points(points)


def charset_with_mask(d, mask):
    cs = CharacterSet(d, 0.0, seed=0)
    cs.mask = mask
    cs.indices = np.array(
        [k for k in range(d) if (mask >> (d - 1 - k)) & 1], dtype=np.int64
    )
    return cs


# -- characters -----------------------------------------------------------------


def test_char_empty_set_is_plus_one():
    cs = CharacterSet(8, 0.0, seed=1)
    assert cs.mask == 0
    for v in range(16):
        assert cs.eval(HypercubePoint(8, v)) == 1


def test_char_single_coordinate():
    d = 4
    cs = charset_with_mask(d, 1 << (d - 1))  # S = {first coordinate}
    assert cs.eval(pt([1, 0, 0, 0])) == -1
    assert cs.eval(pt([0, 1, 1, 1])) == 1


def test_char_identity(rng):
    d = 12
    for _ in range(50):
        cs = CharacterSet(d, 0.4, seed=int(rng.integers(1 << 30)))
        x, y = int(rng.integers(1 << d)), int(rng.integers(1 << d))
        px, py = HypercubePoint(d, x), HypercubePoint(d, y)
        pxy = HypercubePoint(d, x ^ y)
        assert cs.eval(px) * cs.eval(py) == cs.eval(pxy)


def test_char_matrix_agrees_with_scalar(rng):
    d = 10
    cs = CharacterSet(d, 0.5, seed=3)
    X = rng.integers(0, 2, size=(20, d)).astype(np.uint8)
    vec = cs.eval_matrix(X)
    for r in range(20):
        assert vec[r] == cs.eval(HypercubePoint.from_bits(X[r]))


# -- split probability -------------------------------------------------------------


def test_split_probability_empty_set_and_identical():
    cs = CharacterSet(8, 0.0, seed=5)
    x = pt([1, 0, 1, 0, 1, 0, 1, 0])
    assert split_probability(pm(x), pm(x), cs) == 0.0
    cs2 = CharacterSet(8, 0.7, seed=6)
    assert split_probability(pm(x), pm(x), cs2) == 0.0


def test_split_probability_empty_population():
    cs = CharacterSet(4, 0.5, seed=7)
    assert split_probability(pm(pt([0, 0, 0, 0])), PointMultiset(4), cs) == 0.0


def test_split_probability_four_counter_identity(rng):
    """p equals q_u(1-q_v) + q_v(1-q_u) with q the chi=+1 fractions, and
    equals the empirical disagreement frequency."""
    d = 8
    A = random_multiset(6, d, 1)
    B = random_multiset(5, d, 2)
    cs = CharacterSet(d, 0.4, seed=8)
    p = split_probability(A, B, cs)
    # brute-force over the product population
    tot = hits = 0
    for a, ca in A.items():
        for b, cb in B.items():
            tot += ca * cb
            hits += ca * cb * (cs.eval(a) != cs.eval(b))
    assert p == pytest.approx(hits / tot)


def test_claim_expected_split_prob_sandwich():
    """alpha ||a-b||_1 / 2 <= E_S[p] <= alpha ||a-b||_1 over sampled S, for
    distances within the level's scale regime."""
    d = 64
    rng = np.random.default_rng(9)
    a_bits = rng.integers(0, 2, d)
    for dist in (1, 3, 7):
        b_bits = a_bits.copy()
        b_bits[rng.choice(d, size=dist, replace=False)] ^= 1
        a, b = HypercubePoint.from_bits(a_bits), HypercubePoint.from_bits(b_bits)
        alpha = 1.0 / 16  # alpha * dist <= 1/2: inside the regime
        emp = 0.0
        trials = 10_000
        for s in range(trials):
            cs = CharacterSet(d, alpha, seed=s)
            emp += split_probability(pm(a), pm(b), cs)
        emp /= trials
        assert alpha * dist / 2 - 0.01 <= emp <= alpha * dist + 0.01
        # closed form agrees with the Monte Carlo
        closed = expected_split_probability(
            np.array([[float(dist)]]), np.array([[1.0]]), alpha
        )
        assert emp == pytest.approx(closed, abs=0.01)


# -- universe reduction ----------------------------------------------------------


def test_universe_map_injective_on_nonempty_nodes():
    """Collisions on <= 2n^2/m budget: with m = n^3 none are expected on a
    small instance; checked directly."""
    n, d = 64, 32
    X = random_multiset(n, d, 3)
    tree = sample_quadtree(d, seed=4)
    from geosketch.points import points_to_matrix

    mat, _ = points_to_matrix(X)
    umap = UniverseMap(n**3, seed=11)
    for depth in range(tree.h + 1):
        fps = np.unique(tree.node_fingerprints(mat, depth), axis=0)
        ids = umap.u_of(fps)
        assert len(np.unique(ids)) == len(fps)


def test_default_universe_fits_uint64():
    """The n^3 default is clamped to 2^64 - 1, so node ids can still be
    computed where n^3 overflows uint64; below that it is n^3."""
    assert EmdSketchConfig(n=2_642_245, d=8).universe_m == 2_642_245**3
    cfg = EmdSketchConfig(n=3_000_000, d=8)
    assert cfg.universe_m == 2**64 - 1
    fps = np.array([[1, 2], [2**64 - 1, 0]], dtype=np.uint64)
    for ids in (UniverseMap(cfg.universe_m, 5).u_of(fps), UniverseMap(cfg.universe_m, 5).w_of(fps)):
        assert ids.shape == (2,)


# -- reference I_i ------------------------------------------------------------------


def test_reference_zero_cases():
    d = 16
    A = random_multiset(8, d, 5)
    tree = sample_quadtree(d, seed=6)
    for i in range(1, tree.h + 1):
        assert reference_I_i(tree, A, A, i) == 0.0


def test_reference_sum_sandwiches_emd():
    """EMD <= sum_i I_i for >= 85% of (instance, tree) pairs, and the sum is
    within a generous log-factor above."""
    lo = hi = 0
    trials = 40
    for s in range(trials):
        A, B = random_pair(12, 16, s)
        tree = sample_quadtree(16, seed=1000 + s)
        total = sum(reference_I_i(tree, A, B, i) for i in range(1, tree.h + 1))
        emd = exact_emd(A, B)
        lo += total >= emd
        hi += total <= 60 * log2n(12) * max(emd, 1)
    assert lo >= 0.85 * trials, lo
    assert hi >= 0.85 * trials, hi


# -- two-round sketch ------------------------------------------------------------


def test_two_round_estimate_matches_exact_p():
    """Round 2's four counters give the exact split probability for the
    sampled edge, on every character set of a two-pass replica."""
    d = 8
    rng = np.random.default_rng(15)
    # n = 2 gives alpha = 1/2 at level 2, so the characters are not trivial
    cfg = EmdSketchConfig(n=2, d=d, seed=16, n_sets=4)
    rep = EmdTwoPassSketch(cfg).replicas[1][0]

    def row(p, label):
        chi_plus = [cs.eval(p) == 1 for cs in rep.charsets]
        return np.array([label == "A", label == "B", *chi_plus], dtype=np.int64)

    # two children under one parent, known populations
    popA = [pt(rng.integers(0, 2, d)) for _ in range(4)]
    popB = [pt(rng.integers(0, 2, d)) for _ in range(3)]
    pass1 = SparseCounts(2 + cfg.n_sets)
    pass1.add((1, 2), 4 * row(popA[0], "A"))
    rep.finalize_pass1(view_of(pass1))
    assert set(rep.sampled.values()) == {(1, 2)}
    pass2 = SparseCounts(2 + cfg.n_sets)
    for p in popA:
        pass2.add((1, 2), row(p, "A"))
    for p in popB:
        pass2.add((1, 3), row(p, "B"))  # sibling: counts to C_u only
    want = [split_probability(pm(*popA, *popB), pm(*popA), cs) for cs in rep.charsets]
    assert any(want)
    assert rep.two_round_estimates(view_of(pass2)) == pytest.approx(want)


# -- one-round LS1/LS2/LS3 ---------------------------------------------------------


def _replica_with_counts(counts, n=64, d=16, seed=0, **cfg_kw):
    """A level-1 replica and a view of its counts with the given rows."""
    cfg = EmdSketchConfig(n=n, d=d, seed=seed, **cfg_kw)
    rep = EmdOnePassSketch(cfg).replicas[0][0]
    view = SparseCounts(2 + cfg.n_sets)
    for key, (na, nb, chi_plus) in counts.items():
        row = np.zeros(2 + cfg.n_sets, dtype=np.int64)
        row[0], row[1] = na, nb
        row[2:] = chi_plus
        view.add(key, row)
    return rep, view_of(view)


def test_ls1_single_parent():
    rep, view = _replica_with_counts({(3, 1): (2, 0, 1)})
    dec = rep.decoder(view)
    assert dec.uu[dec.ls1()] == 3


def test_ls1_dominant_parent_with_unit_scalings():
    """P ratio 100:1 at t = (1,1): the heavier parent wins."""
    wins = 0
    trials = 60
    for s in range(trials):
        rep, view = _replica_with_counts(
            {(1, 10): (100, 0, 50), (2, 20): (1, 0, 1)}, seed=s, ls1_reps=6
        )
        dec = rep.decoder(view, t_u=np.ones(2), t_v=np.ones(2))
        wins += dec.uu[dec.ls1()] == 1
    assert wins >= 0.99 * trials, wins


def test_ls2_returns_child_of_given_parent():
    rep, view = _replica_with_counts(
        {(1, 10): (5, 0, 2), (1, 11): (1, 0, 1), (2, 20): (50, 0, 10)}
    )
    dec = rep.decoder(view)
    u_idx = int(np.nonzero(dec.uu == 1)[0][0])
    v_idx = dec.ls2(u_idx)
    assert dec.u_inv[v_idx] == u_idx


def test_ls2_recovers_dominant_child():
    wins = 0
    trials = 60
    for s in range(trials):
        rep, view = _replica_with_counts(
            {(1, 10): (100, 0, 40), (1, 11): (1, 0, 0)}, seed=s
        )
        dec = rep.decoder(view, t_u=np.ones(1), t_v=np.ones(2))
        v_idx = dec.ls2(0)
        wins += (rep.vectors(view)[1][v_idx]) == 10
    assert wins >= 0.99 * trials, wins


def test_ls2_takes_the_first_of_equal_children():
    """Two children with the same Q_v at unit scalings get the same
    Count-Sketch estimate; LS2 returns the first of them in node order, as
    the per-decoder loop did."""
    for s in range(10):
        rep, view = _replica_with_counts({(1, 10): (5, 0, 2), (1, 11): (5, 0, 3)}, seed=s)
        dec = rep.decoder(view, t_u=np.ones(1), t_v=np.ones(2))
        assert dec.ls2(0)[0] == 0


def test_ls3_all_identical_points_gives_zero():
    # every point has chi = +1: q_u = q_v = 1 so p = 0
    rep, view = _replica_with_counts({(1, 10): (4, 4, 8)})
    dec = rep.decoder(view, t_u=np.ones(1), t_v=np.ones(1))
    assert dec.ls3(0) == pytest.approx(0.0, abs=0.05)


def test_ls3_known_half_split():
    """Hand-built 2-node instance with p = 0.5: parent has q_u = 1/2 and the
    child is pure chi=+1, so p = 1/2."""
    vals = []
    for s in range(40):
        rep, view = _replica_with_counts(
            {(1, 10): (8, 0, 8), (1, 11): (8, 0, 0)}, seed=s,
            cs_buckets=512,
        )
        dec = rep.decoder(view, t_u=np.ones(1), t_v=np.ones(2))
        v_idx = int(np.nonzero(rep.vectors(view)[1] == 10)[0][0])
        vals.append(dec.ls3(v_idx))
    # tau at this config is coarse; the mean lands near 0.5
    assert np.mean(vals) == pytest.approx(0.5, abs=0.1)


def test_ls3_clamps_to_unit_interval():
    rng = np.random.default_rng(18)
    for s in range(25):
        counts = {
            (int(rng.integers(1, 5)), int(rng.integers(10, 20))): (
                int(rng.integers(0, 6)),
                int(rng.integers(0, 6)),
                int(rng.integers(0, 6)),
            )
            for _ in range(6)
        }
        counts = {k: v for k, v in counts.items() if v[0] + v[1] > 0}
        if not counts:
            continue
        rep, view = _replica_with_counts(counts, seed=s)
        dec = rep.decoder(view)
        for v_idx in range(len(rep.vectors(view)[0])):
            assert 0.0 <= dec.ls3(v_idx) <= 1.0


def _instance_views(cfg, kind="matched_noise", seed=1):
    """(replica, view) of every replica of a one-pass sketch of the instance
    gen_instance(kind, cfg.n, cfg.d, seed)."""
    sk = EmdOnePassSketch(cfg)
    for u in gen_instance(kind, cfg.n, cfg.d, seed=seed).updates:
        sk.update(u.point, u.label, u.sign)
    return [(rep, v) for per_level, views in zip(sk.replicas, sk.views(sk.counts))
            for rep, v in zip(per_level, views)]


_GRID_VARIANT = dict(n_sets=3, n_inner=2, n_rounds=9, n_medreps=3, ls1_reps=3)


@pytest.mark.parametrize("case,block_words", [
    ("seed1", None), ("seed2", None),
    ("variant", 1), ("variant", None), ("variant", 10**9),
    ("one-node", None), ("empty", None),
])
def test_one_round_grid_matches_reference(monkeypatch, case, block_words):
    """The blocked grid decode equals the per-decoder reference loop bit for
    bit: on every replica of matched_noise n=64 d=32 (seeds 1-2), with two
    inner copies, three LS repetitions, three LS1 repetitions and nine
    rounds at one cell per block, the default blocks and one block, and on
    a one-node and an empty view."""
    if block_words is not None:
        monkeypatch.setattr(emd_sketch, "_LS_BLOCK_WORDS", block_words)
    if case.startswith("seed"):
        pairs = _instance_views(EmdSketchConfig(n=64, d=32), seed=int(case[-1]))
    elif case == "variant":
        pairs = _instance_views(EmdSketchConfig(n=64, d=32, **_GRID_VARIANT))
    else:
        counts = {(3, 1): (2, 0, 1)} if case == "one-node" else {}
        pairs = [_replica_with_counts(counts, **_GRID_VARIANT)]
    for rep, view in pairs:
        got = rep.one_round_estimates(view)
        assert [x.hex() for x in got] == [x.hex() for x in reference_one_round_estimates(rep, view)]
    assert case != "empty" or got == [0.0] * _GRID_VARIANT["n_sets"]


# -- exponential selection law (two-stage equivalence) --------------------------------


def test_joint_parent_child_law_tv():
    """(u*, v*) defined by argmax P_u/t_u then argmax Q_v/t_v among children
    matches the two-stage law u ~ P_u/Delta, v|u ~ Q_v/P_u."""
    P = {1: 6.0, 2: 3.0, 3: 1.0}
    Q = {(1, 0): 4.0, (1, 1): 2.0, (2, 0): 2.0, (2, 1): 1.0, (3, 0): 1.0}
    delta = sum(P.values())
    trials = 40_000
    rng = np.random.default_rng(19)
    keys = list(Q.keys())
    counts = {k: 0 for k in keys}
    for _ in range(trials):
        tu = {u: rng.exponential() for u in P}
        tv = {k: rng.exponential() for k in keys}
        u_star = max(P, key=lambda u: P[u] / tu[u])
        v_star = max(
            (k for k in keys if k[0] == u_star), key=lambda k: Q[k] / tv[k]
        )
        counts[v_star] += 1
    tv_dist = 0.5 * sum(
        abs(counts[k] / trials - Q[k] / delta) for k in keys
    )
    assert tv_dist < 0.03, tv_dist


def test_event_frequencies_with_exact_side_computations():
    """E1 ^ E2 ^ E3 ^ E4 (explicit constants from the event figure) hold with
    frequency >= 1 - 16 gamma - 6 exp(-beta/8) - slack."""
    gamma, beta = 0.02, 64
    P = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.15, 0.1])
    children = [(u, c) for u in range(8) for c in range(2)]
    Q = np.array([P[u] / 2 for u, _ in children])
    C_u = 4 * P
    C_v = np.array([C_u[u] / 2 for u, _ in children])
    n = C_u.sum()
    delta = P.sum()
    rng = np.random.default_rng(20)
    ok = 0
    trials = 3000
    log_term = 4 * math.log(len(P) / gamma) / gamma
    for _ in range(trials):
        tu = rng.exponential(size=len(P))
        tv = rng.exponential(size=len(children))
        pu, qv = P / tu, Q / (tu[[u for u, _ in children]] * tv)
        i_star = np.argmax(pu)
        e1 = (
            pu.sum() <= log_term * delta
            and pu[i_star] >= gamma * delta
            and pu[i_star] >= (1 + gamma) * np.max(np.delete(pu, i_star))
        )
        kids = [j for j, (u, _) in enumerate(children) if u == i_star]
        j_star = kids[int(np.argmax(qv[kids]))]
        others = [j for j in kids if j != j_star]
        e2 = (
            qv.sum() <= log_term * pu.sum()
            and qv[j_star] >= gamma * pu[i_star]
            and (not others or qv[j_star] >= (1 + gamma) * np.max(qv[others]))
        )
        cu_scaled = C_u / tu
        from geosketch import tail_truncated_norms

        e3 = (
            cu_scaled.sum() <= log_term * n
            and tail_truncated_norms(cu_scaled, beta)[0] <= 12 * n / math.sqrt(beta)
        )
        cv_scaled = C_v / (tu[[u for u, _ in children]] * tv)
        e4 = tail_truncated_norms(cv_scaled, beta)[0] <= (
            12 / math.sqrt(beta)
        ) * cu_scaled.sum()
        ok += e1 and e2 and e3 and e4
    freq = ok / trials
    bound = 1 - 16 * gamma - 6 * math.exp(-beta / 8) - 0.03
    assert freq >= bound, (freq, bound)


# -- end-to-end branches --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_cfg():
    return EmdSketchConfig(
        n=8, d=8, eps=0.1, seed=23, n_sets=6, n_inner=1, n_rounds=4
    )


def test_one_pass_equal_sets_gives_additive_term(small_cfg):
    A = random_multiset(8, 8, 30)
    sk = EmdOnePassSketch(small_cfg)
    for p, c in A.items():
        sk.update(p, "A", c)
        sk.update(p, "B", c)
    assert sk.estimate() == pytest.approx(small_cfg.eps * 8 * 8)


def test_two_pass_equal_sets_gives_zero(small_cfg):
    A = random_multiset(8, 8, 31)
    sk = EmdTwoPassSketch(small_cfg)
    for p, c in A.items():
        sk.update(p, "A", c)
        sk.update(p, "B", c)
    sk.finalize_pass1()
    for p, c in A.items():
        sk.update_pass2(p, "A", c)
        sk.update_pass2(p, "B", c)
    assert sk.estimate() == 0.0


def test_unbalanced_stream_raises(small_cfg):
    sk = EmdOnePassSketch(small_cfg)
    sk.update(pt([0] * 8), "A")
    with pytest.raises(ValueError):
        sk.estimate()


def test_one_pass_permutation_invariance(small_cfg):
    A, B = random_pair(8, 8, 33)
    updates = [(p, "A", c) for p, c in A.items()] + [(p, "B", c) for p, c in B.items()]
    sk1 = EmdOnePassSketch(small_cfg)
    for p, l, c in updates:
        sk1.update(p, l, c)
    sk2 = EmdOnePassSketch(small_cfg)
    for p, l, c in reversed(updates):
        sk2.update(p, l, c)
    assert sk1.state_bytes() == sk2.state_bytes()
    assert sk1.estimate() == sk2.estimate()


_SPLIT_PTS = [pt(b) for b in np.random.default_rng(34).integers(0, 2, (6, 8))]


@settings(max_examples=25, deadline=None)
@example(ups=[(1, "A", 1), (2, "B", 1), (0, "A", 2), (0, "A", -2)], cut=3)
@given(
    ups=st.lists(st.tuples(st.integers(0, 5), st.sampled_from("AB"),
                           st.sampled_from([-3, -1, 1, 2])), max_size=14),
    cut=st.integers(0, 16),
)
def test_one_pass_split_merge_bit_identical(small_cfg, ups, cut):
    """A turnstile stream with deletions, closed so that |A| = |B| and split
    at any point: the merged halves give the state bytes and the estimate of
    the whole stream, bit for bit. The example's halves cancel point 0 to
    net zero."""
    net = sum(c if label == "A" else -c for _, label, c in ups)
    ups = ups + ([(3, "B" if net > 0 else "A", abs(net))] if net else [])
    cut = min(cut, len(ups))
    whole, left, right = (EmdOnePassSketch(small_cfg) for _ in range(3))
    for sk, part in ((whole, ups), (left, ups[:cut]), (right, ups[cut:])):
        for i, label, c in part:
            sk.update(_SPLIT_PTS[i], label, c)
    left.merge(right)
    assert left.state_bytes() == whole.state_bytes()
    assert left.estimate().hex() == whole.estimate().hex()


def test_state_holds_one_entry_per_distinct_point():
    """The serialized state is one store with one [net A, net B] row per
    distinct point of non-zero net: replicas add no entries, and a point
    whose updates cancel leaves none."""
    p = [pt(b) for b in ([0] * 8, [1] * 8, [1, 0] * 4, [0, 1] * 4, [1, 1, 0, 0] * 2)]
    ups = [(p[0], "A", 2), (p[1], "B", 1), (p[2], "A", 1), (p[3], "B", 3),
           (p[2], "A", -1), (p[4], "A", 1), (p[4], "B", -1)]  # p[2] cancels
    cfg = EmdSketchConfig(n=3, d=8, seed=3, level_reps=3)
    for cls in (EmdOnePassSketch, EmdTwoPassSketch):
        sk = cls(cfg)
        for q, label, c in ups:
            sk.update(q, label, c)
        assert store_sizes(EmdOnePassSketch.state_bytes(sk)) == [(2, 4)]


def _two_pass(cfg, updates, pass1_order):
    sk = EmdTwoPassSketch(cfg)
    for p, l, c in pass1_order:
        sk.update(p, l, c)
    sk.finalize_pass1()
    for p, l, c in updates:
        sk.update_pass2(p, l, c)
    return sk


def _sampler_bytes(sk):
    return [
        {jc: smp.state_bytes() for jc, smp in rep.samplers.items()}
        for per_level in sk.replicas
        for rep in per_level
    ]


def test_two_pass_permutation_invariance(small_cfg):
    A, B = random_pair(8, 8, 35)
    updates = [(p, "A", c) for p, c in A.items()] + [(p, "B", c) for p, c in B.items()]
    sk1 = _two_pass(small_cfg, updates, updates)
    sk2 = _two_pass(small_cfg, updates, updates[::-1])
    assert _sampler_bytes(sk1) == _sampler_bytes(sk2)
    assert sk1.estimate() == sk2.estimate()


@pytest.mark.parametrize("passes,seed,n,d,want", [
    pytest.param(1, 1, 16, 16, "0x1.4c657a8cde545p+8", id="1-1-0x1.4c657a8cde545p+8"),
    pytest.param(2, 1, 16, 16, "0x1.0c4db4440299bp+8", id="2-1-0x1.0c4db4440299bp+8"),
    pytest.param(2, 2, 16, 16, "0x1.0000c0f20eae1p+8", id="2-2-0x1.0000c0f20eae1p+8"),
    (1, 1, 64, 32, "0x1.082df6a5a381ep+12"),
    (1, 2, 64, 32, "0x1.16bea25a84d6cp+12"),
    (2, 1, 64, 32, "0x1.f551520a864fcp+11"),
    (2, 2, 64, 32, "0x1.b467e9eb9f09cp+11"),
])
def test_estimate_bit_identical_to_pinned(passes, seed, n, d, want):
    """Pinned to the estimates of the replicas that fed the Delta-hat sketch
    and every round-one sampler on each update, before those became views
    of the replica counts; the n=64 d=32 one-pass pins are those of the
    per-decoder LS loop, before the grid decode, and the two-pass ones
    those of the dict-store views, before the views became sorted arrays."""
    updates = gen_instance("matched_noise", n, d, seed=seed).updates
    assert run_estimator(updates, "emd", passes=passes).estimate.hex() == want


def _turnstile_stream(rng, d, n_updates):
    """Labelled updates over a few points with deletions, the negations of
    the first three updates, and one closing update that makes |A| = |B|."""
    pts = [pt(rng.integers(0, 2, d)) for _ in range(6)]
    ups = [
        (pts[rng.integers(len(pts))], "AB"[rng.integers(2)], int(rng.choice([-3, -1, 1, 2])))
        for _ in range(n_updates)
    ]
    ups += [(p, l, -c) for p, l, c in ups[:3]]
    net = sum(c if l == "A" else -c for _, l, c in ups)
    if net:
        ups.append((pts[0], "B" if net > 0 else "A", abs(net)))
    return ups


def _node_key(tree, rep, p):
    """The (u, w) id of p's node in a replica, from the tree path and the
    replica's universe map."""
    path = tree.node_path(p.bits()[None, :])[0]
    return int(rep.umap.u_of(path[rep.level - 1])[0]), int(rep.umap.w_of(path[rep.level])[0])


def test_replica_views_equal_fed_reference():
    """Every replica's view of the counts equals a count store fed (key,
    delta * row) update by update, and the Delta-hat sketch and every
    round-one sampler built from it equal a Cauchy sketch of the same seed
    over a store fed (key, +-delta) and references fed the same (the same
    materialized accumulators and tables, counts and samples): read after
    half the stream, after the rest, and by a second finalize_pass1."""
    for s in range(4):
        cfg = EmdSketchConfig(n=8, d=8, seed=s, n_sets=3, n_inner=2)
        sk = EmdTwoPassSketch(cfg)
        reps = [rep for per_level in sk.replicas for rep in per_level]
        fed, fed_counts = [], [SparseCounts(2 + cfg.n_sets) for _ in reps]
        for rep in reps:
            rep.finalize_pass1(view_of(SparseCounts(2 + cfg.n_sets)))
            fed.append((SparseCounts(),
                        {jc: FedL1Sampler.like(smp) for jc, smp in rep.samplers.items()}))
        ups = _turnstile_stream(np.random.default_rng(s), cfg.d, 30)
        cut = len(ups) // 2
        for part in (ups[:cut], ups[cut:]):
            for p, label, c in part:
                sk.update(p, label, c)
                for rep, counts, (delta, smps) in zip(reps, fed_counts, fed):
                    key = _node_key(sk.tree, rep, p)
                    chi_plus = [cs.eval(p) == 1 for cs in rep.charsets]
                    counts.add(key, c * np.array([label == "A", label == "B", *chi_plus]))
                    delta.add(key, c if label == "A" else -c)
                    for f in smps.values():
                        f.update(key, c if label == "A" else -c)
            views = [v for per_level in sk.views(sk.counts) for v in per_level]
            assert [v.to_bytes() for v in views] == [c.to_bytes() for c in fed_counts]
            for rep, view, (delta, smps) in zip(reps, views, fed):
                rep.finalize_pass1(view)
                fed_delta = CauchyL1Sketch(delta, rep.delta.s, rep.delta.seed)
                assert np.array_equal(rep.delta._materialize(), fed_delta._materialize())
                assert rep.delta.counts.to_bytes() == delta.to_bytes()
                assert rep.delta.estimate() == fed_delta.estimate()
                for jc, f in smps.items():
                    table, l1 = sampler_reads(rep.samplers[jc])
                    assert np.array_equal(table, f.count_sketch()._materialize())
                    assert np.array_equal(l1, f.l1()._materialize())
                got = {jc: smp.counts.to_bytes() for jc, smp in rep.samplers.items()}
                assert got == {jc: f.x.to_bytes() for jc, f in smps.items()}
        sk.finalize_pass1()
        sampled = [dict(rep.sampled) for rep in reps]
        assert sampled == [{jc: f.sample() for jc, f in smps.items()} for _, smps in fed]
        sk.finalize_pass1()
        assert [dict(rep.sampled) for rep in reps] == sampled


def test_node_ids_above_2_63_stay_unsigned():
    """With a universe of 2^64 - 1 about half the node ids are 2^63 or more;
    they stay uint64, so both estimators decode and serialize."""
    updates = gen_instance("matched_noise", 8, 8, seed=1).updates
    nets = {"A": {}, "B": {}}
    for u in updates:
        nets[u.label][u.point] = nets[u.label].get(u.point, 0) + u.sign
    cfg = EmdSketchConfig(n=8, d=8, universe_m=2**64 - 1)
    for cls in (EmdOnePassSketch, EmdTwoPassSketch):
        sk = cls(cfg)
        for label in ("A", "B"):
            for p, c in nets[label].items():
                sk.update(p, label, c)
        views = sk.views(sk.counts)
        keys = [k for per_level in views for v in per_level for k in v.keys.tolist()]
        assert min(min(k) for k in keys) >= 0
        assert max(max(k) for k in keys) >= 2**63
        assert sk.replicas[-1][0].vectors(views[-1][0])[0].dtype == np.uint64
        assert len(EmdOnePassSketch.state_bytes(sk)) > 0
        if cls is EmdTwoPassSketch:
            sk.finalize_pass1()
            for label in ("A", "B"):
                for p, c in nets[label].items():
                    sk.update_pass2(p, label, c)
        assert math.isfinite(sk.estimate())
