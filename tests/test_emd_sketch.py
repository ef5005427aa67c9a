import hashlib
import inspect
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geosketch import hashing as hx
from geosketch import (
    EmdOnePassSketch,
    EmdSketchConfig,
    EmdTwoPassSketch,
    HypercubePoint,
    MstSketch,
    MstSketchConfig,
    PointMultiset,
    aggregate,
    exact_emd,
    gen_instance,
    run_estimator,
    sample_quadtree,
    SparseCounts,
    cauchy_l1,
)
from geosketch import emd_sketch
from geosketch.emd_sketch import log2n, replica_node_ids
from geosketch.offline import LevelDecomposition, expected_split_probability
from geosketch.quadtree import QuadtreeSpec

from conftest import (
    assert_view_is, random_multiset, random_pair, replica_views, replicas, sampler_reads,
    state_header, store_sizes,
)
from reference import _cs_coords as ref_cs_coords
from reference import (
    CharacterSet, FedL1Sampler, add_count, charsets, dict_view, node_key,
    reference_one_round_estimates, reference_two_round_estimates, split_probability,
    tail_truncated_norms, tally, universe_ids,
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


def test_char_matrix_agrees_with_scalar(rng, monkeypatch):
    """`chi_plus` equals the scalar character of the same seed and rate on
    every point, for sets without members, with every member, and between,
    also where the sets are drawn in blocks of one set."""
    d = 10
    X = rng.integers(0, 2, size=(20, d)).astype(np.uint8)
    seeds = np.array([[3, 4], [5, 6], [7, 8]], dtype=np.uint64)
    rates = np.array([[0.0], [0.5], [1.0]])
    plus = emd_sketch.chi_plus(X, seeds, rates)
    assert plus.shape == (3, 2, 20) and plus[0].all()
    assert emd_sketch.chi_plus(X[:0], seeds, rates).shape == (3, 2, 0)
    for (a, b), s in np.ndenumerate(seeds):
        cs = CharacterSet(d, float(rates[a, 0]), seed=int(s))
        for r in range(20):
            assert plus[a, b, r] == (cs.eval(HypercubePoint.from_bits(X[r])) == 1)
    monkeypatch.setattr(emd_sketch, "_CHAR_BLOCK_WORDS", 1)
    assert np.array_equal(emd_sketch.chi_plus(X, seeds, rates), plus)


@pytest.mark.parametrize("cls", [EmdOnePassSketch, EmdTwoPassSketch, MstSketch])
def test_sketch_is_a_function_of_its_config(cls, monkeypatch):
    """A sketch takes only its config. It keeps the seeds of each level i,
    the uint64 array of combine(cfg.seed, salt, i, r) over the replicas
    r. An EMD sketch builds one replica per seed, holding its config, level
    and seed, its two-pass state (empty before pass 1) and no character
    set; an MST sketch keeps no replica objects. Construction hashes once
    for the tree and once per level, whatever the number of replicas."""
    assert list(inspect.signature(cls).parameters) == ["cfg"]
    emd = cls is not MstSketch
    salt, state = 0x33, set()
    if emd:
        salt, state = 0x11, {"delta", "samplers", "sampled", "pass2_counters"}
    calls = []
    combine = hx.combine
    monkeypatch.setattr(hx, "combine", lambda *a: calls.append(a) or combine(*a))
    for count in (1, 5):
        calls.clear()
        cfg = (EmdSketchConfig(n=16, d=16, seed=3, level_reps=count) if emd
               else MstSketchConfig(n=16, d=16, seed=3, samples=count))
        sk = cls(cfg)
        assert len(calls) == sk.h + 1
        for i, seeds in enumerate(sk.seeds, start=1):
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [int(combine(3, salt, i, r)[()]) for r in range(count)]
        assert hasattr(sk, "replicas") == emd
        for i, per_level in enumerate(sk.replicas if emd else [], start=1):
            assert [rep.seed for rep in per_level] == sk.seeds[i - 1].tolist()
            for rep in per_level:
                assert set(vars(rep)) == {"cfg", "level", "seed"} | state
                assert (rep.cfg, rep.level) == (cfg, i)
                assert not any(isinstance(v, CharacterSet) for v in vars(rep).values())


@pytest.mark.parametrize("d", [16, 64, 256, 1024])
def test_views_draw_the_scalar_character_sets(d):
    """The characters a view counts are those of the scalar
    `CharacterSet(d, alpha_i, seed')` of every replica, point by point: a
    store of one point adds chi-plus of that point under every set, for
    EMD (sets j of seed' combine(seed, 0xC4, j)) and MST (one set of seed'
    combine(seed, 0xC4)). The sets are drawn at rates up to 1/2."""
    rng = np.random.default_rng(d)
    for sk in (EmdOnePassSketch(EmdSketchConfig(n=4, d=d, seed=2)),
               MstSketch(MstSketchConfig(n=4, d=d, seed=2))):
        reps = [rep for per_level in replicas(sk) for rep in per_level]
        sets = [charsets(rep) for rep in reps]
        for _ in range(3):
            p = HypercubePoint.from_bits(rng.integers(0, 2, d))
            width = sk.counts.width  # also the sum of the point's counts
            store = SparseCounts(width)
            store.add(p.value, (1,) * width)
            for view, cs in zip(replica_views(sk, store, reps), sets):
                assert view.rows[:, width:].tolist() == [[width * (c.eval(p) == 1) for c in cs]]
        assert max(len(c.indices) for c in sets[-1]) >= d // 8


@pytest.mark.parametrize("kind", ["mst", "emd1", "emd2"])
def test_each_read_sorts_the_store_once_and_fingerprints_each_depth_once(monkeypatch, kind):
    """A read of a tree sketch sorts its store once (`SparseCounts.sorted`)
    and fingerprints every depth 0..h of the tree once
    (`QuadtreeSpec.node_fingerprints`): `MstSketch.estimate`, and its
    standalone `level_mu` and `level_counts`, `EmdOnePassSketch.estimate`,
    and `EmdTwoPassSketch.finalize_pass1` and `estimate`, each for itself.
    The estimates are the pinned ones."""
    sorts, depths = [], []
    sort, fingerprints = SparseCounts.sorted, QuadtreeSpec.node_fingerprints
    monkeypatch.setattr(SparseCounts, "sorted", lambda self: sorts.append(1) or sort(self))
    monkeypatch.setattr(QuadtreeSpec, "node_fingerprints",
                        lambda self, X, j: depths.append(j) or fingerprints(self, X, j))

    def read(step):
        sorts.clear(), depths.clear()
        out = step()
        assert len(sorts) == 1 and sorted(depths) == list(range(sk.h + 1))
        return out

    if kind == "mst":
        sk = MstSketch(MstSketchConfig(16, 16, seed=0))
        for p, c in aggregate(gen_instance("uniform", 16, 16, seed=1).updates)["X"].items():
            sk.update(p, c)
        assert read(sk.estimate).hex() == "0x1.1095661e89519p+8"
        read(lambda: sk.level_mu(2)), read(sk.level_counts)
        return
    nets = aggregate(gen_instance("matched_noise", 16, 16, seed=1).updates)
    sk = (EmdOnePassSketch if kind == "emd1" else EmdTwoPassSketch)(EmdSketchConfig(16, 16))
    for label in ("A", "B"):
        for p, c in nets[label].items():
            sk.update(p, label, c)
    if kind == "emd2":
        read(sk.finalize_pass1)
        for label in ("A", "B"):
            for p, c in nets[label].items():
                sk.update_pass2(p, label, c)
    want = {"emd1": "0x1.4c657a8cde545p+8", "emd2": "0x1.0c4db4440299bp+8"}[kind]
    assert read(sk.estimate).hex() == want


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
    for depth in range(tree.h + 1):
        fps = np.unique(tree.node_fingerprints(mat, depth), axis=0)
        ids = universe_ids(11, n**3, 0x0E0A, fps)
        assert len(np.unique(ids)) == len(fps)


def test_default_universe_fits_uint64():
    """The n^3 default is clamped to 2^64 - 1, so node ids can still be
    computed where n^3 overflows uint64; below that it is n^3."""
    assert EmdSketchConfig(n=2_642_245, d=8).universe_m == 2_642_245**3
    cfg = EmdSketchConfig(n=3_000_000, d=8)
    assert cfg.universe_m == 2**64 - 1
    sk = EmdOnePassSketch(cfg)
    X = np.array([[0] * 8, [1] * 8], dtype=np.uint8)
    seeds = sk.seeds[-1]
    for ids in replica_node_ids(sk.tree.node_path(X), [sk.h] * len(seeds), seeds, cfg.universe_m):
        assert ids.shape == (1, 2) and ids.dtype == np.uint64


def test_paper_rates_at_n64_d16():
    """The published log-power rates at n = 64 (L = 6), d = 16: level_reps
    log2 d, n_sets and n_rounds L^6, n_inner L, n_medreps 3 log2 L^3 and
    ls1_reps L^9; every other field keeps its default."""
    cfg = EmdSketchConfig.paper_rates(64, 16, eps=0.25, seed=7)
    assert cfg == EmdSketchConfig(
        n=64, d=16, eps=0.25, seed=7, level_reps=4, n_sets=46_656, n_inner=6,
        n_rounds=46_656, n_medreps=24, ls1_reps=10_077_696,
    )


@pytest.mark.parametrize("cfg", [
    EmdSketchConfig(n=5, d=8),
    EmdSketchConfig(n=9, d=16, eps=0.25, seed=3, level_reps=2, universe_m=1000,
                    sampler_gamma=0.125),
    EmdSketchConfig.paper_rates(64, 16, eps=0.25, seed=7),
])
def test_config_json_round_trip(cfg):
    """A config read back from its JSON form equals it, with the derived
    universe size written out; the form names its kind and version."""
    text = cfg.to_json()
    assert EmdSketchConfig.from_json(text) == cfg
    assert json.loads(text)["kind"] == "emd-config" and json.loads(text)["version"] == 1


def test_config_rejects_universe_of_one():
    """universe_m is 0 (about n^3) or at least 2, and the error names it."""
    assert EmdSketchConfig(n=4, d=8, universe_m=2).universe_m == 2
    with pytest.raises(ValueError, match="'universe_m' must be 0 or at least 2, got 1"):
        EmdSketchConfig(n=4, d=8, universe_m=1)


# -- reference I_i ------------------------------------------------------------------


def test_reference_zero_cases():
    d = 16
    A = random_multiset(8, d, 5)
    tree = sample_quadtree(d, seed=6)
    I = LevelDecomposition(tree, A, A).level_table().I
    for i in range(1, tree.h + 1):
        assert I[i - 1] == 0.0


def test_reference_sum_sandwiches_emd():
    """EMD <= sum_i I_i for >= 85% of (instance, tree) pairs, and the sum is
    within a generous log-factor above."""
    lo = hi = 0
    trials = 40
    for s in range(trials):
        A, B = random_pair(12, 16, s)
        tree = sample_quadtree(16, seed=1000 + s)
        total = sum(LevelDecomposition(tree, A, B).level_table().I)
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
        chi_plus = [cs.eval(p) == 1 for cs in charsets(rep)]
        return np.array([label == "A", label == "B", *chi_plus], dtype=np.int64)

    # two children under one parent, known populations
    popA = [pt(rng.integers(0, 2, d)) for _ in range(4)]
    popB = [pt(rng.integers(0, 2, d)) for _ in range(3)]
    pass1 = tally([((1, 2), 4 * row(popA[0], "A"))])
    rep.finalize_pass1(dict_view(pass1, 2, 2 + cfg.n_sets))
    assert set(rep.sampled.values()) == {(1, 2)}
    # sibling (1, 3): counts to C_u only
    pass2 = tally([((1, 2), row(p, "A")) for p in popA] + [((1, 3), row(p, "B")) for p in popB])
    want = [split_probability(pm(*popA, *popB), pm(*popA), cs) for cs in charsets(rep)]
    assert any(want)
    assert rep.two_round_estimates(dict_view(pass2, 2, 2 + cfg.n_sets)) == pytest.approx(want)


# -- one-round LS1/LS2/LS3 ---------------------------------------------------------


def _replica_with_counts(counts, n=64, d=16, seed=0, **cfg_kw):
    """A level-1 replica and a view of its counts with the given rows."""
    cfg = EmdSketchConfig(n=n, d=d, seed=seed, **cfg_kw)
    rep = EmdOnePassSketch(cfg).replicas[0][0]
    rows = tally((key, [na, nb] + [chi_plus] * cfg.n_sets)
                 for key, (na, nb, chi_plus) in counts.items())
    return rep, dict_view(rows, 2, 2 + cfg.n_sets)


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
    nets = aggregate(gen_instance(kind, cfg.n, cfg.d, seed=seed).updates)
    for label in ("A", "B"):
        for p, c in nets[label].items():
            sk.update(p, label, c)
    reps = [rep for per_level in sk.replicas for rep in per_level]
    return list(zip(reps, replica_views(sk, sk.counts, reps)))


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
    kids = []  # children per parent, over the instance's replicas
    for rep, view in pairs:
        got = rep.one_round_estimates(view)
        assert [x.hex() for x in got] == [x.hex() for x in reference_one_round_estimates(rep, view)]
        kids += np.unique(view.keys[:, 0], return_counts=True)[1].tolist()
    assert case != "empty" or got == [0.0] * _GRID_VARIANT["n_sets"]
    # LS2's skip of a single child and its masked reads of several both ran
    assert case in ("one-node", "empty") or (1 in kids and max(kids) > 1)


def test_one_round_memory_is_a_block_not_the_grid():
    """The tracemalloc peak of one `one_round_estimates` on the deepest
    replica of matched_noise n=64 d=32 stays under three float64 arrays of
    `_LS_BLOCK_WORDS` words: a block's temporaries, whatever the grid. Its
    128 cells take three blocks; one block of them all peaks near 17 MB."""
    rep, view = _instance_views(EmdSketchConfig(n=64, d=32))[-1]
    rep.one_round_estimates(view)  # imports and first-call allocations
    tracemalloc.start()
    try:
        rep.one_round_estimates(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * emd_sketch._LS_BLOCK_WORDS, peak


def test_cell_seed_states_are_hashed_once_per_grid(monkeypatch):
    """`one_round_estimates` hashes the seed states of its cells once per
    grid, not once per block: on the deepest replica of matched_noise n=64
    d=32 it makes as many `hashing.combine` calls with one cell per block as
    with the default blocks, which are fewer."""
    rep, view = _instance_views(EmdSketchConfig(n=64, d=32))[-1]
    combine, ls1 = hx.combine, emd_sketch._LsCells.ls1
    calls = {"combine": 0, "blocks": 0}

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(hx, "combine", counted("combine", combine))
    monkeypatch.setattr(emd_sketch._LsCells, "ls1", counted("blocks", ls1))
    seen = []
    for block_words in (emd_sketch._LS_BLOCK_WORDS, 1):
        monkeypatch.setattr(emd_sketch, "_LS_BLOCK_WORDS", block_words)
        calls.update(combine=0, blocks=0)
        rep.one_round_estimates(view)
        seen.append((calls["combine"], calls["blocks"]))
    (default, default_blocks), (one_cell, cells) = seen
    cfg = rep.cfg
    assert cells == cfg.n_sets * cfg.n_inner * cfg.n_rounds * cfg.n_medreps > default_blocks > 0
    assert one_cell == default > 0


def _read_bucket_entries(rep, sub, salt, hkeys, read) -> int:
    """The (row, key) entries of the Count-Sketch combine(sub, salt) of a
    grid cell whose bucket holds one of the keys `read`, from the
    reference coords."""
    seed = int(hx.combine(sub, salt)[()])
    b, _ = ref_cs_coords((seed, 0xB), (seed, 0x5), hkeys, rep.cfg.cs_rows, rep.cfg.cs_buckets)
    return sum(int(np.isin(row, row[read]).sum()) for row in b)


def test_ls2_and_ls3_hash_signs_only_in_read_buckets(monkeypatch):
    """On the deepest replica of matched_noise n=64 d=32, with every cell of
    the default grid in one decoder, LS2 and LS3 hash the Count-Sketch signs
    (`hashing.sign_pm1`) of exactly the entries whose bucket holds a read
    key: LS2's the children of the cell's parent, LS3's the parent and the
    node. A cell whose parent has one child makes no LS2 read and gets that
    child."""
    rep, view = _instance_views(EmdSketchConfig(n=64, d=32))[-1]
    cfg = rep.cfg
    cells = np.indices((cfg.n_sets, cfg.n_inner, cfg.n_rounds, cfg.n_medreps)).reshape(4, -1).T
    dec = rep.decoder(view, *cells.T)
    u = dec.ls1()
    kids = np.bincount(dec.u_inv)[u]
    assert (kids == 1).any() and (kids > 1).any()
    sign, signed = hx.sign_pm1, []
    monkeypatch.setattr(hx, "sign_pm1", lambda h: signed.append(np.size(h)) or sign(h))
    v = dec.ls2(u)
    ls2_signed, signed[:] = sum(signed), []
    dec.ls3(v)
    ls3_signed = sum(signed)
    monkeypatch.setattr(hx, "sign_pm1", sign)
    want2 = want3 = 0
    for cell, ui, vi in zip(cells.tolist(), u.tolist(), v.tolist()):
        sub = hx.combine(rep.seed, 0x0140, *cell)
        children = np.flatnonzero(dec.u_inv == ui)
        if len(children) > 1:
            want2 += _read_bucket_entries(rep, sub, 0xCF, dec.hk_v, children)
        else:
            assert vi == children[0]
        want3 += sum(_read_bucket_entries(rep, sub, salt, hk, [at]) for salt, hk, at in (
            (0x31, dec.hk_u, ui), (0x32, dec.hk_u, ui), (0x33, dec.hk_v, vi), (0x34, dec.hk_v, vi)))
    assert (ls2_signed, ls3_signed) == (want2, want3)
    # one cell whose parent has one child: its LS2 builds no Count-Sketch
    c = int(np.flatnonzero(kids == 1)[0])
    one, built, coords = rep.decoder(view, *cells[c]), [], emd_sketch._cs_coords
    monkeypatch.setattr(emd_sketch, "_cs_coords", lambda *a: built.append(a) or coords(*a))
    u_one = one.ls1()
    built[:] = []
    assert one.ls2(u_one).tolist() == [v[c]] and built == []


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


def test_state_bytes_pinned_for_a_small_sketch():
    """The whole state of a one-point sketch: magic, version 2, kind 6, the
    shape words (seed, d, universe_m, level_reps, n_sets), one store of
    width 2 with one row, its key word and its [net A, net B] row. A
    two-pass sketch serializes its pass-1 store the same way."""
    cfg = EmdSketchConfig(n=4, d=8, seed=5, level_reps=2, n_sets=3)
    for cls in (EmdOnePassSketch, EmdTwoPassSketch):
        sk = cls(cfg)
        sk.update(pt([1, 0, 0, 0, 0, 0, 0, 1]), "B", 3)
        want = state_header(6, (5, 8, 64, 2, 3)) + struct.pack("<IIBQ2q", 2, 1, 1, 0x81, 0, 3)
        assert sk.state_bytes() == want


@pytest.mark.parametrize("method", ["emd update", "emd update_pass2", "mst update"])
def test_update_takes_only_integer_deltas(method):
    """A delta is an integer: a float or str delta raises TypeError and
    leaves the store unchanged (it is neither truncated nor parsed), and an
    np.int64 or bool delta adds the int it equals, to the same bytes."""
    def fed(deltas):
        if method == "mst update":
            sk = MstSketch(MstSketchConfig(n=4, d=8, samples=2))
            up, store = sk.update, sk.counts
        elif method == "emd update":
            sk = EmdOnePassSketch(EmdSketchConfig(n=4, d=8, level_reps=2))
            up, store = (lambda p, c: sk.update(p, "A", c)), sk.counts
        else:
            sk = EmdTwoPassSketch(EmdSketchConfig(n=4, d=8, level_reps=2))
            sk.finalize_pass1()
            up, store = (lambda p, c: sk.update_pass2(p, "A", c)), sk.pass2
        for k, c in enumerate(deltas):
            up(pt([k & 1, 1, 0, 0, 1, 0, 0, 1]), c)
        return sk, up, store

    sk, up, store = fed([2, 1])
    before = store.to_bytes(), sk.state_bytes()
    for bad in (0.7, 1.9, 3.0, "3", np.float64(2.0)):
        with pytest.raises(TypeError):
            up(pt([1] * 8), bad)
        assert (store.to_bytes(), sk.state_bytes()) == before
    for same in ([np.int64(2), True], [np.int32(2), np.uint8(1)]):
        twin, _, twin_store = fed(same)
        assert (twin_store.to_bytes(), twin.state_bytes()) == before


def test_merge_rejects_another_config():
    """Sketches of different configs do not merge, whatever their kind."""
    for cls in (EmdOnePassSketch, EmdTwoPassSketch):
        sk = cls(EmdSketchConfig(n=4, d=8))
        for other in (cls(EmdSketchConfig(n=4, d=8, seed=1)),
                      cls(EmdSketchConfig(n=4, d=8, n_sets=3))):
            with pytest.raises(ValueError, match="different configs"):
                sk.merge(other)


def test_two_pass_merges_in_pass_1_only(small_cfg):
    """Two-pass sketches fed halves of pass 1 merge into the whole pass-1
    state; after finalize_pass1 merge raises RuntimeError, as update does."""
    A, B = random_pair(8, 8, 36)
    ups = [(p, "A", c) for p, c in A.items()] + [(p, "B", c) for p, c in B.items()]
    cut = len(ups) // 2
    whole, left, right = (EmdTwoPassSketch(small_cfg) for _ in range(3))
    for sk, part in ((whole, ups), (left, ups[:cut]), (right, ups[cut:])):
        for p, label, c in part:
            sk.update(p, label, c)
    left.merge(right)
    assert left.state_bytes() == whole.state_bytes()
    left.finalize_pass1()
    with pytest.raises(RuntimeError, match="pass 1 is finalized"):
        left.merge(right)
    with pytest.raises(RuntimeError, match="pass 1 is finalized"):
        left.update(*ups[0])
    assert left.state_bytes() == whole.state_bytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_two_round_estimates_equal_edge_by_edge_reference(data):
    """The round-two estimates and counters of a replica's samples, read for
    every edge in one pass over the sorted pass-2 view, equal those read
    edge by edge with full-array masks, on random pass-1 and pass-2 views
    of few nodes (so sampled edges share parents, lack siblings or are
    absent from pass 2) with signed counts, and node ids from 2^63 on."""
    cfg = EmdSketchConfig(n=4, d=8, seed=data.draw(st.integers(0, 99)), n_sets=4, n_inner=3)
    rep = EmdTwoPassSketch(cfg).replicas[0][0]
    width = 2 + cfg.n_sets
    ids = st.sampled_from([0, 1, 2, 2**63, 2**64 - 1])
    rows = st.lists(st.tuples(st.tuples(ids, ids),
                              st.lists(st.integers(-3, 3), min_size=width, max_size=width)),
                    max_size=10)
    rep.finalize_pass1(dict_view(tally(data.draw(rows)), 2, width))
    view = dict_view(tally(data.draw(rows)), 2, width)
    want, counters = reference_two_round_estimates(rep, view)
    assert rep.two_round_estimates(view) == want
    assert {k: v.tolist() for k, v in rep.pass2_counters.items()} == counters


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


@pytest.mark.parametrize("n,d,seed,want", [
    (32, 16, 1, "a002949f7f7540cd034ed37f0b0a3ead7a8ea8d4"),
    (64, 32, 2, "8fadd3a8a9756a116d64ff0f5bbb039d9e78631b"),
])
def test_two_pass_sampler_bytes_pinned(n, d, seed, want):
    """The `state_bytes` of every round-one sampler of a two-pass sketch fed
    matched_noise (n, d) at this seed, hashed in replica and (set, copy)
    order, pinned to those of the samplers that drew their own Cauchy l1
    estimate, before the samplers of a replica were decoded at once."""
    nets = aggregate(gen_instance("matched_noise", n, d, seed=seed).updates)
    sk = EmdTwoPassSketch(EmdSketchConfig(n=n, d=d, seed=seed))
    for label in "AB":
        for p, c in nets[label].items():
            sk.update(p, label, c)
    sk.finalize_pass1()
    blobs = [b for rep in _sampler_bytes(sk) for b in rep.values()]
    assert len(blobs) == 16 * sum(map(len, sk.replicas))
    assert hashlib.sha1(b"".join(blobs)).hexdigest() == want


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
    (1, 1, 256, 64, "0x1.d69bc3f6ee55cp+15"),
    (2, 1, 256, 64, "0x1.85e087d42f47ep+15"),
])
def test_estimate_bit_identical_to_pinned(passes, seed, n, d, want):
    """Pinned to the estimates of the replicas that fed the Delta-hat sketch
    and every round-one sampler on each update, before those became views
    of the replica counts; the n=64 d=32 one-pass pins are those of the
    per-decoder LS loop, before the grid decode, and the two-pass ones
    those of the dict-store views, before the views became sorted arrays.
    The n=256 d=64 ones are the reference estimates of the `emd1-matched`
    and `emd2-matched` benchmark workloads."""
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


def test_replica_views_equal_fed_reference():
    """Every replica's view of the counts is in canonical order and equals a
    dict reference fed (key, delta * row) update by update, and Delta-hat
    and every round-one sampler built from it equal a Cauchy l1 estimate of
    the same seed over a reference fed (key, +-delta) and references fed
    the same, whose mass tests read that Delta-hat (the same discrepancy
    counts and Delta-hat, the same sampler tables, counts and samples):
    read after half the stream, after the rest, and by a second
    finalize_pass1."""
    for s in range(4):
        cfg = EmdSketchConfig(n=8, d=8, seed=s, n_sets=3, n_inner=2)
        sk = EmdTwoPassSketch(cfg)
        reps = [rep for per_level in sk.replicas for rep in per_level]
        fed, fed_counts = [], [{} for _ in reps]
        for rep in reps:
            rep.finalize_pass1(dict_view({}, 2, 2 + cfg.n_sets))
            fed.append(({}, {jc: FedL1Sampler.like(smp) for jc, smp in rep.samplers.items()}))
        ups = _turnstile_stream(np.random.default_rng(s), cfg.d, 30)
        cut = len(ups) // 2
        for part in (ups[:cut], ups[cut:]):
            for p, label, c in part:
                sk.update(p, label, c)
                for rep, counts, (delta, smps) in zip(reps, fed_counts, fed):
                    key = node_key(sk.tree, rep, p)
                    chi_plus = [cs.eval(p) == 1 for cs in charsets(rep)]
                    add_count(counts, key, c * np.array([label == "A", label == "B", *chi_plus]))
                    add_count(delta, key, c if label == "A" else -c)
                    for f in smps.values():
                        f.update(key, c if label == "A" else -c)
            views = replica_views(sk, sk.counts, reps)
            for view, counts in zip(views, fed_counts):
                assert_view_is(view, counts)
            for rep, view, (delta, smps) in zip(reps, views, fed):
                rep.finalize_pass1(view)
                assert_view_is(rep.discrepancies(view), delta)
                delta_seed = int(hx.combine(rep.seed, 0xDE)[()])
                assert rep.delta == cauchy_l1(dict_view(delta, 2), cfg.delta_rows, delta_seed)
                for jc, f in smps.items():
                    assert np.array_equal(sampler_reads(rep.samplers[jc]), f.table())
                    assert rep.sampled[jc] == f.sample(rep.delta)
                    assert_view_is(rep.samplers[jc].counts, f.x)
        sk.finalize_pass1()
        sampled = [dict(rep.sampled) for rep in reps]
        assert sampled == [{jc: f.sample(rep.delta) for jc, f in smps.items()}
                           for rep, (_, smps) in zip(reps, fed)]
        sk.finalize_pass1()
        assert [dict(rep.sampled) for rep in reps] == sampled


def test_node_ids_above_2_63_stay_unsigned():
    """With a universe of 2^64 - 1 about half the node ids are 2^63 or more;
    they stay uint64, so both estimators decode and serialize."""
    nets = aggregate(gen_instance("matched_noise", 8, 8, seed=1).updates)
    cfg = EmdSketchConfig(n=8, d=8, universe_m=2**64 - 1)
    for cls in (EmdOnePassSketch, EmdTwoPassSketch):
        sk = cls(cfg)
        for label in ("A", "B"):
            for p, c in nets[label].items():
                sk.update(p, label, c)
        reps = [rep for per_level in sk.replicas for rep in per_level]
        views = replica_views(sk, sk.counts, reps)
        keys = [k for v in views for k in v.keys.tolist()]
        assert min(min(k) for k in keys) >= 0
        assert max(max(k) for k in keys) >= 2**63
        assert reps[-1].vectors(views[-1])[0].dtype == np.uint64
        assert len(EmdOnePassSketch.state_bytes(sk)) > 0
        if cls is EmdTwoPassSketch:
            sk.finalize_pass1()
            for label in ("A", "B"):
                for p, c in nets[label].items():
                    sk.update_pass2(p, label, c)
        assert math.isfinite(sk.estimate())
