import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from geosketch import hashing as hx
from geosketch import (
    FAIL,
    CountView,
    L1Sampler,
    SparseCounts,
    cauchy_l1,
    encode_state,
    l0_estimate,
    stable_median,
)
from geosketch import EmdSketchConfig, EmdTwoPassSketch, MstSketchConfig, aggregate, gen_instance
from geosketch import emd_sketch, sketches
from geosketch.sketches import (
    _EXP_SALT, _cs_coords, _cs_estimates, _cs_read, _cs_table, _hash_keys, _l0_occupancy,
    _median,
)

from conftest import assert_view_is, counts_of, sample, sampler_reads, split_view, view_of
from reference import (
    FedL1Sampler, _stable_median_slow, cauchy_sums, count_sketch, dict_view, own_l1,
    sample_p_stable_array, tail_truncated_norms, tally,
)
from reference import _cs_coords as ref_cs_coords, _cs_estimates as ref_cs_estimates
from reference import _cs_table as ref_cs_table


# -- Count-Sketch ---------------------------------------------------------------


def test_count_sketch_batch_equals_one_sketch_reference(rng):
    """A (3, 2) batch of Count-Sketches, each with its own seed and vector,
    built and read in one call, equals each sketch built row by row with
    np.add.at and read on its own; a key's slot is its bucket plus 64 times
    the flat index of its sketch row."""
    hk = rng.integers(0, 2**63, 40, dtype=np.int64).astype(np.uint64)
    seeds = np.arange(11, 17, dtype=np.uint64).reshape(3, 2)
    vals = rng.standard_normal((3, 2, 40))
    r = np.arange(5, dtype=np.uint64)
    b, s = _cs_coords(hx.combine(seeds[..., None], 0xB, r), hx.combine(seeds[..., None], 0x5, r),
                      hk, 64)
    table = _cs_table(b, s, vals, 64)
    est = _cs_estimates(table, b, s)
    for i, j in np.ndindex(3, 2):
        rb, rs = ref_cs_coords((int(seeds[i, j]), 0xB), (int(seeds[i, j]), 0x5), hk, 5, 64)
        row = 5 * (2 * i + j) + np.arange(5)[:, None]
        assert np.array_equal(b[i, j], 64 * row + rb) and np.array_equal(s[i, j], rs)
        assert table[i, j].tobytes() == ref_cs_table(rb, rs, vals[i, j], 64).tobytes()
        assert np.array_equal(est[i, j], ref_cs_estimates(ref_cs_table(rb, rs, vals[i, j], 64), rb, rs))


@settings(max_examples=80, deadline=None)
@given(G=st.integers(1, 5), R=st.integers(1, 6), n=st.integers(1, 40),
       buckets=st.sampled_from([256, 7, 2, 1]), seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["mask", "no key in a group", "every key in a group", "one key"]))
@example(G=3, R=5, n=30, buckets=256, seed=0, case="no key in a group")
@example(G=3, R=5, n=30, buckets=7, seed=1, case="every key in a group")
@example(G=4, R=4, n=12, buckets=7, seed=2, case="one key")
def test_cs_read_equals_the_dense_read(G, R, n, buckets, seed, case):
    """`_cs_read` of G Count-Sketches, each with its own seed and vector, at
    a read mask equals bit for bit the estimates at the read keys of each
    sketch's dense table, built row by row with np.add.at from the
    reference coords and read in (sketch, key) order: at power-of-two and
    other bucket counts, with a group that reads no key, one that reads
    every key, and one key read in all."""
    rng = np.random.default_rng(seed)
    hk = rng.integers(0, 2**63, n, dtype=np.int64).astype(np.uint64)
    seeds = rng.integers(0, 2**63, G, dtype=np.int64).astype(np.uint64)
    vals = rng.standard_normal((G, n))
    read = rng.random((G, n)) < 0.3
    if case == "no key in a group":
        read[rng.integers(G)] = False
    elif case == "every key in a group":
        read[rng.integers(G)] = True
    elif case == "one key":
        read[:] = False
        read[rng.integers(G), rng.integers(n)] = True
    r = np.arange(R, dtype=np.uint64)
    got = _cs_read(hx.combine(seeds[:, None], 0xB, r), hx.combine(seeds[:, None], 0x5, r),
                   hk, vals, read, buckets)
    want = []
    for g in range(G):
        b, s = ref_cs_coords((int(seeds[g]), 0xB), (int(seeds[g]), 0x5), hk, R, buckets)
        want.append(ref_cs_estimates(ref_cs_table(b, s, vals[g], buckets), b, s)[read[g]])
    assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_median_of_1d_values_matches_numpy_median(rng, n):
    """`_median` of a 1-D array of n = 1..9 values equals `np.median`: the
    compare-exchange network (n <= 8) writes its slices, which must be
    arrays, not the numpy scalars a 1-D array's slices are."""
    x = rng.integers(-3, 4, n) / 2.0
    assert _median(x, 0) == np.median(x)
    assert _median(np.abs(x), -1) == np.median(np.abs(x))


@pytest.mark.parametrize("n", [*range(1, 10), 12, 47, 48, 49, 128])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_median_matches_numpy_median(rng, n, at):
    """`_median` of n = 1..9 values (the compare-exchange network, and the
    sort from n = 9) and of n = 12, 47, 48, 49 (the sort) along the first,
    a middle and the last axis equals `np.median`, on halves of small
    integers and -inf, so most slices hold ties, zeros of both signs among
    them; and at n = 128 on their magnitudes, non-negative values like the
    128 that `cauchy_l1` takes the median of. Equality is by value, so a
    zero is compared by its magnitude, the one thing the median may give a
    different sign; the input is left as it was."""
    shape = [3, 4]
    shape.insert(at, n)
    x = rng.integers(-3, 4, shape) / 2.0
    x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
    x[rng.random(shape) < 0.1] = -np.inf
    if n == 128:
        x = np.abs(x)
    before = x.tobytes()
    got, want = _median(x, at), np.median(x, axis=at)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert x.tobytes() == before


def test_cs_negate_cancels():
    counts = counts_of([(42, 7), (42, -7)])
    assert len(counts) == 0
    assert np.all(count_sketch(view_of(counts), 5, 64, seed=1)[0] == 0.0)


def test_cs_one_hot_exact():
    counts = view_of(counts_of([(5, 11)]))
    assert count_sketch(counts, 3, 8, seed=2, at=[5])[1][0] == pytest.approx(11.0)


def test_cs_linf_guarantee_power_law():
    """||x_hat - x||_inf <= eps ||x_{-1/eps^2}||_2 for most seeds; rows scale
    with log n for the union bound over indices, buckets with 1/eps^2."""
    eps = 0.2
    n = 1000
    x_int = np.round([1000.0 / (i + 1) for i in range(n)]).astype(int)
    bound_tail = tail_truncated_norms(x_int.astype(float), int(1 / eps**2))[0]
    ok = 0
    trials = 50
    rows = 3 * math.ceil(math.log2(n)) + 1
    counts = view_of(counts_of(enumerate(x_int)))
    for s in range(trials):
        est = count_sketch(counts, rows, math.ceil(8 / eps**2), seed=s, at=range(n))[1]
        if np.max(np.abs(est - x_int)) <= eps * bound_tail + 1e-9:
            ok += 1
    assert ok >= 0.9 * trials, ok


# -- Cauchy l1 estimate -----------------------------------------------------------


def test_l1_zero_and_one_hot():
    counts = SparseCounts()
    assert cauchy_l1(view_of(counts), 301, seed=3) == 0.0
    counts.add(0, 1)
    assert 0.5 < cauchy_l1(view_of(counts), 301, seed=3) < 2.0


def test_l1_relative_accuracy():
    rng = np.random.default_rng(0)
    x = rng.integers(-9, 10, size=100)
    l1 = np.abs(x).sum()
    counts = view_of(counts_of((i, v) for i, v in enumerate(x) if v))
    rows = math.ceil(8.0 * math.log(2.0 / 0.05) / 0.1**2)  # eps = 0.1, delta = 0.05
    ok = 0
    trials = 60
    for s in range(trials):
        if abs(cauchy_l1(counts, rows, seed=s) - l1) <= 0.1 * l1:
            ok += 1
    assert ok >= 0.92 * trials, ok


_CAUCHY_ROWS = ("1", "2", "8", "9", "block-1", "block", "block+1", "512", "513")


def _cauchy_rows(which: str, n: int) -> int:
    """The row count named `which` for n keys: a number, or one off the
    rows of a Cauchy block over n keys."""
    block = sketches._cauchy_block_rows(n)
    return {"block-1": block - 1, "block": block, "block+1": block + 1}.get(which) or int(which)


def _explicit_cauchy_cases(test):
    """Every named row count at 0 keys, 1 key, a few hundred (64-row blocks)
    and thousands (8-row blocks), with keys of one and of two words."""
    for which in _CAUCHY_ROWS:
        for n in (0, 1, 500, 3001):
            for k in (1, 2):
                test = example(n=n, k=k, which=which, draw_seed=n + k, seed=2**64 - 1 - n)(test)
    return test


@settings(max_examples=30, deadline=None)
@_explicit_cauchy_cases
@given(n=st.one_of(st.integers(0, 80), st.integers(1000, 4096)), k=st.sampled_from([1, 2]),
       which=st.sampled_from(_CAUCHY_ROWS), draw_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**64 - 1))
def test_cauchy_l1_equals_the_median_of_the_dense_sums(n, k, which, draw_seed, seed):
    """`cauchy_l1`, which builds its coefficients a block of rows at a time,
    equals the median magnitude of the dense reference's sums (the whole
    (s, n) coefficient matrix times the counts) bit for bit: row counts
    inside one block, at its edges, and over many blocks with a last block
    of one row or of a whole one; keys from the whole 64-bit range, of one
    and two words. One BLAS thread (conftest) fixes the dense product's
    summation order."""
    rng = np.random.default_rng(draw_seed)
    keys = np.unique(rng.integers(0, 2**64, (n, k), dtype=np.uint64), axis=0)
    keys[-1:] = np.uint64(2**64 - 1)  # the top word, kept sorted and unique
    rows = rng.integers(1, 50, (len(keys), 1)) * rng.choice([-1, 1], (len(keys), 1))
    view = CountView(keys, rows.astype(np.int64))
    s = _cauchy_rows(which, len(keys))
    want = float(np.median(np.abs(cauchy_sums(view, s, seed))))
    assert cauchy_l1(view, s, seed).hex() == want.hex()


def test_cauchy_l1_peak_memory_is_a_fraction_of_the_dense_matrix():
    """At s = 512 rows over 4,096 keys, the tracemalloc peak of `cauchy_l1`
    stays below a quarter of the dense (512, 4096) float64 coefficient
    matrix, 4 MiB. The blocked build holds two (b + 1, n) arrays of 8-byte
    words with b = 8 rows at n = 4,096 (2 x 9 x 4,096 x 8 B = 576 KiB), plus
    arrays of n words (key hashes, the counts as floats, 96 KiB) and of s
    words (row prefixes, sums, their magnitudes, 12 KiB): about 0.7 MiB.
    The dense build, which held the whole (512, 4096) hash and coefficient
    matrices and their temporaries, peaked at 48 MiB."""
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 2**63, 4096, dtype=np.int64)).astype(np.uint64)
    view = CountView(keys.reshape(-1, 1), rng.integers(1, 9, (len(keys), 1)).astype(np.int64))
    assert len(view) == 4096
    tracemalloc.start()
    try:
        cauchy_l1(view, 512, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 4096 * 8 / 4, peak


# -- p-stable generation ------------------------------------------------------------


def test_p_stable_monotone():
    p = 0.1
    assert sample_p_stable_array(p, 0.5, 0.5) < sample_p_stable_array(p, 0.6, 0.5)
    assert sample_p_stable_array(p, 0.5, 0.5) < sample_p_stable_array(p, 0.5, 0.6)


def test_p_stable_sum_stability_ks():
    """sum a_i x_i is distributed as ||a||_p x (two-sample KS)."""
    p = 0.5
    a = np.array([1.0, 2.0, 0.5, 1.5])
    rng = np.random.default_rng(7)
    n = 100_000
    draws = sample_p_stable_array(
        p, rng.random((len(a), n)), (rng.random((len(a), n)) - 0.5) * np.pi
    )
    lhs = a @ draws
    scale = (np.abs(a) ** p).sum() ** (1 / p)
    rhs = scale * sample_p_stable_array(
        p, rng.random(n), (rng.random(n) - 0.5) * np.pi
    )
    assert ks_2samp(lhs, rhs).pvalue > 0.01


def test_stable_median_matches_empirical():
    """The quadrature that the committed table was made with finds the
    empirical median(|D_p|) also away from the table's p."""
    for p in (0.1, 0.3):
        rng = np.random.default_rng(int(p * 100))
        draws = sample_p_stable_array(
            p, rng.random(1_000_000), (rng.random(1_000_000) - 0.5) * np.pi
        )
        emp = np.median(np.abs(draws))
        want = _stable_median_slow(p)
        assert abs(emp - want) / want < 0.02


def test_stable_median_rejects_untabulated_p():
    """stable_median is a table lookup: a p that is not 1/(4L) for L in
    1..25 raises, naming the supported values, instead of solving."""
    for p in (0.1, 1.0 / (4.0 * 26)):
        with pytest.raises(ValueError, match=r"p = 1/\(4L\), L = 1\.\.25"):
            stable_median(p)


@pytest.mark.parametrize("L", [1, 4, 25])
def test_stable_median_table_matches_slow_path(L):
    """The committed median(|D_p|) at the MST sketch's p = 1/(4L) is the
    value the quadrature solves for, bit for bit."""
    p = MstSketchConfig(n=2**L, d=8).p
    assert stable_median(p).hex() == _stable_median_slow(p).hex()


# -- exponentials ----------------------------------------------------------------


def _scalings(seed, keys):
    """The Exp(1) scalings of keys that an l1 sampler with exponential seed
    `seed` reads (`L1Sampler._table`)."""
    return hx.exp1(_hash_keys((seed, _EXP_SALT), keys))


def test_exp_variate_deterministic():
    assert _scalings(9, [123])[0] == _scalings(9, [123])[0]
    assert _scalings(9, [123])[0] != _scalings(9, [124])[0]


def test_exp_variate_mean():
    v = _scalings(10, np.arange(100_000, dtype=np.uint64)[:, None])
    assert abs(v.mean() - 1.0) < 0.02


def test_exp_argmax_law():
    """Pr[argmax lambda_i / t_i = i] = lambda_i / sum(lambda)."""
    lam = np.array([3.0, 1.0, 0.25, 2.0, 0.5, 1.25, 0.75, 1.25])
    trials = 30_000
    seeds = np.arange(trials, dtype=np.uint64)[:, None]
    idx = np.arange(len(lam), dtype=np.uint64)[None, :]
    t = hx.exp1(hx.combine(77, seeds, idx))
    wins = np.bincount(np.argmax(lam / t, axis=1), minlength=len(lam)) / trials
    tv = 0.5 * np.abs(wins - lam / lam.sum()).sum()
    assert tv < 0.02, tv


def test_exp_min_and_gap_joint_law_ks():
    """Both sampling procedures for (min, gap) agree (anti-rank law)."""
    lam = np.array([2.0, 1.0, 0.5, 1.5, 3.0])
    n = 50_000
    rng = np.random.default_rng(5)
    t = rng.exponential(size=(n, len(lam))) / lam
    order = np.sort(t, axis=1)
    min1, gap = order[:, 0], order[:, 1] - order[:, 0]
    i1 = rng.choice(len(lam), size=n, p=lam / lam.sum())
    e1 = rng.exponential(size=n) / lam.sum()
    e2 = rng.exponential(size=n) / (lam.sum() - lam[i1])
    assert ks_2samp(min1, e1).pvalue > 0.01
    assert ks_2samp(gap, e2).pvalue > 0.01


def test_sum_inverse_exp_tail_bound():
    """sum |x_i|/t_i <= (4 log(n/gamma)/gamma) ||x||_1 with freq >= 1-2gamma."""
    gamma = 0.1
    rng = np.random.default_rng(11)
    x = rng.random(64)
    bound = 4 * math.log(len(x) / gamma) / gamma * x.sum()
    trials = 2000
    seeds = np.arange(trials, dtype=np.uint64)[:, None]
    t = hx.exp1(hx.combine(99, seeds, np.arange(64, dtype=np.uint64)[None, :]))
    fails = ((x / t).sum(axis=1) > bound).mean()
    assert fails <= 2 * gamma + 0.01, fails


# -- tail truncation ---------------------------------------------------------------


def test_tail_truncated_norms_edges():
    z = np.array([3.0, -4.0, 1.0])
    assert tail_truncated_norms(z, 5) == (0.0, 0.0)
    l2, l1 = tail_truncated_norms(z, 0)
    assert l2 == pytest.approx(np.sqrt(26.0)) and l1 == pytest.approx(8.0)


def test_tail_truncation_tie_break_smaller_index_first():
    z = np.array([2.0, -2.0, 1.0])
    l2, l1 = tail_truncated_norms(z, 1)
    # the tie at |2| removes index 0, not index 1
    assert l1 == pytest.approx(3.0) and l2 == pytest.approx(np.sqrt(5.0))


def test_scaled_tail_l2_bound_frequency():
    """||z_{-beta}||_2 <= 12 ||x||_1 / sqrt(beta) for z_i = x_i / t_i, with
    failure frequency <= 3 exp(-beta/8) + slack."""
    beta = 32
    rng = np.random.default_rng(21)
    x = rng.random(256)
    bound = 12.0 * x.sum() / math.sqrt(beta)
    trials = 600
    fails = 0
    for s in range(trials):
        t = hx.exp1(hx.combine(1234, s, np.arange(256, dtype=np.uint64)))
        z = x / t
        if tail_truncated_norms(z, beta)[0] > bound:
            fails += 1
    assert fails / trials <= 3 * math.exp(-beta / 8) + 0.01


# -- l1 sampler ---------------------------------------------------------------------


def test_l1_sampler_one_hot():
    hits = 0
    for s in range(30):
        smp = L1Sampler(view_of(counts_of([(7, 3)])), seed=s)
        if sample(smp, own_l1(smp.counts, s)) == (7,):
            hits += 1
    assert hits >= 28  # never FAILs beyond gap-test noise


def test_l1_sampler_single_tuple_key_always_sampled():
    smp = L1Sampler(dict_view(tally([((5, 9), 3), ((5, 9), -1)]), 2), seed=13)
    assert sample(smp, own_l1(smp.counts, 13)) == (5, 9)


def test_l1_sampler_tuple_keys_distribution_tv():
    """Sampled (u, w) nodes track |q_v| / ||q||_1 within TV 0.05 on a
    10-node instance."""
    discs = [1, 2, 3, 1, 5, 2, 1, 4, 3, 2]
    keys = [(u, u + 100) for u in range(10)]
    total = sum(discs)
    counts = {k: 0 for k in keys}
    x = dict_view(tally(zip(keys, discs)), 2)
    succ = 0
    for s in range(4000):
        v = sample(L1Sampler(x, seed=s), own_l1(x, s))
        if v is not FAIL:
            succ += 1
            counts[v] += 1
    tv = 0.5 * sum(abs(counts[k] / succ - q / total) for k, q in zip(keys, discs))
    assert tv < 0.05, tv


def test_l1_sampler_two_equal_entries():
    counts = {(0,): 0, (1,): 0}
    succ = 0
    x = view_of(counts_of([(0, 1), (1, 1)]))
    for s in range(3000):
        out = sample(L1Sampler(x, seed=s), own_l1(x, s))
        if out is not FAIL:
            succ += 1
            counts[out] += 1
    assert succ > 0
    frac = counts[(0,)] / succ
    assert abs(frac - 0.5) < 0.03, frac


def test_l1_sampler_dominant_entry():
    freq = 0
    succ = 0
    x = view_of(counts_of([(0, 9), (1, 1)]))
    for s in range(2000):
        out = sample(L1Sampler(x, seed=s + 10_000), own_l1(x, s + 10_000))
        if out is not FAIL:
            succ += 1
            freq += out == (0,)
    assert abs(freq / succ - 0.9) < 0.03, freq / succ


def test_l1_sampler_fail_rate():
    rng = np.random.default_rng(3)
    x = rng.integers(1, 6, size=16)
    counts = view_of(counts_of(enumerate(x)))
    fails = 0
    trials = 1500
    for s in range(trials):
        if sample(L1Sampler(counts, seed=s + 50_000), own_l1(counts, s + 50_000)) is FAIL:
            fails += 1
    assert fails / trials <= 1 / 3 + 0.05, fails / trials


def test_l1_samplers_read_the_given_l1_and_pass1_draws_one_per_replica(monkeypatch):
    """No l1 sampler draws a Cauchy l1 estimate of its own: on the inputs of
    `test_l1_sampler_fail_rate`, every sample, key or FAIL, equals that of
    the reference given the same l1, an l1 past every estimate fails them
    all, and no sample calls `cauchy_l1`. A two-pass EMD sketch's
    `finalize_pass1` calls it once per replica, for Delta-hat, whatever the
    number of samplers per replica."""
    rng = np.random.default_rng(3)
    x = rng.integers(1, 6, size=16)
    counts = view_of(counts_of(enumerate(x)))
    l1s = [own_l1(counts, s + 50_000) for s in range(1500)]
    calls = []

    def counted(*a):
        calls.append(a)
        return cauchy_l1(*a)

    monkeypatch.setattr(sketches, "cauchy_l1", counted)
    monkeypatch.setattr(emd_sketch, "cauchy_l1", counted)
    fails = 0
    for s, l1 in enumerate(l1s):
        smp = L1Sampler(counts, seed=s + 50_000)
        ref = FedL1Sampler.like(smp)
        for i, c in enumerate(x):
            ref.update((i,), c)
        out = sample(smp, l1)
        assert out == ref.sample(l1)
        assert sample(smp, 1e6 * l1) is FAIL
        fails += out is FAIL
    assert not calls and 0 < fails < 1500
    nets = aggregate(gen_instance("matched_noise", 16, 16, seed=1).updates)
    cfg = EmdSketchConfig(n=16, d=16, seed=1, level_reps=2, n_inner=2)
    sk = EmdTwoPassSketch(cfg)
    for label in "AB":
        for p, c in nets[label].items():
            sk.update(p, label, c)
    sk.finalize_pass1()
    reps = [rep for per_level in sk.replicas for rep in per_level]
    assert all(len(rep.samplers) == 2 * cfg.n_sets for rep in reps)
    assert len(calls) == len(reps)
    for a, rep in zip(calls, reps):
        assert a[1:] == (cfg.delta_rows, int(hx.combine(rep.seed, 0xDE)[()]))
        assert rep.delta == cauchy_l1(*a)


@settings(max_examples=80, deadline=None)
@given(x=st.dictionaries(st.integers(0, 40), st.integers(-4, 4).filter(bool), max_size=12),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       rows=st.sampled_from([1, 2, 5]), buckets=st.sampled_from([1, 2, 16]),
       l1=st.sampled_from([0.0, 1.0, 7.5, 40.0]))
@example(x={}, seeds=[0, 1], rows=5, buckets=16, l1=1.0)  # no counts: FAIL
@example(x={3: -2}, seeds=[0, 1, 2], rows=5, buckets=16, l1=40.0)  # one key: second = 0
@example(x={1: 1, 2: 3, 5: -2}, seeds=[0, 7], rows=1, buckets=1, l1=1.0)  # tied estimates
@example(x={1: 1, 2: 3, 5: -2}, seeds=[4, 9, 11], rows=5, buckets=16, l1=0.0)  # Delta-hat 0
def test_stacked_l1_samples_equal_one_seed_samples(x, seeds, rows, buckets, l1):
    """`l1_samples` over a seed axis gives each seed the outcome of the
    one-seed `sample(smp, l1)` and of the reference (`FedL1Sampler`,
    whose gap test takes `np.delete` and `max` after the first maximum):
    with no counts, one key (second largest 0), tied top estimates (one
    bucket and one row give every key the same magnitude) and l1 = 0 (no
    mass test, as when Delta-hat is 0)."""
    view = dict_view(tally(((k,), v) for k, v in x.items()), 1)
    picks = sketches.l1_samples(view, np.array(seeds, dtype=np.uint64), l1, rows, buckets, 0.05)
    assert picks.shape == (len(seeds),)
    for s, i in zip(seeds, picks.tolist()):
        smp = L1Sampler(view, seed=s, rows=rows, buckets=buckets)
        ref = FedL1Sampler.like(smp)
        for k, v in x.items():
            ref.update((k,), v)
        want = ref.sample(l1)
        assert sample(smp, l1) == want == (FAIL if i < 0 else tuple(view.keys[i].tolist()))


# -- l0 -----------------------------------------------------------------------------


def test_l0_empty_and_singleton():
    counts = SparseCounts()
    assert l0_estimate(view_of(counts), 6, 4096) == 0.0
    counts.add(99, 1)
    assert 1.0 <= l0_estimate(view_of(counts), 6, 4096) <= 1.5
    counts.add(99, -1)
    assert l0_estimate(view_of(counts), 6, 4096) == 0.0


def test_l0_medium_support():
    counts = view_of(counts_of((i, 1 + (i % 3)) for i in range(700)))
    ok = 0
    trials = 30
    for s in range(trials):
        if 700 <= l0_estimate(counts, s, 4096) <= 1050:
            ok += 1
    assert ok >= trials - 1, ok


# -- linearity / state discipline -----------------------------------------------------


stream_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(-5, 5).filter(bool)),
    min_size=0,
    max_size=40,
)

# every read of every sketch, as bytes or as a value: the Count-Sketch
# table and estimates, the Cauchy sums and l1 estimate, the l0 occupancy
# and estimate, and the l1 sampler's sample and state bytes
_SKETCH_READS = [
    lambda c: count_sketch(c, 3, 16, seed=8)[0].tobytes(),
    lambda c: count_sketch(c, 3, 16, seed=8, at=range(31))[1].tobytes(),
    lambda c: cauchy_sums(c, 32, seed=8).tobytes(),
    lambda c: cauchy_l1(c, 32, seed=8),
    lambda c: _l0_occupancy(8, 64, c.keys).tobytes(),
    lambda c: l0_estimate(c, 8, 64),
    lambda c: sample(L1Sampler(c, seed=8, rows=3, buckets=16), own_l1(c, 8)),
    lambda c: L1Sampler(c, seed=8, rows=3, buckets=16).state_bytes(),
]


@settings(max_examples=25, deadline=None)
@given(stream_strategy, st.permutations(range(5)))
def test_linearity_bit_for_bit(stream, perm_seed):
    """Permutations and split-merge of the update stream leave the counts
    bit-identical, and so every read of every sketch type over their views."""
    rng = np.random.default_rng(perm_seed[0])
    perm = rng.permutation(len(stream))
    cut = len(stream) // 2
    a = counts_of(stream)
    b = counts_of([stream[j] for j in perm])
    c = counts_of(stream[:cut])
    c.merge(counts_of(stream[cut:]))
    assert a.to_bytes() == b.to_bytes() == c.to_bytes()
    for read in _SKETCH_READS:
        assert read(view_of(a)) == read(view_of(b)) == read(view_of(c))


@settings(max_examples=25, deadline=None)
@given(stream_strategy)
def test_l1_sampler_views_equal_fed_reference(stream):
    """The Count-Sketch table that the sampler builds from the view of its
    counts, and the l1 estimate of that view, equal those a reference
    builds from dict references fed update by update: the same
    materialized table, the same l1 estimate, the same counts and the same
    sample, read after part of the stream and again after the rest."""
    x = SparseCounts()
    fed = FedL1Sampler(8, rows=3, buckets=16)
    cut = len(stream) // 2
    for part in (stream[:cut], stream[cut:]):
        for i, dv in part:
            x.add(i, dv)
            fed.update((i,), dv)
        smp = L1Sampler(view_of(x), seed=8, rows=3, buckets=16)
        l1 = own_l1(smp.counts, 8)
        assert np.array_equal(sampler_reads(smp), fed.table())
        assert l1 == own_l1(dict_view(fed.x, 1), 8)
        assert_view_is(smp.counts, fed.x)
        assert sample(smp, l1) == fed.sample(l1)


def test_key_hashes_match_per_key_combine():
    """Batched key hashing (one combine call per key width) equals hashing
    each key on its own, for ints and wide ints, and still rejects negative
    keys."""
    keys = [0, 7, 2**64 - 1, 2**64, 3 * 2**128 + 5, 2**70 + 3, 9]

    def words(k):
        out = [k % 2**64]
        while k >= 2**64:
            k //= 2**64
            out.append(k % 2**64)
        return out

    want = [int(hx.combine(21, *words(k))[()]) for k in keys]
    assert _hash_keys((21,), keys).tolist() == want
    want = hx.exp1(np.array([hx.combine(22, _EXP_SALT, *words(k)) for k in keys]))
    assert np.array_equal(_scalings(22, keys), want)
    with pytest.raises(ValueError):
        _hash_keys((21,), [3, -1])
    with pytest.raises(ValueError):
        _scalings(22, [3, -1])


def test_state_bytes_reflect_content():
    def state(counts):
        return L1Sampler(view_of(counts), seed=8, rows=3, buckets=16).state_bytes()

    x, y = SparseCounts(), SparseCounts()
    x.add(1, 1)
    assert state(x) != state(y)
    y.add(1, 1)
    assert state(x) == state(y)


# -- the count store and the serializer ---------------------------------------------


def test_sparse_counts_drop_zero_rows_and_merge():
    a = SparseCounts(2)
    a.add(12, (3, -1))
    a.add(12, (-3, 1))
    assert len(a) == 0
    a.add(5, (1, 1))
    b = SparseCounts(2)
    b.add(5, (-1, 0))
    b.add(7, 4)  # a scalar adds to every column
    a.merge(b)
    keys, rows = a.sorted()
    assert keys == [5, 7]
    assert rows.tolist() == [[0, 1], [4, 4]]
    with pytest.raises(ValueError):
        a.merge(SparseCounts(3))


def test_sparse_counts_delta_forms_give_equal_bytes():
    """A delta added as an int or as a tuple of `width` ints gives the same
    store, bit for bit. Any other delta raises ValueError (a tuple of
    another width, a numpy integer or row, a float), and a tuple entry that
    is not an integer TypeError."""
    stores = []
    for delta in (3, (3, 3)):
        st = SparseCounts(2)
        st.add(2**64 + 1, delta)
        st.add(7, delta)
        stores.append(st.to_bytes())
    assert len(set(stores)) == 1
    for bad in ((1, 2, 3), np.int64(3), np.array([3, 3]), 0.5):
        with pytest.raises(ValueError):
            SparseCounts(2).add(1, bad)
    with pytest.raises(TypeError):
        SparseCounts(2).add(1, (0.5, 1))


def test_sparse_counts_overflow_leaves_store_unchanged():
    """A row whose sum leaves the int64 range raises OverflowError naming
    its key, through add and through merge, and the store is unchanged; a
    row that sums to zero is dropped."""
    top = 2**63 - 1
    a = SparseCounts(2)
    a.add(5, (top, -3))
    a.add(9, (1, 1))
    before = a.to_bytes()
    with pytest.raises(OverflowError, match="key 5"):
        a.add(5, (1, 0))
    with pytest.raises(OverflowError, match="key 11"):
        a.add(11, 2**63)
    b = SparseCounts(2)
    b.add(9, (-1, -1))  # cancels key 9, but the merge fails at key 5
    b.add(5, (0, -(2**63)))
    with pytest.raises(OverflowError, match="key 5"):
        a.merge(b)
    assert a.to_bytes() == before
    a.add(9, (-1, -1))
    a.merge(SparseCounts(2))
    assert a.sorted()[0] == [5] and a.total() == (top, -3)
    b = SparseCounts(2)
    b.add(5, (-top, 3))
    a.merge(b)
    assert len(a) == 0 and a.total() == (0, 0)


def test_sparse_counts_grouped_equals_added_rows():
    """`grouped` gives one view whose first key column is the leading index,
    and its slice of each index is in canonical order and holds the counts
    that adding each row at its key gives: rows at equal keys summed, a sum
    of zero dropped, and keys of any word up to 2^64 - 1."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 3, size=(4, 30, 2)).astype(np.uint64)
    keys[1, :, 0] = 2**64 - 1
    rows = rng.integers(-2, 3, size=(4, 30, 3))
    rows[2, :2] = [[1, -1, 2], [-1, 1, -2]]
    keys[2, :2] = 9  # a key whose rows cancel
    stores = split_view(CountView.grouped(keys, rows), 4)
    for r in range(4):
        assert_view_is(stores[r], tally(zip(map(tuple, keys[r].tolist()), rows[r])))
    assert [9, 9] not in stores[2].keys.tolist()
    empty = CountView.grouped(np.zeros((2, 0, 3), dtype=np.uint64), np.zeros((2, 0, 1), dtype=np.int64))
    assert [len(st) for st in split_view(empty, 2)] == [0, 0] and empty.width == 1


def test_count_view_bytes_equal_store_bytes():
    """A view serializes as the store that holds the same rows, here at wide
    packed points of two words (low word first), so a sketch read from a
    view has the state bytes of one fed the same updates."""
    keys = np.array([[0, 5], [0, 2**63], [2**64 - 1, 1]], dtype=np.uint64)
    rows = np.array([[1, -2], [0, 3], [4, 0]], dtype=np.int64)
    points = [lo + (hi << 64) for lo, hi in keys.tolist()]
    store = SparseCounts(2)
    for k, row in zip(reversed(points), reversed(rows.tolist())):
        store.add(k, tuple(row))
    assert CountView(keys, rows).to_bytes() == store.to_bytes()
    empty = CountView(np.zeros((0, 2), np.uint64), np.zeros((0, 2), np.int64))
    assert empty.to_bytes() == SparseCounts(2).to_bytes()
    fed = counts_of((k, row[0]) for k, row in zip(points, rows))
    view = CountView(keys[[0, 2]], rows[[0, 2], :1])
    assert view.to_bytes() == fed.to_bytes()
    assert L1Sampler(view, seed=3).state_bytes() == encode_state(4, (3, 5, 256, 128), [fed])


def test_sparse_counts_canonical_order_and_bytes():
    """Keys sort by their 64-bit words, low word first, whatever the
    insertion order, and the bytes hold the width, the row count, then
    (words, int64 row) per key."""
    keys = [2**64 - 1, 7, 2**127, 5 << 64]
    a, b = SparseCounts(1), SparseCounts(1)
    for k in keys:
        a.add(k, 1)
    for k in reversed(keys):
        b.add(k, 1)
    assert a.sorted()[0] == b.sorted()[0] == [5 << 64, 2**127, 7, 2**64 - 1]
    assert a.to_bytes() == b.to_bytes()
    one = SparseCounts(1)
    one.add(9, -2)
    assert one.to_bytes() == bytes.fromhex(
        "01000000" "01000000" "01" "0900000000000000" "feffffffffffffff"
    )


def test_encode_state_header():
    st = SparseCounts(1)
    st.add(3, 1)
    blob = encode_state(4, (2**64 - 1, 7), [st, SparseCounts(2)])
    head = b"GSKS" + bytes.fromhex("0200" "0400" "02") + b"\xff" * 8 + (7).to_bytes(8, "little")
    assert blob.startswith(head + (2).to_bytes(4, "little"))
    assert blob.endswith(st.to_bytes() + SparseCounts(2).to_bytes())


def test_state_bytes_hold_counts_only():
    """The l1 sampler serializes its seed/shape words and its counts, no
    accumulator: the size does not grow with the number of rows or buckets,
    and the bytes are `encode_state` of kind 4, the ones the benchmark's
    `state_size` sums for a two-pass EMD sketch."""
    counts = counts_of([(4, 2)])
    small = L1Sampler(view_of(counts), seed=8, rows=3, buckets=16)
    big = L1Sampler(view_of(counts), seed=8, rows=30, buckets=4096)
    assert len(small.state_bytes()) == len(big.state_bytes())
    assert big.state_bytes() == encode_state(4, (8, 30, 4096, 128), [counts])
