import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from geosketch import hashing as hx
from geosketch.mst_sketch import _log_stable_draws

from reference import cauchy


def test_mix64_scalar_matches_array_without_warnings():
    """The splitmix64 finalizer, `extend(0, .)`, of scalar input is guarded
    against numpy's scalar overflow warnings and mixes to the same word as
    the matching element of an array."""
    words = [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = hx.extend(0, np.array(words, dtype=np.uint64))
        for i, w in enumerate(words):
            assert int(hx.extend(0, w)) == int(arr[i])
            assert int(hx.extend(0, np.uint64(w))) == int(arr[i])
            assert int(hx.combine(w, 7)) == int(hx.combine(np.array(words, dtype=np.uint64), 7)[i])


def test_bucket_sign_and_extend_match_their_definitions():
    """bucket is the remainder mod k (a power of two reads the low bits),
    sign_pm1 reads bit 17, and extend resumes a combine() chain."""
    h = np.random.default_rng(3).integers(0, 2**63, 1000, dtype=np.int64).astype(np.uint64)
    h = h * np.uint64(2) + np.uint64(1)  # words with the top bit set too
    for k in (1, 64, 100, 256, 1000):
        assert np.array_equal(hx.bucket(h, k), (h % np.uint64(k)).astype(np.int64))
    bit = ((h >> np.uint64(17)) & np.uint64(1)).astype(bool)
    assert np.array_equal(hx.sign_pm1(h), np.where(bit, 1.0, -1.0))
    assert np.array_equal(hx.extend(hx.combine(5, 7), h), hx.combine(5, 7, h))
    assert int(hx.extend(hx.combine(5), 7, 9)) == int(hx.combine(5, 7, 9))


def test_bucket_of_words_from_2_63_reads_the_remainders_as_int64():
    """bucket's int64 array reads the same values as an `astype` copy of
    the uint64 remainders, on words of 2^63 and above, for k a power of two
    and not (k < 2^63, so every remainder fits), for an array and a 0-d
    word."""
    h = np.random.default_rng(5).integers(0, 2**63, 1000, dtype=np.int64).astype(np.uint64)
    h |= np.uint64(1 << 63)
    for k in (2, 64, 1 << 62, 3, 1000, (1 << 63) - 25):
        want = (h % np.uint64(k)).astype(np.int64)
        got = hx.bucket(h, k)
        assert got.dtype == np.int64 and np.array_equal(got, want) and (got >= 0).all()
        assert int(hx.bucket(h[7], k)) == int(want[7])


def test_uniform01_stays_below_one_at_the_top_word():
    """The word whose top 53 bits are all set, the one (k + 1/2) 2^-53
    rounds to 1.0 at, maps to 1 - 2^-53, so the interval stays open: its
    exponential is positive and a p-stable draw at it is finite. Its
    neighbour below and the bottom word keep their values."""
    top = np.array([((1 << 53) - 1) << 11, ((1 << 53) - 2) << 11, 0], dtype=np.uint64)
    u = hx.uniform01(top)
    assert u.tolist() == [1.0 - 2.0**-53, (2**53 - 2) * 2.0**-53 + 2.0**-54, 2.0**-54]
    assert hx.uniform01(top[0]) < 1.0 and hx.exp1(top[0]) > 0.0
    theta = np.array([3 << 62], dtype=np.uint64)  # uniform 3/4, theta = pi/4
    for p in (1.0 / 4.0, 1.0 / 100.0):
        sign, log_mag = _log_stable_draws(top[:1], theta, p)
        assert np.isfinite(log_mag).all() and sign.tolist() == [1.0]


_MASK = 2**64 - 1


def _py_mix(z: int) -> int:
    """splitmix64's finalizer on a Python int, reduced mod 2^64 by hand."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _py_extend(acc: int, *parts: int) -> int:
    for p in parts:
        acc = _py_mix(acc ^ p)
    return acc


_words = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**12, 2**64 - 1),
                   st.sampled_from([0, 1, 2**63, 2**64 - 1]))


@st.composite
def _chains(draw):
    """Chain words, and parts of one common length or of one word each."""
    acc = draw(st.lists(_words, min_size=1, max_size=5))
    width = draw(st.integers(1, 6))
    part = st.one_of(st.lists(_words, min_size=width, max_size=width),
                     st.lists(_words, min_size=1, max_size=1))
    return acc, draw(st.lists(part, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@example(([2**64 - 1], [[2**64 - 1], [0, 2**64 - 1, 2**64 - 2]]))
@example(([0, 2**64 - 1, 5], [[2**64 - 1, 2**63, 1, 7]]))
@given(_chains())
def test_extend_equals_a_python_int_splitmix_chain(chain):
    """`extend` (and so `combine`, and splitmix64's finalizer `extend(0, .)`),
    which finishes each mix in place, equals a splitmix64 chain on Python
    ints: on 0-d words, on 1-d arrays, and on an (m, 1) column of chain
    words broadcast against an (n,) row of part words. It writes none of its inputs and raises no
    RuntimeWarning (0-d words compute on numpy scalars, which would warn on
    overflow outside `extend`'s errstate guard)."""
    acc, parts = chain
    col = np.array(acc, dtype=np.uint64)[:, None]
    rows = [np.array(p, dtype=np.uint64) for p in parts]
    kept = [a.copy() for a in [col, *rows]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = hx.extend(col, *rows)  # (m, n_1), then broadcast part by part
        first = hx.extend(np.uint64(acc[0]), *(np.uint64(p[0]) for p in parts))
        line = hx.extend(col[:, 0], *(np.uint64(p[0]) for p in parts))
        mixed = hx.extend(0, col)
        word = hx.combine(acc[0], parts[0][0])
    for a, b in zip(kept, [col, *rows]):
        assert np.array_equal(a, b)
    width = max(len(p) for p in parts)
    assert grid.shape == (len(acc), width)
    for i, a in enumerate(acc):
        for j in range(width):
            want = _py_extend(a, *(p[j] if len(p) > 1 else p[0] for p in parts))
            assert int(grid[i, j]) == want
        assert int(line[i]) == _py_extend(a, *(p[0] for p in parts))
        assert int(mixed[i, 0]) == _py_mix(a)
    assert int(first) == _py_extend(acc[0], *(p[0] for p in parts))
    assert int(word) == _py_extend(0x8421_5A5A_C3C3_1E1E, acc[0], parts[0][0])


def test_variates_leave_their_words_unwritten():
    """`uniform01`, `exp1` and `cauchy` (of tests/reference.py, over
    `hashing._cauchy_`) map a copy of their words in place (`exp1` takes
    its log on the uniforms' array): the words are as they
    were, and the values are those of the formulas, `exp1`'s bit for bit,
    at an array and at a 0-d word."""
    h = np.random.default_rng(9).integers(0, 2**64, 1000, dtype=np.uint64)
    h[:2] = [0, 2**64 - 1]
    kept = h.copy()
    u = hx.uniform01(h)
    assert np.array_equal(u, np.minimum((kept >> np.uint64(11)).astype(np.float64) * 2.0**-53
                                        + 2.0**-54, 1.0 - 2.0**-53))
    assert hx.exp1(h).tobytes() == (-np.log(hx.uniform01(h))).tobytes()
    assert float(hx.exp1(h[5])).hex() == float(-np.log(u[5])).hex()
    assert np.array_equal(cauchy(h), np.tan(np.pi * (u - 0.5)))
    assert np.array_equal(h, kept)
    assert float(cauchy(h[5])) == float(cauchy(h)[5])
