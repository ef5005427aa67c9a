import warnings

import numpy as np

from geosketch import hashing as hx
from geosketch.mst_sketch import _log_stable_draws


def test_mix64_scalar_matches_array_without_warnings():
    """Scalar input is guarded against numpy's scalar overflow warnings and
    mixes to the same word as the matching element of an array."""
    words = [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = hx.mix64(np.array(words, dtype=np.uint64))
        for i, w in enumerate(words):
            assert int(hx.mix64(w)) == int(arr[i])
            assert int(hx.mix64(np.uint64(w))) == int(arr[i])
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
