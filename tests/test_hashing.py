import warnings

import numpy as np

from geosketch import hashing as hx


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
