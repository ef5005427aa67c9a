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
