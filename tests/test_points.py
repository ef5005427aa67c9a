import numpy as np
import pytest
from hypothesis import given, strategies as st

from geosketch import HypercubePoint, PointMultiset
from geosketch.points import hamming_matrix, points_to_matrix

from reference import hamming_distance


def pt(bits):
    return HypercubePoint.from_bits(bits)


def test_hamming_identity():
    assert hamming_distance(pt([0, 0, 0, 0]), pt([0, 0, 0, 0])) == 0


def test_hamming_complement():
    assert hamming_distance(pt([0, 0, 0, 0]), pt([1, 1, 1, 1])) == 4


def test_hamming_hand_count():
    # 1010 vs 0011 differ in coordinates 0 and 2 (counted by hand)
    assert hamming_distance(pt([1, 0, 1, 0]), pt([0, 0, 1, 1])) == 2


def test_hamming_dimension_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(pt([0, 1]), pt([0, 1, 0]))


bits_pairs = st.integers(1, 96).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(0, 1), min_size=d, max_size=d),
        st.lists(st.integers(0, 1), min_size=d, max_size=d),
        st.lists(st.integers(0, 1), min_size=d, max_size=d),
    )
)


@given(bits_pairs)
def test_hamming_is_a_metric(triple):
    xb, yb, zb = triple
    x, y, z = pt(xb), pt(yb), pt(zb)
    assert hamming_distance(x, y) == hamming_distance(y, x)
    assert (hamming_distance(x, y) == 0) == (x == y)
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_hex_round_trip():
    p = HypercubePoint.from_hex("0f", 8)
    assert p.bits().tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert p.to_hex() == "0f"
    # non-nibble dimension pads on the right
    q = pt([1, 0, 1])
    assert HypercubePoint.from_hex(q.to_hex(), 3) == q


def test_hex_bad_width():
    with pytest.raises(ValueError):
        HypercubePoint.from_hex("ff", 4)


def test_multiset_counts_and_negative():
    ms = PointMultiset(4)
    ms.add(pt([0, 0, 0, 0]), 2)
    ms.add(pt([1, 1, 1, 1]))
    assert len(ms) == 3
    ms.add(pt([0, 0, 0, 0]), -2)
    assert pt([0, 0, 0, 0]) not in ms.support()
    with pytest.raises(ValueError):
        ms.add(pt([1, 1, 1, 1]), -5)


def test_multiset_from_no_points_raises():
    """The dimension is read from the first point, so no points is a
    ValueError that says so."""
    with pytest.raises(ValueError, match="the dimension is read from the first point"):
        PointMultiset.from_points([])
    assert PointMultiset.from_points(iter([pt([1, 0]), pt([1, 0])])).total == 2


def test_hamming_matrix_matches_scalar(rng):
    xs = rng.integers(0, 2, size=(7, 13)).astype(np.uint8)
    ys = rng.integers(0, 2, size=(5, 13)).astype(np.uint8)
    mat = hamming_matrix(xs, ys)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == hamming_distance(
                HypercubePoint.from_bits(xs[i]), HypercubePoint.from_bits(ys[j])
            )


def test_points_to_matrix_is_canonical():
    ms1 = PointMultiset(4)
    ms2 = PointMultiset(4)
    for p in [pt([1, 0, 0, 1]), pt([0, 1, 1, 0]), pt([1, 1, 1, 1])]:
        ms1.add(p)
    for p in [pt([1, 1, 1, 1]), pt([1, 0, 0, 1]), pt([0, 1, 1, 0])]:
        ms2.add(p)
    m1, c1 = points_to_matrix(ms1)
    m2, c2 = points_to_matrix(ms2)
    assert np.array_equal(m1, m2) and np.array_equal(c1, c2)
