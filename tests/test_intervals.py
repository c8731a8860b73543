import math

import numpy as np
import pytest

from oracles import quadratic_region, uncovered, unite
from zeigloc.intervals import IntervalSet


def test_canonical_form_merges_overlap_and_touch():
    s = IntervalSet([(0.0, 1.0), (0.3106, 4.75)])
    assert s.intervals == ((0.0, 4.75),)
    assert IntervalSet([(0.0, 1.0), (1.0, 2.0)]).intervals == ((0.0, 2.0),)
    s = IntervalSet([(3.0, 4.0), (0.0, 1.0)])
    assert s.intervals == ((0.0, 1.0), (3.0, 4.0))


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        IntervalSet([(2.0, 1.0)])
    with pytest.raises(ValueError):
        IntervalSet([(-0.5, 1.0)])
    with pytest.raises(ValueError):
        IntervalSet([(0.0, math.inf)])


def test_union_of_overlapping_intervals():
    a = IntervalSet.closed(0.0, 1.0)
    b = IntervalSet.closed(0.3106, 4.75)
    assert a.union(b).intervals == ((0.0, 4.75),)


def test_sup():
    assert IntervalSet().sup() is None
    assert IntervalSet([(0.0, 1.0), (2.0, 3.5)]).sup() == 3.5


def test_contains_with_slack():
    s = IntervalSet.closed(0.0, 5.0)
    assert s.contains(5.0)
    assert not s.contains(5.0 + 1e-9)
    assert s.contains(5.0 + 1e-9, slack=1e-8)
    assert IntervalSet.closed(0.0, 0.0).contains(0.0)
    assert not IntervalSet().contains(0.0, slack=1.0)
    with pytest.raises(ValueError):
        s.contains(1.0, slack=-1e-3)


def test_subset_and_uncovered():
    inner = IntervalSet([(1.0, 2.0), (3.0, 4.0)])
    outer = IntervalSet.closed(0.5, 4.5)
    assert not inner.uncovered_by(outer)
    assert outer.uncovered_by(inner) == [(0.5, 4.5)]
    # slack rescues endpoint noise but not genuine gaps
    shifted = IntervalSet.closed(1.0 - 5e-13, 4.0)
    assert not shifted.uncovered_by(IntervalSet.closed(1.0, 4.0), slack=1e-12)
    assert shifted.uncovered_by(IntervalSet.closed(2.0, 4.0), slack=1e-12)
    assert not IntervalSet().uncovered_by(inner)


def test_degenerate_point_interval():
    s = IntervalSet.closed(0.0, 0.0)
    assert s.intervals
    assert s.sup() == 0.0


# quadratic_region is the scalar reference the set tests compare against


def test_quadratic_region_worked_examples():
    # roots of t^2 - 6.75 t + 2, the off-diagonal pair of the first example tensor
    lo, hi = quadratic_region(1.0, 5.75, 3.75)
    root = math.sqrt((1.0 - 5.75) ** 2 + 4.0 * 3.75)
    assert lo == pytest.approx((6.75 - root) / 2.0, abs=1e-15)
    assert hi == pytest.approx((6.75 + root) / 2.0, abs=1e-15)
    assert lo == pytest.approx(0.310587, abs=1e-6)
    assert hi == pytest.approx(6.439413, abs=1e-6)

    assert quadratic_region(5.0, 4.75, 0.0) == (4.75, 5.0)
    assert quadratic_region(0.0, 0.0, 0.0) == (0.0, 0.0)


def test_quadratic_region_rejects_negative_c():
    with pytest.raises(ValueError):
        quadratic_region(1.0, 1.0, -1e-9)


def test_quadratic_region_clips_to_nonnegative_axis():
    lo, hi = quadratic_region(-3.0, 1.0, 0.5)
    assert lo == 0.0 and hi > 0.0
    assert quadratic_region(-4.0, -2.0, 0.5) is None


def test_quadratic_region_endpoints_satisfy_quadratic():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a, b = rng.uniform(0.0, 10.0, 2)
        c = rng.uniform(0.0, 25.0)
        lo, hi = quadratic_region(a, b, c)
        assert abs((hi - a) * (hi - b) - c) <= 1e-9
        if lo > 0.0:
            assert abs((lo - a) * (lo - b) - c) <= 1e-9
        else:
            assert (0.0 - a) * (0.0 - b) <= c + 1e-9


def test_reference_unite_and_uncovered():
    # the set reference's own union and covering check on plain intervals
    assert unite([(3.0, 4.0), None, (1.0, 2.0), (0.0, 1.0)]) == ((0.0, 2.0), (3.0, 4.0))
    assert unite([None]) == ()
    inner = ((1.0, 2.0), (3.0, 4.0))
    assert uncovered(inner, ((0.5, 4.5),), 0.0) == []
    assert uncovered(((0.5, 4.5),), inner, 0.0) == [(0.5, 4.5)]
    # intervals of b that meet once widened cover what spans both
    assert uncovered(((1.0, 4.0),), ((1.0, 2.5), (2.5 + 1e-12, 4.0)), 1e-12) == []
    assert uncovered(((1.0, 4.0),), ((1.0, 2.5), (2.5 + 3e-12, 4.0)), 1e-12) == [(1.0, 4.0)]
    assert uncovered((), inner, 0.0) == []


def test_operations_preserve_canonical_form():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = IntervalSet((sorted(rng.uniform(0, 10, 2)) for _ in range(3)))
        b = IntervalSet((sorted(rng.uniform(0, 10, 2)) for _ in range(2)))
        ivs = a.union(b).intervals
        for lo, hi in ivs:
            assert 0.0 <= lo <= hi
        for (l1, h1), (l2, h2) in zip(ivs, ivs[1:]):
            assert h1 < l2  # positive gap between neighbours


def test_equality_and_repr():
    assert IntervalSet([(0, 1)]) == IntervalSet([(0.0, 0.5), (0.5, 1.0)])
    assert IntervalSet() != IntervalSet.closed(0.0, 0.0)
    assert "empty" in repr(IntervalSet())
    assert "[0, 5]" in repr(IntervalSet.closed(0.0, 5.0))
