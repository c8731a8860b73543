"""Property tests: the ``IntervalSet`` laws, the inclusion chain and the
bound order on generated tensors.  Examples are derandomized, so every run
checks the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zeigloc.bounds import bound_report
from zeigloc.intervals import IntervalSet
from zeigloc.localization import inclusion_chain_check
from zeigloc.tensor import Tensor

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# endpoints on a coarse grid, so that touching and shared endpoints are common
_endpoint = st.integers(0, 24).map(lambda k: k / 4.0)
_interval = st.tuples(_endpoint, _endpoint).map(sorted).map(tuple)
interval_lists = st.lists(_interval, max_size=5)
interval_sets = interval_lists.map(IntervalSet)


@st.composite
def nonnegative_tensors(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(0, 3).map(float))
    return Tensor(m, n, draw(arrays(np.float64, (n,) * m, elements=entries)))


@PROPERTY
@given(interval_lists)
def test_canonical_form_sorted_disjoint_with_gaps(intervals):
    ivs = IntervalSet(intervals).intervals
    for lo, hi in ivs:
        assert 0.0 <= lo <= hi
    for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
        assert h1 < l2
    # the same points: each input lies in one output interval, and each
    # output endpoint is an input endpoint
    for lo, hi in intervals:
        assert any(a <= lo and hi <= b for a, b in ivs)
    ends = {x for iv in intervals for x in iv}
    assert all(lo in ends and hi in ends for lo, hi in ivs)


@PROPERTY
@given(interval_sets, interval_sets, interval_sets)
def test_union_and_intersection_laws(a, b, c):
    for op in (IntervalSet.union, IntervalSet.intersect):
        assert op(a, b) == op(b, a)
        assert op(op(a, b), c) == op(a, op(b, c))
        assert op(a, a) == a
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))


@PROPERTY
@given(nonnegative_tensors())
def test_inclusion_chain_and_bound_order(A):
    chk = inclusion_chain_check(A)
    assert chk.ok, f"chain violated: {chk.violations}"
    v = bound_report(A).values()
    slack = 1e-12 * (1.0 + v["maxR"])
    assert v["omega_max"] <= v["zhao"] + slack
    assert v["zhao"] <= v["wang"] + slack
    assert v["wang"] <= v["maxR"] + slack
