"""Property tests: the ``IntervalSet`` laws and the tests' plain-interval
reference against them, the inclusion chain and the bound order on
generated tensors, and the text format's round trips.
Examples are derandomized, so every run checks the same cases."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import uncovered, unite
from zeigloc.bounds import bound_report
from zeigloc.intervals import IntervalSet
from zeigloc.localization import build_sets, inclusion_chain_check, row_aggregates
from zeigloc.tensor import Tensor, parse_tensor, serialize_tensor, weak_symmetry_check

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
def test_union_laws(a, b, c):
    assert a.union(b) == b.union(a)
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.union(a) == a


@PROPERTY
@given(interval_lists, interval_sets, interval_sets, st.sampled_from([0.0, 0.125, 0.5]))
def test_reference_intervals_agree_with_interval_set(intervals, a, b, slack):
    # the tests' set reference unites and compares plain intervals on its own
    assert unite(intervals) == IntervalSet(intervals).intervals
    assert uncovered(a.intervals, b.intervals, slack) == a.uncovered_by(b, slack)


@PROPERTY
@given(nonnegative_tensors())
def test_inclusion_chain_and_bound_order(A):
    agg = row_aggregates(A)
    chk = inclusion_chain_check(build_sets(agg))
    assert chk.ok, f"chain violated: {chk.violations}"
    v = bound_report(agg).values()
    slack = 1e-12 * (1.0 + v["maxR"])
    assert v["omega_max"] <= v["zhao"] + slack
    assert v["zhao"] <= v["wang"] + slack
    assert v["wang"] <= v["maxR"] + slack


# every float the format must carry: signed zeros, integers, subnormals and
# the largest finite magnitudes
_any_entry = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def orbit_listings(draw):
    """A symmetric tensor built from one value per orbit, and its
    ``symmetric``-flag listing: one record per orbit whose value is not +0,
    each tuple written in one drawn order, the records in a drawn order."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    orbits = list(itertools.combinations_with_replacement(range(n), m))
    values = draw(st.lists(_any_entry, min_size=len(orbits), max_size=len(orbits)))
    written = draw(st.permutations(range(m)))
    arr = np.zeros((n,) * m)
    body = []
    for t, v in zip(orbits, values):
        for pos in itertools.permutations(t):
            arr[pos] = v
        if v != 0.0 or np.signbit(v):
            body.append(" ".join(str(t[k] + 1) for k in written) + f" {v!r}")
    body = draw(st.permutations(body))
    return Tensor(m, n, arr), "\n".join([f"tensor m={m} n={n} symmetric", *body]) + "\n"


@st.composite
def any_tensors(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return Tensor(m, n, draw(arrays(np.float64, (n,) * m, elements=_any_entry)))


@PROPERTY
@given(any_tensors())
def test_parse_after_serialize_is_the_identity(A):
    assert parse_tensor(serialize_tensor(A)).entries.tobytes() == A.entries.tobytes()


@PROPERTY
@given(orbit_listings())
def test_orbit_listing_parses_to_its_symmetric_tensor(case):
    A, text = case
    assert weak_symmetry_check(A).orbit_spread == 0.0
    assert parse_tensor(text).entries.tobytes() == A.entries.tobytes()
