"""The library's sets and bounds against the scalar per-pair reference.

The reference sums row aggregates in another order, so endpoints agree to a
relative tolerance, not bit for bit.  An endpoint tie can then also flip
whether a row interval is empty or whether two intervals touch; the
comparison allows that only for intervals no longer than twice the tolerance.
"""

import numpy as np

from oracles import brute_bound_terms, brute_bounds, brute_row_aggregates, brute_sets, uncovered
from zeigloc.bounds import BOUND_NAMES, bound_report
from zeigloc.localization import SET_NAMES, build_sets, row_aggregates
from zeigloc.tensor import Tensor

RTOL = 1e-12


def panel(seed: int, count: int):
    """Seeded tensors of orders 2-5 and dimensions 2-5, cycling through
    signed, nonnegative, 30 %-sparse nonnegative and small-integer entries."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        shape = (n,) * m
        kind = ("signed", "nonnegative", "sparse", "integer")[k % 4]
        if kind == "signed":
            entries = rng.uniform(-1.0, 1.0, shape)
        elif kind == "nonnegative":
            entries = rng.uniform(0.0, 1.0, shape)
        elif kind == "sparse":
            entries = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.3)
        else:
            entries = rng.integers(-3, 4, shape).astype(float)
        yield kind, Tensor(m, n, entries)


def assert_sets_close(got, want, tol, what):
    # got: the library's IntervalSet; want: the reference's tuple of intervals
    for a, b in ((got.intervals, want), (want, got.intervals)):
        for lo, hi in uncovered(a, b, tol):
            assert hi - lo <= 2.0 * tol, f"{what}: {got} vs reference {want}"


def assert_witness(name, got, want, A, tol, what):
    """Same witness (i, j, family) as the reference, or one that attains the
    reference value within tol in the reference's own terms."""
    value, i, j, family = want
    if (got.i, got.j, got.family) == (i, j, family):
        return
    if name == "maxR":
        attained = [brute_row_aggregates(A.entries)[0][got.i - 1]]
    else:
        terms = brute_bound_terms(A.entries)[got.family or name]
        attained = [min(v for v in terms[got.i - 1] if v is not None), terms[got.i - 1][got.j - 1]]
    for v in attained:
        assert abs(v - value) <= tol, f"{what} {name}: witness {got} vs reference {want}"


def check_against_reference(A, what):
    agg = row_aggregates(A)
    reports = build_sets(agg)
    ref = brute_sets(A.entries)
    tol = RTOL * (1.0 + float(np.abs(A.entries).sum(axis=tuple(range(1, A.order))).max()))
    for name in SET_NAMES:
        rep = reports[name]
        want_set, want_rows, want_families = ref[name]
        assert_sets_close(rep.set, want_set, tol, f"{what} {name}")
        assert abs(rep.radius - want_set[-1][1]) <= tol, f"{what} {name} radius"
        assert len(rep.per_index) == len(want_rows) == A.dim
        for i, (got_row, want_row) in enumerate(zip(rep.per_index, want_rows)):
            assert_sets_close(got_row, want_row, tol, f"{what} {name} row {i + 1}")
        assert (rep.families is None) == (want_families is None)
        for family, want_fam_rows in (want_families or {}).items():
            for i, (got_row, want_row) in enumerate(zip(rep.families[family], want_fam_rows)):
                assert_sets_close(got_row, want_row, tol, f"{what} {family} row {i + 1}")
    bounds = bound_report(agg)
    want = brute_bounds(A.entries)
    for name in BOUND_NAMES:
        got = getattr(bounds, name)
        assert abs(got.value - want[name][0]) <= tol, f"{what} {name} value"
        assert_witness(name, got, want[name], A, tol, what)


def test_worked_examples_match_reference(example1, example2):
    check_against_reference(example1, "example1")
    check_against_reference(example2, "example2")


def test_seeded_panel_matches_reference():
    for k, (kind, A) in enumerate(panel(seed=20261018, count=300)):
        check_against_reference(A, f"tensor {k} ({kind}, m={A.order}, n={A.dim})")
