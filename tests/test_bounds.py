import math

import numpy as np
import pytest

import zeigloc.localization as localization_mod
from oracles import random_symmetric_tensor, random_tensor
from zeigloc.bounds import BOUND_NAMES, bound_report
from zeigloc.intervals import IntervalSet
from zeigloc.localization import build_sets, row_aggregates
from zeigloc.tensor import Tensor

# closed forms obtained by solving the defining quadratics by hand
EX2_OMEGA = (13.0 + math.sqrt(285.0)) / 2.0
EX2_ZHAO = (7.0 + math.sqrt(553.0)) / 2.0
EX2_WANG = (18.0 + math.sqrt(366.0)) / 2.0


def test_bound_maxR(example1, example2):
    assert bound_report(row_aggregates(example2)).maxR.value == 19.0
    assert bound_report(row_aggregates(example1)).maxR.value == 6.75
    assert bound_report(row_aggregates(Tensor.zeros(3, 3))).maxR.value == 0.0


def test_bound_wang_example2(example2):
    value = bound_report(row_aggregates(example2)).wang.value
    assert value == pytest.approx(EX2_WANG, abs=1e-12)
    assert value == pytest.approx(18.5656, abs=5e-5)


def test_bound_zhao_example2(example2):
    value = bound_report(row_aggregates(example2)).zhao.value
    assert value == pytest.approx(EX2_ZHAO, abs=1e-12)
    assert value == pytest.approx(15.2580, abs=5e-5)


def test_bound_omega_example2(example2):
    value = bound_report(row_aggregates(example2)).omega_max.value
    assert value == pytest.approx(EX2_OMEGA, abs=1e-12)
    assert value == pytest.approx(14.9410, abs=5e-5)


def test_bound_omega_example1_families(example1):
    bv = bound_report(row_aggregates(example1)).omega_max
    assert bv.value == 5.0
    # the box family tops out at 4.75, the quadratic family reaches 5 at the
    # pair (2, 1), whose upper root is exactly 5
    assert (bv.family, bv.i, bv.j) == ("tilde", 2, 1)
    families = build_sets(row_aggregates(example1))["Omega"].families
    assert max(row.sup() for row in families["hat"]) == 4.75
    assert families["tilde"][1] == IntervalSet.closed(4.75, 5.0)


def test_bounds_zero_tensor():
    values = bound_report(row_aggregates(Tensor.zeros(4, 2))).values()
    assert values == {name: 0.0 for name in BOUND_NAMES}


def test_ties_go_to_smallest_index():
    # every pair term ties: the zero tensor (hat and tilde tie at 0 too) and
    # the all-ones tensor (tilde's 9 beats hat's 4)
    for arr, family in ((np.zeros((3, 3, 3)), "hat"), (np.ones((3, 3, 3)), "tilde")):
        rep = bound_report(row_aggregates(Tensor(3, 3, arr)))
        for name in ("omega_max", "zhao", "wang"):
            assert (getattr(rep, name).i, getattr(rep, name).j) == (1, 2), name
        assert (rep.maxR.i, rep.maxR.j) == (1, None)
        assert rep.omega_max.family == family


def test_bound_report_example2(example2):
    rep = bound_report(row_aggregates(example2))
    values = rep.values()
    assert list(values) == list(BOUND_NAMES)
    assert values["omega_max"] == pytest.approx(14.9410, abs=5e-5)
    assert values["zhao"] == pytest.approx(15.2580, abs=5e-5)
    assert values["wang"] == pytest.approx(18.5656, abs=5e-5)
    assert values["maxR"] == 19.0
    assert set(vars(rep)) == set(BOUND_NAMES)  # the bounds and nothing else
    assert (rep.omega_max.i, rep.omega_max.j, rep.omega_max.family) == (1, 3, "tilde")
    assert (rep.zhao.i, rep.zhao.j) == (2, 3)
    assert (rep.wang.i, rep.wang.j) == (2, 3)
    assert rep.maxR.i == 2 and rep.maxR.j is None


def test_bound_report_example1(example1):
    rep = bound_report(row_aggregates(example1))
    assert rep.omega_max.value == pytest.approx(5.0, abs=5e-5)
    assert rep.zhao.value == pytest.approx(6.3161, abs=5e-5)
    assert rep.wang.value == pytest.approx(6.4827, abs=5e-5)
    assert rep.maxR.value == 6.75


def test_chain_ordering_on_random_nonnegative_tensors():
    rng = np.random.default_rng(59)
    for _ in range(200):
        A = random_tensor(rng, int(rng.integers(3, 5)), int(rng.integers(2, 5)), low=0.0)
        rep = bound_report(row_aggregates(A))
        v = rep.values()
        slack = 1e-12 * (1.0 + v["maxR"])
        assert v["omega_max"] <= v["zhao"] + slack
        assert v["zhao"] <= v["wang"] + slack
        assert v["wang"] <= v["maxR"] + slack


def test_positive_scaling_equivariance():
    rng = np.random.default_rng(61)
    A = random_tensor(rng, 3, 4, low=0.0)
    base = bound_report(row_aggregates(A)).values()
    for s in (0.25, 7.0, 1e4):
        B = Tensor(A.order, A.dim, s * A.entries)
        scaled = bound_report(row_aggregates(B)).values()
        for name in BOUND_NAMES:
            assert scaled[name] == pytest.approx(s * base[name], rel=1e-12)


def test_bounds_equal_set_radii():
    # every L and Psi row is [0, min_j hi], so wang and zhao are the L and Psi
    # radii exactly; the Omega bound ignores empty tilde rows, so it can only
    # exceed the Omega radius, and equals it when the hat family wins or the
    # witness row's tilde intersection is non-empty
    rng = np.random.default_rng(67)
    for k in range(150):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        low = -1.0 if k % 3 == 0 else 0.0
        entries = rng.uniform(low, 1.0, (n,) * m)
        if k % 3 == 2:
            entries *= rng.uniform(size=entries.shape) < 0.3
        A = Tensor(m, n, entries)
        agg = row_aggregates(A)
        sets, rep = build_sets(agg), bound_report(agg)
        assert rep.maxR.value == sets["K"].radius
        assert rep.wang.value == sets["L"].radius
        assert rep.zhao.value == sets["Psi"].radius
        omega = rep.omega_max
        radius = sets["Omega"].radius
        assert omega.value >= radius
        if omega.family == "hat" or not sets["Omega"].families["tilde"][omega.i - 1].is_empty:
            assert omega.value == radius


def test_bound_omega_dominates_set_omega_radius():
    rng = np.random.default_rng(67)
    for _ in range(100):
        A = random_tensor(rng, int(rng.integers(3, 5)), int(rng.integers(2, 5)), low=0.0)
        agg = row_aggregates(A)
        radius = build_sets(agg)["Omega"].radius
        assert radius is not None
        assert bound_report(agg).omega_max.value >= radius - 1e-12 * (1.0 + radius)


def test_n2_bounds_equal_set_radii_exactly():
    rng = np.random.default_rng(71)
    for m in (3, 4):
        for _ in range(25):
            A = random_tensor(rng, m, 2)
            agg = row_aggregates(A)
            sets, rep = build_sets(agg), bound_report(agg)
            assert rep.zhao.value == sets["Psi"].radius
            assert rep.wang.value == sets["L"].radius


def test_omega_bound_ignores_empty_tilde_rows():
    # a[2,1,2] = a[2,2,1] = a[3,1,1] = a[3,3,3] = 1: every hat row is [0, 0]
    # and row 3's tilde pairs give [0, 1] (j = 1) and [2, 2] (j = 2), whose
    # intersection is empty, so Omega = {0}; the bound still takes row 3's
    # min_j min(R_3, omega_bar_3j) = 1
    arr = np.zeros((3, 3, 3))
    for idx in ((1, 0, 1), (1, 1, 0), (2, 0, 0), (2, 2, 2)):
        arr[idx] = 1.0
    A = Tensor(3, 3, arr)
    agg = row_aggregates(A)
    sets, rep = build_sets(agg), bound_report(agg)
    assert sets["Omega"].set == IntervalSet.closed(0.0, 0.0)
    assert sets["Omega"].families["tilde"][2].is_empty
    assert (rep.omega_max.value, rep.omega_max.i, rep.omega_max.j) == (1.0, 3, 1)
    assert rep.omega_max.family == "tilde"


def test_signed_tensor_has_the_bounds_of_its_absolute_value():
    # every bound reads only the row aggregates of |A|: values and witnesses
    # agree bit for bit, so the ordering self-check holds on signed tensors too
    rng = np.random.default_rng(73)
    shapes = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 6)]
    shapes += [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2), (6, 3)]
    for k in range(120):
        m, n = shapes[k % len(shapes)]
        entries = rng.standard_normal((n,) * m)
        if k % 4 == 3:  # sparse draws, where ties decide the witnesses
            entries *= rng.uniform(size=entries.shape) < 0.3
        A = Tensor(m, n, entries)
        abs_agg = row_aggregates(Tensor(m, n, np.abs(entries)))
        assert bound_report(row_aggregates(A)) == bound_report(abs_agg), (m, n, k)


def test_ordering_violation_raises_internal_error(example2, monkeypatch):
    kernel = localization_mod._pair_intervals

    def inflated(agg):
        pairs = kernel(agg)
        lo, hi = pairs["hat"]
        pairs["hat"] = (lo, hi + 1e9)
        return pairs

    monkeypatch.setattr(localization_mod, "_pair_intervals", inflated)
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        bound_report(row_aggregates(example2))


def test_symmetric_nonnegative_oracle_domination_smoke():
    # bound must sit above every eigenvalue the power method certifies
    from zeigloc.oracle import OracleConfig, sshopm

    rng = np.random.default_rng(79)
    for _ in range(5):
        A = random_symmetric_tensor(rng, 3, 3)
        ub = bound_report(row_aggregates(A)).omega_max.value
        for p in sshopm(A, OracleConfig(starts=6, seed=5)):
            assert abs(p.value) <= ub + 1e-6
