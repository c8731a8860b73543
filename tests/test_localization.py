import math

import numpy as np
import pytest

import zeigloc.localization as localization_mod
from oracles import brute_row_aggregates, random_tensor
from zeigloc.bounds import bound_report
from zeigloc.cli import main
from zeigloc.intervals import IntervalSet
from zeigloc.localization import SET_NAMES, build_sets, inclusion_chain_check, row_aggregates
from zeigloc.tensor import Tensor

# upper endpoints derived by solving the defining quadratics directly
EX1_L_RADIUS = (5.75 + math.sqrt(52.0625)) / 2.0
EX1_PSI_RADIUS = (5.0 + math.sqrt(58.25)) / 2.0
EX1_TILDE_LO = (6.75 - math.sqrt(37.5625)) / 2.0


# -------------------------------------------------------------- aggregates


def test_row_aggregates_example1(example1):
    agg = row_aggregates(example1)
    assert agg.R.tolist() == [4.75, 6.75]
    assert agg.r_bar[0, 1] == 1.0 and agg.r_delta[0, 1] == 3.75
    assert agg.r_bar[1, 0] == 5.0 and agg.r_delta[1, 0] == 1.75
    # self-splits feed the Omega set
    assert agg.r_delta[0, 0] == 4.75 and agg.r_bar[0, 0] == 0.0
    assert agg.r_delta[1, 1] == 5.75 and agg.r_bar[1, 1] == 1.0


def test_row_aggregates_example2(example2):
    agg = row_aggregates(example2)
    assert agg.R.tolist() == [17.0, 19.0, 10.5]
    R, rd, rb = brute_row_aggregates(example2.entries)
    assert np.array_equal(agg.R, R)
    assert np.allclose(agg.r_delta, rd, rtol=0, atol=1e-12)
    assert np.allclose(agg.r_bar, rb, rtol=0, atol=1e-12)


def test_row_aggregates_match_brute_force_random():
    rng = np.random.default_rng(37)
    for k in range(30):
        m = 2 + k % 5  # orders 2-6; order 2 needs no fold over tail positions
        n = int(rng.integers(2, 5))
        A = random_tensor(rng, m, n)
        agg = row_aggregates(A)
        R, rd, rb = brute_row_aggregates(A.entries)
        scale = 1.0 + np.max(R)
        assert np.max(np.abs(agg.R - R)) <= 1e-12 * scale
        assert np.max(np.abs(agg.r_delta - rd)) <= 1e-12 * scale
        assert np.max(np.abs(agg.r_bar - rb)) <= 1e-12 * scale
        for i in range(n):
            for j in range(n):
                assert agg.diag[i, j] == abs(A.entries[(i,) + (j,) * (m - 1)])


def test_row_aggregates_rows_living_on_one_index():
    # 0/1 tensors whose row i has nonzero entries only on tail tuples that
    # contain j: r_bar[i, j] is exactly 0 and r_delta[i, j] is the whole row
    rng = np.random.default_rng(83)
    for k in range(30):
        m, n = 2 + k % 5, int(rng.integers(2, 5))
        arr = (rng.uniform(size=(n,) * m) < 0.4).astype(float)
        i, j = (int(v) for v in rng.integers(0, n, 2))
        for tail in np.ndindex(*(n,) * (m - 1)):
            if j not in tail:
                arr[(i,) + tail] = 0.0
        arr[(i,) + (j,) * (m - 1)] = 1.0
        A = Tensor(m, n, arr)
        agg = row_aggregates(A)
        R, rd, rb = brute_row_aggregates(arr)
        assert agg.r_bar[i, j] == 0.0 and agg.r_delta[i, j] == agg.R[i]
        assert np.array_equal(agg.R, R)
        assert np.array_equal(agg.r_bar, rb) and np.array_equal(agg.r_delta, rd)
        assert np.all(agg.r_bar >= 0) and np.all(agg.r_delta >= 0)
        assert np.all(np.abs(agg.r_delta + agg.r_bar - R[:, None]) <= 1e-12 * (1.0 + R[:, None]))
        assert np.array_equal(agg.diag, np.abs(arr[(np.arange(n)[:, None],) + (np.arange(n),) * (m - 1)]))


def test_row_aggregates_rows_nearly_avoiding_one_index():
    # rows whose mass on tail tuples containing j is below an ulp of R_i:
    # r_bar[i, j] sums in another order than R_i and must still not pass it
    rng = np.random.default_rng(89)
    for k in range(30):
        m, n = 3 + k % 3, int(rng.integers(2, 5))
        arr = rng.uniform(0.0, 1.0, (n,) * m)
        for tail in np.ndindex(*(n,) * (m - 1)):
            if 0 in tail:
                arr[(slice(None),) + tail] *= 1e-17
        agg = row_aggregates(Tensor(m, n, arr))
        R, rd, rb = brute_row_aggregates(arr)
        assert np.all(agg.r_bar <= agg.R[:, None]) and np.all(agg.r_delta >= 0)
        assert np.max(np.abs(agg.r_bar - rb)) <= 1e-12 * (1.0 + np.max(R))
        assert np.max(np.abs(agg.r_delta - rd)) <= 1e-12 * (1.0 + np.max(R))


def test_aggregate_partition_identity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        A = random_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        agg = row_aggregates(A)
        for i in range(A.dim):
            for j in range(A.dim):
                lhs = agg.r_delta[i, j] + agg.r_bar[i, j]
                assert abs(lhs - agg.R[i]) <= 1e-12 * (1.0 + agg.R[i])
        assert np.all(agg.r_delta >= 0) and np.all(agg.r_bar >= 0)
        assert np.all(agg.r_delta <= agg.R[:, None] + 1e-12)


def test_pair_intervals_built_once_per_aggregates(example2, example2_path, monkeypatch, capsys):
    built = []
    kernel = localization_mod._pair_intervals

    def counted(agg):
        built.append(agg)
        return kernel(agg)

    monkeypatch.setattr(localization_mod, "_pair_intervals", counted)
    agg = row_aggregates(example2)
    build_sets(agg)
    bound_report(agg)
    build_sets(agg)
    assert built == [agg]
    for lo, hi in agg.pair_intervals.values():
        assert not lo.flags.writeable and not hi.flags.writeable
    build_sets(row_aggregates(example2))  # fresh aggregates, fresh kernel
    assert len(built) == 2
    built.clear()
    assert main(["verify", example2_path, "--format", "structured"]) == 0
    capsys.readouterr()
    assert len(built) == 1


# --------------------------------------------------------------- the sets


def test_set_K(example1, example2):
    rep = build_sets(row_aggregates(example1))["K"]
    assert rep.radius == 6.75  # equals max row sum exactly
    assert rep.radius == pytest.approx(6.7500, abs=5e-5)
    assert rep.per_index[0] == IntervalSet.closed(0.0, 4.75)
    assert build_sets(row_aggregates(example2))["K"].radius == 19.0
    assert build_sets(row_aggregates(Tensor.zeros(3, 3)))["K"].set == IntervalSet.closed(0.0, 0.0)


def test_set_L_example1(example1):
    rep = build_sets(row_aggregates(example1))["L"]
    assert rep.radius == pytest.approx(EX1_L_RADIUS, abs=1e-12)
    assert rep.radius == pytest.approx(6.4827, abs=5e-5)
    # row 1 region: entry a_1222 is zero, so the region is the plain row disk
    assert rep.per_index[0] == IntervalSet.closed(0.0, 4.75)


def test_set_L_zero_and_diagonal():
    assert build_sets(row_aggregates(Tensor.zeros(3, 2)))["L"].set == IntervalSet.closed(0.0, 0.0)
    arr = np.zeros((3, 3, 3))
    d = [2.0, 0.5, 1.0]
    for i in range(3):
        arr[i, i, i] = d[i]
    A = Tensor(3, 3, arr)
    assert build_sets(row_aggregates(A))["L"].radius == max(d)


def test_set_Psi_example1(example1):
    rep = build_sets(row_aggregates(example1))["Psi"]
    assert rep.radius == pytest.approx(EX1_PSI_RADIUS, abs=1e-12)
    assert rep.radius == pytest.approx(6.3161, abs=5e-5)
    # the pair (i=2, j=1) alone gives the radius
    assert rep.per_index[1].sup() == pytest.approx(EX1_PSI_RADIUS, abs=1e-12)


def test_set_Psi_zero():
    assert build_sets(row_aggregates(Tensor.zeros(4, 2)))["Psi"].set == IntervalSet.closed(0.0, 0.0)


def test_set_Omega_example1(example1):
    rep = build_sets(row_aggregates(example1))["Omega"]
    assert rep.set == IntervalSet.closed(0.0, 5.0)
    assert rep.radius == pytest.approx(5.0000, abs=5e-5)
    hat = rep.families["hat"]
    tilde = rep.families["tilde"]
    assert hat[0] == IntervalSet.closed(0.0, 1.0)
    assert hat[1] == IntervalSet.closed(0.0, 4.75)
    lo, hi = tilde[0].intervals[0]
    assert lo == pytest.approx(EX1_TILDE_LO, abs=1e-12) and hi == 4.75
    assert tilde[1] == IntervalSet.closed(4.75, 5.0)


def test_set_Omega_zero():
    rep = build_sets(row_aggregates(Tensor.zeros(3, 3)))["Omega"]
    assert rep.set == IntervalSet.closed(0.0, 0.0)


def test_diagonal_pair_never_limits_a_row():
    # the self pair (3, 3) has tilde roots 0 and r_bar + r_delta, but rounds
    # its lower root to 4.4e-16; row 3's partners all reach down to 0
    A = random_tensor(np.random.default_rng(133), 3, 3, low=0.0)
    tilde = build_sets(row_aggregates(A))["Omega"].families["tilde"]
    assert tilde[2].intervals[0][0] == 0.0


def test_build_sets_order(example1):
    reports = build_sets(row_aggregates(example1))
    assert tuple(reports) == SET_NAMES
    for name, rep in reports.items():
        assert rep.name == name
        assert rep.radius == rep.set.sup()


# ------------------------------------------------------- chain and scaling


def test_inclusion_chain_example1(example1):
    chk = inclusion_chain_check(build_sets(row_aggregates(example1)))
    assert chk.ok and not chk.violations
    radii = [chk.radii[name] for name in ("Omega", "Psi", "L", "K")]
    assert radii == sorted(radii)
    assert radii[0] == pytest.approx(5.0, abs=5e-5)
    assert radii[-1] == pytest.approx(6.75, abs=5e-5)


def test_inclusion_chain_zero_tensor():
    chk = inclusion_chain_check(build_sets(row_aggregates(Tensor.zeros(3, 3))))
    assert chk.ok
    assert all(r == 0.0 for r in chk.radii.values())


def test_inclusion_chain_random_tensors():
    rng = np.random.default_rng(43)
    for k in range(200):
        m = (3, 4)[k % 2]
        n = (2, 3, 4)[k % 3]
        low = -1.0 if k % 2 == 0 else 0.0
        A = random_tensor(rng, m, n, low=low, high=1.0)
        chk = inclusion_chain_check(build_sets(row_aggregates(A)), slack=1e-12)
        assert chk.ok, f"chain violated: {chk.violations}"


def test_inclusion_chain_large_magnitude_entries():
    # endpoint rounding at scale 1e7 is ulp-level; the default slack absorbs it
    rng = np.random.default_rng(20260808)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = random_tensor(rng, m, n, low=-1e7, high=1e7)
        chk = inclusion_chain_check(build_sets(row_aggregates(A)))
        assert chk.ok, f"chain violated: {chk.violations}"


def test_scaling_covariance():
    rng = np.random.default_rng(47)
    A = random_tensor(rng, 3, 3)
    agg = row_aggregates(A)
    radii = {name: rep.radius for name, rep in build_sets(agg).items()}
    for s in (0.5, 3.0, 1e3):
        B = Tensor(A.order, A.dim, s * A.entries)
        agg_s = row_aggregates(B)
        assert np.allclose(agg_s.R, s * agg.R, rtol=1e-12)
        assert np.allclose(agg_s.r_delta, s * agg.r_delta, rtol=1e-12, atol=0)
        assert np.allclose(agg_s.r_bar, s * agg.r_bar, rtol=1e-12, atol=1e-300)
        for name, rep in build_sets(agg_s).items():
            assert rep.radius == pytest.approx(s * radii[name], rel=1e-12)


def test_radius_monotone_under_entry_growth():
    rng = np.random.default_rng(53)
    for _ in range(40):
        A = random_tensor(rng, int(rng.integers(3, 5)), int(rng.integers(2, 4)))
        before = {name: rep.radius for name, rep in build_sets(row_aggregates(A)).items()}
        arr = A.entries.copy()
        pos = tuple(rng.integers(0, A.dim, size=A.order))
        sign = 1.0 if arr[pos] >= 0 else -1.0
        arr[pos] = sign * (abs(arr[pos]) + rng.uniform(0.1, 2.0))
        grown = row_aggregates(Tensor(A.order, A.dim, arr))
        after = {name: rep.radius for name, rep in build_sets(grown).items()}
        for name in SET_NAMES:
            assert after[name] >= before[name] - 1e-12 * (1.0 + before[name])


def test_n2_single_partner_intersection(example1):
    # n = 2 leaves one j per row: per-row sets are single quadratic regions
    reports = build_sets(row_aggregates(example1))
    for name in ("L", "Psi"):
        for row_set in reports[name].per_index:
            assert len(row_set.intervals) == 1
