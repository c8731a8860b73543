import itertools
import logging
import math
import re
import warnings

import numpy as np
import pytest

import zeigloc.oracle as oracle_mod
from oracles import (
    n2_eigenvalues,
    polyval_newton,
    random_symmetric_tensor,
    random_tensor,
    scalar_sshopm,
)
from zeigloc.bounds import bound_report
from zeigloc.localization import build_sets, row_aggregates
from zeigloc.oracle import (
    ANGLE_TOL,
    DEDUPE_TOL,
    OracleConfig,
    ZEigenPair,
    circle_solve,
    residual,
    solve,
    sshopm,
    verify_inclusion,
)
from zeigloc.tensor import Tensor

# low eigenvalue of the first example tensor, found independently by a dense
# angle scan plus bisection at 7200 samples
EX1_LOW_EIG = -0.204429219694


def test_residual_examples(example1):
    assert residual(example1, 5.0, [0.0, 1.0]) == 0.0
    assert residual(Tensor.zeros(3, 3), 0.0, [1.0, 0.0, 0.0]) == 0.0
    assert residual(example1, 5.0, [1.0, 0.0]) > 1.0


# ------------------------------------------------------------ circle solve


def test_circle_solve_example1(example1):
    pairs = circle_solve(example1)
    assert len(pairs) == 2
    low, high = pairs
    assert low.value == pytest.approx(EX1_LOW_EIG, abs=1e-9)
    assert low.value == pytest.approx(-0.2044, abs=5e-5)
    assert high.value == pytest.approx(5.0000, abs=5e-5)
    for p in pairs:
        assert p.multiplicity == 2  # antipodal eigenvector pair, even order
        assert p.residual <= 1e-8
        assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12
        assert p.source == "circle"


def test_circle_solve_zero_tensor():
    pairs = circle_solve(Tensor.zeros(4, 2))
    assert len(pairs) == 1
    assert pairs[0].value == 0.0
    assert pairs[0].residual == 0.0


def test_circle_solve_diagonal_contains_coordinate_pairs():
    arr = np.zeros((2, 2, 2, 2))
    arr[0, 0, 0, 0] = 1.0
    arr[1, 1, 1, 1] = 5.0
    pairs = circle_solve(Tensor(4, 2, arr))
    values = sorted(p.value for p in pairs)
    assert any(abs(v - 1.0) <= 1e-9 for v in values)
    assert any(abs(v - 5.0) <= 1e-9 for v in values)
    for p in pairs:
        if abs(p.value - 1.0) <= 1e-9:
            assert abs(abs(p.vector[0]) - 1.0) <= 1e-9
        if abs(p.value - 5.0) <= 1e-9:
            assert abs(abs(p.vector[1]) - 1.0) <= 1e-9


def _double_root_tensor() -> Tensor:
    # symmetric order-4 form of c^4 + c^3 s in coordinates rotated by 0.3 rad;
    # g has a double root, with no sign change, at x = (-sin 0.3, cos 0.3)
    c = np.array([math.cos(0.3), math.sin(0.3)])
    s = np.array([-math.sin(0.3), math.cos(0.3)])
    cccs = np.einsum("i,j,k,l->ijkl", c, c, c, s)
    sym = sum(np.transpose(cccs, p) for p in itertools.permutations(range(4))) / 24.0
    return Tensor(4, 2, np.einsum("i,j,k,l->ijkl", c, c, c, c) + sym)


def test_circle_solve_reports_double_root():
    pairs = circle_solve(_double_root_tensor())
    x = np.array([-math.sin(0.3), math.cos(0.3)])
    hits = [p for p in pairs if abs(p.value) <= 1e-9 and abs(p.vector @ x) >= 1.0 - 1e-9]
    assert len(hits) == 1
    assert hits[0].multiplicity == 2  # one line, both signs; not 4 from the two root halves
    assert all(p.multiplicity == 2 for p in pairs)


def test_circle_solve_every_direction_an_eigenvector():
    # g vanishes identically on the zero tensors, on I at order 2 and on the
    # symmetric form of (x.x)^2, where A x^3 = |x|^2 x; the rows +-(1, 0) lie
    # on one line and merge into one pair
    arr = np.zeros((2, 2, 2, 2))
    for i, j, k, l in itertools.product(range(2), repeat=4):
        arr[i, j, k, l] = ((i == j) * (k == l) + (i == k) * (j == l) + (i == l) * (j == k)) / 3.0
    panel = [(Tensor.zeros(m, 2), 0.0) for m in range(2, 9)]
    panel += [(Tensor(2, 2, np.eye(2)), 1.0), (Tensor(4, 2, arr), 1.0)]
    for A, value in panel:
        got = [(p.value, p.vector.tolist(), p.residual, p.multiplicity, p.source)
               for p in circle_solve(A)]
        assert got == [(value, [1.0, 0.0], 0.0, 1, "circle")], A.order


def test_circle_solve_matches_interpolation_reference():
    rng = np.random.default_rng(131)
    panel = [_double_root_tensor()]
    for m in range(3, 9):
        for _ in range(3):
            panel.append(random_tensor(rng, m, 2))
            panel.append(random_symmetric_tensor(rng, m, 2, low=-1.0))
        # a[1,2,...,2] = 0: the direction (0, 1) is the root at infinity
        arr = rng.uniform(-1.0, 1.0, (2,) * m)
        arr[(0,) + (1,) * (m - 1)] = 0.0
        panel.append(Tensor(m, 2, arr))
    for A in panel:
        want = n2_eigenvalues(A.entries)
        got = sorted(p.value for p in circle_solve(A))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9), A


def test_circle_solve_without_real_eigenpair_is_empty():
    # the rotation by 90 degrees: g(t) = -(1 + t^2) has no real root, so the
    # residual gate gets an empty block of candidate directions
    assert circle_solve(Tensor(2, 2, [[0.0, -1.0], [1.0, 0.0]])) == []
    # about one signed draw in ten of orders 2-6 has no real eigenpair either
    rng = np.random.default_rng(7)
    empty = 0
    for m in [2, 3, 4, 5, 6] * 20:
        A = random_tensor(rng, m, 2)
        got = sorted(p.value for p in circle_solve(A))
        empty += not got
        assert got == pytest.approx(n2_eigenvalues(A.entries), rel=1e-8, abs=1e-9), A
    assert empty > 0


def test_circle_solve_preconditions(example1, example2):
    with pytest.raises(ValueError):
        circle_solve(example2)


def test_circle_solve_deterministic(example1):
    a = circle_solve(example1)
    b = circle_solve(example1)
    assert [(p.value, tuple(p.vector)) for p in a] == [(p.value, tuple(p.vector)) for p in b]


def _polish_panel(rng):
    """(coefficients, start) pairs as circle_solve polishes them: each real
    root t of a degree 2-8 polynomial, in t when |t| <= 1 and in s = 1/t on
    the reversed coefficients otherwise; coefficients span 1e-3 to 1e3."""
    for k in range(600):
        deg = 2 + k % 7
        if k % 2:
            roots = rng.uniform(-4.0, 4.0, deg)
            g = np.poly(roots) * 10.0 ** rng.uniform(-3.0, 3.0)
        else:
            g = rng.choice([-1.0, 1.0], deg + 1) * 10.0 ** rng.uniform(-3.0, 3.0, deg + 1)
        if k % 5 == 0:
            g[0] = 0.0  # degree drop, as where a[1, 2, ..., 2] = 0
        r = np.roots(g)
        for t in r.real[np.abs(r.imag) <= 1e-6 * (1.0 + np.abs(r))]:
            yield (g, t) if abs(t) <= 1.0 else (g[::-1], 1.0 / t)


def test_newton_polish_matches_polyval_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    checked = 0
    for g, t in _polish_panel(rng):
        for start in (t, t * (1.0 + 1e-6), t + 1e-3):
            got, want = oracle_mod._newton(g, start), polyval_newton(g, start)
            assert type(got) is float
            assert got.hex() == want.hex(), (g, start)
            checked += 1
    assert checked > 3000


def _pair_bits(pairs):
    return [(p.value.hex(), p.vector.tobytes(), p.residual.hex(), p.multiplicity, p.source)
            for p in pairs]


def test_circle_solve_pairs_unchanged_under_polyval_polish(monkeypatch):
    rng = np.random.default_rng(2025)
    panel = []
    for m in range(2, 9):
        for _ in range(6):
            panel.append(random_tensor(rng, m, 2))
            panel.append(random_symmetric_tensor(rng, m, 2, low=-1.0))
    fast = [_pair_bits(circle_solve(A)) for A in panel]
    monkeypatch.setattr(oracle_mod, "_newton", polyval_newton)
    assert [_pair_bits(circle_solve(A)) for A in panel] == fast
    assert sum(map(len, fast)) > 200


# ----------------------------------------------------------------- sshopm


def test_sshopm_example1_recovers_both_eigenvalues(example1):
    pairs = sshopm(example1, OracleConfig(starts=50, seed=42))
    values = sorted(p.value for p in pairs)
    assert any(abs(v - (-0.2044)) <= 5e-4 for v in values)
    assert any(abs(v - 5.0) <= 5e-4 for v in values)


def test_sshopm_zero_tensor():
    # every unit vector is an eigenvector of the zero tensor; all values are 0
    pairs = sshopm(Tensor.zeros(3, 3), OracleConfig(starts=3, seed=1))
    assert pairs
    assert all(p.value == 0.0 and p.residual == 0.0 for p in pairs)


def test_sshopm_example2_respects_new_bound(example2):
    pairs = sshopm(example2, OracleConfig(starts=100, seed=42))
    assert pairs, "power method found nothing on the second example"
    assert max(p.value for p in pairs) <= 14.9410 + 1e-6
    for p in pairs:
        assert p.residual <= 1e-8
        assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12


def test_sshopm_deterministic(example2):
    cfg = OracleConfig(starts=10, seed=7)
    a = sshopm(example2, cfg)
    b = sshopm(example2, cfg)
    assert [(p.value, tuple(p.vector), p.residual) for p in a] == [
        (p.value, tuple(p.vector), p.residual) for p in b
    ]


def test_sshopm_warns_when_nothing_converges(example2):
    with pytest.warns(RuntimeWarning, match="no candidate"):
        pairs = sshopm(example2, OracleConfig(starts=1, max_iter=1, seed=3))
    assert pairs == []


def test_sign_symmetry_of_returned_pairs(example1, example2):
    # even order: (value, -x) solves the same equation; odd order: (-value, -x)
    for A in (example1, example2):
        for p in solve(A, OracleConfig(starts=10, seed=11)):
            if A.order % 2 == 0:
                mirrored = residual(A, p.value, -p.vector)
            else:
                mirrored = residual(A, -p.value, -p.vector)
            assert mirrored == pytest.approx(p.residual, abs=1e-12)


def test_sshopm_matches_circle_on_dimension2():
    rng = np.random.default_rng(83)
    for m in (3, 4):
        for _ in range(3):
            A = random_tensor(rng, m, 2)
            circle_values = [p.value for p in circle_solve(A)]
            for p in sshopm(A, OracleConfig(starts=8, seed=19, tol=1e-13, max_iter=2000)):
                assert any(abs(p.value - v) <= 1e-6 for v in circle_values)


def _outcome_counts(caplog) -> dict[str, int]:
    (record,) = [r for r in caplog.records if r.name == "zeigloc.oracle"]
    return {k: int(v) for k, v in re.findall(r"(\w+) (\d+)", record.getMessage().split(": ", 2)[2])}


def test_sshopm_logs_run_outcomes(caplog, example2):
    caplog.set_level(logging.DEBUG, logger="zeigloc.oracle")
    sshopm(example2, OracleConfig(starts=7, seed=5))
    counts = _outcome_counts(caplog)
    assert set(counts) == {"converged", "max_iter", "zero_image", "rejected"}
    assert counts["converged"] + counts["max_iter"] + counts["zero_image"] == 14
    assert counts["converged"] > 0
    assert "shift 10:" in caplog.records[0].getMessage()


def test_sshopm_max_iter_one_counts_every_run(caplog, example2):
    caplog.set_level(logging.DEBUG, logger="zeigloc.oracle")
    with pytest.warns(RuntimeWarning, match="no candidate") as warned:
        sshopm(example2, OracleConfig(starts=3, max_iter=1, seed=3))
    counts = _outcome_counts(caplog)
    assert counts == {"converged": 0, "max_iter": 6, "zero_image": 0, "rejected": 6}
    assert "converged 0, max_iter 6, zero_image 0, rejected 6" in str(warned[0].message)


def test_sshopm_zero_image_keeps_its_start():
    # shift 0 on the zero tensor: every image vanishes before the first step
    A = Tensor.zeros(3, 3)
    starts = np.random.default_rng(1).standard_normal((8, 3))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    sign = np.tile([[1.0], [-1.0]], (4, 1))
    with np.errstate(all="raise"):
        last, how = oracle_mod._power_block(A.entries, starts, sign, 0.0, 1e-10, 1000)
    assert how.tolist() == [oracle_mod._ZERO_IMAGE] * 8
    assert np.array_equal(last, starts)
    pairs = oracle_mod._gated_pairs(A, last, "sshopm")
    assert np.array_equal(np.array([p.vector for p in pairs]), starts)
    assert all(p.value == 0.0 and p.residual == 0.0 for p in pairs)


def test_even_order_vectors_have_positive_largest_component():
    # x and -x are one eigenpair for even order: the largest component of the
    # reported vector is positive, whichever sign the run ended on
    rng = np.random.default_rng(71)
    for m, n in [(4, 3), (4, 5), (6, 3)]:
        A = random_symmetric_tensor(rng, m, n, low=-1.0)
        pairs = sshopm(A, OracleConfig(starts=6, seed=5))
        assert pairs
        for p in pairs:
            assert p.vector[np.argmax(np.abs(p.vector))] > 0.0


def test_sshopm_chunked_block_matches_unchunked(monkeypatch):
    rng = np.random.default_rng(211)
    panel = [random_symmetric_tensor(rng, 3, 4), random_tensor(rng, 4, 3), random_tensor(rng, 5, 3)]
    cfg = OracleConfig(starts=7, seed=13)
    whole = [sshopm(A, cfg) for A in panel]
    blocks = []
    block = oracle_mod._power_block

    def counted(entries, X, *args):
        blocks.append(len(X))
        return block(entries, X, *args)

    monkeypatch.setattr(oracle_mod, "_power_block", counted)
    for A, want in zip(panel, whole):
        # three runs' intermediates per chunk: 14 runs in 5 chunks
        per_run = sum(A.dim**k for k in range(1, A.order))
        monkeypatch.setattr(oracle_mod, "_BLOCK_DOUBLES", 3 * per_run)
        blocks.clear()
        got = sshopm(A, cfg)
        assert blocks == [3, 3, 3, 3, 2]
        # a one-row block goes through gemv, not gemm: equal up to rounding
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert p.value == pytest.approx(q.value, rel=1e-12, abs=1e-12)
            assert np.abs(p.vector - q.vector).max() <= 1e-10


def test_sshopm_matches_scalar_reference():
    rng = np.random.default_rng(20261018)
    panel = [
        (3, 3, True, OracleConfig(starts=4, seed=1)),
        (3, 4, False, OracleConfig(starts=3, seed=2)),
        (4, 3, True, OracleConfig(starts=3, seed=3, tol=1e-13)),
        (4, 4, False, OracleConfig(starts=2, seed=4)),
        (5, 3, True, OracleConfig(starts=1, seed=5)),
        (5, 3, False, OracleConfig(starts=3, seed=6, max_iter=1)),
        (6, 3, True, OracleConfig(starts=2, seed=7)),
        (6, 3, False, OracleConfig(starts=1, seed=8, tol=1e-13)),
        (3, 8, True, OracleConfig(starts=2, seed=9)),
        (3, 6, False, OracleConfig(starts=2, seed=10, max_iter=1)),
    ]
    for m, n, symmetric, cfg in panel:
        A = random_symmetric_tensor(rng, m, n) if symmetric else random_tensor(rng, m, n)
        want = scalar_sshopm(A, cfg.starts, cfg.max_iter, cfg.tol, seed=cfg.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # max_iter=1 keeps no pair
            got = sshopm(A, cfg)
        assert len(got) == len(want), (m, n, cfg)
        for p, (value, x) in zip(got, want):
            assert abs(p.value - value) <= 1e-10
            assert min(np.abs(p.vector - x).max(), np.abs(p.vector + x).max()) <= 1e-8


def test_polish_loses_no_pure_power_pair():
    # every pair that the pure power rule (a run stops on a step <= tol, no
    # polish) accepts is found by sshopm, which hands off at sqrt(tol)
    rng = np.random.default_rng(20261019)
    panel = [random_symmetric_tensor(rng, m, n) for m, n in ((3, 3), (3, 5), (4, 3), (4, 4), (5, 3))]
    panel += [random_tensor(rng, m, 3) for m in (3, 4)]
    cfg = OracleConfig(starts=10)
    for A in panel:
        got = sshopm(A, cfg)
        want = scalar_sshopm(A, cfg.starts, cfg.max_iter, cfg.tol, seed=cfg.seed, polish=False)
        assert want
        for value, x in want:
            assert any(abs(p.value - value) <= DEDUPE_TOL
                       and math.acos(min(1.0, abs(float(p.vector @ x)))) <= ANGLE_TOL
                       for p in got), (A, value)


def test_sshopm_every_unit_vector_an_eigenvector(monkeypatch):
    # the order-4 symmetrisation of I (x) I has A x^3 = ||x||^2 x: every unit
    # vector is an eigenvector with lambda = 1, and the bordered Newton
    # systems are singular
    singular = []
    solve_block = np.linalg.solve

    def spy(M, b):
        try:
            return solve_block(M, b)
        except np.linalg.LinAlgError:
            singular.append(len(M))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    for n in (2, 3, 5):
        eye = np.eye(n)
        outer = np.einsum("ij,kl->ijkl", eye, eye)
        A = Tensor(4, n, sum(np.transpose(outer, p) for p in itertools.permutations(range(4))) / 24)
        pairs = sshopm(A, OracleConfig(starts=10, seed=3))
        assert pairs
        assert all(p.value == pytest.approx(1.0, abs=1e-12) and p.residual <= 1e-8 for p in pairs)
    assert singular, "no block solve met an exactly singular system"


def test_newton_block_skips_singular_rows():
    # a Jordan block beside the eigenvalue 2 on e3: at e1 the bordered system
    # has a zero column, and the row keeps its iterate while e3 is polished
    entries = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    X = np.array([[1.0, 0.0, 0.0], [1e-6, 0.0, 1.0]])
    X[1] /= np.linalg.norm(X[1])
    with np.errstate(all="raise"):
        out = oracle_mod._newton_block(entries, X, 1e-10)
    assert np.array_equal(out[0], [1.0, 0.0, 0.0])
    assert np.abs(out[1] - [0.0, 0.0, 1.0]).max() <= 1e-15
    assert oracle_mod._newton_block(entries, X[:0], 1e-10).shape == (0, 3)
    # nearly singular: the step to (1, -1e290) overflows the residual, and is not taken
    e1 = np.array([[1.0, 0.0]])
    with np.errstate(all="raise"):
        out = oracle_mod._newton_block(np.array([[0.0, 0.0], [1e-10, 1e-300]]), e1, 1e-10)
    assert np.array_equal(out, e1)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(starts=0)
    with pytest.raises(ValueError):
        OracleConfig(tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_oracle_config_refuses_non_finite_tol(tol):
    # inf would skip the Newton polish and NaN would never hand off to it
    with pytest.raises(ValueError, match="finite tol"):
        OracleConfig(tol=tol)


def test_clustering_tolerances_are_module_constants():
    assert (oracle_mod.DEDUPE_TOL, oracle_mod.ANGLE_TOL) == (1e-6, 1e-5)
    for name in ("dedupe_tol", "angle_tol"):
        with pytest.raises(TypeError):
            OracleConfig(**{name: 1e-3})
    with pytest.raises(TypeError):
        circle_solve(Tensor.zeros(3, 2), dedupe_tol=1e-3)
    with pytest.raises(TypeError):
        oracle_mod._dedupe([], angle_tol=math.pi)


def test_power_shift_is_not_a_setting():
    # sshopm always shifts by order * max|entry| + 1, which secures its convergence
    with pytest.raises(TypeError):
        OracleConfig(shift=30.0)


# ------------------------------------------------------------ verification


def test_verify_inclusion_example1(example1):
    agg = row_aggregates(example1)
    reports, bounds = build_sets(agg), bound_report(agg)
    pairs = circle_solve(example1)
    doc = verify_inclusion(pairs, reports, bounds)
    assert doc.ok and not hasattr(doc, "bounds_checked")
    for row in doc.rows:
        assert set(row.set_ok) == {"K", "L", "Psi", "Omega"}
        assert set(row.bound_ok) == {"omega_max", "zhao", "wang", "maxR"}


def test_verify_inclusion_boundary_eigenvalue_within_slack(example1):
    # the top eigenvalue sits exactly on the Omega boundary
    agg = row_aggregates(example1)
    reports, bounds = build_sets(agg), bound_report(agg)
    pairs = [p for p in circle_solve(example1) if abs(p.value - 5.0) < 1e-6]
    doc = verify_inclusion(pairs, reports, bounds)
    assert doc.ok


def test_verify_inclusion_detects_violations(example1):
    from zeigloc.intervals import IntervalSet
    from zeigloc.localization import SetReport

    reports = build_sets(row_aggregates(example1))
    shrunk = {
        name: SetReport(name, IntervalSet.closed(0.0, 0.1), rep.per_index)
        for name, rep in reports.items()
    }
    doc = verify_inclusion(circle_solve(example1), shrunk, bound_report(row_aggregates(example1)))
    assert not doc.ok
    assert not all(row.set_ok["K"] for row in doc.rows)


def test_verify_inclusion_skips_bounds_for_signed_tensor():
    # the caller passes no bounds where they do not apply; given bounds are checked
    rng = np.random.default_rng(89)
    A = random_tensor(rng, 4, 2, low=-1.0)
    agg = row_aggregates(A)
    pairs, reports = circle_solve(A), build_sets(agg)
    assert pairs
    doc = verify_inclusion(pairs, reports, None)
    assert all(row.bound_ok is None for row in doc.rows)
    assert doc.ok  # the four sets hold for every real tensor
    doc = verify_inclusion(pairs, reports, bound_report(agg))
    assert all(set(row.bound_ok) == set(bound_report(agg).values()) for row in doc.rows)


def test_verify_inclusion_rejects_unconverged_pairs(example1):
    bad = ZEigenPair(value=1.0, vector=np.array([1.0, 0.0]), residual=1e-3, source="fake")
    with pytest.raises(ValueError, match="residual"):
        agg = row_aggregates(example1)
        verify_inclusion([bad], build_sets(agg), bound_report(agg))


def test_random_symmetric_eigenpairs_live_in_every_set():
    rng = np.random.default_rng(97)
    for _ in range(10):
        A = random_symmetric_tensor(rng, 3, 3)
        agg = row_aggregates(A)
        reports, bounds = build_sets(agg), bound_report(agg)
        pairs = sshopm(A, OracleConfig(starts=5, seed=23))
        doc = verify_inclusion(pairs, reports, bounds)
        assert doc.ok
