"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

import zeigloc.oracle as oracle_mod
from oracles import fd_gradient, random_symmetric_tensor, random_tensor
from zeigloc.bounds import bound_report
from zeigloc.cli import main
from zeigloc.localization import build_sets, inclusion_chain_check, row_aggregates
from zeigloc.oracle import OracleConfig, circle_solve, sshopm
from zeigloc.tensor import apply, gradient, parse_tensor, polyval

REFERENCE_RADII = {"K": 6.7500, "L": 6.4827, "Psi": 6.3161, "Omega": 5.0000}
REFERENCE_EIGENVALUES = (-0.2044, 5.0000)
REFERENCE_BOUNDS = {"omega_max": 14.9410, "zhao": 15.2580, "wang": 18.5656, "maxR": 19.0}
# the criterion-7 tensor with no real Z-eigenpair: circle_solve finds none and
# sshopm warns that no candidate passed its residual gate
NO_REAL_PAIR = 13


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_example1_set_radii(example1_path):
    t0 = time.perf_counter()
    A = parse_tensor(open(example1_path).read())
    reports = build_sets(row_aggregates(A))
    elapsed = time.perf_counter() - t0
    errors = {name: abs(reports[name].radius - want) for name, want in REFERENCE_RADII.items()}
    ok = all(e <= 5e-5 for e in errors.values()) and elapsed < 1.0
    _report(1, ok, f"set radii K/L/Psi/Omega within 5e-5 (worst {max(errors.values()):.2e}, "
                   f"{elapsed * 1e3:.0f} ms)")


def test_criterion_2_example1_eigenvalues(example1, example1_path, capsys):
    pairs = circle_solve(example1)
    values = sorted(p.value for p in pairs)
    two_distinct = len(values) == 2
    close = two_distinct and all(
        abs(v - want) <= 5e-5 for v, want in zip(values, sorted(REFERENCE_EIGENVALUES))
    )
    exit_code = main(["verify", example1_path])
    capsys.readouterr()
    ok = close and exit_code == 0
    _report(2, ok, f"circle solver found {values} (want two values near "
                   f"{sorted(REFERENCE_EIGENVALUES)}), verify exit {exit_code}")


def test_criterion_3_example2_bound_table(example2_path, capsys):
    t0 = time.perf_counter()
    A = parse_tensor(open(example2_path).read())
    rep = bound_report(row_aggregates(A))
    elapsed = time.perf_counter() - t0
    values = rep.values()
    errors = {name: abs(values[name] - want) for name, want in REFERENCE_BOUNDS.items()}
    exit_code = main(["info", example2_path, "--format", "structured"])
    info = json.loads(capsys.readouterr().out)["info"]
    flags_ok = (
        exit_code == 0
        and info["nonnegative"] is True
        and info["weakly_symmetric"]["verdict"] is True
        and info["symmetric"] is False
    )
    ok = all(e <= 5e-5 for e in errors.values()) and flags_ok and elapsed < 1.0
    _report(3, ok, f"bounds within 5e-5 (worst {max(errors.values()):.2e}), "
                   f"flags nonneg/weakly-sym/not-sym {flags_ok}, {elapsed * 1e3:.0f} ms")


def test_criterion_4_inclusion_chain_500_random():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    violations = 0
    count = 0
    for k in range(500):
        m = (3, 4)[k % 2]
        n = (2, 3, 4)[k % 3]
        low = -1.0 if k < 250 else 0.0
        A = random_tensor(rng, m, n, low=low, high=1.0)
        sets = build_sets(row_aggregates(A))
        # the three containments at an absolute slack of 1e-12
        for inner, outer in (("Omega", "Psi"), ("Psi", "L"), ("L", "K")):
            violations += len(sets[inner].set.uncovered_by(sets[outer].set, 1e-12))
        violations += not inclusion_chain_check(sets).ok
        count += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and count >= 500 and elapsed < 30.0
    _report(4, ok, f"{count} random tensors, {violations} chain violations, {elapsed:.1f} s")


def test_criterion_5_bound_chain_500_random_nonnegative():
    rng = np.random.default_rng(303)
    violations = 0
    for k in range(500):
        m = (3, 4)[k % 2]
        n = (2, 3, 4)[k % 3]
        A = random_tensor(rng, m, n, low=0.0, high=1.0)
        rep = bound_report(row_aggregates(A))
        v = rep.values()
        slack = 1e-12 * (1.0 + v["maxR"])
        chain = (v["omega_max"], v["zhao"], v["wang"], v["maxR"])
        if any(a > b + slack for a, b in zip(chain, chain[1:])):
            violations += 1
    _report(5, violations == 0, f"500 random nonnegative tensors, {violations} ordering violations")


def test_criterion_6_oracle_containment_100_symmetric(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_POWER_STEPS", 400)
    rng = np.random.default_rng(404)
    cfg = OracleConfig(starts=4, seed=17)
    violations = 0
    pairs_seen = 0
    for _ in range(100):
        A = random_symmetric_tensor(rng, 3, 3)
        agg = row_aggregates(A)
        omega = build_sets(agg)["Omega"]
        ub = bound_report(agg).omega_max.value
        for p in sshopm(A, cfg):
            pairs_seen += 1
            if not omega.set.contains(abs(p.value), slack=1e-6):
                violations += 1
            if abs(p.value) > ub + 1e-6:
                violations += 1
    ok = violations == 0 and pairs_seen > 0
    _report(6, ok, f"100 symmetric nonnegative tensors, {pairs_seen} eigenpairs, "
                   f"{violations} containment violations")


def test_criterion_7_cross_oracle_agreement_50_tensors(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_POWER_STEPS", 2000)
    rng = np.random.default_rng(505)
    cfg = OracleConfig(starts=6, seed=29)
    mismatches = 0
    checked = 0
    for k in range(50):
        A = random_tensor(rng, (3, 4)[k % 2], 2)
        circle_values = [p.value for p in circle_solve(A)]
        if k == NO_REAL_PAIR:
            with pytest.warns(RuntimeWarning, match="no candidate"):
                pairs = sshopm(A, cfg)
        else:
            pairs = sshopm(A, cfg)
        # two-sided: the power method finds a pair iff the tensor has one
        if bool(pairs) != bool(circle_values):
            mismatches += 1
        for p in pairs:
            checked += 1
            if not any(abs(p.value - v) <= 1e-6 for v in circle_values):
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    _report(7, ok, f"50 random n=2 tensors, {checked} power-method eigenvalues, "
                   f"{mismatches} not matched by circle_solve or found by one oracle only")


def test_criterion_8_gradient_correctness():
    rng = np.random.default_rng(606)
    worst_fd = 0.0
    for _ in range(100):
        A = random_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        x = rng.uniform(-1.0, 1.0, A.dim)
        g = gradient(A, x)
        fd = fd_gradient(lambda v: polyval(A, v), x, step=1e-5)
        worst_fd = max(worst_fd, float(np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g)))))
    worst_sym = 0.0
    for _ in range(50):
        A = random_symmetric_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                                    low=-1.0, high=1.0)
        x = rng.uniform(-1.0, 1.0, A.dim)
        g = gradient(A, x)
        expected = A.order * apply(A, x)
        worst_sym = max(
            worst_sym, float(np.max(np.abs(g - expected)) / (1.0 + np.max(np.abs(expected))))
        )
    ok = worst_fd <= 1e-6 and worst_sym <= 1e-12
    _report(8, ok, f"finite differences worst {worst_fd:.2e} (tol 1e-6), "
                   f"symmetric identity worst {worst_sym:.2e} (tol 1e-12)")
