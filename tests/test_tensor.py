import itertools
import math

import numpy as np
import pytest

import zeigloc.tensor as tensor_mod
from oracles import (
    brute_apply,
    brute_gradient,
    brute_jacobian,
    brute_polyval,
    brute_weak_symmetry,
    fd_gradient,
    random_symmetric_tensor,
    random_tensor,
    random_unit_vector,
    sampled_weak_symmetry,
)
from zeigloc.tensor import (
    Tensor,
    TensorFormatError,
    apply,
    gradient,
    is_nonnegative,
    parse_tensor,
    polyval,
    serialize_tensor,
    weak_symmetry_check,
)


# ------------------------------------------------------------------ parsing


def test_parse_example1_propagates_orbit_values(example1):
    A = example1
    assert (A.order, A.dim) == (4, 2)
    # the single representative 1112 fills all four permutations with the full value
    for idx in {(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)}:
        assert A.entry(idx) == 1.0
    for idx in set(itertools.permutations((1, 1, 2, 2))):
        assert A.entry(idx) == 0.25
    assert A.entry((1, 1, 1, 1)) == 1.0
    assert A.entry((2, 2, 2, 2)) == 5.0
    assert A.entry((1, 2, 2, 2)) == 0.0


def test_parse_empty_record_list_gives_zero_tensor():
    A = parse_tensor("tensor m=3 n=3\n")
    assert A.entries.shape == (3, 3, 3)
    assert np.all(A.entries == 0.0)


def test_parse_example2_slice_records(example2):
    A = example2
    assert A.entry((1, 2, 3)) == 3.0
    assert A.entry((2, 1, 3)) == 2.5
    assert not weak_symmetry_check(A).symmetric


def test_parse_accepts_comments_and_blank_lines():
    text = "\n# leading comment\n\ntensor m=2 n=2\n1 1 3.5  # trailing comment\n\n2 2 -1\n"
    A = parse_tensor(text)
    assert A.entry((1, 1)) == 3.5
    assert A.entry((2, 2)) == -1.0


def test_parse_malformed_header_reports_line():
    with pytest.raises(TensorFormatError) as err:
        parse_tensor("tensor order=4 dim=2\n")
    assert err.value.lines == (1,)
    with pytest.raises(TensorFormatError):
        parse_tensor("1 1 2.0\n")
    with pytest.raises(TensorFormatError):
        parse_tensor("")


def test_parse_index_out_of_range_reports_line():
    with pytest.raises(TensorFormatError) as err:
        parse_tensor("tensor m=2 n=2\n1 1 1.0\n1 3 2.0\n")
    assert err.value.lines == (3,)


def test_parse_bad_fields():
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=2 n=2\n1 1 1 1.0\n")  # too many indices
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=2 n=2\n1 x 1.0\n")
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=2 n=2\n1 1 abc\n")
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=2 n=2\n1 1 inf\n")


def test_parse_conflicting_duplicates_cite_both_lines():
    with pytest.raises(TensorFormatError) as err:
        parse_tensor("tensor m=2 n=2\n1 2 1.0\n1 2 1.1\n")
    assert err.value.lines == (2, 3)


def test_parse_agreeing_duplicates_merge_silently():
    A = parse_tensor("tensor m=2 n=2\n1 2 1.0\n1 2 1.0\n")
    assert A.entry((1, 2)) == 1.0


def test_parse_symmetric_orbit_conflict_detected():
    text = "tensor m=2 n=2 symmetric\n1 2 1.0\n2 1 3.0\n"
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(text)
    assert set(err.value.lines) == {2, 3}


def test_parse_rejects_tiny_and_huge_shapes():
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=1 n=3\n")
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=2 n=1\n")
    with pytest.raises(TensorFormatError):
        parse_tensor("tensor m=9 n=10\n")  # 10^9 dense entries
    with pytest.raises(ValueError):
        Tensor.zeros(1, 3)


def test_constructor_refuses_wrong_shape_and_non_finite_entries():
    with pytest.raises(ValueError, match=r"entries shape \(2, 3\) does not match"):
        Tensor(2, 2, np.zeros((2, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.ones((2, 2, 2))
        arr[1, 0, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Tensor(3, 2, arr)


def test_serialize_round_trip_is_bitwise(example1, example2):
    rng = np.random.default_rng(7)
    tensors = [example1, example2, random_tensor(rng, 3, 4), random_tensor(rng, 4, 2)]
    for A in tensors:
        B = parse_tensor(serialize_tensor(A))
        assert A.entries.tobytes() == B.entries.tobytes()


def test_serialize_keeps_negative_zero():
    A = parse_tensor("tensor m=2 n=2\n1 1 -0.0\n")
    assert "-0" in serialize_tensor(A)
    B = parse_tensor(serialize_tensor(A))
    assert A.entries.tobytes() == B.entries.tobytes()


def test_symmetrizing_already_symmetric_changes_nothing(example1):
    # feed the densified entries back through the symmetric-flag path
    records = serialize_tensor(example1).split("\n", 1)[1]
    B = parse_tensor(f"tensor m=4 n=2 symmetric\n{records}")
    assert example1.entries.tobytes() == B.entries.tobytes()


def test_nonzero_records_in_lexicographic_order(example2):
    # the records serialize_tensor lists, one per line after the header
    body = serialize_tensor(example2).splitlines()[1:]
    recs = [tuple(map(int, line.split()[:-1])) for line in body]
    assert len(recs) == np.count_nonzero(example2.entries) and recs == sorted(recs)


def test_entries_are_immutable(example1):
    with pytest.raises(ValueError):
        example1.entries[0, 0, 0, 0] = 9.0
    with pytest.raises(AttributeError):
        example1.order = 3


def test_entry_accessor_validates(example1):
    with pytest.raises(ValueError):
        example1.entry((1, 1, 1))
    with pytest.raises(ValueError):
        example1.entry((1, 1, 1, 3))


# -------------------------------------------------------------- operations


def test_apply_example1_hand_contraction(example1):
    # only the 1222 (zero) and 2222 entries survive at x = (0, 1)
    y = apply(example1, [0.0, 1.0])
    assert y.tolist() == [0.0, 5.0]


def test_apply_zero_vector_is_zero(example2):
    assert np.all(apply(example2, np.zeros(3)) == 0.0)


def test_apply_diagonal_tensor_powers_components():
    arr = np.zeros((4, 4, 4))
    for i in range(4):
        arr[i, i, i] = 1.0
    A = Tensor(3, 4, arr)
    x = np.array([0.5, -2.0, 3.0, 1.0])
    assert np.allclose(apply(A, x), x**2, rtol=0, atol=0)


def test_apply_dimension_mismatch(example1):
    with pytest.raises(ValueError):
        apply(example1, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        apply(example1, [np.nan, 0.0])


# orders 2-6 by dimensions 2-5
CONTRACTION_SHAPES = list(itertools.product(range(2, 7), range(2, 6)))


def test_apply_matches_brute_force():
    rng = np.random.default_rng(11)
    for m, n in CONTRACTION_SHAPES:
        A = random_tensor(rng, m, n)
        x = rng.uniform(-1, 1, n)
        assert np.allclose(apply(A, x), brute_apply(A.entries, x), rtol=1e-12, atol=1e-12)


def test_apply_block_matches_brute_force_row_by_row():
    rng = np.random.default_rng(12)
    for m, n in CONTRACTION_SHAPES:
        A = random_tensor(rng, m, n)
        X = rng.uniform(-1, 1, (3, n))
        Y = tensor_mod._apply_block(A.entries, X)
        assert Y.shape == (3, n)
        for x, y in zip(X, Y):
            assert np.allclose(y, brute_apply(A.entries, x), rtol=1e-12, atol=1e-12)
        empty = tensor_mod._apply_block(A.entries, np.zeros((0, n)))
        assert empty.shape == (0, n)


def test_gradient_matches_brute_force():
    rng = np.random.default_rng(14)
    for m, n in CONTRACTION_SHAPES:
        A = random_tensor(rng, m, n)
        x = rng.uniform(-1, 1, n)
        assert np.allclose(gradient(A, x), brute_gradient(A.entries, x), rtol=1e-12, atol=1e-12)


def test_jacobian_block_matches_brute_force_row_by_row():
    rng = np.random.default_rng(15)
    for m, n in CONTRACTION_SHAPES:
        A = random_tensor(rng, m, n)
        X = rng.uniform(-1, 1, (3, n))
        jac = tensor_mod._jacobian_tensor(A.entries)
        J = tensor_mod._apply_block(jac, X, keep=2)
        assert J.shape == (3, n * n)
        for x, j in zip(X, J):
            assert np.allclose(j.reshape(n, n), brute_jacobian(A.entries, x), rtol=1e-12, atol=1e-12)
        assert tensor_mod._apply_block(jac, np.zeros((0, n)), keep=2).shape == (0, n * n)


def test_polyval_examples(example1):
    assert polyval(example1, [0.0, 1.0]) == 5.0
    assert polyval(example1, [1.0, 0.0]) == 1.0
    assert polyval(Tensor.zeros(3, 3), [1.0, 2.0, 3.0]) == 0.0


def test_polyval_is_dot_of_apply():
    rng = np.random.default_rng(13)
    for _ in range(100):
        A = random_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        x = rng.uniform(-1, 1, A.dim)
        lhs = polyval(A, x)
        rhs = float(np.dot(x, apply(A, x)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_polyval_matches_brute_force():
    rng = np.random.default_rng(17)
    A = random_tensor(rng, 4, 3)
    x = rng.uniform(-1, 1, 3)
    assert polyval(A, x) == pytest.approx(brute_polyval(A.entries, x), rel=1e-12)


def test_gradient_symmetric_identity(example1):
    x = np.array([0.6, 0.8])
    g = gradient(example1, x)
    expected = 4.0 * apply(example1, x)
    assert np.allclose(g, expected, rtol=1e-12, atol=0)


def test_gradient_zero_tensor():
    assert np.all(gradient(Tensor.zeros(3, 3), [1.0, -2.0, 0.5]) == 0.0)


def test_gradient_matches_finite_differences_example2(example2):
    x = np.array([0.3, -0.7, 0.5])
    g = gradient(example2, x)
    fd = fd_gradient(lambda v: polyval(example2, v), x, step=1e-5)
    assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_gradient_matches_finite_differences_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        A = random_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        x = rng.uniform(-1, 1, A.dim)
        g = gradient(A, x)
        fd = fd_gradient(lambda v: polyval(A, v), x, step=1e-5)
        assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


# -------------------------------------------------------------- predicates


def test_is_nonnegative(example2):
    assert is_nonnegative(example2)
    assert is_nonnegative(Tensor.zeros(3, 3))
    arr = np.zeros((2, 2))
    arr[0, 1] = -1e-15
    assert not is_nonnegative(Tensor(2, 2, arr))  # strict sign test, no tolerance


def test_is_symmetric(example1, example2):
    assert weak_symmetry_check(example1).symmetric
    assert not weak_symmetry_check(example2).symmetric  # a_123 = 3 vs a_213 = 2.5
    assert weak_symmetry_check(Tensor.zeros(3, 2)).symmetric
    # the verdict is the orbit spread against the absolute SYMMETRY_TOL
    for delta, symmetric in ((tensor_mod.SYMMETRY_TOL, True), (2 * tensor_mod.SYMMETRY_TOL, False)):
        arr = np.zeros((2, 2))
        arr[0, 1] = delta
        chk = weak_symmetry_check(Tensor(2, 2, arr))
        assert (chk.orbit_spread, chk.symmetric) == (delta, symmetric)


def test_is_symmetric_matches_all_permutations_max():
    rng = np.random.default_rng(41)
    panel = []
    for _ in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        arr = random_symmetric_tensor(rng, m, n, low=-1.0, high=1.0).entries.copy()
        for _ in range(int(rng.integers(0, 3))):
            arr[tuple(rng.integers(0, n, m))] += rng.choice([5e-13, 2e-12, 1e-6])
        panel.append(arr)
    # 90000 entries: the orbit of (1, 300) spans two blocks of the one-pass test
    big = rng.uniform(-1.0, 1.0, (300, 300))
    big = big + big.T
    big[0, 299] += 3e-12
    panel.append(big)
    for arr in panel:
        m, n = arr.ndim, arr.shape[0]
        A = Tensor(m, n, arr)
        spread = max(
            float(np.max(np.abs(arr - np.transpose(arr, p))))
            for p in itertools.permutations(range(m))
        )
        orbit_spread = weak_symmetry_check(A).orbit_spread
        for tol in (0.0, 1e-12, 1e-9, spread, float(np.nextafter(spread, 0.0))):
            assert (orbit_spread <= tol) == (spread <= tol)


def all_permutations_spread(arr) -> float:
    return max(
        float(np.max(np.abs(arr - np.transpose(arr, p))))
        for p in itertools.permutations(range(arr.ndim))
    )


def test_is_symmetric_sees_a_cross_row_spread():
    # a[1,2,2] moved by delta: every row stays symmetric in its tail, so only
    # the orbit of (1,2,2) across rows 1 and 2 shows the spread
    rng = np.random.default_rng(8)
    for delta in (3e-13, 1e-12, 5e-12, 1e-6):
        arr = random_symmetric_tensor(rng, 3, 3, low=-1.0).entries.copy()
        for idx in set(itertools.permutations((0, 1, 1))):
            arr[idx] = 0.0
        arr[0, 1, 1] = delta
        assert np.array_equal(arr, np.swapaxes(arr, 1, 2))
        A = Tensor(3, 3, arr)
        chk = weak_symmetry_check(A)
        assert chk.orbit_spread == delta
        assert chk.symmetric == (delta <= tensor_mod.SYMMETRY_TOL)


def test_orbit_spread_matches_all_permutations_on_panel():
    for kind, A in weak_symmetry_panel():
        spread = all_permutations_spread(A.entries)
        chk = weak_symmetry_check(A)
        assert chk.orbit_spread == spread, (kind, A)
        assert chk.symmetric == (spread <= tensor_mod.SYMMETRY_TOL), (kind, A)


def test_is_symmetric_and_the_weak_check_take_entries_near_the_largest_double():
    # sums of orbit entries would overflow without the check's power-of-two scale
    big = np.full((2,) * 4, 1.5e308)
    chk = weak_symmetry_check(Tensor(4, 2, big))
    assert chk.orbit_spread == 0.0 and chk.symmetric and chk.max_residual == 0.0
    big[0, 0, 0, 1] = -1.5e308
    chk = weak_symmetry_check(Tensor(4, 2, big))
    assert chk.orbit_spread == np.inf and not chk.symmetric
    assert not chk.ok and np.isfinite(chk.max_residual)


def test_weak_symmetry_example2(example2):
    chk = weak_symmetry_check(example2)
    assert chk.ok and chk.tol == 1e-9
    assert chk.threshold == 1e-9 * (1.0 + 3.0)
    assert chk.max_residual <= 1e-15
    assert chk.max_residual == pytest.approx(brute_weak_symmetry(example2.entries)[1], abs=1e-15)


def test_symmetric_implies_weakly_symmetric(example1):
    chk = weak_symmetry_check(example1)
    assert chk.ok and chk.max_residual <= 1e-15
    assert chk.threshold == 1e-9 * (1.0 + 5.0)


def test_single_off_orbit_entry_is_not_weakly_symmetric():
    arr = np.zeros((3, 3, 3))
    arr[0, 1, 2] = 1.0
    chk = weak_symmetry_check(Tensor(3, 3, arr))
    # row 1, tail (2, 3): tail mean 1/2 against the orbit mean 1/6
    assert not chk.ok
    assert chk.max_residual == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert chk.threshold == 2e-9


def test_weak_symmetry_check_is_exact_and_deterministic(example2):
    chk = weak_symmetry_check(example2)
    assert chk.ok and chk.tol == tensor_mod.WEAK_SYMMETRY_TOL == 1e-9
    assert chk.max_residual <= 1e-12 * (1.0 + example2.max_abs_entry())
    assert not hasattr(chk, "trials") and not hasattr(chk, "seed")
    assert weak_symmetry_check(example2) == chk
    with pytest.raises(TypeError):
        weak_symmetry_check(example2, tol=1e-12)


def weak_symmetry_panel():
    """(kind, tensor) for orders 2-6 and dimensions 2-5: random, symmetric,
    weakly but not fully symmetric, and the latter with one off-orbit entry
    moved by 1e-6."""
    rng = np.random.default_rng(20261018)
    for m in range(2, 7):
        for n in range(2, 6):
            yield "random", random_tensor(rng, m, n)
            S = random_symmetric_tensor(rng, m, n, low=-1.0)
            yield "symmetric", S
            if m == 2:
                continue  # a weakly symmetric matrix is symmetric
            # swapping two tail positions negates D, so D's tail
            # symmetrization is zero and S + D stays weakly symmetric
            B = rng.uniform(-1.0, 1.0, (n,) * m)
            weak = S.entries + B - np.swapaxes(B, 1, 2)
            yield "weak", Tensor(m, n, weak)
            weak[(0, 1) + (0,) * (m - 2)] += 1e-6
            yield "perturbed", Tensor(m, n, weak)


def test_weak_symmetry_matches_brute_on_panel():
    expected = {"random": False, "symmetric": True, "weak": True, "perturbed": False}
    for kind, A in weak_symmetry_panel():
        chk = weak_symmetry_check(A)
        ok, residual = brute_weak_symmetry(A.entries)
        label = f"{kind} m={A.order} n={A.dim}"
        assert chk.ok == ok == expected[kind], label
        assert chk.max_residual == pytest.approx(
            residual, rel=1e-12, abs=1e-12 * (1.0 + A.max_abs_entry())
        ), label
        if kind == "weak":
            assert not chk.symmetric, label


def test_weak_symmetry_in_small_blocks(monkeypatch):
    panel = list(weak_symmetry_panel())
    want = [weak_symmetry_check(A) for _, A in panel]
    monkeypatch.setattr(tensor_mod, "_ORBIT_BLOCK", 5)
    assert [weak_symmetry_check(A) for _, A in panel] == want


def test_weak_symmetry_matches_sampled_cross_check():
    for kind, A in weak_symmetry_panel():
        if A.dim**A.order <= 256:
            assert weak_symmetry_check(A).ok == sampled_weak_symmetry(A.entries)[0], kind


def test_unit_sphere_sampling_scale_invariance():
    rng = np.random.default_rng(23)
    A = random_tensor(rng, 3, 3)
    x = random_unit_vector(rng, 3)
    assert math.isclose(float(np.linalg.norm(x)), 1.0, abs_tol=1e-12)
    assert np.isfinite(polyval(A, x))
