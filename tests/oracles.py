"""Independent brute-force oracles and tensor generators for the tests.

Nothing here calls the library's vectorized code paths: row sums come from a
plain loop over all index tuples, gradients from central finite differences.
"""

import itertools

import numpy as np

from zeigloc.tensor import Tensor


def brute_row_aggregates(entries: np.ndarray):
    """(R, r_delta, r_bar) by direct enumeration of every index tuple."""
    m, n = entries.ndim, entries.shape[0]
    R = np.zeros(n)
    r_delta = np.zeros((n, n))
    r_bar = np.zeros((n, n))
    for idx in itertools.product(range(n), repeat=m):
        v = abs(float(entries[idx]))
        i = idx[0]
        R[i] += v
        tail = set(idx[1:])
        for j in range(n):
            if j in tail:
                r_delta[i, j] += v
            else:
                r_bar[i, j] += v
    return R, r_delta, r_bar


def brute_apply(entries: np.ndarray, x):
    m, n = entries.ndim, entries.shape[0]
    y = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        prod = float(entries[idx])
        for k in idx[1:]:
            prod *= x[k]
        y[idx[0]] += prod
    return y


def brute_polyval(entries: np.ndarray, x) -> float:
    m, n = entries.ndim, entries.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=m):
        prod = float(entries[idx])
        for k in idx:
            prod *= x[k]
        total += prod
    return total


def fd_gradient(func, x, step: float = 1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = step
        g[k] = (func(x + e) - func(x - e)) / (2.0 * step)
    return g


def random_tensor(rng, order: int, dim: int, low: float = -1.0, high: float = 1.0) -> Tensor:
    return Tensor(order, dim, rng.uniform(low, high, size=(dim,) * order))


def random_symmetric_tensor(rng, order: int, dim: int, low: float = 0.0, high: float = 1.0) -> Tensor:
    """Exactly symmetric: one draw per index orbit, copied to every permutation."""
    arr = np.zeros((dim,) * order)
    for rep in itertools.combinations_with_replacement(range(dim), order):
        v = rng.uniform(low, high)
        for perm in set(itertools.permutations(rep)):
            arr[perm] = v
    return Tensor(order, dim, arr)


def random_unit_vector(rng, dim: int):
    while True:
        x = rng.standard_normal(dim)
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            return x / nrm


def n2_eigenvalues(entries: np.ndarray) -> list[float]:
    """All real Z-eigenvalues of a dimension-2 tensor, sorted, one per pair
    as ``circle_solve`` reports them.

    On x = (1, t), g(t) = y_1 t - y_2 with y = A x^(m-1) has degree at most m.
    Its coefficients come from interpolating ``brute_apply`` at m + 1
    Chebyshev nodes.  Each real root t is the direction (1, t); the direction
    (0, 1) is added when y_1 vanishes there.  Odd order also counts -lambda
    at -x, unless lambda is 0.  Interpolation noise can push a root of
    multiplicity 3 or more off the real axis, so panels avoid such roots.
    """
    m = entries.ndim
    nodes = np.cos(np.pi * (np.arange(m + 1) + 0.5) / (m + 1))
    values = []
    for t in nodes:
        y = brute_apply(entries, [1.0, t])
        values.append(y[0] * t - y[1])
    coeffs = np.polynomial.polynomial.polyfit(nodes, values, m)
    lines = [
        np.array([1.0, r.real]) / np.hypot(1.0, r.real)
        for r in np.polynomial.polynomial.polyroots(coeffs)
        if abs(r.imag) <= 1e-6 * (1.0 + abs(r))
    ]
    if brute_apply(entries, [0.0, 1.0])[0] == 0.0:
        lines.append(np.array([0.0, 1.0]))
    distinct = []
    for x in lines:
        if all(abs(float(x @ d)) < 1.0 - 1e-10 for d in distinct):
            distinct.append(x)
    out = []
    for x in distinct:
        lam = float(x @ brute_apply(entries, x))
        out.append(lam)
        if m % 2 == 1 and abs(lam) > 5e-7:
            out.append(-lam)
    return sorted(out)
