"""Independent brute-force oracles and tensor generators for the tests.

Nothing here calls the library's vectorized code paths: row sums come from a
plain loop over all index tuples, gradients from central finite differences,
the localization sets and bounds from per-pair loops over their scalar
definitions, weak symmetry from a loop over rows, tail tuples and their
permutations, and power-method eigenpairs from one run at a time over
``brute_apply``; the text format is read and written one record at a time.  Only
``IntervalSet``, ``Tensor``, ``TensorFormatError`` and ``MAX_DENSE_ENTRIES``
come from the library.
"""

import itertools
import math
import re

import numpy as np

from zeigloc.intervals import IntervalSet
from zeigloc.tensor import MAX_DENSE_ENTRIES, Tensor, TensorFormatError


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


def quadratic_region(a: float, b: float, c: float) -> IntervalSet:
    """Solution set {t >= 0 : (t - a)(t - b) <= c} for c >= 0.

    The roots are ((a + b) +- sqrt((a - b)^2 + 4c)) / 2; with c >= 0 the
    discriminant is never negative, so the region is a single closed interval
    clipped to the nonnegative axis (possibly empty when both roots are
    negative).
    """
    if c < 0:
        raise ValueError(f"quadratic_region needs c >= 0, got {c}")
    d = a - b
    root = math.sqrt(d * d + 4.0 * c)
    hi = ((a + b) + root) / 2.0
    if hi < 0:
        return IntervalSet.empty()
    lo = max(0.0, ((a + b) - root) / 2.0)
    return IntervalSet.closed(lo, hi)


def _intersect_all(regions):
    out = regions[0]
    for r in regions[1:]:
        out = out.intersect(r)
    return out


def _unite_all(rows):
    out = IntervalSet.empty()
    for r in rows:
        out = out.union(r)
    return out


def brute_sets(entries: np.ndarray):
    """{name: (set, per-row sets, families)} for K, L, Psi and Omega, one
    pair region at a time: each row intersects its regions over j != i, the
    set unites the rows.  ``families`` is None except for Omega, whose rows
    unite a "hat" and a "tilde" family."""
    m, n = entries.ndim, entries.shape[0]
    R, r_delta, r_bar = brute_row_aggregates(entries)
    rows = {name: [] for name in ("K", "L", "Psi", "hat", "tilde")}
    for i in range(n):
        disk = IntervalSet.closed(0.0, R[i])
        regions = {name: [] for name in ("L", "Psi", "hat", "tilde")}
        for j in range(n):
            if j == i:
                continue
            a_ij = abs(float(entries[(i,) + (j,) * (m - 1)]))
            regions["L"].append(quadratic_region(R[i] - a_ij, 0.0, a_ij * R[j]))
            regions["Psi"].append(quadratic_region(r_bar[i, j], 0.0, r_delta[i, j] * R[j]))
            regions["hat"].append(IntervalSet.closed(0.0, min(r_bar[i, j], r_delta[j, j])))
            tilde = quadratic_region(r_bar[i, j], r_delta[j, j], r_delta[i, j] * r_bar[j, j])
            regions["tilde"].append(tilde.intersect(disk))
        rows["K"].append(disk)
        for name, regs in regions.items():
            rows[name].append(_intersect_all(regs))
    omega = [h.union(t) for h, t in zip(rows["hat"], rows["tilde"])]
    out = {name: (_unite_all(rows[name]), tuple(rows[name]), None) for name in ("K", "L", "Psi")}
    families = {"hat": tuple(rows["hat"]), "tilde": tuple(rows["tilde"])}
    out["Omega"] = (_unite_all(omega), tuple(omega), families)
    return out


def brute_bound_terms(entries: np.ndarray) -> dict:
    """Per-pair terms of each max-min bound, ``terms[name][i][j]`` for j != i
    (None on the diagonal): "wang", "zhao", and Omega's "hat" and "tilde"."""
    m, n = entries.ndim, entries.shape[0]
    R, r_delta, r_bar = brute_row_aggregates(entries)
    terms = {name: [[None] * n for _ in range(n)] for name in ("wang", "zhao", "hat", "tilde")}
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            a_ij = abs(float(entries[(i,) + (j,) * (m - 1)]))
            d, c = R[i] - a_ij, a_ij * R[j]
            terms["wang"][i][j] = 0.5 * (d + math.sqrt(d * d + 4.0 * c))
            b, c = r_bar[i, j], r_delta[i, j] * R[j]
            terms["zhao"][i][j] = 0.5 * (b + math.sqrt(b * b + 4.0 * c))
            terms["hat"][i][j] = min(r_bar[i, j], r_delta[j, j])
            a, b, c = r_bar[i, j], r_delta[j, j], r_delta[i, j] * r_bar[j, j]
            omega_bar = 0.5 * (a + b + math.sqrt((a - b) ** 2 + 4.0 * c))
            terms["tilde"][i][j] = min(R[i], omega_bar)
    return terms


def _brute_max_min(term) -> tuple:
    # (value, i, j), 1-based; strict comparisons keep the smallest index on ties
    best = None
    for i, row in enumerate(term):
        inner = None
        for j, v in enumerate(row):
            if v is not None and (inner is None or v < inner[0]):
                inner = (v, j)
        if best is None or inner[0] > best[0]:
            best = (inner[0], i + 1, inner[1] + 1)
    return best


def brute_bounds(entries: np.ndarray) -> dict:
    """{name: (value, i, j, family)} for the four bounds, 1-based witnesses."""
    R = brute_row_aggregates(entries)[0]
    terms = brute_bound_terms(entries)
    hat, tilde = _brute_max_min(terms["hat"]), _brute_max_min(terms["tilde"])
    omega = hat + ("hat",) if hat[0] >= tilde[0] else tilde + ("tilde",)
    i = max(range(len(R)), key=lambda k: (R[k], -k))
    return {
        "omega_max": omega,
        "zhao": _brute_max_min(terms["zhao"]) + (None,),
        "wang": _brute_max_min(terms["wang"]) + (None,),
        "maxR": (float(R[i]), i + 1, None, None),
    }


def brute_apply(entries: np.ndarray, x):
    m, n = entries.ndim, entries.shape[0]
    y = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        prod = float(entries[idx])
        for k in idx[1:]:
            prod *= x[k]
        y[idx[0]] += prod
    return y


def brute_gradient(entries: np.ndarray, x):
    """Gradient of ``brute_polyval``: each index position p of each entry adds
    the product of x over the other positions to component idx[p]."""
    m, n = entries.ndim, entries.shape[0]
    g = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        for p in range(m):
            prod = float(entries[idx])
            for q in range(m):
                if q != p:
                    prod *= x[idx[q]]
            g[idx[p]] += prod
    return g


def brute_weak_symmetry(entries: np.ndarray, tol: float = 1e-9):
    """(verdict, residual) of the exact weak-symmetry test by enumeration.

    For every row i and every tail tuple t, the mean of a[i, .] over the
    permutations of t is compared with the mean of a over the permutations of
    (i, t); the residual is the largest difference, and the verdict compares
    it against ``tol * (1 + max |entry|)``.  Each mean depends only on the
    sorted tuple, so it is computed once per sorted tuple.
    """
    m, n = entries.ndim, entries.shape[0]
    tail_mean, full_mean = {}, {}
    worst = 0.0
    for i in range(n):
        for t in itertools.product(range(n), repeat=m - 1):
            tail_key, full_key = (i, tuple(sorted(t))), tuple(sorted((i,) + t))
            if tail_key not in tail_mean:
                perms = list(itertools.permutations(t))
                tail_mean[tail_key] = sum(float(entries[(i,) + p]) for p in perms) / len(perms)
            if full_key not in full_mean:
                perms = list(itertools.permutations((i,) + t))
                full_mean[full_key] = sum(float(entries[p]) for p in perms) / len(perms)
            worst = max(worst, abs(tail_mean[tail_key] - full_mean[full_key]))
    return worst <= tol * (1.0 + float(np.max(np.abs(entries)))), worst


def sampled_weak_symmetry(entries: np.ndarray, trials: int = 20, tol: float = 1e-9, seed=42):
    """(verdict, residual) of grad f(x) = m A x^(m-1) tested at ``trials``
    random unit vectors, from ``brute_gradient`` and ``brute_apply``.  Both
    sides are polynomials, so a random point misses a failure of the identity
    only on a null set: the verdict cross-checks the exact test."""
    m, n = entries.ndim, entries.shape[0]
    worst = 0.0
    for x in np.random.default_rng(seed).standard_normal((trials, n)):
        x = x / np.linalg.norm(x)
        res = brute_gradient(entries, x) - m * brute_apply(entries, x)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst <= tol * (1.0 + float(np.max(np.abs(entries)))), worst


def brute_polyval(entries: np.ndarray, x) -> float:
    m, n = entries.ndim, entries.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=m):
        prod = float(entries[idx])
        for k in idx:
            prod *= x[k]
        total += prod
    return total


def scalar_sshopm(A: Tensor, starts=50, max_iter=1000, tol=1e-10, shift=None, seed=42):
    """Reference shifted power method: one run per start and shift sign, one
    ``brute_apply`` per step, then the residual gate (1e-8) and clustering
    by value (1e-6) and eigenvector up to sign (1e-5).  Returns the kept
    pairs as sorted (value, unit vector) tuples."""
    entries, m, n = A.entries, A.order, A.dim
    alpha = abs(float(shift if shift is not None else m * np.max(np.abs(entries)) + 1.0))
    found = []
    for x0 in np.random.default_rng(seed).standard_normal((starts, n)):
        nrm = math.sqrt(sum(v * v for v in x0))
        x0 = np.eye(n)[0] if nrm < 1e-12 else x0 / nrm
        for sign in (1.0, -1.0):
            x = x0
            for _ in range(max_iter):
                y = brute_apply(entries, x) + sign * alpha * x
                nrm = math.sqrt(sum(v * v for v in y))
                if nrm < 1e-300:
                    break
                x_next = sign * y / nrm
                step = math.sqrt(sum(v * v for v in x_next - x))
                x = x_next
                if step <= tol:
                    break
            if m % 2 == 0 and x[np.argmax(np.abs(x))] < 0:
                x = -x
            value = brute_polyval(entries, x)
            res = math.sqrt(sum(v * v for v in brute_apply(entries, x) - value * x))
            if res <= 1e-8:
                found.append((res, value, x))
    kept = []
    for _, value, x in sorted(found, key=lambda f: f[0]):
        if not any(
            abs(value - v) <= 1e-6 and math.acos(min(1.0, abs(float(x @ y)))) <= 1e-5
            for v, y in kept
        ):
            kept.append((value, x))
    return sorted(kept, key=lambda p: (p[0], tuple(p[1])))


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


_HEADER_RE = re.compile(r"^tensor\s+m=(\d+)\s+n=(\d+)(\s+symmetric)?\s*$")


def scalar_parse_tensor(text: str) -> Tensor:
    """Reference reader of the tensor text format: one record at a time, each
    ``symmetric``-flag record expanded to every permutation of its tuple, and
    duplicates found through a dict of the positions seen so far."""
    header = None
    records = []  # (indices, value, line_number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            match = _HEADER_RE.match(line)
            if match is None:
                raise TensorFormatError(
                    f"malformed header {line!r}, expected 'tensor m=<order> n=<dim> [symmetric]'",
                    lines=(lineno,),
                )
            order, dim = int(match.group(1)), int(match.group(2))
            symmetric = match.group(3) is not None
            if order < 2 or dim < 2:
                raise TensorFormatError(
                    f"tensor needs order >= 2 and dim >= 2, got m={order}, n={dim}",
                    lines=(lineno,),
                )
            if dim**order > MAX_DENSE_ENTRIES:
                raise TensorFormatError(
                    f"dense tensor too large: {dim}**{order} > {MAX_DENSE_ENTRIES}",
                    lines=(lineno,),
                )
            header = (order, dim, symmetric)
            continue
        order, dim, _ = header
        tokens = line.split()
        if len(tokens) != order + 1:
            raise TensorFormatError(
                f"expected {order} indices and a value, got {len(tokens)} fields",
                lines=(lineno,),
            )
        try:
            idx = tuple(int(t) for t in tokens[:-1])
        except ValueError:
            raise TensorFormatError(f"non-integer index in {line!r}", lines=(lineno,)) from None
        for i in idx:
            if not 1 <= i <= dim:
                raise TensorFormatError(f"index {i} out of range 1..{dim}", lines=(lineno,))
        try:
            value = float(tokens[-1])
        except ValueError:
            raise TensorFormatError(f"bad value {tokens[-1]!r}", lines=(lineno,)) from None
        if not math.isfinite(value):
            raise TensorFormatError(f"non-finite value {tokens[-1]!r}", lines=(lineno,))
        records.append((idx, value, lineno))

    if header is None:
        raise TensorFormatError("empty input: missing tensor header")
    order, dim, symmetric = header

    seen = {}
    for idx, value, lineno in records:
        positions = set(itertools.permutations(idx)) if symmetric else {idx}
        for pos in positions:
            if pos in seen:
                old_value, old_line = seen[pos]
                if abs(old_value - value) > 1e-12:
                    raise TensorFormatError(
                        f"conflicting values {old_value!r} and {value!r} "
                        f"for entry {' '.join(str(i) for i in pos)}",
                        lines=(old_line, lineno),
                    )
            else:
                seen[pos] = (value, lineno)

    arr = np.zeros((dim,) * order)
    for pos, (value, _) in seen.items():
        arr[tuple(i - 1 for i in pos)] = value
    return Tensor(order, dim, arr)


def scalar_serialize_tensor(A: Tensor) -> str:
    """Reference writer of the text format: one ``np.ndindex`` step per entry,
    listing every nonzero entry and every negative zero."""
    lines = [f"tensor m={A.order} n={A.dim}"]
    for pos in np.ndindex(A.entries.shape):
        v = float(A.entries[pos])
        if v != 0.0 or math.copysign(1.0, v) < 0:
            lines.append(f"{' '.join(str(i + 1) for i in pos)} {v:.17g}")
    return "\n".join(lines) + "\n"
