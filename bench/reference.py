"""Checks of zeigloc's structured output against references computed here.

Nothing in this module imports zeigloc.  Every reference is recomputed with
plain numpy from the dense array the panel generator wrote to disk, and every
check returns a list of human-readable problems (empty when the document is
correct).
"""

import math

import numpy as np

# the library accepts a pair at residual 1e-8; a recomputation in another
# summation order may land a few ulps away from the library's own figure
RESIDUAL_LIMIT = 2e-8
UNIT_TOL = 1e-12
VALUE_RTOL = 1e-9
CHAIN_RTOL = 1e-12
ROOT_VALUE_RTOL = 1e-7
SET_NAMES = ("K", "L", "Psi", "Omega")
BOUND_NAMES = ("omega_max", "zhao", "wang", "maxR")


def tail_power(x: np.ndarray, k: int) -> np.ndarray:
    """x (x) x (x) ... (x) x, k factors, flattened in row-major index order."""
    out = np.ones(1)
    for _ in range(k):
        out = np.kron(out, x)
    return out


def contract(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^(m-1): the first index kept, the other m-1 contracted with x."""
    n, m = arr.shape[0], arr.ndim
    return arr.reshape(n, -1) @ tail_power(x, m - 1)


def max_abs_row_sum(arr: np.ndarray) -> float:
    return float(np.abs(arr).reshape(arr.shape[0], -1).sum(axis=1).max())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


def check_pairs(arr: np.ndarray, pairs: list) -> list[str]:
    """Unit vectors, lambda = A x^m and ||A x^(m-1) - lambda x|| <= RESIDUAL_LIMIT."""
    problems = []
    for k, p in enumerate(pairs):
        x = np.asarray(p["vector"], dtype=float)
        lam = float(p["value"])
        if abs(float(np.linalg.norm(x)) - 1.0) > UNIT_TOL:
            problems.append(f"pair {k}: |x| = {np.linalg.norm(x):.17g}, not 1")
        y = contract(arr, x)
        lam_ref = float(x @ y)
        if not _close(lam, lam_ref, VALUE_RTOL):
            problems.append(f"pair {k}: lambda {lam:.17g} but A x^m = {lam_ref:.17g}")
        res = float(np.linalg.norm(y - lam * x))
        if res > RESIDUAL_LIMIT:
            problems.append(f"pair {k}: residual {res:.3e} above {RESIDUAL_LIMIT:g}")
    return problems


def _covered(inner, outer, slack: float) -> bool:
    return all(
        any(blo - slack <= lo and hi <= bhi + slack for blo, bhi in outer) for lo, hi in inner
    )


def _contains(intervals, t: float, slack: float) -> bool:
    return any(lo - slack <= t <= hi + slack for lo, hi in intervals)


def check_sets(arr: np.ndarray, sets: list) -> list[str]:
    """K radius = largest absolute row sum; Omega in Psi in L in K."""
    problems = []
    by_name = {s["name"]: s for s in sets}
    if tuple(by_name) != SET_NAMES:
        return [f"sets section names {list(by_name)}, expected {list(SET_NAMES)}"]
    r_max = max_abs_row_sum(arr)
    k_radius = by_name["K"]["radius"]
    if k_radius is None or not _close(k_radius, r_max, CHAIN_RTOL):
        problems.append(f"K radius {k_radius!r} but largest absolute row sum {r_max:.17g}")
    slack = CHAIN_RTOL * (1.0 + r_max)
    for inner, outer in (("Omega", "Psi"), ("Psi", "L"), ("L", "K")):
        if not _covered(by_name[inner]["intervals"], by_name[outer]["intervals"], slack):
            problems.append(f"{inner} intervals not inside {outer}")
    return problems


def check_bounds(arr: np.ndarray, bounds: dict, nonnegative: bool, symmetric: bool) -> list[str]:
    """maxR = largest absolute row sum; flags match how the tensor was built;
    omega_max <= zhao <= wang <= maxR on nonnegative tensors."""
    problems = []
    r_max = max_abs_row_sum(arr)
    if not _close(bounds["maxR"]["value"], r_max, CHAIN_RTOL):
        problems.append(f"maxR {bounds['maxR']['value']:.17g} but row sum {r_max:.17g}")
    if bounds["nonnegative"] != nonnegative:
        problems.append(f"nonnegative flag {bounds['nonnegative']}, built {nonnegative}")
    if bounds["weakly_symmetric"] != symmetric:
        problems.append(f"weakly_symmetric flag {bounds['weakly_symmetric']}, built {symmetric}")
    if nonnegative:
        values = [bounds[name]["value"] for name in BOUND_NAMES]
        slack = CHAIN_RTOL * (1.0 + r_max)
        if any(a > b + slack for a, b in zip(values, values[1:])):
            problems.append(f"bound order omega_max <= zhao <= wang <= maxR broken: {values}")
    return problems


def check_verification(doc: dict, nonnegative: bool, symmetric: bool) -> list[str]:
    """Every |lambda| in every set and, where the bounds apply, under every
    bound; the document's own verdicts must agree with these."""
    problems = []
    pairs = doc["eigenpairs"]
    sets = {s["name"]: s["intervals"] for s in doc["sets"]}
    bounds = {name: doc["bounds"][name]["value"] for name in BOUND_NAMES}
    applies = nonnegative and symmetric
    rows = doc["verification"]["rows"]
    if len(rows) != len(pairs):
        problems.append(f"{len(rows)} verification rows for {len(pairs)} eigenpairs")
    for k, (p, row) in enumerate(zip(pairs, rows)):
        t = abs(p["value"])
        slack = 1e-9 + 10.0 * p["residual"]
        for name in SET_NAMES:
            inside = _contains(sets[name], t, slack)
            if not inside:
                problems.append(f"pair {k}: |lambda| = {t:.17g} outside {name}")
            if row["sets"][name] != inside:
                problems.append(f"pair {k}: document says {name}={row['sets'][name]}")
        if applies:
            for name, value in bounds.items():
                if t > value + slack:
                    problems.append(f"pair {k}: |lambda| = {t:.17g} above {name} = {value:.17g}")
            if row["bounds"] is None or not all(row["bounds"].values()):
                problems.append(f"pair {k}: document bound verdicts {row['bounds']}")
        elif row["bounds"] is not None:
            problems.append(f"pair {k}: bounds checked on a tensor where they do not apply")
    if symmetric and not pairs:
        problems.append("no eigenpair reported for a weakly symmetric tensor")
    if doc["verification"]["ok"] is not True:
        problems.append("document verdict is not ok")
    return problems


def n2_eigenvalues(arr: np.ndarray) -> list[float]:
    """All real Z-eigenvalues of a dimension-2 tensor, from polynomial roots.

    On x = (1, t) write y = A x^(m-1); x is an eigenvector exactly where
    g(t) = y_1(t) t - y_2(t) = 0, a polynomial of degree at most m.  The
    direction x = (0, 1) is an eigenvector when a[1,2,...,2] = 0.  For odd m
    the antipode -x carries -lambda and counts as a second pair.
    """
    m = arr.ndim
    flat = arr.reshape(2, -1)
    twos = np.array([bin(k).count("1") for k in range(flat.shape[1])])
    c = np.array([[flat[i, twos == k].sum() for k in range(m)] for i in range(2)])
    g = np.zeros(m + 1)  # ascending powers of t
    g[1:] += c[0]
    g[:-1] -= c[1]
    if not np.any(g):
        raise ValueError("every unit vector is an eigenvector; no finite root set")
    ts = []
    for r in np.roots(np.trim_zeros(g[::-1], "f")):
        if abs(r.imag) <= 1e-6 * (1.0 + abs(r)):
            ts.append(_polish(g, r.real))
    directions = [np.array([1.0, t]) / math.hypot(1.0, t) for t in sorted(ts)]
    if flat[0, -1] == 0.0:
        directions.append(np.array([0.0, 1.0]))
    distinct = []
    for x in directions:
        if all(abs(float(x @ d)) < 1.0 - 1e-10 for d in distinct):
            distinct.append(x)
    values = []
    for x in distinct:
        lam = float(x @ contract(arr, x))
        values.append(lam)
        if m % 2 == 1 and abs(lam) > 5e-7:
            values.append(-lam)
    return sorted(values)


def _polish(g: np.ndarray, t: float) -> float:
    """Newton steps on g, keeping the iterate with the smallest |g|."""
    dg = np.arange(1, len(g)) * g[1:]
    best, best_val = t, abs(np.polyval(g[::-1], t))
    for _ in range(8):
        d = np.polyval(dg[::-1], t)
        if d == 0.0:
            break
        t = t - np.polyval(g[::-1], t) / d
        val = abs(np.polyval(g[::-1], t))
        if val < best_val:
            best, best_val = t, val
    return float(best)


def check_n2_roots(arr: np.ndarray, pairs: list) -> list[str]:
    """The reported eigenvalues are exactly the polynomial reference, as a multiset."""
    want = n2_eigenvalues(arr)
    got = sorted(float(p["value"]) for p in pairs)
    if len(got) != len(want) or not all(
        _close(a, b, ROOT_VALUE_RTOL) for a, b in zip(got, want)
    ):
        return [f"eigenvalues {got} but polynomial roots give {want}"]
    return []
