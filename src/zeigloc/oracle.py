"""Desk-scale Z-eigenpair solvers used to verify the localization sets.

Two tiers: an exact solver for dimension 2 (on x = (1, t) the eigen
equation is one polynomial of degree at most m in t, so the eigenvectors are
its real roots), and a shifted power iteration with random restarts for
general small dimension, whose runs hand off to a Newton polish once a step
is at most ``_HAND_OFF`` or after ``_POWER_STEPS`` steps, and the polish ends
on a step at most ``_NEWTON_STOP``.  The power iteration makes no
completeness claim; every accepted pair is a genuine eigenpair up to the
residual gate, which is all the inclusion checks need.

Both tiers contract the tensor with a block of vectors at once through
``tensor._apply_block``: the power step iterates a block of runs, the polish
takes one Newton step for a block of runs with the Jacobians contracted
from ``tensor._jacobian_tensor`` (summed once per ``sshopm`` call), and the
candidate directions of either tier, the roots' lines or the runs'
last iterates, pass the gate as one block, with lambda = x . A x^(m-1) and
the residual ||A x^(m-1) - lambda x|| from the same contraction.  Both
tiers end in ``_distinct_pairs``, which keeps one pair per eigenvalue and
line and sorts them.
"""

import logging
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .localization import SET_NAMES, SetReport
from .tensor import Tensor, _apply_block, _jacobian_tensor

# a candidate must satisfy the eigen equation to this residual to be returned
RESIDUAL_ACCEPT = 1e-8
# accepted pairs merge when their eigenvalues are within DEDUPE_TOL and their
# eigenvectors span lines at most ANGLE_TOL radians apart
DEDUPE_TOL = 1e-6
ANGLE_TOL = 1e-5

# doubles the power iteration's contraction intermediates may hold (8 MiB);
# a call with more runs than fit iterates them in chunks
_BLOCK_DOUBLES = 1 << 20

# Newton steps the polish takes at most per row, and the step that ends a
# row's polish: quadratic convergence takes a close iterate well past it
_NEWTON_STEPS = 8
_NEWTON_STOP = 1e-10
# a power run hands off to the polish on a step this small, or after this
# many steps: the power phase only has to bring a run into the polish's basin
_HAND_OFF = 1e-3
_POWER_STEPS = 200

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ZEigenPair:
    """Eigenvalue, unit eigenvector, residual of the eigen equation, and the
    solver that produced it."""

    value: float
    vector: np.ndarray
    residual: float
    source: str


@dataclass(frozen=True)
class OracleConfig:
    starts: int = 50
    seed: int = 42

    def __post_init__(self):
        # a float or out-of-range count or seed would otherwise fail inside numpy
        for name, least in (("starts", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                ok = operator.index(value) >= least
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"OracleConfig needs an integer {name} >= {least}, got {value!r}")


def _gated_pairs(A: Tensor, X: np.ndarray, source: str) -> list[ZEigenPair]:
    """Pairs at the unit rows of X that pass the residual gate, in row order.

    For even order x and -x carry the same eigenvalue, so each row is first
    signed to make its largest component positive: reruns and restarts then
    land on one representative.  One block contraction Y = A x^(m-1) gives
    both lambda = x . Y and the residual ||Y - lambda x||.
    """
    if A.order % 2 == 0:
        big = np.take_along_axis(X, np.abs(X).argmax(axis=1)[:, None], axis=1)
        X = np.where(big < 0, -X, X)
    Y = _apply_block(A.entries, X)
    lam = np.matmul(X[:, None, :], Y[:, :, None]).ravel()
    res = _row_norms(Y - lam[:, None] * X).ravel()
    return [
        ZEigenPair(value=float(lam[k]), vector=X[k], residual=float(res[k]), source=source)
        for k in np.flatnonzero(res <= RESIDUAL_ACCEPT)
    ]


def _axis_angle(x: np.ndarray, y: np.ndarray) -> float:
    # angle between the lines spanned by x and y (sign of the vectors ignored)
    d = min(1.0, abs(float(np.dot(x, y))))
    return math.acos(d)


def _distinct_pairs(pairs) -> list[ZEigenPair]:
    """The pair of best residual in each cluster of eigenvalues within
    ``DEDUPE_TOL`` on lines at most ``ANGLE_TOL`` apart (eigenvector sign
    ignored), sorted by value and then vector."""
    kept: list[ZEigenPair] = []
    for p in sorted(pairs, key=lambda q: q.residual):
        if all(abs(p.value - q.value) > DEDUPE_TOL or _axis_angle(p.vector, q.vector) > ANGLE_TOL
               for q in kept):
            kept.append(p)
    return sorted(kept, key=lambda p: (p.value, tuple(p.vector)))


def _horner(coeffs: list[float], t: float) -> float:
    y = 0.0
    for a in coeffs:
        y = y * t + a
    return y


def _newton(coeffs: np.ndarray, t: float) -> float:
    """Newton steps on the polynomial with descending ``coeffs`` while |value| shrinks.

    The steps run in Python floats: Horner's rule from 0.0 and the
    derivative's coefficients a * (degree - k) are the IEEE operations of
    ``np.polyval`` and ``np.polyder`` in the same order, so the root is the
    same double, without numpy's per-call cost on scalars.
    """
    c = coeffs.tolist()
    deriv = [a * (len(c) - 1 - k) for k, a in enumerate(c[:-1])]
    t = float(t)
    for _ in range(8):
        d = _horner(deriv, t)
        t_next = t - _horner(c, t) / d if d != 0.0 else t
        if not abs(_horner(c, t_next)) < abs(_horner(c, t)):
            break  # converged, a flat point, or a non-finite step
        t = t_next
    return t


def circle_solve(A: Tensor) -> list[ZEigenPair]:
    """All Z-eigenpairs of a dimension-2 tensor from the roots of one polynomial.

    On x = (1, t) with y = A x^(m-1), x is an eigenvector exactly where
    g(t) = y_1(t) t - y_2(t) = 0.  In y_i the coefficient of t^k sums the
    entries whose tail holds k indices equal to 2, so g has degree <= m.  Its
    real roots are polished by Newton steps, in s = 1/t when |t| > 1, and
    (0, 1) is the root at infinity when a[1, 2, ..., 2] = 0.  Both unit
    vectors d and -d of each line pass the residual gate: for even order they
    are one pair, for odd order they carry +-lambda.  If g vanishes, every
    unit vector is an eigenvector and the line of (1, 0) stands for them all.
    """
    if A.dim != 2:
        raise ValueError(f"circle_solve needs dimension 2, got {A.dim}")
    flat = A.entries.reshape(2, -1)
    twos = np.bitwise_count(np.arange(flat.shape[1]))
    y1, y2 = (np.bincount(twos, weights=row, minlength=A.order) for row in flat)
    g = np.append(y1[::-1], 0.0) - np.append(0.0, y2[::-1])  # descending powers of t

    if np.max(np.abs(g)) <= 1e-12 * (1.0 + A.max_abs_entry()):
        lines = [np.array([1.0, 0.0])]
    else:
        lines = [np.array([0.0, 1.0])] if g[0] == 0.0 else []
        roots = np.roots(g)
        for t in roots.real[np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots))]:
            if abs(t) <= 1.0:
                x = np.array([1.0, _newton(g, t)])
            else:
                x = np.array([_newton(g[::-1], 1.0 / t), 1.0])
            lines.append(x / np.linalg.norm(x))
    X = np.array([s * d for d in lines for s in (1.0, -1.0)]).reshape(-1, 2)
    return _distinct_pairs(_gated_pairs(A, X, "circle"))


def _row_norms(X: np.ndarray) -> np.ndarray:
    # one batched dot per row, as a column: the rounding of np.linalg.norm
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])).reshape(-1, 1)


def _power_block(entries, X, sign, alpha):
    """Iterate every row of the unit block X at once; return the last
    iterates and a mask of the runs that stopped on a step <= ``_HAND_OFF``.

    A step contracts the whole block with the tensor ``entries`` in one
    ``_apply_block`` call and maps row x to normalize(sign A x^(m-1) + alpha x).
    A run leaves the block on a step <= ``_HAND_OFF`` or after
    ``_POWER_STEPS`` steps; a run whose image overflows turns NaN and stays
    to the end.  At these sizes a step costs mostly numpy call overhead, so
    the stop test reads one minimum per step, and the block is only shrunk
    on a step where some run stopped.
    """
    out = np.empty_like(X)
    converged = np.zeros(len(X), dtype=bool)
    run = np.arange(len(X))  # block row -> run
    for _ in range(_POWER_STEPS):
        Y = _apply_block(entries, X)
        Y *= sign
        Y += alpha * X
        Y /= _row_norms(Y)
        step = _row_norms(Y - X)
        X = Y
        # item(argmin()) is the minimum (NaN first) at a quarter of min()'s
        # cost; "not >" lets a NaN through to the exact mask
        if not step.item(step.argmin()) > _HAND_OFF:
            stop = step.ravel() <= _HAND_OFF
            out[run[stop]] = X[stop]
            converged[run[stop]] = True
            X, sign, run = X[~stop], sign[~stop], run[~stop]
            if not run.size:
                break
    out[run] = X
    return out, converged


def _eigen_residual(X, Y, lam):
    """F(x, lambda) = (A x^(m-1) - lambda x, (x . x - 1) / 2) per row, from
    the image Y = A x^(m-1), and its norms."""
    F = np.empty((len(X), X.shape[1] + 1))
    F[:, :-1] = Y - lam[:, None] * X
    F[:, -1] = 0.5 * (np.matmul(X[:, None, :], X[:, :, None]).ravel() - 1.0)
    return F, _row_norms(F).ravel()


def _solve_rows(M, b):
    """np.linalg.solve for every system of the block; the rows of an exactly
    singular matrix get NaN, which no step takes, instead of failing the block."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for k in range(len(M)):
            try:
                out[k] = np.linalg.solve(M[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_block(entries, jacobian, X):
    """Polish the unit rows of X by Newton's method on F(x, lambda) from
    lambda = x . A x^(m-1); return the polished rows, rescaled to unit length.
    ``jacobian`` is ``_jacobian_tensor(entries)``.

    A step solves the bordered (S, n+1, n+1) systems [[J - lambda I, -x],
    [x^T, 0]] (dx, dlambda) = -F of the live rows in one call, with J the
    Jacobian of A x^(m-1).  A row takes its step only if ||F|| shrinks, and
    leaves on a step it does not take, after a step with ||dx|| <=
    ``_NEWTON_STOP`` or after ``_NEWTON_STEPS`` steps; a row whose
    A x^(m-1) - lambda x is exactly zero is done before the first solve.
    """
    n = X.shape[1]
    X = X.copy()
    Y = _apply_block(entries, X)
    lam = np.matmul(X[:, None, :], Y[:, :, None]).ravel()
    F, norm = _eigen_residual(X, Y, lam)
    live = np.flatnonzero(np.any(F[:, :-1], axis=1))
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        x = X[live]
        M = np.zeros((len(live), n + 1, n + 1))
        M[:, :n, :n] = _apply_block(jacobian, x, keep=2).reshape(-1, n, n) - lam[live, None, None] * np.eye(n)
        M[:, :n, n] = -x
        M[:, n, :n] = x
        d = _solve_rows(M, -F[live, :, None])[:, :, 0]
        x_try, lam_try = x + d[:, :n], lam[live] + d[:, n]
        # a huge step from a nearly singular system may overflow: its norm is
        # then inf or NaN, and the step is not taken
        with np.errstate(over="ignore", invalid="ignore"):
            F_try, norm_try = _eigen_residual(x_try, _apply_block(entries, x_try), lam_try)
        take = norm_try < norm[live]
        rows = live[take]
        X[rows], lam[rows], F[rows], norm[rows] = x_try[take], lam_try[take], F_try[take], norm_try[take]
        live = rows[_row_norms(d[take, :n]).ravel() > _NEWTON_STOP]
    return X / _row_norms(X)


def sshopm(A: Tensor, cfg: OracleConfig | None = None) -> list[ZEigenPair]:
    """Shifted power iteration with random restarts, polished by Newton steps.

    Each restart runs with both shift signs: x <- +-normalize(A x^(m-1) + a x)
    with the sign matching the shift, magnitude ``order * max|entry| + 1``.
    The positive shift walks toward large eigenvalues of the restricted
    polynomial, the negative one toward small ones.  The power phase only
    has to bring a run into the polish's basin: a run stops on
    ||x_k+1 - x_k|| <= ``_HAND_OFF`` (the outcome converged) or after
    ``_POWER_STEPS`` steps (the outcome max_iter).  Every run then converges
    quadratically in ``_newton_block``, which stops a run on a Newton step
    ||dx|| <= ``_NEWTON_STOP``.  The tensor of the Jacobians is summed once
    per call, before the first chunk.  Only candidates passing the residual
    gate are returned, one per eigenvalue and line; a run whose image
    overflows ends in NaN and fails the gate.

    All ``2 * starts`` runs (start r // 2, shift sign + for even r) iterate
    as one block, in chunks that keep the contraction intermediates within
    ``_BLOCK_DOUBLES`` doubles.  A chunk's last iterates go through the
    residual gate together: one more block contraction gives every run's
    eigenvalue and residual.  Each call logs, at debug level on the
    ``zeigloc.oracle`` logger, how many runs converged (stopped on the
    hand-off step), hit max_iter and failed the residual gate, and the shift.
    """
    cfg = cfg or OracleConfig()
    alpha = A.order * A.max_abs_entry() + 1.0
    rng = np.random.default_rng(cfg.seed)
    starts = rng.standard_normal((cfg.starts, A.dim))
    starts /= _row_norms(starts)

    X = np.repeat(starts, 2, axis=0)
    sign = np.tile([[1.0], [-1.0]], (cfg.starts, 1))
    # doubles of one run's intermediates: A x^(m-1) on the way down to length n
    chunk = max(1, _BLOCK_DOUBLES // sum(A.dim**k for k in range(1, A.order)))
    jacobian = _jacobian_tensor(A.entries)
    candidates, converged = [], 0
    for lo in range(0, len(X), chunk):
        last, stopped = _power_block(A.entries, X[lo : lo + chunk], sign[lo : lo + chunk], alpha)
        candidates += _gated_pairs(A, _newton_block(A.entries, jacobian, last), "sshopm")
        converged += int(stopped.sum())
    counts = {"converged": converged, "max_iter": len(X) - converged,
              "rejected": len(X) - len(candidates)}
    summary = ", ".join(f"{k} {v}" for k, v in counts.items())
    logger.debug("sshopm: %d runs, shift %g: %s", len(X), alpha, summary)

    kept = _distinct_pairs(candidates)
    if not kept:
        warnings.warn(
            f"sshopm: no candidate reached residual {RESIDUAL_ACCEPT:g} "
            f"({cfg.starts} starts, shift {alpha:g}, seed {cfg.seed}; {summary})",
            RuntimeWarning,
            stacklevel=2,
        )
    return kept


def solve(A: Tensor, cfg: OracleConfig | None = None) -> list[ZEigenPair]:
    """Default oracle: exact polynomial roots when n == 2, else sshopm."""
    if A.dim == 2:
        return circle_solve(A)
    return sshopm(A, cfg)


@dataclass(frozen=True)
class VerificationRow:
    pair: ZEigenPair
    slack: float
    set_ok: dict[str, bool]
    bound_ok: dict[str, bool] | None  # None when the bounds were not checked

    @property
    def ok(self) -> bool:
        return all(self.set_ok.values()) and all((self.bound_ok or {}).values())


@dataclass(frozen=True)
class VerificationDocument:
    rows: tuple[VerificationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_inclusion(
    pairs, reports: dict[str, SetReport], bounds: BoundReport | None
) -> VerificationDocument:
    """Check every eigenpair against every set, and against every bound unless
    ``bounds`` is None.  The bounds hold only for nonnegative weakly symmetric
    tensors, so pass None for any other.

    The per-pair slack is 1e-9 + 10 * residual so that solver noise cannot
    produce spurious boundary failures.
    """
    for p in pairs:
        if p.residual > RESIDUAL_ACCEPT:
            raise ValueError(
                f"eigenpair with residual {p.residual:g} exceeds {RESIDUAL_ACCEPT:g}; "
                "refusing to verify against unconverged data"
            )
    rows = []
    for p in pairs:
        s = 1e-9 + 10.0 * p.residual
        t = abs(p.value)
        set_ok = {name: reports[name].set.contains(t, s) for name in SET_NAMES}
        bound_ok = None
        if bounds is not None:
            bound_ok = {name: t <= value + s for name, value in bounds.values().items()}
        rows.append(VerificationRow(pair=p, slack=s, set_ok=set_ok, bound_ok=bound_ok))
    return VerificationDocument(rows=tuple(rows))
