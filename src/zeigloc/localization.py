"""Z-eigenvalue localization sets K, L, Psi and Omega as radius interval sets.

All four sets constrain a Z-eigenvalue z only through t = |z|, so each is
represented exactly by its cross-section on the nonnegative radius axis.
The building blocks are the absolute row sums R_i and their split by whether
a chosen index j occurs among the trailing index positions.  ``row_aggregates``
reads them off the tensor once; ``build_sets`` and ``bounds.bound_report``
take only them.

Each pair (i, j), j != i, gives one closed interval per family, so row i's
intersection over its partners is ``[max_j lo, min_j hi]`` over ``(n, n)``
arrays, and ``bounds`` reads its max-min bounds off the same ``hi``.  The L
and Psi quadratics have root product -c <= 0, so their lower roots clip to 0:
K, L and Psi rows are always ``[0, r]`` and their radii equal the bounds.
Omega's "tilde" rows can be empty: the set leaves such a row out, while the
"tilde" bound ignores whether a row is empty and can exceed the radius.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intervals import IntervalSet
from .tensor import Tensor

SET_NAMES = ("K", "L", "Psi", "Omega")

# slack applied to interval endpoints when checking the chain Omega c Psi c L c K
CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class RowAggregates:
    """Absolute row sums and their per-index splits.

    ``R[i]`` sums |a[i, i2, ..., im]| over all trailing tuples.  ``r_delta[i, j]``
    keeps only tuples where j occurs among (i2, ..., im); ``r_bar[i, j]`` the
    rest, so ``r_delta + r_bar == R`` row by row.  The diagonal j == i is kept
    because the Omega set and its bound use the self-split ``r_delta[j, j]``.
    ``diag[i, j]`` is |a[i, j, ..., j]|, the entry the L set pairs with R_j.
    ``pair_intervals`` is built on first use and shared by ``build_sets`` and
    ``bounds.bound_report``.
    """

    R: np.ndarray
    r_delta: np.ndarray
    r_bar: np.ndarray
    diag: np.ndarray

    @cached_property
    def pair_intervals(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Read-only ``(lo, hi)`` arrays of every pair's interval, by family
        (see ``_pair_intervals``)."""
        return _pair_intervals(self)


def row_aggregates(A: Tensor) -> RowAggregates:
    a = np.abs(A.entries)
    n = A.dim
    R = a.sum(axis=tuple(range(1, A.order)))
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    diag = a[(rows,) + (cols,) * (A.order - 1)]
    # F[i, i2, ..., ik, j] sums the tail tuples whose positions after ik all
    # differ from j.  Each pass folds one more position into the sum and drops
    # its j-diagonal until only (i, j) is left: O(n^m) time, and no copy of
    # the entries beyond ``a``, which the first pass overwrites
    F = np.subtract(a.sum(axis=-1)[..., None], a, out=a)
    while F.ndim > 2:
        F = F.sum(axis=-2) - np.diagonal(F, axis1=-2, axis2=-1)
    # each pass subtracts one term of the nonnegative sum it just took, so F
    # stays >= 0 after rounding; R sums in another order, so cap at R_i
    r_bar = np.minimum(F, R[:, None])
    r_delta = R[:, None] - r_bar
    out = RowAggregates(R=R, r_delta=r_delta, r_bar=r_bar, diag=diag)
    for arr in (out.R, out.r_delta, out.r_bar, out.diag):
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class SetReport:
    """One localization set: its interval form, radius, and per-row detail.

    ``per_index[i]`` is the contribution of row i (already intersected over
    the partner index j).  For Omega, ``families`` additionally records the
    two per-row families whose union makes the set.
    """

    name: str
    set: IntervalSet
    per_index: tuple[IntervalSet, ...]
    families: dict[str, tuple[IntervalSet, ...]] | None = None

    @property
    def radius(self):
        return self.set.sup()


def _upper_root(a, c):
    """Upper root of (t - a) t = c for c >= 0; the lower root is <= 0."""
    return (a + np.sqrt(a * a + 4.0 * c)) / 2.0


def _pair_intervals(agg: RowAggregates) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The closed interval of every pair (i, j) as ``(n, n)`` arrays (lo, hi),
    for the families L, Psi and Omega's "hat" and "tilde".

    L:     (|z| - (R_i - |a[i,j,...,j]|)) |z| <= |a[i,j,...,j]| R_j
    Psi:   (|z| - r_bar[i,j]) |z| <= r_delta[i,j] R_j
    hat:   |z| <= min(r_bar[i,j], r_delta[j,j]), the closure of the strict
           region (a superset, so containment of the spectrum is preserved)
    tilde: (|z| - r_bar[i,j]) (|z| - r_delta[j,j]) <= r_delta[i,j] r_bar[j,j],
           within the row disk |z| <= R_i

    Every lo is >= 0, and only tilde's can be positive.  The diagonal j == i
    is masked to [0, inf), so it never limits a row.
    """
    R, rb, rd, d = agg.R, agg.r_bar, agg.r_delta, agg.diag
    self_delta, self_bar = np.diagonal(rd), np.diagonal(rb)
    zero = np.zeros_like(rb)
    # tilde roots ((a + b) +- sqrt((a - b)^2 + 4c)) / 2, clipped to [0, R_i]
    total = rb + self_delta
    root = np.sqrt((rb - self_delta) ** 2 + 4.0 * (rd * self_bar))
    tilde_lo = np.maximum((total - root) / 2.0, 0.0)
    np.fill_diagonal(tilde_lo, 0.0)
    pairs = {
        "L": (zero, _upper_root(R[:, None] - d, d * R)),
        "Psi": (zero, _upper_root(rb, rd * R)),
        "hat": (zero, np.minimum(rb, self_delta)),
        "tilde": (tilde_lo, np.minimum((total + root) / 2.0, R[:, None])),
    }
    for lo, hi in pairs.values():
        np.fill_diagonal(hi, np.inf)
        lo.setflags(write=False)
        hi.setflags(write=False)
    return pairs


def _rows(lo: np.ndarray, hi: np.ndarray) -> tuple[IntervalSet, ...]:
    """Each row intersected over its partners: [max_j lo, min_j hi], or empty."""
    return tuple(
        IntervalSet([(l, h)] if l <= h else [])
        for l, h in zip(lo.max(axis=1).tolist(), hi.min(axis=1).tolist())
    )


def _report(name: str, per_index: tuple[IntervalSet, ...], families=None) -> SetReport:
    united = IntervalSet(iv for row in per_index for iv in row.intervals)
    return SetReport(name, united, per_index, families)


def build_sets(agg: RowAggregates) -> dict[str, SetReport]:
    """All four localization sets of the tensor whose row aggregates are
    ``agg``, keyed by name in chain order K, L, Psi, Omega.

    Each set is the union over rows i of the row's intersection over j != i.
    K's row is the disk [0, R_i]; Omega's row is the union of its "hat" and
    "tilde" rows, which ``families`` keeps.
    """
    rows = {name: _rows(lo, hi) for name, (lo, hi) in agg.pair_intervals.items()}
    omega = tuple(hat.union(tilde) for hat, tilde in zip(rows["hat"], rows["tilde"]))
    return {
        "K": _report("K", tuple(IntervalSet.closed(0.0, r) for r in agg.R.tolist())),
        "L": _report("L", rows["L"]),
        "Psi": _report("Psi", rows["Psi"]),
        "Omega": _report("Omega", omega, {"hat": rows["hat"], "tilde": rows["tilde"]}),
    }


@dataclass(frozen=True)
class ChainViolation:
    inner: str
    outer: str
    interval: tuple[float, float]


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    radii: dict[str, float | None]
    violations: tuple[ChainViolation, ...]


def inclusion_chain_check(reports: dict[str, SetReport], slack: float | None = None) -> ChainCheck:
    """Verify Omega within Psi within L within K, the sets ``build_sets``
    returned, as interval-set containment.

    When ``slack`` is omitted it scales with the outermost radius, so one-ulp
    endpoint noise on large-magnitude tensors is not reported as a violation;
    pass an explicit value to pin the tolerance.
    """
    if slack is None:
        outer = reports["K"].radius or 0.0
        slack = CHAIN_SLACK * (1.0 + outer)
    violations = []
    for inner, outer in (("Omega", "Psi"), ("Psi", "L"), ("L", "K")):
        for interval in reports[inner].set.uncovered_by(reports[outer].set, slack):
            violations.append(ChainViolation(inner, outer, interval))
    radii = {name: reports[name].radius for name in SET_NAMES}
    return ChainCheck(ok=not violations, radii=radii, violations=tuple(violations))
