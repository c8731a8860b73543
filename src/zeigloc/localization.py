"""Z-eigenvalue localization sets K, L, Psi and Omega as radius interval sets.

All four sets constrain a Z-eigenvalue z only through t = |z|, so each is
represented exactly by its cross-section on the nonnegative radius axis.
The building blocks are the absolute row sums R_i and their split by whether
a chosen index j occurs among the trailing index positions.
"""

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSet, quadratic_region
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
    """

    R: np.ndarray
    r_delta: np.ndarray
    r_bar: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.R)


def row_aggregates(A: Tensor) -> RowAggregates:
    a = np.abs(A.entries)
    tail = tuple(range(1, A.order))
    R = a.sum(axis=tail)
    n = A.dim
    r_bar = np.empty((n, n))
    for j in range(n):
        sub = a
        for axis in tail:
            sub = np.delete(sub, j, axis=axis)
        r_bar[:, j] = sub.sum(axis=tuple(range(1, A.order)))
    # the two sums use different summation orders, so the difference can dip
    # a few ulps below zero; the exact value never does
    r_delta = np.maximum(R[:, None] - r_bar, 0.0)
    out = RowAggregates(R=R, r_delta=r_delta, r_bar=r_bar)
    for arr in (out.R, out.r_delta, out.r_bar):
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


def _union(parts) -> IntervalSet:
    out = IntervalSet.empty()
    for p in parts:
        out = out.union(p)
    return out


def _intersect_over_partners(regions) -> IntervalSet:
    out = None
    for r in regions:
        out = r if out is None else out.intersect(r)
    return IntervalSet.empty() if out is None else out


def set_K(agg: RowAggregates) -> SetReport:
    """Union over rows of the disks |z| <= R_i, as radius intervals."""
    per_index = tuple(IntervalSet.closed(0.0, float(R_i)) for R_i in agg.R)
    return SetReport("K", _union(per_index), per_index)


def set_L(A: Tensor, agg: RowAggregates) -> SetReport:
    """Per pair (i, j): (|z| - (R_i - |a[i,j,...,j]|)) |z| <= |a[i,j,...,j]| R_j,
    intersected over j != i, then united over i."""
    n = agg.dim
    per_index = []
    for i in range(n):
        regions = []
        for j in range(n):
            if j == i:
                continue
            a_ij = abs(float(A.entries[(i,) + (j,) * (A.order - 1)]))
            regions.append(quadratic_region(float(agg.R[i]) - a_ij, 0.0, a_ij * float(agg.R[j])))
        per_index.append(_intersect_over_partners(regions))
    per_index = tuple(per_index)
    return SetReport("L", _union(per_index), per_index)


def set_Psi(agg: RowAggregates) -> SetReport:
    """Per pair (i, j): (|z| - r_bar[i,j]) |z| <= r_delta[i,j] R_j."""
    n = agg.dim
    per_index = []
    for i in range(n):
        regions = []
        for j in range(n):
            if j == i:
                continue
            regions.append(
                quadratic_region(
                    float(agg.r_bar[i, j]), 0.0, float(agg.r_delta[i, j]) * float(agg.R[j])
                )
            )
        per_index.append(_intersect_over_partners(regions))
    per_index = tuple(per_index)
    return SetReport("Psi", _union(per_index), per_index)


def set_Omega(agg: RowAggregates) -> SetReport:
    """Two-family set built from the split row sums.

    First family per pair: the closed box |z| <= min(r_bar[i,j], r_delta[j,j])
    (closure of the strict region; a superset, so containment of the spectrum
    is preserved).  Second family per pair: the quadratic region
    (|z| - r_bar[i,j]) (|z| - r_delta[j,j]) <= r_delta[i,j] r_bar[j,j]
    intersected with the row disk |z| <= R_i.  Each family is intersected
    over j != i and united over i; the set is the union of both families.
    """
    n = agg.dim
    hat_rows, tilde_rows, per_index = [], [], []
    for i in range(n):
        row_disk = IntervalSet.closed(0.0, float(agg.R[i]))
        hats, tildes = [], []
        for j in range(n):
            if j == i:
                continue
            hats.append(
                IntervalSet.closed(0.0, min(float(agg.r_bar[i, j]), float(agg.r_delta[j, j])))
            )
            tilde = quadratic_region(
                float(agg.r_bar[i, j]),
                float(agg.r_delta[j, j]),
                float(agg.r_delta[i, j]) * float(agg.r_bar[j, j]),
            )
            tildes.append(tilde.intersect(row_disk))
        hat_i = _intersect_over_partners(hats)
        tilde_i = _intersect_over_partners(tildes)
        hat_rows.append(hat_i)
        tilde_rows.append(tilde_i)
        per_index.append(hat_i.union(tilde_i))
    total = _union(per_index)
    return SetReport(
        "Omega",
        total,
        tuple(per_index),
        families={"hat": tuple(hat_rows), "tilde": tuple(tilde_rows)},
    )


def build_sets(A: Tensor, agg: RowAggregates | None = None) -> dict[str, SetReport]:
    """All four localization sets keyed by name, in chain order K, L, Psi, Omega."""
    if agg is None:
        agg = row_aggregates(A)
    return {
        "K": set_K(agg),
        "L": set_L(A, agg),
        "Psi": set_Psi(agg),
        "Omega": set_Omega(agg),
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


def inclusion_chain_check(A: Tensor, slack: float | None = None, reports=None) -> ChainCheck:
    """Verify Omega within Psi within L within K as interval-set containment.

    When ``slack`` is omitted it scales with the outermost radius, so one-ulp
    endpoint noise on large-magnitude tensors is not reported as a violation;
    pass an explicit value to pin the tolerance.  ``reports`` reuses the sets
    ``build_sets(A)`` already returned.
    """
    if reports is None:
        reports = build_sets(A)
    if slack is None:
        outer = reports["K"].radius or 0.0
        slack = CHAIN_SLACK * (1.0 + outer)
    violations = []
    for inner, outer in (("Omega", "Psi"), ("Psi", "L"), ("L", "K")):
        for interval in reports[inner].set.uncovered_by(reports[outer].set, slack):
            violations.append(ChainViolation(inner, outer, interval))
    radii = {name: reports[name].radius for name in SET_NAMES}
    return ChainCheck(ok=not violations, radii=radii, violations=tuple(violations))
