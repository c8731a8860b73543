"""Closed-form upper bounds for the Z-spectral radius of weakly symmetric
nonnegative tensors, from loosest to sharpest: the largest row sum, two
quadratic-root bounds built from row sums, and the two-family bound derived
from the Omega localization set.

Every bound but the largest row sum is a max over rows i of the min over
partners j of the upper ends ``hi`` of the pair intervals the sets are built
from.  The L and Psi rows are always ``[0, r]``, so "wang" and "zhao" equal
the L and Psi radii; "maxR" equals the K radius.  Omega's "tilde" bound takes
``max_i min_j min(R_i, omega_bar_ij)``, omega_bar_ij being the upper root of
the pair's tilde quadratic, and ignores whether row i's tilde intersection is
empty, which the set does not: "omega_max" can exceed the Omega radius.

Every formula is total in the row aggregates, so the functions evaluate for
any real tensor; whether the result bounds the spectral radius is a semantic
question carried by the applicability flags in ``BoundReport``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .localization import RowAggregates, row_aggregates
from .tensor import Tensor, WeakSymmetryCheck, is_nonnegative, weak_symmetry_check

# serialization order, loosest bound last
BOUND_NAMES = ("omega_max", "zhao", "wang", "maxR")


@dataclass(frozen=True)
class BoundValue:
    """A bound with its witnesses: the row i attaining the outer max and the
    partner j attaining the inner min (1-based; ties go to the smallest index)."""

    value: float
    i: int
    j: int | None = None
    family: str | None = None


@dataclass(frozen=True)
class BoundReport:
    omega_max: BoundValue
    zhao: BoundValue
    wang: BoundValue
    maxR: BoundValue
    nonnegative: bool
    weak_symmetry: WeakSymmetryCheck

    def values(self) -> dict[str, float]:
        return {name: getattr(self, name).value for name in BOUND_NAMES}

    @property
    def applicable(self) -> bool:
        return self.nonnegative and self.weak_symmetry.ok


def _max_row_min(hi: np.ndarray) -> BoundValue:
    # max over rows i of min over partners j; argmin and argmax return the
    # first index, so ties go to the smallest
    j = hi.argmin(axis=1)
    row_min = hi[np.arange(len(hi)), j]
    i = int(row_min.argmax())
    return BoundValue(value=float(row_min[i]), i=i + 1, j=int(j[i]) + 1)


def bound_report(A: Tensor, agg: RowAggregates | None = None) -> BoundReport:
    """All four bounds with witnesses and applicability flags.

    For a nonnegative tensor the four values must come out in nondecreasing
    order; a violation there can only be an implementation defect, so it is
    raised as an internal error rather than reported as data.
    """
    if agg is None:
        agg = row_aggregates(A)
    hi = {name: pair[1] for name, pair in agg.pair_intervals.items()}
    hat, tilde = _max_row_min(hi["hat"]), _max_row_min(hi["tilde"])
    if hat.value >= tilde.value:
        omega_max = replace(hat, family="hat")
    else:
        omega_max = replace(tilde, family="tilde")
    i = int(agg.R.argmax())
    report = BoundReport(
        omega_max=omega_max,
        zhao=_max_row_min(hi["Psi"]),
        wang=_max_row_min(hi["L"]),
        maxR=BoundValue(value=float(agg.R[i]), i=i + 1),
        nonnegative=is_nonnegative(A),
        weak_symmetry=weak_symmetry_check(A),
    )
    if report.nonnegative:
        values = [report.omega_max.value, report.zhao.value, report.wang.value, report.maxR.value]
        slack = 1e-12 * (1.0 + report.maxR.value)
        for smaller, larger in zip(values, values[1:]):
            if smaller > larger + slack:
                raise RuntimeError(
                    "internal inconsistency: bound ordering "
                    f"{values} violated on a nonnegative tensor"
                )
    return report
