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

``bound_report`` takes a tensor's ``RowAggregates`` and nothing else: every
formula reads only those sums of |A|, so a tensor and its entrywise absolute
value get the same bounds.  They bound the spectral radius only when the
tensor is nonnegative and weakly symmetric; the caller decides that from
``tensor.is_nonnegative`` and ``tensor.weak_symmetry_check``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .localization import RowAggregates

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

    def values(self) -> dict[str, float]:
        return {name: getattr(self, name).value for name in BOUND_NAMES}


def _max_row_min(hi: np.ndarray) -> BoundValue:
    # max over rows i of min over partners j; argmin and argmax return the
    # first index, so ties go to the smallest
    j = hi.argmin(axis=1)
    row_min = hi[np.arange(len(hi)), j]
    i = int(row_min.argmax())
    return BoundValue(value=float(row_min[i]), i=i + 1, j=int(j[i]) + 1)


def bound_report(agg: RowAggregates) -> BoundReport:
    """All four bounds with their witnesses, from the row aggregates of a tensor.

    The four values must come out in nondecreasing order; a violation can
    only be an implementation defect, so it is raised as an internal error
    rather than reported as data.
    """
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
    )
    values = list(report.values().values())
    slack = 1e-12 * (1.0 + report.maxR.value)
    for smaller, larger in zip(values, values[1:]):
        if smaller > larger + slack:
            raise RuntimeError(f"internal inconsistency: bound ordering {values} violated")
    return report
