"""Z-eigenvalue localization sets, spectral-radius bounds, and a desk-scale
eigenpair oracle for dense real tensors."""

__version__ = "0.1.0"

import numpy as _np

# the parser relies on numpy's reader refusing a float-spelled index such as
# "1.5", which numpy 1.x reads as 1: check the behaviour, not the version
try:
    _np.loadtxt(["1.5"], dtype=_np.intp)
except ValueError:
    pass
else:
    raise ImportError(f"zeigloc requires a numpy whose loadtxt refuses the index '1.5'; "
                      f"numpy {_np.__version__} reads it as an integer")

from .bounds import (
    BOUND_NAMES,
    BoundReport,
    BoundValue,
    bound_report,
)
from .intervals import IntervalSet
from .localization import (
    SET_NAMES,
    ChainCheck,
    RowAggregates,
    SetReport,
    build_sets,
    inclusion_chain_check,
    row_aggregates,
)
from .oracle import (
    OracleConfig,
    VerificationDocument,
    ZEigenPair,
    circle_solve,
    solve,
    sshopm,
    verify_inclusion,
)
from .tensor import (
    Tensor,
    TensorFormatError,
    WeakSymmetryCheck,
    apply,
    gradient,
    is_nonnegative,
    load_tensor,
    parse_tensor,
    polyval,
    serialize_tensor,
    weak_symmetry_check,
)

__all__ = [
    "__version__",
    "BOUND_NAMES",
    "BoundReport",
    "BoundValue",
    "ChainCheck",
    "IntervalSet",
    "OracleConfig",
    "RowAggregates",
    "SET_NAMES",
    "SetReport",
    "Tensor",
    "TensorFormatError",
    "VerificationDocument",
    "WeakSymmetryCheck",
    "ZEigenPair",
    "apply",
    "bound_report",
    "build_sets",
    "circle_solve",
    "gradient",
    "inclusion_chain_check",
    "is_nonnegative",
    "load_tensor",
    "parse_tensor",
    "polyval",
    "row_aggregates",
    "serialize_tensor",
    "solve",
    "sshopm",
    "verify_inclusion",
    "weak_symmetry_check",
]
