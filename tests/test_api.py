import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import zeigloc
from zeigloc import IntervalSet, OracleConfig, Tensor

# names the library no longer exports: build_sets and bound_report carry the
# values of the sets and bounds, and weak_symmetry_check the exact verdict
REMOVED = {
    "zeigloc": (
        "set_K", "set_L", "set_Psi", "set_Omega", "bound_maxR", "bound_wang",
        "bound_zhao", "bound_omega", "quadratic_region", "is_weakly_symmetric",
        # WeakSymmetryCheck.symmetric is the one symmetric verdict
        "is_symmetric",
        # serialize_tensor lists the entries the text format holds
        "EntryRecord", "nonzero_records",
        # the residual gate of the oracle is the one residual formula
        "residual",
    ),
    # numpy's reader takes each body whole; _read_record reads one it refuses
    "zeigloc.tensor": (
        "is_weakly_symmetric", "_IndexTable", "_check_record", "is_symmetric",
        "EntryRecord", "nonzero_records", "_listed_entries",
        # the import checks that numpy's reader refuses a float-spelled index
        "_reads_float_spelled_integers", "_ODD_INDEX_LINE", "_SCREEN_INDICES",
        # _check_shape states the shape rule of Tensor and of the header once
        "_too_large",
        # one call of numpy's reader per body, in no blocks of lines
        "_PARSE_BLOCK", "_read_blocks", "_record_keys",
    ),
    "zeigloc.localization": (
        "set_K", "set_L", "set_Psi", "set_Omega", "_union", "_intersect_over_partners",
    ),
    "zeigloc.bounds": (
        "_max_min", "bound_maxR", "bound_maxR_value", "bound_wang", "bound_wang_value",
        "bound_zhao", "bound_zhao_value", "bound_omega", "bound_omega_value", "omega_bar",
        # the bounds read |A| only; whether they apply is the caller's test
        "is_nonnegative", "weak_symmetry_check", "WeakSymmetryCheck",
        # bound_report takes the row aggregates, not the tensor
        "Tensor", "row_aggregates",
    ),
    "zeigloc.intervals": ("quadratic_region",),
    # one block contraction gives lambda and the residual of every candidate
    "zeigloc.oracle": (
        "_make_pair", "_canonical_sign",
        # _distinct_pairs is the one final step of both solvers
        "_dedupe", "_sorted_pairs", "_circle_pairs",
        # every power run goes to the polish: no zero-image outcome
        "_ZERO_IMAGE", "_OUTCOMES", "_retire",
        # the residual gate of _gated_pairs is the one residual formula
        "residual", "apply",
    ),
}


def test_every_exported_name_resolves():
    assert len(zeigloc.__all__) == len(set(zeigloc.__all__))
    for name in zeigloc.__all__:
        assert getattr(zeigloc, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in getattr(mod, "__all__", ())


def test_interval_set_and_oracle_config_keep_only_what_the_library_uses():
    # the tests' references intersect and compare plain intervals, and the
    # power-step budget is the constant oracle._POWER_STEPS.  A zero tensor is
    # Tensor(m, n, zeros), its entries are read from the 0-based array, and
    # uncovered_by inflates the intervals it covers with
    for name in ("intersect", "empty", "is_subset_of", "inflate", "is_empty"):
        assert not hasattr(IntervalSet, name), name
    for name in ("zeros", "entry"):
        assert not hasattr(Tensor, name), name
    assert tuple(f.name for f in dataclasses.fields(OracleConfig)) == ("starts", "seed")


def test_import_refuses_a_numpy_that_reads_float_indices():
    # a checkout run through PYTHONPATH=src with a numpy whose reader reads
    # the index "1.5" as 1, as numpy 1.x does, stops at the import
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    code = ('import numpy; numpy.__version__ = "1.26.4"; '
            'numpy.loadtxt = lambda *args, **kwargs: numpy.ones(1, numpy.intp); import zeigloc')
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stderr.splitlines()[-1] == (
        "ImportError: zeigloc requires a numpy whose loadtxt refuses the index '1.5'; "
        "numpy 1.26.4 reads it as an integer"
    )
