import importlib

import zeigloc

# names the library no longer exports: build_sets and bound_report carry the
# values of the sets and bounds, and weak_symmetry_check the exact verdict
REMOVED = {
    "zeigloc": (
        "set_K", "set_L", "set_Psi", "set_Omega", "bound_maxR", "bound_wang",
        "bound_zhao", "bound_omega", "quadratic_region", "is_weakly_symmetric",
        # WeakSymmetryCheck.symmetric is the one symmetric verdict
        "is_symmetric",
    ),
    # numpy's reader takes record blocks; _read_record reads the ones it refuses
    "zeigloc.tensor": ("is_weakly_symmetric", "_IndexTable", "_check_record", "is_symmetric"),
    "zeigloc.localization": (
        "set_K", "set_L", "set_Psi", "set_Omega", "_union", "_intersect_over_partners",
    ),
    "zeigloc.bounds": (
        "_max_min", "bound_maxR", "bound_maxR_value", "bound_wang", "bound_wang_value",
        "bound_zhao", "bound_zhao_value", "bound_omega", "bound_omega_value", "omega_bar",
        # the bounds read |A| only; whether they apply is the caller's test
        "is_nonnegative", "weak_symmetry_check", "WeakSymmetryCheck",
    ),
    "zeigloc.intervals": ("quadratic_region",),
    # one block contraction gives lambda and the residual of every candidate
    "zeigloc.oracle": ("_make_pair", "_canonical_sign"),
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
