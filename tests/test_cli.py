import json
import pathlib

import numpy as np
import pytest

import zeigloc.bounds as bounds_mod
import zeigloc.cli as cli_mod
import zeigloc.localization as localization_mod
import zeigloc.oracle as oracle_mod
import zeigloc.tensor as tensor_mod
from oracles import random_symmetric_tensor
from zeigloc.bounds import bound_report
from zeigloc.cli import build_parser, main, render_json, render_svg
from zeigloc.intervals import IntervalSet
from zeigloc.localization import RowAggregates, SetReport, build_sets, row_aggregates
from zeigloc.oracle import OracleConfig, sshopm
from zeigloc.tensor import Tensor, serialize_tensor, weak_symmetry_check

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text_example2(capsys, example2_path, example2):
    code, out, _ = run(capsys, "info", example2_path)
    assert code == 0
    assert "nonnegative:       yes" in out
    assert "symmetric:         no" in out
    residual = weak_symmetry_check(example2).max_residual
    assert f"weakly symmetric:  yes (exact, max residual {residual:.3e})" in out


def test_info_text_example1(capsys, example1_path):
    code, out, _ = run(capsys, "info", example1_path)
    assert code == 0
    assert "symmetric:         yes" in out


def test_info_structured(capsys, example2_path, example2):
    code, out, _ = run(capsys, "info", example2_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "info"
    info = doc["info"]
    assert (info["order"], info["dim"], info["entry_count"]) == (3, 3, 27)
    assert info["nonnegative"] is True
    assert info["symmetric"] is False
    assert info["weakly_symmetric"]["verdict"] is True
    chk = weak_symmetry_check(example2)
    assert info["weakly_symmetric"] == {
        "verdict": True,
        "tol": 1e-9,
        "max_residual": chk.max_residual,
        "threshold": chk.threshold,
    }


def test_sets_text_four_decimal_display(capsys, example1_path):
    code, out, _ = run(capsys, "sets", example1_path)
    assert code == 0
    for token in ("6.7500", "6.4827", "6.3161", "5.0000"):
        assert token in out


def test_sets_structured_full_precision(capsys, example1_path, example1):
    code, out, _ = run(capsys, "sets", example1_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    reports = build_sets(row_aggregates(example1))
    by_name = {entry["name"]: entry for entry in doc["sets"]}
    assert list(by_name) == ["K", "L", "Psi", "Omega"]
    for name, rep in reports.items():
        assert by_name[name]["radius"] == rep.radius  # lossless 17-digit round trip
        assert by_name[name]["intervals"] == [list(iv) for iv in rep.set.intervals]
    assert "families" in by_name["Omega"]


def test_text_and_structured_values_agree(capsys, example1_path):
    _, text_out, _ = run(capsys, "sets", example1_path)
    _, json_out, _ = run(capsys, "sets", example1_path, "--format", "structured")
    doc = json.loads(json_out)
    for entry in doc["sets"]:
        assert f"{entry['radius']:.4f}" in text_out


def test_sets_plot_data(capsys, example1_path, example1):
    code, out, _ = run(capsys, "sets", example1_path, "--format", "plot-data")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set,inner_radius,outer_radius"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["K", "L", "Psi", "Omega"]
    reports = build_sets(row_aggregates(example1))
    for name, inner, outer in rows:
        lo, hi = reports[name].set.intervals[0]
        assert float(inner) == lo and float(outer) == hi


def test_sets_svg(capsys, example1_path):
    code, out, _ = run(capsys, "sets", example1_path, "--format", "svg")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" ')
    assert out.count("<circle") >= 4
    assert 'stroke-dasharray="10 6"' in out  # dashed outermost boundary
    assert 'stroke-width="3"' in out  # bold tightest boundary
    assert out.count("<path") >= 2  # one plus mark per eigenvalue
    for name in ("K", "L", "Psi", "Omega"):
        assert f">{name}</text>" in out
    with pytest.raises(TypeError):  # the drawing size is fixed
        render_svg([], size=320)


def test_sets_svg_marks_the_pairs_of_zeig_at_its_defaults(capsys, example2_path):
    # n = 3: the marks come from the power method, at the settings zeig defaults to
    svg = run(capsys, "sets", example2_path, "--format", "svg")[1]
    sets = json.loads(run(capsys, "sets", example2_path, "--format", "structured")[1])["sets"]
    pairs = json.loads(run(capsys, "zeig", example2_path, "--format", "structured")[1])["eigenpairs"]
    assert svg.count("<path") == len(pairs) == 6
    assert svg == render_svg(sets, [p["value"] for p in pairs])


def test_bounds_text_example2(capsys, example2_path):
    code, out, _ = run(capsys, "bounds", example2_path)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("bound", "applies"))]
    names = [l.split()[0] for l in lines]
    assert names == ["omega_max", "zhao", "wang", "maxR"]
    for token in ("14.9410", "15.2580", "18.5656", "19.0000"):
        assert token in out
    assert "nonnegative=yes" in out and "weakly_symmetric=yes" in out


def test_tables_print_large_values_in_exponent_form(capsys, tmp_path):
    # row sums near 1e154: every value cell keeps to its 10-character column
    path = tmp_path / "big.txt"
    path.write_text("tensor m=3 n=3\n1 1 1 1e154\n2 2 2 -1e154\n1 2 3 5e153\n")
    code, out, _ = run(capsys, "sets", str(path))
    assert code == 0
    assert out.splitlines()[1:] == [
        "K       1.50e+154  [0.0000, 1.50e+154]",
        "L       1.50e+154  [0.0000, 1.50e+154]",
        "Psi     1.00e+154  [0.0000, 1.00e+154]",
        "Omega      0.0000  [0.0000, 0.0000]",
    ]
    code, out, _ = run(capsys, "bounds", str(path))
    assert code == 0
    assert [line[:21] for line in out.splitlines()[1:5]] == [
        "omega_max   1.00e+154", "zhao        1.00e+154", "wang        1.50e+154", "maxR        1.50e+154"]
    # odd order: the n = 2 tensor's eigenvalues come in a pair +-1e154
    path.write_text("tensor m=3 n=2\n1 1 1 1e154\n2 2 2 -3e153\n1 2 2 2e153\n")
    for command in ("zeig", "verify"):
        code, out, _ = run(capsys, command, str(path))
        assert code == 0
        assert [line[:10] for line in out.splitlines()[1:3]] == ["-1.00e+154", " 1.00e+154"]
    # 4 decimals up to where they would round to 1e4 in magnitude
    assert [cli_mod._fmt(v) for v in (9999.99994, -9999.99994, -9999.99996, 12345.678, None)] == [
        "9999.9999", "-9999.9999", "-1.00e+04", "1.23e+04", "-"]


def test_bounds_structured_field_order(capsys, example2_path, example2):
    code, out, _ = run(capsys, "bounds", example2_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["bounds"])[:4] == ["omega_max", "zhao", "wang", "maxR"]
    rep = bound_report(row_aggregates(example2))
    for name, bv in (("omega_max", rep.omega_max), ("zhao", rep.zhao), ("wang", rep.wang)):
        assert doc["bounds"][name]["value"] == bv.value
        assert doc["bounds"][name]["i"] == bv.i


def test_zeig_text_example1(capsys, example1_path):
    code, out, _ = run(capsys, "zeig", example1_path)
    assert code == 0
    assert "-0.2044" in out and "5.0000" in out
    assert "circle" in out
    assert out.splitlines()[0] == "    lambda   residual source  eigenvector"


def test_zeig_structured_method_sshopm(capsys, example2_path, example2):
    # n = 3: the power method runs
    code, out, _ = run(capsys, "zeig", example2_path, "--format", "structured", "--starts", "30")
    assert code == 0
    doc = json.loads(out)
    values = [p["value"] for p in doc["eigenpairs"]]
    assert values and values == [p.value for p in sshopm(example2, OracleConfig(starts=30))]
    for p in doc["eigenpairs"]:
        assert p["source"] == "sshopm"
        assert p["residual"] <= 1e-8
        assert abs(np.linalg.norm(p["vector"]) - 1.0) <= 1e-12


def test_zeig_structured_pair_keys(capsys, example1_path, example2_path):
    # n = 2 runs the exact solver, n = 3 the power method
    for path in (example1_path, example2_path):
        pairs = json.loads(run(capsys, "zeig", path, "--format", "structured")[1])["eigenpairs"]
        assert pairs
        for p in pairs:
            assert list(p) == ["value", "vector", "residual", "source"]


def test_zeig_text_without_real_pairs_points_at_no_warning(tmp_path, capsys):
    # x1^2 - x2^2 has no real Z-eigenpair: circle_solve proves it, and warns of nothing
    path = tmp_path / "none.txt"
    path.write_text("tensor m=2 n=2\n1 2 -1\n2 1 1\n")
    code, out, err = run(capsys, "zeig", str(path))
    assert (code, out, err) == (0, "no Z-eigenpairs found\n", "")


def test_zeig_text_without_power_pairs_is_the_plain_line(capsys, monkeypatch, example2_path):
    # the power method's RuntimeWarning says why; the text is that of every solver
    monkeypatch.setattr(oracle_mod, "RESIDUAL_ACCEPT", -1.0)
    with pytest.warns(RuntimeWarning, match="no candidate"):
        code, out, _ = run(capsys, "zeig", example2_path)
    assert (code, out) == (0, "no Z-eigenpairs found\n")


def test_method_circle_is_a_usage_error(capsys, example1_path):
    for cmd in ("zeig", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, example1_path, "--method", "circle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method circle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeig", "--method", "sshopm"],
        ["verify", "--method", "auto"],
        ["verify", "--slack", "1"],
        ["sets", "--seed", "1"],
        ["sets", "--starts", "5"],
        ["sets", "--tol", "1e-9"],
        ["zeig", "--tol", "1e-9"],
        ["verify", "--tol", "1e-9"],
    ],
    ids=" ".join,
)
def test_removed_settings_are_usage_errors(capsys, example1_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], example1_path, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


# the library calls a command makes, each exactly once; every command loads the tensor
_CALLED = {
    "info": {"is_nonnegative", "weak_symmetry_check"},
    "sets": {"row_aggregates", "build_sets"},
    "bounds": {"row_aggregates", "bound_report", "is_nonnegative", "weak_symmetry_check"},
    "zeig": {"solve"},
    "verify": {"row_aggregates", "build_sets", "bound_report", "is_nonnegative",
               "weak_symmetry_check", "solve", "inclusion_chain_check", "verify_inclusion"},
}


@pytest.fixture
def layer_calls(monkeypatch):
    """The names of the library functions called, patched in cli and in the
    module that defines each, so nested calls are counted too."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    defined_in = {tensor_mod: ("load_tensor", "is_nonnegative", "weak_symmetry_check"),
                  localization_mod: ("row_aggregates", "build_sets", "inclusion_chain_check"),
                  bounds_mod: ("bound_report",), oracle_mod: ("solve", "verify_inclusion")}
    for module, names in defined_in.items():
        for name in names:
            wrapper = counted(getattr(module, name))
            monkeypatch.setattr(module, name, wrapper)
            monkeypatch.setattr(cli_mod, name, wrapper)
    return calls


def test_each_command_calls_each_layer_it_needs_once(capsys, layer_calls, example1_path,
                                                     example2_path):
    formats = {"info": ("text", "structured"), "sets": ("text", "structured", "plot-data"),
               "bounds": ("text", "structured"), "zeig": ("text", "structured"),
               "verify": ("text", "structured")}
    cases = [(cmd, fmt, _CALLED[cmd]) for cmd, fmts in formats.items() for fmt in fmts]
    cases.append(("sets", "svg", _CALLED["sets"] | {"solve"}))  # the eigenvalue marks
    for path in (example1_path, example2_path):
        for command, fmt, expected in cases:
            layer_calls.clear()
            assert run(capsys, command, path, "--format", fmt)[0] == 0
            assert sorted(layer_calls) == sorted({"load_tensor"} | expected), (command, fmt)


def test_info_and_verify_make_one_symmetry_pass(capsys, layer_calls, example1_path, example2_path):
    # one weak-symmetry pass and one sign check per command; bound_report
    # makes neither, so bounds and verify make them once for the command
    checks = {"is_nonnegative", "weak_symmetry_check"}
    for path in (example1_path, example2_path):
        for argv in (["info"], ["info", "--format", "structured"], ["bounds"],
                     ["bounds", "--format", "structured"], ["verify", "--starts", "5"],
                     ["verify", "--starts", "5", "--format", "structured"]):
            layer_calls.clear()
            assert run(capsys, *argv[:1], path, *argv[1:])[0] == 0
            assert sorted(c for c in layer_calls if c in checks) == sorted(checks), argv


def test_sets_bounds_and_verify_make_one_aggregates_pass(capsys, layer_calls, example1_path):
    # each command computes the row aggregates once and hands them to the layers
    formats = {"sets": ("text", "structured", "plot-data", "svg"),
               "bounds": ("text", "structured"), "verify": ("text", "structured")}
    for command, fmts in formats.items():
        for fmt in fmts:
            layer_calls.clear()
            assert run(capsys, command, example1_path, "--format", fmt)[0] == 0
            assert layer_calls.count("row_aggregates") == 1, (command, fmt)


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        pytest.param(["verify", "--seed", "-1"], False, "OracleConfig needs an integer seed >= 0, got -1",
                     id="verify --seed -1"),
        # the power-step budget is a constant of the oracle, not an option
        pytest.param(["zeig", "--max-iter", "5"], True, "unrecognized arguments: --max-iter 5",
                     id="zeig --max-iter 5"),
    ],
)
def test_bad_oracle_options_exit_2_before_any_layer(capsys, layer_calls, example2_path, argv, usage, message):
    try:
        code = main([argv[0], example2_path, *argv[1:]])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (build_parser().format_usage() if usage else "") + f"zeigloc: error: {message}\n"
    assert layer_calls == []


def test_zeig_structured_with_one_power_step(capsys, monkeypatch, example2_path):
    # one power step per run: the polish alone brings runs to the gate, and
    # the pairs that pass it make a valid document
    monkeypatch.setattr(oracle_mod, "_POWER_STEPS", 1)
    code, out, _ = run(capsys, "zeig", example2_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["meta", "eigenpairs"]
    assert doc["eigenpairs"]
    for p in doc["eigenpairs"]:
        assert list(p) == ["value", "vector", "residual", "source"]
        assert p["source"] == "sshopm" and p["residual"] <= 1e-8


def test_verify_example1_exit0(capsys, example1_path):
    code, out, _ = run(capsys, "verify", example1_path)
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_example2_exit0(capsys, example2_path):
    code, out, _ = run(capsys, "verify", example2_path, "--starts", "20")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_structured_document(capsys, example1_path):
    code, out, _ = run(capsys, "verify", example1_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "info", "sets", "bounds", "eigenpairs", "verification"}
    ver = doc["verification"]
    assert ver["ok"] is True and ver["chain"]["ok"] is True
    assert len(ver["rows"]) == 2
    for row in ver["rows"]:
        assert all(row["sets"].values())
        assert all(row["bounds"].values())


def test_verify_corrupted_sets_fails(capsys, example1_path):
    code, out, err = run(capsys, "verify", example1_path, "--corrupt-sets")
    assert code == 1
    assert "verdict: FAIL" in out
    # the halved sets miss lambda = 5, the Omega radius; -0.2044 stays inside
    assert err == "".join(f"failed: |5| not within {name}\n" for name in ("K", "L", "Psi", "Omega"))
    code, out, err = run(capsys, "verify", example1_path, "--corrupt-sets", "--format", "structured")
    assert (code, err) == (1, "")
    ver = json.loads(out)["verification"]
    assert ver["ok"] is False and ver["chain"]["ok"] is True
    assert [row["sets"]["K"] for row in ver["rows"]] == [True, False]


def test_verify_reports_chain_violation(capsys, monkeypatch, example1_path):
    # an Omega wider than Psi holds every eigenvalue, so only the chain fails
    def wide_omega(agg):
        reports = build_sets(agg)
        omega = reports["Omega"]
        wide = IntervalSet.closed(0.0, 100.0)
        return {**reports, "Omega": SetReport("Omega", wide, omega.per_index, omega.families)}

    monkeypatch.setattr(cli_mod, "build_sets", wide_omega)
    code, out, err = run(capsys, "verify", example1_path)
    assert (code, err) == (1, "")
    assert "  violation: Omega interval [0, 100] not inside Psi\n" in out
    assert out.endswith("verdict: FAIL\n")
    code, out, err = run(capsys, "verify", example1_path, "--format", "structured")
    assert (code, err) == (1, "")
    ver = json.loads(out)["verification"]
    assert ver["chain"]["ok"] is False and ver["ok"] is False
    expected = {"inner": "Omega", "outer": "Psi", "interval": [0.0, 100.0]}
    assert ver["chain"]["violations"] == [expected]
    assert all(all(row["sets"].values()) for row in ver["rows"])


def test_verify_failed_lines_print_the_absolute_eigenvalue(capsys, example2_path):
    # the halved sets miss both lambda = -9.50772 and 9.50772, each as |lambda|
    code, _, err = run(capsys, "verify", example2_path, "--corrupt-sets")
    assert code == 1
    lines = [f"failed: |9.50772| not within {name}\n" for name in ("K", "L", "Psi", "Omega")]
    assert err == "".join(lines * 2)


def _bounds_and_verify(capsys, tmp_path, A):
    path = tmp_path / "tensor.txt"
    path.write_text(serialize_tensor(A))
    code, out, _ = run(capsys, "bounds", str(path), "--format", "structured")
    assert code == 0
    bounds = json.loads(out)["bounds"]
    code, out, _ = run(capsys, "verify", str(path), "--format", "structured")
    assert code == 0
    rows = json.loads(out)["verification"]["rows"]
    assert rows  # something was checked
    header = run(capsys, "verify", str(path))[1].splitlines()[0]
    return bounds, rows, header


def test_bounds_section_flags_signed_tensor(capsys, tmp_path):
    # the bounds are printed for any tensor but checked only where they apply
    A = random_symmetric_tensor(np.random.default_rng(73), 4, 2, low=-1.0)
    bounds, rows, header = _bounds_and_verify(capsys, tmp_path, A)
    assert (bounds["nonnegative"], bounds["weakly_symmetric"]) == (False, True)
    assert all(row["bounds"] is None for row in rows)
    assert header.split() == ["lambda", "K", "L", "Psi", "Omega"]


def test_bounds_section_applicability_needs_weak_symmetry(capsys, tmp_path):
    # A x^2 = (x1 x2, 0) against grad(x1^2 x2) / 3 = (2 x1 x2, x1^2) / 3
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 1.0
    bounds, rows, header = _bounds_and_verify(capsys, tmp_path, Tensor(3, 2, arr))
    assert (bounds["nonnegative"], bounds["weakly_symmetric"]) == (True, False)
    assert all(row["bounds"] is None for row in rows)
    assert header.split() == ["lambda", "K", "L", "Psi", "Omega"]


def readme_transcripts():
    """(argv, stdout) of every `$ zeigloc ...` example in the README."""
    block = (ROOT / "README.md").read_text().split("```sh\n$ zeigloc ")[1].split("```")[0]
    for transcript in ("$ zeigloc " + block).strip().split("\n\n"):
        command, *lines = transcript.splitlines()
        yield command.split()[2:], "\n".join(lines) + "\n"


def test_readme_transcripts_are_exact(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    transcripts = list(readme_transcripts())
    assert [argv[0] for argv, _ in transcripts] == ["sets", "bounds", "info", "verify"]
    for argv, expected in transcripts:
        assert run(capsys, *argv) == (0, expected, ""), argv


def test_readme_library_example_runs(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = (ROOT / "README.md").read_text().split("## Library\n\n```python\n")[1].split("```")[0]
    exec(code, {})
    radius, bounds = capsys.readouterr().out.splitlines()  # as the comments in the block say
    assert radius == "5.0" and bounds.startswith("6.48") and bounds.endswith(" tilde")


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("tensor m=2 n=2\n1 5 1.0\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 2" in err


def test_header_with_a_5000_digit_size_exits_2(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("tensor m=2 n=" + "9" * 5000 + "\n")
    code, out, err = run(capsys, "info", str(huge))
    assert (code, out) == (2, "")
    assert err == "zeigloc: input error: dense tensor too large: n has 5000 digits (line 1)\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "info", "/no/such/file.txt")
    assert code == 2
    assert "error" in err


def test_zero_tensor_end_to_end(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("tensor m=4 n=2\n")
    code, out, _ = run(capsys, "sets", str(path))
    assert code == 0
    assert "0.0000" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_outputs_unchanged_when_pair_intervals_are_rebuilt(
    capsys, monkeypatch, example1_path, example2_path
):
    # the cached kernel against one rebuilt on every read
    formats = {"info": ("text", "structured"), "sets": ("text", "structured", "plot-data", "svg"),
               "bounds": ("text", "structured"), "zeig": ("text", "structured"),
               "verify": ("text", "structured")}

    def outputs():
        return [
            run(capsys, cmd, path, "--format", fmt)
            for path in (example1_path, example2_path)
            for cmd, fmts in formats.items()
            for fmt in fmts
        ]

    cached = outputs()
    monkeypatch.setattr(RowAggregates, "pair_intervals", property(localization_mod._pair_intervals))
    assert outputs() == cached


@pytest.mark.parametrize("command", ["info", "sets", "bounds", "zeig", "verify"])
def test_structured_output_is_one_json_line(capsys, example1_path, example2_path, command):
    for path in (example1_path, example2_path):
        code, out, _ = run(capsys, command, path, "--format", "structured")
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["meta"]["command"] == command


def test_render_json_round_trips_17_digits():
    payload = {"x": 6.316084380618436, "items": [1e-300, 0.1, 3], "flag": True, "none": None}
    text = render_json(payload)
    back = json.loads(text)
    assert back["x"] == payload["x"]
    assert back["items"][0] == 1e-300 and back["items"][1] == 0.1
    assert back["flag"] is True and back["none"] is None


def test_render_json_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            render_json({"pairs": [{"value": 1.0, "residual": bad}]})
