import json

import numpy as np

import zeigloc.localization as localization_mod
from zeigloc.bounds import bound_report
from zeigloc.cli import main, render_json
from zeigloc.localization import RowAggregates, build_sets
from zeigloc.tensor import weak_symmetry_check


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
    reports = build_sets(example1)
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
    reports = build_sets(example1)
    for name, inner, outer in rows:
        lo, hi = reports[name].set.intervals[0]
        assert float(inner) == lo and float(outer) == hi


def test_sets_svg(capsys, example1_path):
    code, out, _ = run(capsys, "sets", example1_path, "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<circle") >= 4
    assert 'stroke-dasharray="10 6"' in out  # dashed outermost boundary
    assert 'stroke-width="3"' in out  # bold tightest boundary
    assert out.count("<path") >= 2  # one plus mark per eigenvalue
    for name in ("K", "L", "Psi", "Omega"):
        assert f">{name}</text>" in out


def test_bounds_text_example2(capsys, example2_path):
    code, out, _ = run(capsys, "bounds", example2_path)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("bound", "applies"))]
    names = [l.split()[0] for l in lines]
    assert names == ["omega_max", "zhao", "wang", "maxR"]
    for token in ("14.9410", "15.2580", "18.5656", "19.0000"):
        assert token in out
    assert "nonnegative=yes" in out and "weakly_symmetric=yes" in out


def test_bounds_structured_field_order(capsys, example2_path, example2):
    code, out, _ = run(capsys, "bounds", example2_path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["bounds"])[:4] == ["omega_max", "zhao", "wang", "maxR"]
    rep = bound_report(example2)
    for name, bv in (("omega_max", rep.omega_max), ("zhao", rep.zhao), ("wang", rep.wang)):
        assert doc["bounds"][name]["value"] == bv.value
        assert doc["bounds"][name]["i"] == bv.i


def test_zeig_text_example1(capsys, example1_path):
    code, out, _ = run(capsys, "zeig", example1_path)
    assert code == 0
    assert "-0.2044" in out and "5.0000" in out
    assert "circle" in out


def test_zeig_structured_method_sshopm(capsys, example1_path):
    code, out, _ = run(
        capsys, "zeig", example1_path, "--format", "structured", "--method", "sshopm",
        "--starts", "30",
    )
    assert code == 0
    doc = json.loads(out)
    values = [p["value"] for p in doc["eigenpairs"]]
    assert any(abs(v - 5.0) < 5e-4 for v in values)
    for p in doc["eigenpairs"]:
        assert p["source"] == "sshopm"
        assert p["residual"] <= 1e-8
        assert abs(np.linalg.norm(p["vector"]) - 1.0) <= 1e-12


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
    assert "failed" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("tensor m=2 n=2\n1 5 1.0\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 2" in err


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


def test_render_json_round_trips_17_digits():
    payload = {"x": 6.316084380618436, "items": [1e-300, 0.1, 3], "flag": True, "none": None}
    text = render_json(payload)
    back = json.loads(text)
    assert back["x"] == payload["x"]
    assert back["items"][0] == 1e-300 and back["items"][1] == 0.1
    assert back["flag"] is True and back["none"] is None
