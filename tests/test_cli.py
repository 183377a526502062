"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import json

import numpy as np
import pytest

from displacement_kit import make_circular_shift, materialize
from displacement_kit.cli import main
from displacement_kit.io_utils import save_matrix, save_vector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_resolvent_materialize_half_turn(capsys):
    code, data, _ = run_json(
        capsys, "resolvent", "--kind", "rotator", "--m", "2", "--gamma", "1", "--materialize"
    )
    assert code == 0
    np.testing.assert_allclose(data["matrix"], np.eye(2) / 3.0, atol=1e-14)
    np.testing.assert_allclose(data["coefficients"], [2 / 3, 1 / 3], atol=1e-15)
    assert data["m"] == 2 and data["gamma"] == 1.0 and data["operator"] == "resolvent"


def test_resolvent_accepts_rational_gamma(capsys):
    code, data, _ = run_json(
        capsys, "resolvent", "--kind", "shift", "--m", "2", "--gamma", "1/2", "--materialize"
    )
    assert code == 0
    g = 0.5
    expected = np.array([[1 + g, g], [g, 1 + g]]) / (1 + 2 * g)
    np.testing.assert_allclose(data["matrix"], expected, atol=1e-14)


def test_resolvent_inverse_flag(capsys):
    code, data, _ = run_json(
        capsys,
        "resolvent", "--kind", "rotator", "--m", "2", "--gamma", "2", "--inverse", "--materialize",
    )
    assert code == 0
    assert data["operator"] == "resolvent_inverse"
    np.testing.assert_allclose(data["matrix"], 0.5 * np.eye(2), atol=1e-14)


def test_yosida_command(capsys):
    code, data, _ = run_json(
        capsys, "yosida", "--kind", "rotator", "--m", "2", "--gamma", "1", "--materialize"
    )
    assert code == 0
    np.testing.assert_allclose(data["matrix"], (2 / 3) * np.eye(2), atol=1e-14)


def test_yosida_inverse_apply_to_file(capsys, tmp_path):
    x_file = tmp_path / "x.json"
    save_vector(x_file, [1.0, 0.0])
    code, data, _ = run_json(
        capsys,
        "yosida", "--kind", "shift", "--m", "2", "--gamma", "1", "--inverse",
        "--apply", str(x_file),
    )
    assert code == 0
    np.testing.assert_allclose(data["result"], [2 / 3, 1 / 3], atol=1e-14)


def test_pinv_command(capsys):
    code, data, _ = run_json(capsys, "pinv", "--kind", "shift", "--m", "3")
    assert code == 0
    np.testing.assert_allclose(data["coefficients"], [1 / 3, 0.0, -1 / 3])


def test_show_emits_all_operators(capsys):
    code, data, _ = run_json(capsys, "show", "--kind", "shift", "--m", "3")
    assert code == 0
    assert set(data) >= {"kind", "m", "dim", "isometry", "fixed_projector", "skew_part", "pseudo_inverse"}
    np.testing.assert_allclose(data["fixed_projector"], np.full((3, 3), 1 / 3))


def test_solve_not_in_range(capsys, tmp_path):
    rhs = tmp_path / "diag.json"
    save_vector(rhs, [1.0, 1.0, 1.0])
    code, data, _ = run_json(capsys, "solve", "--kind", "shift", "--m", "3", "--rhs", str(rhs))
    assert code == 0
    assert data == {"message": "not in range of M"}


def test_solve_in_range(capsys, tmp_path):
    rhs = tmp_path / "rhs.json"
    save_vector(rhs, [1.0, -1.0])
    code, data, _ = run_json(capsys, "solve", "--kind", "shift", "--m", "2", "--rhs", str(rhs))
    assert code == 0
    np.testing.assert_allclose(data["point"], [0.5, -0.5], atol=1e-12)
    assert len(data["basis"]) == 1


def test_iterate_json_and_csv(capsys, tmp_path):
    x0 = tmp_path / "x0.json"
    save_vector(x0, [1.0, 2.0, 3.0])
    code, data, _ = run_json(
        capsys, "iterate", "--kind", "shift", "--m", "3", "--gamma", "1", "--x0", str(x0)
    )
    assert code == 0
    assert data["converged"] is True
    np.testing.assert_allclose(data["limit_estimate"], [2.0, 2.0, 2.0], atol=1e-8)
    assert len(data["residuals"]) == data["iterations_used"]

    code, out, _ = run(
        capsys,
        "iterate", "--kind", "shift", "--m", "3", "--gamma", "1", "--x0", str(x0),
        "--format", "csv",
    )
    assert code == 0
    residuals = [float(line) for line in out.strip().splitlines()]
    np.testing.assert_allclose(residuals, data["residuals"])


def test_dense_file_instance(capsys, tmp_path):
    mat = tmp_path / "shift.json"
    save_matrix(mat, materialize(make_circular_shift(3)))
    code, data, _ = run_json(
        capsys, "show", "--kind", "dense-file", "--m", "3", "--matrix-path", str(mat)
    )
    assert code == 0
    assert data["kind"] == "dense" and data["dim"] == 3


def test_dense_file_rejects_infinite_tolerance(capsys, tmp_path):
    mat = tmp_path / "bad.json"
    save_matrix(mat, [[2.0, 0.0], [0.0, 3.0]])
    code, out, err = run(
        capsys, "show", "--kind", "dense-file", "--m", "2", "--matrix-path", str(mat),
        "--dense-tol", "inf",
    )
    assert code == 2 and out == ""
    assert "tol must be a positive finite real, got inf" in err


def test_dense_file_requires_matrix_path(capsys):
    code, out, err = run(capsys, "show", "--kind", "dense-file", "--m", "3")
    assert code == 2
    assert "--matrix-path" in err


def test_dense_file_rejects_non_isometry(capsys, tmp_path):
    mat = tmp_path / "bad.json"
    save_matrix(mat, [[2.0, 0.0], [0.0, 1.0]])
    code, out, err = run(
        capsys, "show", "--kind", "dense-file", "--m", "2", "--matrix-path", str(mat)
    )
    assert code == 2
    assert "isometry" in err


def test_missing_rhs_file_exits_2_naming_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "solve", "--kind", "shift", "--m", "2", "--rhs", str(missing))
    assert code == 2
    assert "missing.json" in err


def test_dimension_mismatch_exits_2(capsys, tmp_path):
    rhs = tmp_path / "short.json"
    save_vector(rhs, [1.0, -1.0])
    code, out, err = run(capsys, "solve", "--kind", "shift", "--m", "3", "--rhs", str(rhs))
    assert code == 2
    assert "dimension" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resolvent", "--kind", "rotator", "--m", "2", "--gamma", "1", "--bogus"])
    assert excinfo.value.code == 2


def test_malformed_gamma_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resolvent", "--kind", "rotator", "--m", "2", "--gamma", "one"])
    assert excinfo.value.code == 2


def test_nonpositive_gamma_exits_2(capsys):
    code, out, err = run(capsys, "resolvent", "--kind", "rotator", "--m", "2", "--gamma", "-1")
    assert code == 2
    assert "gamma" in err


def test_invalid_order_exits_2(capsys):
    code, out, err = run(capsys, "resolvent", "--kind", "rotator", "--m", "1", "--gamma", "1")
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize("gamma", ["1e13", "1e-13"])
def test_iterate_out_of_range_gamma_exits_2(capsys, tmp_path, gamma):
    x0 = tmp_path / "x0.json"
    save_vector(x0, [1.0, 2.0, 3.0])
    code, out, err = run(
        capsys, "iterate", "--kind", "shift", "--m", "3", "--gamma", gamma, "--x0", str(x0)
    )
    assert code == 2 and out == ""
    assert f"--gamma {float(gamma):g} is outside the supported range [1e-12, 1e+12]" in err


def test_out_of_range_gamma_substitutes_limit(capsys):
    code, out, err = run(
        capsys, "resolvent", "--kind", "shift", "--m", "3", "--gamma", "1e15", "--materialize"
    )
    assert code == 0
    assert "asymptotic limit" in err
    data = json.loads(out)
    assert data["operator"] == "resolvent_limit_infinity"
    np.testing.assert_allclose(data["matrix"], np.full((3, 3), 1 / 3))


def test_out_of_range_gamma_rejected_for_yosida(capsys):
    code, out, err = run(capsys, "yosida", "--kind", "shift", "--m", "3", "--gamma", "1e15")
    assert code == 2
    assert "range" in err


def test_verify_small_grid_passes(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-m", "3", "--max-dim", "6")
    assert code == 0
    assert data["all_pass"] is True
    labels = {r["label"] for r in data["reports"]}
    assert "resolvent matches the linear-solve oracle" in labels
    assert all(r["pass"] for r in data["reports"])


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DISPLACEMENT_KIT_SEED", "123")
    code, data, _ = run_json(capsys, "verify", "--max-m", "2", "--max-dim", "4")
    assert code == 0
    assert all(r["seed"] == 123 for r in data["reports"])


def test_reproduce_paper_all_pass(capsys):
    code, data, _ = run_json(capsys, "reproduce-paper", "--gamma", "1")
    assert code == 0
    assert data["all_pass"] is True
    assert len(data["cases"]) == 20  # 4 operators x (3 rotators + 2 shifts)
    kinds = {(c["kind"], c["m"]) for c in data["cases"]}
    assert kinds == {("rotator", 2), ("rotator", 3), ("rotator", 4), ("shift", 2), ("shift", 3)}


def test_reproduce_paper_rational_gamma(capsys):
    code, data, _ = run_json(capsys, "reproduce-paper", "--gamma", "1/2")
    assert code == 0
    assert data["all_pass"] is True
    case = next(
        c for c in data["cases"] if c["kind"] == "rotator" and c["m"] == 2 and c["operator"] == "resolvent"
    )
    np.testing.assert_allclose(case["matrix"], np.eye(2) / 2.0, atol=1e-14)


def test_pretty_and_csv_formats_smoke(capsys):
    code, out, _ = run(
        capsys, "show", "--kind", "rotator", "--m", "4", "--format", "pretty"
    )
    assert code == 0
    assert "isometry:" in out

    code, out, _ = run(
        capsys,
        "resolvent", "--kind", "rotator", "--m", "4", "--gamma", "1", "--materialize",
        "--format", "csv",
    )
    assert code == 0
    assert "# matrix" in out
    assert "operator,resolvent" in out


def test_deterministic_output_given_seed(capsys):
    code1, out1, _ = run(capsys, "verify", "--max-m", "2", "--max-dim", "4", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--max-m", "2", "--max-dim", "4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
