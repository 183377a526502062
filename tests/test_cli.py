"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import argparse
import json

import numpy as np
import pytest

from displacement_kit import make_circular_shift, materialize
from displacement_kit.cli import build_parser, main
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
    assert data == {"operator": "pseudo_inverse", "m": 3, "coefficients": [1 / 3, 0.0, -1 / 3]}


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
    assert list(data) == ["point", "basis"]
    np.testing.assert_allclose(data["point"], [0.5, -0.5], atol=1e-12)
    assert len(data["basis"]) == 1 and len(data["basis"][0]) == 2


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


def test_overflowing_gamma_exits_2(capsys):
    # float(Fraction("1e400")) overflows; that is bad input, not a failed check
    with pytest.raises(SystemExit) as excinfo:
        main(["resolvent", "--kind", "rotator", "--m", "2", "--gamma", "1e400"])
    assert excinfo.value.code == 2
    assert "invalid gamma '1e400'" in capsys.readouterr().err


def test_nonpositive_gamma_exits_2(capsys):
    code, out, err = run(capsys, "resolvent", "--kind", "rotator", "--m", "2", "--gamma", "-1")
    assert code == 2
    assert "gamma" in err


def test_invalid_order_exits_2(capsys):
    code, out, err = run(capsys, "resolvent", "--kind", "rotator", "--m", "1", "--gamma", "1")
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize("gamma", ["1e13", "1e-13"])
def test_iterate_extreme_gamma_exits_0(capsys, tmp_path, gamma):
    x0 = tmp_path / "x0.json"
    save_vector(x0, [1.0, 2.0, 3.0])
    code, data, err = run_json(
        capsys, "iterate", "--kind", "shift", "--m", "3", "--gamma", gamma, "--x0", str(x0),
        "--max-iter", "100",
    )
    assert code == 0 and err == ""
    assert data["iterations_used"] >= 1


def test_huge_gamma_resolvent_evaluates_the_formula(capsys):
    code, data, err = run_json(
        capsys, "resolvent", "--kind", "shift", "--m", "3", "--gamma", "1e15", "--materialize"
    )
    assert code == 0 and err == ""
    assert data["operator"] == "resolvent" and data["gamma"] == 1e15
    np.testing.assert_allclose(data["matrix"], np.full((3, 3), 1 / 3), rtol=0, atol=1e-14)


def test_huge_gamma_yosida_exits_0(capsys):
    code, data, _ = run_json(capsys, "yosida", "--kind", "shift", "--m", "3", "--gamma", "1e15")
    assert code == 0 and data["operator"] == "yosida"


def test_yosida_inverse_overflow_exits_2_naming_gamma(capsys):
    code, out, err = run(
        capsys, "yosida", "--kind", "shift", "--m", "3", "--gamma", "1e-310", "--inverse"
    )
    assert code == 2 and out == ""
    assert "overflow at gamma = 1e-310" in err


def test_seed_is_rejected_outside_verify(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["show", "--kind", "shift", "--m", "3", "--seed", "3"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


INSTANCE_OPTIONS = {"--kind", "--m", "--blocks", "--block-dim", "--matrix-path", "--dense-tol"}
COMMON_OPTIONS = {"-h", "--help", "--format"}
OPERATOR_OPTIONS = {"--materialize", "--apply"}
GAMMA_OPTIONS = {"--gamma", "--inverse"}

#: the options of every subcommand, pinned: a flag joins or leaves one only with an edit here
SUBCOMMAND_OPTIONS = {
    "show": COMMON_OPTIONS | INSTANCE_OPTIONS,
    "resolvent": COMMON_OPTIONS | INSTANCE_OPTIONS | OPERATOR_OPTIONS | GAMMA_OPTIONS,
    "yosida": COMMON_OPTIONS | INSTANCE_OPTIONS | OPERATOR_OPTIONS | GAMMA_OPTIONS,
    "pinv": COMMON_OPTIONS | INSTANCE_OPTIONS | OPERATOR_OPTIONS,
    "solve": COMMON_OPTIONS | INSTANCE_OPTIONS | {"--rhs", "--tol"},
    "iterate": COMMON_OPTIONS | INSTANCE_OPTIONS | {"--gamma", "--x0", "--max-iter", "--tol"},
    "verify": COMMON_OPTIONS | {"--seed", "--max-m", "--max-dim"},
    "reproduce-paper": COMMON_OPTIONS | {"--gamma"},
}


def test_subcommand_options_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {flag for action in p._actions for flag in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_verify_small_grid_passes(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-m", "3", "--max-dim", "6")
    assert code == 0
    assert data["all_pass"] is True
    labels = {r["label"] for r in data["reports"]}
    assert "resolvent matches the linear-solve oracle" in labels
    assert all(r["pass"] for r in data["reports"])


def test_verify_seed_defaults_to_zero(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-m", "2", "--max-dim", "4")
    assert code == 0
    assert all(r["seed"] == 0 for r in data["reports"])


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


def _json_commands(tmp_path):
    # at least one invocation of every subcommand, on small instances
    vec3, vec2, mat = tmp_path / "v3.json", tmp_path / "v2.json", tmp_path / "m.json"
    save_vector(vec3, [1.0, -2.0, 0.5])
    save_vector(vec2, [1.0, -1.0])
    save_matrix(mat, materialize(make_circular_shift(3)))
    shift3 = ("--kind", "shift", "--m", "3")
    vec4 = tmp_path / "v4.json"
    save_vector(vec4, [0.3, -1.25, 2.0, 0.5])
    return {
        "show": ("show", "--kind", "dense-file", "--m", "3", "--matrix-path", str(mat)),
        "resolvent": (
            "resolvent", *shift3, "--gamma", "1/3", "--materialize", "--apply", str(vec3)
        ),
        "yosida": ("yosida", "--kind", "rotator", "--m", "5", "--gamma", "2", "--inverse"),
        "pinv": ("pinv", *shift3, "--materialize"),
        "solve": ("solve", "--kind", "shift", "--m", "2", "--rhs", str(vec2)),
        "solve-not-in-range": ("solve", *shift3, "--rhs", str(vec3)),
        "iterate": ("iterate", *shift3, "--gamma", "0.1", "--x0", str(vec3)),
        "verify": ("verify", "--max-m", "2", "--max-dim", "4"),
        "reproduce-paper": ("reproduce-paper",),
        "show-rotator": ("show", "--kind", "rotator", "--m", "5", "--blocks", "2"),
        "solve-rotator": (
            "solve", "--kind", "rotator", "--m", "4", "--blocks", "2", "--rhs", str(vec4)
        ),
    }


@pytest.fixture
def payloads(monkeypatch):
    """The payloads that ``cli._emit`` receives, which still prints them."""
    import displacement_kit.cli as cli

    received = []
    emit = cli._emit

    def recording_emit(payload, fmt):
        received.append(payload)
        emit(payload, fmt)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    return received


def test_json_output_is_byte_identical_to_dumps(capsys, tmp_path, payloads):
    commands = _json_commands(tmp_path)
    assert {argv[0] for argv in commands.values()} == set(SUBCOMMAND_OPTIONS)
    for name, argv in commands.items():
        payloads.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0, (name, err)
        assert len(payloads) == 1, name
        assert out == json.dumps(payloads[0], indent=2) + "\n", name


SHOW_KEYS = ["kind", "m", "dim", "isometry", "fixed_projector", "skew_part", "pseudo_inverse"]
#: the key paths of each payload in the order the CLI prints them; ``key[].field``
#: stands for the field of every row of a list of dicts
PAYLOAD_KEYS = {
    "show": SHOW_KEYS,
    "resolvent": ["operator", "gamma", "m", "coefficients", "matrix", "result"],
    "yosida": ["operator", "gamma", "m", "coefficients"],
    "pinv": ["operator", "m", "coefficients", "matrix"],
    "solve": ["point", "basis"],
    "solve-not-in-range": ["message"],
    "iterate": ["points", "residuals", "limit_estimate", "converged", "iterations_used"],
    "verify": [
        "reports", "reports[].label", "reports[].max_abs_deviation",
        "reports[].mean_abs_deviation", "reports[].samples", "reports[].tolerance",
        "reports[].pass", "reports[].seed", "all_pass",
    ],
    "reproduce-paper": [
        "cases", "cases[].kind", "cases[].m", "cases[].operator", "cases[].gamma",
        "cases[].max_abs_deviation", "cases[].tolerance", "cases[].pass", "cases[].matrix",
        "all_pass",
    ],
    "show-rotator": SHOW_KEYS,
    "solve-rotator": ["point", "basis"],
}


def _plain(value) -> bool:
    """True when ``value`` holds only dict, list, str, int, float and bool (no numpy scalar)."""
    if isinstance(value, dict):
        return all(type(key) is str and _plain(v) for key, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return type(value) in (str, int, float, bool)


def _key_paths(payload: dict, prefix: str = "") -> list:
    paths = []
    for key, value in payload.items():
        paths.append(prefix + key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = {tuple(_key_paths(row, f"{prefix}{key}[].")) for row in value}
            assert len(rows) == 1, f"the rows of {key} list different keys"
            paths.extend(rows.pop())
    return paths


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_every_payload_is_plain_json_in_pinned_key_order(capsys, tmp_path, payloads, fmt):
    commands = _json_commands(tmp_path)
    assert set(commands) == set(PAYLOAD_KEYS)
    for name, argv in commands.items():
        payloads.clear()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out, (name, err)
        if (argv[0], fmt) == ("iterate", "csv"):
            assert payloads == []  # the residuals, one per line, without a payload
            continue
        assert len(payloads) == 1, name
        assert _plain(payloads[0]), name
        assert _key_paths(payloads[0]) == PAYLOAD_KEYS[name], name
