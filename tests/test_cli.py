"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import argparse
import contextlib
import inspect
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import displacement_kit.cli as cli
from displacement_kit import ParameterError, make_circular_shift, materialize
from displacement_kit.cli import _SLICE, _emit, build_parser, main
from displacement_kit.displacement_calculus import RANGE_MEMBERSHIP_TOL
from displacement_kit.isometry_core import DEFAULT_VALIDATION_TOL
from io_helpers import save_matrix, save_vector


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
    np.testing.assert_allclose(data["matrix"], np.eye(2) / 3.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(data["coefficients"], [2 / 3, 1 / 3], rtol=0, atol=1e-15)
    assert data["m"] == 2 and data["gamma"] == 1.0 and data["operator"] == "resolvent"


def test_resolvent_accepts_rational_gamma(capsys):
    code, data, _ = run_json(
        capsys, "resolvent", "--kind", "shift", "--m", "2", "--gamma", "1/2", "--materialize"
    )
    assert code == 0
    g = 0.5
    expected = np.array([[1 + g, g], [g, 1 + g]]) / (1 + 2 * g)
    np.testing.assert_allclose(data["matrix"], expected, rtol=0, atol=1e-14)


def test_resolvent_inverse_flag(capsys):
    code, data, _ = run_json(
        capsys,
        "resolvent", "--kind", "rotator", "--m", "2", "--gamma", "2", "--inverse", "--materialize",
    )
    assert code == 0
    assert data["operator"] == "resolvent_inverse"
    np.testing.assert_allclose(data["matrix"], 0.5 * np.eye(2), rtol=0, atol=1e-14)


def test_yosida_command(capsys):
    code, data, _ = run_json(
        capsys, "yosida", "--kind", "rotator", "--m", "2", "--gamma", "1", "--materialize"
    )
    assert code == 0
    np.testing.assert_allclose(data["matrix"], (2 / 3) * np.eye(2), rtol=0, atol=1e-14)


def test_yosida_inverse_apply_to_file(capsys, tmp_path):
    x_file = tmp_path / "x.json"
    save_vector(x_file, [1.0, 0.0])
    code, data, _ = run_json(
        capsys,
        "yosida", "--kind", "shift", "--m", "2", "--gamma", "1", "--inverse",
        "--apply", str(x_file),
    )
    assert code == 0
    np.testing.assert_allclose(data["result"], [2 / 3, 1 / 3], rtol=0, atol=1e-14)


def test_pinv_command(capsys):
    code, data, _ = run_json(capsys, "pinv", "--kind", "shift", "--m", "3")
    assert code == 0
    assert data == {"operator": "pseudo_inverse", "m": 3, "coefficients": [1 / 3, 0.0, -1 / 3]}


def test_show_emits_all_operators(capsys):
    code, data, _ = run_json(capsys, "show", "--kind", "shift", "--m", "3")
    assert code == 0
    assert set(data) >= {"kind", "m", "dim", "isometry", "fixed_projector", "skew_part", "pseudo_inverse"}
    np.testing.assert_allclose(data["fixed_projector"], np.full((3, 3), 1 / 3), rtol=0, atol=1e-15)


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
    np.testing.assert_allclose(data["point"], [0.5, -0.5], rtol=0, atol=1e-12)
    assert len(data["basis"]) == 1 and len(data["basis"][0]) == 2


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_iterate_at_an_extreme_scale_prints_strict_json(capsys, tmp_path):
    # the squares of these steps overflow; each residual is still a finite float
    x0 = tmp_path / "x0.json"
    save_vector(x0, 1e160 * np.random.default_rng(2).standard_normal(8))
    code, out, err = run(
        capsys, "iterate", "--kind", "rotator", "--m", "5", "--blocks", "4", "--gamma", "1",
        "--x0", str(x0), "--max-iter", "50",
    )
    assert code == 0, err
    residuals = _strict_json(out)["residuals"]
    assert len(residuals) == 50 and all(0.0 < r < math.inf for r in residuals)


def test_solve_at_an_extreme_scale_refuses_a_fixed_right_hand_side(capsys, tmp_path):
    rhs = tmp_path / "rhs.json"
    save_vector(rhs, np.full(3, 1e160))
    code, out, err = run(capsys, "solve", "--kind", "shift", "--m", "3", "--rhs", str(rhs))
    assert code == 0, err
    assert _strict_json(out) == {"message": "not in range of M"}


def test_iterate_json_and_csv(capsys, tmp_path):
    x0 = tmp_path / "x0.json"
    save_vector(x0, [1.0, 2.0, 3.0])
    code, data, _ = run_json(
        capsys, "iterate", "--kind", "shift", "--m", "3", "--gamma", "1", "--x0", str(x0)
    )
    assert code == 0
    assert data["converged"] is True
    np.testing.assert_allclose(data["limit_estimate"], [2.0, 2.0, 2.0], rtol=0, atol=1e-8)
    assert len(data["residuals"]) == data["iterations_used"]

    code, out, _ = run(
        capsys,
        "iterate", "--kind", "shift", "--m", "3", "--gamma", "1", "--x0", str(x0),
        "--format", "csv",
    )
    assert code == 0
    residuals = [float(line) for line in out.strip().splitlines()]
    assert residuals == data["residuals"]  # .17g round-trips every float


def test_dense_file_instance(capsys, tmp_path):
    mat = tmp_path / "shift.json"
    save_matrix(mat, materialize(make_circular_shift(3)))
    code, data, _ = run_json(
        capsys, "show", "--kind", "dense-file", "--m", "3", "--matrix-path", str(mat)
    )
    assert code == 0
    assert data["kind"] == "dense" and data["dim"] == 3


def test_solve_on_a_dense_file_certified_at_a_loose_tol(capsys):
    # an order-6 shift conjugated and written with 8 decimals: an eigenvalue of A + A^T
    # lies 1.7e-8 from its centre, more than SPECTRUM_TOL, and within the bound that
    # make_dense derives from its certificate at --dense-tol 1e-7; solve used to exit 2
    data = Path(__file__).parent / "data"
    matrix, rhs = data / "shift6_conjugated_8dp.csv", data / "shift6_conjugated_8dp_rhs.json"
    code, solution, err = run_json(
        capsys, "solve", "--kind", "dense-file", "--m", "6", "--matrix-path", str(matrix),
        "--dense-tol", "1e-7", "--tol", "1e-6", "--rhs", str(rhs),
    )
    assert code == 0, err
    A, y = np.loadtxt(matrix, delimiter=","), np.array(json.loads(rhs.read_text()))
    point, basis = np.array(solution["point"]), np.array(solution["basis"])
    assert basis.shape == (2, 12)
    np.testing.assert_allclose(point - A @ point, y, rtol=0, atol=1e-6)


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


@pytest.mark.parametrize(
    "kind, option, value",
    [
        ("shift", "--blocks", "5"),
        ("rotator", "--block-dim", "2"),
        ("rotator", "--matrix-path", "m.json"),
        ("shift", "--matrix-path", "m.json"),
        ("rotator", "--dense-tol", "1e-7"),
        ("shift", "--dense-tol", "1e-7"),
        ("dense-file", "--blocks", "5"),
        ("dense-file", "--block-dim", "2"),
    ],
)
def test_an_instance_option_of_another_kind_exits_2(capsys, kind, option, value):
    # it used to be dropped: show --kind shift --m 3 --blocks 5 printed the 3-shift
    code, out, err = run(capsys, "show", "--kind", kind, "--m", "3", option, value)
    assert code == 2 and out == ""
    assert f"{option} does not apply to --kind {kind}" in err


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--seed", "-1"), "error: seed must be an integer >= 0, got -1"),
        (("--max-m", "1"), "error: max_m must be an integer >= 2, got 1"),
        (("--max-dim", "0"), "error: max_dim must be an integer >= 1, got 0"),
    ],
    ids=["seed", "max-m", "max-dim"],
)
def test_verify_grid_errors_exit_2_naming_the_parameter(capsys, flags, message):
    code, out, err = run(capsys, "verify", *flags)
    assert (code, out, err) == (2, "", message + "\n")


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
    np.testing.assert_allclose(case["matrix"], np.eye(2) / 2.0, rtol=0, atol=1e-14)


def test_reproduce_paper_passes_at_gamma_1e200(capsys):
    # the reference matrices overflowed here, and the command exited 1
    code, data, _ = run_json(capsys, "reproduce-paper", "--gamma", "1e200")
    assert (code, data["all_pass"]) == (0, True)


def test_reproduce_paper_beyond_the_float_range_exits_2_with_one_error_line(capsys):
    # numpy's overflow warnings used to come first, and raise here under the warning filter
    code, out, err = run(capsys, "reproduce-paper", "--gamma", "1e-310")
    assert (code, out) == (2, "")
    assert err == "error: a worked-example entry at gamma = 1e-310 exceeds the float range\n"


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


PINV_SHIFT3_CSV = """\
operator,pseudo_inverse
m,3
coefficients,0.33333333333333331,0,-0.33333333333333331
# matrix
0.33333333333333331,-0.33333333333333331,0
0,0.33333333333333331,-0.33333333333333331
-0.33333333333333331,0,0.33333333333333331
"""

PINV_SHIFT3_PRETTY = """\
operator: pseudo_inverse
m: 3
coefficients: 0.33333333333333331  0  -0.33333333333333331
matrix:
   0.333333333333  -0.333333333333   0.000000000000
   0.000000000000   0.333333333333  -0.333333333333
  -0.333333333333   0.000000000000   0.333333333333
"""


@pytest.mark.parametrize("fmt, text", [("csv", PINV_SHIFT3_CSV), ("pretty", PINV_SHIFT3_PRETTY)])
def test_operator_payload_text_is_pinned(capsys, fmt, text):
    code, out, err = run(
        capsys, "pinv", "--kind", "shift", "--m", "3", "--materialize", "--format", fmt
    )
    assert (code, out, err) == (0, text, "")


REPRODUCED = [
    (kind, m, op)
    for kind, orders in (("rotator", (2, 3, 4)), ("shift", (2, 3)))
    for m in orders
    for op in ("resolvent", "resolvent_inverse", "yosida", "yosida_inverse")
]


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_record_payload_text_is_pinned(capsys, payloads, fmt):
    code, out, err = run(capsys, "reproduce-paper", "--format", fmt)
    assert (code, err) == (0, "")
    # the deviations are rounding errors of the closed forms, read from the payload
    devs = [format(case["max_abs_deviation"], ".17g") for case in payloads[0]["cases"]]
    assert all(float(dev) <= 1e-15 for dev in devs)
    tol = "9.9999999999999998e-13"
    if fmt == "csv":
        lines = ["# cases", "kind,m,operator,gamma,max_abs_deviation,tolerance,pass"]
        lines += [f"{k},{m},{op},1,{dev},{tol},true" for (k, m, op), dev in zip(REPRODUCED, devs)]
        lines.append("all_pass,true")
    else:
        lines = ["cases:"]
        lines += [
            f"  PASS  kind={k}  m={m}  operator={op}  gamma=1  max_abs_deviation={dev}"
            f"  tolerance={tol}  pass=true"
            for (k, m, op), dev in zip(REPRODUCED, devs)
        ]
        lines.append("all_pass: true")
    assert out == "\n".join(lines) + "\n"


def _defaulted_calls(tmp_path):
    """(argv, the library function it calls, the parameters it leaves to that function)."""
    vec, mat = tmp_path / "v3.json", tmp_path / "m.json"
    save_vector(vec, [1.0, -2.0, 0.5])
    save_matrix(mat, materialize(make_circular_shift(3)))
    shift3 = ("--kind", "shift", "--m", "3")
    return [
        (("show", "--kind", "rotator", "--m", "3"), "make_rotator", {"blocks"}),
        (("show", *shift3), "make_circular_shift", {"block_dim"}),
        (("pinv", "--kind", "dense-file", "--m", "3", "--matrix-path", str(mat)), "make_dense",
         {"tol"}),
        (("solve", *shift3, "--rhs", str(vec)), "set_valued_inverse", {"tol"}),
        (("iterate", *shift3, "--gamma", "1", "--x0", str(vec)), "proximal_point",
         {"max_iter", "stop_tol"}),
        (("verify",), "run_verification", {"seed", "max_m", "max_dim"}),
        (("reproduce-paper",), "reproduce_worked_examples", {"gamma"}),
    ]


def test_absent_options_leave_the_library_default(capsys, tmp_path, monkeypatch):
    named = {("make_dense", "tol"): DEFAULT_VALIDATION_TOL,
             ("set_valued_inverse", "tol"): RANGE_MEMBERSHIP_TOL}
    for argv, name, params in _defaulted_calls(tmp_path):
        signature = inspect.signature(getattr(cli, name))
        calls = []

        def recording(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs))
            raise ParameterError("recorded")

        monkeypatch.setattr(cli, name, recording)
        code, out, err = run(capsys, *argv)
        monkeypatch.undo()
        assert (code, out, err) == (2, "", "error: recorded\n"), name
        (bound,) = calls
        assert params.isdisjoint(bound.arguments), name  # not passed: the library decides
        bound.apply_defaults()
        for param in params:
            default = signature.parameters[param].default
            assert bound.arguments[param] == named.get((name, param), default), (name, param)


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


def _listed(value):
    """``value`` with every array replaced by its ``tolist()``: the data the CLI prints."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_listed(item) for item in value]
    return value


@pytest.fixture
def payloads(monkeypatch):
    """The payloads that ``cli._emit`` receives, which still prints them."""
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
        assert out == json.dumps(_listed(payloads[0]), indent=2) + "\n", name


def test_iterate_json_with_rows_longer_than_a_slice_is_byte_identical(capsys, tmp_path, payloads):
    # n = 1050 > _SLICE: every point is written as two slices
    x0 = tmp_path / "x0.json"
    save_vector(x0, np.random.default_rng(5).standard_normal(1050))
    code, out, err = run(
        capsys, "iterate", "--kind", "shift", "--m", "3", "--block-dim", "350",
        "--gamma", "1", "--x0", str(x0),
    )
    assert code == 0, err
    assert len(payloads[0]["points"][0]) == 1050 > _SLICE
    assert out == json.dumps(_listed(payloads[0]), indent=2) + "\n"


def _emitted(payload, fmt: str = "json") -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(payload, fmt)
    return out.getvalue()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e-7, 1e300]
_scalars = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
)
# strings that need escaping, are not ASCII, or hold the ", " between list items
_strings = st.one_of(
    st.text(max_size=8), st.sampled_from(["a, b", ", ", '"q"', "\\", "\n", "é", "\u2028", "\x00"])
)
_json_values = st.recursive(
    st.one_of(_scalars, _strings),
    lambda inner: st.one_of(
        st.lists(_scalars, max_size=8),
        st.lists(_strings, max_size=4),
        st.lists(inner, max_size=5),
        st.lists(st.dictionaries(_strings, inner, max_size=3), max_size=3),
        st.dictionaries(_strings, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_json_values)
@example(["a, b", ", "])
@example([1.5, "x, y", None])
def test_json_emission_equals_dumps_for_any_json_value(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("length", [1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE, 2 * _SLICE + 1])
def test_json_emission_of_lists_about_a_slice_long_equals_dumps(length):
    values = np.random.default_rng(length).standard_normal(length).tolist()
    specials = [math.nan, -0.0, 3, True, None, -math.inf]
    for i in range(0, length, 97):
        values[i] = specials[i % len(specials)]
    for payload in (values, {"row": values}, [[values], {"rows": [values, values]}]):
        assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"


def test_json_emission_writes_one_slice_at_a_time(monkeypatch):
    # 2000 x 2000 scalars, 36 MB of JSON, of which no write may hold more than one
    # slice; one shared row of zeros, whose text is the quickest to make, keeps the
    # test short (every scalar takes the same path)
    row = [0] * 2000

    class Stdout:
        def __init__(self):
            self.lengths = []

        def write(self, text):
            self.lengths.append(len(text))

    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    _emit({"matrix": [row] * 2000}, "json")
    one_slice = json.dumps({"matrix": [row[:_SLICE]]}, indent=2)
    assert max(stdout.lengths) <= len(one_slice)
    assert len(stdout.lengths) >= 2000 * 2  # each row is two slices


def _array_payloads() -> dict:
    rng = np.random.default_rng(11)
    specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e-7, 1e300])
    return {
        "vector and matrix": {"m": 3, "vector": rng.standard_normal(7), "matrix": np.eye(3)},
        "special floats": {"vector": specials, "matrix": specials.reshape(3, 3)},
        "empty basis": {"point": rng.standard_normal(4), "basis": np.empty((0, 4))},
        "no columns": {"vector": np.empty(0), "matrix": np.empty((2, 0))},
        "rows about a slice long": {
            f"n{n}": rng.standard_normal((2, n)) for n in (_SLICE - 1, _SLICE, _SLICE + 1)
        },
        "list of vectors": {
            "points": [rng.standard_normal(n) for n in (3, _SLICE + 1, 1)],
            "residuals": [0.5, 0.25],
            "limit_estimate": rng.standard_normal(3),
        },
        "records with a matrix": {
            "cases": [
                {"kind": "shift", "m": 2, "matrix": rng.standard_normal((2, 2)), "pass": True},
                {"kind": "rotator", "m": 3, "matrix": rng.standard_normal((2, 2)), "pass": False},
            ],
            "all_pass": False,
        },
    }


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("name", list(_array_payloads()))
def test_arrays_print_byte_for_byte_as_their_tolist(fmt, name):
    payload = _array_payloads()[name]
    listed = _listed(payload)
    if fmt == "json":
        expected = json.dumps(listed, indent=2) + "\n"
    else:  # the text of the same payload with plain lists
        expected = _emitted(listed, fmt)
    assert _emitted(payload, fmt) == expected


class _Discard:
    """A standard output that keeps nothing, so that only the emitter's memory is traced."""

    def write(self, text):
        return len(text)


def _traced_peak(call) -> int:
    """The peak bytes that ``call()`` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fmt, shape", [("json", (2000, 500)), ("csv", (400, 250)), ("pretty", (400, 250))]
)
def test_emitting_an_array_holds_a_row_not_the_array(monkeypatch, fmt, shape):
    # the tolist() of the whole array takes 4x its 8 MB (json) or 0.8 MB, and the
    # whole CSV document of random entries 2 MB; a row takes a few tens of KB.
    # The json array is zeros, whose text is the quickest to make (every entry
    # takes the same path); tracemalloc makes each allocation some ten times slower.
    matrix = np.zeros(shape) if fmt == "json" else np.random.default_rng(2).standard_normal(shape)
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert _traced_peak(lambda: _emit({"matrix": matrix}, fmt)) < 1e6


def test_iterate_peaks_within_half_again_its_trajectory(monkeypatch, tmp_path):
    x0 = tmp_path / "x0.json"
    save_vector(x0, np.random.default_rng(3).standard_normal(300))
    trajectory_bytes, codes = [], []
    emit = cli._emit

    def measuring_emit(payload, fmt):
        trajectory_bytes.append(sum(p.nbytes for p in payload["points"]))
        emit(payload, fmt)

    monkeypatch.setattr(cli, "_emit", measuring_emit)
    monkeypatch.setattr(sys, "stdout", _Discard())
    argv = [
        "iterate", "--kind", "shift", "--m", "3", "--block-dim", "100", "--gamma", "0.02",
        "--x0", str(x0), "--tol", "1e-14",
    ]
    peak = _traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    (held,) = trajectory_bytes
    assert held > 2e6  # about a thousand iterates of 300 entries
    # the iterates as Python floats would take 4x their bytes; each array's header
    # and the parser's first use make up most of the rest
    assert peak < 1.5 * held


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
    """True when ``value`` holds only dict, list, str, int, float, bool and float64
    arrays of one or two axes (no numpy scalar, no other array)."""
    if isinstance(value, np.ndarray):
        return value.dtype == np.float64 and value.ndim in (1, 2)
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
        if fmt == "json":  # what is printed holds no array, in the same key order
            printed = json.loads(out)
            assert _plain(printed) and printed == _listed(payloads[0]), name
            assert _key_paths(printed) == PAYLOAD_KEYS[name], name
