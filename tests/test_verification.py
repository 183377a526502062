"""The aggregated invariant battery and the reference-matrix reproduction."""

from fractions import Fraction

import numpy as np
import pytest

from displacement_kit import run_verification, reproduce_worked_examples, standard_instances
from displacement_kit.verification import conjugated_dense
from displacement_kit.worked_examples import (
    _SQRT3,
    OPERATOR_NAMES,
    ParameterError,
    reference_cases,
    rotator_closed_forms,
    shift_closed_forms,
)
from displacement_kit import make_circular_shift


def test_battery_passes_on_reduced_grid():
    reports = run_verification(seed=1, max_m=3, max_dim=6)
    assert len(reports) == 43
    failing = [r.label for r in reports if not r.passed]
    assert failing == []
    labels = {r.label for r in reports}
    assert "resolvent matches the linear-solve oracle" in labels
    assert "Moore-Penrose axioms for the displacement" in labels
    assert "inverse resolvent contracts with constant 2/(2+gamma)" in labels
    assert all(r.seed == 1 for r in reports)


@pytest.mark.parametrize("build", [run_verification, standard_instances])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"max_m": 1}, "max_m must be an integer >= 2, got 1"),
        ({"max_dim": 0}, "max_dim must be an integer >= 1, got 0"),
    ],
    ids=["seed-negative", "seed-bool", "max_m-1", "max_dim-0"],
)
def test_grid_parameters_are_checked(build, kwargs, message):
    with pytest.raises(ParameterError, match=message):
        build(**kwargs)


def test_standard_instances_cover_kinds_and_orders():
    grid = standard_instances(max_m=5, max_dim=16, seed=0)
    kinds = {R.kind for R in grid}
    assert kinds == {"rotator", "circular_shift", "dense"}
    for m in range(2, 6):
        assert any(R.order == m and R.kind == "rotator" for R in grid)
        assert any(R.order == m and R.kind == "circular_shift" for R in grid)
        assert any(R.order == m and R.kind == "dense" for R in grid)
    assert max(R.dim for R in grid) <= 16


def test_conjugated_dense_keeps_order_and_spectrum():
    rng = np.random.default_rng(5)
    base = make_circular_shift(4, 2)
    dense = conjugated_dense(base, rng)
    assert dense.kind == "dense" and dense.order == 4 and dense.dim == 8
    x = rng.standard_normal(8)
    np.testing.assert_allclose(dense.apply_power(4, x), x, rtol=0, atol=1e-12)


def test_reproduction_rows_structure():
    rows = reproduce_worked_examples(2.0)
    assert len(rows) == 20
    assert all(row["pass"] for row in rows)
    assert {row["operator"] for row in rows} == set(OPERATOR_NAMES)
    assert all(row["tolerance"] == 1e-12 for row in rows)


def test_reference_case_listing():
    cases = reference_cases(1.0)
    assert len(cases) == 20
    assert {(c["kind"], c["m"]) for c in cases} == {
        ("rotator", 2),
        ("rotator", 3),
        ("rotator", 4),
        ("shift", 2),
        ("shift", 3),
    }


def test_reference_entries_are_the_printed_formulas():
    g = 0.7
    rot2 = rotator_closed_forms(2, g)
    expected = {
        "resolvent": np.eye(2) / (1 + 2 * g),
        "resolvent_inverse": np.eye(2) * 2 / (2 + g),
        "yosida": np.eye(2) * 2 / (1 + 2 * g),
        "yosida_inverse": np.eye(2) / (2 + g),
    }
    for name, matrix in expected.items():
        np.testing.assert_allclose(rot2[name], matrix, rtol=0, atol=1e-15)

    sh3 = shift_closed_forms(3, g)
    denom = 1 + 3 * g + 3 * g * g
    assert abs(sh3["resolvent"][0, 0] - (1 + g) ** 2 / denom) < 1e-15
    assert abs(sh3["resolvent"][0, 1] - g * g / denom) < 1e-15
    assert abs(sh3["resolvent"][0, 2] - (1 + g) * g / denom) < 1e-15
    inv_denom = 3 + 3 * g + g * g
    assert abs(sh3["resolvent_inverse"][0, 0] - (2 + g) / inv_denom) < 1e-15
    assert abs(sh3["yosida_inverse"][0, 0] - (1 + g) ** 2 / (inv_denom * g)) < 1e-15


def _exact_forms(kind, m, g):
    """The tabulated expressions in g, a Fraction, with sqrt(3) the float _SQRT3:
    a rotator's matrices from (x, y) as [[x, -y], [y, x]], a shift's from the
    first column c of the circulant C[i, j] = c[(i - j) mod m]."""
    s, p = Fraction(_SQRT3), 1 + g
    if kind == "rotator":
        if m == 2:
            xy = {
                "resolvent": (1 / (1 + 2 * g), 0),
                "resolvent_inverse": (2 / (2 + g), 0),
                "yosida": (2 / (1 + 2 * g), 0),
                "yosida_inverse": (1 / (2 + g), 0),
            }
        elif m == 3:
            d_fwd, d_inv = 2 + 6 * g + 6 * g * g, 6 + 6 * g + 2 * g * g
            xy = {
                "resolvent": ((2 + 3 * g) / d_fwd, s * g / d_fwd),
                "resolvent_inverse": ((6 + 3 * g) / d_inv, -s * g / d_inv),
                "yosida": ((3 + 6 * g) / d_fwd, -s / d_fwd),
                "yosida_inverse": ((3 + 2 * g) / d_inv, s / d_inv),
            }
        else:
            d_fwd, d_inv = 1 + 2 * g + 2 * g * g, 2 + 2 * g + g * g
            xy = {
                "resolvent": (p / d_fwd, g / d_fwd),
                "resolvent_inverse": ((2 + g) / d_inv, -g / d_inv),
                "yosida": ((1 + 2 * g) / d_fwd, -1 / d_fwd),
                "yosida_inverse": (p / d_inv, 1 / d_inv),
            }
        return {name: [[x, -y], [y, x]] for name, (x, y) in xy.items()}
    if m == 2:
        d_fwd, d_inv = 1 + 2 * g, 2 + g
        columns = {
            "resolvent": (p / d_fwd, g / d_fwd),
            "resolvent_inverse": (1 / d_inv, -1 / d_inv),
            "yosida": (1 / d_fwd, -1 / d_fwd),
            "yosida_inverse": (p / (d_inv * g), 1 / (d_inv * g)),
        }
    else:
        d_fwd, d_inv = 1 + 3 * g + 3 * g * g, 3 + 3 * g + g * g
        columns = {
            "resolvent": (p * p / d_fwd, p * g / d_fwd, g * g / d_fwd),
            "resolvent_inverse": ((2 + g) / d_inv, -p / d_inv, -1 / d_inv),
            "yosida": ((1 + 2 * g) / d_fwd, -p / d_fwd, -g / d_fwd),
            "yosida_inverse": (p * p / (d_inv * g), p / (d_inv * g), 1 / (d_inv * g)),
        }
    return {
        name: [[c[(i - j) % m] for j in range(m)] for i in range(m)]
        for name, c in columns.items()
    }


@pytest.mark.parametrize("gamma", [1e-300, 1e-5, 0.5, 1.0, 2.0, 1e5, 1e154, 1e200, 1e300])
def test_reference_matrices_are_their_rational_expressions(gamma):
    # powers of gamma overflowed from ~1e154 on: NaN entries at 1e155, and at 1e200
    # a rotator m = 3 matrix of zeros that the absolute tolerance let pass
    for case in reference_cases(gamma):
        exact = _exact_forms(case["kind"], case["m"], Fraction(gamma))[case["operator"]]
        want = [entry for row in exact for entry in row]
        ulp = Fraction(np.spacing(max(abs(float(entry)) for entry in want)))
        for got, entry in zip(case["matrix"].ravel().tolist(), want):
            assert abs(Fraction(got) - entry) <= 4 * ulp, (case["kind"], case["m"], case["operator"])


@pytest.mark.parametrize("gamma", [1e154, 1e200, 1e300])
def test_reproduction_passes_at_large_gamma(gamma):
    assert all(row["pass"] for row in reproduce_worked_examples(gamma))


def test_reference_rejects_untabulated_orders():
    with pytest.raises(ParameterError):
        rotator_closed_forms(5, 1.0)
    with pytest.raises(ParameterError):
        shift_closed_forms(4, 1.0)
    with pytest.raises(ParameterError):
        rotator_closed_forms(2, -1.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, True])
def test_reference_rejects_non_finite_or_non_positive_gamma(gamma):
    # NaN and inf used to pass a `gamma <= 0` test and give all-NaN matrices
    for table in (rotator_closed_forms, shift_closed_forms):
        with pytest.raises(ParameterError, match="gamma must be a positive finite real"):
            table(2, gamma)
