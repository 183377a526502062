"""The aggregated invariant battery and the reference-matrix reproduction."""

import numpy as np
import pytest

from displacement_kit import run_verification, reproduce_worked_examples, standard_instances
from displacement_kit.verification import conjugated_dense
from displacement_kit.worked_examples import (
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
    np.testing.assert_allclose(dense.apply_power(4, x), x, atol=1e-12)


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
    np.testing.assert_allclose(rot2["resolvent"], np.eye(2) / (1 + 2 * g))
    np.testing.assert_allclose(rot2["resolvent_inverse"], np.eye(2) * 2 / (2 + g))
    np.testing.assert_allclose(rot2["yosida"], np.eye(2) * 2 / (1 + 2 * g))
    np.testing.assert_allclose(rot2["yosida_inverse"], np.eye(2) / (2 + g))

    sh3 = shift_closed_forms(3, g)
    denom = 1 + 3 * g + 3 * g * g
    assert abs(sh3["resolvent"][0, 0] - (1 + g) ** 2 / denom) < 1e-15
    assert abs(sh3["resolvent"][0, 1] - g * g / denom) < 1e-15
    assert abs(sh3["resolvent"][0, 2] - (1 + g) * g / denom) < 1e-15
    inv_denom = 3 + 3 * g + g * g
    assert abs(sh3["resolvent_inverse"][0, 0] - (2 + g) / inv_denom) < 1e-15
    assert abs(sh3["yosida_inverse"][0, 0] - (1 + g) ** 2 / (inv_denom * g)) < 1e-15


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
