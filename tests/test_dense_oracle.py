"""Materialization and the independent dense-linear-algebra oracle."""

import tracemalloc

import numpy as np
import pytest

from displacement_kit import dense_oracle
from displacement_kit import (
    ComparisonReport,
    NumericError,
    ParameterError,
    ValidationError,
    compare,
    make_circular_shift,
    make_rotator,
    materialize,
    oracle_pinv,
    oracle_projector_fix,
    oracle_resolvent,
    projector_fix,
    pseudo_inverse,
    resolvent,
)
from displacement_kit.verification import standard_instances
from displacement_kit.worked_examples import rotator_closed_forms

INSTANCES = standard_instances(max_m=6, max_dim=12, seed=3)
IDS = lambda R: f"{R.kind}-m{R.order}-n{R.dim}"


# --- materialize ---------------------------------------------------------------


def test_materialize_quarter_rotation():
    np.testing.assert_allclose(
        materialize(make_rotator(4)), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15
    )


def test_materialize_shift_permutation():
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(materialize(make_circular_shift(3)), expected)


def test_materialize_projector_shift_two():
    np.testing.assert_allclose(
        materialize(projector_fix(make_circular_shift(2))), np.full((2, 2), 0.5)
    )


def test_materialize_requires_dim_for_callable():
    with pytest.raises(ParameterError):
        materialize(lambda x: x)


# --- oracle resolvent -------------------------------------------------------------


def test_oracle_resolvent_identity_input():
    np.testing.assert_allclose(oracle_resolvent(np.eye(3), 5.0), np.eye(3), atol=1e-14)


def test_oracle_resolvent_shift_two():
    # oracle of the oracle: invert [[2, -1], [-1, 2]] directly
    expected = np.linalg.inv(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    got = oracle_resolvent(materialize(make_circular_shift(2)), 1.0)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    np.testing.assert_allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)


def test_oracle_resolvent_matches_tabulated_rotator():
    got = oracle_resolvent(materialize(make_rotator(3)), 1.0)
    np.testing.assert_allclose(got, rotator_closed_forms(3, 1.0)["resolvent"], atol=1e-12)


def test_oracle_resolvent_rejects_singular_system():
    # (1+gamma) I - gamma A is exactly zero for A = 2I at gamma = 1
    with pytest.raises(NumericError):
        oracle_resolvent(2.0 * np.eye(2), 1.0)


def test_oracle_resolvent_rejects_bad_gamma():
    with pytest.raises(ParameterError):
        oracle_resolvent(np.eye(2), 0.0)


@pytest.mark.parametrize("gamma", [np.inf, np.nan])
def test_oracle_resolvent_rejects_non_finite_gamma(gamma):
    # at gamma = inf the solve gives NaN, whose residual passed a `>` test
    with pytest.raises(ParameterError, match="gamma must be a positive finite real"):
        oracle_resolvent(materialize(make_circular_shift(3)), gamma)


# --- oracle pseudoinverse ------------------------------------------------------------


def test_oracle_pinv_zero_matrix():
    np.testing.assert_allclose(oracle_pinv(np.zeros((3, 3))), np.zeros((3, 3)))


def test_oracle_pinv_scalar_matrix():
    np.testing.assert_allclose(oracle_pinv(2.0 * np.eye(4)), 0.5 * np.eye(4), atol=1e-14)


def test_oracle_pinv_cross_validates_closed_form():
    R = make_circular_shift(3)
    displaced = np.eye(3) - materialize(R)
    np.testing.assert_allclose(
        oracle_pinv(displaced), materialize(pseudo_inverse(R)), atol=1e-10
    )


def test_oracle_pinv_satisfies_axioms_on_random_low_rank():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
    p = oracle_pinv(a)
    np.testing.assert_allclose(a @ p @ a, a, atol=1e-9)
    np.testing.assert_allclose(p @ a @ p, p, atol=1e-9)
    np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-9)
    np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-9)


# --- oracle fixed-space projector ------------------------------------------------------


def test_oracle_projector_identity():
    np.testing.assert_allclose(oracle_projector_fix(np.eye(3)), np.eye(3), atol=1e-12)


def test_oracle_projector_negated_identity():
    np.testing.assert_allclose(oracle_projector_fix(-np.eye(3)), np.zeros((3, 3)), atol=1e-12)


def test_oracle_projector_shift_three():
    np.testing.assert_allclose(
        oracle_projector_fix(materialize(make_circular_shift(3))),
        np.full((3, 3), 1 / 3),
        atol=1e-12,
    )


def test_oracle_projector_rejects_expansive_input():
    with pytest.raises(ValidationError, match="nonexpansive"):
        oracle_projector_fix(2.0 * np.eye(2))


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_oracle_projector_symmetric_idempotent_with_cesaro_check(R):
    mat = materialize(R)
    proj = oracle_projector_fix(mat)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-9)
    np.testing.assert_allclose(proj.T, proj, atol=1e-9)
    # secondary check: Cesaro average of the first 64*m powers
    total = np.zeros_like(mat)
    acc = np.eye(R.dim)
    for _ in range(64 * R.order):
        total += acc
        acc = mat @ acc
    np.testing.assert_allclose(total / (64 * R.order), proj, atol=1e-10)


# --- closed form vs oracle across the grid ----------------------------------------------


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_closed_forms_match_oracle(R):
    mat = materialize(R)
    for gamma in (0.01, 1.0, 100.0):
        np.testing.assert_allclose(
            materialize(resolvent(R, gamma)), oracle_resolvent(mat, gamma), atol=1e-10
        )
    np.testing.assert_allclose(
        materialize(pseudo_inverse(R)), oracle_pinv(np.eye(R.dim) - mat), atol=1e-9
    )
    np.testing.assert_allclose(
        materialize(projector_fix(R)), oracle_projector_fix(mat), atol=1e-9
    )


def test_oracle_resolvent_limits():
    for R in (make_rotator(4), make_circular_shift(3, 2)):
        mat = materialize(R)
        np.testing.assert_allclose(oracle_resolvent(mat, 1e-6), np.eye(R.dim), atol=1e-4)
        np.testing.assert_allclose(
            oracle_resolvent(mat, 1e6), oracle_projector_fix(mat), atol=1e-4
        )


# --- compare -----------------------------------------------------------------------------


def test_compare_operator_with_itself():
    R = make_circular_shift(3)
    report = compare(R, R, tol=1e-12, seed=5)
    assert report.passed
    assert report.max_abs_deviation == 0.0
    assert report.seed == 5
    assert report.samples == 32 + 3  # Gaussian samples plus basis vectors


def test_compare_resolvent_with_oracle():
    R = make_circular_shift(3)
    closed = resolvent(R, 1.0)
    report = compare(closed, oracle_resolvent(materialize(R), 1.0), tol=1e-10, seed=0)
    assert report.passed


def test_compare_projector_with_oracle():
    R = make_rotator(4)
    report = compare(
        projector_fix(R), oracle_projector_fix(materialize(R)), tol=1e-10, seed=1
    )
    assert report.passed


def test_compare_detects_mismatch():
    R = make_circular_shift(3)
    report = compare(R, projector_fix(R), tol=1e-10, seed=0, label="shift vs projector")
    assert not report.passed
    assert report.max_abs_deviation > 0.1
    assert report.label == "shift vs projector"


class _Recorder:
    """An identity operator that keeps a copy of every block it is applied to."""

    dim = 5

    def __init__(self):
        self.blocks = []

    def apply(self, X):
        self.blocks.append(X.copy())
        return X


def test_compare_applies_the_sample_block_in_column_chunks(monkeypatch):
    # width 3 over 4 Gaussian columns and 5 basis columns: one chunk holds both kinds
    monkeypatch.setattr(dense_oracle, "_CHUNK_ENTRIES", 3 * _Recorder.dim + 2)
    recorder = _Recorder()
    report = compare(recorder, np.eye(5), n_samples=4, seed=11)
    assert report.max_abs_deviation == 0.0 and report.samples == 9
    assert [b.shape for b in recorder.blocks] == [(5, 3), (5, 3), (5, 3)]
    draw = np.random.default_rng(11).standard_normal((4, 5)).T
    np.testing.assert_array_equal(np.hstack(recorder.blocks), np.hstack((draw, np.eye(5))))


def test_compare_memory_does_not_grow_with_n_squared():
    # n = 1024: the whole (n, 32 + n) sample block and its images would hold 33.8 MiB
    op = resolvent(make_rotator(8, 512), 1.0)
    matrix = materialize(op)
    tracemalloc.start()
    try:
        report = compare(op, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.samples == 32 + 1024
    assert peak <= 12 * 2**20


def test_compare_rejects_dimension_mismatch():
    with pytest.raises(ParameterError):
        compare(make_rotator(4), make_circular_shift(3))


def test_compare_rejects_zero_samples():
    with pytest.raises(ParameterError):
        compare(make_rotator(4), make_rotator(4), n_samples=0)


@pytest.mark.parametrize("n_samples", [True, 2.5, "32"])
def test_compare_rejects_non_integer_samples(n_samples):
    with pytest.raises(ParameterError, match="n_samples must be an integer"):
        compare(make_rotator(4), make_rotator(4), n_samples=n_samples)


def test_report_round_trip_and_pass_semantics():
    report = ComparisonReport.from_deviations("demo", [1e-12, 3e-11], 1e-10, 9)
    data = report.to_dict()
    assert data["pass"] is True
    assert data["max_abs_deviation"] == 3e-11
    assert data["samples"] == 2
    assert data["seed"] == 9
    failing = ComparisonReport.from_deviations("demo", [1e-9], 1e-10, 9)
    assert not failing.passed


@pytest.mark.parametrize(
    "deviations",
    [[np.nan, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, np.nan]],
    ids=["first", "middle", "last"],
)
def test_report_fails_on_nan_anywhere(deviations):
    # Python's max keeps its first argument when compared with NaN, so a NaN
    # after the first sample used to vanish from the worst value
    report = ComparisonReport.from_deviations("demo", deviations, 1e-10, 0)
    assert np.isnan(report.max_abs_deviation)
    assert not report.passed
