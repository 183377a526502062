"""Block operands: every evaluation path maps an (n, B) block column by column in one call."""

import numpy as np
import pytest

from displacement_kit import (
    ParameterError,
    PolynomialOperator,
    compare,
    displacement_apply,
    make_circular_shift,
    make_rotator,
    materialize,
    proximal_point,
    resolvent,
    series_resolvent_apply,
    set_valued_inverse,
)
from displacement_kit.verification import standard_instances

DENSE6 = next(
    R for R in standard_instances(max_m=6, max_dim=12, seed=3) if (R.kind, R.order) == ("dense", 6)
)
PATHS = ["R.apply", "R.apply_power", "PolynomialOperator.apply", "displacement_apply"]
KINDS = (
    [make_rotator(m, 3) for m in (2, 3, 8)]
    + [make_circular_shift(m, b) for m in (2, 128, 129, 1024) for b in (1, 2)]
    + [DENSE6]
)
KIND_IDS = [f"{R.kind}{R.order}n{R.dim}" for R in KINDS]


def coefficients_for(R):
    return np.random.default_rng(R.order).standard_normal(R.order) / R.order


def entry_points(R):
    """The four evaluation paths, each as a function of its operand."""
    c = coefficients_for(R)
    return {
        "R.apply": R.apply,
        "R.apply_power": lambda x: R.apply_power(1, x),
        "PolynomialOperator.apply": PolynomialOperator(R, c).apply,
        "displacement_apply": lambda x: displacement_apply(R, x),
    }


def column_loop(func, X):
    return np.column_stack([func(x) for x in X.T]) if X.shape[1] else np.empty(X.shape)


def blocks(n, rng):
    """Widths 0, 1 and 7, a Fortran-ordered block, and blocks strided along each axis."""
    yield "B0", np.empty((n, 0))
    yield "B1", rng.standard_normal((n, 1))
    yield "B7", rng.standard_normal((n, 7))
    yield "fortran", np.asfortranarray(rng.standard_normal((n, 5)))
    yield "strided-columns", rng.standard_normal((n, 10))[:, ::3]
    yield "strided-rows", rng.standard_normal((2 * n, 4))[::2]


@pytest.mark.parametrize("R", KINDS, ids=KIND_IDS)
def test_block_equals_column_loop(R):
    rng = np.random.default_rng(R.dim)
    for name, X in blocks(R.dim, rng):
        for path, func in entry_points(R).items():
            got = func(X)
            want = column_loop(func, X)
            assert got.shape == X.shape, (name, path)
            # a rotator is one complex multiply and R.apply on a shift one roll, both
            # exact; GEMM, FFT and GEMV round the other kernels alike up to an ulp or so
            if R.kind == "rotator" or (R.kind == "circular_shift" and path == "R.apply"):
                assert np.array_equal(got, want), (name, path)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14, err_msg=f"{name} {path}")


@pytest.mark.parametrize(
    "R", [make_rotator(3, 2), make_circular_shift(3, 2), DENSE6], ids=lambda R: R.kind
)
@pytest.mark.parametrize("path", PATHS)
def test_block_shape_errors_name_the_dimension(R, path):
    func = entry_points(R)[path]
    for bad in (np.zeros((R.dim, 2, 2)), np.zeros((R.dim + 1, 3)), np.zeros((1, R.dim))):
        with pytest.raises(ParameterError, match="dimension mismatch"):
            func(bad)
    with pytest.raises(ParameterError, match="dimension mismatch: vector has length"):
        func(np.zeros(R.dim + 1))
    block = np.zeros((R.dim, 3))
    block[0, 2] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        func(block)


def _refused(n):
    return {
        "complex vector": np.ones(n) * (1 + 1j),
        "complex block": np.ones((n, 2)) * 1j,
        "string": ["1.0"] * n,
        "object": np.array([1.0] * n, dtype=object),
        "ragged": [[1.0, 2.0]] + [[1.0]] * (n - 1),
    }


@pytest.mark.parametrize(
    "R", [make_rotator(2), make_circular_shift(2), DENSE6], ids=lambda R: R.kind
)
@pytest.mark.parametrize("path", PATHS)
def test_non_real_operands_raise_parameter_error(R, path):
    func = entry_points(R)[path]
    for bad in _refused(R.dim).values():
        with pytest.raises(ParameterError, match="real numbers"):
            func(bad)
    # integer and bool entries still convert to float
    np.testing.assert_array_equal(func(np.arange(R.dim)), func(np.arange(R.dim, dtype=float)))
    np.testing.assert_array_equal(func(np.ones(R.dim, dtype=bool)), func(np.ones(R.dim)))


def test_one_vector_paths_reject_blocks():
    R = make_circular_shift(3)
    block = np.zeros((3, 2))
    with pytest.raises(ParameterError, match="1-d"):
        set_valued_inverse(R, block)
    with pytest.raises(ParameterError, match="1-d"):
        proximal_point(R, 1.0, block)
    with pytest.raises(ParameterError, match="1-d"):
        series_resolvent_apply(materialize(R), 1.0, block, 1e-12)
    with pytest.raises(ParameterError, match="real numbers"):
        set_valued_inverse(R, np.ones(3) * 1j)


# --- materialize and compare ------------------------------------------------------------


@pytest.mark.parametrize(
    "op",
    [make_rotator(5, 2), resolvent(make_circular_shift(4, 2), 0.7), DENSE6],
    ids=["isometry", "polynomial", "dense"],
)
def test_materialize_equals_column_loop(op):
    want = column_loop(op.apply, np.eye(op.dim))
    np.testing.assert_allclose(materialize(op), want, rtol=0, atol=1e-15)


def test_materialize_matrix_and_bare_callable():
    A = np.random.default_rng(2).standard_normal((3, 4))
    assert np.array_equal(materialize(A), A)
    # the oracle takes a matrix or an object with apply and dim, nothing else
    with pytest.raises(ParameterError, match="cannot interpret method as a linear operator"):
        materialize(make_rotator(3, 2).apply)


def test_compare_keeps_samples_and_seed():
    n, n_samples, seed = 5, 7, 42
    # identity against zero: each sample's deviation is its own max |entry|
    report = compare(np.eye(n), np.zeros((n, n)), n_samples=n_samples, seed=seed)
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(n) for _ in range(n_samples)] + list(np.eye(n))
    deviations = [float(np.max(np.abs(v))) for v in samples]
    assert report.samples == n_samples + n
    assert report.seed == seed
    assert report.max_abs_deviation == max(deviations)
    assert report.mean_abs_deviation == pytest.approx(sum(deviations) / len(deviations), rel=1e-15)


class _NanColumn:
    """An operator whose image of the fourth sample is NaN."""

    dim = 3

    def apply(self, X):
        out = np.array(X, dtype=float)
        out[0, 3] = np.nan
        return out


def test_compare_fails_on_nan_in_one_column():
    report = compare(_NanColumn(), np.eye(3), n_samples=4, tol=1.0)
    assert np.isnan(report.max_abs_deviation)
    assert not report.passed


# --- scaling a polynomial operator ------------------------------------------------------


OP = resolvent(make_rotator(3), 1.0)


@pytest.mark.parametrize("bad", [True, False, np.True_, "2", "x", np.nan, float("inf"), None, OP])
def test_scaling_rejects_what_is_not_a_finite_real(bad):
    with pytest.raises(ParameterError, match="finite real"):
        OP * bad
    with pytest.raises(ParameterError, match="finite real"):
        bad * OP


@pytest.mark.parametrize(
    "scalar", [0, -3, 2.5, -0.0, np.float64(-1.5), np.int64(4), np.float32(0.5)]
)
def test_scaling_accepts_finite_reals(scalar):
    for scaled in (OP * scalar, scalar * OP):
        assert isinstance(scaled, PolynomialOperator)
        np.testing.assert_array_equal(scaled.coefficients, OP.coefficients * float(scalar))
