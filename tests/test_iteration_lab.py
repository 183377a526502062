"""Proximal-point dynamics, ergodic means, and Lipschitz estimation."""

import time

import numpy as np
import pytest

from displacement_kit import (
    FiniteOrderIsometry,
    NumericError,
    ParameterError,
    PolynomialOperator,
    ergodic_mean,
    lipschitz_estimate,
    make_circular_shift,
    make_rotator,
    materialize,
    projector_fix,
    proximal_point,
    resolvent,
    resolvent_inverse,
)
from displacement_kit import displacement_calculus, isometry_core, iteration_lab
from displacement_kit.verification import conjugated_dense, standard_instances

INSTANCES = standard_instances(max_m=6, max_dim=12, seed=3)
IDS = lambda R: f"{R.kind}-m{R.order}-n{R.dim}"


# --- proximal point ------------------------------------------------------------


def test_proximal_point_contracts_geometrically():
    # the resolvent of the half turn at gamma=1 is exactly Id/3
    R = make_rotator(2)
    x0 = np.array([1.0, 1.0])
    trajectory = proximal_point(R, 1.0, x0, max_iter=50, stop_tol=1e-14)
    for k, point in enumerate(trajectory.points[:10]):
        np.testing.assert_allclose(point, x0 / 3.0**k, rtol=0, atol=1e-12)
    assert trajectory.converged
    np.testing.assert_allclose(trajectory.limit_estimate, [0.0, 0.0], rtol=0, atol=1e-12)


def test_proximal_point_shift_converges_to_average():
    trajectory = proximal_point(make_circular_shift(3), 1.0, [1.0, 2.0, 3.0])
    assert trajectory.converged
    np.testing.assert_allclose(trajectory.limit_estimate, [2.0, 2.0, 2.0], rtol=0, atol=1e-8)


def test_proximal_point_fixed_start_stops_immediately():
    trajectory = proximal_point(make_circular_shift(3), 2.0, [4.0, 4.0, 4.0])
    assert trajectory.converged
    assert trajectory.iterations_used == 1
    np.testing.assert_allclose(trajectory.points[0], trajectory.points[1], rtol=0, atol=1e-13)


def test_proximal_point_respects_max_iter():
    trajectory = proximal_point(make_circular_shift(3), 1.0, [1.0, 2.0, 3.0], max_iter=3, stop_tol=0.0)
    assert not trajectory.converged
    assert trajectory.iterations_used == 3
    assert len(trajectory.points) == 4
    assert len(trajectory.residuals) == 3


def test_proximal_point_rejects_bad_parameters():
    R = make_rotator(3)
    with pytest.raises(ParameterError):
        proximal_point(R, 1.0, [1.0, 0.0], max_iter=0)
    with pytest.raises(ParameterError):
        proximal_point(R, -1.0, [1.0, 0.0])


def _reference_trajectory(R, gamma, x0, max_iter, stop_tol):
    # the loop proximal_point stands for: J.apply and np.linalg.norm on every step
    J = resolvent(R, gamma)
    points, residuals = [np.asarray(x0, dtype=float)], []
    for _ in range(max_iter):
        points.append(J.apply(points[-1]))
        residuals.append(float(np.linalg.norm(points[-1] - points[-2])))
        if residuals[-1] <= stop_tol:
            return points, residuals, True
    return points, residuals, False


#: (R, gamma, x0, max_iter, stop_tol): each kind, both sides of the shift's
#: circulant/FFT switch, a start in Fix R and an exhausted max_iter
PROXIMAL_CASES = {
    "rotator": (make_rotator(5, 3), 0.3, np.arange(6.0), 2000, 1e-14),
    "circulant": (make_circular_shift(8, 2), 0.3, np.arange(16.0), 2000, 1e-14),
    "fft": (make_circular_shift(200), 20.0, np.sin(np.arange(200.0)), 2000, 1e-14),
    "dense": (
        conjugated_dense(make_circular_shift(5, 2), np.random.default_rng(4)),
        0.3, np.arange(10.0), 2000, 1e-14,
    ),
    "fixed-start": (make_circular_shift(4, 2), 1.0, np.tile([4.0, -1.5], 4), 10, 0.0),
    "max-iter": (make_circular_shift(3), 1.0, np.array([1.0, 2.0, 3.0]), 7, 0.0),
}


@pytest.mark.parametrize("case", PROXIMAL_CASES)
def test_proximal_point_is_the_reference_loop_bit_for_bit(case):
    R, gamma, x0, max_iter, stop_tol = PROXIMAL_CASES[case]
    points, residuals, converged = _reference_trajectory(R, gamma, x0, max_iter, stop_tol)
    t = proximal_point(R, gamma, x0, max_iter=max_iter, stop_tol=stop_tol)
    assert len(t.points) == len(points)
    for got, want in zip(t.points, points):
        np.testing.assert_array_equal(got, want)
    assert t.residuals == residuals
    assert (t.converged, t.iterations_used) == (converged, len(residuals))
    np.testing.assert_array_equal(t.limit_estimate, points[-1])
    if case == "fixed-start":
        assert residuals == [0.0] and converged
    if case == "max-iter":
        assert not converged and len(residuals) == max_iter
    else:
        assert converged


def test_proximal_point_prepares_the_kernel_once(monkeypatch):
    prepared = []
    original = FiniteOrderIsometry._polynomial_kernel

    def counted(self, c):
        prepared.append(self)
        return original(self, c)

    monkeypatch.setattr(FiniteOrderIsometry, "_polynomial_kernel", counted)
    for case, (R, gamma, x0, _, _) in PROXIMAL_CASES.items():
        prepared.clear()
        t = proximal_point(R, gamma, x0, max_iter=25, stop_tol=0.0)
        assert t.iterations_used == (1 if case == "fixed-start" else 25), case
        assert prepared == [R], case
    # an operator prepares its kernel on its first apply, and its algebra prepares none
    # on R: compose prepares one, on the order-m shift that convolves the coefficients
    R, gamma, x0, _, _ = PROXIMAL_CASES["dense"]
    prepared.clear()
    J = resolvent(R, gamma)
    assert (J @ J + 2.0 * J - (-J)).operator_norm() > 0.0
    assert [S.same_as(make_circular_shift(R.order)) for S in prepared] == [True]
    prepared.clear()
    for _ in range(3):
        J.apply(x0)
    assert prepared == [R]


def test_proximal_point_refuses_an_iterate_that_overflowed():
    # the FFT kernel sums the blocks, so entries near the float maximum overflow
    # in the first step, which raises at once
    R = make_circular_shift(200)
    for max_iter in (1, 2):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="overflow"):
                proximal_point(R, 1.0, np.full(200, 1e307), max_iter=max_iter)


def test_proximal_point_refuses_an_overflowed_iterate_by_its_step():
    # the kernel returns the overflowed iterate as it is, and the step norm refuses it,
    # naming the step; the loop keeps numpy's overflow warnings to itself
    with pytest.raises(NumericError, match="step 1"):
        proximal_point(make_circular_shift(200), 1.0, np.full(200, 1e307), max_iter=2)


@pytest.mark.parametrize("case", ["rotator", "circulant", "fft"])
def test_a_normal_proximal_step_makes_no_finiteness_check(case, monkeypatch):
    # the step norm's bound test is the one refusal of a normal step: no _finite call
    calls = []

    def counted(value, message, *args):
        calls.append(message)
        return value

    for module in (isometry_core, displacement_calculus, iteration_lab):
        monkeypatch.setattr(module, "_finite", counted)
    R, gamma, x0, _, _ = PROXIMAL_CASES[case]
    assert proximal_point(R, gamma, x0, max_iter=25, stop_tol=0.0).iterations_used == 25
    assert calls == []


def test_proximal_point_refuses_a_step_whose_norm_overflows():
    # the half turn at a huge gamma has J = 0, so the first step is -x0: finite,
    # but its norm sqrt(2) * 1.7e308 exceeds the largest float
    with pytest.raises(NumericError, match="step 1 is not a finite float"):
        proximal_point(make_rotator(2), 1e300, [1.7e308, 1.7e308], max_iter=3)


@pytest.mark.parametrize("case", ["rotator", "circulant", "fft", "dense"])
def test_proximal_point_residuals_scale_with_x0(case):
    # at 2^k the squares in a step norm overflow or underflow for |k| beyond about
    # 500; the residuals are still finite, positive and 2^k times those at k = 0
    R, gamma, x0, _, _ = PROXIMAL_CASES[case]
    unit = proximal_point(R, gamma, x0, max_iter=50, stop_tol=1e-12)
    for k in range(-900, 901, 25):
        t = proximal_point(R, gamma, np.ldexp(x0, k), max_iter=50, stop_tol=np.ldexp(1e-12, k))
        assert all(0.0 < r < np.inf for r in t.residuals), k
        assert t.residuals == [float(np.ldexp(r, k)) for r in unit.residuals], k


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_fejer_monotonicity_and_limit(R):
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal(R.dim)
    target = projector_fix(R).apply(x0)
    trajectory = proximal_point(R, 1.0, x0, max_iter=10_000, stop_tol=1e-13)
    assert len(trajectory.residuals) == len(trajectory.points) - 1
    if trajectory.converged:
        assert trajectory.residuals[-1] <= 1e-13
    distances = [np.linalg.norm(p - target) for p in trajectory.points]
    for before, after in zip(distances, distances[1:]):
        assert after <= before + 1e-12
    np.testing.assert_allclose(trajectory.limit_estimate, target, rtol=0, atol=1e-8)


# --- ergodic mean -----------------------------------------------------------------


def test_ergodic_mean_at_order_equals_projection():
    R = make_circular_shift(5)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(5)
    np.testing.assert_allclose(
        ergodic_mean(R, x0, 5), projector_fix(R).apply(x0), rtol=0, atol=1e-12
    )


def test_ergodic_mean_two_steps():
    np.testing.assert_allclose(
        ergodic_mean(make_circular_shift(2), [1.0, 0.0], 2), [0.5, 0.5], rtol=0, atol=1e-15
    )


def test_ergodic_mean_fixed_vector_any_length():
    R = make_circular_shift(3)
    for n in (1, 2, 7, 30):
        np.testing.assert_allclose(
            ergodic_mean(R, [2.0, 2.0, 2.0], n), [2.0, 2.0, 2.0], rtol=0, atol=1e-14
        )


def test_ergodic_mean_decays_like_m_over_n():
    R = make_circular_shift(4)
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal(4)
    target = projector_fix(R).apply(x0)
    for n in (10, 50, 250):
        deviation = np.linalg.norm(ergodic_mean(R, x0, n) - target)
        assert deviation <= 3.0 * R.order / n * np.linalg.norm(x0)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_ergodic_mean_at_64m(R):
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal(R.dim)
    np.testing.assert_allclose(
        ergodic_mean(R, x0, 64 * R.order), projector_fix(R).apply(x0), rtol=0, atol=1e-10
    )


@pytest.mark.parametrize(
    "R",
    [make_rotator(3, 2), make_rotator(64), make_circular_shift(4, 2), make_circular_shift(129)]
    + [R for R in INSTANCES if R.kind == "dense"],
    ids=IDS,
)
def test_ergodic_mean_matches_the_loop(R):
    # the definition, one R.apply per step: the mean of the first n iterates, n <= 3m + 1
    x0 = np.random.default_rng(R.dim).standard_normal(R.dim)
    tol = 1e-13 * np.linalg.norm(x0)
    total = power = x0
    for n in range(1, 3 * R.order + 2):
        if n > 1:
            power = R.apply(power)
            total = total + power
        np.testing.assert_allclose(ergodic_mean(R, x0, n), total / n, atol=tol, rtol=0)


def test_ergodic_mean_at_huge_n_is_the_projection():
    R = make_circular_shift(5, 2)  # 5 divides 10**15
    x0 = np.random.default_rng(4).standard_normal(R.dim)
    start = time.perf_counter()
    mean = ergodic_mean(R, x0, 10**15)
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(mean, projector_fix(R).apply(x0), atol=1e-12, rtol=0)
    assert elapsed < 0.01


def test_ergodic_mean_rejects_bad_n():
    with pytest.raises(ParameterError):
        ergodic_mean(make_rotator(3), [1.0, 0.0], 0)


# --- Lipschitz estimation ------------------------------------------------------------


def test_lipschitz_identity():
    assert abs(lipschitz_estimate(PolynomialOperator.identity(make_rotator(4, 2))) - 1.0) <= 1e-10


def test_lipschitz_inverse_resolvent_sharp_for_half_turn():
    gamma = 2.0
    L = lipschitz_estimate(resolvent_inverse(make_rotator(2), gamma))
    assert abs(L - 2.0 / (2.0 + gamma)) <= 1e-8


def test_lipschitz_resolvent_not_contractive_for_shift():
    L = lipschitz_estimate(resolvent(make_circular_shift(4), 1.0))
    assert L >= 1.0 - 1e-12


def test_lipschitz_rejects_non_polynomial_operator():
    for operator in (lambda x: x, np.eye(2), make_rotator(4)):
        with pytest.raises(ParameterError, match="expected a PolynomialOperator"):
            lipschitz_estimate(operator)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_lipschitz_of_polynomial_is_its_symbol_norm(R):
    op = resolvent_inverse(R, 0.7)
    assert lipschitz_estimate(op) == op.operator_norm()
    # the spectral norm of the materialized matrix reaches the same constant
    assert abs(float(np.linalg.norm(materialize(op), 2)) - op.operator_norm()) <= 1e-12


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_lipschitz_bound_over_gamma_grid(R):
    for gamma in (0.1, 1.0, 10.0):
        L = lipschitz_estimate(resolvent_inverse(R, gamma))
        assert L <= 2.0 / (2.0 + gamma) + 1e-8


def test_trajectory_equality_is_identity_and_hashable():
    R = make_circular_shift(3)
    first, second = (proximal_point(R, 1.0, [1.0, 2.0, 3.0]) for _ in range(2))
    assert first == first and first != second
    assert len({first, second, first}) == 2
