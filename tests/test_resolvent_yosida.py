"""Closed-form resolvents, Yosida approximations, series form, and limits."""

import re
import time
from fractions import Fraction

import numpy as np
import pytest

from displacement_kit import (
    NumericError,
    ParameterError,
    ValidationError,
    displacement_apply,
    make_circular_shift,
    make_rotator,
    materialize,
    oracle_projector_fix,
    projector_fix,
    projector_fix_complement,
    pseudo_inverse,
    resolvent,
    resolvent_coefficients,
    resolvent_inverse,
    series_resolvent_apply,
    skew_part,
    yosida,
    yosida_inverse,
)
from displacement_kit.resolvent_yosida import SERIES_MAX_TERMS
from displacement_kit.verification import conjugated_dense, standard_instances

INSTANCES = standard_instances(max_m=6, max_dim=12, seed=3)
IDS = lambda R: f"{R.kind}-m{R.order}-n{R.dim}"
GAMMAS = (0.01, 0.5, 1.0, 2.0, 100.0)


# --- coefficients -------------------------------------------------------------


def test_coefficients_order_two_unit_gamma():
    np.testing.assert_allclose(resolvent_coefficients(2, 1.0), [2 / 3, 1 / 3], rtol=1e-15)


def test_coefficients_near_identity_for_tiny_gamma():
    c = resolvent_coefficients(3, 1e-8)
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0], rtol=0, atol=1e-7)


def test_coefficients_strictly_decreasing():
    for gamma in (0.3, 1.0, 7.5):
        c = resolvent_coefficients(4, gamma)
        assert np.all(np.diff(c) < 0)


@pytest.mark.parametrize("m", range(2, 9))
def test_coefficients_simplex_over_extreme_gamma(m):
    for gamma in np.logspace(-8, 8, 33):
        c = resolvent_coefficients(m, float(gamma))
        assert np.all(np.isfinite(c))
        assert np.all(c > 0)
        assert abs(c.sum() - 1.0) <= 1e-14


def test_coefficients_match_textbook_ratio_form():
    # oracle: the unnormalized form (1+g)^(m-1-k) g^k / ((1+g)^m - g^m) at benign gamma
    for m in (2, 3, 5):
        for g in (0.25, 1.0, 3.0):
            denom = (1 + g) ** m - g**m
            expected = [(1 + g) ** (m - 1 - k) * g**k / denom for k in range(m)]
            np.testing.assert_allclose(resolvent_coefficients(m, g), expected, rtol=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_coefficients_reject_bad_gamma(bad):
    with pytest.raises(ParameterError):
        resolvent_coefficients(3, bad)


# --- resolvent -----------------------------------------------------------------


def test_resolvent_half_turn_scales():
    out = resolvent(make_rotator(2), 1.0).apply([3.0, 0.0])
    np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=1e-14)


def test_resolvent_shift_two():
    out = resolvent(make_circular_shift(2), 1.0).apply([1.0, 0.0])
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], rtol=0, atol=1e-14)


def test_resolvent_rotator_three():
    out = resolvent(make_rotator(3), 1.0).apply([1.0, 0.0])
    np.testing.assert_allclose(out, [5 / 14, np.sqrt(3) / 14], rtol=0, atol=1e-14)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_resolvent_equation(R):
    rng = np.random.default_rng(4)
    for gamma in GAMMAS:
        for _ in range(4):
            x = rng.standard_normal(R.dim)
            jx = resolvent(R, gamma).apply(x)
            np.testing.assert_allclose(
                jx + gamma * displacement_apply(R, jx),
                x,
                rtol=0,
                atol=1e-10 * max(1.0, np.linalg.norm(x)),
            )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_firm_nonexpansiveness(R):
    rng = np.random.default_rng(8)
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(25):
            d = rng.standard_normal(R.dim)
            for image in (
                resolvent(R, gamma).apply(d),
                resolvent_inverse(R, gamma).apply(d),
            ):
                assert float(image @ image) <= float(d @ image) + 1e-10


# --- inverse resolvent ------------------------------------------------------------


def test_inverse_resolvent_half_turn():
    out = resolvent_inverse(make_rotator(2), 2.0).apply([1.0, 0.0])
    np.testing.assert_allclose(out, [0.5, 0.0], rtol=0, atol=1e-14)


def test_inverse_resolvent_shift_two_matrix():
    mat = materialize(resolvent_inverse(make_circular_shift(2), 2.0))
    np.testing.assert_allclose(mat, np.array([[1.0, -1.0], [-1.0, 1.0]]) / 4.0, rtol=0, atol=1e-14)


def test_inverse_resolvent_kills_fixed_vectors():
    R = make_circular_shift(3)
    np.testing.assert_allclose(
        resolvent_inverse(R, 1.7).apply([2.0, 2.0, 2.0]), 0.0, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resolvent_apply_rejects_non_finite_vector(bad):
    with pytest.raises(ParameterError):
        resolvent(make_circular_shift(3), 1.0).apply([bad, 0.0, 0.0])


@pytest.mark.parametrize("gamma", [5e-324, 1e-310, 1e-300])
@pytest.mark.parametrize("m", [2, 3, 8, 1024])
def test_inverse_resolvent_tiny_gamma_is_complement_projector(m, gamma):
    # as gamma -> 0 the inverse resolvent tends to the projector onto (Fix R)^perp,
    # with coefficients O(m * gamma) away from it
    R = make_circular_shift(m)
    comp = projector_fix_complement(R)
    dev = np.max(np.abs(resolvent_inverse(R, gamma).coefficients - comp.coefficients))
    assert dev <= m * gamma
    x = np.random.default_rng(m).standard_normal(m)
    np.testing.assert_allclose(
        resolvent_inverse(R, gamma).apply(x), comp.apply(x), rtol=0, atol=m * gamma + 1e-14
    )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_inverse_resolvent_identities(R):
    rng = np.random.default_rng(14)
    proj = projector_fix(R)
    for gamma in (0.5, 1.0, 3.0):
        for _ in range(4):
            x = rng.standard_normal(R.dim)
            z = resolvent_inverse(R, gamma).apply(x)
            # complement identity, to rounding
            np.testing.assert_allclose(
                z + resolvent(R, 1.0 / gamma).apply(x),
                x,
                rtol=0,
                atol=1e-14 * max(1.0, np.linalg.norm(x)),
            )
            # z solves x in z + gamma * inverse-displacement of z
            np.testing.assert_allclose(
                displacement_apply(R, (x - z) / gamma), z, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(proj.apply(z), 0.0, rtol=0, atol=1e-10)


# --- Yosida approximations -----------------------------------------------------------


def test_yosida_half_turn_matrix():
    mat = materialize(yosida(make_rotator(2), 1.0))
    np.testing.assert_allclose(mat, (2 / 3) * np.eye(2), rtol=0, atol=1e-14)


def test_yosida_kills_fixed_vectors():
    R = make_circular_shift(2, block_dim=2)
    np.testing.assert_allclose(
        yosida(R, 0.7).apply([1.0, -2.0, 1.0, -2.0]), 0.0, rtol=0, atol=1e-12
    )


def test_yosida_inverse_shift_two_matrix():
    g = 1.0
    mat = materialize(yosida_inverse(make_circular_shift(2), g))
    expected = np.array([[1.0 + g, 1.0], [1.0, 1.0 + g]]) / ((2.0 + g) * g)
    np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", range(2, 9))
def test_yosida_inverse_coefficients_closed_form(m):
    # oracle: (1+g)^(m-1-k) / ((1+g)^m - 1) evaluated directly
    for g in (0.5, 1.0, 2.0):
        denom = (1 + g) ** m - 1
        expected = [(1 + g) ** (m - 1 - k) / denom for k in range(m)]
        np.testing.assert_allclose(
            yosida_inverse(make_circular_shift(m), g).coefficients, expected, rtol=1e-13
        )
        assert abs(g * sum(expected) - 1.0) <= 1e-12


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_yosida_resolvent_consistency(R):
    rng = np.random.default_rng(6)
    for gamma in GAMMAS:
        coeff_sum = float(np.sum(yosida_inverse(R, gamma).coefficients))
        assert abs(gamma * coeff_sum - 1.0) <= 1e-12
        for _ in range(4):
            x = rng.standard_normal(R.dim)
            np.testing.assert_allclose(
                gamma * yosida(R, gamma).apply(x) + resolvent(R, gamma).apply(x),
                x,
                rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(x)),
            )
            np.testing.assert_allclose(
                gamma * yosida_inverse(R, gamma).apply(x),
                resolvent(R, 1.0 / gamma).apply(x),
                rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(x)),
            )


def _exact_complement(m, q, scale):
    """(e_0 - c) / scale for the geometric coefficients c at the exact ratio q."""
    c = [q**k * (1 - q) / (1 - q**m) for k in range(m)]
    return [((1 if k == 0 else 0) - ck) / scale for k, ck in enumerate(c)]


@pytest.mark.parametrize("m", [2, 3, 8])
def test_complement_coefficients_match_exact_fractions(m):
    # yosida and resolvent_inverse are both e_0 minus geometric coefficients; where
    # c_0 nears 1 (yosida at tiny gamma, resolvent_inverse at huge gamma) the plain
    # 1 - c_0 lost up to 5 digits
    R = make_circular_shift(m)
    for gamma in np.logspace(-12, 12, 25):
        g = Fraction(float(gamma))
        for op, exact in (
            (yosida(R, float(gamma)), _exact_complement(m, g / (1 + g), g)),
            (resolvent_inverse(R, float(gamma)), _exact_complement(m, 1 / (1 + g), 1)),
        ):
            worst = max(
                abs(float((Fraction(float(a)) - b) / b)) for a, b in zip(op.coefficients, exact)
            )
            assert worst <= 1e-13, (float(gamma), worst)


def _exact_geometric(m, q):
    return [q**k * (1 - q) / (1 - q**m) for k in range(m)]


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("gamma", [1e-300, 1e-100, 1e-13, 1e13, 1e100, 1e300])
def test_all_families_match_exact_fractions_at_extreme_gamma(m, gamma):
    # every finite positive gamma is evaluated by the formula, with no limit operator
    # in its place.  The error is normwise: where q^k underflows (yosida, m = 3,
    # gamma = 1e-300) a coefficient of ~1e-600 reads 0, relative error 1.
    R = make_circular_shift(m)
    g = Fraction(gamma)
    forward, inverse = g / (1 + g), 1 / (1 + g)
    for op, exact in (
        (resolvent(R, gamma), _exact_geometric(m, forward)),
        (resolvent_inverse(R, gamma), _exact_complement(m, inverse, 1)),
        (yosida(R, gamma), _exact_complement(m, forward, g)),
        (yosida_inverse(R, gamma), [c / g for c in _exact_geometric(m, inverse)]),
    ):
        error = max(abs(Fraction(float(a)) - b) for a, b in zip(op.coefficients, exact))
        assert float(error / max(abs(b) for b in exact)) <= 1e-15, op


def _exact_yosida(m, gamma):
    """yosida's coefficients at gamma = a/b, each correctly rounded: with s = a + b and
    D = s^m - a^m, c_0 = b (s^(m-1) - a^(m-1)) / D and c_k = -a^(k-1) b^2 s^(m-1-k) / D."""
    a, b = float(gamma).as_integer_ratio()
    s = a + b
    D = s**m - a**m
    # the division of two ints rounds correctly
    return [b * (s ** (m - 1) - a ** (m - 1)) / D] + [
        -(a ** (k - 1)) * b * b * s ** (m - 1 - k) / D for k in range(1, m)
    ]


@pytest.mark.parametrize("m", [2, 3, 5, 8, 17, 64])
def test_yosida_coefficients_keep_their_relative_precision(m):
    # c_k / gamma for k >= 1 is -(1 - q) times the resolvent's c_{k-1}: q^k / gamma
    # used to underflow first, so yosida(make_rotator(3), 1e-230) had c_2 = -0.0
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    R = make_circular_shift(m)
    for gamma in [*np.logspace(-300, 300, 61).tolist(), 1e-230, 3e-200, 7e150]:
        got = yosida(R, gamma).coefficients.tolist()
        for k, (a, b) in enumerate(zip(got, _exact_yosida(m, gamma))):
            if abs(b) >= tiny:  # where the exact value is a normal float
                assert abs(a - b) <= 4 * (k + 1) * eps * abs(b), (gamma, k, a, b)


def _exact_coefficients(family, m, gamma):
    """The family's coefficients at gamma = a/b, each correctly rounded, as in
    _exact_yosida: with s = a + b, the resolvent at gamma has the ratio a/s, and
    at 1/gamma the ratio b/s."""
    a, b = float(gamma).as_integer_ratio()
    s = a + b
    s_powers = [1]  # s^j for j < m, each made once: the test takes them 64 * m times
    for _ in range(m - 1):
        s_powers.append(s_powers[-1] * s)

    def numerators(r, t):  # r^k t s^(m-1-k) for k < m
        out = []
        for k in range(m):
            out.append(t * s_powers[m - 1 - k])
            t *= r
        return out

    if family == "resolvent":
        D = s_powers[-1] * s - a**m
        return [n / D for n in numerators(a, b)]
    D = s_powers[-1] * s - b**m
    if family == "resolvent_inverse":  # e_0 minus the resolvent at 1/gamma
        return [b * (s_powers[-1] - b ** (m - 1)) / D] + [-n / D for n in numerators(b, a)[1:]]
    if family == "yosida_inverse":  # the resolvent at 1/gamma, divided by gamma
        return [n / D for n in numerators(b, b)]
    return {  # the division of two ints rounds correctly
        "pseudo_inverse": [(m - 1 - 2 * k) / (2 * m) for k in range(m)],
        "projector_fix": [1 / m] * m,
        "projector_fix_complement": [(m - 1) / m] + [-1 / m] * (m - 1),
        "skew_part": [0.0] + [(m - 2 * k) / (2 * m) for k in range(1, m)],
    }[family]


FAMILY_BUILDERS = {
    "resolvent": resolvent,
    "resolvent_inverse": resolvent_inverse,
    "yosida_inverse": yosida_inverse,
    "pseudo_inverse": lambda R, gamma: pseudo_inverse(R),
    "projector_fix": lambda R, gamma: projector_fix(R),
    "projector_fix_complement": lambda R, gamma: projector_fix_complement(R),
    "skew_part": lambda R, gamma: skew_part(R),
}


@pytest.mark.parametrize("family", FAMILY_BUILDERS)
@pytest.mark.parametrize("m", [2, 3, 5, 8, 17, 64])
def test_coefficients_keep_their_relative_precision(m, family):
    # the contract of test_yosida_coefficients_keep_their_relative_precision, for
    # every other family; those without gamma take one value of it
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    R = make_circular_shift(m)
    gammas = [*np.logspace(-300, 300, 61).tolist(), 1e-230, 3e-200, 7e150]
    for gamma in gammas if family in ("resolvent", "resolvent_inverse", "yosida_inverse") else [1.0]:
        got = FAMILY_BUILDERS[family](R, gamma).coefficients.tolist()
        for k, (a, b) in enumerate(zip(got, _exact_coefficients(family, m, gamma))):
            if abs(b) >= tiny:  # where the exact value is a normal float
                assert abs(a - b) <= 4 * (k + 1) * eps * abs(b), (gamma, k, a, b)


# --- truncated series ------------------------------------------------------------------


def test_series_identity_operator_sums_to_input():
    x = np.array([1.0, -2.0, 0.5])
    out = series_resolvent_apply(np.eye(3), 4.2, x, 1e-12)
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-11)


def test_series_alternating_case():
    # S = -Id of order two: the series telescopes to x / (1 + 2*gamma)
    x = np.array([2.0, -1.0])
    out = series_resolvent_apply(-np.eye(2), 3.0, x, 1e-13)
    np.testing.assert_allclose(out, x / 7.0, rtol=0, atol=1e-12)


def test_series_matches_closed_form_rotator():
    R = make_rotator(4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(
            series_resolvent_apply(R, 1.0, x, 1e-12),
            resolvent(R, 1.0).apply(x),
            rtol=0, atol=1e-11,
        )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_series_matches_closed_form_everywhere(R):
    rng = np.random.default_rng(12)
    for gamma in (0.1, 1.0, 10.0):
        x = rng.standard_normal(R.dim)
        x /= np.linalg.norm(x)
        np.testing.assert_allclose(
            series_resolvent_apply(R, gamma, x, 1e-12),
            resolvent(R, gamma).apply(x),
            rtol=0, atol=1e-11,
        )


def test_series_accepts_certified_dense_matrix():
    A = materialize(make_circular_shift(3))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        series_resolvent_apply(A, 1.0, x, 1e-12),
        resolvent(make_circular_shift(3), 1.0).apply(x),
        rtol=0, atol=1e-11,
    )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_folded_series_matches_matrix_term_loop(R):
    # reference: the term-by-term sum over powers of the materialized matrix;
    # eps = 0.1 stops inside the first laps, and eps = q^(K - 1/2) stops the sum at
    # K (log eps / log q = K - 1/2): inside the first lap, at its end and up to 3m
    rng = np.random.default_rng(21)
    A = materialize(R)
    m = R.order
    for gamma in (0.01, 1.0, 100.0):
        q = gamma / (1 + gamma)
        stops = [q ** (K - 0.5) for K in (0, 1, m - 1, m, 2 * m + 1, 3 * m)]
        for eps in (1e-12, 0.1, *stops):
            x = rng.standard_normal(R.dim)
            x /= np.linalg.norm(x)
            np.testing.assert_allclose(
                series_resolvent_apply(R, gamma, x, eps),
                series_resolvent_apply(A, gamma, x, eps),
                rtol=0,
                atol=1e-13,
            )


@pytest.mark.parametrize("gamma", [1e12, 1e300, 1e-320])
def test_folded_series_is_bounded_at_extreme_gamma(gamma):
    # 1e12 would take ~2.8e13 applications of R term by term
    R = make_circular_shift(3)
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(
        series_resolvent_apply(R, gamma, x, 1e-12), resolvent(R, gamma).apply(x), rtol=0, atol=1e-11
    )


@pytest.mark.parametrize("m", [2, 3, 8, 1024])
def test_yosida_inverse_tiny_gamma(m):
    # at m = 1024 and gamma = 1e-310 each coefficient is finite but their sum is not
    R = make_circular_shift(m)
    x = np.random.default_rng(m).standard_normal(m)
    gamma = 1e-300
    assert abs(gamma * float(np.sum(yosida_inverse(R, gamma).coefficients)) - 1.0) <= 1e-12
    # gamma times the Yosida inverse is the resolvent at 1/gamma, i.e. the projector here
    np.testing.assert_allclose(
        gamma * yosida_inverse(R, gamma).apply(x), projector_fix(R).apply(x), rtol=0, atol=1e-12
    )
    for gamma in (1e-310, 5e-324):
        with pytest.raises(NumericError, match=re.escape(f"overflow at gamma = {gamma!r}")):
            yosida_inverse(R, gamma)


@pytest.mark.parametrize(
    "R",
    [make_rotator(3, 2), make_rotator(4), make_rotator(8, 2)]
    + [conjugated_dense(make_rotator(m, 2), np.random.default_rng(m)) for m in (3, 5)],
    ids=IDS,
)
def test_yosida_inverse_precision_floor_off_fix(R):
    # the coefficients are about 1/(m gamma) each while the symbol off Fix R is
    # 1/(gamma + 1 - w^j) = O(1): the sum cancels and loses about eps/gamma. A
    # rotator has no Fix R, and the solve of gamma I + M is well conditioned.
    x = np.random.default_rng(R.dim).standard_normal(R.dim)
    M = np.eye(R.dim) - materialize(R)
    for gamma in (1e-2, 1e-6, 1e-9):
        want = np.linalg.solve(gamma * np.eye(R.dim) + M, x)
        error = np.linalg.norm(yosida_inverse(R, gamma).apply(x) - want) / np.linalg.norm(want)
        assert error <= 4 * np.finfo(float).eps / gamma, (gamma, error)


def test_series_rejects_expansive_matrix():
    with pytest.raises(ValidationError, match="nonexpansive"):
        series_resolvent_apply(1.5 * np.eye(2), 1.0, [1.0, 0.0], 1e-10)


def test_series_and_oracle_refuse_an_expansive_matrix_by_one_rule():
    # one check and one message, with the exact SVD norm, for both
    for A in (1.5 * np.eye(2), np.array([[1.0, 1e-7], [0.0, 1.0]])):
        with pytest.raises(ValidationError) as series_error:
            series_resolvent_apply(A, 1.0, [1.0, 0.0], 1e-10)
        with pytest.raises(ValidationError) as oracle_error:
            oracle_projector_fix(A)
        assert str(series_error.value) == str(oracle_error.value)
        assert str(oracle_error.value).startswith(
            f"operator is not nonexpansive: spectral norm {np.linalg.norm(A, 2):.6f} exceeds"
        )
    # at the slack the matrix passes both
    A = np.diag([1.0 + 0.5e-8, 1.0])
    assert oracle_projector_fix(A).shape == (2, 2)
    assert np.isfinite(series_resolvent_apply(A, 1.0, [1.0, 0.0], 1e-10)).all()


@pytest.mark.parametrize("gamma", [1e12, 1e307])
def test_series_on_a_matrix_refuses_more_terms_than_its_budget(gamma):
    # K ~ gamma ln(1/eps): ~2.8e13 matvecs at 1e12, and not a finite float at 1e307
    start = time.perf_counter()
    with pytest.raises(NumericError, match=re.escape(f"gamma = {gamma!r}, eps = 1e-12")) as err:
        series_resolvent_apply(np.eye(2), gamma, [1.0, 0.0], 1e-12)
    assert time.perf_counter() - start < 0.1
    assert "needs K ~ " in str(err.value)
    assert f"SERIES_MAX_TERMS = {SERIES_MAX_TERMS}" in str(err.value)


def test_series_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        series_resolvent_apply(np.eye(2), -1.0, [1.0, 0.0], 1e-10)
    with pytest.raises(ParameterError):
        series_resolvent_apply(np.eye(2), 1.0, [1.0, 0.0], 0.0)


# --- asymptotic limits -------------------------------------------------------------------


def test_limit_coefficients():
    # the formula itself reaches both limits: the identity as gamma -> 0 and the
    # fixed projector (the mean of the powers) as gamma -> inf
    R = make_circular_shift(3)
    np.testing.assert_allclose(
        resolvent(R, 1e-300).coefficients, [1.0, 0.0, 0.0], rtol=0, atol=1e-16
    )
    np.testing.assert_allclose(
        resolvent(R, 1e300).coefficients, projector_fix(R).coefficients, rtol=0, atol=1e-16
    )
    np.testing.assert_allclose(
        materialize(resolvent(make_rotator(2), 1e300)), np.zeros((2, 2)), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_resolvent_monotone_approach_to_limits(R):
    rng = np.random.default_rng(19)
    x = rng.standard_normal(R.dim)
    identity_devs = [
        np.linalg.norm(resolvent(R, 10.0**-k).apply(x) - x) for k in range(1, 9)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(identity_devs, identity_devs[1:]))
    proj_x = projector_fix(R).apply(x)
    proj_devs = [
        np.linalg.norm(resolvent(R, 10.0**k).apply(x) - proj_x) for k in range(1, 9)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(proj_devs, proj_devs[1:]))
