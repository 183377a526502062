"""Resolvents and Yosida approximations of the displacement mapping and its inverse.

All closed forms are convex/affine combinations of powers of R.  Coefficients
are computed in the q = gamma/(1+gamma) parametrization: q^k stays in (0, 1)
for every gamma, and the denominator 1 - q^m is evaluated through
expm1/log1p so nothing overflows or cancels even for extreme gamma.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .displacement_calculus import PolynomialOperator
from .isometry_core import (
    FiniteOrderIsometry,
    _check_array,
    _check_int,
    _check_nonexpansive,
    _check_real,
    _finite,
    as_vector,
)


def resolvent_coefficients(m: int, gamma: float) -> np.ndarray:
    """Coefficients of the resolvent of gamma*(Id - R) over (Id, R, ..., R^{m-1}).

    c_k = q^k (1-q) / (1 - q^m) with q = gamma/(1+gamma); all coefficients are
    positive and sum to 1, so the resolvent is a convex combination of the
    powers of R.
    """
    m = _check_int(m, "order", 2)
    g = _check_real(gamma, "gamma")
    return _geometric_coefficients(m, *_forward_ratio(g))


def _forward_ratio(g: float) -> tuple:
    """(q, 1 - q, log q) for q = gamma/(1+gamma).

    1 - q = 1/(1+gamma) without cancellation; log(q) = -log1p(1/gamma) avoids
    q ~ 1 rounding.
    """
    return g / (1.0 + g), 1.0 / (1.0 + g), -math.log1p(1.0 / g)


def _inverse_ratio(g: float) -> tuple:
    """(q', 1 - q', log q') for the resolvent at 1/gamma, without forming 1/gamma.

    At 1/gamma the ratio is q' = 1/(1+gamma), with 1 - q' = gamma/(1+gamma) and
    log(q') = -log1p(gamma), so every gamma that passes the forward check works,
    down to the smallest subnormal.
    """
    return 1.0 / (1.0 + g), g / (1.0 + g), -math.log1p(g)


def _geometric_coefficients(m: int, q: float, one_minus_q: float, log_q: float) -> np.ndarray:
    """q^k (1-q) / (1 - q^m) for k < m, with 1 - q^m = -expm1(m log q)."""
    return np.power(q, np.arange(m)) * (one_minus_q / -math.expm1(m * log_q))


def _identity_minus(c: np.ndarray, q: float, log_q: float) -> np.ndarray:
    """e_0 - c for the geometric coefficients c of :func:`_geometric_coefficients`.

    c_0 = (1-q)/(1-q^m) tends to 1 as q -> 0, where 1 - c_0 would cancel, so
    above c_0 = 1/2 it is evaluated as q (1 - q^{m-1}) / (1 - q^m), both
    factors by expm1.  Below 1/2 the plain difference loses nothing.
    """
    m = c.size
    if c[0] > 0.5:
        head = q * math.expm1((m - 1) * log_q) / math.expm1(m * log_q)
    else:
        head = 1.0 - c[0]
    c = -c
    c[0] = head
    return c


def resolvent(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """The resolvent of gamma*(Id - R) as a polynomial operator."""
    return PolynomialOperator(R, resolvent_coefficients(R.order, gamma))


def resolvent_inverse(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Resolvent of gamma*(Id - R)^{-1}, namely Id minus the resolvent at 1/gamma.

    1/gamma is never formed, so every gamma the forward resolvent accepts works;
    as gamma -> 0 the operator tends to the projector onto (Fix R)^perp.
    """
    q, one_minus_q, log_q = _inverse_ratio(_check_real(gamma, "gamma"))
    c = _geometric_coefficients(R.order, q, one_minus_q, log_q)
    return PolynomialOperator(R, _identity_minus(c, q, log_q))


def yosida(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Yosida approximation of Id - R with index gamma: (Id - resolvent)/gamma.

    For k >= 1 its coefficient -c_k/gamma, with c the resolvent's, is taken as
    -(1-q) c_{k-1}, since q/gamma = 1-q: no q^k underflows before the division.
    """
    g = _check_real(gamma, "gamma")
    q, one_minus_q, log_q = _forward_ratio(g)
    c = _geometric_coefficients(R.order, q, one_minus_q, log_q)
    y = _identity_minus(c, q, log_q)
    y[0] /= g
    y[1:] = -one_minus_q * c[:-1]
    return PolynomialOperator(R, y)


def yosida_inverse(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Yosida approximation of (Id - R)^{-1}: the resolvent at 1/gamma, divided by gamma.

    Its coefficients equal (1+gamma)^{m-1-k} / ((1+gamma)^m - 1) and sum to
    1/gamma.  They are built from the resolvent at 1/gamma without forming
    1/gamma; NumericError when their sum 1/gamma overflows, i.e. for gamma
    below ~5.6e-309.

    Precision floor: off Fix R the symbol 1/(gamma + 1 - w^j) is O(1), while
    each coefficient is about 1/(m gamma), so the sum cancels and the result
    there loses about eps/gamma in relative terms (1.5e-7 at gamma = 1e-9 on
    make_rotator(4)).  On Fix R the symbol is 1/gamma and nothing cancels.
    """
    g = _check_real(gamma, "gamma")
    return PolynomialOperator(R, _yosida_inverse_coefficients(R.order, g))


def _yosida_inverse_coefficients(m: int, g: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # reported below as NumericError
        c = _geometric_coefficients(m, *_inverse_ratio(g)) / g
        total = float(np.sum(c))
    # the sum is p(1), a value of the symbol: when it overflows, so does the
    # operator on Fix R, even if each of the m coefficients is finite
    message = "Yosida inverse coefficients overflow at gamma = {!r}: they sum to 1/gamma, "
    _finite(total, message + "which exceeds the largest float", g)
    return c


#: most terms (matvecs) the series sums for a matrix S; about gamma = 3.6e4 at eps = 1e-12
SERIES_MAX_TERMS = 1_000_000


def series_resolvent_apply(S, gamma: float, x, eps: float) -> np.ndarray:
    """Resolvent of gamma*(Id - S) for any nonexpansive linear S, by truncated series.

    Sums sum_{k<=K} q^k (1-q) S^k x with q = gamma/(1+gamma) and
    K = ceil(log eps / log q), so the geometric tail bounds the truncation
    error by eps * ||x||.  S may be a FiniteOrderIsometry or a finite square
    matrix; matrices are summed term by term, K matvecs, after two checks:
    NumericError when K is not finite or exceeds SERIES_MAX_TERMS,
    ValidationError when the spectral norm exceeds 1 + NONEXPANSIVE_TOL.  For a
    FiniteOrderIsometry the sum is J - q^{K+1} R^{K+1} J, with J the resolvent,
    since the terms beyond K are q^{K+1} R^{K+1} times the whole series: on J's
    coefficients c that is c - q^{K+1} roll(c, K+1), applied once, O(m) work
    and memory for every gamma.
    """
    g = _check_real(gamma, "gamma")
    eps = _check_real(eps, "eps")
    q, one_minus_q, log_q = _forward_ratio(g)
    ratio = math.log(eps) / log_q  # K = ceil(ratio); inf only for gamma beyond ~2e305
    if isinstance(S, FiniteOrderIsometry):
        coefficients = _geometric_coefficients(S.order, q, one_minus_q, log_q)
        if math.isfinite(ratio):  # otherwise q^K < eps lies below every float: the whole series
            shift = max(0, math.ceil(ratio)) + 1
            coefficients -= math.exp(shift * log_q) * np.roll(coefficients, shift)
        return PolynomialOperator(S, coefficients).apply(x)
    A = _check_array(S, "series operator", ("n", "n"))
    if not ratio <= SERIES_MAX_TERMS:  # inf fails too
        raise NumericError(
            f"series at gamma = {g!r}, eps = {eps!r} needs K ~ {ratio:.3g} terms, "
            f"more than SERIES_MAX_TERMS = {SERIES_MAX_TERMS}"
        )
    _check_nonexpansive(A)
    v = as_vector(x, A.shape[0])

    weight = one_minus_q  # q^k * (1 - q) as the loop advances
    total = weight * v
    power = v
    for _ in range(max(0, math.ceil(ratio))):
        power = A @ power
        weight *= q
        total += weight * power
    return _finite(total, "the series at gamma = {!r} overflowed on a finite operand", g)
