"""Resolvents and Yosida approximations of the displacement mapping and its inverse.

All closed forms are convex/affine combinations of powers of R.  Coefficients
are computed in the q = gamma/(1+gamma) parametrization: q^k stays in (0, 1)
for every gamma, and the denominator 1 - q^m is evaluated through
expm1/log1p so nothing overflows or cancels even for extreme gamma.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError, ValidationError
from .dense_oracle import NONEXPANSIVE_TOL
from .displacement_calculus import PolynomialOperator, projector_fix
from .isometry_core import FiniteOrderIsometry, _check_int, _check_real, as_vector


def resolvent_coefficients(m: int, gamma: float) -> np.ndarray:
    """Coefficients of the resolvent of gamma*(Id - R) over (Id, R, ..., R^{m-1}).

    c_k = q^k (1-q) / (1 - q^m) with q = gamma/(1+gamma); all coefficients are
    positive and sum to 1, so the resolvent is a convex combination of the
    powers of R.
    """
    m = _check_int(m, "order", 2)
    g = _check_real(gamma, "gamma")
    # 1 - q = 1/(1+gamma) without cancellation; log(q) = -log1p(1/gamma) avoids
    # q ~ 1 rounding
    return _geometric_coefficients(m, g / (1.0 + g), 1.0 / (1.0 + g), -math.log1p(1.0 / g))


def _inverse_resolvent_coefficients(m: int, g: float) -> np.ndarray:
    """Resolvent coefficients at 1/gamma, built without forming 1/gamma.

    At 1/gamma the ratio is q' = 1/(1+gamma), with 1 - q' = gamma/(1+gamma) and
    log(q') = -log1p(gamma), so every gamma that passes the forward check works,
    down to the smallest subnormal.
    """
    return _geometric_coefficients(m, 1.0 / (1.0 + g), g / (1.0 + g), -math.log1p(g))


def _geometric_coefficients(m: int, q: float, one_minus_q: float, log_q: float) -> np.ndarray:
    """q^k (1-q) / (1 - q^m) for k < m, with 1 - q^m = -expm1(m log q)."""
    return np.power(q, np.arange(m)) * (one_minus_q / -math.expm1(m * log_q))


def resolvent(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """The resolvent of gamma*(Id - R) as a polynomial operator."""
    return PolynomialOperator(R, resolvent_coefficients(R.order, gamma))


def resolvent_apply(R: FiniteOrderIsometry, gamma: float, x) -> np.ndarray:
    """Apply the resolvent of gamma*(Id - R) to x."""
    return resolvent(R, gamma).apply(x)


def resolvent_inverse(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Resolvent of gamma*(Id - R)^{-1}, namely Id minus the resolvent at 1/gamma.

    1/gamma is never formed, so every gamma the forward resolvent accepts works;
    as gamma -> 0 the operator tends to the projector onto (Fix R)^perp.
    """
    g = _check_real(gamma, "gamma")
    c = -_inverse_resolvent_coefficients(R.order, g)
    c[0] += 1.0
    return PolynomialOperator(R, c)


def resolvent_inverse_apply(R: FiniteOrderIsometry, gamma: float, x) -> np.ndarray:
    """Apply the resolvent of gamma*(Id - R)^{-1}: x minus the resolvent at 1/gamma.

    Computed as x - J x with J the resolvent at 1/gamma, its coefficients built
    from q' = 1/(1+gamma) without forming 1/gamma, so the identity
    resolvent_inverse_apply + resolvent_apply(.., 1/gamma, ..) = Id holds to
    rounding.
    """
    g = _check_real(gamma, "gamma")
    v = as_vector(x, R.dim)
    return v - PolynomialOperator(R, _inverse_resolvent_coefficients(R.order, g)).apply(v)


def yosida(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Yosida approximation of Id - R with index gamma: (Id - resolvent)/gamma."""
    g = _check_real(gamma, "gamma")
    c = -resolvent_coefficients(R.order, g)
    c[0] += 1.0
    return PolynomialOperator(R, c / g)


def yosida_apply(R: FiniteOrderIsometry, gamma: float, x) -> np.ndarray:
    """Apply the Yosida approximation of Id - R: (x - resolvent x)/gamma."""
    g = _check_real(gamma, "gamma")
    v = as_vector(x, R.dim)
    return (v - resolvent(R, g).apply(v)) / g


def yosida_inverse(R: FiniteOrderIsometry, gamma: float) -> PolynomialOperator:
    """Yosida approximation of (Id - R)^{-1}: the resolvent at 1/gamma, divided by gamma.

    Its coefficients equal (1+gamma)^{m-1-k} / ((1+gamma)^m - 1) and sum to
    1/gamma.  They are built from the resolvent at 1/gamma without forming
    1/gamma; NumericError when their sum 1/gamma overflows, i.e. for gamma
    below ~5.6e-309.
    """
    g = _check_real(gamma, "gamma")
    return PolynomialOperator(R, _yosida_inverse_coefficients(R.order, g))


def yosida_inverse_apply(R: FiniteOrderIsometry, gamma: float, x) -> np.ndarray:
    """Apply the Yosida approximation of (Id - R)^{-1} to x (see :func:`yosida_inverse`)."""
    g = _check_real(gamma, "gamma")
    return PolynomialOperator(R, _yosida_inverse_coefficients(R.order, g)).apply(x)


def _yosida_inverse_coefficients(m: int, g: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # reported below as NumericError
        c = _inverse_resolvent_coefficients(m, g) / g
        total = float(np.sum(c))
    # the sum is p(1), a value of the symbol: when it overflows, so does the
    # operator on Fix R, even if each of the m coefficients is finite
    if not math.isfinite(total):
        raise NumericError(
            f"Yosida inverse coefficients overflow at gamma = {g!r}: they sum to "
            f"1/gamma, which exceeds the largest float"
        )
    return c


#: most terms (matvecs) the series sums for a matrix S; about gamma = 3.6e4 at eps = 1e-12
SERIES_MAX_TERMS = 1_000_000


def series_resolvent_apply(S, gamma: float, x, eps: float) -> np.ndarray:
    """Resolvent of gamma*(Id - S) for any nonexpansive linear S, by truncated series.

    Sums sum_{k<=K} q^k (1-q) S^k x with q = gamma/(1+gamma) and
    K = ceil(log eps / log q), so the geometric tail bounds the truncation
    error by eps * ||x||.  S may be a FiniteOrderIsometry or a square matrix;
    matrices are summed term by term, K matvecs, after two checks: NumericError
    when K is not finite or exceeds SERIES_MAX_TERMS, ValidationError when the
    spectral norm exceeds 1 + NONEXPANSIVE_TOL.  For a FiniteOrderIsometry the
    terms are folded by R^k = R^{k mod m} into m coefficients and applied once,
    O(m) work and memory for every gamma.
    """
    g = _check_real(gamma, "gamma")
    eps = _check_real(eps, "eps")
    log_q = -math.log1p(1.0 / g)
    ratio = math.log(eps) / log_q  # K = ceil(ratio); inf only for gamma beyond ~2e305
    if isinstance(S, FiniteOrderIsometry):
        coefficients = resolvent_coefficients(S.order, g)
        if math.isfinite(ratio):  # otherwise q^K < eps lies below every float: the whole series
            coefficients *= _series_tail(S.order, log_q, max(0, math.ceil(ratio)))
        return S.apply_polynomial(coefficients, x)
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError(f"series operator must be square, got shape {A.shape}")
    if not ratio <= SERIES_MAX_TERMS:  # inf fails too
        raise NumericError(
            f"series at gamma = {g!r}, eps = {eps!r} needs K ~ {ratio:.3g} terms, "
            f"more than SERIES_MAX_TERMS = {SERIES_MAX_TERMS}"
        )
    norm_estimate = float(np.linalg.norm(A, 2))
    if norm_estimate > 1.0 + NONEXPANSIVE_TOL:
        raise ValidationError(
            f"operator is not nonexpansive: spectral norm estimate {norm_estimate:.6f} "
            f"exceeds 1 + {NONEXPANSIVE_TOL:.1e}"
        )
    v = as_vector(x, A.shape[0])

    q = g / (1.0 + g)
    weight = 1.0 / (1.0 + g)  # q^k * (1 - q) as the loop advances
    total = weight * v
    power = v
    for _ in range(max(0, math.ceil(ratio))):
        power = A @ power
        weight *= q
        total += weight * power
    return total


def _series_tail(m: int, log_q: float, terms: int) -> np.ndarray:
    """1 - q^{m N_j}, j < m: the share of the resolvent coefficient of R^j kept by
    the series up to R^K, where R^j collects N_j = floor((K-j)/m) + 1 terms
    (none when j > K).  With K = laps*m + last, m N_j is K - last + m for
    j <= last and K - last above."""
    laps, last = divmod(terms, m)
    # laps >= 1 implies K >= 2, so log_q is finite and the product is not 0 * inf
    tail = np.full(m, -math.expm1((terms - last) * log_q) if laps else 0.0)
    tail[: last + 1] = -math.expm1((terms - last + m) * log_q)
    return tail


def asymptotic_limit(R: FiniteOrderIsometry, which: str) -> PolynomialOperator:
    """Pointwise limit of the resolvent of gamma*(Id - R).

    ``which="zero"`` gives the identity (gamma -> 0+); ``which="infinity"``
    gives the projector onto Fix R (gamma -> +inf).
    """
    if which == "zero":
        return PolynomialOperator.identity(R)
    if which == "infinity":
        return projector_fix(R)
    raise ParameterError(f'which must be "zero" or "infinity", got {which!r}')
