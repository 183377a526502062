"""Dynamics built on the closed forms: proximal-point iteration, ergodic means,
and Lipschitz constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .displacement_calculus import PolynomialOperator
from .errors import ParameterError
from .isometry_core import (
    FiniteOrderIsometry,
    _check_int,
    _check_real,
    _finite,
    _unit_scale,
    as_vector,
)
from .resolvent_yosida import resolvent


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterate history of a fixed-point iteration; equality is identity."""

    points: list
    residuals: list
    limit_estimate: np.ndarray
    converged: bool
    iterations_used: int

    def to_dict(self) -> dict:
        """The fields by name, the arrays as they are: no copy of the history is
        made, and the CLI turns each iterate into text on its own."""
        return {
            "points": list(self.points),
            "residuals": [float(r) for r in self.residuals],
            "limit_estimate": self.limit_estimate,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
        }


def proximal_point(
    R: FiniteOrderIsometry,
    gamma: float,
    x0,
    max_iter: int = 10_000,
    stop_tol: float = 1e-12,
) -> Trajectory:
    """Iterate x_{k+1} = resolvent(gamma*(Id - R)) x_k until the step norm
    falls below stop_tol or max_iter is exhausted.

    The stopping rule is the step-size residual; for these firmly nonexpansive
    linear maps the iterates converge to the fixed-space projection of x0.
    x0 is checked once, and every step runs the resolvent's kernel, prepared once.
    The residuals are finite and scale exactly with x0 by powers of two, as
    long as the iterates are normal floats.  The step norm is the one refusal per
    step: NumericError at the first step that is not finite or whose norm overflows.
    """
    max_iter = _check_int(max_iter, "max_iter", 1)
    stop_tol = _check_real(stop_tol, "stop_tol", allow_zero=True)
    kernel, _ = R._polynomial_kernel(resolvent(R, gamma).coefficients)
    x = as_vector(x0, R.dim)
    points = [x]
    residuals: list = []
    converged = False
    # d.d overflows for large finite steps, and an iterate that overflowed leaves a
    # step that is not finite: _step_norm refuses both, and no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            x_next = kernel(x)
            step = _step_norm(x_next - x, k)
            points.append(x_next)
            residuals.append(step)
            if step <= stop_tol:
                converged = True
                break
            x = x_next
    return Trajectory(
        points=points,
        residuals=residuals,
        limit_estimate=points[-1],
        converged=converged,
        iterations_used=len(residuals),
    )


#: least d.d that a step norm takes as it is: a square lost to underflow (at most
#: 2^-1075) moves it by less than 2^-54 of its unit in the last place
_UNSCALED_SQUARES = 2.0**-969


def _step_norm(d: np.ndarray, k: int) -> float:
    """||d||_2: sqrt(d.d), np.linalg.norm of a 1-d array bit for bit, while d.d is
    finite and at least _UNSCALED_SQUARES, and otherwise the norm of d scaled by a
    power of two to max|d| in [1/2, 1), scaled back; NumericError when step k or
    its norm is not finite."""
    squares = d.dot(d)
    if _UNSCALED_SQUARES <= squares < math.inf:  # NaN fails too
        return math.sqrt(squares)
    unit, exponent = _unit_scale(d)
    norm = float(np.ldexp(math.sqrt(unit.dot(unit)), exponent))  # inf when it overflows
    message = "the norm of proximal-point step {} is not a finite float after an overflow"
    return _finite(norm, message, k)


def ergodic_mean(R: FiniteOrderIsometry, x0, n: int) -> np.ndarray:
    """Cesaro average (1/n) * sum_{k=0}^{n-1} R^k x0.

    Folded by R^k = R^{k mod m}: R^j occurs floor((n-1-j)/m) + 1 times, so the
    mean is one :meth:`PolynomialOperator.apply`, O(m) for every n.
    Whenever n is a multiple of the order this equals the fixed-space
    projection of x0 exactly; in general the deviation decays like O(m/n).
    """
    n = _check_int(n, "n", 1)
    # n - 1 = laps*m + last: R^j occurs laps + 1 times for j <= last, laps times above
    laps, last = divmod(n - 1, R.order)
    coefficients = np.full(R.order, laps / n)
    coefficients[: last + 1] = (laps + 1) / n
    return PolynomialOperator(R, coefficients).apply(x0)


def lipschitz_estimate(operator: PolynomialOperator) -> float:
    """Lipschitz constant ||F||_2 of a polynomial operator F.

    It is the exact :meth:`PolynomialOperator.operator_norm` from the symbol,
    O(m log m) whatever n is; ParameterError for any other operator.
    """
    if not isinstance(operator, PolynomialOperator):
        raise ParameterError(f"expected a PolynomialOperator, got {type(operator).__name__}")
    return operator.operator_norm()
