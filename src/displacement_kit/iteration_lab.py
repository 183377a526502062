"""Dynamics built on the closed forms: proximal-point iteration, ergodic means,
and Lipschitz constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_oracle import _as_apply, materialize
from .displacement_calculus import PolynomialOperator
from .isometry_core import FiniteOrderIsometry, _check_int, _check_real, as_vector
from .resolvent_yosida import resolvent


@dataclass(frozen=True)
class Trajectory:
    """Iterate history of a fixed-point iteration."""

    points: list
    residuals: list
    limit_estimate: np.ndarray
    converged: bool
    iterations_used: int

    def to_dict(self) -> dict:
        return {
            "points": [list(map(float, p)) for p in self.points],
            "residuals": [float(r) for r in self.residuals],
            "limit_estimate": list(map(float, self.limit_estimate)),
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
    """
    max_iter = _check_int(max_iter, "max_iter", 1)
    stop_tol = _check_real(stop_tol, "stop_tol", allow_zero=True)
    J = resolvent(R, gamma)
    x = as_vector(x0, R.dim)
    points = [x]
    residuals: list = []
    converged = False
    for _ in range(max_iter):
        x_next = J.apply(points[-1])
        step = float(np.linalg.norm(x_next - points[-1]))
        points.append(x_next)
        residuals.append(step)
        if step <= stop_tol:
            converged = True
            break
    return Trajectory(
        points=points,
        residuals=residuals,
        limit_estimate=points[-1],
        converged=converged,
        iterations_used=len(residuals),
    )


def ergodic_mean(R: FiniteOrderIsometry, x0, n: int) -> np.ndarray:
    """Cesaro average (1/n) * sum_{k=0}^{n-1} R^k x0.

    Folded by R^k = R^{k mod m}: R^j occurs floor((n-1-j)/m) + 1 times, so the
    mean is one :meth:`FiniteOrderIsometry.apply_polynomial`, O(m) for every n.
    Whenever n is a multiple of the order this equals the fixed-space
    projection of x0 exactly; in general the deviation decays like O(m/n).
    """
    n = _check_int(n, "n", 1)
    # n - 1 = laps*m + last: R^j occurs laps + 1 times for j <= last, laps times above
    laps, last = divmod(n - 1, R.order)
    coefficients = np.full(R.order, laps / n)
    coefficients[: last + 1] = (laps + 1) / n
    return R.apply_polynomial(coefficients, x0)


def lipschitz_estimate(operator, dim: int | None = None) -> float:
    """Lipschitz constant ||F||_2 of a linear operator F.

    A :class:`PolynomialOperator` returns its exact :meth:`operator_norm`
    from the symbol, O(m log m) whatever n is.  Any other operator returns the
    spectral norm (SVD) of its materialized n x n matrix.
    """
    if isinstance(operator, PolynomialOperator):
        _as_apply(operator, dim)  # rejects a dim that does not match
        return operator.operator_norm()
    return float(np.linalg.norm(materialize(operator, dim), 2))
