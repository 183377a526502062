"""Closed-form reference matrices for small plane rotators and circular shifts.

These are the fully worked 2x2 / 3x3 operator families (resolvent, inverse
resolvent, both Yosida approximations) written out entrywise as rational
expressions in gamma, independent of the coefficient machinery.  They serve
as ground truth for the reproduction command and the acceptance suite.

Each expression is written in (a, b) with gamma = a/b: its numerator and
denominator in gamma, times b to the denominator's degree, become polynomials
of that one degree in a and b, so (1 + g)/(1 + 2g + 2g^2) is (b^2 + ab)/(b^2 +
2ab + 2a^2).  They are evaluated at (gamma, 1) up to gamma = 1, where they are
the expressions in gamma term for term, and at (1, 1/gamma) above, so that no
power of gamma overflows: each denominator then holds a term of 1 or more.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .isometry_core import _check_real

ROTATOR_ORDERS = (2, 3, 4)
SHIFT_ORDERS = (2, 3)
OPERATOR_NAMES = ("resolvent", "resolvent_inverse", "yosida", "yosida_inverse")

_SQRT3 = math.sqrt(3.0)


def _ratio(gamma: float) -> tuple:
    """(a, b) with a / b = gamma and max(a, b) = 1."""
    g = _check_real(gamma, "gamma")
    return (g, 1.0) if g <= 1.0 else (1.0, 1.0 / g)


def rotator_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the plane rotation by 2*pi/m, m in {2, 3, 4}."""
    a, b = _ratio(gamma)
    eye = np.eye(2)
    if m == 2:
        return {
            "resolvent": eye * (b / (b + 2.0 * a)),
            "resolvent_inverse": eye * (2.0 * b / (2.0 * b + a)),
            "yosida": eye * (2.0 * b / (b + 2.0 * a)),
            "yosida_inverse": eye * (b / (2.0 * b + a)),
        }
    bb, ab = b * b, a * b
    if m == 3:
        d_fwd = 2.0 * bb + 6.0 * ab + 6.0 * a * a
        d_inv = 6.0 * bb + 6.0 * ab + 2.0 * a * a
        return {
            "resolvent": np.array(
                [[2.0 * bb + 3.0 * ab, -_SQRT3 * ab], [_SQRT3 * ab, 2.0 * bb + 3.0 * ab]]
            ) / d_fwd,
            "resolvent_inverse": np.array(
                [[6.0 * bb + 3.0 * ab, _SQRT3 * ab], [-_SQRT3 * ab, 6.0 * bb + 3.0 * ab]]
            ) / d_inv,
            "yosida": np.array(
                [[3.0 * bb + 6.0 * ab, _SQRT3 * bb], [-_SQRT3 * bb, 3.0 * bb + 6.0 * ab]]
            ) / d_fwd,
            "yosida_inverse": np.array(
                [[3.0 * bb + 2.0 * ab, -_SQRT3 * bb], [_SQRT3 * bb, 3.0 * bb + 2.0 * ab]]
            ) / d_inv,
        }
    if m == 4:
        d_fwd = bb + 2.0 * ab + 2.0 * a * a
        d_inv = 2.0 * bb + 2.0 * ab + a * a
        return {
            "resolvent": np.array([[bb + ab, -ab], [ab, bb + ab]]) / d_fwd,
            "resolvent_inverse": np.array([[2.0 * bb + ab, ab], [-ab, 2.0 * bb + ab]]) / d_inv,
            "yosida": np.array([[bb + 2.0 * ab, bb], [-bb, bb + 2.0 * ab]]) / d_fwd,
            "yosida_inverse": np.array([[bb + ab, -bb], [bb, bb + ab]]) / d_inv,
        }
    raise ParameterError(f"rotator closed forms are tabulated for m in {ROTATOR_ORDERS}, got {m!r}")


def shift_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the circular right shift on R^m, m in {2, 3}."""
    a, b = _ratio(gamma)
    p = b + a
    if m == 2:
        d_fwd = b + 2.0 * a
        d_inv = 2.0 * b + a
        return {
            "resolvent": np.array([[p, a], [a, p]]) / d_fwd,
            "resolvent_inverse": np.array([[b, -b], [-b, b]]) / d_inv,
            "yosida": np.array([[b, -b], [-b, b]]) / d_fwd,
            "yosida_inverse": np.array([[p * b, b * b], [b * b, p * b]]) / (d_inv * a),
        }
    if m == 3:
        d_fwd = b * b + 3.0 * a * b + 3.0 * a * a
        d_inv = 3.0 * b * b + 3.0 * a * b + a * a
        return {
            "resolvent": np.array(
                [
                    [p * p, a * a, p * a],
                    [p * a, p * p, a * a],
                    [a * a, p * a, p * p],
                ]
            ) / d_fwd,
            "resolvent_inverse": np.array(
                [
                    [(2.0 * b + a) * b, -b * b, -p * b],
                    [-p * b, (2.0 * b + a) * b, -b * b],
                    [-b * b, -p * b, (2.0 * b + a) * b],
                ]
            ) / d_inv,
            "yosida": np.array(
                [
                    [(b + 2.0 * a) * b, -a * b, -p * b],
                    [-p * b, (b + 2.0 * a) * b, -a * b],
                    [-a * b, -p * b, (b + 2.0 * a) * b],
                ]
            ) / d_fwd,
            "yosida_inverse": np.array(
                [
                    [p * p * b, b * b * b, p * b * b],
                    [p * b * b, p * p * b, b * b * b],
                    [b * b * b, p * b * b, p * p * b],
                ]
            ) / (d_inv * a),
        }
    raise ParameterError(f"shift closed forms are tabulated for m in {SHIFT_ORDERS}, got {m!r}")


def reference_cases(gamma: float) -> list:
    """All tabulated (kind, m, operator name, matrix) cases at the given gamma."""
    cases = []
    for m in ROTATOR_ORDERS:
        forms = rotator_closed_forms(m, gamma)
        for name in OPERATOR_NAMES:
            cases.append({"kind": "rotator", "m": m, "operator": name, "matrix": forms[name]})
    for m in SHIFT_ORDERS:
        forms = shift_closed_forms(m, gamma)
        for name in OPERATOR_NAMES:
            cases.append({"kind": "shift", "m": m, "operator": name, "matrix": forms[name]})
    return cases
