"""Closed-form reference matrices for small plane rotators and circular shifts.

These are the fully worked 2x2 / 3x3 operator families (resolvent, inverse
resolvent, both Yosida approximations) written out entrywise as rational
expressions in gamma, independent of the coefficient machinery.  They serve
as ground truth for the reproduction command and the acceptance suite.
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


def rotator_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the plane rotation by 2*pi/m, m in {2, 3, 4}."""
    g = _check_real(gamma, "gamma")
    eye = np.eye(2)
    if m == 2:
        return {
            "resolvent": eye / (1.0 + 2.0 * g),
            "resolvent_inverse": eye * (2.0 / (2.0 + g)),
            "yosida": eye * (2.0 / (1.0 + 2.0 * g)),
            "yosida_inverse": eye / (2.0 + g),
        }
    if m == 3:
        d_fwd = 2.0 + 6.0 * g + 6.0 * g * g
        d_inv = 6.0 + 6.0 * g + 2.0 * g * g
        return {
            "resolvent": np.array(
                [[2.0 + 3.0 * g, -_SQRT3 * g], [_SQRT3 * g, 2.0 + 3.0 * g]]
            ) / d_fwd,
            "resolvent_inverse": np.array(
                [[6.0 + 3.0 * g, _SQRT3 * g], [-_SQRT3 * g, 6.0 + 3.0 * g]]
            ) / d_inv,
            "yosida": np.array(
                [[3.0 + 6.0 * g, _SQRT3], [-_SQRT3, 3.0 + 6.0 * g]]
            ) / d_fwd,
            "yosida_inverse": np.array(
                [[3.0 + 2.0 * g, -_SQRT3], [_SQRT3, 3.0 + 2.0 * g]]
            ) / d_inv,
        }
    if m == 4:
        d_fwd = 1.0 + 2.0 * g + 2.0 * g * g
        d_inv = 2.0 + 2.0 * g + g * g
        return {
            "resolvent": np.array([[1.0 + g, -g], [g, 1.0 + g]]) / d_fwd,
            "resolvent_inverse": np.array([[2.0 + g, g], [-g, 2.0 + g]]) / d_inv,
            "yosida": np.array([[1.0 + 2.0 * g, 1.0], [-1.0, 1.0 + 2.0 * g]]) / d_fwd,
            "yosida_inverse": np.array([[1.0 + g, -1.0], [1.0, 1.0 + g]]) / d_inv,
        }
    raise ParameterError(f"rotator closed forms are tabulated for m in {ROTATOR_ORDERS}, got {m!r}")


def shift_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the circular right shift on R^m, m in {2, 3}."""
    g = _check_real(gamma, "gamma")
    if m == 2:
        d_fwd = 1.0 + 2.0 * g
        d_inv = 2.0 + g
        return {
            "resolvent": np.array([[1.0 + g, g], [g, 1.0 + g]]) / d_fwd,
            "resolvent_inverse": np.array([[1.0, -1.0], [-1.0, 1.0]]) / d_inv,
            "yosida": np.array([[1.0, -1.0], [-1.0, 1.0]]) / d_fwd,
            "yosida_inverse": np.array([[1.0 + g, 1.0], [1.0, 1.0 + g]]) / (d_inv * g),
        }
    if m == 3:
        d_fwd = 1.0 + 3.0 * g + 3.0 * g * g
        d_inv = 3.0 + 3.0 * g + g * g
        p = 1.0 + g
        return {
            "resolvent": np.array(
                [
                    [p * p, g * g, p * g],
                    [p * g, p * p, g * g],
                    [g * g, p * g, p * p],
                ]
            ) / d_fwd,
            "resolvent_inverse": np.array(
                [
                    [2.0 + g, -1.0, -p],
                    [-p, 2.0 + g, -1.0],
                    [-1.0, -p, 2.0 + g],
                ]
            ) / d_inv,
            "yosida": np.array(
                [
                    [1.0 + 2.0 * g, -g, -p],
                    [-p, 1.0 + 2.0 * g, -g],
                    [-g, -p, 1.0 + 2.0 * g],
                ]
            ) / d_fwd,
            "yosida_inverse": np.array(
                [
                    [p * p, 1.0, p],
                    [p, p * p, 1.0],
                    [1.0, p, p * p],
                ]
            ) / (d_inv * g),
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
