"""Closed-form reference matrices for small plane rotators and circular shifts.

These are the fully worked 2x2 / 3x3 operator families (resolvent, inverse
resolvent, both Yosida approximations) written out entrywise as rational
expressions in gamma, independent of the coefficient machinery.  They serve
as ground truth for the reproduction command and the acceptance suite.

Each expression is evaluated exactly, in `fractions.Fraction` on the float
gamma with sqrt(3) taken as the float `_SQRT3`, and rounded once, so every
entry is the correctly rounded value of its expression.  A rotator's table is
given by (x, y) as [[x, -y], [y, x]], a shift's by the first column c of the
circulant C[i, j] = c[(i - j) mod m].  An entry beyond the float range raises
NumericError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericError, ParameterError
from .isometry_core import _check_real

ROTATOR_ORDERS = (2, 3, 4)
SHIFT_ORDERS = (2, 3)
OPERATOR_NAMES = ("resolvent", "resolvent_inverse", "yosida", "yosida_inverse")

_SQRT3 = math.sqrt(3.0)


def _rounded(rows: list, g: Fraction) -> np.ndarray:
    """The exact entries at gamma = g, each rounded once to a float."""
    try:
        return np.array([[float(entry) for entry in row] for row in rows])
    except OverflowError:
        raise NumericError(
            f"a worked-example entry at gamma = {float(g)!r} exceeds the float range"
        ) from None


def rotator_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the plane rotation by 2*pi/m, m in {2, 3, 4}."""
    g = Fraction(_check_real(gamma, "gamma"))
    if m == 2:
        xy = {
            "resolvent": (1 / (1 + 2 * g), 0),
            "resolvent_inverse": (2 / (2 + g), 0),
            "yosida": (2 / (1 + 2 * g), 0),
            "yosida_inverse": (1 / (2 + g), 0),
        }
    elif m == 3:
        s, d_fwd, d_inv = Fraction(_SQRT3), 2 + 6 * g + 6 * g * g, 6 + 6 * g + 2 * g * g
        xy = {
            "resolvent": ((2 + 3 * g) / d_fwd, s * g / d_fwd),
            "resolvent_inverse": ((6 + 3 * g) / d_inv, -s * g / d_inv),
            "yosida": ((3 + 6 * g) / d_fwd, -s / d_fwd),
            "yosida_inverse": ((3 + 2 * g) / d_inv, s / d_inv),
        }
    elif m == 4:
        d_fwd, d_inv = 1 + 2 * g + 2 * g * g, 2 + 2 * g + g * g
        xy = {
            "resolvent": ((1 + g) / d_fwd, g / d_fwd),
            "resolvent_inverse": ((2 + g) / d_inv, -g / d_inv),
            "yosida": ((1 + 2 * g) / d_fwd, -1 / d_fwd),
            "yosida_inverse": ((1 + g) / d_inv, 1 / d_inv),
        }
    else:
        raise ParameterError(
            f"rotator closed forms are tabulated for m in {ROTATOR_ORDERS}, got {m!r}"
        )
    return {name: _rounded([[x, -y], [y, x]], g) for name, (x, y) in xy.items()}


def shift_closed_forms(m: int, gamma: float) -> dict:
    """The four operator matrices for the circular right shift on R^m, m in {2, 3}."""
    g = Fraction(_check_real(gamma, "gamma"))
    p = 1 + g
    if m == 2:
        d_fwd, d_inv = 1 + 2 * g, 2 + g
        columns = {
            "resolvent": (p / d_fwd, g / d_fwd),
            "resolvent_inverse": (1 / d_inv, -1 / d_inv),
            "yosida": (1 / d_fwd, -1 / d_fwd),
            "yosida_inverse": (p / (d_inv * g), 1 / (d_inv * g)),
        }
    elif m == 3:
        d_fwd, d_inv = 1 + 3 * g + 3 * g * g, 3 + 3 * g + g * g
        columns = {
            "resolvent": (p * p / d_fwd, p * g / d_fwd, g * g / d_fwd),
            "resolvent_inverse": ((2 + g) / d_inv, -p / d_inv, -1 / d_inv),
            "yosida": ((1 + 2 * g) / d_fwd, -p / d_fwd, -g / d_fwd),
            "yosida_inverse": (p * p / (d_inv * g), p / (d_inv * g), 1 / (d_inv * g)),
        }
    else:
        raise ParameterError(f"shift closed forms are tabulated for m in {SHIFT_ORDERS}, got {m!r}")
    return {
        name: _rounded([[c[(i - j) % m] for j in range(m)] for i in range(m)], g)
        for name, c in columns.items()
    }


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
