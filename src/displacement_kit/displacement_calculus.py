"""Calculus of the displacement mapping M = Id - R of a finite-order isometry.

Every operator of interest (projector onto the fixed space, its skew
companion, the Moore-Penrose inverse of M, resolvents, ...) is a polynomial
in R, so the universal representation here is a coefficient vector
(c_0, ..., c_{m-1}) standing for sum_k c_k R^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .isometry_core import (
    FiniteOrderIsometry,
    _as_operand,
    _check_array,
    _check_real,
    _finite,
    _is_finite_real,
    _real_array,
    as_vector,
    make_circular_shift,
)

#: default relative threshold for the range-membership test of the set-valued inverse
RANGE_MEMBERSHIP_TOL = 1e-9

_ORTHONORMALITY_TOL = 1e-10


class PolynomialOperator:
    """A linear operator sum_{k=0}^{m-1} c_k R^k bound to a finite-order isometry R.

    Application is the polynomial kernel of R's kind, prepared once, on the
    first :meth:`apply` (threads that race there prepare equal kernels), from
    ``coefficients``, a read-only copy of those given.  The kernel does
    arithmetic only, and :meth:`apply` refuses its result when it overflowed.  Its
    cost depends on the kind of R: O(n + m) for a rotator, O(m n) up to
    SHIFT_CIRCULANT_MAX_ORDER and O(n log m) above it for a circular shift, and
    for a dense matrix log2(w) + ceil(m/w) - 1 reads of an n x n rung per vector
    (baby steps and giant steps, w = 4 for m > 6 and 2 below) and w - 2 +
    ceil(m/w) GEMMs on an (n, B) block, never more than ceil(m/2); n becomes nB
    for a block.
    Two operators over the same R add coefficientwise and compose by cyclic
    convolution of their coefficients, and any two of them commute.
    """

    __slots__ = ("operator", "coefficients", "_kernel")

    def __init__(self, operator: FiniteOrderIsometry, coefficients):
        self.operator = operator
        self.coefficients = _check_array(coefficients, "coefficients", (operator.order,)).copy()
        self.coefficients.flags.writeable = False
        self._kernel = None

    @property
    def order(self) -> int:
        return self.operator.order

    @property
    def dim(self) -> int:
        return self.operator.dim

    def __repr__(self) -> str:
        return f"PolynomialOperator(m={self.order}, coefficients={self.coefficients!r})"

    def __reduce__(self):  # pickled without its kernel, a closure made again on use
        return PolynomialOperator, (self.operator, self.coefficients)

    @classmethod
    def identity(cls, operator: FiniteOrderIsometry) -> "PolynomialOperator":
        c = np.zeros(operator.order)
        c[0] = 1.0
        return cls(operator, c)

    def apply(self, x) -> np.ndarray:
        """Evaluate sum_k c_k R^k x with the kernel for the kind of R; x may be an (n, B) block."""
        if self._kernel is None:  # (kernel, name) in one slot: a racing thread reads both
            self._kernel = self.operator._polynomial_kernel(self.coefficients)
        kernel, name = self._kernel
        out = kernel(_as_operand(x, self.dim))
        return _finite(out, "the {} overflowed on a finite operand", name)

    def operator_norm(self) -> float:
        """Exact operator norm: max |p(w^j)| over the eigenvalues w^j that R has.

        R is normal, so p(R) is too and its norm is the largest modulus of its
        symbol p(w^j) = sum_k c_k w^{jk} = m * ifft(c)[j] on the spectrum of R.
        O(m log m) after the multiplicities.
        """
        symbol = self.order * np.fft.ifft(self.coefficients)
        norm = float(np.max(np.abs(symbol[self.operator.eigen_multiplicities() > 0])))
        return _finite(norm, "the operator norm exceeds the largest float")

    def _check_same_operator(self, other: "PolynomialOperator") -> None:
        if not isinstance(other, PolynomialOperator):
            raise ParameterError(f"expected a PolynomialOperator, got {type(other).__name__}")
        if not self.operator.same_as(other.operator):
            raise ParameterError("operands are bound to different isometries")

    def compose(self, other: "PolynomialOperator") -> "PolynomialOperator":
        """Operator product; coefficients convolve cyclically mod m because R^m = Id, by
        the order-m shift's kernel, whose FFT above SHIFT_CIRCULANT_MAX_ORDER keeps each
        coefficient accurate relative to the largest one, not to itself."""
        self._check_same_operator(other)
        kernel, _ = make_circular_shift(self.order)._polynomial_kernel(self.coefficients)
        return self._with(kernel(other.coefficients))

    __matmul__ = compose

    def _with(self, c: np.ndarray) -> "PolynomialOperator":
        # a sum, difference, multiple or product of finite coefficients can exceed the largest float
        return PolynomialOperator(self.operator, _finite(c, "the coefficients overflowed"))

    def __add__(self, other: "PolynomialOperator") -> "PolynomialOperator":
        self._check_same_operator(other)
        return self._with(self.coefficients + other.coefficients)

    def __sub__(self, other: "PolynomialOperator") -> "PolynomialOperator":
        self._check_same_operator(other)
        return self._with(self.coefficients - other.coefficients)

    def __mul__(self, scalar) -> "PolynomialOperator":
        """Scale by any finite real; bool, strings and NaN raise ParameterError."""
        if not _is_finite_real(scalar):
            raise ParameterError(f"a polynomial operator scales by a finite real, got {scalar!r}")
        return self._with(self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PolynomialOperator":
        return PolynomialOperator(self.operator, -self.coefficients)


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """point + span(basis), the value of the set-valued inverse.

    ``point`` is the particular (minimum-norm least-squares) solution and
    ``basis`` a (d, n) array whose orthonormal rows span the direction space;
    any array-like input, an empty list for d = 0 included, is converted to
    it once.  The point is not required to be orthogonal to the basis.
    Equality is identity, and the hash is the default one.
    """

    point: np.ndarray
    basis: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "point", _check_array(self.point, "point", (None,)))
        n = self.point.shape[0]
        try:
            B = np.asarray(self.basis)
        except ValueError:  # ragged rows
            raise ParameterError("basis vectors must match the point's dimension") from None
        B = _real_array(B, "basis")  # strings, objects and complex numbers are refused
        if B.shape == (0,):
            B = B.reshape(0, n)
        if B.ndim != 2 or B.shape[1] != n:
            raise ParameterError("basis vectors must match the point's dimension")
        object.__setattr__(self, "basis", B)
        if B.shape[0]:
            gram_dev = np.abs(B @ B.T - np.eye(B.shape[0]))
            i, j = np.unravel_index(int(np.argmax(gram_dev)), gram_dev.shape)
            if not gram_dev[i, j] <= _ORTHONORMALITY_TOL:  # NaN fails too
                expected = 1.0 if i == j else 0.0
                raise ValidationError(
                    f"basis is not orthonormal: |<b_{i}, b_{j}> - {expected:g}| = "
                    f"{gram_dev[i, j]:.3e} exceeds {_ORTHONORMALITY_TOL:.1e}"
                )

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    @property
    def degrees_of_freedom(self) -> int:
        return self.basis.shape[0]

    def element(self, weights) -> np.ndarray:
        """Return point + sum_i weights[i] * basis[i]."""
        w = _check_array(weights, "weights", (self.degrees_of_freedom,))
        return _finite(self.point + w @ self.basis, "the element exceeds the largest float")


def displacement_apply(R: FiniteOrderIsometry, x) -> np.ndarray:
    """Apply the displacement mapping: x - Rx, column by column for an (n, B) block."""
    v = _as_operand(x, R.dim)
    message = "the displacement of the order-{} {} isometry overflowed on a finite operand"
    return _finite(v - R._power(v, 1), message, R.order, R.kind)


def displacement(R: FiniteOrderIsometry) -> PolynomialOperator:
    """The displacement mapping Id - R as a polynomial operator."""
    c = np.zeros(R.order)
    c[0] = 1.0
    c[1] = -1.0
    return PolynomialOperator(R, c)


def projector_fix(R: FiniteOrderIsometry) -> PolynomialOperator:
    """Orthogonal projector onto Fix R = ker(Id - R): the average of all powers of R."""
    m = R.order
    return PolynomialOperator(R, np.full(m, 1.0 / m))


def projector_fix_complement(R: FiniteOrderIsometry) -> PolynomialOperator:
    """Orthogonal projector onto (Fix R)^perp, i.e. Id minus :func:`projector_fix`."""
    c = np.full(R.order, -1.0 / R.order)
    c[0] += 1.0
    return PolynomialOperator(R, c)


def skew_part(R: FiniteOrderIsometry) -> PolynomialOperator:
    """The skew companion operator with coefficients c_0 = 0, c_k = (m - 2k)/(2m).

    It is skew-adjoint, its range lies in (Fix R)^perp, and for m = 2 the
    single coefficient vanishes, giving the zero operator.
    """
    m = R.order
    c = (m - 2 * np.arange(m)) / (2 * m)  # int64 over int: correctly rounded, as in Python
    c[0] = 0.0
    return PolynomialOperator(R, c)


def pseudo_inverse(R: FiniteOrderIsometry) -> PolynomialOperator:
    """Moore-Penrose inverse of the displacement Id - R: c_k = (m - 1 - 2k)/(2m)."""
    m = R.order
    c = (m - 1 - 2 * np.arange(m)) / (2 * m)
    return PolynomialOperator(R, c)


def set_valued_inverse(R: FiniteOrderIsometry, y, tol: float = RANGE_MEMBERSHIP_TOL):
    """Solve (Id - R) x = y in the set-valued sense.

    Returns the full solution set as an :class:`AffineSubspace` (particular
    point = the minimum-norm solution, directions = Fix R), or ``None`` when
    y is not in the range, detected by its fixed-space component exceeding
    ``tol * ||y||``.  That component's norm is ||B y|| on the orthonormal rows B
    of ``R.fixed_space_basis()``, the basis the result carries: a dense R computes
    its spectrum before the verdict, and a spectrum that refuses raises its
    NumericError whether y is in the range or not.  The point is
    ``pseudo_inverse(R)`` applied to y, the one kernel a solve prepares.  Both the
    test and the point are computed on y scaled by a power of two to max|y| in
    [1/2, 1), exactly, so that no square in the norms overflows or underflows and
    neither depends on the scale of y; scaling the point back rounds entries below
    2^-1022 to multiples of 2^-1074, and those of at most 2^-1075 to 0.0 or -0.0,
    and raises NumericError when one exceeds the largest float.  y = 0 is in the
    range.
    """
    tol = _check_real(tol, "tol")
    v = as_vector(y, R.dim)
    e = math.frexp(float(np.abs(v).max()))[1]  # frexp(0.0) = (0.0, 0)
    unit = np.ldexp(v, -e)
    basis = R.fixed_space_basis()
    if float(np.linalg.norm(basis @ unit)) > tol * float(np.linalg.norm(unit)):
        return None
    with np.errstate(over="ignore"):  # refused below, by name
        point = np.ldexp(pseudo_inverse(R).apply(unit), e)
    message = "the minimum-norm point of the solution set exceeds the largest float"
    return AffineSubspace(point=_finite(point, message), basis=basis)
