"""Linear isometries of finite order: constructors, certification, fast apply paths.

Every operator here is a linear map R on R^n with ||Rx|| = ||x|| and R^m = Id
for a certified integer order m >= 2.  Three storage kinds are supported:
plane rotators (block-diagonal rotations by 2*pi/m), circular block shifts,
and explicit dense matrices certified at construction time.

Only this module knows the storage kinds, so it also evaluates polynomials
sum_k c_k R^k x (:meth:`FiniteOrderIsometry.apply_polynomial`) with one kernel
per kind: a rotator's polynomial is the single complex scalar p(e^{2*pi*i/m})
on every 2x2 block, O(n + m); a shift's is a cyclic convolution along the block
axis, an m x m circulant product in O(m n) for m <= SHIFT_CIRCULANT_MAX_ORDER
and an FFT in O(n log m) above it; a dense matrix takes m-1 matvecs by
Horner, O(m n^2).  R.apply keeps its own per-kind code; the adjoint and the
powers R^k are the polynomial kernel with a unit coefficient vector, at its cost.

Each kind also states its spectrum, a multiplicity per m-th root of unity, and
an orthonormal basis of Fix R: in closed form for a rotator and a shift, from
one cached sweep over the powers of a dense matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError, ValidationError

#: max-norm tolerance used by :func:`make_dense` when certifying a matrix.
DEFAULT_VALIDATION_TOL = 1e-10
#: largest shift order whose polynomial is applied as a dense m x m circulant
#: product; above it the FFT along the block axis is faster.  Measured on a
#: 2-vCPU Xeon with one OpenBLAS thread: the FFT wins from m ~ 140 at n = 32768
#: and from m ~ 190 at n = 131072.
SHIFT_CIRCULANT_MAX_ORDER = 128
#: largest distance from an integer allowed for a dense matrix's eigenvalue
#: multiplicities, as the character formula computes them from traces
MULTIPLICITY_TOL = 1e-6

ROTATOR = "rotator"
CIRCULAR_SHIFT = "circular_shift"
DENSE = "dense"


def as_vector(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a finite float vector of length ``dim`` (ParameterError otherwise)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ParameterError(f"expected a 1-d vector, got array of shape {v.shape}")
    if v.shape[0] != dim:
        raise ParameterError(
            f"dimension mismatch: vector has length {v.shape[0]}, operator expects {dim}"
        )
    if not np.isfinite(v).all():
        raise ParameterError("vector entries must all be finite (got NaN or inf)")
    return v


def _as_coefficients(coefficients, order: int) -> np.ndarray:
    """Coerce to ``order`` finite float coefficients of the powers R^0, ..., R^(m-1)."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (order,):
        raise ParameterError(f"expected {order} coefficients, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ParameterError("coefficients must all be finite")
    return c


def _check_order(m) -> int:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 2:
        raise ParameterError(f"order must be an integer >= 2, got {m!r}")
    return int(m)


class FiniteOrderIsometry:
    """A linear isometry R with a certified order m, i.e. R^m = Id.

    Instances are immutable after construction and safe to share across
    threads; a dense instance caches its spectrum on first use, and two
    threads that race there compute the same arrays.  Use
    :func:`make_rotator`, :func:`make_circular_shift`, or :func:`make_dense`
    instead of the bare constructor.
    """

    __slots__ = ("kind", "order", "dim", "_cos", "_sin", "_block_dim", "_matrix", "_spectrum")

    def __init__(self, kind, order, dim, *, cos_sin=None, block_dim=None, matrix=None):
        self.kind = kind
        self.order = int(order)
        self.dim = int(dim)
        self._cos, self._sin = cos_sin if cos_sin is not None else (None, None)
        self._block_dim = block_dim
        self._matrix = matrix
        self._spectrum = None  # dense only: (multiplicities, Fix basis), made on first use

    def __repr__(self) -> str:
        return f"FiniteOrderIsometry(kind={self.kind!r}, order={self.order}, dim={self.dim})"

    def same_as(self, other) -> bool:
        """True when both operators are the same map (used to gate coefficient algebra)."""
        if self is other:
            return True
        if not isinstance(other, FiniteOrderIsometry):
            return False
        if (self.kind, self.order, self.dim) != (other.kind, other.order, other.dim):
            return False
        if self.kind == ROTATOR:
            return self._cos == other._cos and self._sin == other._sin
        if self.kind == CIRCULAR_SHIFT:
            return self._block_dim == other._block_dim
        return np.array_equal(self._matrix, other._matrix)

    @staticmethod
    def _rotate(v: np.ndarray, c: float, s: float) -> np.ndarray:
        # each pair (x0, x1) read as x0 + i x1 and multiplied by c + i s: one pass
        pairs = np.ascontiguousarray(v).view(np.complex128)
        return (pairs * complex(c, s)).view(np.float64)

    def apply(self, x) -> np.ndarray:
        """Return R x.

        Kept apart from :meth:`apply_polynomial`: the dense oracle materializes R
        through this method, so it must not share the polynomial kernels.
        """
        v = as_vector(x, self.dim)
        if self.kind == ROTATOR:
            return self._rotate(v, self._cos, self._sin)
        if self.kind == CIRCULAR_SHIFT:
            return np.roll(v.reshape(self.order, self._block_dim), 1, axis=0).ravel()
        return self._matrix @ v

    __call__ = apply

    def adjoint_apply(self, x) -> np.ndarray:
        """Return R* x, which for an order-m isometry equals R^{m-1} x."""
        return self.apply_power(self.order - 1, x)

    def apply_power(self, k, x) -> np.ndarray:
        """Return R^k x = R^{k mod m} x: :meth:`apply_polynomial` with a unit coefficient."""
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
            raise ParameterError(f"power must be a nonnegative integer, got {k!r}")
        unit = np.zeros(self.order)
        unit[int(k) % self.order] = 1.0
        return self.apply_polynomial(unit, x)

    def apply_polynomial(self, coefficients, x) -> np.ndarray:
        """Return sum_k c_k R^k x for the coefficients (c_0, ..., c_{m-1}).

        Rotator: the scalar z = sum_k c_k w^k, w = cos + i sin, by Horner, then
        a I + b J with a + ib = z on each 2x2 block.  Shift: the circulant
        C[i, j] = c[(i - j) mod m] applied along the block axis, as a matrix
        product up to SHIFT_CIRCULANT_MAX_ORDER and through rfft/irfft above.
        Dense: Horner, m-1 matvecs with the stored matrix.
        """
        c = _as_coefficients(coefficients, self.order)
        v = as_vector(x, self.dim)
        if self.kind == ROTATOR:
            w = complex(self._cos, self._sin)
            z = 0j
            for ck in c[::-1].tolist():
                z = z * w + ck
            return self._rotate(v, z.real, z.imag)
        if self.kind == CIRCULAR_SHIFT:
            m = self.order
            blocks = v.reshape(m, self._block_dim)
            if m <= SHIFT_CIRCULANT_MAX_ORDER:
                index = (np.arange(m)[:, None] - np.arange(m)) % m
                return (c[index] @ blocks).ravel()
            spectrum = np.fft.rfft(c)[:, None] * np.fft.rfft(blocks, axis=0)
            return np.fft.irfft(spectrum, n=m, axis=0).ravel()
        acc = c[-1] * v
        for ck in c[-2::-1]:
            acc = self._matrix @ acc
            acc += ck * v
        return acc

    def eigen_multiplicities(self) -> np.ndarray:
        """mult[j], the multiplicity of the eigenvalue e^{2*pi*i*j/m} of R, for j < m.

        Rotator: dim/2 at j = 1 and at j = m-1 (dim at j = 1 when m = 2).
        Shift: block_dim at every j.  Dense: the character formula
        mult_j = (1/m) sum_k tr(A^k) w^{-jk}, rounded; NumericError when the
        values are not within MULTIPLICITY_TOL of integers summing to n.
        """
        if self.kind == ROTATOR:
            mult = np.zeros(self.order, dtype=np.int64)
            mult[1] += self.dim // 2
            mult[-1] += self.dim // 2
            return mult
        if self.kind == CIRCULAR_SHIFT:
            return np.full(self.order, self._block_dim, dtype=np.int64)
        return self._dense_spectrum()[0]

    def fixed_space_basis(self) -> np.ndarray:
        """Orthonormal basis of Fix R as the rows of a (d, n) array, d = mult[0].

        Rotator: empty.  Shift: e_i repeated in every block, divided by sqrt(m).
        Dense: the top d eigenvectors of the projector (1/m) sum_k A^k, symmetrized;
        the array is cached and read-only.
        """
        if self.kind == ROTATOR:
            return np.empty((0, self.dim))
        if self.kind == CIRCULAR_SHIFT:
            # sqrt(1/m) is correctly rounded more often than 1/sqrt(m)
            return np.tile(np.eye(self._block_dim), self.order) * math.sqrt(1.0 / self.order)
        return self._dense_spectrum()[1]

    def _dense_spectrum(self) -> tuple:
        """(multiplicities, Fix basis) from the traces and the sum of A^k, k < m; O(m n^3)."""
        if self._spectrum is None:
            n, m = self.dim, self.order
            power = np.eye(n)
            total = power.copy()
            traces = np.empty(m)
            traces[0] = n
            for k in range(1, m):
                power = self._matrix @ power
                traces[k] = np.trace(power)
                total += power
            characters = np.fft.fft(traces) / m
            mult = np.rint(characters.real)
            deviation = float(np.max(np.abs(characters - mult)))
            if not deviation <= MULTIPLICITY_TOL or mult.min() < 0 or mult.sum() != n:
                raise NumericError(
                    f"eigenvalue multiplicities {characters.real.tolist()} are not "
                    f"nonnegative integers summing to {n} (largest deviation {deviation:.3e}, "
                    f"tol = {MULTIPLICITY_TOL:.1e})"
                )
            mult = mult.astype(np.int64)
            basis = np.empty((0, n))
            if mult[0]:
                del power  # one n x n array fewer at the eigh
                total += total.T  # 2m times the projector onto Fix R, symmetric
                # a copy, not a view that would keep all n eigenvectors alive
                basis = np.linalg.eigh(total)[1][:, n - mult[0]:].T.copy()
            mult.flags.writeable = False
            basis.flags.writeable = False
            self._spectrum = (mult, basis)
        return self._spectrum


def make_rotator(m: int, blocks: int = 1) -> FiniteOrderIsometry:
    """Block-diagonal rotation by the angle 2*pi/m on R^(2*blocks).

    cos/sin are evaluated once at construction so repeated applications do not
    re-enter libm.  The order m holds to machine precision by construction.
    """
    m = _check_order(m)
    if not isinstance(blocks, (int, np.integer)) or isinstance(blocks, bool) or blocks < 1:
        raise ParameterError(f"blocks must be an integer >= 1, got {blocks!r}")
    angle = 2.0 * math.pi / m
    return FiniteOrderIsometry(
        ROTATOR, m, 2 * int(blocks), cos_sin=(math.cos(angle), math.sin(angle))
    )


def make_circular_shift(m: int, block_dim: int = 1) -> FiniteOrderIsometry:
    """Circular right shift of m blocks of size block_dim:
    (x_1, ..., x_m) -> (x_m, x_1, ..., x_{m-1})."""
    m = _check_order(m)
    if not isinstance(block_dim, (int, np.integer)) or isinstance(block_dim, bool) or block_dim < 1:
        raise ParameterError(f"block_dim must be an integer >= 1, got {block_dim!r}")
    return FiniteOrderIsometry(CIRCULAR_SHIFT, m, m * int(block_dim), block_dim=int(block_dim))


def make_dense(matrix, m: int, tol: float = DEFAULT_VALIDATION_TOL) -> FiniteOrderIsometry:
    """Wrap an explicit matrix after certifying it is an isometry of order m.

    Accepts iff max|A^T A - I| <= tol and max|A^m - I| <= tol; the raised
    ValidationError names whichever bound failed.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ParameterError("matrix entries must all be finite")
    m = _check_order(m)
    if not (tol > 0):
        raise ParameterError(f"tol must be positive, got {tol!r}")
    n = A.shape[0]
    eye = np.eye(n)
    isometry_dev = float(np.max(np.abs(A.T @ A - eye)))
    if isometry_dev > tol:
        raise ValidationError(
            f"not an isometry: max|A^T A - I| = {isometry_dev:.3e} exceeds tol = {tol:.1e}"
        )
    order_dev = float(np.max(np.abs(np.linalg.matrix_power(A, m) - eye)))
    if order_dev > tol:
        raise ValidationError(
            f"order check failed: max|A^{m} - I| = {order_dev:.3e} exceeds tol = {tol:.1e}"
        )
    return FiniteOrderIsometry(DENSE, m, n, matrix=A.copy())
