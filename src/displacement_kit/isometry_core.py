"""Linear isometries of finite order: constructors, certification, fast apply paths.

Every operator here is a linear map R on R^n with ||Rx|| = ||x|| and R^m = Id
for a certified integer order m >= 2.  Three storage kinds are supported:
plane rotators (block-diagonal rotations by 2*pi/m), circular block shifts,
and explicit dense matrices certified at construction time.

Every evaluation path takes its operand through :func:`_as_operand`: a vector
of length n, or an (n, B) block whose B columns are mapped at once.  Only this
module knows the storage kinds.  R has finite order, so a power R^k is one
step per kind (:meth:`FiniteOrderIsometry._power`): a rotation by 2*pi*k/m, a
roll of k blocks, or products on the ladder A, A^2, A^4, ..., A^w that a dense
isometry keeps for its polynomial kernel, one per set bit of k mod w and k // w
with A^w.  R.apply, R.apply_power and the adjoint R^{m-1} all take it; R.apply
is k = 1 and reads A alone.  A polynomial sum_k c_k R^k x goes through the
kernel of its kind (:meth:`FiniteOrderIsometry._polynomial_kernel`, prepared
once by each PolynomialOperator), which states the cost of each; the dense one
takes baby steps and giant steps on the ladder.  A kernel does arithmetic only;
the evaluation that calls it refuses an overflowed result, once, through
:func:`_finite`.

Each kind also states its spectrum, a multiplicity per m-th root of unity, and
an orthonormal basis of Fix R: in closed form for a rotator and a shift, and
for a dense matrix A from one cached eigh of A + A^T, whose eigenvalues cluster
at 2cos(2*pi*j/m) (the real normal form of a normal matrix), and for m >= 6 an
SVD of I - A on the clusters near Fix A.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NumericError, ParameterError, ValidationError

#: max-norm tolerance used by :func:`make_dense` when certifying a matrix.
DEFAULT_VALIDATION_TOL = 1e-10
#: operator-norm slack of _check_nonexpansive, the one test of a nonexpansive input
NONEXPANSIVE_TOL = 1e-8
#: largest shift order whose polynomial is applied as a dense m x m circulant
#: product; above it the FFT along the block axis.  The crossover moves with the
#: block length n/m, yet m alone picks the faster kernel for every shift that
#: dkbench's bulk_apply runs.  Per vector on a 2-vCPU Xeon, one OpenBLAS thread:
#: circulant 1.1 ms against FFT 14.8 ms at m = 3, n ~ 1e6; 1.0 against 7.1 ms at
#: m = 8, n = 1e6; 0.29 against 0.95 ms at m = 64, n = 131072; and at m = 1024,
#: n = 32768, FFT 0.22 ms against 1.5 ms plus 8.3 ms to index the circulant.
#: PolynomialOperator.compose runs the kernel on one length-m column of
#: coefficients, which none of these figures measures.
SHIFT_CIRCULANT_MAX_ORDER = 128
#: entries of the row panel of a rung that the dense kernel takes per product on a
#: vector: 2**17 float64, 1 MiB, which stays in cache while it multiplies every
#: vector built so far
_PANEL_ENTRIES = 2**17
#: largest distance of an eigenvalue of A + A^T from its cluster centre
#: 2cos(2*pi*j/m) in a dense spectrum, unless make_dense's certificate allows more.
#: It must stay below half the smallest gap between centres, 2 sin^2(pi/m) ~
#: (2*pi/m)^2 / 2, which holds up to m = 44428.
SPECTRUM_TOL = 1e-8

ROTATOR = "rotator"
CIRCULAR_SHIFT = "circular_shift"
DENSE = "dense"


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; ParameterError naming ``name`` for ragged input and
    for strings, objects or complex numbers, which are refused rather than cast."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged rows
        raise ParameterError(f"{name} must be an array of real numbers") from None
    if a.dtype != np.float64:  # the hot path: float64 input is neither checked nor copied
        if a.dtype.kind not in "biuf":
            raise ParameterError(f"{name} must be an array of real numbers, got dtype {a.dtype}")
        a = a.astype(float)
    return a


def _as_operand(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a finite float vector of length ``dim`` or a (dim, B) block, B >= 0.

    Integer and bool entries convert to float; any other dtype, another shape,
    or a NaN/inf entry raises ParameterError.
    """
    v = _real_array(x, "vector")
    if v.ndim == 1:
        if v.shape[0] != dim:
            raise ParameterError(
                f"dimension mismatch: vector has length {v.shape[0]}, operator expects {dim}"
            )
    elif v.ndim != 2 or v.shape[0] != dim:
        raise ParameterError(
            f"dimension mismatch: operand has shape {v.shape}, operator expects a vector "
            f"of length {dim} or a ({dim}, B) block"
        )
    if not np.isfinite(v).all():
        raise ParameterError("vector entries must all be finite (got NaN or inf)")
    return v


def as_vector(x, dim: int) -> np.ndarray:
    """:func:`_as_operand` for the paths that take one vector only."""
    v = _real_array(x, "vector")
    if v.ndim != 1:
        raise ParameterError(f"expected a 1-d vector, got array of shape {v.shape}")
    return _as_operand(v, dim)


def _check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``; ParameterError otherwise (bool included)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _is_finite_real(value) -> bool:
    """True for a finite real number, numpy scalars included and bool excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_real(value, name: str, *, allow_zero: bool = False) -> float:
    """``value`` as a finite float > 0 (>= 0 with ``allow_zero``); ParameterError otherwise."""
    if not (_is_finite_real(value) and (value > 0 or (allow_zero and value == 0))):
        sign = "nonnegative" if allow_zero else "positive"
        raise ParameterError(f"{name} must be a {sign} finite real, got {value!r}")
    return float(value)


def _check_array(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; ParameterError naming ``name`` otherwise.

    Each entry of ``shape`` is a fixed length, None for a free axis, or "n" for
    axes that share one length n >= 1: a square matrix is ("n", "n").  Integer
    and bool entries convert to float; strings, objects and complex numbers
    are refused rather than cast.
    """
    a = _real_array(value, name)
    if a.shape != shape:  # equal tuples need no walk: the coefficients' hot path
        square = {got for want, got in zip(shape, a.shape) if want == "n"}
        if (
            a.ndim != len(shape)
            or len(square) > 1
            or 0 in square
            or any(want not in (None, "n", got) for want, got in zip(shape, a.shape))
        ):
            text = ", ".join("*" if want is None else str(want) for want in shape)
            raise ParameterError(f"{name} must be an array of shape ({text}), got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} must be finite, got NaN or inf entries")
    return a


def _finite(value, message: str, *args):
    """``value``, or NumericError(message.format(*args)) when an entry is not finite.

    The one refusal of a computed result that overflowed; the message is
    formatted only when it raises.
    """
    finite = np.isfinite(value)
    if np.count_nonzero(finite) != finite.size:  # half the cost of .all() on a short vector
        raise NumericError(message.format(*args))
    return value


def _unit_scale(v: np.ndarray) -> tuple:
    """(unit, e): v scaled by 2^-e to max|unit| in [1/2, 1), so that its sum of
    squares neither overflows nor underflows to 0; e = 0 when max|v| is 0, inf or NaN."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return np.ldexp(v, -e), e


def _check_nonexpansive(M: np.ndarray) -> np.ndarray:
    """M, or ValidationError when its spectral norm exceeds 1 + NONEXPANSIVE_TOL."""
    norm = float(np.linalg.norm(M, 2))
    if norm > 1.0 + NONEXPANSIVE_TOL:
        raise ValidationError(
            f"operator is not nonexpansive: spectral norm {norm:.6f} exceeds "
            f"1 + {NONEXPANSIVE_TOL:.1e}"
        )
    return M


class FiniteOrderIsometry:
    """A linear isometry R with a certified order m, i.e. R^m = Id.

    Instances are immutable after construction and safe to share across
    threads; a dense instance caches its spectrum on first use, and two
    threads that race there compute the same arrays.  Use
    :func:`make_rotator`, :func:`make_circular_shift`, or :func:`make_dense`
    instead of the bare constructor.
    """

    __slots__ = ("kind", "order", "dim", "_matrix", "_squares", "_spectrum", "_spectrum_tol")

    def __init__(self, kind, order, dim, *, matrix=None):
        # a rotator and a shift are fixed by (order, dim); nothing is certified here
        kinds = (ROTATOR, CIRCULAR_SHIFT, DENSE)
        if kind not in kinds:
            raise ParameterError(f"unknown isometry kind {kind!r}, expected one of {list(kinds)}")
        self.kind = kind
        self.order = _check_int(order, "order", 2)
        self.dim = _check_int(dim, "dim", 1)
        shape = getattr(matrix, "shape", None)
        if kind != DENSE and matrix is not None:
            raise ParameterError(f"a {kind} isometry takes no matrix, only a dense one does")
        if kind == ROTATOR and self.dim % 2:
            raise ParameterError(f"a rotator's dim must be even, got {dim}")
        if kind == CIRCULAR_SHIFT and self.dim % self.order:
            raise ParameterError(f"a circular_shift's dim must be a multiple of {order}, got {dim}")
        if kind == DENSE and shape != (self.dim, self.dim):
            raise ParameterError(f"dim {dim} needs a ({dim}, {dim}) matrix, got shape {shape}")
        self._matrix = matrix
        # dense only: the squares A^2, ..., A^w of the ladder that R^k and the polynomial
        # kernel climb, w = 4 for m > 6 and 2 below; make_dense's certificate reuses them
        self._squares = ()
        if matrix is not None:
            square = matrix @ matrix
            self._squares = (square, square @ square) if self.order > 6 else (square,)
        self._spectrum = None  # dense only: (multiplicities, Fix basis), made on first use
        self._spectrum_tol = SPECTRUM_TOL  # dense only: make_dense may raise it to its bound

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
        return self.kind != DENSE or np.array_equal(self._matrix, other._matrix)

    @staticmethod
    def _rotate(v: np.ndarray, z: complex) -> np.ndarray:
        # each pair of rows (x0, x1) read as x0 + i x1 and multiplied by z: one pass; a
        # block goes through the complex view of its transpose, a row per column
        pairs = np.ascontiguousarray(v.T).view(np.complex128)
        return (pairs * z).view(np.float64).T

    def _blocks(self, v: np.ndarray) -> np.ndarray:
        # a shift's m blocks along axis 0: (m, b) for a vector, (m, b*B) for a block
        return v.reshape(self.order, v.size // self.order)

    def apply(self, x) -> np.ndarray:
        """Return R x, or R X column by column for an (n, B) block X.

        Kept apart from :meth:`_polynomial_kernel`: the dense oracle materializes R
        through this method, so it must not share the polynomial kernels.
        """
        return self._power(_as_operand(x, self.dim), 1)

    def adjoint_apply(self, x) -> np.ndarray:
        """Return R* x, which for an order-m isometry equals R^{m-1} x."""
        return self.apply_power(self.order - 1, x)

    def apply_power(self, k, x) -> np.ndarray:
        """Return R^k x = R^{k mod m} x."""
        k = _check_int(k, "power", 0) % self.order
        return self._power(_as_operand(x, self.dim), k)

    def _power(self, v: np.ndarray, k: int) -> np.ndarray:
        """R^k v for 0 <= k < m and an operand checked by :func:`_as_operand`.

        Rotator: one rotation by the angle 2*pi*k/m, O(nB).  Shift: a roll of k
        blocks, O(nB) and exact (a copy at k = 0).  Dense: one product with A^(2^i)
        for each set bit i of k mod w, then k // w products with A^w, on the ladder
        A, A^2, ..., A^w of the kernel, O((popcount(k mod w) + k // w) n^2 B); k = 1
        reads A alone.  NumericError when a rotation or a product is not finite: an
        isometry can move up to sqrt(n) max|v| into one entry.  A roll cannot.
        """
        if self.kind == CIRCULAR_SHIFT:
            blocks = self._blocks(v)
            return np.concatenate((blocks[-k:], blocks[:-k])).reshape(v.shape)
        if self.kind == ROTATOR:
            angle = 2.0 * math.pi * k / self.order
            out = self._rotate(v, complex(math.cos(angle), math.sin(angle)))
        else:
            *baby, giant = (self._matrix,) + self._squares
            out = v
            for i, rung in enumerate(baby):
                if k >> i & 1:
                    out = rung @ out
            for _ in range(k >> len(baby)):
                out = giant @ out
            if out is v:
                out = v.copy()
        message = "R^{} of the order-{} {} isometry overflowed on a finite operand"
        return _finite(out, message, k, self.order, self.kind)

    def _polynomial_kernel(self, c: np.ndarray):
        """(kernel, name): the kernel v -> sum_k c_k R^k v for an operand checked by
        :func:`_as_operand`, with the work on ``c`` alone done here, and the kernel's
        name for a message; ``c`` must not change while the kernel is used.

        Rotator, O(nB + m) for an (n, B) operand: the scalar z = sum_k c_k w^k as
        one product of c with the table w^k = cos(2*pi*k/m) + i sin(2*pi*k/m), the
        angle that R^k takes, then a I + b J with a + ib = z on each 2x2 block.
        Shift: the circulant C[i, j] = c[(i - j) mod m] along the block
        axis, a matrix product in O(m nB) up to SHIFT_CIRCULANT_MAX_ORDER and
        rfft/irfft in O(nB log m) above.  Dense: baby steps and giant steps
        (Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973) on the ladder A, A^2,
        ..., A^w that the isometry keeps, w = 4 for m > 6 and 2 below.  The baby
        steps build K = [x, Ax, ..., A^(w-1) x] by doubling, A^(2^i) multiplying the
        2^i vectors built so far: a vector's in one product per row panel of the
        rung, which is read into cache once for all of them; a block's in one GEMM
        each, as GEMMs block for the cache themselves.  Then Horner in A^w runs over
        the ceil(m/w) groups of w coefficients, acc <- sum_r c_{g+r} K_r + A^w acc,
        one product and one contraction of K per step.  That reads a rung
        log2(w) + ceil(m/w) - 1 times per vector (3 at m = 8, where Horner in A^2
        read 4) and takes w - 2 + ceil(m/w) products on an (n, B) block, never more
        than the ceil(m/2) of Horner in A^2, which is the kernel at w = 2.  K holds
        w + 1 operand-sized blocks.

        A kernel does arithmetic only and returns an overflowed result as it is;
        its caller refuses it, once, as :meth:`PolynomialOperator.apply` does by name.
        """
        m = self.order
        if self.kind == ROTATOR:
            angle = 2.0 * math.pi * np.arange(m) / m  # R^k's angle, for every k at once
            z = complex(c @ np.cos(angle), c @ np.sin(angle))
            return (lambda v: self._rotate(v, z)), f"kernel of the order-{m} rotator"
        if self.kind == CIRCULAR_SHIFT and m <= SHIFT_CIRCULANT_MAX_ORDER:
            # i - j lies in (-m, m), and a negative index wraps exactly as mod m would
            circulant = c[np.arange(m)[:, None] - np.arange(m)]
            kernel = lambda v: (circulant @ self._blocks(v)).reshape(v.shape)
            return kernel, f"circulant kernel of the order-{m} shift"
        if self.kind == CIRCULAR_SHIFT:
            symbol = np.fft.rfft(c)[:, None]

            def kernel(v):
                out = np.fft.irfft(symbol * np.fft.rfft(self._blocks(v), axis=0), n=m, axis=0)
                return out.reshape(v.shape)

            return kernel, f"FFT kernel of the order-{m} shift"
        *baby, giant = (self._matrix,) + self._squares
        w, n = 1 << len(baby), self.dim
        top = (m - 1) // w * w  # the first coefficient of the last group
        slots = w + (top > 0)  # K, and one more slot for A^w acc when Horner steps
        groups = c[:top].reshape(-1, w)[::-1]  # the giant steps' coefficients, last first

        def kernel(v):
            b = v.shape[1] if v.ndim == 2 else 1
            K = np.empty((slots, n, b))  # K[r] = A^r v for r < w, K[w] = A^w acc
            K[0] = v.reshape(n, b)
            flat = K.reshape(slots, n * b)
            rows = max(1, _PANEL_ENTRIES // n)
            for i, rung in enumerate(baby):
                half = 1 << i
                if b == 1:  # the 2^i vectors as rows: one GEMM per row panel of the rung
                    for r in range(0, n, rows):
                        panel = rung[r : r + rows].T
                        np.matmul(flat[:half], panel, out=flat[half : 2 * half, r : r + rows])
                else:  # one GEMM per block, which blocks for the cache itself
                    np.matmul(rung, K[:half], out=K[half : 2 * half])
            acc = c[top:] @ flat[: m - top]
            for group in groups:  # Horner in A^w: acc <- c_g K + A^w acc
                np.matmul(giant, acc.reshape(n, b), out=K[w])
                np.matmul(group, flat[:w], out=acc)
                acc += flat[w]
            return acc.reshape(v.shape)

        return kernel, f"kernel of the order-{m} dense isometry"

    def eigen_multiplicities(self) -> np.ndarray:
        """mult[j], the multiplicity of the eigenvalue e^{2*pi*i*j/m} of R, for j < m.

        Rotator: dim/2 at j = 1 and at j = m-1 (dim at j = 1 when m = 2).
        Shift: dim/m at every j.  Dense: the cluster sizes of the eigenvalues
        of A + A^T at 2cos(2*pi*j/m), a pair j, m-j sharing its cluster equally;
        see :meth:`_dense_spectrum` for the certificate and its NumericError.
        """
        if self.kind == ROTATOR:
            mult = np.zeros(self.order, dtype=np.int64)
            mult[1] += self.dim // 2
            mult[-1] += self.dim // 2
            return mult
        if self.kind == CIRCULAR_SHIFT:
            return np.full(self.order, self.dim // self.order, dtype=np.int64)
        return self._dense_spectrum()[0]

    def fixed_space_basis(self) -> np.ndarray:
        """Orthonormal basis of Fix R as the rows of a (d, n) array, d = mult[0].

        Rotator: empty.  Shift: e_i repeated in every block, divided by sqrt(m).
        Dense: the eigenvectors of A + A^T at 2, i.e. A x = x; cached and read-only.
        From m = 6 on they are refined by an SVD of (I - A) on the eigenvectors at
        or above 1, whose gap at Fix A is 2 sin(pi/m) in place of 4 sin^2(pi/m), so
        the distance from Fix A grows like m, not m^2: 1.8e-13 at m = 32768 against
        1.7e-8 from the eigenvectors alone (worst of five n = 3 conjugates).
        """
        if self.kind == ROTATOR:
            return np.empty((0, self.dim))
        if self.kind == CIRCULAR_SHIFT:
            # sqrt(1/m) is correctly rounded more often than 1/sqrt(m)
            return np.tile(np.eye(self.dim // self.order), self.order) * math.sqrt(1.0 / self.order)
        return self._dense_spectrum()[1]

    def _dense_spectrum(self) -> tuple:
        """(multiplicities, Fix basis) from one eigh of A + A^T, O(n^3) whatever m is.

        For a real orthogonal A the pair e^{+-2*pi*i*j/m} is the eigenvalue
        2cos(2*pi*j/m) of A + A^T, and the eigenvectors at 2 span Fix A.  Each
        eigenvalue goes to its nearest centre, j = 0..m//2.  The cluster tolerance
        is SPECTRUM_TOL, or the larger bound that :func:`make_dense` derives from
        its certificate.  NumericError when an eigenvalue lies more than the
        tolerance from its centre, when a cluster with j not in {0, m/2} has odd
        size, when m > 44428, where the centres near 2 come closer than
        2 * SPECTRUM_TOL, or when the certificate's bound reaches half that gap.
        """
        if self._spectrum is None:
            m, tol = self.order, self._spectrum_tol
            centres = 2.0 * np.cos(2.0 * np.pi * np.arange(m // 2 + 1) / m)  # decreasing
            gap = centres[0] - centres[1]
            if not gap > 2.0 * SPECTRUM_TOL:
                raise NumericError(f"order m = {m} is too large for a dense spectrum (m <= 44428)")
            if not gap > 2.0 * tol:
                raise NumericError(
                    f"make_dense's tol lets an eigenvalue of A + A^T lie {tol:.3e} from its "
                    f"centre, half or more of the gap {gap:.3e} between centres at order m = {m}; "
                    "certify the matrix with a smaller tol"
                )
            eigenvalues, vectors = np.linalg.eigh(self._matrix + self._matrix.T)
            # the nearest centre's j is the number of midpoints between centres above
            j = np.searchsorted((centres[1:] + centres[:-1]) / -2.0, -eigenvalues)
            distance = np.abs(eigenvalues - centres[j])
            worst = int(np.argmax(distance))
            if not distance[worst] <= tol:  # NaN fails too
                name = "SPECTRUM_TOL" if tol == SPECTRUM_TOL else "make_dense's cluster bound"
                raise NumericError(
                    f"eigenvalue {eigenvalues[worst]:.6g} of A + A^T lies {distance[worst]:.3e} "
                    f"from its nearest centre, more than {name} = {tol:.1e}"
                )
            sizes = np.bincount(j, minlength=m // 2 + 1)
            paired = sizes[1 : (m + 1) // 2]  # the clusters of j != m - j
            if np.any(paired % 2):  # a real matrix has e^(+-2*pi*i*j/m) in pairs
                odd = 1 + int(np.argmax(paired % 2))
                raise NumericError(
                    f"the eigenvalue cluster at 2cos(2*pi*{odd}/{m}) of A + A^T has odd size"
                )
            halves = paired // 2
            mult = np.concatenate((sizes[:1], halves, sizes[(m + 1) // 2 :], halves[::-1]))
            # the clusters at 2cos(2*pi*j/m) >= 1, in integers since the centre is 1 at
            # m = 6; eigh sorts ascending, so cluster 0 is the last columns
            near = vectors[:, 6 * j <= m]
            if near.shape[1] > mult[0] > 0:
                # cluster 0 lies only 4 sin^2(pi/m) from cluster 1 in A + A^T, but the
                # singular values of (I - A) near are 2 sin(pi*j/m) on cluster j: Fix A
                # is the right singular space of the mult[0] smallest
                _, _, vt = np.linalg.svd(near - self._matrix @ near, full_matrices=False)
                near = near @ vt[near.shape[1] - mult[0] :].T
            # a copy, not a view that would keep the eigenvectors alive
            basis = near[:, near.shape[1] - mult[0] :].T.copy()
            mult.flags.writeable = False
            basis.flags.writeable = False
            self._spectrum = (mult, basis)
        return self._spectrum


def make_rotator(m: int, blocks: int = 1) -> FiniteOrderIsometry:
    """Block-diagonal rotation by the angle 2*pi/m on R^(2*blocks).

    R^k is one rotation by 2*pi*k/m, its cos/sin evaluated on each call, so
    R^m = Id holds to machine precision by construction.
    """
    m = _check_int(m, "order", 2)
    blocks = _check_int(blocks, "blocks", 1)
    return FiniteOrderIsometry(ROTATOR, m, 2 * blocks)


def make_circular_shift(m: int, block_dim: int = 1) -> FiniteOrderIsometry:
    """Circular right shift of m blocks of size block_dim:
    (x_1, ..., x_m) -> (x_m, x_1, ..., x_{m-1})."""
    m = _check_int(m, "order", 2)
    block_dim = _check_int(block_dim, "block_dim", 1)
    return FiniteOrderIsometry(CIRCULAR_SHIFT, m, m * block_dim)


def make_dense(matrix, m: int, tol: float = DEFAULT_VALIDATION_TOL) -> FiniteOrderIsometry:
    """Wrap an explicit matrix after certifying it is an isometry of order m.

    Accepts iff max|A^T A - I| <= tol and max|A^m - I| <= tol; the raised
    ValidationError names whichever bound failed.  A^m is taken by repeated
    squaring from the squares A^2, A^4, ..., A^w that the isometry keeps for R^k
    and its polynomial kernel, squaring on past them: floor(log2 m) squares and
    popcount(m) - 1 products, times A last for odd m.

    The two deviations, d1 = max|A^T A - I| and d2 = max|A^m - I|, also bound how
    far an eigenvalue of A + A^T lies from its centre: by 4n*d1 + 2n*d2/m, to
    first order, from the polar factor U of A within n*d1 of it, Weyl's inequality
    (Horn & Johnson, Thm 4.3.1) and U^m within n*(d2 + m*d1) of I.  The cluster
    tolerance of :meth:`FiniteOrderIsometry._dense_spectrum` is the larger of that
    and SPECTRUM_TOL, so a matrix accepted here at a loose tol answers every
    spectral question, up to the order where the bound reaches half the gap
    between centres.
    """
    A = _check_array(matrix, "matrix", ("n", "n"))
    m = _check_int(m, "order", 2)
    tol = _check_real(tol, "tol")
    n = A.shape[0]
    eye = np.eye(n)
    isometry_dev = float(np.max(np.abs(A.T @ A - eye)))
    if isometry_dev > tol:
        raise ValidationError(
            f"not an isometry: max|A^T A - I| = {isometry_dev:.3e} exceeds tol = {tol:.1e}"
        )
    R = FiniteOrderIsometry(DENSE, m, n, matrix=A.copy())
    square, power = A, None
    for i in range(1, m.bit_length()):
        square = R._squares[i - 1] if i <= len(R._squares) else square @ square
        if m >> i & 1:
            power = square if power is None else power @ square
    if m % 2:
        power = power @ A
    order_dev = float(np.max(np.abs(power - eye)))
    if order_dev > tol:
        raise ValidationError(
            f"order check failed: max|A^{m} - I| = {order_dev:.3e} exceeds tol = {tol:.1e}"
        )
    R._spectrum_tol = max(SPECTRUM_TOL, 4 * n * isometry_dev + 2 * n * order_dev / m)
    return R
