"""Reference evaluations made apart from displacement_kit.

Every operator the package builds is a function f(R) of a finite-order
isometry R, so on an eigenvector of R with eigenvalue lam it acts as the
scalar f(lam).  This module evaluates those scalars from the paper's
definitions (resolvent of gamma*M, of gamma*M^-1, both Yosida approximations,
Moore-Penrose inverse, fixed-space projector, with M = Id - R) and applies
them per kind:

- rotator: each 2x2 block is the complex number x0 + i x1 and R multiplies it
  by exp(2 pi i / m), so f(R) multiplies it by a + ib = f(exp(2 pi i / m));
- circular shift: f(R) is a circular convolution along the block axis,
  evaluated with numpy's FFT;
- dense: np.linalg.solve and np.linalg.pinv on the matrix the benchmark drew.

No coefficient vector, Horner loop, materialization or oracle from the package
is used here.  Comparisons work on chunks so that the reference never holds
more than a few MB at a time: the benchmark's own data must not set the peak
memory it reports for the program.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = (
    "resolvent",
    "resolvent_inverse",
    "yosida",
    "yosida_inverse",
    "pseudo_inverse",
    "projector_fix",
)
GAMMA_FAMILIES = FAMILIES[:4]

#: elements compared per chunk; 2**16 doubles is 512 KB
CHUNK = 1 << 16


def symbol(family: str, gamma, lam: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """f(lam) for each eigenvalue lam of R; ``fixed`` marks lam == 1 exactly."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.where(fixed, 0.0, 1.0 - lam)
    if family == "resolvent":
        return 1.0 / (1.0 + gamma * mu)
    if family == "resolvent_inverse":
        return mu / (mu + gamma)
    if family == "yosida":
        return mu / (1.0 + gamma * mu)
    if family == "yosida_inverse":
        return 1.0 / (mu + gamma)
    safe = np.where(fixed, 1.0, mu)
    if family == "pseudo_inverse":
        return np.where(fixed, 0.0, 1.0 / safe)
    if family == "projector_fix":
        return np.where(fixed, 1.0, 0.0).astype(complex)
    raise ValueError(f"unknown family {family!r}")


def rotator_multiplier(family: str, gamma, m: int) -> complex:
    """a + ib with f(R) acting on each 2x2 block as a*I + b*J."""
    lam = np.array([complex(math.cos(2 * math.pi / m), math.sin(2 * math.pi / m))])
    return complex(symbol(family, gamma, lam, np.array([False]))[0])


def shift_multipliers(family: str, gamma, m: int) -> np.ndarray:
    """f(lam_s) for the DFT modes of the right block shift.

    (R x)_j = x_{j-1}, so numpy's forward FFT along the block axis turns R
    into multiplication by exp(-2 pi i s / m); mode s = 0 is the fixed space.
    """
    s = np.arange(m)
    lam = np.exp(-2j * np.pi * s / m)
    return symbol(family, gamma, lam, s == 0)


class Deviation:
    """Running max-abs deviation and output scale over compared chunks."""

    __slots__ = ("dev", "scale")

    def __init__(self, input_scale: float):
        self.dev = 0.0
        self.scale = float(input_scale)

    def add(self, got: np.ndarray, want: np.ndarray) -> None:
        if got.size:
            self.dev = max(self.dev, float(np.max(np.abs(got - want))))
            self.scale = max(self.scale, float(np.max(np.abs(want))))


def compare_rotator(out, x, multiplier: complex, x_scale: float) -> Deviation:
    """Compare ``out`` with (a*I + b*J) x on every 2x2 block."""
    a, b = multiplier.real, multiplier.imag
    pairs_x = np.asarray(x).reshape(-1, 2)
    pairs_o = np.asarray(out).reshape(-1, 2)
    dev = Deviation(x_scale)
    step = CHUNK // 2
    for i in range(0, pairs_x.shape[0], step):
        px = pairs_x[i : i + step]
        want = np.empty_like(px)
        want[:, 0] = a * px[:, 0] - b * px[:, 1]
        want[:, 1] = b * px[:, 0] + a * px[:, 1]
        dev.add(pairs_o[i : i + step], want)
    return dev


def compare_shift(out, x, multipliers: np.ndarray, x_scale: float) -> Deviation:
    """Compare ``out`` with the circular convolution f(R) x, chunked over block columns."""
    m = multipliers.shape[0]
    blocks_x = np.asarray(x).reshape(m, -1)
    blocks_o = np.asarray(out).reshape(m, -1)
    dev = Deviation(x_scale)
    step = max(1, CHUNK // m)
    col = multipliers[:, None]
    for j in range(0, blocks_x.shape[1], step):
        spec = np.fft.fft(blocks_x[:, j : j + step], axis=0)
        want = np.fft.ifft(col * spec, axis=0).real
        dev.add(blocks_o[:, j : j + step], want)
    return dev


def rotator_matrix(m: int, dim: int) -> np.ndarray:
    """Block-diagonal rotation by 2 pi / m, built entrywise."""
    c, s = math.cos(2 * math.pi / m), math.sin(2 * math.pi / m)
    A = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        A[i, i], A[i, i + 1], A[i + 1, i], A[i + 1, i + 1] = c, -s, s, c
    return A


def shift_matrix(m: int, block_dim: int) -> np.ndarray:
    """Permutation matrix of (x_1, ..., x_m) -> (x_m, x_1, ..., x_{m-1})."""
    n = m * block_dim
    A = np.zeros((n, n))
    rows = np.arange(n)
    A[rows, (rows - block_dim) % n] = 1.0
    return A


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


#: singular values of I - A below this share of the largest count as zero; the
#: nonzero ones of an order-m isometry are at least 2 sin(pi/m), and numpy's
#: default cutoff (n * eps) would invert the rounded zeros of an n ~ 1000 matrix
PINV_RTOL = 1e-8


def pinv_displacement(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of I - A by numpy's SVD."""
    return np.linalg.pinv(np.eye(A.shape[0]) - A, rtol=PINV_RTOL)


def dense_apply(family: str, gamma, A: np.ndarray, X: np.ndarray, pinv_m=None) -> np.ndarray:
    """f(A) X by direct solves on the drawn matrix A (columns of X are vectors).

    The four gamma families are rational in A, so one LU solve each:
    J = B^-1 with B = (1+g)I - gA; J_inv = (I-A) C^-1 and Y_inv = C^-1 with
    C = (1+g)I - A; Y = (I-A) B^-1.  The pseudo-inverse and the projector
    I - M^+ M use pinv(I - A), passed in as ``pinv_m`` when already computed.
    """
    n = A.shape[0]
    eye = np.eye(n)
    M = eye - A
    if family == "resolvent":
        return np.linalg.solve((1.0 + gamma) * eye - gamma * A, X)
    if family == "resolvent_inverse":
        return np.linalg.solve((1.0 + gamma) * eye - A, M @ X)
    if family == "yosida":
        return np.linalg.solve((1.0 + gamma) * eye - gamma * A, M @ X)
    if family == "yosida_inverse":
        return np.linalg.solve((1.0 + gamma) * eye - A, X)
    P = pinv_displacement(A) if pinv_m is None else pinv_m
    if family == "pseudo_inverse":
        return P @ X
    if family == "projector_fix":
        return X - P @ (M @ X)
    raise ValueError(f"unknown family {family!r}")


def max_abs_symbol(family: str, gamma, lams: np.ndarray, fixed: np.ndarray) -> float:
    """Operator norm of f(R) for a normal R: the largest |f| over R's eigenvalues."""
    return float(np.max(np.abs(symbol(family, gamma, lams, fixed))))
