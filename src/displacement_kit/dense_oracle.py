"""Independent dense-linear-algebra verification path.

Everything here works on explicit matrices with generic factorizations
(LU solve, SVD) and never reuses the polynomial-coefficient arithmetic of the
closed-form path; agreement between the two is the library's core evidence.
The only code it shares with that path is input validation (the
``_check_*`` helpers of isometry_core), which does no arithmetic.

An operator is a matrix or an object with ``dim`` and an ``apply`` that
takes an (n, B) block.  It is applied to blocks: :func:`materialize` is one
call on the identity block and :func:`compare` one call per chunk of the block
of its samples, through ``apply`` (never the polynomial kernel) or one GEMM.  The
oracle arithmetic itself (LU, SVD) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ValidationError
from .isometry_core import _check_array, _check_int, _check_real

#: residual allowed when inverting Id + gamma*(Id - A) by direct solve
RESOLVENT_RESIDUAL_TOL = 1e-10
#: relative singular-value threshold separating zero from nonzero spectrum
DEFAULT_RANK_TOL = 1e-10
#: operator-norm slack accepted when an input must be nonexpansive (the one
#: definition; the matrix series of resolvent_yosida imports it)
NONEXPANSIVE_TOL = 1e-8
#: entries of the largest block of samples that compare applies at once (1 MiB)
_CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class ComparisonReport:
    """Deviation statistics between two operators over sampled vectors."""

    label: str
    max_abs_deviation: float
    mean_abs_deviation: float
    samples: int
    tolerance: float
    passed: bool
    seed: int

    @classmethod
    def from_deviations(cls, label, deviations, tolerance, seed) -> "ComparisonReport":
        devs = [float(d) for d in deviations]
        if not devs:
            raise ParameterError("a comparison needs at least one sample")
        worst = float(np.max(devs))  # NaN anywhere makes it NaN, and the report fails
        return cls(
            label=label,
            max_abs_deviation=worst,
            mean_abs_deviation=sum(devs) / len(devs),
            samples=len(devs),
            tolerance=float(tolerance),
            passed=worst <= float(tolerance),
            seed=int(seed),
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "max_abs_deviation": self.max_abs_deviation,
            "mean_abs_deviation": self.mean_abs_deviation,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


def _as_apply(op):
    """Normalize an operator to (block_function, dimension).

    The function maps an (n, B) block to the block of its column images:
    ``matrix @ X`` for an ndarray and ``op.apply`` for an object with ``apply``
    and ``dim``, which must take a block, as the package's operators do.
    """
    if isinstance(op, np.ndarray):
        matrix = _check_array(op, "operator matrix", (None, None))
        return (lambda X: matrix @ X), matrix.shape[1]
    if hasattr(op, "apply") and hasattr(op, "dim"):
        return op.apply, int(op.dim)
    raise ParameterError(f"cannot interpret {type(op).__name__} as a linear operator")


def materialize(op) -> np.ndarray:
    """Dense matrix of an operator: its image of the identity block, column j = op(e_j).

    Row-major whatever layout the operator returns (a rotator's block comes
    back transposed), so the oracle factorizes the same arrays as before.
    """
    func, n = _as_apply(op)
    return np.ascontiguousarray(func(np.eye(n)), dtype=float)


def oracle_resolvent(A, gamma: float) -> np.ndarray:
    """(Id + gamma*(Id - A))^{-1} by partial-pivoted linear solve.

    Raises NumericError when the solve residual exceeds its contract, which
    cannot happen for isometric A and so flags an invalid input.  The residual
    bound scales with the system norm (1 + gamma): even the exactly rounded
    inverse carries a residual of order eps * ||system||, so a flat bound
    would misfire for gamma beyond ~1e5.
    """
    M = _check_array(A, "matrix", ("n", "n"))
    gamma = _check_real(gamma, "gamma")
    n = M.shape[0]
    eye = np.eye(n)
    system = (1.0 + gamma) * eye - gamma * M
    try:
        X = np.linalg.solve(system, eye)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent system is singular: {exc}") from exc
    residual = float(np.max(np.abs(system @ X - eye)))
    allowed = RESOLVENT_RESIDUAL_TOL * (1.0 + gamma)
    if not residual <= allowed:  # NaN fails too
        raise NumericError(
            f"resolvent solve residual {residual:.3e} exceeds {allowed:.3e}"
        )
    return X


def oracle_pinv(A) -> np.ndarray:
    """Moore-Penrose inverse by SVD, zeroing singular values below DEFAULT_RANK_TOL * sigma_max."""
    M = _check_array(A, "matrix", (None, None))
    return np.linalg.pinv(M, rcond=DEFAULT_RANK_TOL)


def oracle_projector_fix(A) -> np.ndarray:
    """Orthogonal projector onto Fix A = ker(Id - A), via the SVD nullspace of Id - A.

    Only nonexpansive A are accepted (spectral norm <= 1 + 1e-8).  Singular values
    of Id - A below DEFAULT_RANK_TOL * max(1, sigma_max) count as zero; for an
    isometry of order m the nonzero ones sit above 2*sin(pi/m), far above it.
    """
    M = _check_array(A, "matrix", ("n", "n"))
    norm = float(np.linalg.norm(M, 2))
    if norm > 1.0 + NONEXPANSIVE_TOL:
        raise ValidationError(
            f"operator is not nonexpansive: spectral norm {norm:.6f} exceeds "
            f"1 + {NONEXPANSIVE_TOL:.1e}"
        )
    n = M.shape[0]
    _, s, vt = np.linalg.svd(np.eye(n) - M)
    cutoff = DEFAULT_RANK_TOL * max(1.0, float(s[0]) if s.size else 1.0)
    null_rows = vt[s <= cutoff] if s.size else vt
    if null_rows.shape[0] == 0:
        return np.zeros((n, n))
    return null_rows.T @ null_rows


def compare(
    op_a,
    op_b,
    n_samples: int = 32,
    tol: float = 1e-10,
    seed: int = 0,
    label: str = "operator comparison",
) -> ComparisonReport:
    """Apply both operators to seeded Gaussian vectors plus every basis vector.

    The samples are the columns of the (n, n_samples + n) block [G | I], applied
    in one call per operator for each chunk of columns of at most _CHUNK_ENTRIES
    entries (one chunk up to n = 346 with the default n_samples), so that the
    memory held is O(n * n_samples + _CHUNK_ENTRIES), not O(n^2).  The report
    records the max/mean of the per-sample max-abs deviations, the seed, and
    whether the max stayed within ``tol``.
    """
    func_a, n = _as_apply(op_a)
    func_b, n_b = _as_apply(op_b)
    if n != n_b:
        raise ParameterError(f"operators disagree on dimension: {n} vs {n_b}")
    n_samples = _check_int(n_samples, "n_samples", 1)
    rng = np.random.default_rng(seed)
    # row i of the draw is the i-th of n_samples consecutive standard_normal(n) calls
    gaussian = rng.standard_normal((n_samples, n)).T
    total, width = n_samples + n, max(1, _CHUNK_ENTRIES // n)
    deviations = []
    for start in range(0, total, width):
        stop = min(start + width, total)
        first = min(max(start, n_samples), stop)  # the chunk's first column of I
        # columns start..stop-1 of [G | I]
        samples = np.hstack((gaussian[:, start:first], np.eye(n, stop - first, n_samples - first)))
        gap = np.asarray(func_a(samples)) - np.asarray(func_b(samples))
        deviations.append(np.max(np.abs(gap), axis=0))
    return ComparisonReport.from_deviations(label, np.concatenate(deviations), tol, seed)
