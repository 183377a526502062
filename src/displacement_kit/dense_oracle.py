"""Independent dense-linear-algebra verification path.

Everything here works on explicit matrices with generic factorizations
(LU solve, SVD) and never reuses the polynomial-coefficient arithmetic of the
closed-form path; agreement between the two is the library's core evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ValidationError

#: residual allowed when inverting Id + gamma*(Id - A) by direct solve
RESOLVENT_RESIDUAL_TOL = 1e-10
#: relative singular-value threshold separating zero from nonzero spectrum
DEFAULT_RANK_TOL = 1e-10
#: operator-norm slack accepted when an input must be nonexpansive (the one
#: definition; the matrix series of resolvent_yosida imports it)
NONEXPANSIVE_TOL = 1e-8


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
        worst = max(devs)
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


def _as_apply(op, dim=None):
    """Normalize an operator-shaped object to (apply_function, dimension)."""
    if isinstance(op, np.ndarray):
        if op.ndim != 2:
            raise ParameterError(f"operator matrix must be 2-d, got shape {op.shape}")
        inferred = op.shape[1]
        func = lambda x: op @ x
    elif hasattr(op, "apply") and hasattr(op, "dim"):
        func, inferred = op.apply, op.dim
    elif callable(op):
        if dim is None:
            raise ParameterError("dim is required for a bare callable operator")
        func, inferred = op, dim
    else:
        raise ParameterError(f"cannot interpret {type(op).__name__} as a linear operator")
    if dim is not None and int(dim) != int(inferred):
        raise ParameterError(f"dimension mismatch: requested {dim}, operator has {inferred}")
    return func, int(inferred)


def materialize(op, dim: int | None = None) -> np.ndarray:
    """Dense matrix of any operator: column j is the image of the j-th basis vector."""
    func, n = _as_apply(op, dim)
    eye = np.eye(n)
    return np.column_stack([np.asarray(func(eye[j]), dtype=float) for j in range(n)])


def _square(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {M.shape}")
    return M


def oracle_resolvent(A, gamma: float) -> np.ndarray:
    """(Id + gamma*(Id - A))^{-1} by partial-pivoted linear solve.

    Raises NumericError when the solve residual exceeds its contract, which
    cannot happen for isometric A and so flags an invalid input.  The residual
    bound scales with the system norm (1 + gamma): even the exactly rounded
    inverse carries a residual of order eps * ||system||, so a flat bound
    would misfire for gamma beyond ~1e5.
    """
    M = _square(A)
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ParameterError(f"gamma must be a positive finite real, got {gamma!r}")
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
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ParameterError(f"expected a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ParameterError("matrix entries must all be finite")
    return np.linalg.pinv(M, rcond=DEFAULT_RANK_TOL)


def oracle_projector_fix(A) -> np.ndarray:
    """Orthogonal projector onto Fix A = ker(Id - A), via the SVD nullspace of Id - A.

    Only nonexpansive A are accepted (spectral norm <= 1 + 1e-8).  Singular values
    of Id - A below DEFAULT_RANK_TOL * max(1, sigma_max) count as zero; for an
    isometry of order m the nonzero ones sit above 2*sin(pi/m), far above it.
    """
    M = _square(A)
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
    dim: int | None = None,
    n_samples: int = 32,
    tol: float = 1e-10,
    seed: int = 0,
    label: str = "operator comparison",
) -> ComparisonReport:
    """Apply both operators to seeded Gaussian vectors plus every basis vector.

    The report records the max/mean of the per-sample max-abs deviations, the
    seed, and whether the max stayed within ``tol``.
    """
    func_a, n = _as_apply(op_a, dim)
    func_b, n_b = _as_apply(op_b, dim)
    if n != n_b:
        raise ParameterError(f"operators disagree on dimension: {n} vs {n_b}")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    samples = [rng.standard_normal(n) for _ in range(n_samples)]
    eye = np.eye(n)
    samples.extend(eye[j] for j in range(n))
    deviations = [
        float(np.max(np.abs(np.asarray(func_a(v)) - np.asarray(func_b(v))))) for v in samples
    ]
    return ComparisonReport.from_deviations(label, deviations, tol, seed)
