"""Named invariant battery: every closed form cross-checked against the dense oracle.

`run_verification` aggregates each named invariant over a grid of instances
(all three operator kinds, orders 2..8, dimensions up to 64) and returns one
ComparisonReport per invariant.  Each section draws its sample vectors as one
(n, k) block per instance and runs every invariant on the first column through
the 1-d API and on the other columns as one block.  `reproduce_worked_examples`
re-derives the tabulated small-instance matrices and diffs them against the
coefficient machinery.
"""

from __future__ import annotations

import numpy as np

from .dense_oracle import (
    ComparisonReport,
    materialize,
    oracle_pinv,
    oracle_projector_fix,
    oracle_resolvent,
)
from .displacement_calculus import (
    PolynomialOperator,
    displacement,
    displacement_apply,
    projector_fix,
    projector_fix_complement,
    pseudo_inverse,
    set_valued_inverse,
    skew_part,
)
from .isometry_core import (
    FiniteOrderIsometry,
    _check_int,
    make_circular_shift,
    make_dense,
    make_rotator,
)
from .iteration_lab import ergodic_mean, lipschitz_estimate, proximal_point
from .resolvent_yosida import (
    resolvent,
    resolvent_coefficients,
    resolvent_inverse,
    series_resolvent_apply,
    yosida,
    yosida_inverse,
)
from .worked_examples import reference_cases

GAMMA_GRID = (0.01, 1.0, 100.0)
LIPSCHITZ_GAMMAS = (0.1, 1.0, 10.0)

OPERATOR_BUILDERS = {
    "resolvent": resolvent,
    "resolvent_inverse": resolvent_inverse,
    "yosida": yosida,
    "yosida_inverse": yosida_inverse,
}


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def conjugated_dense(iso: FiniteOrderIsometry, rng: np.random.Generator) -> FiniteOrderIsometry:
    """A dense-kind copy of ``iso`` hidden behind a random orthogonal change of basis."""
    q = random_orthogonal(iso.dim, rng)
    return make_dense(q @ materialize(iso) @ q.T, iso.order)


def standard_instances(max_m: int = 8, max_dim: int = 64, seed: int = 7) -> list:
    """Instance grid covering every kind for each order, with sizes up to max_dim."""
    max_m = _check_int(max_m, "max_m", 2)
    max_dim = _check_int(max_dim, "max_dim", 1)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    instances = []
    for m in range(2, max_m + 1):
        instances.append(make_rotator(m))
        if max_dim >= 4:
            instances.append(make_rotator(m, max_dim // 2))
        instances.append(make_circular_shift(m))
        if max_dim // m > 1:
            instances.append(make_circular_shift(m, max_dim // m))
        instances.append(conjugated_dense(make_circular_shift(m), rng))
    instances.append(conjugated_dense(make_rotator(3, 2), rng))
    instances.append(conjugated_dense(make_rotator(4), rng))
    return instances


def skew_part_folded(R: FiniteOrderIsometry) -> PolynomialOperator:
    """Alternate half-range form of :func:`skew_part`, pairing R^k with R^{m-k}.

    Used as a cross-check; the two coefficient vectors agree exactly.
    """
    m = R.order
    c = np.zeros(m)
    for k in range(1, m // 2 + 1):
        w = (m - 2 * k) / (2 * m)
        c[k] += w
        c[(m - k) % m] -= w
    return PolynomialOperator(R, c)


def repeated_apply(R: FiniteOrderIsometry, k: int, x) -> np.ndarray:
    """R^k x by k calls of R.apply: a reference that does not go through apply_power."""
    for _ in range(k):
        x = R.apply(x)
    return x


def _unit_block(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` Gaussian unit vectors as the columns of a (dim, count) block; the
    draws are those of ``count`` consecutive ``standard_normal(dim)`` calls."""
    block = rng.standard_normal((count, dim)).T
    return block / np.linalg.norm(block, axis=0)


def _vector_then_block(block: np.ndarray) -> tuple:
    """The first column as a 1-d vector, then the other columns as one block: each
    invariant runs once through the 1-d API and through the block API for the rest."""
    return block[:, 0], block[:, 1:]


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _column_max_abs(a) -> np.ndarray:
    """max |a| per column of a block; a scalar for a vector."""
    return np.max(np.abs(a), axis=0)


def _column_dot(a, b) -> np.ndarray:
    """<a_j, b_j> per column of two blocks; a scalar for two vectors."""
    return np.sum(a * b, axis=0)


#: entrywise tolerance of :func:`reproduce_worked_examples`
WORKED_EXAMPLE_TOL = 1e-12


def reproduce_worked_examples(gamma: float = 1.0) -> list:
    """Materialize the four operator families on the tabulated small instances
    and diff them entrywise against the closed-form reference matrices."""
    results = []
    for case in reference_cases(gamma):
        if case["kind"] == "rotator":
            R = make_rotator(case["m"])
        else:
            R = make_circular_shift(case["m"])
        ours = materialize(OPERATOR_BUILDERS[case["operator"]](R, gamma))
        dev = _max_abs(ours - case["matrix"])
        results.append(
            {
                "kind": case["kind"],
                "m": case["m"],
                "operator": case["operator"],
                "gamma": float(gamma),
                "max_abs_deviation": dev,
                "tolerance": WORKED_EXAMPLE_TOL,
                "pass": dev <= WORKED_EXAMPLE_TOL,
                "matrix": ours,
            }
        )
    return results


def run_verification(seed: int = 0, max_m: int = 8, max_dim: int = 64) -> list:
    """Run every named invariant over the standard grid; one report per invariant."""
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    instances = standard_instances(max_m=max_m, max_dim=max_dim, seed=seed + 7)
    reports: list = []

    def add(label, deviations, tol):
        # each entry is one sample's deviation or the column deviations of a block
        flat = np.hstack(deviations).tolist() if deviations else []
        reports.append(ComparisonReport.from_deviations(label, flat, tol, seed))

    # --- isometry invariants --------------------------------------------
    norm_devs, order_devs, adjoint_devs, adjoint_power_devs, power_devs = [], [], [], [], []
    for R in instances:
        X = _unit_block(rng, R.dim, 16)
        Y = rng.standard_normal((16, R.dim)).T
        for x, y in zip(_vector_then_block(X), _vector_then_block(Y)):
            rx = R.apply(x)
            norm_devs.append(np.abs(np.linalg.norm(rx, axis=0) - np.linalg.norm(x, axis=0)))
            order_devs.append(_column_max_abs(repeated_apply(R, R.order, x) - x))
            adjoint_devs.append(np.abs(_column_dot(rx, y) - _column_dot(x, R.adjoint_apply(y))))
            adjoint_power_devs.append(
                _column_max_abs(R.adjoint_apply(x) - repeated_apply(R, R.order - 1, x))
            )
        mat = materialize(R)
        eye = np.eye(R.dim)
        acc = eye
        for k in range(R.order):
            # R^k on the identity block is the matrix of apply_power(k, .), in one call
            power_devs.append(_max_abs(acc - R.apply_power(k, eye)))
            acc = mat @ acc
    add("isometry preserves norms", norm_devs, 1e-12)
    add("certified order: R^m = Id", order_devs, 1e-12)
    add("adjoint pairing <Rx,y> = <x,R*y>", adjoint_devs, 1e-12)
    add("adjoint equals the (m-1)-th power", adjoint_power_devs, 1e-12)
    add("materialized powers match apply_power", power_devs, 1e-12)

    # --- projector / skew / pseudoinverse calculus -----------------------
    proj_split, proj_matrix, kernel_devs, skew_matrix, folded_devs = [], [], [], [], []
    double_disp, mp_axioms, range_products, pinv_oracle, proj_oracle = [], [], [], [], []
    basis_oracle, fix_oracles = [], []
    commute_devs, strong_mono, skew_neutral, solve_devs, minv_cross = [], [], [], [], []
    for R in instances:
        proj = projector_fix(R)
        comp = projector_fix_complement(R)
        skew = skew_part(R)
        pinv = pseudo_inverse(R)
        m_mat = materialize(displacement(R))
        p_mat = materialize(proj)
        t_mat = materialize(skew)
        d_mat = materialize(pinv)
        eye = np.eye(R.dim)

        proj_matrix.append(_max_abs(p_mat @ p_mat - p_mat))
        proj_matrix.append(_max_abs(p_mat.T - p_mat))
        skew_matrix.append(_max_abs(t_mat.T + t_mat))
        skew_matrix.append(_max_abs((eye - p_mat) @ t_mat - t_mat))
        folded_devs.append(_max_abs(t_mat - materialize(skew_part_folded(R))))
        mp_axioms.append(_max_abs(m_mat @ d_mat @ m_mat - m_mat))
        mp_axioms.append(_max_abs(d_mat @ m_mat @ d_mat - d_mat))
        mp_axioms.append(_max_abs((m_mat @ d_mat).T - m_mat @ d_mat))
        mp_axioms.append(_max_abs((d_mat @ m_mat).T - d_mat @ m_mat))
        range_products.append(_max_abs(m_mat @ d_mat - (eye - p_mat)))
        range_products.append(_max_abs(d_mat @ m_mat - (eye - p_mat)))
        pinv_oracle.append(_max_abs(d_mat - oracle_pinv(m_mat)))
        fix_oracle = oracle_projector_fix(materialize(R))
        fix_oracles.append(fix_oracle)
        proj_oracle.append(_max_abs(p_mat - fix_oracle))
        basis = R.fixed_space_basis()
        basis_oracle.append(_max_abs(basis.T @ basis - fix_oracle))

        extra = PolynomialOperator(R, rng.standard_normal(R.order))
        for a, b in ((proj, skew), (skew, pinv), (pinv, extra), (extra, proj)):
            commute_devs.append(_max_abs(materialize(a @ b) - materialize(b @ a)))

        X = _unit_block(rng, R.dim, 16)
        # row j holds the j-th second point, then the j-th weights of the solution set
        draws = rng.standard_normal((16, R.dim + basis.shape[0]))
        Y1 = comp.apply(X)
        Y2 = comp.apply(draws[:, : R.dim].T)
        for x, y1, y2 in zip(*map(_vector_then_block, (X, Y1, Y2))):
            px = proj.apply(x)
            proj_split.append(_column_max_abs(px + comp.apply(x) - x))
            proj_split.append(
                np.abs(
                    np.linalg.norm(px, axis=0) ** 2
                    + np.linalg.norm(y1, axis=0) ** 2
                    - np.linalg.norm(x, axis=0) ** 2
                )
            )
            kernel_devs.append(_column_max_abs(displacement_apply(R, px)))
            kernel_devs.append(_column_max_abs(proj.apply(displacement_apply(R, x))))
            double_disp.append(
                _column_max_abs(
                    displacement_apply(R, 2.0 * skew.apply(displacement_apply(R, x)))
                    - (x - R.apply_power(2, x))
                )
            )
            # solution-set behaviour on the range of the displacement
            dy = y1 - y2
            gap = pinv.apply(y1) - pinv.apply(y2)
            strong_mono.append(np.maximum(0.0, 0.5 * _column_dot(dy, dy) - _column_dot(gap, dy)))
            skew_neutral.append(np.abs(_column_dot(skew.apply(y1), y1)))
            minv_cross.append(
                _column_max_abs(comp.apply(pinv.apply(y1) - 0.5 * y1 - skew.apply(y1)))
            )
        for y1, weights in zip(Y1.T, draws[:, R.dim :]):  # the solver takes one vector
            solution = set_valued_inverse(R, y1)
            if solution is None:
                solve_devs.append(1.0)
                continue
            solve_devs.append(_max_abs(displacement_apply(R, solution.point) - y1))
            if solution.degrees_of_freedom:
                solve_devs.append(_max_abs(displacement_apply(R, solution.element(weights)) - y1))
    add("fixed projector + complement reconstruct Id (with Pythagoras)", proj_split, 1e-10)
    add("fixed projector is symmetric idempotent", proj_matrix, 1e-10)
    add("displacement kernel equals fixed space", kernel_devs, 1e-10)
    add("skew companion is skew with range in the complement", skew_matrix, 1e-10)
    add("skew companion folded form matches", folded_devs, 1e-12)
    add("double displacement identity M(2T(x-Rx)) = x - R^2 x", double_disp, 1e-10)
    add("Moore-Penrose axioms for the displacement", mp_axioms, 1e-10)
    add("pseudoinverse products give the range projector", range_products, 1e-10)
    add("pseudoinverse matches the SVD oracle", pinv_oracle, 1e-9)
    add("fixed projector matches the nullspace oracle", proj_oracle, 1e-9)
    add("fixed-space basis spans the nullspace oracle", basis_oracle, 1e-9)
    add("polynomial operators commute", commute_devs, 1e-10)
    add("set-valued inverse is 1/2-strongly monotone", strong_mono, 1e-10)
    add("skew companion contributes no symmetric part", skew_neutral, 1e-10)
    add("set-valued inverse solves the displacement equation", solve_devs, 1e-9)
    add("minimum-norm point matches the half-plus-skew form", minv_cross, 1e-10)

    # --- resolvent / Yosida invariants ------------------------------------
    res_oracle, res_equation, res_norm, firm_devs, inv_identity = [], [], [], [], []
    inv_inclusion, yosida_consistency, yosida_sum, series_devs, block_devs = [], [], [], [], []
    for R in instances:
        mat = materialize(R)
        proj = projector_fix(R)
        for gamma in GAMMA_GRID:
            res_poly = resolvent(R, gamma)
            res_reciprocal = resolvent(R, 1.0 / gamma)
            inv_poly = resolvent_inverse(R, gamma)
            yosida_poly = yosida(R, gamma)
            yosida_inv_poly = yosida_inverse(R, gamma)
            res_mat = materialize(res_poly)
            res_oracle.append(_max_abs(res_mat - oracle_resolvent(mat, gamma)))
            res_norm.append(max(0.0, float(np.linalg.norm(res_mat, 2)) - 1.0))
            yosida_sum.append(
                abs(gamma * float(np.sum(yosida_inv_poly.coefficients)) - 1.0)
            )
            for x in _vector_then_block(_unit_block(rng, R.dim, 2)):
                series_devs.append(
                    _column_max_abs(series_resolvent_apply(R, gamma, x, 1e-12) - res_poly.apply(x))
                )
            X = _unit_block(rng, R.dim, 8)
            D = X - rng.standard_normal((8, R.dim)).T
            D /= np.linalg.norm(D, axis=0)
            for op in (R, res_poly, inv_poly, yosida_poly, yosida_inv_poly):
                # in units of sum |c_k| >= ||p(R)||, which the rounding scales with (1 for R)
                scale = 1.0 if op is R else float(np.sum(np.abs(op.coefficients)))
                columns = np.column_stack([op.apply(x) for x in X.T])
                block_devs.append(_column_max_abs(op.apply(X) - columns) / scale)
            for x, d in zip(_vector_then_block(X), _vector_then_block(D)):
                jx = res_poly.apply(x)
                res_equation.append(_column_max_abs(jx + gamma * displacement_apply(R, jx) - x))
                for image in (res_poly.apply(d), inv_poly.apply(d)):
                    firm_devs.append(
                        np.maximum(0.0, _column_dot(image, image) - _column_dot(d, image))
                    )
                z = inv_poly.apply(x)
                inv_identity.append(_column_max_abs(z + res_reciprocal.apply(x) - x))
                inv_inclusion.append(
                    _column_max_abs(displacement_apply(R, (x - z) / gamma) - z)
                )
                inv_inclusion.append(_column_max_abs(proj.apply(z)))
                yosida_consistency.append(
                    _column_max_abs(gamma * yosida_poly.apply(x) + jx - x)
                )
                yosida_consistency.append(
                    _column_max_abs(gamma * yosida_inv_poly.apply(x) - res_reciprocal.apply(x))
                )
    add("resolvent matches the linear-solve oracle", res_oracle, 1e-10)
    add("resolvent equation (Id + gamma M) J = Id", res_equation, 1e-10)
    add("resolvent operator norm at most 1", res_norm, 1e-10)
    add("firm nonexpansiveness of both resolvents", firm_devs, 1e-10)
    add("inverse resolvent complements the 1/gamma resolvent", inv_identity, 1e-14)
    add("inverse resolvent solves its inclusion", inv_inclusion, 1e-10)
    add("Yosida approximations are consistent with resolvents", yosida_consistency, 1e-12)
    add("inverse Yosida coefficients sum to 1/gamma", yosida_sum, 1e-12)
    add("series resolvent matches the closed form", series_devs, 1e-11)
    add("block apply equals column-by-column apply", block_devs, 1e-14)  # units of sum |c_k|

    # --- coefficient simplex over extreme gamma ----------------------------
    simplex_devs = []
    for m in range(2, max_m + 1):
        for gamma in np.logspace(-8, 8, 33):
            c = resolvent_coefficients(m, float(gamma))
            well_formed = bool(np.all(np.isfinite(c))) and bool(np.all(c > 0))
            simplex_devs.append(abs(float(np.sum(c)) - 1.0) if well_formed else 1.0)
    add("resolvent coefficients stay in the simplex", simplex_devs, 1e-14)

    # --- asymptotics --------------------------------------------------------
    small_gamma, large_gamma, oracle_limits = [], [], []
    for R, fix_oracle in zip(instances, fix_oracles):
        mat = materialize(R)
        proj = projector_fix(R)
        near_zero = [(gamma, resolvent(R, gamma)) for gamma in (1e-3, 1e-5)]
        near_infinity = [(gamma, resolvent(R, gamma)) for gamma in (1e3, 1e5)]
        oracle_limits.append(_max_abs(oracle_resolvent(mat, 1e-6) - np.eye(R.dim)))
        oracle_limits.append(_max_abs(oracle_resolvent(mat, 1e6) - fix_oracle))
        for x in _vector_then_block(_unit_block(rng, R.dim, 4)):
            px = proj.apply(x)
            for gamma, res in near_zero:
                small_gamma.append(_column_max_abs(res.apply(x) - x) / gamma)
            for gamma, res in near_infinity:
                large_gamma.append(np.linalg.norm(res.apply(x) - px, axis=0) * gamma / R.order)
    add("resolvent nears identity for small gamma (units of gamma)", small_gamma, 5.0)
    add("resolvent nears fixed projector for large gamma (units of m/gamma)", large_gamma, 5.0)
    add("oracle resolvent limits at extreme gamma", oracle_limits, 1e-4)

    # --- contraction constants ----------------------------------------------
    contraction, sharpness, no_contraction, symbol_norms = [], [], [], []
    for R in instances:
        for gamma in LIPSCHITZ_GAMMAS:
            bound = 2.0 / (2.0 + gamma)
            inverse = resolvent_inverse(R, gamma)
            lip = lipschitz_estimate(inverse)
            contraction.append(max(0.0, lip - bound))
            checked = [inverse]
            if R.kind == "rotator" and R.order == 2:
                sharpness.append(abs(lip - bound))
            if R.kind == "circular_shift":
                checked.append(resolvent(R, gamma))
                lip_fwd = lipschitz_estimate(checked[-1])
                no_contraction.append(max(0.0, 1.0 - lip_fwd))
            for op in checked:
                svd_norm = float(np.linalg.norm(materialize(op), 2))
                symbol_norms.append(abs(op.operator_norm() - svd_norm))
    add("inverse resolvent contracts with constant 2/(2+gamma)", contraction, 1e-8)
    add("contraction constant is attained by the order-2 rotator", sharpness, 1e-8)
    add("resolvent is not a contraction when the fixed space is nontrivial", no_contraction, 1e-12)
    add("operator norm from the symbol matches the SVD norm", symbol_norms, 1e-10)

    # --- iteration dynamics ----------------------------------------------------
    fejer, ergodic_devs, prox_devs = [], [], []
    for R, fix_oracle in zip(instances, fix_oracles):
        proj = projector_fix(R)
        x0 = rng.standard_normal(R.dim)
        target = proj.apply(x0)
        trajectory = proximal_point(R, 1.0, x0, max_iter=10_000, stop_tol=1e-14)
        distances = [float(np.linalg.norm(p - target)) for p in trajectory.points]
        fejer.extend(max(0.0, after - before) for before, after in zip(distances, distances[1:]))
        prox_devs.append(float(np.linalg.norm(trajectory.limit_estimate - target)))
        # against the oracle: at N = 64m the folded mean has the projector's coefficients
        ergodic_devs.append(_max_abs(ergodic_mean(R, x0, 64 * R.order) - fix_oracle @ x0))
    add("proximal iterates are Fejer monotone", fejer, 1e-12)
    add("ergodic mean at 64m recovers the fixed projector", ergodic_devs, 1e-10)
    add("proximal point converges to the projected start", prox_devs, 1e-8)

    # --- worked examples ----------------------------------------------------------
    example_devs = [
        row["max_abs_deviation"] for g in (0.5, 1.0, 2.0) for row in reproduce_worked_examples(g)
    ]
    add("tabulated small-instance matrices are reproduced", example_devs, 1e-12)

    return reports
