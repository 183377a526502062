"""The result contract: finite floats, or NumericError when a result overflows."""

import numpy as np
import pytest

from displacement_kit import (
    AffineSubspace,
    NumericError,
    PolynomialOperator,
    Trajectory,
    displacement,
    displacement_apply,
    ergodic_mean,
    make_circular_shift,
    make_rotator,
    materialize,
    projector_fix,
    projector_fix_complement,
    proximal_point,
    pseudo_inverse,
    resolvent,
    resolvent_inverse,
    series_resolvent_apply,
    set_valued_inverse,
    skew_part,
    yosida,
    yosida_inverse,
)
from displacement_kit.isometry_core import SHIFT_CIRCULANT_MAX_ORDER
from displacement_kit.verification import conjugated_dense

MAX = np.finfo(float).max
C = np.sqrt(0.5)
SHIFT_2 = make_circular_shift(2)
OP = PolynomialOperator(SHIFT_2, [1e308, 0.0])


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: displacement_apply(SHIFT_2, [1.5e308, -1.5e308]),
        lambda: series_resolvent_apply([[C, -C], [C, C]], 1.0, [1.5e308, 1.5e308], 1e-12),
        lambda: PolynomialOperator(SHIFT_2, [1e308, 1e308]).operator_norm(),
        lambda: AffineSubspace([1e308, 1e308], [[C, C]]).element([1.5e308]),
        lambda: OP + OP,
        lambda: resolvent(SHIFT_2, 1e-3).apply([MAX, MAX]),
        lambda: resolvent(SHIFT_2, 1e-3) @ PolynomialOperator(SHIFT_2, [MAX, MAX]),
    ],
    ids=["displacement", "matrix series", "norm", "element", "sum", "resolvent", "compose"],
)
def test_an_overflowed_result_raises(evaluate):
    # the first four used to return [inf, -inf], [nan, nan], inf and [inf, inf]; the
    # sum and the compose raised ParameterError on coefficients the caller never
    # passed; and the resolvent, whose sum |c_k| = 1 skipped its check, rounded
    # (max, max) to (inf, inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            evaluate()


_RNG = np.random.default_rng(22)
KINDS = [
    make_rotator(8, 2),
    make_rotator(3),
    make_circular_shift(3, 2),
    make_circular_shift(SHIFT_CIRCULANT_MAX_ORDER + 2),
    conjugated_dense(make_circular_shift(4), _RNG),
    conjugated_dense(make_rotator(3, 2), _RNG),
]
FAMILIES = [displacement, projector_fix, projector_fix_complement, skew_part, pseudo_inverse]
GAMMA_FAMILIES = [resolvent, resolvent_inverse, yosida, yosida_inverse]
GAMMAS = (1e-3, 1.0, 30.0)  # the matrix series at 30 sums about 850 terms


def _near_max(n):
    """Operands at and near +-MAX: constant, alternating, random, and one spike."""
    signs = _RNG.choice([-1.0, 1.0], n)
    return [
        np.full(n, MAX),
        np.where(np.arange(n) % 2, MAX, -MAX),
        np.full(n, 0.75 * MAX),
        signs * MAX * _RNG.uniform(0.5, 1.0, n),
        np.r_[MAX, np.zeros(n - 1)],
    ]


def _evaluations(R):
    """(name, call) for every public evaluation on R, at operands near the float maximum."""
    operators = [f(R) for f in FAMILIES] + [f(R, g) for f in GAMMA_FAMILIES for g in GAMMAS]
    A = materialize(R)
    for x in _near_max(R.dim):
        yield "apply", lambda: R.apply(x)
        for k in {*range(min(R.order, 8)), R.order - 1}:
            yield f"apply_power {k}", lambda: R.apply_power(k, x)
        yield "adjoint_apply", lambda: R.adjoint_apply(x)
        for F in operators:
            yield f"{F!r}.apply", lambda: F.apply(x)
        yield "displacement_apply", lambda: displacement_apply(R, x)
        yield "set_valued_inverse", lambda: set_valued_inverse(R, x)
        for g in GAMMAS:
            yield f"series {g}", lambda: series_resolvent_apply(R, g, x, 1e-12)
            yield f"matrix series {g}", lambda: series_resolvent_apply(A, g, x, 1e-12)
            yield f"proximal_point {g}", lambda: proximal_point(R, g, x, max_iter=20)
        for n in (1, 2, 3, R.order, 2 * R.order + 1):
            yield f"ergodic_mean {n}", lambda: ergodic_mean(R, x, n)
        with np.errstate(all="ignore"):
            try:
                solutions = set_valued_inverse(R, x)
            except NumericError:
                solutions = None
        if solutions is not None and solutions.degrees_of_freedom:
            for w in _near_max(solutions.degrees_of_freedom):
                yield "element", lambda: solutions.element(w)
    for c in _near_max(R.order):
        P = PolynomialOperator(R, c)
        yield "operator_norm", P.operator_norm
        yield "compose", lambda: P @ P
        yield "add", lambda: P + P
        yield "sub", lambda: P - (-P)
        yield "mul", lambda: P * 3.0
        for F in operators:
            yield f"compose {F!r}", lambda: F @ P
            yield f"compose with {F!r}", lambda: P @ F


def _values(out):
    """The floats of a result, whatever its type."""
    if isinstance(out, PolynomialOperator):
        return out.coefficients
    if isinstance(out, AffineSubspace):
        return out.point
    if isinstance(out, Trajectory):
        return np.r_[np.ravel(out.points), out.residuals]
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize("R", KINDS, ids=lambda R: f"{R.kind}-m{R.order}-n{R.dim}")
def test_every_evaluation_near_the_float_maximum_is_finite_or_refused(R):
    failures = []
    with np.errstate(all="ignore"):
        for name, evaluate in _evaluations(R):
            try:
                out = evaluate()
            except NumericError:
                continue
            if out is not None and not np.isfinite(_values(out)).all():
                failures.append(name)
    assert failures == []
