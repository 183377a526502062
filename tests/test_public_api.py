"""The public names of the package and their parameters, pinned: a name or a
parameter joins or leaves only with an edit here."""

import inspect

import displacement_kit

PUBLIC_API = [
    "AffineSubspace",
    "ComparisonReport",
    "DisplacementKitError",
    "FiniteOrderIsometry",
    "NumericError",
    "ParameterError",
    "PolynomialOperator",
    "Trajectory",
    "ValidationError",
    "compare",
    "displacement",
    "displacement_apply",
    "ergodic_mean",
    "lipschitz_estimate",
    "make_circular_shift",
    "make_dense",
    "make_rotator",
    "materialize",
    "oracle_pinv",
    "oracle_projector_fix",
    "oracle_resolvent",
    "projector_fix",
    "projector_fix_complement",
    "proximal_point",
    "pseudo_inverse",
    "reproduce_worked_examples",
    "resolvent",
    "resolvent_coefficients",
    "resolvent_inverse",
    "run_verification",
    "series_resolvent_apply",
    "set_valued_inverse",
    "skew_part",
    "standard_instances",
    "yosida",
    "yosida_inverse",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert displacement_kit.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert getattr(displacement_kit, name) is not None


#: the parameter names of every public callable but the four error classes, which
#: take an exception's message
PUBLIC_PARAMETERS = {
    "AffineSubspace": ["point", "basis"],
    "ComparisonReport": [
        "label", "max_abs_deviation", "mean_abs_deviation", "samples", "tolerance", "passed",
        "seed",
    ],
    "FiniteOrderIsometry": ["kind", "order", "dim", "matrix"],
    "PolynomialOperator": ["operator", "coefficients"],
    "Trajectory": ["points", "residuals", "limit_estimate", "converged", "iterations_used"],
    "compare": ["op_a", "op_b", "n_samples", "tol", "seed", "label"],
    "displacement": ["R"],
    "displacement_apply": ["R", "x"],
    "ergodic_mean": ["R", "x0", "n"],
    "lipschitz_estimate": ["operator"],
    "make_circular_shift": ["m", "block_dim"],
    "make_dense": ["matrix", "m", "tol"],
    "make_rotator": ["m", "blocks"],
    "materialize": ["op"],
    "oracle_pinv": ["A"],
    "oracle_projector_fix": ["A"],
    "oracle_resolvent": ["A", "gamma"],
    "projector_fix": ["R"],
    "projector_fix_complement": ["R"],
    "proximal_point": ["R", "gamma", "x0", "max_iter", "stop_tol"],
    "pseudo_inverse": ["R"],
    "reproduce_worked_examples": ["gamma"],
    "resolvent": ["R", "gamma"],
    "resolvent_coefficients": ["m", "gamma"],
    "resolvent_inverse": ["R", "gamma"],
    "run_verification": ["seed", "max_m", "max_dim"],
    "series_resolvent_apply": ["S", "gamma", "x", "eps"],
    "set_valued_inverse": ["R", "y", "tol"],
    "skew_part": ["R"],
    "standard_instances": ["max_m", "max_dim", "seed"],
    "yosida": ["R", "gamma"],
    "yosida_inverse": ["R", "gamma"],
}


def test_public_parameters_are_pinned():
    got = {}
    for name in PUBLIC_API:
        obj = getattr(displacement_kit, name)
        if isinstance(obj, type) and issubclass(obj, displacement_kit.DisplacementKitError):
            continue
        got[name] = list(inspect.signature(obj).parameters)
    assert got == PUBLIC_PARAMETERS


#: the public methods of an isometry; a polynomial in R is evaluated by
#: PolynomialOperator.apply alone, so there is no apply_polynomial
ISOMETRY_METHODS = [
    "adjoint_apply",
    "apply",
    "apply_power",
    "eigen_multiplicities",
    "fixed_space_basis",
    "same_as",
]


def test_isometry_methods_are_pinned():
    methods = vars(displacement_kit.FiniteOrderIsometry)
    got = sorted(name for name, value in methods.items() if callable(value) and name[0] != "_")
    assert got == ISOMETRY_METHODS
    assert not hasattr(displacement_kit.make_rotator(3), "apply_polynomial")
