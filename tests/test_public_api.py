"""The public names of the package, pinned: a name leaves only with an edit here."""

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
