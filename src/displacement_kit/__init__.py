"""displacement-kit: closed-form operator calculus for displacement mappings
Id - R of linear isometries R of finite order.

The closed forms (resolvents, Yosida approximations, fixed-space projectors,
skew companion, Moore-Penrose and set-valued inverses) are all polynomials in
R and are evaluated matrix-free; an independent dense-linear-algebra oracle
verifies them at desk scale.
"""

from .errors import DisplacementKitError, NumericError, ParameterError, ValidationError
from .isometry_core import (
    FiniteOrderIsometry,
    make_circular_shift,
    make_dense,
    make_rotator,
)
from .displacement_calculus import (
    AffineSubspace,
    PolynomialOperator,
    displacement,
    displacement_apply,
    projector_fix,
    projector_fix_complement,
    pseudo_inverse,
    set_valued_inverse,
    skew_part,
)
from .resolvent_yosida import (
    resolvent,
    resolvent_coefficients,
    resolvent_inverse,
    series_resolvent_apply,
    yosida,
    yosida_inverse,
)
from .dense_oracle import (
    ComparisonReport,
    compare,
    materialize,
    oracle_pinv,
    oracle_projector_fix,
    oracle_resolvent,
)
from .iteration_lab import Trajectory, ergodic_mean, lipschitz_estimate, proximal_point
from .verification import reproduce_worked_examples, run_verification, standard_instances

__version__ = "0.1.0"

__all__ = [
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
