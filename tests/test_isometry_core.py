"""Constructors, certification, and apply paths for finite-order isometries."""

import numpy as np
import pytest

from displacement_kit import (
    AffineSubspace,
    FiniteOrderIsometry,
    NumericError,
    ParameterError,
    PolynomialOperator,
    ValidationError,
    ergodic_mean,
    make_circular_shift,
    make_dense,
    make_rotator,
    materialize,
    oracle_pinv,
    oracle_projector_fix,
    oracle_resolvent,
    proximal_point,
    resolvent_coefficients,
    series_resolvent_apply,
    set_valued_inverse,
)
from displacement_kit.verification import (
    conjugated_dense,
    random_orthogonal,
    repeated_apply,
    standard_instances,
)


def rotation_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def shift_matrix(m, d=1):
    # independent construction: permutation of blocks via a Kronecker product
    perm = np.zeros((m, m))
    for i in range(m):
        perm[i, (i - 1) % m] = 1.0
    return np.kron(perm, np.eye(d))


INSTANCES = standard_instances(max_m=6, max_dim=12, seed=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("R", [make_rotator(3), make_circular_shift(2)], ids=lambda R: R.kind)
def test_apply_rejects_non_finite_vector(R, bad):
    x = np.zeros(R.dim)
    x[1] = bad
    with pytest.raises(ParameterError):
        R.apply(x)


def test_rotator_half_turn_negates():
    R = make_rotator(2)
    np.testing.assert_allclose(R.apply([1.0, 0.0]), [-1.0, 0.0], atol=1e-15)


def test_rotator_quarter_turn():
    R = make_rotator(4)
    np.testing.assert_allclose(R.apply([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_rotator_order_three_roundtrip():
    # oracle: compose three explicit 2x2 rotation matrices numerically
    single = rotation_matrix(2 * np.pi / 3)
    oracle = single @ single @ single
    x = np.array([0.3, -0.7])
    R = make_rotator(3)
    out = R.apply(R.apply(R.apply(x)))
    np.testing.assert_allclose(out, oracle @ x, atol=1e-15)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_rotator_blocks_rotate_independently():
    R = make_rotator(4, blocks=2)
    np.testing.assert_allclose(
        R.apply([1.0, 0.0, 0.0, 2.0]), [0.0, 1.0, -2.0, 0.0], atol=1e-15
    )


def test_shift_basic():
    R = make_circular_shift(3)
    np.testing.assert_allclose(R.apply([1.0, 2.0, 3.0]), [3.0, 1.0, 2.0])


def test_shift_block_swap():
    R = make_circular_shift(2, block_dim=2)
    np.testing.assert_allclose(R.apply([1.0, 2.0, 3.0, 4.0]), [3.0, 4.0, 1.0, 2.0])


def test_shift_order_two_roundtrip():
    R = make_circular_shift(2)
    np.testing.assert_allclose(R.apply(R.apply([5.0, 7.0])), [5.0, 7.0])


def test_shift_matches_permutation_matrix():
    R = make_circular_shift(4, block_dim=3)
    np.testing.assert_allclose(materialize(R), shift_matrix(4, 3))


def test_power_reduced_mod_order():
    R = make_circular_shift(3)
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(R.apply_power(5, x), R.apply_power(2, x))
    np.testing.assert_allclose(R.apply_power(2, x), [2.0, 3.0, 1.0])
    np.testing.assert_allclose(R.apply_power(0, x), x)


def test_adjoint_rotator_quarter_turn():
    R = make_rotator(4)
    np.testing.assert_allclose(R.adjoint_apply([1.0, 0.0]), [0.0, -1.0], atol=1e-15)


def test_dense_accepts_identity():
    R = make_dense(np.eye(3), 2, 1e-12)
    assert R.kind == "dense" and R.order == 2 and R.dim == 3


def test_dense_accepts_quarter_rotation():
    R = make_dense([[0.0, -1.0], [1.0, 0.0]], 4, 1e-12)
    np.testing.assert_allclose(R.apply([1.0, 0.0]), [0.0, 1.0])


def test_dense_rejects_non_isometry():
    with pytest.raises(ValidationError, match="isometry"):
        make_dense([[2.0, 0.0], [0.0, 1.0]], 2, 1e-12)


def test_dense_rejects_wrong_order():
    # A^m goes through the square at every m: the same message at odd and even m
    quarter = [[0.0, -1.0], [1.0, 0.0]]
    third = rotation_matrix(2 * np.pi / 3)
    for matrix, m, deviation in [
        (quarter, 2, "2.000e+00"),  # A^2 = -I
        (quarter, 3, "1.000e+00"),  # A^3 = A^T
        (quarter, 5, "1.000e+00"),  # A^5 = A
        (third, 4, "1.500e+00"),  # A^4 = A, cos(2*pi/3) - 1 = -1.5
        (third, 5, "1.500e+00"),  # A^5 = A^T
    ]:
        with pytest.raises(ValidationError) as info:
            make_dense(matrix, m, 1e-12)
        assert str(info.value) == (
            f"order check failed: max|A^{m} - I| = {deviation} exceeds tol = 1.0e-12"
        )


def test_dense_rejects_non_square():
    with pytest.raises(ParameterError):
        make_dense(np.ones((2, 3)), 2)


@pytest.mark.parametrize("bad_m", [1, 0, -2, 2.5, "3"])
def test_rotator_rejects_bad_order(bad_m):
    with pytest.raises(ParameterError):
        make_rotator(bad_m)


def test_rotator_rejects_bad_blocks():
    with pytest.raises(ParameterError):
        make_rotator(3, blocks=0)


def test_shift_rejects_bad_block_dim():
    with pytest.raises(ParameterError):
        make_circular_shift(3, block_dim=-1)


def test_apply_rejects_dimension_mismatch():
    R = make_rotator(3)
    with pytest.raises(ParameterError, match="dimension"):
        R.apply([1.0, 2.0, 3.0])


def test_apply_power_rejects_negative_power():
    R = make_rotator(3)
    with pytest.raises(ParameterError):
        R.apply_power(-1, [1.0, 0.0])


SHIFT3 = make_circular_shift(3)
NAN_2X2 = np.array([[np.nan, 0.0], [0.0, 1.0]])
BAD_ARGUMENTS = {  # (call, name in the message); bool is no integer and no real here
    "order=True": (lambda: make_rotator(True), "order"),
    "blocks=True": (lambda: make_rotator(3, blocks=True), "blocks"),
    "blocks=2.0": (lambda: make_rotator(3, blocks=2.0), "blocks"),
    "block_dim=True": (lambda: make_circular_shift(3, block_dim=True), "block_dim"),
    "power=True": (lambda: SHIFT3.apply_power(True, [1.0, 2.0, 3.0]), "power"),
    "n=True": (lambda: ergodic_mean(SHIFT3, [1.0, 2.0, 3.0], True), "n"),
    "max_iter=True": (
        lambda: proximal_point(SHIFT3, 1.0, [1.0, 0.0, 0.0], max_iter=True),
        "max_iter",
    ),
    "dense tol=inf": (lambda: make_dense([[2.0, 0.0], [0.0, 3.0]], 2, tol=np.inf), "tol"),
    "dense tol=nan": (lambda: make_dense(np.eye(2), 2, tol=np.nan), "tol"),
    "solve tol=inf": (lambda: set_valued_inverse(SHIFT3, [1.0, 1.0, 1.0], tol=np.inf), "tol"),
    "eps=True": (lambda: series_resolvent_apply(SHIFT3, 1.0, [1.0, 0.0, 0.0], True), "eps"),
    "stop_tol=True": (
        lambda: proximal_point(SHIFT3, 1.0, [1.0, 0.0, 0.0], stop_tol=True),
        "stop_tol",
    ),
    "stop_tol=inf": (
        lambda: proximal_point(SHIFT3, 1.0, [1.0, 0.0, 0.0], stop_tol=np.inf),
        "stop_tol",
    ),
    "gamma=True": (lambda: resolvent_coefficients(3, True), "gamma"),
    "gamma='1'": (lambda: resolvent_coefficients(3, "1"), "gamma"),
    # arrays, and the scalars of the oracle: several used to raise numpy's
    # LinAlgError or ValueError, or to return NaN
    "series on a NaN matrix": (
        lambda: series_resolvent_apply(NAN_2X2, 1.0, [1.0, 0.0], 1e-12),
        "series operator",
    ),
    "series on a non-square matrix": (
        lambda: series_resolvent_apply(np.ones((2, 3)), 1.0, [1.0, 0.0], 1e-12),
        "series operator",
    ),
    "oracle projector of a NaN matrix": (lambda: oracle_projector_fix(NAN_2X2), "matrix"),
    "oracle resolvent of a NaN matrix": (lambda: oracle_resolvent(NAN_2X2, 1.0), "matrix"),
    "oracle resolvent gamma=True": (lambda: oracle_resolvent(np.eye(2), True), "gamma"),
    "oracle resolvent gamma='1'": (lambda: oracle_resolvent(np.eye(2), "1"), "gamma"),
    "oracle pinv of a vector": (lambda: oracle_pinv(np.ones(3)), "matrix"),
    "oracle pinv of strings": (lambda: oracle_pinv([["a", "b"]]), "matrix"),
    "point with NaN": (lambda: AffineSubspace(point=[np.nan, 1.0]), "point"),
    "point as a matrix": (lambda: AffineSubspace(point=np.eye(2)), "point"),
    "weights with NaN": (
        lambda: AffineSubspace(point=[0.0, 0.0], basis=[[1.0, 0.0]]).element([np.nan]),
        "weights",
    ),
    "dense ragged rows": (lambda: make_dense([[1.0, 0.0], [0.0]], 2), "matrix"),
    "dense with inf": (lambda: make_dense([[np.inf, 0.0], [0.0, 1.0]], 2), "matrix"),
    "dense complex": (lambda: make_dense(1j * np.eye(2), 2), "matrix"),
    "dense 0 x 0": (lambda: make_dense(np.zeros((0, 0)), 2), "matrix"),
    "oracle resolvent 0 x 0": (lambda: oracle_resolvent(np.zeros((0, 0)), 1.0), "matrix"),
    "coefficients too short": (lambda: PolynomialOperator(SHIFT3, [1.0, 0.0]), "coefficients"),
    "coefficients with NaN": (
        lambda: SHIFT3.apply_polynomial([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
        "coefficients",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS, ids=str)
def test_argument_checks_reject_bool_and_non_finite(case):
    call, name = BAD_ARGUMENTS[case]
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        call()


def test_argument_checks_accept_numpy_scalars():
    R = make_rotator(np.int64(3), blocks=np.int32(2))
    assert R.dim == 4
    assert make_dense(np.eye(2), 2, tol=np.float32(1e-6)).dim == 2
    np.testing.assert_allclose(resolvent_coefficients(2, np.float64(1.0)), [2 / 3, 1 / 3])
    trajectory = proximal_point(SHIFT3, 1.0, [1.0, 0.0, 0.0], max_iter=np.int64(2), stop_tol=0)
    assert trajectory.iterations_used == 2


@pytest.mark.parametrize("R", INSTANCES, ids=lambda R: f"{R.kind}-m{R.order}-n{R.dim}")
def test_isometry_properties(R):
    rng = np.random.default_rng(11)
    for _ in range(16):
        x = rng.standard_normal(R.dim)
        y = rng.standard_normal(R.dim)
        assert abs(np.linalg.norm(R.apply(x)) - np.linalg.norm(x)) <= 1e-12 * max(
            1.0, np.linalg.norm(x)
        )
        np.testing.assert_allclose(repeated_apply(R, R.order, x), x, atol=1e-12)
        assert abs(R.apply(x) @ y - x @ R.adjoint_apply(y)) <= 1e-12 * max(
            1.0, abs(R.apply(x) @ y)
        )
        np.testing.assert_allclose(
            R.adjoint_apply(x), repeated_apply(R, R.order - 1, x), atol=1e-12
        )


POWER_INSTANCES = (
    [make_rotator(m, blocks=2) for m in (2, 3, 1024)]
    + [make_circular_shift(m, 2) for m in (2, 128, 129, 1024)]
    + [R for R in INSTANCES if R.kind == "dense"]
)


@pytest.mark.parametrize("R", POWER_INSTANCES, ids=lambda R: f"{R.kind}-m{R.order}-n{R.dim}")
def test_powers_and_adjoint_match_repeated_apply(R):
    m = R.order
    x = np.random.default_rng(m).standard_normal(R.dim)
    power = x  # R^k x by k calls of R.apply
    for k in range(m):
        np.testing.assert_allclose(R.apply_power(k, x), power, atol=1e-12, err_msg=f"k={k}")
        power = R.apply(power)
    np.testing.assert_allclose(R.apply_power(2 * m + 1, x), R.apply(x), atol=1e-12)
    np.testing.assert_allclose(R.adjoint_apply(x), repeated_apply(R, m - 1, x), atol=1e-12)


@pytest.mark.parametrize(
    "R", [make_rotator(5, 2), make_circular_shift(4, 2), INSTANCES[-1]], ids=lambda R: R.kind
)
def test_apply_does_not_use_the_polynomial_kernel(R, monkeypatch):
    # the oracle's matrix comes from R.apply, so it must stay independent of the kernels
    expected = materialize(R)

    def broken(self, coefficients, x):
        raise AssertionError("apply_polynomial called")

    monkeypatch.setattr(FiniteOrderIsometry, "apply_polynomial", broken)
    x = np.arange(R.dim, dtype=float)
    np.testing.assert_allclose(R.apply(x), expected @ x, atol=1e-12)
    np.testing.assert_array_equal(materialize(R), expected)


@pytest.mark.parametrize("R", INSTANCES, ids=lambda R: f"{R.kind}-m{R.order}-n{R.dim}")
def test_materialized_powers_match(R):
    mat = materialize(R)
    acc = np.eye(R.dim)
    for k in range(R.order):
        powered = R.apply_power(k, np.eye(R.dim))
        np.testing.assert_allclose(powered, acc, atol=1e-12)
        acc = mat @ acc


# --- spectrum and fixed space -----------------------------------------------------------


def large_order_dense(seed=5):
    """Dense conjugates at m = 64 to 32768, where the clusters near 2 are (2*pi/m)^2 apart."""
    rng = np.random.default_rng(seed)
    q = random_orthogonal(5, rng)
    # eigenvalues e^(+-2*pi*i/1024), -1 twice and 1: the clusters j = 1, m/2 and 0
    mixed = np.diag([1.0, 1.0, -1.0, -1.0, 1.0])
    mixed[:2, :2] = rotation_matrix(2 * np.pi / 1024)
    # a rotation by 2*pi/m plus a fixed vector: Fix A next to the nearest cluster j = 1
    turns = []
    for m in (8192, 32768):
        turn = np.eye(3)
        turn[:2, :2] = rotation_matrix(2 * np.pi / m)
        q3 = random_orthogonal(3, rng)
        turns.append(make_dense(q3 @ turn @ q3.T, m))
    return [
        conjugated_dense(make_circular_shift(64), rng),
        conjugated_dense(make_rotator(1024, 2), rng),
        make_dense(q @ mixed @ q.T, 1024),
        *turns,
    ]


LARGE_ORDER_DENSE = large_order_dense()


@pytest.mark.parametrize(
    "R",
    INSTANCES + [make_rotator(2, 3), make_circular_shift(7, 2)] + LARGE_ORDER_DENSE,
    ids=lambda R: f"{R.kind}-m{R.order}-n{R.dim}",
)
def test_eigen_multiplicities_match_eigenvalues(R):
    m = R.order
    mult = R.eigen_multiplicities()
    assert mult.shape == (m,) and mult.sum() == R.dim
    assert all(mult[j] == mult[(m - j) % m] for j in range(m))
    # reference: eigenvalues of the materialized matrix, binned by the nearest root of unity
    eigenvalues = np.linalg.eigvals(materialize(R))
    bins = np.rint(np.angle(eigenvalues) * m / (2 * np.pi)).astype(int) % m
    np.testing.assert_array_equal(np.bincount(bins, minlength=m), mult)


def test_dense_spectrum_is_lazy_cached_and_read_only():
    R = make_dense(shift_matrix(4, 2), 4)
    assert R._spectrum is None  # certification does not pay for it
    basis = R.fixed_space_basis()
    assert R.fixed_space_basis() is basis
    assert not basis.flags.writeable and not R.eigen_multiplicities().flags.writeable
    assert basis.base is None  # owns its data: the n x n eigenvectors are not kept alive
    np.testing.assert_allclose(basis.T @ basis, np.kron(np.full((4, 4), 0.25), np.eye(2)), atol=1e-12)


def test_closed_form_fixed_space_bases():
    assert make_rotator(5, 2).fixed_space_basis().shape == (0, 4)
    np.testing.assert_array_equal(
        make_circular_shift(3, 2).fixed_space_basis(), np.tile(np.eye(2), 3) * np.sqrt(1 / 3)
    )


@pytest.mark.parametrize("R", LARGE_ORDER_DENSE, ids=lambda R: f"m{R.order}-n{R.dim}")
def test_large_order_dense_basis_matches_nullspace_oracle(R):
    B = R.fixed_space_basis()
    assert B.shape == (R.eigen_multiplicities()[0], R.dim)
    np.testing.assert_allclose(B.T @ B, oracle_projector_fix(materialize(R)), rtol=0, atol=1e-12)


def test_dense_multiplicities_reject_a_wrong_order():
    # an uncertified rotation by 2*pi/5 declared of order 3: its eigenvalue 2cos(2*pi/5)
    # of A + A^T lies at no centre 2cos(2*pi*j/3)
    R = FiniteOrderIsometry("dense", 3, 2, matrix=rotation_matrix(2 * np.pi / 5))
    with pytest.raises(NumericError, match="from its nearest centre, more than SPECTRUM_TOL"):
        R.eigen_multiplicities()


def test_dense_multiplicities_reject_an_odd_cluster():
    # A + A^T = diag(-1, 2): -1 is the centre 2cos(2*pi/3), but it comes without its pair
    R = FiniteOrderIsometry("dense", 3, 2, matrix=np.diag([-0.5, 1.0]))
    with pytest.raises(NumericError, match=r"2cos\(2\*pi\*1/3\) of A \+ A\^T has odd size"):
        R.fixed_space_basis()


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        (("bogus", 3, 3), {}, "unknown isometry kind 'bogus'"),
        (("rotator", 3, 4), {}, "rotator isometry needs cos_sin"),
        (("circular_shift", 3, 6), {}, "circular_shift isometry needs block_dim"),
        (("dense", 3, 2), {}, "dense isometry needs matrix"),
        (("rotator", 3, 3), {"cos_sin": (-0.5, 0.75**0.5)}, "dim must be even, got 3"),
        (("circular_shift", 3, 5), {"block_dim": 2}, r"order \* block_dim = 6, got 5"),
        (("dense", 3, 2), {"matrix": np.eye(3)}, r"a \(2, 2\) matrix, got shape \(3, 3\)"),
        (("dense", 2, 2), {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, "got shape None"),
        (("rotator", 1, 2), {"cos_sin": (1.0, 0.0)}, "order must be an integer >= 2, got 1"),
        (("circular_shift", 3, 0), {"block_dim": 0}, "dim must be an integer >= 1, got 0"),
    ],
    ids=[
        "kind", "no cos_sin", "no block_dim", "no matrix", "odd rotator", "shift dim",
        "dense shape", "dense list", "order 1", "dim 0",
    ],
)
def test_bare_constructor_refuses_storage_that_does_not_fit(args, kwargs, match):
    # these used to construct and fail later, on apply or on the spectrum, with numpy errors
    with pytest.raises(ParameterError, match=match):
        FiniteOrderIsometry(*args, **kwargs)


def test_dense_spectrum_supports_orders_up_to_44428():
    m = 44428
    R = make_dense(rotation_matrix(2 * np.pi / m), m)
    mult = R.eigen_multiplicities()
    assert mult[1] == mult[m - 1] == 1 and mult.sum() == 2
    assert R.fixed_space_basis().shape == (0, 2)
    beyond = make_dense(rotation_matrix(2 * np.pi / (m + 1)), m + 1)
    with pytest.raises(NumericError, match="order m = 44429 is too large"):
        beyond.eigen_multiplicities()
