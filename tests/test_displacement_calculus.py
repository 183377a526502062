"""Projectors, skew companion, pseudoinverse, and the set-valued inverse."""

import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from displacement_kit import (
    AffineSubspace,
    FiniteOrderIsometry,
    NumericError,
    ParameterError,
    PolynomialOperator,
    ValidationError,
    compare,
    displacement,
    displacement_apply,
    make_circular_shift,
    make_dense,
    make_rotator,
    materialize,
    oracle_projector_fix,
    oracle_resolvent,
    projector_fix,
    projector_fix_complement,
    pseudo_inverse,
    resolvent,
    resolvent_inverse,
    set_valued_inverse,
    skew_part,
    yosida,
    yosida_inverse,
)
from displacement_kit import displacement_calculus, isometry_core
from displacement_kit.isometry_core import SHIFT_CIRCULANT_MAX_ORDER
from displacement_kit.verification import conjugated_dense, skew_part_folded, standard_instances

INSTANCES = standard_instances(max_m=6, max_dim=12, seed=3)
IDS = lambda R: f"{R.kind}-m{R.order}-n{R.dim}"


# --- displacement ----------------------------------------------------------


def test_displacement_half_turn_doubles():
    R = make_rotator(2)
    np.testing.assert_allclose(displacement_apply(R, [1.0, 1.0]), [2.0, 2.0], rtol=0, atol=1e-15)


def test_displacement_shift():
    R = make_circular_shift(3)
    np.testing.assert_array_equal(displacement_apply(R, [1.0, 2.0, 3.0]), [-2.0, 1.0, 1.0])


def test_displacement_apply_converts_its_operand_once(monkeypatch):
    R, x = make_rotator(3), [1.0, 2.0]
    want = np.array(x) - R.apply(x)
    calls = []
    original = isometry_core._as_operand

    def counted(x, dim):
        calls.append(dim)
        return original(x, dim)

    for module in (isometry_core, displacement_calculus):
        monkeypatch.setattr(module, "_as_operand", counted)
    np.testing.assert_array_equal(displacement_apply(R, x), want)
    assert calls == [2]


def test_displacement_range_orthogonal_to_diagonal():
    # components of (Id - R)x always sum to zero for the shift
    R = make_circular_shift(3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        out = displacement_apply(R, rng.standard_normal(3))
        assert abs(out.sum()) <= 1e-12


# --- polynomial operators ---------------------------------------------------


def test_identity_polynomial_is_identity():
    R = make_circular_shift(3)
    x = np.array([4.0, -1.0, 2.0])
    np.testing.assert_array_equal(PolynomialOperator.identity(R).apply(x), x)


def test_single_power_polynomial():
    R = make_circular_shift(3)
    P = PolynomialOperator(R, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(P.apply([1.0, 2.0, 3.0]), [3.0, 1.0, 2.0])


def test_averaging_polynomial():
    R = make_circular_shift(3)
    P = PolynomialOperator(R, [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(P.apply([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_horner_matches_power_sum(R):
    # oracle: evaluate sum_k c_k R^k x term by term with explicit matrix powers
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(R.order)
    P = PolynomialOperator(R, coeffs)
    mat = materialize(R)
    x = rng.standard_normal(R.dim)
    expected = np.zeros(R.dim)
    acc = np.eye(R.dim)
    for c in coeffs:
        expected += c * (acc @ x)
        acc = mat @ acc
    np.testing.assert_allclose(P.apply(x), expected, rtol=0, atol=1e-12)


def horner_reference(R, coeffs, x):
    # sum_k c_k R^k x by Horner over R.apply, one application of R per step
    acc = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        acc = R.apply(acc) + c * x
    return acc


def krylov_reference(R, x):
    # rows M^k x, k < m, with M the materialized matrix of R, by repeated products;
    # tensordot(c, rows, 1) is the materialized power sum sum_k c_k M^k x.  When M
    # is exactly a permutation matrix eye[perm], the product M y is y[perm], with
    # the same bits as the GEMM's (each entry is 1 * y_j plus exact zeros)
    mat = materialize(R)
    perm = np.argmax(mat, axis=1)
    is_permutation = np.array_equal(mat, np.eye(R.dim)[perm])
    rows = np.empty((R.order,) + x.shape)
    rows[0] = x
    for k in range(1, R.order):
        rows[k] = rows[k - 1][perm] if is_permutation else mat @ rows[k - 1]
    return rows


#: dense conjugates of shifts with two-dimensional blocks: every m-th root of unity
#: is an eigenvalue; odd m leave the top coefficient c_{m-1} unpaired in the kernel
DENSE_KERNEL_INSTANCES = [
    conjugated_dense(make_circular_shift(m, 2), np.random.default_rng(m))
    for m in (2, 3, 4, 5, 7, 8, 64)
]

KERNEL_INSTANCES = (
    [make_rotator(m, blocks=3) for m in (2, 3, 8, 64, 1024)]
    + [
        make_circular_shift(m, block_dim)
        for m in (2, SHIFT_CIRCULANT_MAX_ORDER, SHIFT_CIRCULANT_MAX_ORDER + 1, 200, 1024)
        for block_dim in (1, 2)
    ]
    + [max((R for R in INSTANCES if R.kind == "dense"), key=lambda R: (R.order, R.dim))]
    + DENSE_KERNEL_INSTANCES
)


def _kernel_coefficients(m):
    identity = np.zeros(m)
    identity[0] = 1.0
    single_power = np.zeros(m)
    single_power[m - 1] = 1.0
    random = np.random.default_rng(m).standard_normal(m)
    return {
        "identity": identity,
        "zero": np.zeros(m),
        "single_power": single_power,
        "random": random,
    }


#: the operands, as column selections of one (n, 7) draw: a vector and (n, B) blocks
KERNEL_OPERANDS = {"vector": 0, "B0": slice(0), "B1": slice(1), "B7": slice(7)}


@pytest.mark.parametrize("R", KERNEL_INSTANCES, ids=IDS)
def test_kernel_matches_horner_and_power_sum(R):
    draw = np.random.default_rng(R.dim).standard_normal((R.dim, 7))
    powers = krylov_reference(R, draw)
    for which, coeffs in _kernel_coefficients(R.order).items():
        horner = horner_reference(R, coeffs, draw)
        power_sum = np.tensordot(coeffs, powers, axes=1)
        op = PolynomialOperator(R, coeffs)  # its kernel, prepared once, meets every operand
        for name, columns in KERNEL_OPERANDS.items():
            X = draw[:, columns]
            out = op.apply(X)
            msg = f"{name} {which}"
            assert out.shape == X.shape, msg
            fresh = PolynomialOperator(R, coeffs).apply(X)  # a kernel prepared for this call
            np.testing.assert_array_equal(out, fresh, err_msg=msg)
            np.testing.assert_allclose(out, horner[:, columns], rtol=0, atol=1e-12, err_msg=msg)
            np.testing.assert_allclose(
                out, power_sum[:, columns], rtol=0, atol=1e-12, err_msg=msg
            )


@pytest.mark.parametrize("block_dim", [1, 2])
def test_fft_kernel_refuses_a_result_that_overflowed(block_dim):
    # the resolvent is a convex combination of block rolls, so its image of a
    # finite x is finite; the FFT side sums all m blocks and overflows near the
    # float maximum, where the circulant side stays finite
    for m in (SHIFT_CIRCULANT_MAX_ORDER, SHIFT_CIRCULANT_MAX_ORDER + 1, 200):
        J = resolvent(make_circular_shift(m, block_dim), 1.0)
        for x in (np.full(J.dim, 1e307), np.full((J.dim, 3), 1e307)):
            with np.errstate(over="ignore", invalid="ignore"):
                if m <= SHIFT_CIRCULANT_MAX_ORDER:
                    assert np.isfinite(J.apply(x)).all()
                else:
                    with pytest.raises(NumericError, match=f"order-{m} shift overflowed"):
                        J.apply(x)


@pytest.mark.parametrize("m", [2, 3, 8, SHIFT_CIRCULANT_MAX_ORDER])
def test_circulant_kernel_equals_a_modulo_built_circulant(m):
    # the kernel indexes c by i - j in (-m, m), which numpy wraps as (i - j) mod m
    R = make_circular_shift(m, 2)
    c = np.random.default_rng(m).standard_normal(m)
    circulant = c[(np.arange(m)[:, None] - np.arange(m)) % m]
    op = PolynomialOperator(R, c)
    X = np.random.default_rng(m + 1).standard_normal((R.dim, 3))
    for V in (X, X[:, 0]):
        want = (circulant @ V.reshape(m, -1)).reshape(V.shape)
        np.testing.assert_array_equal(op.apply(V), want)


@pytest.mark.parametrize(
    "R, x, kernel",
    [
        (make_circular_shift(8, 25), np.full(200, 1e10), "circulant kernel of the order-8 shift"),
        (make_dense([[0.0, -1.0], [1.0, 0.0]], 4), np.array([1e10, 1e10]), "order-4 dense"),
        (make_rotator(4), np.array([1e30, 1e30]), "order-4 rotator"),
    ],
    ids=["circulant", "dense", "rotator"],
)
def test_kernel_that_expands_refuses_a_result_that_overflowed(R, x, kernel):
    # the coefficients of yosida_inverse sum to 1/gamma = 1e300: a result beyond the
    # largest float raises, off the FFT side too, where it used to be inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"the {kernel}.* overflowed on a finite operand"):
            yosida_inverse(R, 1e-300).apply(x)
    # a resolvent cannot expand a vector: its result is finite, checked or not
    want = oracle_resolvent(materialize(R), 1.0) @ x
    np.testing.assert_allclose(resolvent(R, 1.0).apply(x), want, rtol=1e-12)


TURN_EIGHTH = make_dense([[np.sqrt(0.5), -np.sqrt(0.5)], [np.sqrt(0.5), np.sqrt(0.5)]], 8)
DIAGONAL = np.array([1.5e308, 1.5e308])


@pytest.mark.parametrize(
    "apply",
    [
        lambda: make_rotator(8).apply(DIAGONAL),
        lambda: make_rotator(8).apply_power(1, DIAGONAL),
        lambda: TURN_EIGHTH.apply(DIAGONAL),
        lambda: PolynomialOperator(make_rotator(8), np.eye(8)[1]).apply(DIAGONAL),
        lambda: resolvent(TURN_EIGHTH, 0.01).apply(DIAGONAL),
    ],
    ids=["rotator apply", "rotator power", "dense apply", "rotator kernel", "dense resolvent"],
)
def test_a_turn_that_overflows_one_entry_raises(apply):
    # an eighth of a turn moves sqrt(2) * 1.5e308 into one entry: these returned
    # [1.7e292, inf] or [nan, nan], since |p(w)| = 1 and sum |c_k| = 1 skipped the check
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="overflowed on a finite operand"):
            apply()


class _CountedMatrix(np.ndarray):
    """An ndarray view that records the matrix products taken with it.

    ``@`` and ``np.matmul`` append (side, shape) to ``products``: the side the
    array sits on, and the shape of the other operand.  Its views (row panels,
    transposes) share the list.  With ``spread`` set, every product is such an
    array too and records into the same list.
    """

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)
        self.spread = getattr(obj, "spread", False)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(a) for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(a) for a in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is not np.matmul:
            return result
        left = inputs[0] is self
        self.products.append(("left" if left else "right", plain[1 if left else 0].shape))
        if not self.spread or out is not None:
            return result
        result = result.view(_CountedMatrix)
        result.products, result.spread = self.products, True
        return result


#: the baby steps w of the dense kernel at each order of DENSE_KERNEL_INSTANCES
BABY_STEPS = {2: 2, 3: 2, 4: 2, 5: 2, 7: 4, 8: 4, 64: 4}


def _counted_ladder(R):
    """A private copy of the dense R whose ladder A, A^2, ..., A^w records its products."""
    R = make_dense(R._matrix, R.order)
    rungs = [rung.view(_CountedMatrix) for rung in (R._matrix,) + R._squares]
    for rung in rungs:
        rung.products = []
    R._matrix, R._squares = rungs[0], tuple(rungs[1:])
    return R, rungs


@pytest.mark.parametrize("R", DENSE_KERNEL_INSTANCES, ids=IDS)
def test_dense_kernel_takes_ceil_half_m_products(R):
    # at most ceil(m/2) products of an n x n rung with an (n, B) block, as Horner in
    # A^2 took; the pin is per rung and per operand shape
    R, rungs = _counted_ladder(R)
    m, n, w = R.order, R.dim, BABY_STEPS[R.order]
    groups = -(-m // w)
    assert len(rungs) == w.bit_length()
    for X in (np.ones(n), np.ones((n, 7))):
        b = 1 if X.ndim == 1 else 7
        # baby steps: A^(2^i) multiplies the 2^i columns built so far in one product,
        # a vector's as rows; then Horner takes one product with A^w per group after the first
        want = [
            [("right", (1 << i, n))] if X.ndim == 1 else [("left", (1 << i, n, b))]
            for i in range(w.bit_length() - 1)
        ]
        want.append([("left", (n, b))] * (groups - 1))
        for coeffs in _kernel_coefficients(m).values():
            for rung in rungs:
                rung.products.clear()
            PolynomialOperator(R, coeffs).apply(X)
            assert [rung.products for rung in rungs] == want
    columns = (w - 1) + (groups - 1)  # products of an n x n rung with one column of X
    assert columns <= -(-m // 2)
    assert (columns == -(-m // 2)) == (m <= 8)


@pytest.mark.parametrize("R", DENSE_KERNEL_INSTANCES, ids=IDS)
def test_dense_power_takes_a_product_per_set_bit_and_per_giant_step(R):
    M = materialize(R)
    R, rungs = _counted_ladder(R)
    m, w = R.order, BABY_STEPS[R.order]
    x = np.arange(R.dim, dtype=float)
    for k in range(m):
        for rung in rungs:
            rung.products.clear()
        out = R.apply_power(k, x)
        np.testing.assert_allclose(out, np.linalg.matrix_power(M, k) @ x, atol=1e-12)
        # A^(2^i) once for each set bit i of k mod w, and A^w k // w times
        want = [int(k % w >> i & 1) for i in range(w.bit_length() - 1)]
        want.append(k // w)
        assert [len(rung.products) for rung in rungs] == want, k
    for rung in rungs:
        rung.products.clear()
    R.apply(x)
    assert [len(rung.products) for rung in rungs] == [1] + [0] * (len(rungs) - 1)
    R.adjoint_apply(x)  # R^(m-1): 3 products at m = 8, where Horner in A^2 took 4
    adjoint = bin((m - 1) % w).count("1") + (m - 1) // w
    assert sum(len(rung.products) for rung in rungs) == 1 + adjoint
    assert m != 8 or adjoint == 3


def test_bare_constructor_squares_a_dense_matrix():
    for R in DENSE_KERNEL_INSTANCES:
        m, w = R.order, BABY_STEPS[R.order]
        bare = FiniteOrderIsometry("dense", m, R.dim, matrix=R._matrix)
        # the squares A^2, ..., A^w of the ladder; make_dense keeps the same products
        assert len(bare._squares) == len(R._squares) == w.bit_length() - 1
        square = R._matrix
        for got, kept in zip(bare._squares, R._squares):
            square = square @ square
            np.testing.assert_array_equal(got, square)
            np.testing.assert_array_equal(got, kept)
        assert bare.same_as(R)
        x = np.arange(R.dim, dtype=float)
        coeffs = _kernel_coefficients(m)["random"]
        np.testing.assert_array_equal(
            PolynomialOperator(bare, coeffs).apply(x), PolynomialOperator(R, coeffs).apply(x)
        )
    assert make_rotator(3)._squares == () and make_circular_shift(3)._squares == ()


def test_oracle_and_apply_do_not_read_the_square():
    for R in DENSE_KERNEL_INSTANCES:
        expected = materialize(R)
        x = np.arange(R.dim, dtype=float)
        for i in range(len(R._squares)):  # each square of the ladder in turn
            corrupted = make_dense(expected, R.order)
            squares = list(corrupted._squares)
            squares[i] = np.full_like(squares[i], np.nan)
            corrupted._squares = tuple(squares)
            np.testing.assert_array_equal(materialize(corrupted), expected)
            np.testing.assert_array_equal(corrupted.apply(x), expected @ x)
            assert compare(corrupted, expected, tol=0.0).passed
            assert corrupted.same_as(R) and R.same_as(corrupted)
            # the polynomial kernel reads each square but A^w at m = 2, which takes no
            # giant step: the corruption shows there, as a result that is not finite,
            # which a kernel with sum |c_k| = m > 1 refuses
            if R.order == 2:
                PolynomialOperator(corrupted, np.ones(2)).apply(x)
                continue
            with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="dense isometry"):
                PolynomialOperator(corrupted, np.ones(R.order)).apply(x)


def test_make_dense_takes_no_more_products_than_repeated_squaring(monkeypatch):
    # the certificate's A^m by repeated squaring (floor(log2 m) squares and
    # popcount(m) - 1 products, as numpy's matrix_power took it through A^2) after
    # A^T A, whatever squares the isometry keeps: the kept ones are among them
    products = []
    check = isometry_core._check_array

    def counted(*args):
        a = check(*args).view(_CountedMatrix)
        a.products, a.spread = products, True
        return a

    monkeypatch.setattr(isometry_core, "_check_array", counted)
    for m in range(2, 65):
        products.clear()
        turn = 2.0 * np.pi / m
        R = make_dense([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]], m)
        assert len(products) == 1 + (m.bit_length() - 1) + (bin(m).count("1") - 1), m
        assert all(shape == (2, 2) for _, shape in products)
        # the rule's rungs and no more: the squares up to A^w, w = 4 for m > 6 and 2 below,
        # whose kernel takes no more products on a block than Horner in A^2's ceil(m/2)
        w = 4 if m > 6 else 2
        assert len(R._squares) == w.bit_length() - 1
        assert w - 2 + -(-m // w) <= -(-m // 2)


#: orders of the accuracy sweep, which runs at n = 8 and at n = 400, where a vector's
#: baby steps split each rung into row panels of 327 and 73 rows
ACCURACY_ORDERS = (*range(2, 10), 16, 17, 64, 65)
#: worst |kernel - reference| / (eps * sum|c_k| * max|x|) that the sweep allows
DENSE_KERNEL_ERROR_BOUND = 16.0


def _turning_dense(m, n, rng):
    """A dense order-m isometry on R^n: 2x2 blocks turning by 2*pi*j/m, j cycling
    through 1, ..., m - 1, conjugated by a random orthogonal matrix."""
    D = np.zeros((n, n))
    for i in range(n // 2):
        turn = 2.0 * np.pi * (1 + i % (m - 1)) / m
        D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [
            [np.cos(turn), -np.sin(turn)],
            [np.sin(turn), np.cos(turn)],
        ]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return make_dense(Q @ D @ Q.T, m)


@pytest.mark.parametrize("n", [8, 400])
def test_dense_kernel_is_accurate_against_horner_and_the_oracle(n):
    # Higham, Accuracy and Stability of Numerical Algorithms, sec. 5: an evaluation of
    # sum_k c_k A^k x errs by a small multiple of eps * sum|c_k| |A|^k |x|, and an
    # isometry's powers keep ||x||.  Measured worst: 1.8 at n = 8 and 4.9 at n = 400
    # (Horner in A^2 read 1.8 and 4.8 on the same draws)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for m in ACCURACY_ORDERS:
        R = _turning_dense(m, n, rng)
        M = materialize(R)
        coeffs = rng.standard_normal(m)
        draw = rng.standard_normal((n, 5))
        operands = {
            "vector": draw[:, 0],
            "C block": draw,
            "F block": np.asfortranarray(draw),
            "B = 0": draw[:, :0],
        }
        for name, X in operands.items():
            out = PolynomialOperator(R, coeffs).apply(X)
            assert out.shape == X.shape, name
            oracle = np.zeros_like(X)
            power = X.copy()
            for c in coeffs:  # the power sum with the materialized matrix
                oracle += c * power
                power = M @ power
            for reference in (horner_reference(R, coeffs, X), oracle):
                if X.size:
                    scale = eps * np.sum(np.abs(coeffs)) * np.max(np.abs(X))
                    error = float(np.max(np.abs(out - reference))) / scale
                    assert error <= DENSE_KERNEL_ERROR_BOUND, (m, name, error)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polynomial_apply_rejects_non_finite_vector(bad):
    P = pseudo_inverse(make_circular_shift(3))
    with pytest.raises(ParameterError):
        P.apply([bad, 0.0, 0.0])


def _families(R):
    out = {
        "displacement": displacement(R),
        "projector_fix": projector_fix(R),
        "projector_fix_complement": projector_fix_complement(R),
        "skew_part": skew_part(R),
        "pseudo_inverse": pseudo_inverse(R),
        "random": PolynomialOperator(R, np.random.default_rng(R.order).standard_normal(R.order)),
    }
    for gamma in (0.1, 1.0, 10.0):
        for build in (resolvent, resolvent_inverse, yosida, yosida_inverse):
            out[f"{build.__name__}@{gamma:g}"] = build(R, gamma)
    return out


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_operator_norm_matches_svd_norm(R):
    for name, op in _families(R).items():
        svd_norm = float(np.linalg.norm(materialize(op), 2))
        assert abs(op.operator_norm() - svd_norm) <= 1e-12, name


def test_operator_norm_skips_absent_eigenvalues():
    # the dense 3-rotator has no eigenvalue 1, so the projector onto Fix R is 0
    R = next(R for R in INSTANCES if R.kind == "dense" and R.order == 3 and R.dim == 4)
    assert R.eigen_multiplicities()[0] == 0
    assert projector_fix(R).operator_norm() == 0.0
    assert projector_fix_complement(R).operator_norm() == pytest.approx(1.0, abs=1e-15)


def cyclic_convolution(a, b):
    """The reference for compose: the full convolution, folded mod m in O(m^2)."""
    m = len(a)
    full = np.convolve(a, b)
    folded = full[:m].copy()
    folded[: m - 1] += full[m:]
    return folded


def test_compose_is_cyclic_convolution():
    R = make_circular_shift(4)
    rng = np.random.default_rng(1)
    a = PolynomialOperator(R, rng.standard_normal(4))
    b = PolynomialOperator(R, rng.standard_normal(4))
    x = rng.standard_normal(4)
    np.testing.assert_allclose((a @ b).apply(x), a.apply(b.apply(x)), rtol=0, atol=1e-12)
    expected = cyclic_convolution(a.coefficients, b.coefficients)
    np.testing.assert_allclose((a @ b).coefficients, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 8, 128, 129, 1024, 16384])
def test_compose_matches_the_convolution_reference(m):
    # compose runs the order-m shift's kernel: a circulant product up to
    # SHIFT_CIRCULANT_MAX_ORDER and an FFT above it, accurate relative to the largest
    # coefficient on both sides; a resolvent's coefficients decay geometrically
    R = make_rotator(m)
    rng = np.random.default_rng(m)
    a = PolynomialOperator(R, rng.standard_normal(m))
    J = resolvent(R, 1.0)
    for left, right in ((a, a), (a, J), (J, J)):
        expected = cyclic_convolution(left.coefficients, right.coefficients)
        got = (left @ right).coefficients
        np.testing.assert_allclose(got, expected, rtol=0, atol=2e-15 * np.max(np.abs(expected)))


def test_a_rotator_of_order_two_to_the_twenty_runs_end_to_end():
    # build, compose, apply and norm with no O(m^2) step: a convolution folded in
    # O(m^2) takes minutes at this order
    R = make_rotator(2**20, 4)
    J = resolvent(R, 1.0)
    K = J @ J
    x = np.random.default_rng(20).standard_normal(R.dim)
    np.testing.assert_allclose(K.apply(x), J.apply(J.apply(x)), rtol=0, atol=1e-14)
    # the symbol of K on w = e^{2*pi*i/m} is 1/(2 - w)^2, of modulus 1/(5 - 4cos(2*pi/m))
    expected = 1.0 / (5.0 - 4.0 * np.cos(2 * np.pi / R.order))
    assert K.operator_norm() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("m", [1000, 2**20, 10**6 + 3])
def test_rotator_kernel_takes_w_to_the_k_as_r_to_the_k_does(m):
    # the kernel's w^k is the cos/sin of R^k's angle 2*pi*k/m, so the monomial e_k is
    # R^k to rounding; a Horner recurrence in w drifts like m eps (2.1e5 eps at 2^20)
    R = make_rotator(m, 2)
    x = np.random.default_rng(m % 1009).standard_normal(R.dim)
    for k in (1, 2, m // 3, m // 2, m - 1):
        e_k = np.zeros(m)
        e_k[k] = 1.0
        np.testing.assert_allclose(
            PolynomialOperator(R, e_k).apply(x),
            R.apply_power(k, x),
            rtol=0,
            atol=8 * np.finfo(float).eps * np.max(np.abs(x)),
            err_msg=f"k = {k}",
        )


def test_addition_and_scaling():
    R = make_circular_shift(3)
    a = PolynomialOperator(R, [1.0, 2.0, 3.0])
    b = PolynomialOperator(R, [0.5, -1.0, 0.0])
    x = np.array([1.0, 0.0, -1.0])
    np.testing.assert_allclose((a + b).apply(x), a.apply(x) + b.apply(x), rtol=0, atol=1e-14)
    np.testing.assert_allclose((a - b).apply(x), a.apply(x) - b.apply(x), rtol=0, atol=1e-14)
    np.testing.assert_allclose((2.0 * a).apply(x), 2.0 * a.apply(x), rtol=0, atol=1e-14)
    np.testing.assert_array_equal((-a).coefficients, [-1.0, -2.0, -3.0])


def test_coefficients_are_a_read_only_copy():
    R = make_circular_shift(3)
    given = np.array([1.0, 2.0, 3.0])
    a = PolynomialOperator(R, given)
    b = PolynomialOperator(R, [0.5, -1.0, 0.0])
    x = np.array([1.0, 0.0, -1.0])
    before = a.apply(x)
    assert not np.shares_memory(a.coefficients, given)
    given[0] = 7.0  # the caller's array stays writable and is not the operator's
    np.testing.assert_array_equal(a.coefficients, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(a.apply(x), before)
    results = {"a": a, "+": a + b, "-": a - b, "*": 2.0 * a, "@": a @ b, "neg": -a}
    for name, op in results.items():
        with pytest.raises(ValueError, match="read-only"):
            op.coefficients[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            op.coefficients *= 2.0
        assert not op.coefficients.flags.writeable, name


def test_an_applied_operator_pickles_without_its_kernel():
    R = DENSE_KERNEL_INSTANCES[1]
    op = resolvent(R, 0.5)
    x = np.arange(R.dim, dtype=float)
    before = op.apply(x)  # prepares the kernel, a closure that pickle cannot take
    copy = pickle.loads(pickle.dumps(op))
    assert copy.operator.same_as(R) and not copy.coefficients.flags.writeable
    np.testing.assert_array_equal(copy.coefficients, op.coefficients)
    np.testing.assert_array_equal(copy.apply(x), before)


def test_operations_reject_mismatched_operators():
    a = PolynomialOperator(make_circular_shift(3), [1.0, 0.0, 0.0])
    b = PolynomialOperator(make_rotator(3), [1.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        a @ b
    with pytest.raises(ParameterError):
        a + b


def test_polynomial_rejects_wrong_coefficient_count():
    with pytest.raises(ParameterError):
        PolynomialOperator(make_rotator(3), [1.0, 0.0])


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_polynomials_commute(R):
    rng = np.random.default_rng(9)
    a = PolynomialOperator(R, rng.standard_normal(R.order))
    b = PolynomialOperator(R, rng.standard_normal(R.order))
    np.testing.assert_allclose(materialize(a @ b), materialize(b @ a), rtol=0, atol=1e-10)


# --- fixed-space projector ---------------------------------------------------


def test_projector_vanishes_for_half_turn():
    # the half turn fixes only the origin
    np.testing.assert_allclose(
        materialize(projector_fix(make_rotator(2))), np.zeros((2, 2)), rtol=0, atol=1e-15
    )


def test_projector_averages_shift():
    P = projector_fix(make_circular_shift(3))
    np.testing.assert_allclose(P.apply([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0], rtol=0, atol=1e-14)


def test_projector_fixes_constants():
    P = projector_fix(make_circular_shift(4))
    np.testing.assert_allclose(P.apply([2.5] * 4), [2.5] * 4, rtol=0, atol=1e-14)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_projector_is_symmetric_idempotent(R):
    p = materialize(projector_fix(R))
    np.testing.assert_allclose(p @ p, p, rtol=0, atol=1e-10)
    np.testing.assert_allclose(p.T, p, rtol=0, atol=1e-10)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_projector_decomposition(R):
    rng = np.random.default_rng(2)
    P = projector_fix(R)
    Q = projector_fix_complement(R)
    for _ in range(8):
        x = rng.standard_normal(R.dim)
        np.testing.assert_allclose(P.apply(x) + Q.apply(x), x, rtol=0, atol=1e-10)
        assert (
            abs(
                np.linalg.norm(P.apply(x)) ** 2
                + np.linalg.norm(Q.apply(x)) ** 2
                - np.linalg.norm(x) ** 2
            )
            <= 1e-10 * max(1.0, np.linalg.norm(x) ** 2)
        )
        np.testing.assert_allclose(displacement_apply(R, P.apply(x)), 0.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(P.apply(displacement_apply(R, x)), 0.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 8, 129, 1000])
def test_projector_complement_is_identity_minus_projector_bit_for_bit(m):
    # Id - P rounds 1 - 1/m once, as the coefficients written out one by one did
    written_out = np.full(m, -1.0 / m)
    written_out[0] += 1.0
    coefficients = projector_fix_complement(make_circular_shift(m)).coefficients
    np.testing.assert_array_equal(coefficients, written_out)
    assert not np.signbit(coefficients[0]) and np.all(np.signbit(coefficients[1:]))


# --- skew companion -----------------------------------------------------------


def test_skew_part_vanishes_for_order_two():
    np.testing.assert_array_equal(skew_part(make_rotator(2)).coefficients, [0.0, 0.0])
    np.testing.assert_array_equal(skew_part(make_circular_shift(2)).coefficients, [0.0, 0.0])


@pytest.mark.parametrize("m", [2, 3, 7, 8, 1000])
def test_skew_part_and_pseudo_inverse_coefficients_are_the_loop_formulas(m):
    # int64 numerators over 2m are correctly rounded, as Python's int true division is
    R = make_circular_shift(m)
    skew = np.zeros(m)
    for k in range(1, m):
        skew[k] = (m - 2 * k) / (2 * m)
    pinv = np.array([(m - 1 - 2 * k) / (2 * m) for k in range(m)])
    np.testing.assert_array_equal(skew_part(R).coefficients, skew)
    np.testing.assert_array_equal(pseudo_inverse(R).coefficients, pinv)


def test_skew_part_coefficients_order_three():
    np.testing.assert_allclose(
        skew_part(make_circular_shift(3)).coefficients, [0.0, 1 / 6, -1 / 6], rtol=0, atol=1e-15
    )


def test_skew_part_matrix_order_four_rotator():
    np.testing.assert_allclose(
        materialize(skew_part(make_rotator(4))),
        [[0.0, -0.5], [0.5, 0.0]],
        rtol=0, atol=1e-15,
    )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_skew_part_properties(R):
    t = materialize(skew_part(R))
    np.testing.assert_allclose(t.T, -t, rtol=0, atol=1e-10)
    comp = materialize(projector_fix_complement(R))
    np.testing.assert_allclose(comp @ t, t, rtol=0, atol=1e-10)
    np.testing.assert_allclose(t, materialize(skew_part_folded(R)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_double_displacement_identity(R):
    rng = np.random.default_rng(21)
    T = skew_part(R)
    for _ in range(20):
        x = rng.standard_normal(R.dim)
        lhs = displacement_apply(R, 2.0 * T.apply(displacement_apply(R, x)))
        np.testing.assert_allclose(lhs, x - R.apply_power(2, x), rtol=0, atol=1e-10)


# --- pseudoinverse --------------------------------------------------------------


def test_pseudo_inverse_half_turn_is_half_identity():
    np.testing.assert_allclose(
        materialize(pseudo_inverse(make_rotator(2))), 0.5 * np.eye(2), rtol=0, atol=1e-15
    )


def test_pseudo_inverse_coefficients():
    np.testing.assert_allclose(
        pseudo_inverse(make_circular_shift(3)).coefficients,
        [1 / 3, 0.0, -1 / 3],
        rtol=0,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        pseudo_inverse(make_rotator(4)).coefficients, [3 / 8, 1 / 8, -1 / 8, -3 / 8],
        rtol=0,
        atol=1e-15,
    )


def test_pseudo_inverse_right_inverse_on_range():
    R = make_circular_shift(3)
    y = np.array([-2.0, 1.0, 1.0])  # components sum to zero, so y is in the range
    np.testing.assert_allclose(
        displacement_apply(R, pseudo_inverse(R).apply(y)), y, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_moore_penrose_axioms(R):
    m_mat = materialize(displacement(R))
    d_mat = materialize(pseudo_inverse(R))
    np.testing.assert_allclose(m_mat @ d_mat @ m_mat, m_mat, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d_mat @ m_mat @ d_mat, d_mat, rtol=0, atol=1e-10)
    np.testing.assert_allclose((m_mat @ d_mat).T, m_mat @ d_mat, rtol=0, atol=1e-10)
    np.testing.assert_allclose((d_mat @ m_mat).T, d_mat @ m_mat, rtol=0, atol=1e-10)
    comp = materialize(projector_fix_complement(R))
    np.testing.assert_allclose(m_mat @ d_mat, comp, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d_mat @ m_mat, comp, rtol=0, atol=1e-10)


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_strong_monotonicity_with_sharp_constant(R):
    rng = np.random.default_rng(33)
    comp = projector_fix_complement(R)
    pinv = pseudo_inverse(R)
    skew = skew_part(R)
    for _ in range(50):
        y1 = comp.apply(rng.standard_normal(R.dim))
        y2 = comp.apply(rng.standard_normal(R.dim))
        dy = y1 - y2
        gap = pinv.apply(y1) - pinv.apply(y2)
        inner = float(gap @ dy)
        assert inner >= 0.5 * float(dy @ dy) - 1e-10
        # the skew component contributes nothing, so 1/2 is attained
        assert inner <= (0.5 + 1e-6) * float(dy @ dy) + 1e-12
        assert abs(float(skew.apply(dy) @ dy)) <= 1e-10 * max(1.0, float(dy @ dy))


# --- fixed-space basis ------------------------------------------------------------


def test_fixed_space_basis_empty_for_rotator():
    assert make_rotator(3).fixed_space_basis().shape == (0, 2)


def test_fixed_space_basis_diagonal():
    basis = make_circular_shift(2).fixed_space_basis()
    assert basis.shape == (1, 2)
    expected = np.full(2, 1 / np.sqrt(2))
    sign = np.sign(basis[0][0])
    np.testing.assert_allclose(sign * basis[0], expected, rtol=0, atol=1e-12)


def test_fixed_space_basis_block_diagonal():
    R = make_circular_shift(2, block_dim=2)
    basis = R.fixed_space_basis()
    assert basis.shape == (2, 4)
    for b in basis:
        np.testing.assert_allclose(R.apply(b), b, rtol=0, atol=1e-12)
    assert abs(basis[0] @ basis[1]) <= 1e-12


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_fixed_space_basis_matches_nullspace_oracle(R):
    B = R.fixed_space_basis()
    assert B.shape[0] == R.eigen_multiplicities()[0]
    np.testing.assert_allclose(B.T @ B, oracle_projector_fix(materialize(R)), rtol=0, atol=1e-10)
    np.testing.assert_allclose(B @ B.T, np.eye(B.shape[0]), rtol=0, atol=1e-12)


# --- set-valued inverse -------------------------------------------------------------


def test_set_valued_inverse_shift_two():
    R = make_circular_shift(2)
    y = np.array([1.0, -1.0])
    solution = set_valued_inverse(R, y)
    # oracle: minimum-norm least-squares solution of (Id - R) x = y
    expected = np.linalg.lstsq(np.eye(2) - materialize(R), y, rcond=1e-10)[0]
    np.testing.assert_allclose(solution.point, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(solution.point, [0.5, -0.5], rtol=0, atol=1e-12)
    assert solution.degrees_of_freedom == 1
    sign = np.sign(solution.basis[0][0])
    np.testing.assert_allclose(
        sign * solution.basis[0], np.full(2, 1 / np.sqrt(2)), rtol=0, atol=1e-12
    )


def test_set_valued_inverse_rejects_fixed_vector():
    assert set_valued_inverse(make_circular_shift(3), [1.0, 1.0, 1.0]) is None


def test_set_valued_inverse_rejects_tiny_fixed_vector():
    # the range test is relative, so a fixed vector is rejected at any scale
    assert set_valued_inverse(make_circular_shift(3), [1e-12, 1e-12, 1e-12]) is None


@pytest.mark.parametrize(
    "R",
    [make_circular_shift(3), conjugated_dense(make_circular_shift(4, 2), np.random.default_rng(8))],
    ids=IDS,
)
def test_set_valued_inverse_does_not_depend_on_the_scale_of_y(R):
    # at 2^k the squares in ||y|| overflow (k > 511) or underflow (k < -537); the
    # test scales y by a power of two first, so each decision is the one at k = 0
    w = np.random.default_rng(21).standard_normal(R.dim)
    fixed, ranged = projector_fix(R).apply(w), projector_fix_complement(R).apply(w)
    for k in range(-1000, 1001, 25):
        assert set_valued_inverse(R, np.ldexp(fixed, k)) is None, k
        y = np.ldexp(ranged, k)
        x = set_valued_inverse(R, y).point
        assert np.max(np.abs(x - R.apply(x) - y)) <= 1e-9 * np.max(np.abs(y)), k


@pytest.mark.parametrize("scale", [5e-324, 1e-320])
def test_set_valued_inverse_solves_a_subnormal_y_exactly(scale):
    # the point is computed on y scaled to max|y| in [1/2, 1) and scaled back, so it
    # rounds once, into the subnormal range; entries below 2^-1075 round to -0.0 here
    R = make_circular_shift(3)
    y = scale * np.array([1.0, -1.0, 0.0])
    x = set_valued_inverse(R, y).point
    np.testing.assert_array_equal(x - R.apply(x), y)
    assert np.signbit(x).tolist() == [False, True, True]


@pytest.mark.parametrize("m", [8, 200])
def test_set_valued_inverse_refuses_a_point_beyond_the_float_range(m):
    # y in the range at 1.5e308 whose minimum-norm solution is |1/(1 - w)| > 1.3 times
    # larger, past the largest float; m = 8 is on the circulant side, m = 200 on the FFT's
    y = 1.5e308 * np.cos(2 * np.pi * np.arange(m) / m)
    with pytest.raises(NumericError, match="minimum-norm point .* exceeds the largest float"):
        set_valued_inverse(make_circular_shift(m), y)


@pytest.mark.parametrize(
    "R",
    [
        make_circular_shift(2),
        make_circular_shift(8),
        make_rotator(5, 2),
        conjugated_dense(make_circular_shift(4, 2), np.random.default_rng(8)),
    ],
    ids=IDS,
)
def test_set_valued_inverse_point_scales_exactly_with_y(R):
    # scaling y by 2^k scales the point by exactly 2^k while it stays normal
    y = projector_fix_complement(R).apply(np.random.default_rng(22).standard_normal(R.dim))
    unit = set_valued_inverse(R, y).point
    for k in range(-900, 901, 25):
        point = set_valued_inverse(R, np.ldexp(y, k)).point
        np.testing.assert_array_equal(point, np.ldexp(unit, k), err_msg=f"k = {k}")


@pytest.mark.parametrize(
    "R",
    [
        make_rotator(5, 2),
        make_circular_shift(4, 2),
        conjugated_dense(make_circular_shift(4, 2), np.random.default_rng(8)),
    ],
    ids=IDS,
)
def test_set_valued_inverse_prepares_one_kernel_and_keeps_the_projector_verdict(
    R, monkeypatch
):
    # the range test is the residual of the pseudo-inverse's point, whose kernel is the
    # only one a solve prepares, whatever the verdict
    prepared = []
    original = FiniteOrderIsometry._polynomial_kernel

    def counted(self, c):
        prepared.append(self)
        return original(self, c)

    monkeypatch.setattr(FiniteOrderIsometry, "_polynomial_kernel", counted)
    tol = displacement_calculus.RANGE_MEMBERSHIP_TOL
    w = np.random.default_rng(23).standard_normal(R.dim)
    fixed, ranged = projector_fix(R).apply(w), projector_fix_complement(R).apply(w)
    cases = {"orthogonal": (ranged, True)}
    if R.eigen_multiplicities()[0]:
        f, u = fixed / np.linalg.norm(fixed), ranged / np.linalg.norm(ranged)
        cases["fixed"] = (fixed, False)
        for factor, inside in ((0.5, True), (2.0, False)):
            r = factor * tol  # ||P y|| / ||y|| = r at y = u + t f
            cases[f"{factor} x boundary"] = (u + r / np.sqrt(1.0 - r * r) * f, inside)
    for name, (y, inside) in cases.items():
        unit = np.ldexp(y, -np.frexp(np.max(np.abs(y)))[1])
        projector_says = np.linalg.norm(projector_fix(R).apply(unit)) <= tol * np.linalg.norm(unit)
        assert projector_says == inside, name
        prepared.clear()
        solution = set_valued_inverse(R, y)
        assert (solution is not None) == inside, name
        assert prepared == [R], name


def test_set_valued_inverse_out_of_range_reads_no_basis_and_a_few_vectors(monkeypatch):
    # the verdict is the residual of the pseudo-inverse's point: O(n) on a shift, where
    # its Fix R basis is a dense (n/m, n) array, 16 MiB here
    R = make_circular_shift(2, 1024)

    def refused(self):
        raise AssertionError("an out-of-range solve reads no spectral fact of R")

    monkeypatch.setattr(FiniteOrderIsometry, "fixed_space_basis", refused)
    monkeypatch.setattr(FiniteOrderIsometry, "eigen_multiplicities", refused)
    y = np.tile(np.random.default_rng(24).standard_normal(1024), 2)  # in Fix R
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solution = set_valued_inverse(R, y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert solution is None
    assert peak <= 8 * R.dim * 8  # 8 vectors of n float64


#: an order-6 shift of 2 blocks of 6, conjugated and written with 8 decimals, and a
#: right-hand side in the range of its displacement
DATA = Path(__file__).parent / "data"
LOOSE_SHIFT6 = np.loadtxt(DATA / "shift6_conjugated_8dp.csv", delimiter=",")
LOOSE_SHIFT6_RHS = np.array(json.loads((DATA / "shift6_conjugated_8dp_rhs.json").read_text()))


def test_set_valued_inverse_returns_no_point_that_misses_its_tolerance():
    # Fix R's basis reads ||B y|| = 1.5e-9 ||y|| on this rhs, yet the point's residual
    # is 1.33e-8 ||y||: the verdict is now the residual, so at tol = 5e-9 there is no
    # point, and at tol = 1e-6 the point and basis are those of the basis test
    y = LOOSE_SHIFT6_RHS
    R = make_dense(LOOSE_SHIFT6, 6, tol=1e-7)
    B = R.fixed_space_basis()
    assert np.linalg.norm(B @ y) < 5e-9 * np.linalg.norm(y)
    assert set_valued_inverse(R, y, tol=5e-9) is None
    solution = set_valued_inverse(R, y, tol=1e-6)
    e = np.frexp(np.max(np.abs(y)))[1]
    np.testing.assert_array_equal(
        solution.point, np.ldexp(pseudo_inverse(R).apply(np.ldexp(y, -e)), e)
    )
    assert solution.basis is B
    residual = np.linalg.norm(y - displacement_apply(R, solution.point))
    assert 5e-9 * np.linalg.norm(y) < residual <= 1e-6 * np.linalg.norm(y)


def test_set_valued_inverse_refuses_a_spectrum_only_for_a_result():
    # the bare constructor keeps SPECTRUM_TOL, which refuses this matrix's spectrum:
    # a y out of range needs no spectrum, and a y in range raises for its basis
    R = FiniteOrderIsometry("dense", 6, 12, matrix=LOOSE_SHIFT6)
    fixed = make_dense(LOOSE_SHIFT6, 6, tol=1e-7).fixed_space_basis()[0]
    assert set_valued_inverse(R, fixed) is None
    with pytest.raises(NumericError, match="more than SPECTRUM_TOL"):
        set_valued_inverse(R, LOOSE_SHIFT6_RHS, tol=1e-6)


def test_set_valued_inverse_invertible_case():
    solution = set_valued_inverse(make_rotator(2), [2.0, 0.0])
    np.testing.assert_allclose(solution.point, [1.0, 0.0], rtol=0, atol=1e-12)
    assert solution.basis.shape == (0, 2)


def test_set_valued_inverse_zero_right_hand_side():
    solution = set_valued_inverse(make_circular_shift(2), [0.0, 0.0])
    np.testing.assert_allclose(solution.point, [0.0, 0.0], rtol=0, atol=1e-15)
    assert solution.degrees_of_freedom == 1


def test_set_valued_inverse_zero_right_hand_side_three_shift():
    # y = 0 lies in the range under the relative test: the solution set is Fix R
    solution = set_valued_inverse(make_circular_shift(3), np.zeros(3))
    np.testing.assert_allclose(solution.point, np.zeros(3), rtol=0, atol=1e-15)
    assert solution.degrees_of_freedom == 1


@pytest.mark.parametrize("R", INSTANCES, ids=IDS)
def test_set_valued_inverse_solves_equation(R):
    rng = np.random.default_rng(17)
    comp = projector_fix_complement(R)
    proj = projector_fix(R)
    skew = skew_part(R)
    pinv = pseudo_inverse(R)
    for _ in range(5):
        y = comp.apply(rng.standard_normal(R.dim))
        solution = set_valued_inverse(R, y)
        assert solution is not None
        np.testing.assert_allclose(displacement_apply(R, solution.point), y, rtol=0, atol=1e-9)
        if solution.degrees_of_freedom:
            member = solution.element(rng.standard_normal(solution.degrees_of_freedom))
            np.testing.assert_allclose(displacement_apply(R, member), y, rtol=0, atol=1e-9)
        # cross-check: minimum-norm point agrees with y/2 + (skew part) y modulo Fix R
        np.testing.assert_allclose(
            comp.apply(pinv.apply(y) - 0.5 * y - skew.apply(y)), 0.0, rtol=0, atol=1e-10
        )


def test_affine_subspace_validates_orthonormality():
    with pytest.raises(ValidationError):
        AffineSubspace(point=np.zeros(2), basis=[np.array([1.0, 1.0])])
    with pytest.raises(ValidationError):
        AffineSubspace(
            point=np.zeros(2), basis=[np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        )


def test_affine_subspace_names_the_worst_pair():
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.6, 0.8])]
    with pytest.raises(ValidationError, match=r"<b_1, b_2> - 0\| = 6\.000e-01"):
        AffineSubspace(point=np.zeros(3), basis=basis)
    with pytest.raises(ValidationError):
        AffineSubspace(point=np.zeros(2), basis=[np.array([np.nan, 0.0])])


def test_affine_subspace_basis_is_one_array():
    s = AffineSubspace(point=[1.0, 2.0, 3.0], basis=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert s.basis.shape == (2, 3)
    np.testing.assert_array_equal(s.element([2.0, -1.0]), [3.0, 2.0, 2.0])
    assert AffineSubspace(point=np.zeros(3)).basis.shape == (0, 3)
    np.testing.assert_array_equal(AffineSubspace(point=[1.0, 2.0]).element([]), [1.0, 2.0])
    for bad in ([[1.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0, 0.0], np.zeros((1, 2))):
        with pytest.raises(ParameterError, match="match the point's dimension"):
            AffineSubspace(point=np.zeros(3), basis=bad)


@pytest.mark.parametrize(
    "basis",
    [[["0", "1"]], [[None, 1.0]], [[0j, 1.0]], np.array([[0.0, 1.0]], dtype=object)],
    ids=["strings", "None", "complex", "objects"],
)
def test_affine_subspace_refuses_a_basis_that_is_not_real(basis):
    # converted like the point, not cast: ['0', '1'] used to become [0., 1.]
    with pytest.raises(ParameterError, match="basis must be an array of real numbers"):
        AffineSubspace([1.0, 0.0], basis)


def test_set_valued_inverse_basis_is_the_fixed_space_basis():
    # the cached read-only (d, n) array of a dense R, not a copy of its rows
    R = make_dense(materialize(make_circular_shift(3, block_dim=2)), 3)
    assert set_valued_inverse(R, np.zeros(6)).basis is R.fixed_space_basis()


def test_affine_subspace_equality_is_identity_and_hashable():
    R = make_circular_shift(3)
    first, second = (set_valued_inverse(R, [1.0, -1.0, 0.0]) for _ in range(2))
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_affine_subspace_element_weights_shape():
    s = AffineSubspace(point=np.zeros(2), basis=[np.array([1.0, 0.0])])
    with pytest.raises(ParameterError):
        s.element([1.0, 2.0])
