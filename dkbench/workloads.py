"""The three workloads: inputs from a seed, set-up, references, checked operations.

A workload has four steps.

- ``inputs(seed, quick, workdir)``: the benchmark draws every vector and dense
  matrix from ``seed`` (the program receives only these).
- ``setup(dk, data)``: builds the isometries and operators with the package and
  calls each operator once on one input.  This is what ``setup_s`` times.
- ``prepare(dk, data, state)``: reference data the checks need that depends on
  set-up products (untimed, made once per run).
- ``ops(dk, data, refs, state)``: the operations of one pass, each an `Op`
  whose ``call`` is timed and whose ``check`` compares the output with a
  computation made apart from the package (`reference`) or with a property
  the method must have.

Calls go through module attributes (``dk.resolvent``) or object methods, never
through names bound at import time, so the traced run's rebinding sees them.

Tolerances are those pinned in ``tests/`` and ``run_verification``, taken
relative to the scale of the input: 1e-10 for closed forms against a solve,
1e-9 for the set-valued inverse residual and pseudo-inverse, 1e-11 for the
truncated series, 1e-8 for Lipschitz constants (1e-12 where ``tests/`` pins
the attained norm 1 of a shift's resolvent) and the proximal limit, 1e-12 for
Fejer monotonicity and the worked examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import types
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

GAMMAS = (0.01, 1.0, 100.0)
#: relative size of the perturbation the negative control applies
PERTURBATION = 1e-6


@dataclass
class Op:
    """One operation of a pass.

    ``perturb(out, rng)`` returns wrong copies of a correct output that
    ``check`` must reject; ``inject`` marks operations whose output is the
    package's own verdict (a report), which the negative control instead
    re-runs with the closed-form path perturbed.  ``known_fault`` names the
    program fault that makes an operation fail on every run.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]
    perturb: Callable[[Any, np.random.Generator], list] | None = None
    inject: bool = False
    known_fault: str | None = None
    extras: Callable[[Any], dict] | None = None


# --- helpers -----------------------------------------------------------------


def _max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def perturb_array(a, scale: float, rng: np.random.Generator) -> np.ndarray:
    """``a`` plus a relative 1e-6 of ``scale`` in every entry, with random signs."""
    a = np.asarray(a, dtype=float)
    return a + PERTURBATION * scale * rng.choice((-1.0, 1.0), size=a.shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / float(np.linalg.norm(v))


def _within(dev: float, bound: float, what: str) -> tuple:
    ok = bool(np.isfinite(dev)) and dev <= bound
    return ok, f"{what}: {dev:.3e} (bound {bound:.3e})"


def _all(*results) -> tuple:
    for ok, msg in results:
        if not ok:
            return False, msg
    return True, "ok"


def build_operator(dk, family: str, R, gamma):
    if family in ref.GAMMA_FAMILIES:
        return getattr(dk, family)(R, gamma)
    return getattr(dk, family)(R)


def _array_check(want: np.ndarray, x_scale: float, rel_tol: float):
    def check(out):
        out = np.asarray(out, dtype=float)
        if out.shape != want.shape:
            return False, f"shape {out.shape} != {want.shape}"
        scale = max(x_scale, _max_abs(want))
        return _within(_max_abs(out - want), rel_tol * scale, "max|out - ref|")

    return check


def _array_perturb(x_scale: float):
    def perturb(out, rng):
        return [perturb_array(out, max(x_scale, _max_abs(out)), rng)]

    return perturb


def _capture_cli(dk, argv: list, path: str) -> tuple:
    """Run ``cli.main(argv)`` with standard output sent to the file ``path``.

    A file, not a string buffer, so that the captured output does not count
    in the resident memory read after the call (page cache is not RSS).
    """
    with open(path, "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = dk.cli.main(argv)
    return code, path


def _read_cli(out) -> tuple:
    code, path = out
    with open(path) as fh:
        return code, fh.read()


def _write_cli(code: int, doc: dict, path: str) -> tuple:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return code, path


def _cli_stdout_mb(out) -> dict:
    return {"cli.stdout_mb": os.path.getsize(out[1]) / 1e6}


def _base_matrix(kind: str, m: int, size: int) -> np.ndarray:
    if kind == "rotator":
        return ref.rotator_matrix(m, 2 * size)
    return ref.shift_matrix(m, size)


class Instance:
    """An isometry as the benchmark knows it: its matrix, spectrum and fixed space.

    Dense instances are a base rotator or shift hidden behind a random
    orthogonal change of basis drawn from the seed.
    """

    def __init__(self, kind: str, m: int, size: int, rng: np.random.Generator):
        self.kind, self.m, self.size = kind, m, size
        base = kind.replace("dense_", "")
        S = _base_matrix(base, m, size)
        self.base = base
        n = S.shape[0]
        if kind.startswith("dense_"):
            q = ref.random_orthogonal(n, rng)
            self.A = q @ S @ q.T
        else:
            self.A, q = S, np.eye(n)
        if base == "shift":
            ones = np.kron(np.ones((m, 1)) / math.sqrt(m), np.eye(size))
            fix = q @ ones  # orthonormal columns spanning Fix R
            self.lams = np.exp(-2j * np.pi * np.arange(m) / m)
            self.fixed = np.arange(m) == 0
        else:
            fix = np.zeros((n, 0))
            angle = 2 * math.pi / m
            self.lams = np.array([complex(math.cos(angle), math.sin(angle))] * 2)
            self.lams[1] = self.lams[1].conjugate()
            self.fixed = np.array([False, False])
        self.P = fix @ fix.T
        self.fix_dim = fix.shape[1]
        self.n = n

    def build(self, dk):
        if self.kind.startswith("dense_"):
            return dk.make_dense(self.A, self.m)
        return _make_iso(dk, self.base, self.m, self.size)


# --- bulk_apply ---------------------------------------------------------------
#
# Six closed forms applied to large vectors.  Nearly all time is the Horner
# loop's m-1 R.apply calls on arrays far larger than cache; each kind takes at
# most about half of a pass.  Each family takes every gamma of GAMMAS across
# the seven large instances (gamma index (i + j) mod 3), and the dense batch
# cycles through all fourteen (family, gamma) operators, one call per vector.

BULK_LARGE = (  # (kind, m, blocks for a rotator / block_dim for a shift)
    ("rotator", 3, 500_000),
    ("rotator", 8, 500_000),
    ("shift", 3, 333_334),
    ("shift", 8, 125_000),
    ("rotator", 64, 65_536),
    ("shift", 64, 2_048),
    ("shift", 1024, 32),
)
BULK_LARGE_QUICK = (
    ("rotator", 3, 500),
    ("rotator", 8, 64),
    ("shift", 3, 333),
    ("shift", 8, 125),
    ("rotator", 64, 64),
    ("shift", 64, 2),
    ("shift", 1024, 1),
)
BULK_DENSE = {"m": 8, "block_dim": 128, "batch": 256}
BULK_DENSE_QUICK = {"m": 8, "block_dim": 8, "batch": 16}
DENSE_COMBOS = [(f, g) for f in ref.GAMMA_FAMILIES for g in GAMMAS] + [
    ("pseudo_inverse", None),
    ("projector_fix", None),
]


def _large_combos(i: int) -> list:
    return [
        (f, GAMMAS[(i + j) % 3] if f in ref.GAMMA_FAMILIES else None)
        for j, f in enumerate(ref.FAMILIES)
    ]


def _dim(kind: str, m: int, size: int) -> int:
    return 2 * size if kind == "rotator" else m * size


def _make_iso(dk, kind: str, m: int, size: int):
    if kind == "rotator":
        return dk.make_rotator(m, size)
    return dk.make_circular_shift(m, size)


class BulkApply:
    name = "bulk_apply"

    def inputs(self, seed: int, quick: bool, workdir: str):
        rng = np.random.default_rng(seed)
        large = BULK_LARGE_QUICK if quick else BULK_LARGE
        xs = [rng.standard_normal(_dim(k, m, s)) for k, m, s in large]
        spec = BULK_DENSE_QUICK if quick else BULK_DENSE
        m = spec["m"]
        A = Instance("dense_shift", m, spec["block_dim"], rng).A
        X = rng.standard_normal((spec["batch"], A.shape[0]))
        pinv_m = ref.pinv_displacement(A)
        dense_ref = np.empty_like(X)
        for c, (family, gamma) in enumerate(DENSE_COMBOS):
            rows = np.arange(c, X.shape[0], len(DENSE_COMBOS))
            dense_ref[rows] = ref.dense_apply(family, gamma, A, X[rows].T, pinv_m).T
        return types.SimpleNamespace(
            large=large, xs=xs, A=A, m=m, X=X, dense_ref=dense_ref
        )

    def setup(self, dk, data):
        isos = [_make_iso(dk, k, m, s) for k, m, s in data.large]
        D = dk.make_dense(data.A, data.m)
        large_ops = [
            [build_operator(dk, f, R, g) for f, g in _large_combos(i)]
            for i, R in enumerate(isos)
        ]
        dense_ops = [build_operator(dk, f, D, g) for f, g in DENSE_COMBOS]
        for ops_i, x in zip(large_ops, data.xs):
            for op in ops_i:
                op.apply(x)
        for op in dense_ops:
            op.apply(data.X[0])
        return types.SimpleNamespace(large_ops=large_ops, dense_ops=dense_ops)

    def prepare(self, dk, data, state):
        multipliers = []
        for i, (kind, m, _) in enumerate(data.large):
            row = []
            for f, g in _large_combos(i):
                if kind == "rotator":
                    row.append(ref.rotator_multiplier(f, g, m))
                else:
                    row.append(ref.shift_multipliers(f, g, m))
            multipliers.append(row)
        return types.SimpleNamespace(
            multipliers=multipliers, x_scales=[_max_abs(x) for x in data.xs]
        )

    def ops(self, dk, data, refs, state):
        ops = []
        for i, (kind, m, _) in enumerate(data.large):
            x, x_scale = data.xs[i], refs.x_scales[i]
            for j, (f, g) in enumerate(_large_combos(i)):
                op, mult = state.large_ops[i][j], refs.multipliers[i][j]
                compare = ref.compare_rotator if kind == "rotator" else ref.compare_shift

                def check(out, x=x, mult=mult, compare=compare, x_scale=x_scale):
                    out = np.asarray(out, dtype=float)
                    if out.shape != x.shape:
                        return False, f"shape {out.shape} != {x.shape}"
                    dev = compare(out, x, mult, x_scale)
                    return _within(dev.dev, 1e-10 * dev.scale, "max|out - ref|")

                ops.append(
                    Op(
                        name=f"{kind}{m}.{f}" + (f"@{g:g}" if g is not None else ""),
                        call=lambda op=op, x=x: op.apply(x),
                        check=check,
                        perturb=_array_perturb(x_scale),
                    )
                )
        for r in range(data.X.shape[0]):
            c = r % len(DENSE_COMBOS)
            op, x, want = state.dense_ops[c], data.X[r], data.dense_ref[r]
            f, g = DENSE_COMBOS[c]
            ops.append(
                Op(
                    name=f"dense.{f}" + (f"@{g:g}" if g is not None else "") + f".v{r}",
                    call=lambda op=op, x=x: op.apply(x),
                    check=_array_check(want, _max_abs(x), 1e-10),
                    perturb=_array_perturb(_max_abs(x)),
                )
            )
        return ops


# --- verify_battery ------------------------------------------------------------
#
# About 20k small calls: the invariant battery on the standard grid, the
# worked examples, and compare() of every closed form against the dense
# oracle at n ~ 256.  Per-call overhead, materialize, LU/SVD and power
# iteration dominate; memory bandwidth does not.

VERIFY_DENSE = (("shift", 4, 64), ("rotator", 8, 128), ("shift", 6, 43))
VERIFY_DENSE_QUICK = (("shift", 4, 4), ("rotator", 8, 4))
WORKED_GAMMAS = (0.5, 1.0, 2.0)


def _oracle_for(dk, family: str, A: np.ndarray, gamma):
    """The family's matrix built from the package's dense oracle alone."""
    eye = np.eye(A.shape[0])
    if family == "resolvent":
        return dk.oracle_resolvent(A, gamma)
    if family == "resolvent_inverse":
        return eye - dk.oracle_resolvent(A, 1.0 / gamma)
    if family == "yosida":
        return (eye - dk.oracle_resolvent(A, gamma)) / gamma
    if family == "yosida_inverse":
        return dk.oracle_resolvent(A, 1.0 / gamma) / gamma
    if family == "pseudo_inverse":
        return dk.oracle_pinv(eye - A)
    return dk.oracle_projector_fix(A)


def _worked_reference(case: dict) -> np.ndarray:
    """The worked example's matrix from the benchmark's own symbol evaluation."""
    family, m, gamma = case["operator"], case["m"], case["gamma"]
    if case["kind"] == "rotator":
        z = ref.rotator_multiplier(family, gamma, m)
        return np.array([[z.real, -z.imag], [z.imag, z.real]])
    eye = np.eye(m)
    mult = ref.shift_multipliers(family, gamma, m)
    return np.column_stack([np.fft.ifft(mult * np.fft.fft(e)).real for e in eye])


class VerifyBattery:
    name = "verify_battery"

    def inputs(self, seed: int, quick: bool, workdir: str):
        rng = np.random.default_rng(seed)
        dense = []
        for kind, m, size in VERIFY_DENSE_QUICK if quick else VERIFY_DENSE:
            inst = Instance(f"dense_{kind}", m, size, rng)
            pinv_m = ref.pinv_displacement(inst.A)
            inst.wants = {
                (f, g): ref.dense_apply(f, g, inst.A, np.eye(inst.n), pinv_m)
                for f, g in DENSE_COMBOS
            }
            dense.append(inst)
        grid = {"max_m": 3, "max_dim": 8} if quick else {"max_m": 8, "max_dim": 64}
        return types.SimpleNamespace(seed=seed, dense=dense, grid=grid)

    def setup(self, dk, data):
        grid = dk.standard_instances(
            max_m=data.grid["max_m"], max_dim=data.grid["max_dim"], seed=data.seed + 7
        )
        spot_ops = [[dk.resolvent(R, g) for g in GAMMAS] for R in grid]
        dense_isos = [inst.build(dk) for inst in data.dense]
        dense_ops = [
            [build_operator(dk, f, D, g) for f, g in DENSE_COMBOS] for D in dense_isos
        ]
        for ops_r, R in zip(spot_ops + dense_ops, grid + dense_isos):
            warm = np.full(R.dim, 1.0 / math.sqrt(R.dim))
            for op in ops_r:
                op.apply(warm)
        return types.SimpleNamespace(grid=grid, spot_ops=spot_ops, dense_ops=dense_ops)

    def prepare(self, dk, data, state):
        """Each grid instance's own matrix and the resolvent by numpy's solve."""
        rng = np.random.default_rng(data.seed + 1)
        spot = []
        for R in state.grid:
            if R.kind == "rotator":
                A = ref.rotator_matrix(R.order, R.dim)
            elif R.kind == "circular_shift":
                A = ref.shift_matrix(R.order, R.dim // R.order)
            else:  # the certified matrix itself, read column by column
                A = np.column_stack([R.apply(e) for e in np.eye(R.dim)])
            row = []
            for g in GAMMAS:
                x = _unit(rng.standard_normal(R.dim))
                want = np.linalg.solve((1.0 + g) * np.eye(R.dim) - g * A, x)
                row.append((x, want))
            spot.append(row)
        return types.SimpleNamespace(spot=spot)

    def ops(self, dk, data, refs, state):
        seed = data.seed
        grid = data.grid

        def check_reports(reports):
            if not reports:
                return False, "no reports"
            bad = [r.label for r in reports if not r.passed]
            return (not bad), (f"failed reports: {bad}" if bad else "ok")

        ops = [
            Op(
                name="run_verification",
                call=lambda: dk.run_verification(
                    seed=seed, max_m=grid["max_m"], max_dim=grid["max_dim"]
                ),
                check=check_reports,
                inject=True,
            )
        ]

        def check_worked(rows):
            if not rows:
                return False, "no worked examples"
            for row in rows:
                if not row["pass"]:
                    return False, f"{row['kind']} m={row['m']} {row['operator']} failed"
                dev = _max_abs(np.asarray(row["matrix"]) - _worked_reference(row))
                if not dev <= 1e-12:
                    return False, f"{row['kind']} m={row['m']} {row['operator']}: {dev:.3e}"
            return True, "ok"

        def perturb_worked(rows, rng):
            return [[dict(r, matrix=perturb_array(r["matrix"], 1.0, rng)) for r in rows]]

        for g in WORKED_GAMMAS:
            ops.append(
                Op(
                    name=f"reproduce_worked_examples@{g:g}",
                    call=lambda g=g: dk.reproduce_worked_examples(g),
                    check=check_worked,
                    perturb=perturb_worked,
                    inject=True,
                )
            )

        for i, R in enumerate(state.grid):
            for j, g in enumerate(GAMMAS):
                x, want = refs.spot[i][j]
                ops.append(
                    Op(
                        name=f"spot.{R.kind}{R.order}.n{R.dim}@{g:g}",
                        call=lambda op=state.spot_ops[i][j], x=x: op.apply(x),
                        check=_array_check(want, _max_abs(x), 1e-10),
                        perturb=_array_perturb(_max_abs(x)),
                    )
                )

        for d, dense_ops in zip(data.dense, state.dense_ops):
            for c, (f, g) in enumerate(DENSE_COMBOS):
                want = d.wants[(f, g)]
                loose = f in ("pseudo_inverse", "projector_fix")
                rel = 1e-9 if loose else 1e-10
                tol = rel * max(1.0, ref.max_abs_symbol(f, g, d.lams, d.fixed))

                def call(op=dense_ops[c], f=f, g=g, A=d.A, tol=tol):
                    oracle = _oracle_for(dk, f, A, g)
                    report = dk.compare(op, oracle, tol=tol, seed=seed, label=f)
                    return oracle, report

                def check(out, want=want, rel=rel, tol=tol):
                    oracle, report = out
                    scale = max(1.0, _max_abs(want))
                    return _all(
                        (report.passed, f"compare report failed: {report.max_abs_deviation:.3e}"),
                        _within(_max_abs(oracle - want), rel * scale, "max|oracle - solve|"),
                    )

                def perturb(out, rng, want=want):
                    oracle, report = out
                    return [(perturb_array(oracle, max(1.0, _max_abs(want)), rng), report)]

                ops.append(
                    Op(
                        name=f"compare.{d.kind}{d.m}.{f}" + (f"@{g:g}" if g else ""),
                        call=call,
                        check=check,
                        perturb=perturb,
                        inject=True,
                    )
                )
        return ops


# --- solve_iterate -------------------------------------------------------------
#
# The calculus used the other way round: few but costly constructions
# (Gram-Schmidt basis of Fix R, the O(d^2 n) orthonormality check), long
# dependent chains of applications at moderate n, and memory that grows with
# the number of iterations.  Two operations fail on every run because of
# known faults and are counted in `failed`.

FAULT_RANGE = (
    "set_valued_inverse: range test ||Py|| > tol*max(||y||, 1) has an absolute floor, "
    "so y = 1e-12*(1,1,1), wholly in Fix R, is accepted"
)
FAULT_TINY_GAMMA = (
    "resolvent_inverse forms 1/gamma, so gamma = 1e-310 raises ParameterError "
    "although the forward resolvent accepts it"
)

SOLVE_SIZES = {
    "svi": (("shift", 2, 256), ("shift", 8, 64), ("dense_shift", 4, 128)),
    "prox": (("shift", 3, 170, 0.02), ("rotator", 5, 256, 0.05), ("dense_shift", 6, 42, 0.05)),
    "series": (("shift", 3, 1, 1000.0), ("rotator", 4, 256, 100.0)),
    "ergodic": (("shift", 8, 64), ("dense_shift", 4, 128)),
    "lipschitz": (  # (kind, m, size, family, gamma, tolerance)
        ("rotator", 2, 128, "resolvent_inverse", 0.5, 1e-8),
        ("rotator", 2, 128, "resolvent_inverse", 2.0, 1e-8),
        ("shift", 4, 64, "resolvent", 1.0, 1e-12),
        ("dense_rotator", 8, 128, "pseudo_inverse", None, 1e-8),
    ),
    "cli_solve": ("shift", 8, 64),
    "cli_iterate": ("shift", 3, 170, 0.02),
}
SOLVE_SIZES_QUICK = {
    "svi": (("shift", 2, 8), ("shift", 8, 2), ("dense_shift", 4, 4)),
    "prox": (("shift", 3, 5, 0.02), ("rotator", 5, 8, 0.05), ("dense_shift", 6, 2, 0.05)),
    "series": (("shift", 3, 1, 1000.0), ("rotator", 4, 8, 100.0)),
    "ergodic": (("shift", 8, 2), ("dense_shift", 4, 4)),
    "lipschitz": (
        ("rotator", 2, 4, "resolvent_inverse", 0.5, 1e-8),
        ("rotator", 2, 4, "resolvent_inverse", 2.0, 1e-8),
        ("shift", 4, 2, "resolvent", 1.0, 1e-12),
        ("dense_rotator", 8, 4, "pseudo_inverse", None, 1e-8),
    ),
    "cli_solve": ("shift", 8, 2),
    "cli_iterate": ("shift", 3, 5, 0.02),
}


def _check_solution(inst: Instance, y: np.ndarray, point, basis, rng_seed: int) -> tuple:
    """x - Rx = y for the point and a random element; basis orthonormal, spanning Fix R;
    point orthogonal to Fix R."""
    p = np.asarray(point, dtype=float)
    B = np.asarray(basis, dtype=float).reshape(-1, inst.n)
    if p.shape != (inst.n,):
        return False, f"point shape {p.shape}"
    M = np.eye(inst.n) - inst.A
    scale = float(np.linalg.norm(y))
    w = np.random.default_rng(rng_seed).standard_normal(B.shape[0])
    element = p + B.T @ w
    return _all(
        (B.shape[0] == inst.fix_dim, f"basis has {B.shape[0]} vectors, Fix R has dim {inst.fix_dim}"),
        _within(_max_abs(M @ p - y), 1e-9 * scale, "max|x - Rx - y| at the point"),
        _within(_max_abs(M @ element - y), 1e-9 * scale, "max|x - Rx - y| at an element"),
        _within(_max_abs(B @ B.T - np.eye(B.shape[0])), 1e-10, "max|B B^T - I|"),
        _within(_max_abs(B - B @ inst.P), 1e-10, "max|b - P b| over the basis"),
        _within(_max_abs(inst.P @ p), 1e-10 * scale, "max|P point|"),
    )


def _perturb_solution(point, basis, scale: float, rng):
    p = np.asarray(point, dtype=float)
    B = [np.asarray(b, dtype=float) for b in basis]
    wrong_point = types.SimpleNamespace(point=perturb_array(p, scale, rng), basis=B)
    variants = [wrong_point]
    if B:
        wrong_basis = [perturb_array(b, 1.0, rng) for b in B]
        variants.append(types.SimpleNamespace(point=p, basis=wrong_basis))
    return variants


def _check_trajectory(inst: Instance, x0, target, points, residuals, limit, converged, used) -> tuple:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != inst.n:
        return False, f"history shape {pts.shape}"
    dists = np.linalg.norm(pts - target, axis=1)
    rises = np.diff(dists)
    return _all(
        (bool(converged), "did not converge"),
        (used == len(residuals) == pts.shape[0] - 1, "history length mismatch"),
        _within(_max_abs(pts[0] - x0), 0.0, "first iterate differs from x0"),
        _within(float(np.linalg.norm(np.asarray(limit) - target)), 1e-8, "||limit - P x0||"),
        _within(float(np.max(rises)) if rises.size else 0.0, 1e-12, "largest distance increase"),
    )


class SolveIterate:
    name = "solve_iterate"

    def inputs(self, seed: int, quick: bool, workdir: str):
        rng = np.random.default_rng(seed)
        sizes = SOLVE_SIZES_QUICK if quick else SOLVE_SIZES
        d = types.SimpleNamespace(seed=seed, workdir=workdir)
        d.svi = []
        for kind, m, size in sizes["svi"]:
            inst = Instance(kind, m, size, rng)
            y = _unit((np.eye(inst.n) - inst.P) @ rng.standard_normal(inst.n))
            d.svi.append((inst, y))
        d.prox = []
        for kind, m, size, gamma in sizes["prox"]:
            inst = Instance(kind, m, size, rng)
            d.prox.append((inst, gamma, _unit(rng.standard_normal(inst.n))))
        d.series = []
        for kind, m, size, gamma in sizes["series"]:
            inst = Instance(kind, m, size, rng)
            d.series.append((inst, gamma, _unit(rng.standard_normal(inst.n))))
        d.ergodic = []
        for kind, m, size in sizes["ergodic"]:
            inst = Instance(kind, m, size, rng)
            d.ergodic.append((inst, _unit(rng.standard_normal(inst.n))))
        d.lipschitz = []
        for kind, m, size, family, gamma, tol in sizes["lipschitz"]:
            inst = Instance(kind, m, size, rng)
            d.lipschitz.append((inst, family, gamma, tol))
        kind, m, size = sizes["cli_solve"]
        inst = Instance(kind, m, size, rng)
        y = _unit((np.eye(inst.n) - inst.P) @ rng.standard_normal(inst.n))
        d.cli_solve = (inst, y, os.path.join(workdir, "rhs.json"))
        kind, m, size, gamma = sizes["cli_iterate"]
        inst = Instance(kind, m, size, rng)
        x0 = _unit(rng.standard_normal(inst.n))
        d.cli_iterate = (inst, gamma, x0, os.path.join(workdir, "x0.json"))
        os.makedirs(workdir, exist_ok=True)
        for path, vec in ((d.cli_solve[2], y), (d.cli_iterate[3], x0)):
            with open(path, "w") as fh:
                json.dump([float(v) for v in vec], fh)
        # known-fault inputs do not depend on the seed
        d.fault_range_y = np.full(3, 1e-12)
        d.fault_gamma_x = np.array([1.0, -2.0, 0.5])
        return d

    def setup(self, dk, data):
        s = types.SimpleNamespace()
        s.svi = [inst.build(dk) for inst, _ in data.svi]
        s.prox = [inst.build(dk) for inst, _, _ in data.prox]
        s.series = [inst.build(dk) for inst, _, _ in data.series]
        s.ergodic = [inst.build(dk) for inst, _ in data.ergodic]
        s.lipschitz_ops = [
            build_operator(dk, family, inst.build(dk), gamma)
            for inst, family, gamma, _ in data.lipschitz
        ]
        s.shift3 = dk.make_circular_shift(3)
        s.prox_ops = [dk.resolvent(R, g) for R, (_, g, _) in zip(s.prox, data.prox)]
        warm_ops = s.lipschitz_ops + s.prox_ops + [dk.projector_fix(R) for R in s.svi]
        for op in warm_ops:
            op.apply(np.full(op.dim, 1.0 / math.sqrt(op.dim)))
        return s

    def prepare(self, dk, data, state):
        return None

    def ops(self, dk, data, refs, state):
        ops = []
        seed = data.seed
        for k, ((inst, y), R) in enumerate(zip(data.svi, state.svi)):

            def check(out, inst=inst, y=y, k=k):
                if out is None:
                    return False, "reported y outside the range of M"
                return _check_solution(inst, y, out.point, out.basis, seed + k)

            ops.append(
                Op(
                    name=f"set_valued_inverse.{inst.kind}{inst.m}.n{inst.n}",
                    call=lambda R=R, y=y: dk.set_valued_inverse(R, y),
                    check=check,
                    perturb=lambda out, rng: _perturb_solution(out.point, out.basis, 1.0, rng),
                )
            )

        def check_fault_range(out):
            if out is None:
                return True, "ok"
            residual = float(np.linalg.norm(out.point - np.roll(out.point, 1) - data.fault_range_y))
            share = residual / float(np.linalg.norm(data.fault_range_y))
            return False, f"returned a point for y in Fix R; residual {share:.0%} of ||y||"

        ops.append(
            Op(
                name="set_valued_inverse.fixed_space_rhs",
                call=lambda: dk.set_valued_inverse(state.shift3, data.fault_range_y),
                check=check_fault_range,
                known_fault=FAULT_RANGE,
            )
        )

        for (inst, gamma, x0), R in zip(data.prox, state.prox):
            target = inst.P @ x0

            def check(t, inst=inst, x0=x0, target=target):
                return _check_trajectory(
                    inst, x0, target, t.points, t.residuals, t.limit_estimate,
                    t.converged, t.iterations_used,
                )

            def perturb(t, rng):
                pts = [perturb_array(p, 1.0, rng) for p in t.points]
                return [
                    types.SimpleNamespace(
                        points=pts, residuals=t.residuals, limit_estimate=pts[-1],
                        converged=t.converged, iterations_used=t.iterations_used,
                    )
                ]

            ops.append(
                Op(
                    name=f"proximal_point.{inst.kind}{inst.m}.n{inst.n}@{gamma:g}",
                    call=lambda R=R, g=gamma, x0=x0: dk.proximal_point(
                        R, g, x0, max_iter=10_000, stop_tol=1e-14
                    ),
                    check=check,
                    perturb=perturb,
                )
            )

        for (inst, gamma, x), R in zip(data.series, state.series):
            want = np.linalg.solve((1.0 + gamma) * np.eye(inst.n) - gamma * inst.A, x)
            ops.append(
                Op(
                    name=f"series_resolvent_apply.{inst.kind}{inst.m}.n{inst.n}@{gamma:g}",
                    call=lambda R=R, g=gamma, x=x: dk.series_resolvent_apply(R, g, x, 1e-12),
                    check=_array_check(want, _max_abs(x), 1e-11),
                    perturb=_array_perturb(_max_abs(x)),
                )
            )

        for (inst, x0), R in zip(data.ergodic, state.ergodic):
            want = inst.P @ x0
            ops.append(
                Op(
                    name=f"ergodic_mean.{inst.kind}{inst.m}.n{inst.n}",
                    call=lambda R=R, x0=x0, steps=64 * inst.m: dk.ergodic_mean(R, x0, steps),
                    check=_array_check(want, _max_abs(x0), 1e-10),
                    perturb=_array_perturb(_max_abs(x0)),
                )
            )

        for (inst, family, gamma, tol), op in zip(data.lipschitz, state.lipschitz_ops):
            want = ref.max_abs_symbol(family, gamma, inst.lams, inst.fixed)

            def check(est, want=want, tol=tol):
                return _within(abs(float(est) - want), tol, f"|estimate - max|symbol||, want {want:.12g}")

            ops.append(
                Op(
                    name=f"lipschitz_estimate.{inst.kind}{inst.m}.{family}"
                    + (f"@{gamma:g}" if gamma is not None else ""),
                    call=lambda op=op: dk.lipschitz_estimate(op),
                    check=check,
                    perturb=lambda est, rng: [float(est) * (1.0 + PERTURBATION)],
                )
            )

        complement_x = data.fault_gamma_x - np.mean(data.fault_gamma_x)

        def check_tiny_gamma(out):
            bound = 3 * 1e-310 + 1e-10 * _max_abs(data.fault_gamma_x)
            return _within(_max_abs(np.asarray(out) - complement_x), bound, "max|out - (I-P)x|")

        ops.append(
            Op(
                name="resolvent_inverse.tiny_gamma",
                call=lambda: dk.resolvent_inverse(state.shift3, 1e-310).apply(data.fault_gamma_x),
                check=check_tiny_gamma,
                known_fault=FAULT_TINY_GAMMA,
            )
        )

        inst, y, rhs_path = data.cli_solve
        argv = ["solve", "--kind", inst.base, "--m", str(inst.m), "--block-dim", str(inst.size),
                "--rhs", rhs_path]

        out_path = os.path.join(data.workdir, "solve.out.json")

        def check_cli_solve(out, inst=inst, y=y):
            code, text = _read_cli(out)
            if code != 0:
                return False, f"exit code {code}"
            try:
                doc = json.loads(text)
                return _check_solution(inst, y, doc["point"], doc["basis"], seed + 100)
            except (ValueError, KeyError, TypeError) as exc:
                return False, f"unreadable output: {exc!r}"

        def perturb_cli_solve(out, rng, out_path=out_path):
            code, text = _read_cli(out)
            doc = json.loads(text)
            wrong = []
            for k, v in enumerate(_perturb_solution(doc["point"], doc["basis"], 1.0, rng)):
                wrong_doc = {"point": v.point.tolist(), "basis": [b.tolist() for b in v.basis]}
                wrong.append(_write_cli(code, wrong_doc, f"{out_path}.perturbed{k}"))
            return wrong

        ops.append(
            Op(
                name="cli.solve",
                call=lambda argv=argv, path=out_path: _capture_cli(dk, argv, path),
                check=check_cli_solve,
                perturb=perturb_cli_solve,
                extras=_cli_stdout_mb,
            )
        )

        inst, gamma, x0, x0_path = data.cli_iterate
        target = inst.P @ x0
        argv = ["iterate", "--kind", inst.base, "--m", str(inst.m), "--block-dim", str(inst.size),
                "--gamma", repr(gamma), "--x0", x0_path, "--tol", "1e-14"]

        out_path = os.path.join(data.workdir, "iterate.out.json")

        def check_cli_iterate(out, inst=inst, x0=x0, target=target):
            code, text = _read_cli(out)
            if code != 0:
                return False, f"exit code {code}"
            try:
                doc = json.loads(text)
                return _check_trajectory(
                    inst, x0, target, doc["points"], doc["residuals"], doc["limit_estimate"],
                    doc["converged"], doc["iterations_used"],
                )
            except (ValueError, KeyError, TypeError) as exc:
                return False, f"unreadable output: {exc!r}"

        def perturb_cli_iterate(out, rng, out_path=out_path):
            code, text = _read_cli(out)
            doc = json.loads(text)
            pts = [perturb_array(p, 1.0, rng) for p in doc["points"]]
            doc["points"] = [p.tolist() for p in pts]
            doc["limit_estimate"] = pts[-1].tolist()
            return [_write_cli(code, doc, f"{out_path}.perturbed")]

        # last, so that parsing its large output cannot raise the peak memory
        # recorded after any program call
        ops.append(
            Op(
                name="cli.iterate",
                call=lambda argv=argv, path=out_path: _capture_cli(dk, argv, path),
                check=check_cli_iterate,
                perturb=perturb_cli_iterate,
                extras=_cli_stdout_mb,
            )
        )
        return ops


WORKLOADS = {w.name: w for w in (BulkApply(), VerifyBattery(), SolveIterate())}
