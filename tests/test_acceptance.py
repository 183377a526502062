"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single machine-greppable pass/fail line; the instance
grid covers every kind, orders 2..8, and dimensions up to 64.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they appear.

A criterion that the invariant battery checks on the same grid, with the same
quantity and the same or a tighter bound, reads the battery's report by label;
``run_verification(seed=0)`` builds GRID (its instances use seed + 7).
"""

import time

import numpy as np
import pytest

from displacement_kit import (
    displacement_apply,
    materialize,
    projector_fix,
    projector_fix_complement,
    pseudo_inverse,
    resolvent,
    resolvent_inverse,
    run_verification,
    series_resolvent_apply,
    skew_part,
)
from displacement_kit.verification import reproduce_worked_examples, standard_instances

GRID = standard_instances(max_m=8, max_dim=64, seed=7)
ORACLE_GAMMAS = (0.01, 1.0, 100.0)


def _line(number, description, worst, tol, ok=None, extra=""):
    ok = (worst <= tol) if ok is None else ok
    status = "PASS" if ok else "FAIL"
    print(
        f"[acceptance] criterion {number:2d} ({description}): {status}"
        f"  worst={worst:.3e}  tol={tol:.1e}{extra}"
    )
    return ok


@pytest.fixture(scope="module")
def battery():
    """Reports of one battery run on GRID, by label, and the run's wall time."""
    start = time.monotonic()
    reports = run_verification(seed=0)
    return {r.label: r for r in reports}, time.monotonic() - start


def _battery_line(number, description, battery, checks, extra=""):
    """Criterion line from battery reports.  ``checks`` pairs each label with the
    criterion's bound; the report passes only within a tolerance at most that."""
    reports, _ = battery
    ok, worst, parts = True, 0.0, []
    for label, bound in checks:
        report = reports[label]
        ok = ok and report.passed and report.tolerance <= bound
        worst = max(worst, report.max_abs_deviation)
        parts.append(f"  [{label}]={report.max_abs_deviation:.2e}(<={report.tolerance:.0e})")
    tol = max(bound for _, bound in checks)
    return _line(number, description, worst, tol, ok=ok, extra="".join(parts) + extra)


def test_criterion_01_worked_example_reproduction(battery):
    start = time.monotonic()
    for gamma in (0.5, 1.0, 2.0):
        reproduce_worked_examples(gamma)
    elapsed = time.monotonic() - start
    ok = _battery_line(
        1,
        "tabulated matrices at gamma in {1/2, 1, 2}",
        battery,
        (("tabulated small-instance matrices are reproduced", 1e-12),),
        extra=f"  runtime={elapsed:.3f}s",
    )
    assert ok
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence(battery):
    elapsed = battery[1]  # the whole battery, these oracle comparisons included
    ok = _battery_line(
        2,
        "closed forms vs dense oracle over the full grid",
        battery,
        (
            ("resolvent matches the linear-solve oracle", 1e-10),
            ("pseudoinverse matches the SVD oracle", 1e-9),
            ("fixed projector matches the nullspace oracle", 1e-9),
        ),
        extra=f"  runtime={elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_03_moore_penrose_axioms(battery):
    assert _battery_line(
        3,
        "Moore-Penrose axioms for the displacement",
        battery,
        (("Moore-Penrose axioms for the displacement", 1e-10),),
    )


def test_criterion_04_double_displacement_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for R in GRID:
        T = skew_part(R)
        for _ in range(100):
            x = rng.standard_normal(R.dim)
            lhs = displacement_apply(R, 2.0 * T.apply(displacement_apply(R, x)))
            worst = max(worst, float(np.max(np.abs(lhs - (x - R.apply_power(2, x))))))
    assert _line(4, "M(2T(x-Rx)) = x - R^2 x on 100 vectors per instance", worst, 1e-10)


def test_criterion_05_skew_operator_properties(battery):
    assert _battery_line(
        5,
        "skew-adjointness, range containment, folded form",
        battery,
        (
            ("skew companion is skew with range in the complement", 1e-10),
            ("skew companion folded form matches", 1e-12),
        ),
    )


def test_criterion_06_coefficient_simplex(battery):
    assert _battery_line(
        6,
        "coefficients positive, summing to 1, gamma in [1e-8, 1e8]",
        battery,
        (("resolvent coefficients stay in the simplex", 1e-14),),
    )


def test_criterion_07_firm_nonexpansiveness():
    rng = np.random.default_rng(2025)
    worst = 0.0
    n_pairs = 1000
    for R in GRID:
        operators = [materialize(resolvent(R, g)) for g in ORACLE_GAMMAS]
        operators += [materialize(resolvent_inverse(R, g)) for g in ORACLE_GAMMAS]
        x = rng.standard_normal((R.dim, n_pairs))
        y = rng.standard_normal((R.dim, n_pairs))
        d = x - y
        for op in operators:
            image = op @ d
            violation = np.einsum("ij,ij->j", image, image) - np.einsum("ij,ij->j", d, image)
            worst = max(worst, float(np.max(violation)))
    assert _line(7, "firm nonexpansiveness on 1000 pairs per instance", worst, 1e-10)


def test_criterion_08_contraction_bounds(battery):
    assert _battery_line(
        8,
        "inverse-resolvent Lipschitz <= 2/(2+gamma), sharp at m=2 rotator",
        battery,
        (
            ("inverse resolvent contracts with constant 2/(2+gamma)", 1e-8),
            ("contraction constant is attained by the order-2 rotator", 1e-8),
            ("resolvent is not a contraction when the fixed space is nontrivial", 1e-12),
        ),
    )


def test_criterion_09_strong_monotonicity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    n_pairs = 1000
    for R in GRID:
        comp = materialize(projector_fix_complement(R))
        pinv = materialize(pseudo_inverse(R))
        y1 = comp @ rng.standard_normal((R.dim, n_pairs))
        y2 = comp @ rng.standard_normal((R.dim, n_pairs))
        dy = y1 - y2
        gap = pinv @ dy
        violation = 0.5 * np.einsum("ij,ij->j", dy, dy) - np.einsum("ij,ij->j", gap, dy)
        worst = max(worst, float(np.max(violation)))
    assert _line(9, "1/2-strong monotonicity on 1000 range pairs per instance", worst, 1e-10)


def test_criterion_10_asymptotic_bounds():
    rng = np.random.default_rng(2027)
    small_ratio = large_ratio = 0.0
    for R in GRID:
        proj = projector_fix(R)
        for _ in range(4):
            x = rng.standard_normal(R.dim)
            norm_x = float(np.linalg.norm(x))
            for gamma in (1e-3, 1e-4):
                dev = float(np.linalg.norm(resolvent(R, gamma).apply(x) - x))
                small_ratio = max(small_ratio, dev / (gamma * norm_x))
            px = proj.apply(x)
            for gamma in (1e3, 1e4):
                dev = float(np.linalg.norm(resolvent(R, gamma).apply(x) - px))
                large_ratio = max(large_ratio, dev * gamma / (R.order * norm_x))
    ok = small_ratio <= 5.0 and large_ratio <= 5.0
    _line(
        10,
        "asymptotic slack: ||Jx-x|| <= 5g||x||, ||Jx-Px|| <= 5(m/g)||x||",
        max(small_ratio, large_ratio),
        5.0,
        ok=ok,
    )
    assert ok


def test_criterion_11_series_matches_closed_form():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for R in GRID:
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(2):
                x = rng.standard_normal(R.dim)
                x /= float(np.linalg.norm(x))
                dev = np.max(
                    np.abs(
                        series_resolvent_apply(R, gamma, x, 1e-12)
                        - resolvent(R, gamma).apply(x)
                    )
                )
                worst = max(worst, float(dev))
    assert _line(11, "truncated series vs closed form at eps=1e-12", worst, 1e-11)


def test_criterion_12_ergodic_mean_and_proximal_limit(battery):
    # the battery iterates with max_iter=10_000 and the tighter stop_tol=1e-14
    assert _battery_line(
        12,
        "ergodic mean at 64m and proximal-point limit",
        battery,
        (
            ("ergodic mean at 64m recovers the fixed projector", 1e-10),
            ("proximal point converges to the projected start", 1e-8),
        ),
    )
