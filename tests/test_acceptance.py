"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import time
from fractions import Fraction

from symclone.closed_forms import bloch_vector, fidelity, shrink
from symclone.cloner import uqcm_pure_output
from symclone.symspace import reduce_one
from symclone.verify import (
    concat_suite,
    covariance_suite,
    isometry_suite,
    oracle_suite,
    scaling_suite,
)


def _report(number, description, elapsed, limit):
    print(f"criterion {number}: PASS ({description}; {elapsed:.2f}s < {limit:g}s)")
    assert elapsed < limit


def test_criterion_1_one_to_two_qubit_point():
    started = time.perf_counter()
    red = reduce_one(uqcm_pure_output(2, 1, 2))
    simulated_f = red.entries[0, 0].real
    simulated_eta = bloch_vector(red)[2]  # input Bloch vector is (0, 0, 1)
    assert abs(simulated_f - float(Fraction(5, 6))) <= 1e-12
    assert abs(simulated_eta - float(Fraction(2, 3))) <= 1e-12
    assert fidelity(2, 1, 2) == Fraction(5, 6)
    assert shrink(2, 1, 2) == Fraction(2, 3)
    _report(1, "1->2 qubit fidelity 5/6 and shrink 2/3", time.perf_counter() - started, 1.0)


def test_criterion_2_scaling_law():
    started = time.perf_counter()
    report = scaling_suite(
        seed=2026, dims=(2, 3, 4), max_m=4, max_l=6, inputs_per_kind=10
    )
    worst = max(case.residual for case in report.cases)
    kinds = {case.params["kind"] for case in report.cases}
    assert kinds == {"ginibre", "hermitian"}  # PSD and non-PSD inputs both covered
    assert report.passed and worst <= 1e-10
    _report(
        2,
        f"contraction law on {len(report.cases)} cells, worst residual {worst:.2e}",
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_3_concatenation():
    started = time.perf_counter()
    report = concat_suite(dims=(2, 3), max_l=6)
    worst = max(case.residual for case in report.cases)
    assert len(report.cases) == 2 * 56  # all 1 <= n <= m <= l <= 6 per d
    assert report.passed and worst <= 1e-12
    _report(
        3,
        f"two-stage equals direct on {len(report.cases)} cases, worst {worst:.2e}",
        time.perf_counter() - started,
        10.0,
    )


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    report = oracle_suite(seed=2026, inputs_per_kind=10)
    worst = max(case.residual for case in report.cases)
    cells = {(c.params["d"], c.params["m"], c.params["l"]) for c in report.cases}
    assert {(2, m, l) for m in (1, 2, 3) for l in range(m, 5)} <= cells
    assert {(3, m, l) for m in (1, 2) for l in range(m, 4)} <= cells
    assert report.passed and worst <= 1e-10
    _report(
        4,
        f"fast path vs full tensor product, worst residual {worst:.2e}",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_5_exact_algebraic_identities():
    started = time.perf_counter()
    report = isometry_suite(max_d=4, max_m=4, max_l=8)
    by_check = {}
    for case in report.cases:
        by_check.setdefault(case.params["check"], []).append(case)
    # rational identities hold exactly, not merely within tolerance
    assert all(c.residual == 0.0 for c in by_check["normalization"])
    assert all(c.residual == 0.0 for c in by_check["ancilla_count"])
    assert all(c.residual == 0.0 for c in by_check["fidelity_shrink"])
    gram_worst = max(c.residual for c in by_check["gram"])
    assert gram_worst <= 1e-12
    assert report.passed
    _report(
        5,
        f"normalization/ancilla/fidelity exact, Gram worst {gram_worst:.2e}",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_6_closed_form_tables():
    started = time.perf_counter()
    assert fidelity(2, 1, 2) == Fraction(5, 6)
    assert fidelity(3, 1, 2) == Fraction(3, 4)
    assert shrink(3, 1, 2) == Fraction(5, 8)
    for d in (2, 3, 4, 5):
        for m in (1, 2, 3):
            assert shrink(d, m, m) == 1
    worst = 0.0
    for d in (2, 3, 4):
        for n in range(1, 6):
            for m in range(n, 6):
                red = reduce_one(uqcm_pure_output(d, n, m))
                deviation = abs(red.entries[0, 0].real - float(fidelity(d, n, m)))
                worst = max(worst, deviation)
    assert worst <= 1e-12
    _report(
        6,
        f"closed forms reproduced; simulated fidelity off by {worst:.2e}",
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_7_covariance():
    started = time.perf_counter()
    report = covariance_suite(seed=2026, unitaries_per_cell=5)
    worst = max(case.residual for case in report.cases)
    assert report.passed and worst <= 1e-10
    _report(
        7,
        f"single-site covariance under random unitaries, worst {worst:.2e}",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_8_negative_control():
    started = time.perf_counter()
    grid = dict(dims=(2,), max_m=2, max_l=4, inputs_per_kind=5)
    healthy = scaling_suite(seed=2026, **grid)
    perturbed = scaling_suite(seed=2026, eta_factor=1.01, **grid)
    assert healthy.passed
    assert not perturbed.passed
    tripped = max(case.residual for case in perturbed.cases)
    assert tripped > 1e-10
    _report(
        8,
        f"perturbed shrinking factor trips the suite at {tripped:.2e}",
        time.perf_counter() - started,
        30.0,
    )
