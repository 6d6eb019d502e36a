"""The suites share each cell's work and keep every case's bits.

The scaling and oracle suites pass a cell's draws of both kinds through the
channel as one stack, the concat suite clones each pure seed once per
(d, n, j), and the isometry suite checks its exact identities in integers.
The loops below are the plain ones, built from public functions: one draw
kind at a time, one concatenate call per case, and Fraction arithmetic.
Every case must come out equal, residual and extras compared with ==, so a
report keeps its bytes.
"""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from symclone import verify
from symclone.closed_forms import fidelity, scaling_residual, scaling_residual_bloch, shrink
from symclone.cloner import clone_amplitudes, clone_channel, concatenate, isometry_gram
from symclone.oracle import (
    ginibre_sym_operator,
    hermitian_sym_operator,
    oracle_clone,
    sym_embedding,
)
from symclone.symspace import dim, enumerate_basis, reduce_one
from symclone.verify import (
    ORACLE_GRID,
    SUITES,
    TOLERANCES,
    CaseResult,
    concat_suite,
    isometry_suite,
    oracle_suite,
    scaling_suite,
)

KINDS = (("ginibre", ginibre_sym_operator), ("hermitian", hermitian_sym_operator))


def case(params, residuals, tol, extra=None):
    worst = float(np.max(residuals, initial=0.0))
    return CaseResult(params, worst, tol, extra or {})


def draws(seed, d, m, l, code, draw, count=10):
    return draw(d, m, np.random.default_rng([seed, d, m, l, code]), count=count)


def scaling_one_kind_at_a_time(seed):
    tol, cases = TOLERANCES["scaling"], []
    for d in (2, 3, 4):
        for m in range(1, 5):
            for l in range(m, 7):
                for code, (kind, draw) in enumerate(KINDS):
                    x = draws(seed, d, m, l, code, draw)
                    rin, rout = reduce_one(x), reduce_one(clone_channel(x, l))
                    bloch = scaling_residual_bloch(rin, rout, d, m, l)
                    cases.append(
                        case(
                            {"d": d, "m": m, "l": l, "kind": kind},
                            scaling_residual(rin, rout, d, m, l),
                            tol,
                            {"bloch_residual": float(np.max(bloch, initial=0.0))},
                        )
                    )
    return cases


def oracle_one_kind_at_a_time(seed):
    tol, cases = TOLERANCES["oracle"], []
    for d, m, l in ORACLE_GRID:
        embed = sym_embedding(d, l)
        for code, (kind, draw) in enumerate(KINDS):
            x = draws(seed, d, m, l, code, draw)
            out = clone_channel(x, l)
            full, slow = oracle_clone(x, l)
            residuals = (
                np.abs(reduce_one(out).entries - slow.entries),
                np.abs(embed.conj().T @ full @ embed - out.entries),
            )
            worst = [float(np.max(r, initial=0.0)) for r in residuals]
            cases.append(case({"d": d, "m": m, "l": l, "kind": kind}, worst, tol))
    return cases


def concat_one_call_per_case():
    tol, cases = TOLERANCES["concat"], []
    for d in (2, 3):
        for n in range(1, 7):
            for m in range(n, 7):
                for l in range(m, 7):
                    via, direct = concatenate(d, n, m, l)
                    deviation = np.abs(via.entries - direct.entries)
                    cases.append(case({"d": d, "n": n, "m": m, "l": l}, deviation, tol))
    return cases


def isometry_in_fractions():
    tol, cases = TOLERANCES["isometry"], []
    for d in range(2, 5):
        for m in range(1, 5):
            for l in range(m, 9):
                cell = {"d": d, "m": m, "l": l}
                amps = clone_amplitudes(d, m, l)
                totals = [Fraction(int(s), amps.total) for s in amps.occupancy.sum(axis=1)]
                devs = [abs(float(total - 1)) for total in totals]
                cases.append(case({"check": "normalization", **cell}, devs, tol))
                gram = isometry_gram(d, m, l)
                cases.append(case({"check": "gram", **cell}, np.abs(gram - np.eye(dim(d, m))), tol))
                count_dev = abs(dim(d, l - m) - enumerate_basis(d, l - m).size)
                cases.append(case({"check": "ancilla_count", **cell}, [count_dev], tol))
    for d in range(2, 7):
        devs = [
            abs(float(fidelity(d, n, m) - (1 + (d - 1) * shrink(d, n, m)) / d))
            for n in range(1, 11)
            for m in range(n, 11)
        ]
        cases.append(case({"check": "fidelity_shrink", "d": d}, devs, tol))
    return cases


@pytest.mark.parametrize("seed", [0, 42])
def test_stacked_suites_keep_every_case_of_the_one_kind_loops(seed):
    # a cell's draws of both kinds pass through both sides as one stack, and
    # each kind's case reads its part of the residuals
    assert list(scaling_suite(seed=seed).cases) == scaling_one_kind_at_a_time(seed)
    assert list(oracle_suite(seed=seed).cases) == oracle_one_kind_at_a_time(seed)


def test_concat_suite_keeps_every_case_of_one_concatenate_per_case():
    assert list(concat_suite().cases) == concat_one_call_per_case()


def test_integer_identities_keep_every_fraction_residual():
    # the suite takes each residual as one integer numerator over one integer
    # denominator; int / int is correctly rounded, as float(Fraction) is
    assert list(isometry_suite().cases) == isometry_in_fractions()


def test_concat_suite_clones_each_pure_seed_once_per_j(monkeypatch):
    calls = []
    original = verify.uqcm_pure_output

    def counting(d, n, m):
        calls.append((d, n, m))
        return original(d, n, m)

    monkeypatch.setattr(verify, "uqcm_pure_output", counting)
    report = concat_suite()
    assert len(report.cases) == 112
    # one per 1 <= n <= j <= 6 and d in (2, 3); one clone per stage of every
    # case would make 224
    assert len(calls) == len(set(calls)) == 42


def test_a_case_passes_iff_its_residual_is_finite_and_within_tol():
    # the verdict is read off the residual and tol, never stored beside them
    fields = [f.name for f in dataclasses.fields(CaseResult)]
    assert fields == ["params", "residual", "tol", "extra"]
    residuals = (0.0, 1e-10, 2e-10, math.inf, math.nan)
    assert [CaseResult({}, r, 1e-10).passed for r in residuals] == [True, True, False, False, False]
    # an infinite tolerance still fails an infinite residual
    assert not CaseResult({}, math.inf, math.inf).passed


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_defaults_to_its_tolerance(name):
    signature = inspect.signature(getattr(verify, f"{name}_suite"))
    assert signature.parameters["tol"].default == TOLERANCES[name]
    report = verify.run_suite(name, quick=True)
    assert {case.tol for case in report.cases} == {TOLERANCES[name]}
