"""Verification suites with deterministic, machine-readable reports.

Each suite walks a parameter grid in sorted order, draws its random inputs
from per-cell seeded generators, and records one residual per case.  A report
passes iff every case residual is at or below its tolerance.  Reports carry
no timestamps, so identical arguments produce identical content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import (
    fidelity,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from .cloner import (
    ancilla_dim,
    clone_amplitudes,
    clone_channel,
    concatenate,
    isometry_gram,
)
from .oracle import (
    covariance_check,
    ginibre_sym_operator,
    hermitian_sym_operator,
    oracle_clone,
    random_unitary,
    sym_embedding,
)
from .symspace import (
    InvalidParameterError,
    QuditOperator,
    SymOperator,
    dim,
    enumerate_basis,
    reduce_one,
)

# keyword arguments that shrink each suite's grids for a smoke run
QUICK_GRIDS = {
    "scaling": {"dims": (2,), "max_m": 2, "max_l": 3, "inputs_per_kind": 3},
    "isometry": {"max_d": 3, "max_m": 3, "max_l": 5},
    "concat": {"max_l": 4},
    "oracle": {"inputs_per_kind": 3},
    "covariance": {"unitaries_per_cell": 2},
}

SUITES = tuple(QUICK_GRIDS)

TOLERANCES = {
    "scaling": 1e-10,
    "oracle": 1e-10,
    "covariance": 1e-10,
    "isometry": 1e-12,
    "concat": 1e-12,
}

# (d, m, l) cells where the full tensor-product construction stays small
ORACLE_GRID = tuple((2, m, l) for m in (1, 2, 3) for l in range(m, 5)) + tuple(
    (3, m, l) for m in (1, 2) for l in range(m, 4)
)

# each kind of random input, keyed by name; its place is the code in its cells' seeds
_DRAWS = {"ginibre": ginibre_sym_operator, "hermitian": hermitian_sym_operator}


@dataclass(frozen=True)
class CaseResult:
    params: dict
    residual: float
    tol: float
    passed: bool
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    suite: str
    seed: int
    grid: dict
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def overall(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        """JSON-ready form; a non-finite residual or extra is written as the
        string "nan", "inf" or "-inf", since JSON has no such numbers."""
        cases = []
        for c in self.cases:
            entry = {
                "params": c.params,
                "residual": _json_float(c.residual),
                "tol": c.tol,
                "passed": c.passed,
            }
            if c.extra:
                entry["extra"] = {key: _json_float(value) for key, value in c.extra.items()}
            cases.append(entry)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "grid": self.grid,
            "overall": self.overall,
            "cases": cases,
        }


def _json_float(x: float) -> float | str:
    return x if math.isfinite(x) else str(x)


def _cell_rng(seed: int, *coords: int) -> np.random.Generator:
    return np.random.default_rng([seed, *coords])


def _worst(residuals) -> float:
    # np.max propagates NaN; Python's max(0.0, nan) would drop it
    return float(np.max(residuals, initial=0.0))


def _case(params: dict, residuals, tol: float, extra: dict | None = None) -> CaseResult:
    """One case, decided by its worst residual; a non-finite one fails."""
    worst = _worst(residuals)
    return CaseResult(params, worst, tol, math.isfinite(worst) and worst <= tol, extra or {})


def scaling_suite(
    seed: int = 0,
    tol: float | None = None,
    eta_factor: float = 1.0,
    dims: tuple[int, ...] = (2, 3, 4),
    max_m: int = 4,
    max_l: int = 6,
    inputs_per_kind: int = 10,
) -> RunReport:
    """Reduced outputs must contract by the closed-form factor, for PSD and
    non-PSD trace-1 Hermitian inputs alike."""
    tol = TOLERANCES["scaling"] if tol is None else tol
    cases = []
    for d in dims:
        for m in range(1, max_m + 1):
            for l in range(m, max_l + 1):
                for code, (kind, draw) in enumerate(_DRAWS.items()):
                    x = draw(d, m, _cell_rng(seed, d, m, l, code), count=inputs_per_kind)
                    rin, rout = reduce_one(x), reduce_one(clone_channel(x, l))
                    residuals = scaling_residual(rin, rout, d, m, l, eta_factor)
                    bloch = scaling_residual_bloch(rin, rout, d, m, l, eta_factor)
                    cases.append(
                        _case(
                            {"d": d, "m": m, "l": l, "kind": kind},
                            residuals,
                            tol,
                            {"bloch_residual": _worst(bloch)},
                        )
                    )
    grid = {
        "dims": list(dims),
        "max_m": max_m,
        "max_l": max_l,
        "inputs_per_kind": inputs_per_kind,
        "eta_factor": eta_factor,
    }
    return RunReport("scaling", seed, grid, tuple(cases))


def isometry_suite(
    seed: int = 0,
    tol: float | None = None,
    max_d: int = 4,
    max_m: int = 4,
    max_l: int = 8,
) -> RunReport:
    """Exact algebraic identities: amplitude normalization, isometry Gram,
    ancilla count, and fidelity-shrink consistency."""
    tol = TOLERANCES["isometry"] if tol is None else tol
    cases = []
    for d in range(2, max_d + 1):
        for m in range(1, max_m + 1):
            for l in range(m, max_l + 1):
                cell = {"d": d, "m": m, "l": l}
                amps = clone_amplitudes(d, m, l)
                totals = amps.prefactor * amps.occupancy.sum(axis=1)
                cases.append(
                    _case(
                        {"check": "normalization", **cell},
                        [abs(float(total - 1)) for total in totals],
                        tol,
                    )
                )
                gram = isometry_gram(d, m, l)
                cases.append(
                    _case({"check": "gram", **cell}, np.abs(gram - np.eye(dim(d, m))), tol)
                )
                count_dev = abs(ancilla_dim(d, m, l) - enumerate_basis(d, l - m).size)
                cases.append(_case({"check": "ancilla_count", **cell}, [count_dev], tol))
    for d in range(2, 7):
        devs = [
            abs(float(fidelity(d, n, m) - (1 + (d - 1) * shrink(d, n, m)) / d))
            for n in range(1, 11)
            for m in range(n, 11)
        ]
        cases.append(_case({"check": "fidelity_shrink", "d": d}, devs, tol))
    grid = {"max_d": max_d, "max_m": max_m, "max_l": max_l}
    return RunReport("isometry", seed, grid, tuple(cases))


def concat_suite(
    seed: int = 0,
    tol: float | None = None,
    dims: tuple[int, ...] = (2, 3),
    max_l: int = 6,
) -> RunReport:
    """Two-stage n -> m -> l cloning must equal direct n -> l cloning."""
    tol = TOLERANCES["concat"] if tol is None else tol
    cases = []
    for d in dims:
        for n in range(1, max_l + 1):
            for m in range(n, max_l + 1):
                for l in range(m, max_l + 1):
                    via, direct = concatenate(d, n, m, l)
                    cases.append(
                        _case(
                            {"d": d, "n": n, "m": m, "l": l},
                            np.abs(via.entries - direct.entries),
                            tol,
                        )
                    )
    grid = {"dims": list(dims), "max_l": max_l}
    return RunReport("concat", seed, grid, tuple(cases))


def oracle_suite(
    seed: int = 0,
    tol: float | None = None,
    inputs_per_kind: int = 10,
) -> RunReport:
    """Symmetric-basis fast path against the full tensor-product construction:
    the whole l-site output, restricted to the symmetric subspace, and its
    single-site reduction."""
    tol = TOLERANCES["oracle"] if tol is None else tol
    cases = []
    for d, m, l in ORACLE_GRID:
        embed = sym_embedding(d, l)
        for code, (kind, draw) in enumerate(_DRAWS.items()):
            x = draw(d, m, _cell_rng(seed, d, m, l, code), count=inputs_per_kind)
            out = clone_channel(x, l)
            full, slow = oracle_clone(x, l)
            restricted = embed.conj().T @ full @ embed
            residuals = (
                np.abs(reduce_one(out).entries - slow.entries),
                np.abs(restricted - out.entries),
            )
            cases.append(
                _case({"d": d, "m": m, "l": l, "kind": kind}, [_worst(r) for r in residuals], tol)
            )
    grid = {"cells": [list(c) for c in ORACLE_GRID], "inputs_per_kind": inputs_per_kind}
    return RunReport("oracle", seed, grid, tuple(cases))


def covariance_suite(
    seed: int = 0,
    tol: float | None = None,
    unitaries_per_cell: int = 5,
) -> RunReport:
    """Single-site covariance under random local unitaries, full space both sides."""
    tol = TOLERANCES["covariance"] if tol is None else tol
    cases = []
    for d, m, l in ORACLE_GRID:
        rng = _cell_rng(seed, d, m, l, 7)
        # the (x, u) pairs are drawn in turn, kinds alternating, then checked as one stack
        xs, us = [], []
        for i in range(unitaries_per_cell):
            xs.append(_DRAWS["ginibre" if i % 2 == 0 else "hermitian"](d, m, rng).entries)
            us.append(random_unitary(d, rng).entries)
        n = dim(d, m)
        x = SymOperator(enumerate_basis(d, m), np.reshape(xs, (len(xs), n, n)))
        u = QuditOperator(d, np.reshape(us, (len(us), d, d)))
        cases.append(_case({"d": d, "m": m, "l": l}, covariance_check(u, x, l), tol))
    grid = {
        "cells": [list(c) for c in ORACLE_GRID],
        "unitaries_per_cell": unitaries_per_cell,
    }
    return RunReport("covariance", seed, grid, tuple(cases))


def run_suite(
    name: str,
    seed: int = 0,
    tol: float | None = None,
    eta_factor: float = 1.0,
    quick: bool = False,
) -> RunReport:
    """Dispatch a named suite; "all" concatenates every suite's cases.

    quick shrinks the grids for smoke runs; the defaults are the full
    verification grids.
    """
    if name == "all":
        merged = []
        for sub in SUITES:
            report = run_suite(sub, seed=seed, tol=tol, eta_factor=eta_factor, quick=quick)
            for c in report.cases:
                merged.append(
                    CaseResult(
                        params={"suite": sub, **c.params},
                        residual=c.residual,
                        tol=c.tol,
                        passed=c.passed,
                        extra=c.extra,
                    )
                )
        return RunReport("all", seed, {"suites": list(SUITES)}, tuple(merged))
    if name not in QUICK_GRIDS:
        raise InvalidParameterError(f"unknown suite {name!r}")
    kwargs = dict(QUICK_GRIDS[name]) if quick else {}
    if name == "scaling":
        kwargs["eta_factor"] = eta_factor
    # looked up by name at call time, so a rebound module attribute (such as
    # a profiler's timing wrapper) is the one that runs
    return globals()[f"{name}_suite"](seed=seed, tol=tol, **kwargs)
