"""Verification suites.  Each walks a grid in sorted order, draws its inputs
from per-cell seeded generators and records one residual per case, so the
same arguments give the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .closed_forms import (
    fidelity,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from .cloner import (
    clone_amplitudes,
    clone_channel,
    isometry_gram,
    uqcm_pure_output,
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
    SymOperator,
    dim,
    reduce_one,
    require_room,
    sym_operator,
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
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol


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
        """JSON-ready form; a non-finite number is the string "nan", "inf"
        or "-inf"."""
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
    """One case, its residual the worst of residuals."""
    return CaseResult(params, _worst(residuals), tol, extra or {})


def _check_draws(count: int) -> None:
    """Raise InvalidParameterError for a negative count of draws per cell."""
    if count < 0:
        raise InvalidParameterError(f"draws per cell must be >= 0, got {count}")


def _cell_draws(seed: int, d: int, m: int, l: int, count: int) -> SymOperator:
    """The cell's draws of every kind, each from its own generator, as one
    stack in _DRAWS order."""
    stacks = [
        draw(d, m, _cell_rng(seed, d, m, l, code), count=count).entries
        for code, draw in enumerate(_DRAWS.values())
    ]
    return sym_operator(d, m, np.concatenate(stacks))


def _by_kind(per_draw: np.ndarray) -> list[np.ndarray]:
    """Split a result over _cell_draws's stack into one part per kind."""
    return np.split(per_draw, len(_DRAWS))


def scaling_suite(
    seed: int = 0,
    tol: float = TOLERANCES["scaling"],
    eta_factor: float = 1.0,
    dims: tuple[int, ...] = (2, 3, 4),
    max_m: int = 4,
    max_l: int = 6,
    inputs_per_kind: int = 10,
) -> RunReport:
    """Reduced outputs contract by eta, for Ginibre and indefinite Hermitian
    inputs; one case per cell and kind.  Raises InvalidParameterError for a
    negative inputs_per_kind."""
    _check_draws(inputs_per_kind)
    cases = []
    for d in dims:
        for m in range(1, max_m + 1):
            for l in range(m, max_l + 1):
                x = _cell_draws(seed, d, m, l, inputs_per_kind)
                rin, rout = reduce_one(x), reduce_one(clone_channel(x, l))
                residuals = scaling_residual(rin, rout, d, m, l, eta_factor)
                bloch = scaling_residual_bloch(rin, rout, d, m, l, eta_factor)
                for kind, r, b in zip(_DRAWS, _by_kind(residuals), _by_kind(bloch)):
                    cases.append(
                        _case(
                            {"d": d, "m": m, "l": l, "kind": kind},
                            r,
                            tol,
                            {"bloch_residual": _worst(b)},
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
    tol: float = TOLERANCES["isometry"],
    max_d: int = 4,
    max_m: int = 4,
    max_l: int = 8,
) -> RunReport:
    """Amplitude normalization, the ancilla count and fidelity against
    shrink, exact, each residual one correctly rounded int / int, and the
    float64 isometry Gram against the identity."""
    cases = []
    for d in range(2, max_d + 1):
        for m in range(1, max_m + 1):
            for l in range(m, max_l + 1):
                cell = {"d": d, "m": m, "l": l}
                amps = clone_amplitudes(d, m, l)
                # each row's alpha^2 sum is its occupancy sum over total
                q = amps.total
                cases.append(
                    _case(
                        {"check": "normalization", **cell},
                        [abs((int(s) - q) / q) for s in amps.occupancy.sum(axis=1)],
                        tol,
                    )
                )
                gram = isometry_gram(d, m, l)
                cases.append(
                    _case({"check": "gram", **cell}, np.abs(gram - np.eye(dim(d, m))), tol)
                )
                # one ancilla state per added composition, a column of the table
                count_dev = abs(dim(d, l - m) - amps.occupancy.shape[1])
                cases.append(_case({"check": "ancilla_count", **cell}, [count_dev], tol))
    for d in range(2, 7):
        devs = [_fidelity_shrink_dev(d, n, m) for n in range(1, 11) for m in range(n, 11)]
        cases.append(_case({"check": "fidelity_shrink", "d": d}, devs, tol))
    grid = {"max_d": max_d, "max_m": max_m, "max_l": max_l}
    return RunReport("isometry", seed, grid, tuple(cases))


def _fidelity_shrink_dev(d: int, n: int, m: int) -> float:
    """|F - (1 + (d-1) eta) / d| for n -> m cloning, over one integer denominator."""
    f, eta = fidelity(d, n, m), shrink(d, n, m)
    num = f.numerator * d * eta.denominator - f.denominator * (
        eta.denominator + (d - 1) * eta.numerator
    )
    return abs(num / (f.denominator * d * eta.denominator))


def concat_suite(
    seed: int = 0,
    tol: float = TOLERANCES["concat"],
    dims: tuple[int, ...] = (2, 3),
    max_l: int = 6,
) -> RunReport:
    """Two-stage n -> m -> l cloning of the pure seed, through the dense view
    of its n -> m output, against direct n -> l cloning."""
    cases = []
    for d in dims:
        for n in range(1, max_l + 1):
            pure = {j: uqcm_pure_output(d, n, j) for j in range(n, max_l + 1)}
            for m in range(n, max_l + 1):
                mid = SymOperator(pure[m].basis, pure[m].entries)
                for l in range(m, max_l + 1):
                    cases.append(
                        _case(
                            {"d": d, "n": n, "m": m, "l": l},
                            np.abs(clone_channel(mid, l).entries - pure[l].entries),
                            tol,
                        )
                    )
    grid = {"dims": list(dims), "max_l": max_l}
    return RunReport("concat", seed, grid, tuple(cases))


def oracle_suite(
    seed: int = 0,
    tol: float = TOLERANCES["oracle"],
    inputs_per_kind: int = 10,
) -> RunReport:
    """The fast path against oracle_clone at ORACLE_GRID: the dense output,
    restricted to the symmetric subspace, and its single-site reduction.
    Raises InvalidParameterError for a negative inputs_per_kind."""
    _check_draws(inputs_per_kind)
    cases = []
    for d, m, l in ORACLE_GRID:
        embed = sym_embedding(d, l)
        x = _cell_draws(seed, d, m, l, inputs_per_kind)
        out = clone_channel(x, l)
        full, slow = oracle_clone(x, l)
        restricted = embed.conj().T @ full @ embed
        reduced = _by_kind(np.abs(reduce_one(out).entries - slow.entries))
        dense = _by_kind(np.abs(restricted - out.entries))
        for kind, r, e in zip(_DRAWS, reduced, dense):
            cases.append(
                _case({"d": d, "m": m, "l": l, "kind": kind}, [_worst(r), _worst(e)], tol)
            )
    grid = {"cells": [list(c) for c in ORACLE_GRID], "inputs_per_kind": inputs_per_kind}
    return RunReport("oracle", seed, grid, tuple(cases))


def covariance_suite(
    seed: int = 0,
    tol: float = TOLERANCES["covariance"],
    unitaries_per_cell: int = 5,
) -> RunReport:
    """covariance_check under random local unitaries at ORACLE_GRID.  Raises
    InvalidParameterError for a negative unitaries_per_cell and, before any
    draw, oracle_clone's ResourceLimitError for a stack of them at any cell."""
    _check_draws(unitaries_per_cell)
    # oracle_clone's bound on each cell's stack, which also bounds its draws
    largest = max(d ** (2 * l) for d, _, l in ORACLE_GRID)
    require_room(unitaries_per_cell * largest, "oracle array")
    cases = []
    for d, m, l in ORACLE_GRID:
        rng = _cell_rng(seed, d, m, l, 7)
        # the (x, u) pairs are drawn in turn, kinds alternating, then checked as one stack
        xs, us = [], []
        for i in range(unitaries_per_cell):
            xs.append(_DRAWS["ginibre" if i % 2 == 0 else "hermitian"](d, m, rng).entries)
            us.append(random_unitary(d, rng).entries)
        n = dim(d, m)
        x = sym_operator(d, m, np.reshape(xs, (len(xs), n, n)))
        u = sym_operator(d, 1, np.reshape(us, (len(us), d, d)))
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
    """The RunReport of a named suite, or of "all", every suite's cases with
    a "suite" param; quick takes QUICK_GRIDS, and a tol of None each suite's
    TOLERANCES entry.  Raises InvalidParameterError for an unknown name."""
    if name == "all":
        merged = []
        for sub in SUITES:
            report = run_suite(sub, seed=seed, tol=tol, eta_factor=eta_factor, quick=quick)
            merged += [replace(c, params={"suite": sub, **c.params}) for c in report.cases]
        return RunReport("all", seed, {"suites": list(SUITES)}, tuple(merged))
    if name not in QUICK_GRIDS:
        raise InvalidParameterError(f"unknown suite {name!r}")
    kwargs = dict(QUICK_GRIDS[name]) if quick else {}
    if tol is not None:
        kwargs["tol"] = tol
    if name == "scaling":
        kwargs["eta_factor"] = eta_factor
    # looked up by name at call time, so a rebound module attribute (such as
    # a profiler's timing wrapper) is the one that runs
    return globals()[f"{name}_suite"](seed=seed, **kwargs)
