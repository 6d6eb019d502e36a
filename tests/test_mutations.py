"""How many cases each verification suite fails under each of a few faults.

A mutant is a fault a real bug could make in the fast path: a permuted
amplitude table, reached through every module that looks clone_amplitudes
up; level sums one too large; reduced maps whose hop weights are off by a
factor independent of l;
a source's hops gathered transposed; two outputs of a channel plan
exchanged; or the plan's squared amplitudes off by a relative 1e-9.  The table
pins each suite's count of failing cases per mutant, so a change
that blinds a suite to a fault, or lets it see one it did not, shows here.
"""

import numpy as np
from conftest import (
    clear_plan_caches,
    mutate_tables,
    raise_level_sums,
    swap_columns,
    swap_in_row,
)

from symclone import cloner, symspace
from symclone.verify import SUITES, run_suite

# failing cases per mutant, in SUITES order: scaling, isometry, concat,
# oracle, covariance.  Every table keeps its rows' sums, so the isometry
# suite passes, and the covariance suite reads no table.  The scaling suite
# weighs both of its sides by reduced maps, which read no table, so it sees
# no table fault; wrong level sums it sees wherever l > m.  The input's map
# is its identity clone's, so a hop factor independent of l cancels there,
# and so do hops gathered transposed: only the oracle suite sees them.
# Exchanged plan outputs keep each column injective and the reduced maps
# whole, so only the dense view's readers, concat and oracle, see them, and
# they alone see squared amplitudes off by a factor
FAILING_CASES = {
    "row 0 swapped": (0, 0, 40, 18, 0),
    "last row swapped": (0, 0, 0, 18, 0),
    "columns 0 and 1 swapped": (0, 0, 40, 18, 0),
    "level sums + 1": (84, 0, 0, 28, 0),
    "W_hop x (1 + 1e-6)": (0, 0, 0, 28, 0),
    "hops gathered at (q, p)": (0, 0, 0, 28, 0),
    "plan outputs of ranks 0 and 1 exchanged in column 0": (0, 0, 112, 28, 0),
    "squared amplitudes x (1 + 1e-9)": (0, 78, 112, 28, 0),
}


def scale_hops(monkeypatch):
    exact = cloner.reduced_map

    def scaled(d, m, l):
        w_diag, w_hop = exact(d, m, l)
        return w_diag, w_hop * (1 + 1e-6)

    monkeypatch.setattr(cloner, "reduced_map", scaled)


def transpose_hops(monkeypatch):
    def transposed(self):
        diagonal = np.diagonal(self.entries, axis1=-2, axis2=-1)
        if not self.m:
            return diagonal, None
        rows, cols = np.divmod(self.basis.hop_entries, self.basis.size)
        return diagonal, self.entries[..., cols, rows]

    monkeypatch.setattr(symspace.SymOperator, "_diagonal_and_hops", transposed)


def exchange_plan_outputs(monkeypatch):
    exact = cloner.CloneAmplitudes.__dict__["plan"].func

    def exchanged(self):
        idx, v = exact(self)
        if len(idx) > 1:
            # row i of the plan is the input of canonical rank i
            idx = idx.copy()
            idx[[0, 1], 0] = idx[[1, 0], 0]
        return idx, v

    monkeypatch.setattr(cloner.CloneAmplitudes, "plan", property(exchanged))


def scale_squared(monkeypatch):
    exact = cloner.CloneAmplitudes.__dict__["plan"].func

    def scaled(self):
        idx, v = exact(self)
        return idx, v * np.sqrt(1 + 1e-9)

    monkeypatch.setattr(cloner.CloneAmplitudes, "plan", property(scaled))


MUTANTS = {
    "row 0 swapped": mutate_tables(swap_in_row(0)),
    "last row swapped": mutate_tables(swap_in_row(-1)),
    "columns 0 and 1 swapped": mutate_tables(swap_columns),
    "level sums + 1": raise_level_sums,
    "W_hop x (1 + 1e-6)": scale_hops,
    "hops gathered at (q, p)": transpose_hops,
    "plan outputs of ranks 0 and 1 exchanged in column 0": exchange_plan_outputs,
    "squared amplitudes x (1 + 1e-9)": scale_squared,
}


def run_mutant(install, monkeypatch):
    """Per suite, its count of failing cases under the mutant and what
    install returned, each suite on empty caches."""
    counts, built = [], {}
    for name in SUITES:
        clear_plan_caches()
        built[name] = install(monkeypatch)
        try:
            report = run_suite(name)
        finally:
            # no plan or map built under the mutant may outlive it
            monkeypatch.undo()
            clear_plan_caches()
        counts.append(sum(not case.passed for case in report.cases))
    return tuple(counts), built


def test_each_suite_fails_its_count_of_cases_under_each_mutant(monkeypatch):
    table, built = {}, {}
    for name, install in MUTANTS.items():
        table[name], built[name] = run_mutant(install, monkeypatch)
    assert table == FAILING_CASES
    for name in MUTANTS:
        tables = built[name]["scaling"]
        if tables is None:  # a mutant of a method, not of the tables
            continue
        # the scaling suite builds no table, and the concat suite reads them
        assert tables == []
        assert built[name]["concat"]
