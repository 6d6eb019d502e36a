import ast
import functools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import (
    clear_plan_caches,
    mutate_tables,
    raise_level_sums,
    swap_columns,
    swap_in_row,
    traced_peak,
)
from hypothesis import given, settings
from paper_formulas import alpha_d_sq, alpha_qubit_sq

from symclone import cloner, symspace
from symclone.cli import main
from symclone.closed_forms import (
    bloch_vector,
    generators,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from symclone.cloner import (
    clone_amplitudes,
    clone_channel,
    concatenate,
    isometry_gram,
    reduced_map,
    uqcm_pure_output,
)
from symclone.oracle import ginibre_sym_operator, hermitian_sym_operator, random_unitary
from symclone.symspace import (
    InvalidParameterError,
    ResourceLimitError,
    SymOperator,
    basis_projector,
    dim,
    enumerate_basis,
    guarded_dims,
    pascal,
    reduce_one,
    sym_operator,
)
from symclone.verify import concat_suite, oracle_suite, scaling_suite


def compositions(d, m):
    """The basis of (d, m) as count tuples, in the enumerated order."""
    return [tuple(c) for c in enumerate_basis(d, m).counts.tolist()]


class TestAlphaQubit:
    def test_one_to_two(self):
        assert alpha_qubit_sq(0, 0, 1, 2) == Fraction(2, 3)
        assert alpha_qubit_sq(0, 1, 1, 2) == Fraction(1, 3)
        assert math.sqrt(alpha_qubit_sq(0, 0, 1, 2)) == math.sqrt(2 / 3)

    def test_identity_when_no_copies_added(self):
        for m in range(0, 5):
            for j in range(m + 1):
                assert alpha_qubit_sq(j, 0, m, m) == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            alpha_qubit_sq(3, 0, 2, 4)
        with pytest.raises(InvalidParameterError):
            alpha_qubit_sq(0, 3, 2, 4)
        with pytest.raises(InvalidParameterError):
            alpha_qubit_sq(0, 0, 3, 2)


class TestAlphaD:
    def test_reduces_to_qubit_form(self):
        for m in range(0, 4):
            for l in range(m, m + 4):
                for j in range(m + 1):
                    for k in range(l - m + 1):
                        general = alpha_d_sq((m - j, j), (l - m - k, k), m, l)
                        assert general == alpha_qubit_sq(j, k, m, l)

    def test_identity_when_no_copies_added(self):
        for c in compositions(3, 2):
            assert alpha_d_sq(c, (0, 0, 0), 2, 2) == 1

    def test_three_level_example(self):
        got = alpha_d_sq((1, 0, 0), (1, 1, 0), 1, 3)
        assert got == Fraction(1, 5)
        assert math.sqrt(alpha_d_sq((1, 0, 0), (1, 1, 0), 1, 3)) == math.sqrt(0.2)

    def test_weight_mismatch(self):
        with pytest.raises(InvalidParameterError):
            alpha_d_sq((1, 0), (1, 0), 2, 3)
        with pytest.raises(InvalidParameterError):
            alpha_d_sq((1, 0), (2, 0), 1, 2)
        with pytest.raises(InvalidParameterError):
            alpha_d_sq((1, 0), (1, 0, 0), 1, 2)

    def test_prefactor_is_one_over_a_binomial(self):
        # 1 / total is the same reduced Fraction as the factorial form, at
        # every cell the guard admits; the uncached builds hold no table
        f = math.factorial
        for d in range(2, 9):
            for m in range(0, 9):
                for l in range(m, m + 12):
                    if guarded_dims(d, m, l - m) > symspace.ENTRY_GUARD:
                        continue
                    got = Fraction(1, clone_amplitudes.__wrapped__(d, m, l).total)
                    want = Fraction(f(l - m) * f(m + d - 1), f(l + d - 1))
                    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @given(d=st.integers(2, 4), m=st.integers(0, 3), extra=st.integers(0, 4))
    @settings(max_examples=40)
    def test_normalization_is_exact(self, d, m, extra):
        l = m + extra
        added = compositions(d, l - m)
        for j in compositions(d, m):
            total = sum((alpha_d_sq(j, k, m, l) for k in added), Fraction(0))
            assert total == 1


def ancilla_dim(d, m, l):
    # one orthonormal internal cloner state per added composition, a column
    # of the amplitude table
    return clone_amplitudes(d, m, l).occupancy.shape[1]


class TestAncillaDim:
    def test_examples(self):
        assert ancilla_dim(2, 1, 2) == 2
        assert ancilla_dim(3, 1, 3) == len(enumerate_basis(3, 2).counts) == 6
        for d in (2, 3, 4):
            assert ancilla_dim(d, 3, 3) == 1

    def test_counts_added_compositions(self):
        for d in (2, 3):
            for m in range(1, 4):
                for l in range(m, 7):
                    assert ancilla_dim(d, m, l) == dim(d, l - m)
                    assert ancilla_dim(d, m, l) == len(enumerate_basis(d, l - m).counts)

    def test_rejects_shrinking(self):
        with pytest.raises(InvalidParameterError):
            ancilla_dim(2, 3, 2)


class TestCloneChannel:
    def test_identity_at_equal_weights(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = sym_operator(2, 2, x)
        out = clone_channel(op, 2)
        assert np.array_equal(out.entries, op.entries)

    def test_pure_qubit_one_to_two(self):
        out = clone_channel(basis_projector((1, 0)), 2)
        np.testing.assert_allclose(
            out.entries, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-15
        )

    def test_unital_on_maximally_mixed_reduction(self):
        op = sym_operator(2, 1, np.eye(2) / 2)
        red = reduce_one(clone_channel(op, 2))
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_rejects_fewer_output_copies(self):
        with pytest.raises(InvalidParameterError):
            clone_channel(basis_projector((1, 1)), 1)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_trace_preserving_for_arbitrary_inputs(self, seed):
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        l = m + int(rng.integers(0, 3))
        n = dim(d, m)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = sym_operator(d, m, x)
        out = clone_channel(op, l)
        assert abs(out.trace() - op.trace()) < 1e-12

    def test_commutes_with_adjoint(self):
        rng = np.random.default_rng(3)
        n = dim(3, 2)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(
            clone_channel(sym_operator(3, 2, x.conj().T), 3).entries,
            clone_channel(sym_operator(3, 2, x), 3).entries.conj().T,
        )


def non_finite(x):
    """x with a row and a column of -0.0, a NaN and an infinite imaginary part."""
    e = np.array(x.entries)
    e[0, :] = e[:, 0] = complex(-0.0, -0.0)
    e[-1, -1] = complex(np.nan, 1.0)
    e[-1, 0] = complex(1.0, np.inf)
    return SymOperator(x.basis, e)


def loop_dense(out):
    """The dense view one plan column at a time: each entry adds its terms
    in t order onto +0.0, the whole stack at once."""
    lead, n_out = out.source.entries.shape[:-2], out.basis.size
    y = np.zeros((*lead, n_out, n_out), dtype=np.complex128)
    x = out.source.entries
    idx, v = clone_amplitudes(out.d, out.source.m, out.m).plan
    for idx_t, v_t in zip(idx.T, v.T):
        y[..., idx_t[:, None], idx_t[None, :]] += (v_t[:, None] * v_t[None, :]) * x
    return y


def loop_gram(d, m, l):
    """isometry_gram one np.outer per plan column, in t order onto +0.0."""
    idx, v = clone_amplitudes(d, m, l).plan
    gram = np.zeros((len(idx), len(idx)))
    for idx_t, v_t in zip(idx.T, v.T):
        gram += np.outer(v_t, v_t) * (idx_t[:, None] == idx_t[None, :])
    return gram


def loop_reduced_diagonal(op):
    """The reduction's diagonal, one dot per operator and level: a clone
    output's source diagonal weighed by its reduced map, and a plain
    operator's own by the identity clone's."""
    l = op.m
    if isinstance(op, cloner.CloneOutput):
        op = op.source
    w_diag, _ = reduced_map(op.d, op.m, l)
    diagonal, _ = op._diagonal_and_hops()
    out = np.zeros((*diagonal.shape[:-1], op.d), dtype=np.complex128)
    for x, y in zip(diagonal.reshape(-1, diagonal.shape[-1]), out.reshape(-1, op.d)):
        for i in range(op.d):
            y[i] = w_diag[i] @ x
    return out


def reduced_diagonal(op):
    return np.diagonal(reduce_one(op).entries, axis1=-2, axis2=-1)


def assert_same_reduction(got, want):
    """Within 1e-13 where want is finite, and non-finite exactly where it is."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13)


class TestStructuredOutput:
    # the clone_warm benchmark cells, next to a small exhaustive grid
    CELLS = [
        (d, m, l) for d in (2, 3, 4) for m in range(0, 5) for l in range(max(m, 1), m + 5)
    ] + [(2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (2, 1, 200), (3, 2, 20)]

    def cell_draws(self):
        """Per cell, l and its Ginibre, Hermitian and non-finite draws."""
        for i, (d, m, l) in enumerate(self.CELLS):
            g, h = (make(d, m, np.random.default_rng([i, d, m, l]))
                    for make in (ginibre_sym_operator, hermitian_sym_operator))
            yield l, (g, h, non_finite(g))

    def each_draw(self, check):
        """check(x, l) on a Ginibre, a Hermitian and a non-finite draw per cell."""
        for l, (g, h, bad) in self.cell_draws():
            check(g, l)
            check(h, l)
            # NaN and inf make the products warn; only this draw may
            with np.errstate(invalid="ignore"):
                check(bad, l)

    def test_a_stack_gives_the_bits_of_a_stack_of_one(self):
        # the scaling suite clones, reduces and checks each case's draws as
        # one stack; each draw must keep the bits it has alone
        for l, draws in self.cell_draws():
            d, m = draws[0].d, draws[0].m
            x = SymOperator(draws[0].basis, np.stack([draw.entries for draw in draws]))
            with np.errstate(invalid="ignore"):
                first = clone_channel(x, l)
                second = clone_channel(first, l + 1)
                ones = [clone_channel(draw, l) for draw in draws]
                twos = [clone_channel(out, l + 1) for out in ones]
                stages = []
                for stage, outs in ((first, ones), (second, twos)):
                    reduced = reduce_one(stage)
                    for b, out in enumerate(outs):
                        assert_bitwise_equal(reduced.entries[b], reduce_one(out).entries)
                    stages.append((stage.m, reduced, outs))
                if not m:
                    continue
                rin = reduce_one(x)
                for weight, rout, outs in stages:
                    residuals = scaling_residual(rin, rout, d, m, weight)
                    bloch = scaling_residual_bloch(rin, rout, d, m, weight)
                    for b, (draw, out) in enumerate(zip(draws, outs)):
                        single = reduce_one(draw), reduce_one(out), d, m, weight
                        assert_bitwise_equal(rin.entries[b], single[0].entries)
                        want = scaling_residual(*single), scaling_residual_bloch(*single)
                        assert_bitwise_equal(np.array([residuals[b], bloch[b]]), np.array(want))

    def test_a_dense_stack_gives_the_bits_of_a_stack_of_one(self):
        # the oracle suite builds each case's dense outputs as one stack
        for l, draws in self.cell_draws():
            d, m = draws[0].d, draws[0].m
            if dim(d, l) ** 2 > 1 << 16:
                continue
            x = SymOperator(draws[0].basis, np.stack([draw.entries for draw in draws]))
            with np.errstate(invalid="ignore"):
                dense = clone_channel(x, l).entries
                for b, draw in enumerate(draws):
                    assert_bitwise_equal(dense[b], clone_channel(draw, l).entries)

    def test_dense_view_matches_the_column_loop_bit_for_bit(self):
        # row a of column t's block, (v_t v_t^T * x)[a], goes to output row
        # idx[a, t] and columns idx[:, t], distinct within a column.  The rows
        # are taken t-major, BLOCK_TERMS terms per 1-D np.add.at onto a zeroed
        # output, so every entry adds its terms in t order onto +0.0, as a
        # walk over the columns does.  (3, 20, 24) and (3, 10, 30) split a
        # column's rows over blocks, and blocks straddle columns
        def check(x, l):
            for out in (clone_channel(x, l), clone_channel(clone_channel(x, l), l + 1)):
                if out.basis.size ** 2 <= 1 << 16:
                    assert_bitwise_equal(out.entries, loop_dense(out))

        self.each_draw(check)
        for d, m, l in ((3, 20, 24), (3, 10, 30)):
            x = ginibre_sym_operator(d, m, np.random.default_rng([d, m, l]))
            for draw in (x, non_finite(x)):
                out = clone_channel(draw, l)
                with np.errstate(invalid="ignore"):
                    assert_bitwise_equal(out.entries, loop_dense(out))

    def test_dense_stack_matches_the_column_loop_bit_for_bit(self):
        # the scatter offsets each operator's targets by its place in the
        # stack, so one 1-D np.add.at per block still adds in t order
        for l, draws in self.cell_draws():
            d, m = draws[0].d, draws[0].m
            if 3 * dim(d, l) ** 2 > 1 << 16:
                continue
            x = SymOperator(draws[0].basis, np.stack([draw.entries for draw in draws]))
            for stack in (x, SymOperator(x.basis, x.entries[:1]), SymOperator(x.basis, x.entries[:0])):
                out = clone_channel(stack, l)
                with np.errstate(invalid="ignore"):
                    assert_bitwise_equal(out.entries, loop_dense(out))

    @pytest.mark.parametrize("d, m, l", [(3, 20, 24), (3, 10, 30)])
    def test_dense_view_peak_near_its_output(self, d, m, l):
        out = clone_channel(hermitian_sym_operator(d, m, np.random.default_rng(3)), l)
        # the plan and the output basis are built first, so the bound reads
        # the scatter alone, whichever test built them before
        clone_amplitudes(d, m, l).plan, out.basis
        y, peak = traced_peak(lambda: out.entries)
        # one block is at most cloner.BLOCK_TERMS terms; a loop over whole
        # columns peaked about 3 MiB above the output at (3, 20, 24)
        assert peak <= y.nbytes + (1 << 20)

    def test_reduced_diagonal_matches_a_dot_per_level_bit_for_bit(self):
        # reduce_one forms each diagonal entry as one vector dot per operator,
        # the whole stack in one matmul of (1, N) rows by (N, 1) columns:
        # OpenBLAS sums a (d, N) matrix-vector product in another order
        def check(x, l):
            for op in (x, clone_channel(x, l), clone_channel(clone_channel(x, l), l + 1)):
                if op.m:
                    assert_bitwise_equal(reduced_diagonal(op), loop_reduced_diagonal(op))

        self.each_draw(check)
        for l, draws in self.cell_draws():
            if not draws[0].m:
                continue
            x = SymOperator(draws[0].basis, np.stack([draw.entries for draw in draws]))
            with np.errstate(invalid="ignore"):
                for op in (x, clone_channel(x, l), SymOperator(x.basis, x.entries[:1])):
                    assert_bitwise_equal(reduced_diagonal(op), loop_reduced_diagonal(op))

    @pytest.mark.parametrize("d, weights", [
        (2, (2, 9, 99, 1000, 5050, 19999)),
        (3, (1, 3, 13, 44, 100, 199)),
        (5, (1, 2, 4, 10, 20)),
    ])
    def test_long_reduced_diagonals_match_a_dot_per_level(self, d, weights):
        # the strides of a dense matrix's diagonal (stride 1 + N) and of the
        # t-major reference's (stride 2), unit stride, and stacks of 3 and 10
        rng = np.random.default_rng(d)
        for m in weights:
            basis = enumerate_basis(d, m)
            n, n_hop = basis.size, dim(d, m - 1)
            for batch, stride in ((1, 2), (1, 1), (3, 7), (10, 2)):
                values = rng.standard_normal((batch, n, stride, 2)).view(np.complex128)
                diagonal = values[:, :, 0, 0]
                hops = np.zeros((batch, d * (d - 1), n_hop), dtype=np.complex128)
                ops = [Gathered(basis, diagonal, hops)]
                if batch == 1:
                    ops.append(Gathered(basis, diagonal[0], hops[0]))
                if n <= 1001:
                    dense = np.zeros((n, n), dtype=np.complex128)
                    np.fill_diagonal(dense, diagonal[0])
                    ops.append(SymOperator(basis, dense))
                for op in ops:
                    assert_bitwise_equal(reduced_diagonal(op), loop_reduced_diagonal(op))

    def test_dense_stack_guard_counts_the_whole_stack(self):
        # one 1001 x 1001 output fits the guard; five do not
        assert dim(2, 1000) ** 2 <= 4 * symspace.ENTRY_GUARD < 5 * dim(2, 1000) ** 2
        out = clone_channel(SymOperator(enumerate_basis(2, 1), np.zeros((5, 2, 2))), 1000)

        def refused():
            with pytest.raises(ResourceLimitError, match="guard"):
                out.entries

        _, peak = traced_peak(refused)
        assert peak < 1 << 20

    def test_reduction_matches_the_dense_view_bit_for_bit(self):
        # a chain is the direct clone, dense view and reduction, bit for
        # bit; each reduction, through the reduced map, agrees within
        # rounding with its dense view's, with the reduction of the t-major
        # reference's one- or two-stage scatter, and (for a chain) with a
        # clone of the first stage's dense view, the law's other side
        def check(x, l):
            first = clone_channel(x, l)
            chain, direct = clone_channel(first, l + 1), clone_channel(x, l + 1)
            assert_bitwise_equal(reduce_one(chain).entries, reduce_one(direct).entries)
            assert_bitwise_equal(chain.entries, direct.entries)
            for out, weights in ((first, (l,)), (chain, (l, l + 1))):
                want = reduce_one(Gathered(out.basis, *reference_diagonal_and_hops(x, *weights)))
                assert_same_reduction(reduce_one(out).entries, want.entries)
                dense = SymOperator(out.basis, out.entries)
                assert_same_reduction(reduce_one(out).entries, reduce_one(dense).entries)
            via_dense = clone_channel(SymOperator(first.basis, first.entries), l + 1)
            assert_same_reduction(reduce_one(chain).entries, reduce_one(via_dense).entries)

        self.each_draw(check)

    def test_scatter_matches_a_t_major_reference_bit_for_bit(self):
        # the reference never reads the library's plans, nor composes a
        # chain, so a layout slip that moves the map and the dense view
        # together, or a chain composed to the wrong cell, still fails here
        def check(x, l):
            first = clone_channel(x, l)
            got = SymOperator(first.basis, first.entries)._diagonal_and_hops()
            for part, want in zip(got, reference_diagonal_and_hops(x, l)):
                assert_bitwise_equal(part, want)
            for out, weights in ((first, (l,)), (clone_channel(first, l + 1), (l, l + 1))):
                want = reduce_one(Gathered(out.basis, *reference_diagonal_and_hops(x, *weights)))
                assert_same_reduction(reduce_one(out).entries, want.entries)

        self.each_draw(check)

    def test_reduction_beyond_the_dense_guard(self):
        # the dense output would be 20301 x 20301 complex entries, 6.1 GiB
        d, m, l = 3, 2, 200
        x = hermitian_sym_operator(d, m, np.random.default_rng(5))
        out = clone_channel(x, l)
        assert scaling_residual(reduce_one(x), reduce_one(out), d, m, l) <= 1e-10
        with pytest.raises(ResourceLimitError, match="guard"):
            out.entries

    def test_amplitude_table_guard_precedes_enumeration(self, monkeypatch):
        # (2, 1023, 2047) has a dense view of 2048**2 = 4 * ENTRY_GUARD entries,
        # which fits, and a table of 1024 x 1025 entries, which does not: the
        # dense view reaches the table's guard before the table's bases
        out = clone_channel(basis_projector((1023, 0)), 2047)
        assert out.basis.size**2 == 4 * symspace.ENTRY_GUARD
        refuse_to_enumerate(monkeypatch)
        with pytest.raises(ResourceLimitError, match="^amplitude table exceeds"):
            out.entries


# the input, the weight, where the refusal comes and what it raises: a
# clone builds nothing, so it refuses only a shrinking weight.  (5, 2, 36),
# whose table of 15 x 73815 = 1107225 entries is past the guard, and a
# weight-0 input of 2897 levels, which adds a basis of 2897**2 counts, past
# 8 times it, are refused by their dense view's own guard
REFUSED_CLONES = {
    "shrinking": ((0, 2, 0), 1, "clone_channel", InvalidParameterError,
                  "need l >= m, got l=1, m=2"),
    "table": ((2, 0, 0, 0, 0), 36, "entries", ResourceLimitError,
              "dense output exceeds the guard of 4194304 entries"),
    "basis": ((0,) * 2897, 1, "entries", ResourceLimitError,
              "dense output exceeds the guard of 4194304 entries"),
}


def refuse_to_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(cloner, "enumerate_basis", refuse)


@pytest.mark.parametrize("case", list(REFUSED_CLONES))
def test_clone_channel_refuses_before_enumerating(case, monkeypatch):
    counts, l, at, error, message = REFUSED_CLONES[case]
    x = basis_projector(counts)
    refuse_to_enumerate(monkeypatch)
    refused = pytest.raises(error, match=f"^{re.escape(message)}$")
    if at == "clone_channel":
        with refused:
            clone_channel(x, l)
    else:
        out = clone_channel(x, l)
        with refused:
            out.entries


def test_a_warm_clone_checks_no_guard(monkeypatch):
    # a clone builds nothing, so neither the cold nor the warm clone of
    # (4, 1, 115) sizes anything or calls a guard
    x = basis_projector((1, 0, 0, 0))
    calls = []

    def counting(guard):
        def call(*args, **kwargs):
            calls.append(args)
            return guard(*args, **kwargs)

        return call

    for guard in ("guarded_dims", "require_room"):
        monkeypatch.setattr(cloner, guard, counting(getattr(cloner, guard)))
    refuse_to_enumerate(monkeypatch)
    cloner.reduced_map.cache_clear()
    for _ in range(2):
        out = clone_channel(x, 115)
        assert calls == [] and out.source is x and out.m == 115
    assert cloner.reduced_map.cache_info().misses == 0


def test_no_admitted_cell_is_refused_by_the_reduced_map(monkeypatch):
    # every cell, l >= 1, whose table the table's three checks admit also
    # admits its reduce-only op, which builds no table; the grid reaches
    # past the table's guard and its bases' guard
    monkeypatch.setattr(symspace, "ENTRY_GUARD", guard := 2**10)
    cloner.reduced_map.cache_clear()

    def table_refusal(d, m, l):
        if (guarded_dims(d, m, l - m) or math.inf) > guard:
            return "table"
        if any((guarded_dims(d, n, 1) or math.inf) > 8 * guard for n in (m, l - m)):
            return "basis"
        return None

    admitted, refusals = 0, set()
    for d in range(2, 101):
        for m in range(4):
            x = None
            for l in range(max(m, 1), m + 13):
                if refusal := table_refusal(d, m, l):
                    refusals.add(refusal)
                    continue
                if x is None:
                    n = dim(d, m)
                    x = SymOperator(enumerate_basis(d, m), np.eye(n) / n)
                assert reduce_one(clone_channel(x, l)).entries.shape == (d, d), (d, m, l)
                admitted += 1
        cloner.reduced_map.cache_clear()
        symspace.enumerate_basis.cache_clear()
    assert admitted == 448 and refusals == {"table", "basis"}
    # past the bases' guard, the map's move array is refused too
    assert table_refusal(91, 0, 1) == "basis"
    with pytest.raises(ResourceLimitError, match="^reduced map's move array exceeds"):
        reduced_map(91, 0, 1)


TABLE_READERS = ["clone_amplitudes", "isometry_gram", "coeffs"]


# (3, 1, 2000) has too many entries; (300000, 0, 1) has 300000, but its
# added basis has 300000 states over 300000 levels
@pytest.mark.parametrize(
    "caller, cell",
    [(caller, (3, 1, 2000)) for caller in TABLE_READERS]
    + [(caller, (300000, 0, 1)) for caller in TABLE_READERS],
    ids=TABLE_READERS + [f"{caller}-wide" for caller in TABLE_READERS],
)
def test_every_amplitude_table_reader_shares_the_guard(caller, cell, monkeypatch, tmp_path, capsys):
    refuse_to_enumerate(monkeypatch)
    if caller == "coeffs":
        out = tmp_path / "amps.csv"
        d, m, l = map(str, cell)
        assert main(["coeffs", "--d", d, "--m", m, "--l", l, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "amplitude table" in err["error"]
        assert not out.exists()
    else:
        with pytest.raises(ResourceLimitError, match="amplitude table"):
            getattr(cloner, caller)(*cell)


# a weight of 2**19 has a basis of 2**19 + 1 states, which fits, and a
# dense square over it of 2**38 entries; d = 1000 has 999999 generators.
# Each call below once asked the allocator for 2 to 15 TiB, and the
# unitary of d = 10**5 for 74.5 GiB
DENSE_READERS = {
    "isometry_gram": lambda: (isometry_gram, 2, 2**19, 2**19),
    "bloch_vector": lambda: (bloch_vector, sym_operator(1000, 1, np.eye(1000) / 1000)),
    "generators": lambda: (generators, 1000),
    "basis_projector": lambda: (basis_projector, (2**19, 0)),
    "uqcm_pure_output": lambda: (uqcm_pure_output, 2, 2**19, 2**19),
    "ginibre_sym_operator": lambda: (ginibre_sym_operator, 2, 2**19, np.random.default_rng(0)),
    "hermitian_sym_operator": lambda: (hermitian_sym_operator, 2, 2**19, np.random.default_rng(0)),
    "random_unitary": lambda: (random_unitary, 10**5, np.random.default_rng(0)),
}
GUARD_MESSAGE = re.compile(r"[A-Za-z' ]+ exceeds the guard of (\d+) entries")


@pytest.mark.parametrize("reader", list(DENSE_READERS))
def test_every_dense_reader_is_refused_by_the_one_guard(reader):
    fn, *args = DENSE_READERS[reader]()

    def refused():
        with pytest.raises(ResourceLimitError) as error:
            fn(*args)
        return str(error.value)

    message, peak = traced_peak(refused)
    # the one message, whose only digits are the limit's
    limit = GUARD_MESSAGE.fullmatch(message)
    assert limit and int(limit[1]) in (symspace.ENTRY_GUARD, 4 * symspace.ENTRY_GUARD)
    assert not any(str(n) in message for n in (2**19, 2**19 + 1, 1000, 999999, 10**5))
    assert peak < 1 << 20


class TestPureOutput:
    def test_one_to_two(self):
        out = uqcm_pure_output(2, 1, 2)
        np.testing.assert_allclose(
            out.entries, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-15
        )

    def test_no_growth_is_pure(self):
        for d, n in ((2, 1), (3, 2)):
            out = uqcm_pure_output(d, n, n)
            expected = basis_projector((n,) + (0,) * (d - 1))
            assert np.array_equal(out.entries, expected.entries)

    def test_one_to_three(self):
        # direct factorial evaluation at j=0: alpha^2(k) = (3-k)/6
        out = uqcm_pure_output(2, 1, 3)
        np.testing.assert_allclose(
            out.entries, np.diag([1 / 2, 1 / 3, 1 / 6, 0.0]), atol=1e-15
        )

    def test_output_is_diagonal_with_unit_trace(self):
        for d, n, m in ((2, 2, 5), (3, 1, 4), (4, 2, 3)):
            out = uqcm_pure_output(d, n, m)
            off = out.entries - np.diag(np.diagonal(out.entries))
            assert np.max(np.abs(off)) == 0.0
            assert abs(out.trace() - 1) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            uqcm_pure_output(2, 0, 2)
        with pytest.raises(InvalidParameterError):
            uqcm_pure_output(2, 3, 2)


class TestIsometryGram:
    def test_small_qubit_cell(self):
        np.testing.assert_allclose(isometry_gram(2, 1, 2), np.eye(2), atol=1e-15)

    def test_identity_channel(self):
        for d, m in ((2, 3), (3, 2)):
            np.testing.assert_allclose(
                isometry_gram(d, m, m), np.eye(dim(d, m)), atol=1e-15
            )

    def test_qutrit_cell(self):
        assert len(enumerate_basis(3, 2).counts) == 6
        np.testing.assert_allclose(isometry_gram(3, 2, 4), np.eye(6), atol=1e-12)

    def test_grid(self):
        for d in (2, 3):
            for m in (1, 2, 3):
                for l in range(m, m + 3):
                    gram = isometry_gram(d, m, l)
                    np.testing.assert_allclose(gram, np.eye(dim(d, m)), atol=1e-12)

    def test_matches_the_column_loop_bit_for_bit(self):
        # one block at small cells; (3, 2, 40), (4, 2, 10) and (3, 6, 30)
        # take several blocks of whole columns, (3, 20, 24) one column each
        grid = [(d, m, l) for d in (2, 3, 4) for m in range(0, 5) for l in range(m, m + 4)]
        for d, m, l in grid + [(3, 2, 40), (4, 2, 10), (3, 6, 30), (3, 20, 24), (2, 1, 2000)]:
            assert_bitwise_equal(isometry_gram(d, m, l), loop_gram(d, m, l))

    def test_long_qubit_cell_peak(self):
        clone_amplitudes(2, 1, 2000).plan
        gram, peak = traced_peak(lambda: isometry_gram(2, 1, 2000))
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
        assert peak < 1 << 20


class TestConcatenate:
    def test_two_stage_qubit(self):
        via, direct = concatenate(2, 1, 2, 3)
        # independent route: evaluate the factorial form at j=0 directly
        expected = [float(alpha_qubit_sq(0, p, 1, 3)) for p in range(3)] + [0.0]
        np.testing.assert_allclose(via.entries, np.diag(expected), atol=1e-14)
        np.testing.assert_allclose(via.entries, direct.entries, atol=1e-14)

    def test_trivial_first_stage(self):
        for d, n, l in ((2, 1, 3), (3, 2, 4)):
            via, direct = concatenate(d, n, n, l)
            assert np.array_equal(via.entries, direct.entries)

    def test_qutrit_case(self):
        via, direct = concatenate(3, 1, 2, 3)
        assert np.max(np.abs(via.entries - direct.entries)) <= 1e-12

    def test_beyond_the_dense_guard(self):
        # the intermediate (3, 100) output would be 5151 x 5151 dense
        # entries, which concatenate reads to test the composition law
        with pytest.raises(ResourceLimitError, match="guard"):
            concatenate(3, 1, 100, 101)
        # a chain reads no intermediate: it is one clone, and builds no plan
        clear_plan_caches()
        d, m = 3, 1
        x = hermitian_sym_operator(d, m, np.random.default_rng(7))
        first = clone_channel(x, 100)
        chain = clone_channel(first, 101)
        assert scaling_residual(reduce_one(x), reduce_one(chain), d, m, 101) <= 1e-10
        assert_bitwise_equal(reduce_one(chain).entries, reduce_one(clone_channel(x, 101)).entries)
        assert all("plan" not in clone_amplitudes(d, m, n).__dict__ for n in (100, 101))

    def test_the_law_is_tested_not_assumed(self):
        # a clone of the first output itself would compose to the direct clone
        via, direct = concatenate(3, 1, 2, 4)
        assert type(via.source) is SymOperator and via.source.m == 2
        assert direct.source.m == 1

    def test_ordering_violation(self):
        with pytest.raises(InvalidParameterError):
            concatenate(2, 2, 1, 3)
        with pytest.raises(InvalidParameterError):
            concatenate(2, 1, 3, 2)


class TestChain:
    def test_a_chain_is_one_clone_of_its_source(self):
        for d, m, l in ((2, 1, 3), (3, 2, 5), (4, 0, 2), (3, 1, 20)):
            x = hermitian_sym_operator(d, m, np.random.default_rng([d, m, l]))
            stack = SymOperator(x.basis, np.stack([x.entries, 2 * x.entries]))
            for y in (x, stack):
                chain = clone_channel(clone_channel(clone_channel(y, l), l + 1), l + 3)
                direct = clone_channel(y, l + 3)
                assert chain.source is y and chain.m == l + 3
                assert_bitwise_equal(reduce_one(chain).entries, reduce_one(direct).entries)
                assert_bitwise_equal(chain.entries, direct.entries)

    @pytest.mark.parametrize("d, m, mid, l", [(3, 1, 30, 100), (4, 1, 20, 60)])
    def test_a_chain_past_its_second_stage_guard_reduces(self, d, m, mid, l):
        # the (d, mid, l) table would be past the guard; the chain reads
        # the (d, m, l) table alone, and builds no plan
        assert dim(d, mid) * dim(d, l - mid) > symspace.ENTRY_GUARD
        clear_plan_caches()
        x = hermitian_sym_operator(d, m, np.random.default_rng([d, m, l]))
        chain = clone_channel(clone_channel(x, mid), l)
        assert scaling_residual(reduce_one(x), reduce_one(chain), d, m, l) <= 1e-10
        assert cloner.clone_amplitudes.cache_info().misses == 0

    def test_a_chain_past_its_composed_guard_is_refused(self, monkeypatch):
        # (5, 2, 36) has a table of 15 x 73815 = 1107225 entries, just past
        # its guard: the chain reduces to the direct clone's bits with no
        # table built, and only its dense view is refused
        clear_plan_caches()
        x = hermitian_sym_operator(5, 2, np.random.default_rng(5))
        refuse_ranks(monkeypatch)
        chain = clone_channel(clone_channel(x, 35), 36)
        assert chain.source is x and chain.m == 36
        assert_bitwise_equal(reduce_one(chain).entries, reduce_one(clone_channel(x, 36)).entries)
        with pytest.raises(ResourceLimitError, match="^dense output exceeds"):
            chain.entries
        assert cloner.clone_amplitudes.cache_info().misses == 0

    def test_a_clone_to_its_own_weight_keeps_the_output(self):
        # T_{l->l} is the identity, so a clone output cloned to its own
        # weight is admitted, with the same source, weight and bits
        out = clone_channel(hermitian_sym_operator(3, 2, np.random.default_rng(7)), 5)
        same = clone_channel(out, out.m)
        assert same.source is out.source and same.m == out.m
        assert_bitwise_equal(same.entries, out.entries)

    def test_a_chain_may_not_shrink(self):
        first = clone_channel(basis_projector((1, 0)), 5)
        with pytest.raises(InvalidParameterError, match="l >= m"):
            clone_channel(first, 3)


class TestCloneAmplitudesTable:
    def test_rows_cover_product_of_bases(self):
        amps = clone_amplitudes(3, 1, 2)
        assert amps.occupancy.shape == (dim(3, 1), dim(3, 1))
        assert amps.d == 3 and amps.m == 1 and amps.l == 2

    def test_each_basis_is_refused_by_the_table_guard(self, monkeypatch):
        # the counts of a basis of (d, m) or (d, l - m) past 8 * ENTRY_GUARD
        # are refused by the table's guard, not later by enumerate_basis's
        def refused(guard):
            return f"^amplitude table's basis exceeds the guard of {guard} entries$"

        with pytest.raises(ResourceLimitError, match=refused(8 * symspace.ENTRY_GUARD)):
            cloner.clone_amplitudes.__wrapped__(2897, 1, 1)
        monkeypatch.setattr(symspace, "ENTRY_GUARD", 2**10)
        # 90**2 counts fit in 8 * 2**10, and 91**2 do not
        assert cloner.clone_amplitudes.__wrapped__(90, 1, 1).occupancy.shape == (90, 1)
        with pytest.raises(ResourceLimitError, match=refused(2**13)):
            cloner.clone_amplitudes.__wrapped__(91, 1, 1)


def reference_index(d, m):
    # independent of the closed-form rank: positions in the enumerated order,
    # which test_symspace checks against a brute-force enumeration
    return {c: i for i, c in enumerate(compositions(d, m))}


@functools.lru_cache(maxsize=None)
def reference_channel_plan(d, m, l):
    """Per-composition construction of the channel plan, one row per k, its
    columns the inputs in ascending rank (read-only, cached)."""
    basis_in = compositions(d, m)
    index_out = reference_index(d, l)
    idx, v = [], []
    for k in compositions(d, l - m):
        v.append([math.sqrt(alpha_d_sq(a, k, m, l)) for a in basis_in])
        idx.append([index_out[tuple(i + j for i, j in zip(a, k))] for a in basis_in])
    return read_only(np.array(idx, dtype=np.intp)), read_only(np.array(v))


def read_only(a):
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def reference_reduction_plan(d, m):
    """Per-composition construction of the one-hop reduction plan (cached)."""
    basis = compositions(d, m)
    index = reference_index(d, m)
    diag = np.array([[c[i] / m for c in basis] for i in range(d)])
    hops = []
    for p in range(d):
        for q in range(d):
            for ia, a in enumerate(basis):
                if q == p or a[p] == 0:
                    continue
                shifted = list(a)
                shifted[p] -= 1
                shifted[q] += 1
                hops.append((ia, index[tuple(shifted)], p, q, math.sqrt(a[p] * (a[q] + 1)) / m))
    rows, cols, level_p, level_q, coeffs = zip(*hops)
    ints = [read_only(np.array(x, dtype=np.intp)) for x in (rows, cols, level_p, level_q)]
    return read_only(diag), (*ints, read_only(np.array(coeffs)))


def reference_hop_plan(d, m, l):
    """Position-table construction of the hop index, over the flat plans.

    Entry (t, h): for the input one-hop pair (a, b) in position h of
    reference_reduction_plan(d, m) and the added composition k_t, the
    position of the output pair (a + k_t, b + k_t) in
    reference_reduction_plan(d, l).
    """
    idx, _ = reference_channel_plan(d, m, l)
    if not m:
        return np.zeros((len(idx), 0), dtype=np.intp)
    _, (rows, _, level_p, level_q, _) = reference_reduction_plan(d, m)
    _, (out_rows, _, out_p, out_q, _) = reference_reduction_plan(d, l)
    # a hop is fixed by its row and its levels (p, q); -1 marks no hop
    position = np.full((dim(d, l), d, d), -1, dtype=np.intp)
    position[out_rows, out_p, out_q] = np.arange(out_rows.size)
    return position[idx[:, rows], level_p, level_q]


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_real_bits(got, want):
    """got is complex128, its real parts the bits of the float64 want and
    every imaginary part +0.0."""
    assert got.dtype == np.complex128
    assert_bitwise_equal(got.real, want)
    assert_bitwise_equal(got.imag, np.zeros_like(want))


def reference_diagonal_and_hops(x, *weights):
    """The diagonal and one-hop entries of the plain operator x cloned to
    each of weights in turn, scattered t-major from the reference plans,
    independent of the library's plans and of its composition of chains.

    x's own entries are gathered at the reference reduction plan's rows and
    columns.  Each stage's terms, in the reference's (K, ...) layout
    raveled, go into one 1-D np.add.at each for the diagonal and for every
    hop at once: each output entry adds its terms in k order, onto +0.0.
    The diagonal is a strided view, as a dense matrix's is.
    """
    d = x.d
    if not weights:
        if not x.m:
            return np.diagonal(x.entries), None
        _, (rows, cols, *_) = reference_reduction_plan(d, x.m)
        return np.diagonal(x.entries), x.entries[rows, cols].reshape(d * (d - 1), -1)
    m, l = (x.m, *weights)[-2:]
    idx, v = reference_channel_plan(d, m, l)
    x_diagonal, x_hops = reference_diagonal_and_hops(x, *weights[:-1])
    diagonal = np.zeros((dim(d, l), 2), dtype=np.complex128)[:, 0]
    np.add.at(diagonal, idx.ravel(), ((v * v) * x_diagonal).ravel())
    hops = np.zeros(d * (d - 1) * dim(d, l - 1), dtype=np.complex128)
    if m:
        _, (rows, cols, *_) = reference_reduction_plan(d, m)
        terms = (v[:, rows] * v[:, cols]) * x_hops.ravel()
        np.add.at(hops, reference_hop_plan(d, m, l).ravel(), terms.ravel())
    return diagonal, hops.reshape(d * (d - 1), -1)


class Gathered(SymOperator):
    """An operator known only by its diagonal and one-hop entries."""

    def __init__(self, basis, diagonal, hops):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "parts", (diagonal, hops))

    def _diagonal_and_hops(self):
        return self.parts


class TestPlansMatchReference:
    # the seven clone_cold benchmark cells, then two more; at (2, 20, 400)
    # the occupancy products pass 2**63, up to C(400, 20) ~ 2.8e33.  The
    # table is int64 only while total (l + 1) is below 2**53, total =
    # C(l+d-1, l-m): (2, 9, 181) has total 8.5e15 below 2**53 yet past it
    # times 182, and (2, 12, 150) total 2.0e18 inside int64, where a
    # float64 division would round some entries off the exact quotient
    BIG_CELLS = {
        (2, 20, 400): object,
        (3, 6, 30): np.int64,
        (4, 4, 16): np.int64,
        (5, 2, 10): np.int64,
        (3, 20, 24): np.int64,
        (3, 1, 100): np.int64,
        (4, 1, 30): np.int64,
        (2, 9, 181): object,
        (2, 12, 150): object,
    }

    def test_channel_plan(self):
        grid = [(d, m, l) for d in (2, 3, 4) for m in range(0, 5) for l in range(m, m + 4)]
        for d, m, l in grid + list(self.BIG_CELLS):
            idx, v = clone_amplitudes(d, m, l).plan
            want_idx, want_v = reference_channel_plan(d, m, l)
            # the reference's rows are the plan's columns
            assert_bitwise_equal(idx, want_idx.T)
            assert_bitwise_equal(v, want_v.T)
        for cell, dtype in self.BIG_CELLS.items():
            assert clone_amplitudes(*cell).occupancy.dtype == dtype
        assert clone_amplitudes(2, 20, 400).occupancy.max() >= 2**63

    def test_table_matches_alpha_d_sq(self):
        for d in (2, 3, 4):
            for m in range(0, 5):
                for l in range(m, m + 5):
                    amps = clone_amplitudes(d, m, l)
                    inputs = compositions(d, m)
                    added = compositions(d, l - m)
                    assert amps.occupancy.shape == (len(inputs), len(added))
                    for i, j in enumerate(inputs):
                        for t, k in enumerate(added):
                            sq = Fraction(int(amps.occupancy[i, t]), amps.total)
                            want = alpha_d_sq(j, k, m, l)
                            assert (sq.numerator, sq.denominator) == (
                                want.numerator,
                                want.denominator,
                            )

    @pytest.mark.parametrize("d, m, l", [(300000, 0, 0), (200, 0, 1), (200, 1, 1), (12, 1, 3)])
    def test_wide_table_matches_alpha_d_sq(self, d, m, l):
        # at m = 0 or l = m every factor C(j_p + k_p, k_p) is 1, so no level
        # is multiplied; the table keeps its exact values, shape and dtype
        amps = clone_amplitudes(d, m, l)
        inputs = enumerate_basis(d, m).counts.tolist()
        added = enumerate_basis(d, l - m).counts.tolist()
        assert amps.occupancy.shape == (len(inputs), len(added))
        assert amps.occupancy.dtype == np.int64
        for i, j in enumerate(inputs):
            for t, k in enumerate(added):
                assert Fraction(int(amps.occupancy[i, t]), amps.total) == alpha_d_sq(j, k, m, l)

    def test_reduction_plan(self):
        # a plain operator reduces through the identity clone's map: its
        # diagonal weights are the reference's bits, and each hop weight is
        # sqrt(u_p + 1) sqrt(u_q + 1) / m, a product of two roots.  Four
        # roundings against the reference's two (its product of integers is
        # exact) put it within 6 * 2**-53 of the reference, relative; 2 ulps
        # apart at (2, 3), 3 at (2, 26)
        for d in (2, 3, 4):
            for m in range(1, 8):
                basis = enumerate_basis(d, m)
                w_diag, w_hop = reduced_map(d, m, m)
                p, q = basis.moves
                want_diag, want_hops = reference_reduction_plan(d, m)
                assert_real_bits(w_diag, want_diag)
                rows, cols = np.divmod(basis.hop_entries, basis.size)
                assert rows.shape == (d * (d - 1), dim(d, m - 1))
                moves = (np.broadcast_to(level[:, None], w_hop.shape) for level in (p, q))
                # flattened in move order, the layout is the per-hop list
                *want_layout, want_coeffs = want_hops
                for got, want in zip((rows, cols, *moves), want_layout, strict=True):
                    assert_bitwise_equal(got.ravel(), want)
                u = enumerate_basis(d, m - 1).counts.T
                assert_real_bits(w_hop, np.sqrt(u[p] + 1) * np.sqrt(u[q] + 1) / m)
                assert np.all(np.abs(w_hop.ravel() - want_coeffs) <= 6 * 2**-53 * want_coeffs)

    def test_gram_detects_a_colliding_rank(self, monkeypatch):
        # off the diagonal the Gram check tests exactly the rank's
        # injectivity on each {a + k}; a rank that merges neighbours fails it
        def colliding(a, b, m):
            return symspace.sum_ranks(a, b, m) // 2

        monkeypatch.setattr(cloner, "sum_ranks", colliding)
        cloner.clone_amplitudes.cache_clear()  # the plan lives on the table
        try:
            gram = isometry_gram(2, 2, 3)
        finally:
            cloner.clone_amplitudes.cache_clear()
        assert np.max(np.abs(gram - np.eye(3))) > 0.1


def flat_index_occupancy(d, m, l):
    """The table's former build: each level's binomials gathered by one flat
    index into the raveled Pascal grid and multiplied into a fresh array."""
    total = math.comb(l + d - 1, l - m)
    dtype = np.int64 if total * (l + 1) < 2**53 else object
    binom = pascal(m + 1, l - m + 1, dtype).ravel()
    # C(j_p + k_p, k_p) sits at j_p (l - m + 1) + k_p of the flat grid
    inputs = enumerate_basis(d, m).counts * (l - m + 1)
    added = enumerate_basis(d, l - m).counts
    occupancy = binom.take(inputs[:, None, 0] + added[None, :, 0])
    # a level multiplies by C(j_p + k_p, k_p) != 1 only where some input and
    # some added composition both fill it; a positive weight fills every
    # level (its all-in-one-level composition), and a zero weight none
    for p in range(1, d if 0 < m < l else 1):
        occupancy = occupancy * binom.take(inputs[:, None, p] + added[None, :, p])
    return occupancy


def table_sums(occupancy, d, m, l):
    """occupancy @ added + counts total, each input's weighted row sums per
    level, in the table's dtype."""
    total = np.array(clone_amplitudes(d, m, l).total, dtype=occupancy.dtype)
    return occupancy @ enumerate_basis(d, l - m).counts + enumerate_basis(d, m).counts * total


class TestReducedMap:
    # the isometry suite's grid, which holds the scaling suite's
    GRID = [(d, m, l) for d in range(2, 5) for m in range(1, 5) for l in range(m, 9)]
    # the grid, the clone benchmark cells and the large cells
    CELLS = (
        GRID
        + [(2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (2, 1, 200),
           (3, 2, 20), (3, 1, 100), (4, 1, 30)]
        + [(4, 1, 114), (5, 2, 35), (3, 1, 830), (6, 1, 20)]
    )
    # a single input state, K = dim(d, l)
    EMPTY_INPUT_CELLS = [(d, 0, l) for d in (2, 3, 5, 6) for l in (1, 2, 4, 9)]
    # (2, 6, 288) has the widest int64 table, (2, 6, 295) an object table
    # whose total (l + 1) is below 2**54, (2, 9, 181) one whose total is
    # below 2**53, and (2, 12, 150) and (2, 150, 162), whose weight passes
    # its added weight, object tables whose totals pass it
    WIDE_CELLS = [(2, 6, 288), (2, 6, 295), (2, 9, 181), (2, 12, 150), (2, 150, 162)]

    @pytest.fixture(autouse=True)
    def forget_tables(self):
        # the large cells' tables go even when an assertion fails
        yield
        clear_plan_caches()

    def test_map_weighs_by_the_contraction_law(self):
        # rho_out = eta rho_in + (1 - eta)/d 1 on a diagonal dyad |a><a| and
        # on a one-hop dyad |u + e_p><u + e_q|, whose reductions are
        # sum_i (a_i/m) |i><i| and sqrt((u_p + 1)(u_q + 1))/m |p><q|.  The
        # worst deviations from these float evaluations are 1.1e-16 and 2.2e-16
        for d, m, l in self.CELLS:
            w_diag, w_hop = reduced_map(d, m, l)
            eta = float(shrink(d, m, l))
            basis = enumerate_basis(d, m)
            assert w_diag.shape == (d, basis.size) and not w_diag.flags.writeable
            want = eta * basis.counts.T / m + (1 - eta) / d
            assert np.max(np.abs(w_diag - want)) <= 2e-15, (d, m, l)
            u = enumerate_basis(d, m - 1).counts
            p, q = basis.moves
            want = eta * np.sqrt((u.T[p] + 1) * (u.T[q] + 1)) / m
            assert w_hop.shape == want.shape and not w_hop.flags.writeable
            assert np.max(np.abs(w_hop - want)) <= 2e-15, (d, m, l)

    def test_map_is_the_correctly_rounded_closed_form(self):
        # W_diag = eta a_i/m + (1 - eta)/d and W_hop = sqrt(u_p + 1)
        # sqrt(u_q + 1) (l + d)/(m + d) / l, each ratio rounded once, with
        # eta/m = (l + d)/(l (m + d)) so that m = 0 needs no division by m
        for d, m, l in self.CELLS + self.EMPTY_INPUT_CELLS + self.WIDE_CELLS:
            table = clone_amplitudes(d, m, l)
            # the map's integers reach total (l + 1): one rule serves the table and its map
            int64 = table.total * (l + 1) < 2**53
            assert table.occupancy.dtype == (np.int64 if int64 else object), (d, m, l)
            w_diag, w_hop = reduced_map(d, m, l)
            basis = enumerate_basis(d, m)
            eta_over_m = Fraction(l + d, l * (m + d))
            rest = (1 - eta_over_m * m) / d
            want = [[float(eta_over_m * int(a) + rest) for a in level] for level in basis.counts.T]
            assert_real_bits(w_diag, np.array(want).reshape(d, basis.size))
            p, q = basis.moves
            u = enumerate_basis(d, m - 1).counts.T if m else np.zeros((d, 0), dtype=np.int64)
            rho = float(Fraction(l + d, m + d))
            assert_real_bits(w_hop, np.sqrt(u[p] + 1) * np.sqrt(u[q] + 1) * rho / l)
            # the rows of (p, q) and (q, p) are one value
            reverse = {move: j for j, move in enumerate(zip(p.tolist(), q.tolist()))}
            assert_bitwise_equal(w_hop, w_hop[[reverse[b, a] for a, b in reverse]])
        assert clone_amplitudes(2, 6, 288).occupancy.dtype == np.int64
        assert clone_amplitudes(2, 6, 288).total * 289 > 2**52
        assert clone_amplitudes(2, 6, 295).occupancy.dtype == object
        assert clone_amplitudes(2, 6, 295).total * 296 < 2**54
        assert clone_amplitudes(2, 9, 181).occupancy.dtype == object
        assert clone_amplitudes(2, 9, 181).total < 2**53
        assert clone_amplitudes(2, 12, 150).occupancy.dtype == object
        assert clone_amplitudes(2, 150, 162).occupancy.dtype == object

    def test_the_map_outlives_its_table(self):
        # the map is cached apart from the table and reads none: forgetting
        # the tables keeps it, and a live output reduces through it, building none
        d, m, l = 4, 1, 114
        out = clone_channel(hermitian_sym_operator(d, m, np.random.default_rng(5)), l)
        w = reduced_map(d, m, l)
        bits = [part.tobytes() for part in w]
        cloner.clone_amplitudes.cache_clear()
        assert reduced_map(d, m, l) is w
        assert [part.tobytes() for part in reduced_map(d, m, l)] == bits
        reduce_one(out)
        assert cloner.clone_amplitudes.cache_info().misses == 0

    def test_table_has_the_bits_of_the_flat_index_build(self):
        # every map cell, the identity tables of other widths and the object
        # tables, whose products pass 2**63
        identities = [(5, 2, 2), (6, 1, 1), (2, 20, 20), (3, 0, 0)]
        for d, m, l in self.CELLS + self.EMPTY_INPUT_CELLS + identities + [(2, 12, 150)]:
            got = clone_amplitudes(d, m, l).occupancy
            want = flat_index_occupancy(d, m, l)
            assert got.dtype == want.dtype and got.shape == want.shape, (d, m, l)
            assert np.array_equal(got, want), (d, m, l)
        assert clone_amplitudes(2, 20, 400).occupancy.dtype == object

    def test_table_contracts_to_the_level_sums(self):
        # the map reads no table, so this exact check and the oracle suite
        # are what see a fault in it: at every scaling and isometry grid
        # cell, the wide cells and the large cells, each table's weighted
        # row sums, occupancy @ added + counts total, are S[counts], exactly
        # and in one dtype
        for d, m, l in self.CELLS + self.EMPTY_INPUT_CELLS + self.WIDE_CELLS:
            sums = cloner.level_sums(d, m, l)
            assert sums.shape == (m + 1,) and not sums.flags.writeable
            counts = enumerate_basis(d, m).counts
            got = table_sums(clone_amplitudes(d, m, l).occupancy, d, m, l)
            assert got.dtype == sums.dtype, (d, m, l)
            assert np.array_equal(got, sums[counts]), (d, m, l)

    @pytest.mark.parametrize(
        "mutant", [swap_in_row(0), swap_in_row(-1), swap_columns],
        ids=["row 0 swapped", "last row swapped", "columns 0 and 1 swapped"],
    )
    def test_a_permuted_table_breaks_the_level_sums(self, mutant):
        # a swap moves weight between two added compositions, which differ
        # at some level, so it moves that level's sum wherever it changes the
        # table: at each of the 66 grid cells with l > m
        changed = 0
        for d, m, l in self.GRID:
            exact = clone_amplitudes(d, m, l).occupancy
            occupancy = exact.copy()
            mutant(occupancy)
            if np.array_equal(occupancy, exact):
                continue
            changed += 1
            want = cloner.level_sums(d, m, l)[enumerate_basis(d, m).counts]
            assert not np.array_equal(table_sums(occupancy, d, m, l), want), (d, m, l)
        assert changed == 66

    @pytest.mark.parametrize("d, m, l", [(4, 1, 114), (5, 2, 35), (3, 1, 830)])
    def test_table_build_peak_is_about_twice_the_table(self, d, m, l):
        # clone_amplitudes builds the table one level at a time, in place:
        # each input's Pascal row, then the added compositions' columns of
        # it, taken into one reused (n_in, K) factor and multiplied in.  The
        # table and one level's factor: 2.25, 2.07 and 2.34 times the table;
        # a fresh index, gather and product per level peaked at 3.0 times
        enumerate_basis(d, m)
        enumerate_basis(d, l - m)
        table, peak = traced_peak(lambda: cloner.clone_amplitudes.__wrapped__(d, m, l))
        assert peak < 2.5 * table.occupancy.nbytes

    @pytest.mark.parametrize(
        "d, m, l", [(4, 1, 114), (5, 2, 35), (6, 1, 20), (3, 1, 830), (8, 6, 40), (6, 8, 20)]
    )
    def test_map_transient_is_a_few_kib(self, d, m, l):
        # the map alone, from its input basis: a (m + d - 1, l - m + 1)
        # Pascal grid, the level sums, one ratio per level value, the basis
        # of weight m - 1 and the map; no table, no added basis, nothing of
        # length K and no hop entries.  Where the map passes 32 KiB, at
        # (8, 6, 40) and (6, 8, 20), the peak was 1.2 times the map's bytes,
        # and 3.1 times while the map divided a (dim(d, m), d) integer array
        clear_plan_caches()
        basis = enumerate_basis(d, m)
        w, peak = traced_peak(lambda: cloner.reduced_map.__wrapped__(d, m, l))
        assert peak < max(64 << 10, 2 * sum(part.nbytes for part in w))
        assert "hop_entries" not in basis.__dict__

    def test_a_single_input_state_maps_to_the_maximally_mixed_state(self):
        for d, l in ((2, 1), (3, 4), (5, 2)):
            w_diag, w_hop = reduced_map(d, 0, l)
            assert w_hop.shape == (d * (d - 1), 0)
            assert np.max(np.abs(w_diag - 1 / d)) <= 1e-15

    # small cells, then the inputs of the four large cells
    @pytest.mark.parametrize(
        "d, m", [(2, 1), (2, 5), (2, 60), (3, 2), (3, 9), (4, 3), (4, 1), (5, 2), (3, 1), (6, 1)]
    )
    def test_a_plain_operator_reduces_as_its_identity_clone(self, d, m):
        # T_{m->m} = id: reduce_one weighs a plain operator by the map of
        # (d, m, m), so its identity clone's reduction has its bits
        rng = np.random.default_rng([d, m])
        x = SymOperator(
            enumerate_basis(d, m),
            np.concatenate([
                ginibre_sym_operator(d, m, rng, count=3).entries,
                hermitian_sym_operator(d, m, rng, count=3).entries,
            ]),
        )
        for op in (x, SymOperator(x.basis, x.entries[0])):
            assert reduce_one(clone_channel(op, m)).entries.tobytes() == (
                reduce_one(op).entries.tobytes()
            )

    @pytest.mark.parametrize("seed", [0, 42])
    def test_every_scaling_case_without_growth_reads_zero(self, seed):
        # both sides of an l = m case are one reduction, and eta = 1
        cases = [c for c in scaling_suite(seed=seed).cases if c.params["l"] == c.params["m"]]
        assert len(cases) == 24
        for case in cases:
            assert case.residual == 0.0 and case.extra["bloch_residual"] == 0.0, case.params

    # the four large cells, where the op built a table and its added basis
    # and peaked at 25.1 MiB at (4, 1, 114), (2, 20, 400), whose object
    # integers peaked at 778 KiB through the table, and three cells whose
    # tables are past the guard, which the op once refused
    @pytest.mark.parametrize(
        "d, m, l, bound",
        [(4, 1, 114, 256), (5, 2, 35, 256), (3, 1, 830, 256), (6, 1, 20, 256), (2, 20, 400, 778),
         (4, 1, 300, 256), (5, 2, 60, 256), (3, 1, 2000, 256)],
    )
    def test_reduce_only_peak_at_a_large_cell(self, d, m, l, bound):
        # the op reads the map alone: a Pascal grid of (m + d - 1) x (l - m + 1)
        # integers, the level sums and the map; no table is built
        clear_plan_caches()
        x = hermitian_sym_operator(d, m, np.random.default_rng(5))
        rin = reduce_one(x)

        def clone_and_reduce():
            out = clone_channel(x, l)
            return out, reduce_one(out)

        (out, rout), peak = traced_peak(clone_and_reduce)
        assert peak < bound << 10
        assert scaling_residual(rin, rout, d, m, l) <= 1e-10
        assert cloner.clone_amplitudes.cache_info().misses == 0 and "basis" not in out.__dict__
        # a chain to l clones its source once: the direct reduction's bytes
        chain = clone_channel(clone_channel(x, l - 1), l)
        assert reduce_one(chain).entries.tobytes() == rout.entries.tobytes()
        assert cloner.clone_amplitudes.cache_info().misses == 0
        # two maps: the input's identity clone, which reduces it, and the clone's
        assert cloner.reduced_map.cache_info().misses == 2
        if dim(d, m) * dim(d, l - m) > symspace.ENTRY_GUARD:
            with pytest.raises(ResourceLimitError):
                out.entries


COLD_CELLS = [(3, 1, 30), (2, 20, 60)]


def refuse_ranks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plan was built")

    for module in (symspace, cloner):
        monkeypatch.setattr(module, "sum_ranks", refuse)


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_no_third_cache_serves_a_plan(d, m, l, monkeypatch):
    # once the basis, table and map caches forget a used cell, its hop
    # ranks, both maps and the output's channel plan are rebuilt: no other
    # cache serves them, and a reduction builds no table
    n = dim(d, m)
    used = sym_operator(d, m, np.eye(n) / n)
    reduce_one(clone_channel(used, l))
    reduce_one(used)
    clear_plan_caches()
    x = sym_operator(d, m, np.eye(n) / n)
    assert x.basis is not used.basis and "hop_entries" not in x.basis.__dict__
    out = clone_channel(x, l)  # the output reads no plan until asked
    assert "hop_entries" not in x.basis.__dict__
    assert cloner.reduced_map.cache_info().misses == 0
    reduce_one(out)
    assert "hop_entries" in x.basis.__dict__  # rebuilt on the reduce
    assert x.basis.hop_entries is not used.basis.hop_entries
    assert np.array_equal(x.basis.hop_entries, used.basis.hop_entries)
    assert cloner.reduced_map.cache_info().misses == 1
    reduce_one(x)  # through the identity map of (d, m, m), built anew
    assert cloner.reduced_map.cache_info().misses == 2
    assert cloner.clone_amplitudes.cache_info().misses == 0
    refuse_ranks(monkeypatch)
    with pytest.raises(AssertionError, match="plan was built"):
        out._diagonal_and_hops()


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_a_live_output_keeps_its_plans(d, m, l, monkeypatch):
    # an output holds its source, whose basis holds the hop ranks, and the
    # map cache serves its weights: with every table and basis forgotten,
    # its reduction rebuilds no table and no map
    x = hermitian_sym_operator(d, m, np.random.default_rng([d, m, l]))
    outs = [clone_channel(x, l), clone_channel(clone_channel(x, l), l + 1)]
    want = [reduce_one(out).entries.tobytes() for out in outs]
    symspace.enumerate_basis.cache_clear()
    cloner.clone_amplitudes.cache_clear()
    maps = cloner.reduced_map.cache_info().misses
    refuse_ranks(monkeypatch)
    assert [reduce_one(out).entries.tobytes() for out in outs] == want
    # no table or map is rebuilt, and no basis but the reductions' own of weight 1
    assert cloner.clone_amplitudes.cache_info().misses == 0
    assert cloner.reduced_map.cache_info().misses == maps
    assert symspace.enumerate_basis.cache_info().misses == 1


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_cold_reduction_ranks_no_output_composition(d, m, l, monkeypatch):
    # a clone output reduces through its table's reduced map and its
    # source's own entries, whose hop ranks are read off the source's
    # basis: symspace ranks nothing, and no plan ranks a + k through
    # cloner's binding
    clear_plan_caches()
    weights = {symspace: [], cloner: []}

    def counting(module):
        original = module.sum_ranks

        def rank(a, b, weight):
            weights[module].append(weight)
            return original(a, b, weight)

        return rank

    for module in weights:
        monkeypatch.setattr(module, "sum_ranks", counting(module))
    n = dim(d, m)
    out = clone_channel(sym_operator(d, m, np.eye(n) / n), l)
    reduce_one(out)
    assert weights[symspace] == []
    assert weights[cloner] == []
    assert cloner.clone_amplitudes.cache_info().misses == 0 and "basis" not in out.__dict__


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_gathering_hops_reduces_no_input(d, m, l):
    # a clone output gathers its source's hops by the move levels alone and
    # weighs them by its own map, so no identity map of the source's weight
    # is built that nobody reads, and no table at all
    clear_plan_caches()
    x = hermitian_sym_operator(d, m, np.random.default_rng([d, m, l]))
    reduce_one(clone_channel(x, l))
    assert "moves" in x.basis.__dict__
    # the one map built is the clone's own, (d, m, l)
    assert cloner.reduced_map.cache_info().misses == 1
    assert cloner.reduced_map(d, m, l) is cloner.reduced_map(d, m, l)
    assert cloner.reduced_map.cache_info().misses == 1
    assert cloner.clone_amplitudes.cache_info().misses == 0


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_cold_clone_builds_no_fraction(d, m, l, monkeypatch):
    clear_plan_caches()
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(original(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(Fraction, "__new__", counting)
    n = dim(d, m)
    reduce_one(clone_channel(sym_operator(d, m, np.eye(n) / n), l))
    assert made == []


def run_on_swapped_tables(suite, monkeypatch):
    """suite's report, tables and count of reduced maps, with row 0 of
    every table swapped."""
    clear_plan_caches()
    tables = mutate_tables(swap_in_row(0))(monkeypatch)
    try:
        return suite(), tables, cloner.reduced_map.cache_info().currsize
    finally:
        # no plan or map built from the mutated table may outlive this test
        monkeypatch.undo()
        clear_plan_caches()


def test_oracle_suite_catches_a_permuted_amplitude_table(monkeypatch):
    report, _, _ = run_on_swapped_tables(oracle_suite, monkeypatch)
    assert not report.passed


def test_scaling_suite_reads_no_table_and_catches_wrong_level_sums(monkeypatch):
    # the suite weighs both sides by reduced maps, which read no table: it
    # passes on swapped tables, which it never builds, and fails on level
    # sums one too large, which break the trace of every reduction
    report, tables, maps = run_on_swapped_tables(scaling_suite, monkeypatch)
    assert report.passed and tables == [] and maps
    raise_level_sums(monkeypatch)
    clear_plan_caches()
    try:
        report = scaling_suite()
    finally:
        monkeypatch.undo()
        clear_plan_caches()
    assert sum(not case.passed for case in report.cases) == 84


def test_oracle_imports_nothing_from_the_cloner():
    # the oracle checks the fast path's amplitude table, so it may not read
    # it; nor may it rank its columns as the fast path does, or a wrong rank
    # would place both sides' outputs alike
    source = Path(symspace.__file__).with_name("oracle.py").read_text()
    assert "composition_rank" not in source and "sum_ranks" not in source
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert "symclone" in names or "symspace" in names
    assert not any(name.split(".")[-1] == "cloner" for name in names)


def test_concat_suite_catches_a_permuted_amplitude_table(monkeypatch):
    # the pure seed's outputs and the second stage all read swapped tables,
    # yet a swap breaks the composition law wherever row 0 has two entries
    report, tables, _ = run_on_swapped_tables(concat_suite, monkeypatch)
    assert tables and not report.passed
    assert sum(not case.passed for case in report.cases) == 40
