import itertools
import math
import re
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import assume, example, given, settings
from paper_formulas import alpha_d_sq

from symclone.cloner import clone_amplitudes
from symclone.oracle import MEMORY_GUARD, reduce_full_to_site, sym_embedding
from symclone.symspace import (
    AMPLITUDE_GUARD,
    InvalidParameterError,
    ResourceLimitError,
    basis_dyad,
    basis_projector,
    composition_rank,
    dim,
    enumerate_basis,
    reduce_one,
    sum_ranks,
    sym_operator,
)


def brute_force_compositions(d, m):
    """Independent enumeration: filter the full cube of candidate count vectors."""
    return {c for c in itertools.product(range(m + 1), repeat=d) if sum(c) == m}


class TestEnumerateBasis:
    def test_qubit_pair(self):
        basis = enumerate_basis(2, 2)
        assert basis.counts.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert basis.size == 3

    def test_vacuum(self):
        basis = enumerate_basis(2, 0)
        assert basis.counts.tolist() == [[0, 0]]

    def test_qutrit_pair(self):
        basis = enumerate_basis(3, 2)
        assert basis.size == len(brute_force_compositions(3, 2)) == 6
        assert basis.counts[0].tolist() == [2, 0, 0]
        assert basis.counts[-1].tolist() == [0, 0, 2]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            enumerate_basis(1, 3)
        with pytest.raises(InvalidParameterError):
            enumerate_basis(2, -1)

    @given(d=st.integers(2, 4), m=st.integers(0, 6))
    def test_matches_brute_force_and_is_lex_decreasing(self, d, m):
        rows = [tuple(c) for c in enumerate_basis(d, m).counts.tolist()]
        assert set(rows) == brute_force_compositions(d, m)
        assert all(rows[i] > rows[i + 1] for i in range(len(rows) - 1))

    @given(d=st.integers(2, 5), m=st.integers(0, 6))
    @example(d=2, m=0)
    @example(d=5, m=0)
    @example(d=5, m=6)
    def test_index_bijection(self, d, m):
        basis = enumerate_basis(d, m)
        ranks = [int(composition_rank(np.array(c), m)) for c in basis.counts.tolist()]
        assert ranks == list(range(basis.size))
        ranks = composition_rank(basis.counts, m)
        assert np.array_equal(ranks, np.arange(basis.size))

    @pytest.mark.parametrize("d", [68, 70, 100])
    def test_rank_of_wide_compositions(self, d):
        # C(n, k) for all n < m + d - 1 overflows int64 from d = 68 on
        basis = enumerate_basis(d, 2)
        assert np.array_equal(composition_rank(basis.counts, 2), np.arange(basis.size))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_sum_ranks_rank_the_sums(self, d):
        # ranked from the prefix sums of a and b, the sums a[i] + b[j] that
        # are never built land where composition_rank and the basis put them
        for m in range(7):
            basis = enumerate_basis(d, m).counts
            for part in range(m + 1):
                a = enumerate_basis(d, part).counts
                b = enumerate_basis(d, m - part).counts
                sums = a[:, None, :] + b
                got = sum_ranks(a, b, m)
                want = composition_rank(sums, m)
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape == (len(a), len(b))
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(basis[got], sums)

    def test_sum_ranks_peak_near_its_output(self):
        # the plan's idx at (4, 1, 114); holding every position's index array
        # and its lookup at once peaked at 7x the output here.  sum_ranks
        # looks positions up a block at a time, one per block once the output
        # has 2**16 entries, so the transient is one index block and its
        # lookup; a wide basis with a small output takes many per block
        a = enumerate_basis(4, 1).counts[::-1]
        b = enumerate_basis(4, 113).counts
        ranks, peak = traced_peak(lambda: sum_ranks(a, b, 114))
        assert ranks.shape == (4, 253460)
        assert peak < 4 * ranks.nbytes

    @pytest.mark.parametrize("d, a_weight", [(2, 299999), (3, 0), (3, 4), (300000, 0)])
    def test_sum_ranks_of_no_rows(self, d, a_weight):
        # the plan's hops at m = 0: no weight -1 row, so a (K, 0) array,
        # (300000, 0) for the K = 300000 added compositions of (2, 0, 299999)
        a = enumerate_basis(d, a_weight).counts
        none = np.zeros((0, d), dtype=np.int64)
        hops = sum_ranks(a, none, a_weight - 1)
        assert hops.dtype == np.int64 and hops.shape == (len(a), 0)
        ranks = sum_ranks(none, a, a_weight)
        assert ranks.dtype == np.int64 and ranks.shape == (0, len(a))

    @pytest.mark.parametrize("d, m", [(100000, 0), (2000, 1), (300000, 0)])
    def test_wide_bases_enumerate_in_linear_time(self, d, m):
        # each column is written once, so the cost follows the N x d rows;
        # re-stacking the earlier columns at every split took O(N d^2)
        start = time.perf_counter()
        counts = enumerate_basis.__wrapped__(d, m).counts  # kept out of the cache
        assert time.perf_counter() - start < 2.0
        want = np.eye(d, dtype=np.int64) if m else np.zeros((1, d), dtype=np.int64)
        assert np.array_equal(counts, want)
        # the rank table is built along its length-d axis; one cumsum per
        # column took over 1 s at d = 300000
        start = time.perf_counter()
        ranks = composition_rank(counts, m)
        assert time.perf_counter() - start < 0.5
        assert np.array_equal(ranks, np.arange(len(counts)))

    @pytest.mark.parametrize("d, m", [(8 * AMPLITUDE_GUARD + 1, 0), (2, 4 * AMPLITUDE_GUARD), (10**12, 0)])
    def test_a_basis_beyond_the_guard_is_refused_before_allocation(self, d, m):
        # the bound clone_amplitudes applies: basis size times levels
        assert dim(d, m) * d > 8 * AMPLITUDE_GUARD

        def refused():
            with pytest.raises(ResourceLimitError, match="entries times levels"):
                enumerate_basis.__wrapped__(d, m)

        _, peak = traced_peak(refused)
        assert peak < 1 << 16

    @pytest.mark.parametrize("d, m", [(3 * 10**5, 3 * 10**5), (10**5, 10**5)])
    def test_a_vast_basis_is_refused_before_its_exact_size(self, d, m):
        # dim(3e5, 3e5) is one binomial of over 180000 digits, which took
        # 2.08 s before the guard refused it
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="entries times levels") as refused:
            enumerate_basis.__wrapped__(d, m)
        assert time.perf_counter() - start < 0.1
        assert str(d) not in str(refused.value) and str(m) not in str(refused.value)

    def test_the_largest_benchmark_basis_is_admitted(self):
        # (3, 1, 830)'s output: 345696 compositions over 3 levels
        assert enumerate_basis.__wrapped__(3, 830).size == 345696

    def test_qubit_index_counts_level_one(self):
        for m in range(7):
            basis = enumerate_basis(2, m)
            for i, c in enumerate(basis.counts.tolist()):
                assert c == [m - i, i]

    def test_dyad_rejects_foreign_composition(self):
        with pytest.raises(InvalidParameterError):
            basis_dyad((2, 0), (3, 0))
        with pytest.raises(InvalidParameterError):
            basis_dyad((1, 1), (1, 1, 0))


class TestDim:
    def test_examples(self):
        assert dim(2, 5) == 6
        assert dim(2, 0) == 1
        assert dim(3, 2) == len(brute_force_compositions(3, 2))

    @given(d=st.integers(2, 5), m=st.integers(0, 6))
    def test_matches_enumeration(self, d, m):
        assert dim(d, m) == len(enumerate_basis(d, m).counts)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            dim(1, 2)
        with pytest.raises(InvalidParameterError):
            dim(3, -1)


def sym_column(counts):
    """The symmetrized vector of counts: its column of sym_embedding."""
    d, m = len(counts), sum(counts)
    return sym_embedding(d, m)[:, enumerate_basis(d, m).counts.tolist().index(list(counts))]


def multinomial(counts):
    """The symmetrized vector's word count, and its one nonzero value."""
    v = sym_column(counts)
    words = np.flatnonzero(v)
    assert np.all(v[words] == 1 / np.sqrt(len(words)))
    return len(words)


class TestMultinomial:
    def test_examples(self):
        assert multinomial((1, 1)) == 2
        assert multinomial((2, 0, 0)) == 1
        # distinct orderings of the word 0 0 1 2, counted by brute force
        word = (0, 0, 1, 2)
        assert len(set(itertools.permutations(word))) == 12
        assert multinomial((2, 1, 1)) == 12

    @given(counts=st.lists(st.integers(0, 3), min_size=2, max_size=4))
    def test_counts_distinct_permutations(self, counts):
        d, m = len(counts), sum(counts)
        # (4, 7), 16384 words by 120 columns, is beyond the embedding's guard
        assume(m <= 7 and d**m * dim(d, m) <= MEMORY_GUARD)
        word = tuple(i for i, n in enumerate(counts) for _ in range(n))
        assert multinomial(counts) == len(set(itertools.permutations(word)))


class TestCompositionValidation:
    # count tuples are checked where they enter
    def test_negative_count_rejected(self):
        with pytest.raises(InvalidParameterError, match="negative"):
            basis_projector((1, -1))
        with pytest.raises(InvalidParameterError, match="negative"):
            basis_dyad((1, 0), (2, -1))
        with pytest.raises(InvalidParameterError, match="negative"):
            alpha_d_sq((2, -1), (1, 0), 1, 2)

    def test_non_integral_count_rejected(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            basis_projector((1.7, 0.2))
        with pytest.raises(InvalidParameterError, match="integers"):
            alpha_d_sq((0.9, 1.2), (1, 0), 1, 2)
        # Python and NumPy integers are counts
        assert basis_projector((np.int64(1), 0)).m == 1

    def test_single_level_rejected(self):
        with pytest.raises(InvalidParameterError, match="2 levels"):
            basis_projector((3,))
        with pytest.raises(InvalidParameterError, match="2 levels"):
            alpha_d_sq((1,), (1,), 1, 2)


def full_space_reduction(a, b):
    """Independent route: symmetrize both states, form the dyad, trace to one site."""
    full = np.outer(sym_column(a), sym_column(b).conj())
    return reduce_full_to_site(full, len(a), sum(a), site=0).entries


def add_at_reduce_one(op):
    """reduce_one with the one-hop terms scattered by np.add.at, weighed by
    the identity clone's reduced map."""
    d = op.d
    w_diag, w_hop = clone_amplitudes(d, op.m, op.m).reduced_map
    xdiag, xhops = op._diagonal_and_hops()
    out = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        out[i, i] = w_diag[i] @ xdiag
    moves = tuple(np.broadcast_to(level[:, None], w_hop.shape) for level in op.basis.moves)
    np.add.at(out, moves, w_hop * xhops)
    return out


class TestReduceOne:
    def test_all_particles_level_zero(self):
        out = reduce_one(basis_projector((2, 0)))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_balanced_pair(self):
        out = reduce_one(basis_projector((1, 1)))
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_one_hop_qubit_dyad(self):
        out = reduce_one(basis_dyad((2, 0), (1, 1)))
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = math.sqrt(2) / 2
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)

    def test_one_hop_qutrit_dyad(self):
        a, b = (1, 1, 0), (1, 0, 1)
        out = reduce_one(basis_dyad(a, b))
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = 0.5
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)
        np.testing.assert_allclose(out.entries, full_space_reduction(a, b), atol=1e-12)

    def test_ordered_sums_match_add_at_bit_for_bit(self):
        # reduce_one sums each move's terms strictly in basis order, by a
        # running sum along its row, and adds only the totals to the zeroed
        # output: np.add.at's order and +0.0 start.  So off-diagonal entries
        # of -0.0 still give +0.0; a NaN real and an infinite imaginary part
        # propagate the same
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            for m in (1, 2, 3, 5):
                n = dim(d, m)
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                negative_zeros = np.where(np.eye(n, dtype=bool), x, complex(-0.0, -0.0))
                non_finite = x.copy()
                non_finite[0, 1] = complex(np.nan, np.inf)  # a one-hop pair
                for entries in (x, negative_zeros, non_finite):
                    op = sym_operator(d, m, entries)
                    with np.errstate(invalid="ignore"):
                        got, want = reduce_one(op).entries, add_at_reduce_one(op)
                    assert got.tobytes() == want.tobytes()
                # the three as one stack: each keeps the bits it has alone
                stack = np.stack([x, negative_zeros, non_finite])
                with np.errstate(invalid="ignore"):
                    got = reduce_one(sym_operator(d, m, stack)).entries
                    want = np.stack([add_at_reduce_one(sym_operator(d, m, e)) for e in stack])
                assert got.tobytes() == want.tobytes()

    def test_hop_entries_are_read_only_and_cached(self):
        # all three live on the shared, cached basis: a write to one would
        # move every later reduction at its weight
        basis = enumerate_basis(3, 4)
        for name in ("hop_entries", "hop_ranks"):
            array = getattr(basis, name)
            assert getattr(basis, name) is array and not array.flags.writeable
            assert array.flags.c_contiguous and array.base is None
            with pytest.raises(ValueError):
                array[0, [0, 1]] = array[0, [1, 0]]
        moves = basis.moves
        assert basis.moves is moves
        for levels in moves:
            assert not levels.flags.writeable
            with pytest.raises(ValueError):
                levels[[0, 1]] = levels[[1, 0]]

    @pytest.mark.parametrize(
        "d, m", [(d, m) for d in range(2, 7) for m in range(1, 11)] + [(3, 830), (2, 60)]
    )
    def test_hop_ranks_have_the_bits_of_ranked_sums(self, d, m):
        # the compositions with c_i >= 1 are exactly the u + e_i, and adding
        # e_i keeps the lex order, so row i is the nonzero rows of counts'
        # column i; the reference ranks every u + e_i from the weight-(m-1)
        # basis
        want = sum_ranks(np.eye(d, dtype=np.int64), enumerate_basis(d, m - 1).counts, m)
        got = enumerate_basis(d, m).hop_ranks
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(2, 7))
    def test_one_flat_gather_has_the_bits_of_a_fancy_gather(self, d):
        # one take of basis.hop_entries along the (..., N N) view gathers every
        # hop, with no index array built per call; every hop is a copy of one
        # entry, so the layout alone can differ
        rng = np.random.default_rng(d)
        for m in range(1, 6):
            basis = enumerate_basis(d, m)
            n, ranks = basis.size, basis.hop_ranks
            p, q = basis.moves
            for shape in ((n, n), (3, n, n)):
                x = rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
                x[..., 0, :] = complex(-0.0, -0.0)
                op = sym_operator(d, m, x)
                diagonal, hops = op._diagonal_and_hops()
                want = op.entries[..., ranks[p], ranks[q]]
                assert hops.shape == want.shape and hops.dtype == want.dtype
                assert hops.tobytes() == want.tobytes()
                assert diagonal.tobytes() == np.diagonal(op.entries, axis1=-2, axis2=-1).tobytes()

    def test_rejects_empty_operator(self):
        with pytest.raises(InvalidParameterError):
            reduce_one(sym_operator(2, 0, np.eye(1)))

    def test_one_site_reduces_to_itself_bit_for_bit(self):
        # basis index is level at weight 1, so a single-site operator is
        # its own reduction
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            for shape in ((d, d), (4, d, d)):
                x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                out = reduce_one(sym_operator(d, 1, x))
                assert (out.d, out.m) == (d, 1)
                assert out.entries.tobytes() == x.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_linear_trace_preserving_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        n = dim(d, m)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a, b = complex(rng.standard_normal(), rng.standard_normal()), 2.0 - 0.5j
        rx = reduce_one(sym_operator(d, m, x))
        ry = reduce_one(sym_operator(d, m, y))
        combo = reduce_one(sym_operator(d, m, a * x + b * y))
        np.testing.assert_allclose(
            combo.entries, a * rx.entries + b * ry.entries, atol=1e-12
        )
        assert abs(rx.trace() - np.trace(x)) < 1e-12
        np.testing.assert_allclose(
            reduce_one(sym_operator(d, m, x.conj().T)).entries,
            rx.entries.conj().T,
            atol=1e-14,
        )

    def test_matches_full_space_on_all_dyads(self):
        # certifies the one-hop rule for d > 2, where only the qubit case has
        # a textbook closed form
        for d in (2, 3):
            for m in (1, 2, 3):
                basis = enumerate_basis(d, m)
                for a in basis.counts.tolist():
                    for b in basis.counts.tolist():
                        got = reduce_one(basis_dyad(a, b)).entries
                        want = full_space_reduction(a, b)
                        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_qubit_coefficient_families_exact(self):
        for m in range(1, 6):
            for j in range(m + 1):
                c = (m - j, j)
                diag = reduce_one(basis_projector(c)).entries
                assert diag[0, 0].real == (m - j) / m
                assert diag[1, 1].real == j / m
            for j in range(m):
                upper = (m - j, j)
                lower = (m - j - 1, j + 1)
                out = reduce_one(basis_dyad(upper, lower)).entries
                assert out[0, 1].real == math.sqrt(m - j) * math.sqrt(j + 1) / m


class TestSymOperator:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            sym_operator(2, 2, np.eye(2))

    @pytest.mark.parametrize(
        "shape", [(3,), (1, 1, 3, 3), (2, 3, 4), (2, 4, 3), (2, 2, 2), (3, 3, 2)]
    )
    def test_only_a_matrix_or_a_stack_of_them_is_accepted(self, shape):
        # the basis of (2, 2) has 3 states
        message = re.escape(f"got shape {shape}")
        with pytest.raises(InvalidParameterError, match=message):
            sym_operator(2, 2, np.zeros(shape))
        with pytest.raises(InvalidParameterError, match=message):
            sym_operator(3, 1, np.zeros(shape))

    @pytest.mark.parametrize("batch", [0, 1, 4])
    def test_a_stack_is_accepted(self, batch):
        assert sym_operator(2, 2, np.zeros((batch, 3, 3))).entries.shape == (batch, 3, 3)
        assert sym_operator(3, 1, np.zeros((batch, 3, 3))).entries.shape == (batch, 3, 3)

    def test_entries_are_read_only(self):
        op = sym_operator(2, 1, np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_one_operator_readers_refuse_a_stack(self, batch):
        # a Hermitian unit-trace stack, which .conj().T over three axes
        # would have called not Hermitian
        stack = sym_operator(2, 2, np.broadcast_to(np.eye(3) / 3, (batch, 3, 3)))
        with pytest.raises(InvalidParameterError, match="validate_density reads one operator"):
            stack.validate_density()
        with pytest.raises(InvalidParameterError, match="trace reads one operator"):
            stack.trace()
        with pytest.raises(InvalidParameterError, match="trace reads one operator"):
            sym_operator(3, 1, stack.entries).trace()

    def test_validate_density_accepts_proper_state(self):
        sym_operator(2, 1, np.diag([0.25, 0.75])).validate_density()

    def test_validate_density_rejects_bad_trace(self):
        with pytest.raises(InvalidParameterError):
            sym_operator(2, 1, np.diag([0.25, 0.25])).validate_density()

    def test_validate_density_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            x = np.diag([0.5, 0.5]).astype(complex)
            x[0, 1] = bad
            with pytest.raises(InvalidParameterError):
                sym_operator(2, 1, x).validate_density()

    def test_validate_density_rejects_non_hermitian(self):
        x = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(InvalidParameterError):
            sym_operator(2, 1, x).validate_density()

    def test_validate_density_warns_not_rejects_on_negative_eigenvalue(self):
        x = np.diag([1.5, -0.5])
        op = sym_operator(2, 1, x)
        op.validate_density(check_psd=False)
        with pytest.warns(UserWarning):
            op.validate_density(check_psd=True)
