import numpy as np
import pytest
from conftest import traced_peak

from symclone.cloner import clone_channel
from symclone.oracle import (
    MEMORY_GUARD,
    ResourceLimitError,
    clone_isometry_full,
    covariance_check,
    ginibre_sym_operator,
    hermitian_sym_operator,
    oracle_clone,
    random_unitary,
    reduce_full_to_site,
    sym_embedding,
)
from symclone.symspace import (
    InvalidParameterError,
    SymOperator,
    basis_projector,
    dim,
    enumerate_basis,
    reduce_one,
    sym_operator,
)
from symclone.verify import ORACLE_GRID, covariance_suite, oracle_suite, scaling_suite


def sym_column(counts):
    """The symmetrized vector of counts: its column of sym_embedding."""
    d, m = len(counts), sum(counts)
    return sym_embedding(d, m)[:, enumerate_basis(d, m).counts.tolist().index(list(counts))]


class TestSymVector:
    """The symmetrized basis vectors, as columns of sym_embedding."""

    def test_two_site_triplet(self):
        v = sym_column((1, 1))
        np.testing.assert_allclose(v, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)

    def test_all_level_zero(self):
        v = sym_column((2, 0))
        np.testing.assert_allclose(v, [1, 0, 0, 0], atol=1e-15)

    def test_qutrit_pair(self):
        v = sym_column((1, 1, 0))
        expected = np.zeros(9)
        expected[1] = expected[3] = 1 / np.sqrt(2)  # |01> and |10>, site 0 major
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_unit_norm_and_orthogonality(self):
        for d in (2, 3):
            for m in (1, 2, 3):
                s = sym_embedding(d, m)
                gram = s.conj().T @ s
                np.testing.assert_allclose(gram, np.eye(dim(d, m)), atol=1e-12)

    def test_memory_guard(self):
        assert 2**21 > MEMORY_GUARD
        with pytest.raises(ResourceLimitError):
            sym_embedding(2, 21)


class TestIsometry:
    def test_columns_orthonormal(self):
        for d, m, l in ((2, 1, 2), (2, 2, 4), (3, 1, 2), (3, 2, 3)):
            v = clone_isometry_full(d, m, l)
            np.testing.assert_allclose(
                v.conj().T @ v, np.eye(dim(d, m)), atol=1e-12
            )

    def test_read_only(self):
        v = clone_isometry_full(2, 1, 3)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0

    def test_cached_cells_match_fresh_builds(self):
        # the last cell's isometry is kept, so a walk over a grid builds each
        # cell once, and a kept isometry has a fresh build's bits
        cells = ((2, 1, 3), (3, 2, 3), (2, 1, 3))
        assert clone_isometry_full(*cells[0]) is clone_isometry_full(*cells[0])
        walked = [clone_isometry_full(*cell).tobytes() for cell in cells]
        fresh = []
        for cell in cells:
            clone_isometry_full.cache_clear()
            fresh.append(clone_isometry_full(*cell).tobytes())
        assert walked == fresh

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            clone_isometry_full(2, 1, 21)
        with pytest.raises(ResourceLimitError, match=r"2\*\*11 x 2\*\*11"):
            oracle_clone(basis_projector((1, 0)), 11)
        # the oracle's guard on d**(2l) also bounds the d**m rotation
        with pytest.raises(ResourceLimitError):
            covariance_check(sym_operator(2, 1, np.eye(2)), basis_projector((11, 0)), 11)


class TestOracleClone:
    def test_one_to_two_fidelity(self):
        _, red = oracle_clone(basis_projector((1, 0)), 2)
        np.testing.assert_allclose(red.entries, np.diag([5 / 6, 1 / 6]), atol=1e-12)

    def test_no_growth_matches_plain_reduction(self):
        rng = np.random.default_rng(8)
        for d, m in ((2, 2), (3, 2)):
            x = hermitian_sym_operator(d, m, rng)
            _, red = oracle_clone(x, m)
            np.testing.assert_allclose(
                red.entries, reduce_one(x).entries, atol=1e-12
            )

    def test_site_independence(self):
        rng = np.random.default_rng(9)
        x = hermitian_sym_operator(2, 2, rng)
        full, reduced = oracle_clone(x, 3)
        reductions = [reduce_full_to_site(full, 2, 3, site=s).entries for s in range(3)]
        assert reduced.entries.tobytes() == reductions[0].tobytes()
        for other in reductions[1:]:
            np.testing.assert_allclose(reductions[0], other, atol=1e-12)

    def test_matches_fast_path(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = hermitian_sym_operator(2, 2, rng)
            fast = reduce_one(clone_channel(x, 3))
            _, slow = oracle_clone(x, 3)
            assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-10

    def test_full_output_matches_embedded_fast_output(self):
        # the whole l-site operator, not just its reduction, must agree
        rng = np.random.default_rng(12)
        for d, m, l in ((2, 1, 3), (2, 2, 3), (3, 1, 2)):
            x = ginibre_sym_operator(d, m, rng)
            full, _ = oracle_clone(x, l)
            s = sym_embedding(d, l)
            embedded = s @ clone_channel(x, l).entries @ s.conj().T
            assert np.max(np.abs(full - embedded)) <= 1e-12

    def test_empty_input(self):
        # m = 0: the input space is spanned by the empty word
        x = basis_projector((0, 0, 0))
        full, red = oracle_clone(x, 2)
        s = sym_embedding(3, 2)
        np.testing.assert_allclose(full, s @ s.conj().T / dim(3, 2), atol=1e-15)
        np.testing.assert_allclose(red.entries, reduce_one(clone_channel(x, 2)).entries, atol=1e-15)

    def test_memory_stays_inside_the_guard(self):
        # (4, 1, 5) sits on the guard, 4**10 == MEMORY_GUARD, where the
        # ancilla-extended V X V* would be 35840 x 35840 (19.1 GiB)
        x = hermitian_sym_operator(4, 1, np.random.default_rng(20))
        fast = reduce_one(clone_channel(x, 5))
        clone_isometry_full.cache_clear()  # measure the build, not a kept isometry
        (_, slow), peak = traced_peak(lambda: oracle_clone(x, 5))
        assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-10
        assert peak <= 6 * 16 * MEMORY_GUARD

    def test_rejects_shrinking(self):
        with pytest.raises(InvalidParameterError):
            oracle_clone(basis_projector((1, 1)), 1)


class TestOracleStack:
    # the oracle suite's cells, and the empty input
    CELLS = list(ORACLE_GRID) + [(2, 0, 3), (3, 0, 2)]

    def test_a_stack_gives_the_bits_of_a_stack_of_one(self):
        for i, (d, m, l) in enumerate(self.CELLS):
            rng = np.random.default_rng([i, d, m, l])
            basis = enumerate_basis(d, m)
            makes = ginibre_sym_operator, hermitian_sym_operator
            x = np.concatenate([make(d, m, rng, count=2).entries for make in makes])
            full, reduced = oracle_clone(SymOperator(basis, x), l)
            for b, draw in enumerate(x):
                want_full, want = oracle_clone(SymOperator(basis, draw), l)
                assert full[b].tobytes() == want_full.tobytes(), (d, m, l)
                assert reduced.entries[b].tobytes() == want.entries.tobytes(), (d, m, l)
            # reduced to the last site, too, each of a stack keeps its bits
            last = reduce_full_to_site(full, d, l, site=l - 1).entries
            for b, one in enumerate(full):
                want = reduce_full_to_site(one, d, l, site=l - 1).entries
                assert last[b].tobytes() == want.tobytes(), (d, m, l)

    def test_guard_counts_the_whole_stack(self):
        # one 2**10 x 2**10 output sits on the guard; two exceed it
        basis = enumerate_basis(2, 1)
        assert 2**20 == MEMORY_GUARD
        clone_isometry_full.cache_clear()

        def refused():
            with pytest.raises(ResourceLimitError, match="guard"):
                oracle_clone(SymOperator(basis, np.zeros((2, 2, 2))), 10)

        _, peak = traced_peak(refused)
        assert peak < 1 << 20
        assert clone_isometry_full.cache_info().currsize == 0


DRAW_COUNTS = {
    oracle_suite: "inputs_per_kind",
    scaling_suite: "inputs_per_kind",
    covariance_suite: "unitaries_per_cell",
}


@pytest.mark.parametrize("suite", DRAW_COUNTS)
def test_a_suite_without_draws_passes_at_zero(suite):
    report = suite(**{DRAW_COUNTS[suite]: 0})
    assert report.passed and {case.residual for case in report.cases} == {0.0}


@pytest.mark.parametrize("suite", DRAW_COUNTS)
def test_a_negative_draw_count_is_refused(suite):
    with pytest.raises(InvalidParameterError, match="draws per cell must be >= 0, got -1"):
        suite(**{DRAW_COUNTS[suite]: -1})


class TestReduceFullToSite:
    def test_product_state(self):
        a = np.diag([0.25, 0.75])
        b = np.diag([0.5, 0.5])
        full = np.kron(a, b)
        np.testing.assert_allclose(
            reduce_full_to_site(full, 2, 2, site=0).entries, a, atol=1e-15
        )
        np.testing.assert_allclose(
            reduce_full_to_site(full, 2, 2, site=1).entries, b, atol=1e-15
        )

    def test_a_stack_gives_a_stack(self):
        full = np.stack([np.kron(np.diag([0.25, 0.75]), np.eye(2) / 2), np.eye(4) / 4])
        reduced = reduce_full_to_site(full, 2, 2, site=1).entries
        assert reduced.tobytes() == np.stack([np.eye(2) / 2] * 2).astype(complex).tobytes()
        with pytest.raises(InvalidParameterError, match="got shape"):
            reduce_full_to_site(full[None], 2, 2)

    def test_bad_site(self):
        with pytest.raises(InvalidParameterError):
            reduce_full_to_site(np.eye(4), 2, 2, site=2)


class TestCovariance:
    def test_identity_unitary(self):
        rng = np.random.default_rng(13)
        x = ginibre_sym_operator(2, 2, rng)
        assert covariance_check(sym_operator(2, 1, np.eye(2)), x, 3) < 1e-12

    def test_bit_flip_on_pure_input(self):
        flip = sym_operator(2, 1, np.array([[0, 1], [1, 0]], dtype=complex))
        x = basis_projector((1, 0))
        assert covariance_check(flip, x, 2) <= 1e-12
        # flipped input clones to the mirrored single-site state
        _, red = oracle_clone(basis_projector((0, 1)), 2)
        np.testing.assert_allclose(red.entries, np.diag([1 / 6, 5 / 6]), atol=1e-12)

    def test_random_unitaries(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            u = random_unitary(2, rng)
            x = hermitian_sym_operator(2, 2, rng)
            assert covariance_check(u, x, 3) <= 1e-10

    def test_a_stack_gives_the_bits_of_a_stack_of_one(self):
        # the covariance suite checks each cell's (x, u) pairs as one stack
        for i, (d, m, l) in enumerate(ORACLE_GRID):
            rng = np.random.default_rng([i, d, m, l])
            x = hermitian_sym_operator(d, m, rng, count=3)
            u = [random_unitary(d, rng) for _ in range(3)]
            stacked = covariance_check(sym_operator(d, 1, [w.entries for w in u]), x, l)
            alone = [covariance_check(w, SymOperator(x.basis, e), l) for w, e in zip(u, x.entries)]
            assert stacked.tobytes() == np.array(alone).tobytes(), (d, m, l)

    def test_rejects_non_unitary(self):
        rng = np.random.default_rng(15)
        x = ginibre_sym_operator(2, 1, rng)
        with pytest.raises(InvalidParameterError):
            covariance_check(sym_operator(2, 1, np.diag([1.0, 2.0])), x, 2)
        # a NaN deviation compares False with any bound; it must not pass
        with pytest.raises(InvalidParameterError, match="not unitary"):
            covariance_check(sym_operator(2, 1, [[np.nan, 0], [0, 1]]), x, 2)

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        x = ginibre_sym_operator(2, 1, rng)
        with pytest.raises(InvalidParameterError):
            covariance_check(sym_operator(3, 1, np.eye(3)), x, 2)
        # a local unitary is an operator of weight 1, not one on two sites
        with pytest.raises(InvalidParameterError, match="one site"):
            covariance_check(sym_operator(2, 2, np.eye(3)), x, 2)


class TestRandomInputs:
    def test_ginibre_is_psd_trace_one(self):
        rng = np.random.default_rng(17)
        for d, m in ((2, 2), (3, 1)):
            x = ginibre_sym_operator(d, m, rng)
            assert abs(x.trace() - 1) < 1e-12
            assert np.max(np.abs(x.entries - x.entries.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(x.entries).min() > -1e-12

    def test_hermitian_generator_produces_indefinite_inputs(self):
        rng = np.random.default_rng(18)
        saw_negative = False
        for _ in range(10):
            x = hermitian_sym_operator(2, 2, rng)
            assert abs(x.trace() - 1) < 1e-12
            assert np.max(np.abs(x.entries - x.entries.conj().T)) < 1e-12
            saw_negative |= np.linalg.eigvalsh(x.entries).min() < -1e-6
        assert saw_negative

    def test_random_unitary_is_unitary_and_seeded(self):
        u = random_unitary(3, np.random.default_rng(19))
        np.testing.assert_allclose(
            u.entries.conj().T @ u.entries, np.eye(3), atol=1e-12
        )
        again = random_unitary(3, np.random.default_rng(19))
        assert np.array_equal(u.entries, again.entries)


def draws_of_one(d, m, kind, count, rng):
    """count draws taken one at a time, with the real block of each
    candidate drawn before its imaginary block; returns the stack and the
    number of Hermitian candidates rejected."""
    n = dim(d, m)
    out, rejected = [], 0
    while len(out) < count:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "ginibre":
            x = g @ g.conj().T
            out.append(x / np.trace(x).real)
            continue
        h = (g + g.conj().T) / 2.0
        tr = np.trace(h).real
        if abs(tr) >= 0.5:
            out.append(h / tr)
        else:
            rejected += 1
    return np.array(out, dtype=np.complex128).reshape(count, n, n), rejected


@pytest.mark.parametrize("count", [1, 10])
@pytest.mark.parametrize("kind", ["ginibre", "hermitian"])
def test_a_stacked_draw_gives_the_bits_of_draws_of_one(kind, count):
    # one standard_normal call fills every draw's real block, then its
    # imaginary block, and each Hermitian round draws only as many
    # candidates as draws are still missing
    make = {"ginibre": ginibre_sym_operator, "hermitian": hermitian_sym_operator}[kind]
    rejected = 0
    # m = 1 cells reject about 38% of Hermitian candidates
    for d, m in ((2, 1), (3, 1), (4, 1), (2, 3), (3, 2), (4, 4), (3, 0)):
        for seed in range(4):
            ours, theirs = np.random.default_rng([seed, d, m]), np.random.default_rng([seed, d, m])
            want, skipped = draws_of_one(d, m, kind, count, theirs)
            rejected += skipped
            assert make(d, m, ours, count=count).entries.tobytes() == want.tobytes(), (d, m, seed)
            # the generator ends where count draws of one leave it
            assert ours.bit_generator.state == theirs.bit_generator.state, (d, m, seed)
    assert (rejected > 0) == (kind == "hermitian")


@pytest.mark.parametrize("make", [ginibre_sym_operator, hermitian_sym_operator])
def test_a_draw_without_count_is_the_only_draw_of_a_stack_of_one(make):
    for d, m in ((2, 1), (3, 2), (3, 0)):
        one, stack = (make(d, m, np.random.default_rng([d, m]), count=c) for c in (None, 1))
        assert one.entries.shape == (dim(d, m), dim(d, m))
        assert one.entries.tobytes() == stack.entries[0].tobytes()


def test_a_stack_of_none_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for make in (ginibre_sym_operator, hermitian_sym_operator):
        assert make(3, 2, rng, count=0).entries.shape == (0, 6, 6)
    assert rng.bit_generator.state == state
