import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from symclone import cloner, symspace
from symclone.cli import main
from symclone.closed_forms import scaling_residual
from symclone.cloner import (
    alpha_d,
    alpha_d_sq,
    alpha_qubit,
    alpha_qubit_sq,
    ancilla_dim,
    clone_amplitudes,
    clone_channel,
    concatenate,
    isometry_gram,
    uqcm_pure_output,
)
from symclone.oracle import ginibre_sym_operator, hermitian_sym_operator
from symclone.symspace import (
    Composition,
    InvalidParameterError,
    ResourceLimitError,
    SymOperator,
    basis_projector,
    dim,
    enumerate_basis,
    reduce_one,
    sym_operator,
)


class TestAlphaQubit:
    def test_one_to_two(self):
        assert alpha_qubit_sq(0, 0, 1, 2) == Fraction(2, 3)
        assert alpha_qubit_sq(0, 1, 1, 2) == Fraction(1, 3)
        assert alpha_qubit(0, 0, 1, 2) == math.sqrt(2 / 3)

    def test_identity_when_no_copies_added(self):
        for m in range(0, 5):
            for j in range(m + 1):
                assert alpha_qubit_sq(j, 0, m, m) == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            alpha_qubit(3, 0, 2, 4)
        with pytest.raises(InvalidParameterError):
            alpha_qubit(0, 3, 2, 4)
        with pytest.raises(InvalidParameterError):
            alpha_qubit(0, 0, 3, 2)


class TestAlphaD:
    def test_reduces_to_qubit_form(self):
        for m in range(0, 4):
            for l in range(m, m + 4):
                for j in range(m + 1):
                    for k in range(l - m + 1):
                        general = alpha_d_sq(
                            Composition((m - j, j)),
                            Composition((l - m - k, k)),
                            m,
                            l,
                        )
                        assert general == alpha_qubit_sq(j, k, m, l)

    def test_identity_when_no_copies_added(self):
        for c in enumerate_basis(3, 2).order:
            assert alpha_d_sq(c, Composition((0, 0, 0)), 2, 2) == 1

    def test_three_level_example(self):
        got = alpha_d_sq(Composition((1, 0, 0)), Composition((1, 1, 0)), 1, 3)
        assert got == Fraction(1, 5)
        assert alpha_d(Composition((1, 0, 0)), Composition((1, 1, 0)), 1, 3) == math.sqrt(0.2)

    def test_weight_mismatch(self):
        with pytest.raises(InvalidParameterError):
            alpha_d_sq(Composition((1, 0)), Composition((1, 0)), 2, 3)
        with pytest.raises(InvalidParameterError):
            alpha_d_sq(Composition((1, 0)), Composition((2, 0)), 1, 2)
        with pytest.raises(InvalidParameterError):
            alpha_d_sq(Composition((1, 0)), Composition((1, 0, 0)), 1, 2)

    @given(d=st.integers(2, 4), m=st.integers(0, 3), extra=st.integers(0, 4))
    @settings(max_examples=40)
    def test_normalization_is_exact(self, d, m, extra):
        l = m + extra
        added = enumerate_basis(d, l - m).order
        for j in enumerate_basis(d, m).order:
            total = sum((alpha_d_sq(j, k, m, l) for k in added), Fraction(0))
            assert total == 1


class TestAncillaDim:
    def test_examples(self):
        assert ancilla_dim(2, 1, 2) == 2
        assert ancilla_dim(3, 1, 3) == len(enumerate_basis(3, 2).order) == 6
        for d in (2, 3, 4):
            assert ancilla_dim(d, 3, 3) == 1

    def test_counts_added_compositions(self):
        for d in (2, 3):
            for m in range(1, 4):
                for l in range(m, 7):
                    assert ancilla_dim(d, m, l) == len(enumerate_basis(d, l - m).order)

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
        out = clone_channel(basis_projector(Composition((1, 0))), 2)
        np.testing.assert_allclose(
            out.entries, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-15
        )

    def test_unital_on_maximally_mixed_reduction(self):
        op = sym_operator(2, 1, np.eye(2) / 2)
        red = reduce_one(clone_channel(op, 2))
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_rejects_fewer_output_copies(self):
        with pytest.raises(InvalidParameterError):
            clone_channel(basis_projector(Composition((1, 1))), 1)

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
        op = sym_operator(3, 2, x)
        assert np.array_equal(
            clone_channel(op.dagger(), 3).entries,
            clone_channel(op, 3).dagger().entries,
        )


class TestStructuredOutput:
    # the clone_warm benchmark cells, next to a small exhaustive grid
    CELLS = [
        (d, m, l) for d in (2, 3, 4) for m in range(0, 5) for l in range(max(m, 1), m + 5)
    ] + [(2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (2, 1, 200), (3, 2, 20)]

    def test_reduction_matches_the_dense_view_bit_for_bit(self):
        for i, (d, m, l) in enumerate(self.CELLS):
            for make in (ginibre_sym_operator, hermitian_sym_operator):
                x = make(d, m, np.random.default_rng([i, d, m, l]))
                # one stage, and two, the second reading the first's output
                for out in (clone_channel(x, l), clone_channel(clone_channel(x, l), l + 1)):
                    want = reduce_one(SymOperator(out.basis, out.entries)).entries
                    assert reduce_one(out).entries.tobytes() == want.tobytes(), (d, m, l)

    def test_reduction_beyond_the_dense_guard(self):
        # the dense output would be 20301 x 20301 complex entries, 6.1 GiB
        d, m, l = 3, 2, 200
        x = hermitian_sym_operator(d, m, np.random.default_rng(5))
        out = clone_channel(x, l)
        assert scaling_residual(reduce_one(x), reduce_one(out), d, m, l) <= 1e-10
        with pytest.raises(ResourceLimitError, match="guard"):
            out.entries

    def test_amplitude_table_guard_precedes_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the guard")

        monkeypatch.setattr(cloner, "enumerate_basis", refuse)
        monkeypatch.setattr(cloner, "_channel_plan", refuse)
        with pytest.raises(ResourceLimitError, match="amplitude table"):
            clone_channel(sym_operator(3, 1, np.eye(3) / 3), 2000)


@pytest.mark.parametrize("caller", ["clone_amplitudes", "isometry_gram", "coeffs"])
def test_every_amplitude_table_reader_shares_the_guard(caller, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(cloner, "enumerate_basis", refuse)
    if caller == "coeffs":
        out = tmp_path / "amps.csv"
        argv = ["coeffs", "--d", "3", "--m", "1", "--l", "2000", "--out", str(out)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "amplitude table" in err["error"]
        assert not out.exists()
    else:
        with pytest.raises(ResourceLimitError, match="amplitude table"):
            getattr(cloner, caller)(3, 1, 2000)


class TestPureOutput:
    def test_one_to_two(self):
        out = uqcm_pure_output(2, 1, 2)
        np.testing.assert_allclose(
            out.entries, np.diag([2 / 3, 1 / 3, 0.0]), atol=1e-15
        )

    def test_no_growth_is_pure(self):
        for d, n in ((2, 1), (3, 2)):
            out = uqcm_pure_output(d, n, n)
            expected = basis_projector(Composition((n,) + (0,) * (d - 1)))
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
        assert len(enumerate_basis(3, 2).order) == 6
        np.testing.assert_allclose(isometry_gram(3, 2, 4), np.eye(6), atol=1e-12)

    def test_grid(self):
        for d in (2, 3):
            for m in (1, 2, 3):
                for l in range(m, m + 3):
                    gram = isometry_gram(d, m, l)
                    np.testing.assert_allclose(gram, np.eye(dim(d, m)), atol=1e-12)


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
        # the intermediate (3, 100) output would be 5151 x 5151 dense entries
        via, direct = concatenate(3, 1, 100, 101)
        diff = reduce_one(via).entries - reduce_one(direct).entries
        assert np.max(np.abs(diff)) <= 1e-12
        with pytest.raises(ResourceLimitError, match="guard"):
            via.source.entries

    def test_ordering_violation(self):
        with pytest.raises(InvalidParameterError):
            concatenate(2, 2, 1, 3)
        with pytest.raises(InvalidParameterError):
            concatenate(2, 1, 3, 2)


class TestCloneAmplitudesTable:
    def test_rows_cover_product_of_bases(self):
        amps = clone_amplitudes(3, 1, 2)
        assert amps.occupancy.shape == (dim(3, 1), dim(3, 1))
        assert amps.d == 3 and amps.m == 1 and amps.l == 2


def reference_index(d, m):
    # independent of the closed-form rank: positions in the enumerated order,
    # which test_symspace checks against a brute-force enumeration
    return {c.counts: i for i, c in enumerate(enumerate_basis(d, m).order)}


def reference_channel_plan(d, m, l):
    """Per-Composition construction of the channel plan, one row per k."""
    basis_in = enumerate_basis(d, m).order
    index_out = reference_index(d, l)
    idx, v = [], []
    for k in enumerate_basis(d, l - m).order:
        v.append([alpha_d(a, k, m, l) for a in basis_in])
        idx.append([index_out[a.add(k).counts] for a in basis_in])
    return np.array(idx, dtype=np.intp), np.array(v)


def reference_reduction_plan(d, m):
    """Per-Composition construction of the one-hop reduction plan."""
    basis = enumerate_basis(d, m).order
    index = reference_index(d, m)
    diag = np.array([[c[i] / m for c in basis] for i in range(d)])
    hops = []
    for p in range(d):
        for q in range(d):
            for ia, a in enumerate(basis):
                if q == p or a[p] == 0:
                    continue
                shifted = list(a.counts)
                shifted[p] -= 1
                shifted[q] += 1
                hops.append((ia, index[tuple(shifted)], p, q, math.sqrt(a[p] * (a[q] + 1)) / m))
    rows, cols, level_p, level_q, coeffs = zip(*hops)
    ints = [np.array(x, dtype=np.intp) for x in (rows, cols, level_p, level_q)]
    return diag, (*ints, np.array(coeffs))


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPlansMatchReference:
    # clone_cold benchmark cells; at (2, 20, 400) the occupancy products pass
    # 2**63, up to C(400, 20) ~ 2.8e33
    BIG_CELLS = [(2, 20, 400), (3, 6, 30), (4, 1, 30)]

    def test_channel_plan(self):
        grid = [(d, m, l) for d in (2, 3, 4) for m in range(0, 5) for l in range(m, m + 4)]
        for d, m, l in grid + self.BIG_CELLS:
            idx, v = cloner._channel_plan(d, m, l)
            want_idx, want_v = reference_channel_plan(d, m, l)
            assert_bitwise_equal(idx, want_idx)
            assert_bitwise_equal(v, want_v)
        assert clone_amplitudes(2, 20, 400).occupancy.max() >= 2**63

    def test_table_matches_alpha_d_sq(self):
        for d in (2, 3, 4):
            for m in range(0, 5):
                for l in range(m, m + 5):
                    amps = clone_amplitudes(d, m, l)
                    inputs = enumerate_basis(d, m).order
                    added = enumerate_basis(d, l - m).order
                    assert amps.occupancy.shape == (len(inputs), len(added))
                    for i, j in enumerate(inputs):
                        for t, k in enumerate(added):
                            sq = amps.prefactor * amps.occupancy[i, t]
                            want = alpha_d_sq(j, k, m, l)
                            assert (sq.numerator, sq.denominator) == (
                                want.numerator,
                                want.denominator,
                            )

    def test_reduction_plan(self):
        for d in (2, 3, 4):
            for m in range(1, 8):
                diag, hops = symspace._reduction_plan(d, m)
                want_diag, want_hops = reference_reduction_plan(d, m)
                assert_bitwise_equal(diag, want_diag)
                for got, want in zip(hops, want_hops, strict=True):
                    assert_bitwise_equal(got, want)

    def test_gram_detects_a_colliding_rank(self, monkeypatch):
        # off the diagonal the Gram check tests exactly the rank's
        # injectivity on each {a + k}; a rank that merges neighbours fails it
        def colliding(counts, m):
            return symspace.composition_rank(counts, m) // 2

        monkeypatch.setattr(cloner, "composition_rank", colliding)
        cloner._channel_plan.cache_clear()
        try:
            gram = isometry_gram(2, 2, 3)
        finally:
            cloner._channel_plan.cache_clear()
        assert np.max(np.abs(gram - np.eye(3))) > 0.1


COLD_CELLS = [(3, 1, 30), (2, 20, 60)]


def clear_plan_caches():
    for cached in (
        symspace.enumerate_basis,
        symspace._reduction_plan,
        cloner.clone_amplitudes,
        cloner._channel_plan,
        cloner._hop_plan,
    ):
        cached.cache_clear()


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_cold_clone_builds_no_composition_objects(d, m, l, monkeypatch):
    clear_plan_caches()
    calls = []
    original = Composition.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Composition, "__post_init__", counting)
    n = dim(d, m)
    x = sym_operator(d, m, np.eye(n) / n)
    red = reduce_one(clone_channel(x, l))
    assert calls == []
    np.testing.assert_allclose(red.entries, np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d, m, l", COLD_CELLS)
def test_cold_clone_builds_one_fraction(d, m, l, monkeypatch):
    clear_plan_caches()
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(original(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(Fraction, "__new__", counting)
    n = dim(d, m)
    reduce_one(clone_channel(sym_operator(d, m, np.eye(n) / n), l))
    assert len(made) == 1
    assert made[0] is clone_amplitudes(d, m, l).prefactor
