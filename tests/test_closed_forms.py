from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from symclone.closed_forms import (
    BlochVector,
    bloch_vector,
    fidelity,
    generators,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from symclone.cloner import clone_channel, uqcm_pure_output
from symclone.oracle import hermitian_sym_operator
from symclone.symspace import InvalidParameterError, QuditOperator, reduce_one

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestShrink:
    def test_values(self):
        assert shrink(2, 1, 2) == Fraction(2, 3)
        assert shrink(3, 1, 2) == Fraction(5, 8)
        for d in (2, 3, 5):
            for m in (1, 2, 4):
                assert shrink(d, m, m) == 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            shrink(1, 1, 2)
        with pytest.raises(InvalidParameterError):
            shrink(2, 0, 2)
        with pytest.raises(InvalidParameterError):
            shrink(2, 3, 2)

    def test_strictly_decreasing_with_limit(self):
        for d in (2, 3, 4):
            for m in (1, 2, 3):
                values = [shrink(d, m, l) for l in range(m, m + 20)]
                assert all(a > b for a, b in zip(values, values[1:]))
                assert abs(float(shrink(d, m, 10**6)) - m / (m + d)) < 1e-5


class TestFidelity:
    def test_values(self):
        assert fidelity(2, 1, 2) == Fraction(5, 6)
        assert fidelity(3, 1, 2) == Fraction(3, 4)
        for d in (2, 4):
            for n in (1, 3):
                assert fidelity(d, n, n) == 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            fidelity(2, 0, 1)
        with pytest.raises(InvalidParameterError):
            fidelity(2, 3, 2)

    def test_consistent_with_shrink_exactly(self):
        for d in range(2, 7):
            for n in range(1, 11):
                for m in range(n, 11):
                    assert fidelity(d, n, m) == (1 + (d - 1) * shrink(d, n, m)) / d

    def test_matches_simulation(self):
        for d in (2, 3, 4):
            for n in range(1, 6):
                for m in range(n, 6):
                    red = reduce_one(uqcm_pure_output(d, n, m))
                    simulated = red.entries[0, 0].real
                    assert abs(simulated - float(fidelity(d, n, m))) <= 1e-12


class TestGenerators:
    def test_qubit_generators_are_paulis_in_order(self):
        x, y, z = generators(2)
        np.testing.assert_array_equal(x.entries, PAULI_X)
        np.testing.assert_array_equal(y.entries, PAULI_Y)
        np.testing.assert_array_equal(z.entries, PAULI_Z)

    def test_orthonormality_qutrit(self):
        gens = generators(3)
        assert len(gens) == 8
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                product = np.trace(gi.entries @ gj.entries)
                assert abs(product - (2.0 if i == j else 0.0)) < 1e-13

    def test_traceless_and_hermitian_up_to_six_levels(self):
        for d in range(2, 7):
            gens = generators(d)
            assert len(gens) == d * d - 1
            for g in gens:
                assert abs(np.trace(g.entries)) < 1e-13
                assert np.max(np.abs(g.entries - g.entries.conj().T)) < 1e-13


class TestBlochRoundTrip:
    def test_maximally_mixed_is_origin(self):
        for d in (2, 3, 4):
            s = bloch_vector(QuditOperator(d, np.eye(d) / d)).s
            np.testing.assert_allclose(s, np.zeros(d * d - 1), atol=1e-15)

    def test_qubit_level_zero(self):
        s = bloch_vector(QuditOperator(2, np.diag([1.0, 0.0]))).s
        np.testing.assert_allclose(s, [0.0, 0.0, 1.0], atol=1e-15)

    def test_qutrit_level_zero_hits_diagonal_components(self):
        s = bloch_vector(QuditOperator(3, np.diag([1.0, 0.0, 0.0]))).s
        # 3 symmetric + 3 antisymmetric generators see nothing; both diagonal ones do
        np.testing.assert_allclose(s[:6], np.zeros(6), atol=1e-15)
        np.testing.assert_allclose(s[6:], [1.0, np.sqrt(1 / 3)], atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        h = h + np.eye(d) * (1.0 - np.trace(h).real) / d  # shift onto trace 1
        rho = QuditOperator(d, h)
        # identity/d + (1/2) sum_i s_i t_i reassembles rho
        back = np.eye(d) / d
        for si, t in zip(bloch_vector(rho).s, generators(d)):
            back = back + 0.5 * si * t.entries
        np.testing.assert_allclose(back, rho.entries, atol=1e-12)

    def test_matches_per_generator_traces_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for d in range(2, 7):
            for _ in range(20):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = QuditOperator(d, (g + g.conj().T) / 2)
                loop = np.array(
                    [np.trace(rho.entries @ t.entries).real for t in generators(d)]
                )
                assert bloch_vector(rho).s.tobytes() == loop.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameterError):
            bloch_vector(QuditOperator(2, np.array([[0.5, 1.0], [0.0, 0.5]])))

    def test_a_stack_with_one_non_hermitian_draw_is_rejected(self):
        # the scaling suite checks each case's reductions as one stack
        rho = np.stack([np.eye(2) / 2, [[0.5, 1.0], [0.0, 0.5]], np.diag([1.0, 0.0])])
        with pytest.raises(InvalidParameterError, match="not Hermitian"):
            scaling_residual_bloch(QuditOperator(2, rho[[0, 2, 0]]), QuditOperator(2, rho), 2, 1, 2)
        with pytest.raises(InvalidParameterError, match="max deviation 1.000e\\+00"):
            bloch_vector(QuditOperator(2, rho))

    def test_bloch_vector_length_enforced(self):
        with pytest.raises(InvalidParameterError):
            BlochVector(2, np.zeros(4))

    @pytest.mark.parametrize("shape", [(), (1, 1, 3), (2, 4)])
    def test_only_components_or_a_stack_of_them_are_accepted(self, shape):
        with pytest.raises(InvalidParameterError, match="got shape"):
            BlochVector(2, np.zeros(shape))
        assert BlochVector(2, np.zeros((5, 3))).s.shape == (5, 3)


class TestScalingResidual:
    def test_zero_when_nothing_happens(self):
        rho = QuditOperator(2, np.diag([0.7, 0.3]))
        assert scaling_residual(rho, rho, 2, 2, 2) == 0.0

    def test_textbook_one_to_two_point(self):
        rho_in = QuditOperator(2, np.diag([1.0, 0.0]))
        rho_out = QuditOperator(2, np.diag([5 / 6, 1 / 6]))
        assert scaling_residual(rho_in, rho_out, 2, 1, 2) < 1e-15
        assert scaling_residual_bloch(rho_in, rho_out, 2, 1, 2) < 1e-15

    def test_random_inputs_through_channel(self):
        rng = np.random.default_rng(5)
        for d, m, l in ((2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 2, 3)):
            for _ in range(5):
                x = hermitian_sym_operator(d, m, rng)
                rin = reduce_one(x)
                rout = reduce_one(clone_channel(x, l))
                assert scaling_residual(rin, rout, d, m, l) <= 1e-10
                assert scaling_residual_bloch(rin, rout, d, m, l) <= 1e-10

    def test_perturbed_factor_is_detected(self):
        rng = np.random.default_rng(6)
        x = hermitian_sym_operator(2, 2, rng)
        rin = reduce_one(x)
        rout = reduce_one(clone_channel(x, 4))
        assert scaling_residual(rin, rout, 2, 2, 4, eta_factor=1.01) > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            scaling_residual(
                QuditOperator(2, np.eye(2) / 2), QuditOperator(3, np.eye(3) / 3), 2, 1, 2
            )
