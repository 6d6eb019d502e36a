from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from symclone.closed_forms import (
    bloch_vector,
    fidelity,
    generators,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from symclone.cloner import clone_channel, uqcm_pure_output
from symclone.oracle import hermitian_sym_operator
from symclone.symspace import InvalidParameterError, reduce_one, sym_operator

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


def loop_generators(d):
    """The frozen generator order, one matrix at a time."""
    out = []
    for p in range(d):
        for q in range(p + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[p, q] = g[q, p] = 1.0
            out.append(g)
    for p in range(d):
        for q in range(p + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[p, q], g[q, p] = -1.0j, 1.0j
            out.append(g)
    for r in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[range(r), range(r)] = 1.0
        g[r, r] = -r
        out.append(np.sqrt(2.0 / (r * (r + 1))) * g)
    return np.stack(out)


class TestGenerators:
    def test_match_a_loop_over_the_frozen_order_bit_for_bit(self):
        for d in range(2, 9):
            assert generators(d).tobytes() == loop_generators(d).tobytes()

    def test_qubit_generators_are_paulis_in_order(self):
        x, y, z = generators(2)
        np.testing.assert_array_equal(x, PAULI_X)
        np.testing.assert_array_equal(y, PAULI_Y)
        np.testing.assert_array_equal(z, PAULI_Z)

    def test_orthonormality_qutrit(self):
        gens = generators(3)
        assert gens.shape == (8, 3, 3) and not gens.flags.writeable
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                product = np.trace(gi @ gj)
                assert abs(product - (2.0 if i == j else 0.0)) < 1e-13

    def test_traceless_and_hermitian_up_to_six_levels(self):
        for d in range(2, 7):
            gens = generators(d)
            assert len(gens) == d * d - 1
            for g in gens:
                assert abs(np.trace(g)) < 1e-13
                assert np.max(np.abs(g - g.conj().T)) < 1e-13


class TestBlochRoundTrip:
    def test_maximally_mixed_is_origin(self):
        for d in (2, 3, 4):
            s = bloch_vector(sym_operator(d, 1, np.eye(d) / d))
            np.testing.assert_allclose(s, np.zeros(d * d - 1), atol=1e-15)

    def test_qubit_level_zero(self):
        s = bloch_vector(sym_operator(2, 1, np.diag([1.0, 0.0])))
        np.testing.assert_allclose(s, [0.0, 0.0, 1.0], atol=1e-15)
        stack = bloch_vector(sym_operator(2, 1, [np.diag([1.0, 0.0])] * 5))
        assert s.shape == (3,) and stack.tobytes() == np.stack([s] * 5).tobytes()

    def test_qutrit_level_zero_hits_diagonal_components(self):
        s = bloch_vector(sym_operator(3, 1, np.diag([1.0, 0.0, 0.0])))
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
        rho = sym_operator(d, 1, h)
        # identity/d + (1/2) sum_i s_i t_i reassembles rho
        back = np.eye(d) / d
        for si, t in zip(bloch_vector(rho), generators(d)):
            back = back + 0.5 * si * t
        np.testing.assert_allclose(back, rho.entries, atol=1e-12)

    def test_matches_per_generator_traces_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for d in range(2, 7):
            for _ in range(20):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = sym_operator(d, 1, (g + g.conj().T) / 2)
                loop = np.array(
                    [np.trace(rho.entries @ t).real for t in generators(d)]
                )
                assert bloch_vector(rho).tobytes() == loop.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameterError):
            bloch_vector(sym_operator(2, 1, np.array([[0.5, 1.0], [0.0, 0.5]])))

    def test_a_stack_with_one_non_hermitian_draw_is_rejected(self):
        # the scaling suite checks each case's reductions as one stack
        rho = np.stack([np.eye(2) / 2, [[0.5, 1.0], [0.0, 0.5]], np.diag([1.0, 0.0])])
        with pytest.raises(InvalidParameterError, match="not Hermitian"):
            scaling_residual_bloch(
                sym_operator(2, 1, rho[[0, 2, 0]]), sym_operator(2, 1, rho), 2, 1, 2
            )
        with pytest.raises(InvalidParameterError, match="max deviation 1.000e\\+00"):
            bloch_vector(sym_operator(2, 1, rho))


class TestScalingResidual:
    def test_zero_when_nothing_happens(self):
        rho = sym_operator(2, 1, np.diag([0.7, 0.3]))
        assert scaling_residual(rho, rho, 2, 2, 2) == 0.0

    def test_textbook_one_to_two_point(self):
        rho_in = sym_operator(2, 1, np.diag([1.0, 0.0]))
        rho_out = sym_operator(2, 1, np.diag([5 / 6, 1 / 6]))
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

    def test_an_operator_on_two_sites_is_refused(self):
        # the reductions are operators of weight 1; nothing else has a Bloch vector
        one = sym_operator(2, 1, np.eye(2) / 2)
        two = sym_operator(2, 2, np.eye(3) / 3)
        for rho_in, rho_out in ((two, one), (one, two)):
            for residual in (scaling_residual, scaling_residual_bloch):
                with pytest.raises(InvalidParameterError, match="single-site"):
                    residual(rho_in, rho_out, 2, 1, 2)
        with pytest.raises(InvalidParameterError, match="single-site"):
            bloch_vector(two)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            scaling_residual(
                sym_operator(2, 1, np.eye(2) / 2), sym_operator(3, 1, np.eye(3) / 3), 2, 1, 2
            )
