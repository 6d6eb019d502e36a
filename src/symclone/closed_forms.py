"""Closed-form shrinking factor and fidelity, plus generalized Bloch vectors.

A single-site operator is a SymOperator of weight 1, as reduce_one returns it.

The single-site reduced output of the cloning channel is the reduced input
contracted toward the maximally mixed state:

    rho_out_red = eta * rho_in_red + (1 - eta)/d * I,   eta = m(l+d) / (l(m+d))

and the matching single-copy fidelity for n -> m cloning of a pure state is
F = (n(m+d) + m - n) / (m(n+d)).  Both are exact rationals here; floating
point appears only at comparison boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .symspace import InvalidParameterError, SymOperator

HERMITIAN_TOL = 1e-9  # max entry deviation bloch_vector allows from Hermiticity


def shrink(d: int, m: int, l: int) -> Fraction:
    """Bloch-vector contraction factor when m symmetric copies become l."""
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if m < 1 or l < m:
        raise InvalidParameterError(f"need l >= m >= 1, got m={m}, l={l}")
    return Fraction(m * (l + d), l * (m + d))


def fidelity(d: int, n: int, m: int) -> Fraction:
    """Single-copy overlap with the input pure state after n -> m cloning.

    Equals (1 + (d-1) * shrink(d, n, m)) / d.
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if n < 1 or m < n:
        raise InvalidParameterError(f"need m >= n >= 1, got n={n}, m={m}")
    return Fraction(n * (m + d) + m - n, m * (n + d))


@lru_cache(maxsize=None)
def generators(d: int) -> np.ndarray:
    """Traceless Hermitian generator set with Tr(t_i t_j) = 2 delta_ij, as
    one read-only (d*d - 1, d, d) array.

    The order is frozen and shared by all file formats: symmetric pair
    matrices (p < q, row-major), then antisymmetric pairs in the same order,
    then diagonal matrices by increasing rank.  For d = 2 this is exactly
    (pauli_x, pauli_y, pauli_z).
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    p, q = np.triu_indices(d, 1)
    pairs, half = np.arange(len(p)), len(p)
    out = np.zeros((d * d - 1, d, d), dtype=np.complex128)
    out[pairs, p, q] = out[pairs, q, p] = 1.0
    out[half + pairs, p, q], out[half + pairs, q, p] = -1.0j, 1.0j
    for r in range(1, d):
        level = np.zeros(d)
        level[:r], level[r] = 1.0, -r
        np.fill_diagonal(out[2 * half + r - 1], np.sqrt(2.0 / (r * (r + 1))) * level)
    out.setflags(write=False)
    return out


def bloch_vector(rho: SymOperator) -> np.ndarray:
    """Components s_i = Tr(rho t_i) of a single-site operator in
    generators(d): a (d*d - 1,) array, or (B, d*d - 1) for a stack.

    rho must have weight 1 and be Hermitian within HERMITIAN_TOL; the
    first operator of a stack that is not is reported.
    """
    d = rho.d
    _require_one_site(rho, d)
    stack = rho.entries.reshape(-1, d, d)
    defects = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    bad = defects > HERMITIAN_TOL
    if bad.any():
        raise InvalidParameterError(
            f"not Hermitian within {HERMITIAN_TOL:g} (max deviation {defects[bad][0]:.3e})"
        )
    # one stacked product; each slice is the same gemm as rho @ t_i alone
    product = stack[:, None] @ generators(d)
    s = np.trace(product, axis1=2, axis2=3).real
    return s.reshape(*rho.entries.shape[:-2], d * d - 1)


def scaling_residual(
    rho_in_red: SymOperator,
    rho_out_red: SymOperator,
    d: int,
    m: int,
    l: int,
    eta_factor: float = 1.0,
) -> float | np.ndarray:
    """Max entrywise deviation of rho_out_red from the contraction law; two
    stacks of reductions give one deviation per pair.

    eta_factor multiplies the closed-form factor; values other than 1.0 are a
    negative-control hook for the verification suites.
    """
    eta = _eta(rho_in_red, rho_out_red, d, m, l, eta_factor)
    target = eta * rho_in_red.entries + (1.0 - eta) / d * np.eye(d)
    return np.max(np.abs(rho_out_red.entries - target), axis=(-2, -1))


def scaling_residual_bloch(
    rho_in_red: SymOperator,
    rho_out_red: SymOperator,
    d: int,
    m: int,
    l: int,
    eta_factor: float = 1.0,
) -> float | np.ndarray:
    """Same contraction law in Bloch components: max_i |s_out_i - eta s_in_i|."""
    eta = _eta(rho_in_red, rho_out_red, d, m, l, eta_factor)
    s_in = bloch_vector(rho_in_red)
    return np.max(np.abs(bloch_vector(rho_out_red) - eta * s_in), axis=-1)


def _eta(
    rho_in: SymOperator, rho_out: SymOperator, d: int, m: int, l: int, factor: float
) -> float:
    _require_one_site(rho_in, d)
    _require_one_site(rho_out, d)
    return float(shrink(d, m, l)) * factor


def _require_one_site(rho: SymOperator, d: int) -> None:
    if rho.m != 1 or rho.d != d:
        raise InvalidParameterError(
            f"expected a single-site {d}x{d} operator (m = 1), got d={rho.d}, m={rho.m}"
        )
