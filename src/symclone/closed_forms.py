"""Exact closed forms, eta = m(l+d) / (l(m+d)) of the contraction law
rho_out_red = eta rho_in_red + (1 - eta)/d I and the fidelity, and Bloch
vectors of single-site (weight-1) operators."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .symspace import InvalidParameterError, SymOperator, require_hermitian, require_room


def shrink(d: int, m: int, l: int) -> Fraction:
    """eta.  Raises InvalidParameterError unless d >= 2 and l >= m >= 1."""
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if m < 1 or l < m:
        raise InvalidParameterError(f"need l >= m >= 1, got m={m}, l={l}")
    return Fraction(m * (l + d), l * (m + d))


def fidelity(d: int, n: int, m: int) -> Fraction:
    """Single-copy fidelity (n(m+d) + m - n) / (m(n+d)) of n -> m cloning of
    a pure state.  Raises InvalidParameterError unless d >= 2, m >= n >= 1."""
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if n < 1 or m < n:
        raise InvalidParameterError(f"need m >= n >= 1, got n={n}, m={m}")
    return Fraction(n * (m + d) + m - n, m * (n + d))


@lru_cache(maxsize=None)
def generators(d: int) -> np.ndarray:
    """Traceless Hermitian t_i, Tr(t_i t_j) = 2 delta_ij, as a cached read-only
    (d*d - 1, d, d) complex128 array in a frozen order: symmetric pairs
    (p < q), antisymmetric pairs, then diagonals; Paulis x, y, z at d = 2.
    Raises InvalidParameterError for d < 2, and ResourceLimitError, before
    any allocation, past 4 * ENTRY_GUARD entries."""
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    require_room((d * d - 1) * d * d, "generator stack", times=4)
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
    """float64 s_i = Tr(rho t_i), (d*d - 1,) or (B, d*d - 1).  Raises
    InvalidParameterError unless rho has weight 1 and is Hermitian, and
    ResourceLimitError, first, past 4 * ENTRY_GUARD product entries."""
    d = rho.d
    _require_one_site(rho, d)
    stack = rho.entries.reshape(-1, d, d)
    require_room(len(stack) * (d * d - 1) * d * d, "Bloch product", times=4)
    require_hermitian(stack)
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
    """Max entry deviation of rho_out_red from the law, or one per pair of
    stacks; eta_factor scales eta as a negative control.  Raises
    InvalidParameterError unless both are (d, d) operators of weight 1."""
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
    """max_i |s_out_i - eta s_in_i|, with bloch_vector's refusals too."""
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
