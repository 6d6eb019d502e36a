"""Closed-form shrinking factor and fidelity, plus generalized Bloch vectors.

The single-site reduced output of the cloning channel is the reduced input
contracted toward the maximally mixed state:

    rho_out_red = eta * rho_in_red + (1 - eta)/d * I,   eta = m(l+d) / (l(m+d))

and the matching single-copy fidelity for n -> m cloning of a pure state is
F = (n(m+d) + m - n) / (m(n+d)).  Both are exact rationals here; floating
point appears only at comparison boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .symspace import InvalidParameterError, QuditOperator


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
def generators(d: int) -> tuple[QuditOperator, ...]:
    """Traceless Hermitian generator set with Tr(t_i t_j) = 2 delta_ij.

    The order is frozen and shared by all file formats: symmetric pair
    matrices (p < q, row-major), then antisymmetric pairs in the same order,
    then diagonal matrices by increasing rank.  For d = 2 this is exactly
    (pauli_x, pauli_y, pauli_z).
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    out = []
    for p in range(d):
        for q in range(p + 1, d):
            g = np.zeros((d, d), dtype=np.complex128)
            g[p, q] = 1.0
            g[q, p] = 1.0
            out.append(g)
    for p in range(d):
        for q in range(p + 1, d):
            g = np.zeros((d, d), dtype=np.complex128)
            g[p, q] = -1.0j
            g[q, p] = 1.0j
            out.append(g)
    for r in range(1, d):
        g = np.zeros((d, d), dtype=np.complex128)
        for i in range(r):
            g[i, i] = 1.0
        g[r, r] = -r
        out.append(np.sqrt(2.0 / (r * (r + 1))) * g)
    return tuple(QuditOperator(d, g) for g in out)


@lru_cache(maxsize=None)
def _generator_stack(d: int) -> np.ndarray:
    """generators(d) as one read-only (d*d - 1, d, d) array."""
    stack = np.stack([g.entries for g in generators(d)])
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coefficients of a qudit operator in the fixed generator set:
    d*d - 1 of them, or a (B, d*d - 1) stack for a stack of operators."""

    d: int
    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=np.float64)
        expected = self.d * self.d - 1
        if s.ndim not in (1, 2) or s.shape[-1:] != (expected,):
            raise InvalidParameterError(
                f"expected {expected} components for d={self.d}, or a stack of them, "
                f"got shape {s.shape}"
            )
        s.setflags(write=False)
        object.__setattr__(self, "s", s)


def bloch_vector(rho: QuditOperator, tol: float = 1e-9) -> BlochVector:
    """Components s_i = Tr(rho t_i); rho must be Hermitian within tol.

    A stack of operators gives a stack of components, and the first
    operator that is not Hermitian is reported.
    """
    d = rho.d
    stack = rho.entries.reshape(-1, d, d)
    defects = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    bad = defects > tol
    if bad.any():
        raise InvalidParameterError(
            f"not Hermitian within {tol:g} (max deviation {defects[bad][0]:.3e})"
        )
    # one stacked product; each slice is the same gemm as rho @ t_i alone
    product = stack[:, None] @ _generator_stack(d)
    s = np.trace(product, axis1=2, axis2=3).real
    return BlochVector(d, s.reshape(*rho.entries.shape[:-2], d * d - 1))


def scaling_residual(
    rho_in_red: QuditOperator,
    rho_out_red: QuditOperator,
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
    rho_in_red: QuditOperator,
    rho_out_red: QuditOperator,
    d: int,
    m: int,
    l: int,
    eta_factor: float = 1.0,
) -> float | np.ndarray:
    """Same contraction law in Bloch components: max_i |s_out_i - eta s_in_i|."""
    eta = _eta(rho_in_red, rho_out_red, d, m, l, eta_factor)
    s_in = bloch_vector(rho_in_red).s
    s_out = bloch_vector(rho_out_red).s
    return np.max(np.abs(s_out - eta * s_in), axis=-1)


def _eta(
    rho_in: QuditOperator, rho_out: QuditOperator, d: int, m: int, l: int, factor: float
) -> float:
    if rho_in.d != d or rho_out.d != d:
        raise InvalidParameterError(
            f"dimension mismatch: expected {d}x{d} operators, got {rho_in.d} and {rho_out.d}"
        )
    return float(shrink(d, m, l)) * factor
