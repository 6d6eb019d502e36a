"""Brute-force reference computations in the full d**n tensor-product space.

Ground truth for the symmetric-basis fast path: symmetrized state vectors,
the cloning isometry built explicitly with its ancilla, and literal partial
traces.  Deliberately unoptimized; instances whose dense objects would exceed
the memory guard are refused rather than swapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import clone_amplitudes
from .symspace import (
    Composition,
    InvalidParameterError,
    QuditOperator,
    ResourceLimitError,
    SymOperator,
    dim,
    enumerate_basis,
    multinomial,
)

MEMORY_GUARD = 1 << 20  # complex amplitudes per vector


@dataclass(frozen=True, eq=False)
class FullVector:
    """State vector on n_sites qudits, site 0 most significant."""

    d: int
    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=np.complex128)
        expected = self.d**self.n_sites
        if amplitudes.shape != (expected,):
            raise InvalidParameterError(
                f"expected {expected} amplitudes, got shape {amplitudes.shape}"
            )
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)


def _word_indices(counts, d: int, m: int) -> list[int]:
    # every distinct arrangement of the letter multiset, as a basis index
    out: list[int] = []
    remaining = list(counts)

    def rec(pos: int, prefix: int):
        if pos == m:
            out.append(prefix)
            return
        for level in range(d):
            if remaining[level]:
                remaining[level] -= 1
                rec(pos + 1, prefix * d + level)
                remaining[level] += 1

    rec(0, 0)
    return out


def sym_vector(c: Composition) -> FullVector:
    """Equal-amplitude superposition over all distinct orderings of c, unit norm."""
    m = c.weight
    if m < 1:
        raise InvalidParameterError("symmetrized vector needs at least one particle")
    d = c.d
    size = d**m
    if size > MEMORY_GUARD:
        raise ResourceLimitError(
            f"d**m = {size} amplitudes exceeds the guard of {MEMORY_GUARD}"
        )
    amplitudes = np.zeros(size, dtype=np.complex128)
    amplitudes[_word_indices(c.counts, d, m)] = 1.0 / math.sqrt(multinomial(c))
    return FullVector(d, m, amplitudes)


def sym_embedding(d: int, m: int) -> np.ndarray:
    """Matrix whose columns are the symmetrized basis vectors of (d, m)."""
    basis = enumerate_basis(d, m)
    return np.column_stack([sym_vector(c).amplitudes for c in basis.order])


def reduce_full_to_site(full: np.ndarray, d: int, n_sites: int, site: int = 0) -> QuditOperator:
    """Trace a dense d**n x d**n operator down to a single site."""
    size = d**n_sites
    if full.shape != (size, size):
        raise InvalidParameterError(
            f"expected a {size}x{size} operator, got shape {full.shape}"
        )
    if not 0 <= site < n_sites:
        raise InvalidParameterError(f"site must be in [0, {n_sites}), got {site}")
    before = d**site
    after = d ** (n_sites - 1 - site)
    w = full.reshape(before, d, after, before, d, after)
    return QuditOperator(d, np.einsum("aibajb->ij", w))


def clone_isometry_full(d: int, m: int, l: int) -> np.ndarray:
    """Explicit cloning isometry into (l sites) tensor (ancilla).

    Column a is sum_k alpha(a, k) sym_vector(a + k) tensor e_k, with the
    ancilla realized as abstract standard-basis vectors indexed by added
    compositions.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    basis_in = enumerate_basis(d, m)
    added = enumerate_basis(d, l - m)
    out_dim = d**l * added.size
    if out_dim > MEMORY_GUARD:
        raise ResourceLimitError(
            f"output vectors need {out_dim} amplitudes, guard is {MEMORY_GUARD}"
        )
    # looked up by position, not index_of, so the oracle shares no rank code
    alpha = np.sqrt(clone_amplitudes(d, m, l).squared())
    v = np.zeros((out_dim, basis_in.size), dtype=np.complex128)
    for ia, a in enumerate(basis_in.order):
        col = np.zeros((d**l, added.size), dtype=np.complex128)
        for ik, k in enumerate(added.order):
            col[:, ik] = alpha[ia, ik] * sym_vector(a.add(k)).amplitudes
        v[:, ia] = col.reshape(-1)
    return v


def oracle_clone(op: SymOperator, l: int, site: int = 0) -> tuple[np.ndarray, QuditOperator]:
    """Clone through the explicit isometry; trace out ancilla, then sites.

    Returns the dense operator on all l sites and its single-site reduction.
    The reduction is independent of which site is kept.
    """
    d, m = op.d, op.m
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    size = d**l
    if size * size > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {size}x{size} output exceeds the guard of {MEMORY_GUARD} entries"
        )
    v = clone_isometry_full(d, m, l)
    with_ancilla = v @ op.entries @ v.conj().T
    n_anc = dim(d, l - m)
    w = with_ancilla.reshape(size, n_anc, size, n_anc)
    full = np.einsum("atbt->ab", w)
    return full, reduce_full_to_site(full, d, l, site)


def _kron_power(u: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        out = np.kron(out, u)
    return out


def covariance_check(u: QuditOperator, op: SymOperator, l: int) -> float:
    """Deviation from single-site covariance under a local unitary.

    Compares reduce(clone(U op U*)) against u reduce(clone(op)) u*, where U
    is u applied to every site, restricted to the symmetric subspace; both
    sides are computed through the full-space construction.
    """
    d, m = op.d, op.m
    if u.d != d:
        raise InvalidParameterError(f"unitary is {u.d}x{u.d} but the operator has d={d}")
    unitarity = float(
        np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(d)))
    )
    if unitarity > 1e-10:
        raise InvalidParameterError(
            f"matrix is not unitary within 1e-10 (deviation {unitarity:.3e})"
        )
    size = d**m
    if size * size > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {size}x{size} site-local unitary exceeds the guard"
        )
    s = sym_embedding(d, m)
    u_sym = s.conj().T @ _kron_power(u.entries, m) @ s
    rotated = SymOperator(op.basis, u_sym @ op.entries @ u_sym.conj().T)
    _, lhs = oracle_clone(rotated, l)
    _, reduced = oracle_clone(op, l)
    rhs = u.entries @ reduced.entries @ u.entries.conj().T
    return float(np.max(np.abs(lhs.entries - rhs)))


def ginibre_sym_operator(d: int, m: int, rng: np.random.Generator) -> SymOperator:
    """Random PSD trace-1 operator: G G* normalized, G complex Gaussian."""
    basis = enumerate_basis(d, m)
    n = basis.size
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = g @ g.conj().T
    return SymOperator(basis, x / np.trace(x).real)


def hermitian_sym_operator(d: int, m: int, rng: np.random.Generator) -> SymOperator:
    """Random trace-1 Hermitian operator, generically with negative eigenvalues.

    Built as H / tr(H) from a Gaussian Hermitian H; draws with |tr(H)| < 0.5
    are discarded to keep the normalization well-scaled, so the result is
    still a deterministic function of the generator state.
    """
    basis = enumerate_basis(d, m)
    n = basis.size
    while True:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        tr = np.trace(h).real
        if abs(tr) >= 0.5:
            return SymOperator(basis, h / tr)


def random_unitary(d: int, rng: np.random.Generator) -> QuditOperator:
    """Haar-ish random unitary: QR of a complex Ginibre matrix, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return QuditOperator(d, q * phases)
