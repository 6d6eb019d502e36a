"""Brute-force reference computations in the full d**n tensor-product space.

Ground truth for the symmetric-basis fast path: symmetrized state vectors,
Werner's cloner built from the symmetrizer with an explicit ancilla, and
literal partial traces.  It reads no cloning amplitude.  Deliberately
unoptimized; instances whose dense objects would exceed the memory guard are
refused rather than swapped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .symspace import (
    InvalidParameterError,
    QuditOperator,
    ResourceLimitError,
    SymOperator,
    dim,
    enumerate_basis,
)

MEMORY_GUARD = 1 << 20  # complex entries per dense array


def sym_embedding(d: int, m: int) -> np.ndarray:
    """Matrix whose columns are the symmetrized basis vectors of (d, m).

    Row w is the m-site word w, site 0 most significant.  A word's letters
    in ascending order name its multiset, and read as a base-d number they
    sort the multisets as the basis orders their counts (lexicographically
    decreasing), so sorting the distinct keys places every word in its
    column without the fast path's rank formula.  Its amplitude is 1/sqrt
    of that column's word count.  At m = 0 the empty word spans the space.
    """
    n = dim(d, m)
    if d**m * n > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {d}**{m} x {n} embedding exceeds the guard of {MEMORY_GUARD} entries"
        )
    words = np.arange(d**m)
    place = d ** np.arange(m - 1, -1, -1)
    digits = words[:, None] // place % d
    _, col = np.unique(np.sort(digits, axis=1) @ place, return_inverse=True)
    out = np.zeros((d**m, n), dtype=np.complex128)
    out[words, col] = 1 / np.sqrt(np.bincount(col))[col]
    return out


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


@lru_cache(maxsize=1)
def clone_isometry_full(d: int, m: int, l: int) -> np.ndarray:
    """Stinespring isometry of Werner's cloner, (l sites) tensor (ancilla).

    V = sqrt(d[m]/d[l]) (S_l tensor 1)(E_m tensor |Omega>), where S_l is the
    symmetrizer on l sites, E_m = sym_embedding(d, m) and |Omega> = sum_j
    |j>|j> over the l - m extra sites.  Row w * d**(l-m) + j is l-site word w
    and ancilla word j.  No cloning amplitude is read: the fast path's table
    is checked against this, not built into it.

    The isometry of the last cell asked for is kept, read-only, so a walk
    over a grid builds each cell once; one entry stays within the guard.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    # bounds S_l, V (d**(2l-m) * dim(d, m) <= d**(2l) entries) and the oracle's
    # full output alike
    if d ** (2 * l) > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {d}**{l} x {d}**{l} operators exceed the guard of {MEMORY_GUARD} entries"
        )
    e_l = sym_embedding(d, l)
    e_m = sym_embedding(d, m)
    s = (e_l @ e_l.conj().T).reshape(d**l, d**m, d ** (l - m))
    v = np.einsum("wuj,uc->wjc", s, e_m) * math.sqrt(dim(d, m) / dim(d, l))
    v = v.reshape(-1, e_m.shape[1])
    v.setflags(write=False)
    return v


def oracle_clone(op: SymOperator, l: int, site: int = 0) -> tuple[np.ndarray, QuditOperator]:
    """Clone through the explicit isometry; trace out ancilla, then sites.

    Returns the dense operator on all l sites and its single-site reduction.
    The reduction is independent of which site is kept.
    """
    d = op.d
    size = d**l
    v = clone_isometry_full(d, op.m, l).reshape(size, -1, op.basis.size)
    # tr_ancilla(V X V*) by contraction, never forming V X V*
    full = (v @ op.entries).reshape(size, -1) @ v.reshape(size, -1).conj().T
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
    # first, so that its guard on d**(2l) also bounds the d**m rotation
    _, reduced = oracle_clone(op, l)
    s = sym_embedding(d, m)
    u_sym = s.conj().T @ _kron_power(u.entries, m) @ s
    rotated = SymOperator(op.basis, u_sym @ op.entries @ u_sym.conj().T)
    _, lhs = oracle_clone(rotated, l)
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
