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
    SymBasis,
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
    return QuditOperator(d, _site_traces(full[None], d, n_sites, site)[0])


def _site_traces(full: np.ndarray, d: int, n_sites: int, site: int) -> np.ndarray:
    """The (B, d, d) single-site traces of a (B, d**n, d**n) stack."""
    if not 0 <= site < n_sites:
        raise InvalidParameterError(f"site must be in [0, {n_sites}), got {site}")
    before = d**site
    after = d ** (n_sites - 1 - site)
    w = full.reshape(len(full), before, d, after, before, d, after)
    return np.einsum("zaibajb->zij", w)


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


def oracle_stack(
    basis: SymBasis, entries: np.ndarray, l: int, site: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Clone a (B, N, N) stack of operators over basis through the explicit
    isometry; trace out ancilla, then sites.

    Returns the (B, d**l, d**l) dense operators on all l sites and their
    (B, d, d) single-site reductions, which are independent of the site
    kept.  Refused, before anything is allocated, if the outputs exceed
    MEMORY_GUARD entries in all.
    """
    d, batch = basis.d, len(entries)
    size = d**l
    if batch * size * size > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {batch} x {d}**{l} x {d}**{l} output exceeds the guard of "
            f"{MEMORY_GUARD} entries"
        )
    v = clone_isometry_full(d, basis.m, l).reshape(size, -1, basis.size)
    # tr_ancilla(V X V*) by contraction, never forming V X V*
    full = (v[None] @ entries[:, None]).reshape(batch, size, v[0].size)
    full = full @ v.reshape(size, -1).conj().T
    return full, _site_traces(full, d, l, site)


def oracle_clone(op: SymOperator, l: int, site: int = 0) -> tuple[np.ndarray, QuditOperator]:
    """Clone one operator through the explicit isometry: oracle_stack with a
    stack of one.  Returns the dense operator on all l sites and its
    single-site reduction."""
    full, reduced = oracle_stack(op.basis, op.entries[None], l, site)
    return full[0], QuditOperator(op.d, reduced[0])


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


def ginibre_stack(d: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random PSD trace-1 operators over the basis of (d, m), as a
    (count, N, N) array: G G* normalized, G complex Gaussian.

    One standard_normal call fills every draw's real block, then its
    imaginary block, so the stack holds the bits of count draws of one,
    taken in turn from the same generator.
    """
    g = _gaussian_stack(dim(d, m), count, rng)
    x = g @ g.conj().swapaxes(1, 2)
    return x / np.trace(x, axis1=1, axis2=2).real[:, None, None]


def ginibre_sym_operator(d: int, m: int, rng: np.random.Generator) -> SymOperator:
    """Random PSD trace-1 operator: ginibre_stack with a stack of one."""
    return SymOperator(enumerate_basis(d, m), ginibre_stack(d, m, 1, rng)[0])


def hermitian_stack(d: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random trace-1 Hermitian operators over the basis of (d, m), as
    a (count, N, N) array, generically with negative eigenvalues.

    Each is H / tr(H) from a Gaussian Hermitian H; candidates with
    |tr(H)| < 0.5 are discarded to keep the normalization well-scaled.
    Each round draws only as many candidates as draws are still missing,
    so no candidate past the last kept one is drawn, and the stack and the
    generator's final state are those of count draws of one.
    """
    n = dim(d, m)
    out = np.empty((count, n, n), dtype=np.complex128)
    done = 0
    while done < count:
        g = _gaussian_stack(n, count - done, rng)
        h = (g + g.conj().swapaxes(1, 2)) / 2.0
        tr = np.trace(h, axis1=1, axis2=2).real
        keep = np.abs(tr) >= 0.5
        h, tr = h[keep], tr[keep]
        np.divide(h, tr[:, None, None], out=out[done : done + len(tr)])
        done += len(tr)
    return out


def hermitian_sym_operator(d: int, m: int, rng: np.random.Generator) -> SymOperator:
    """Random trace-1 Hermitian operator: hermitian_stack with a stack of one."""
    return SymOperator(enumerate_basis(d, m), hermitian_stack(d, m, 1, rng)[0])


def _gaussian_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count complex Gaussian n x n matrices, each real block then imaginary."""
    z = rng.standard_normal((count, 2, n, n))
    return z[:, 0] + 1j * z[:, 1]


def random_unitary(d: int, rng: np.random.Generator) -> QuditOperator:
    """Haar-ish random unitary: QR of a complex Ginibre matrix, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return QuditOperator(d, q * phases)
