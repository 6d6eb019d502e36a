"""Brute-force ground truth in the full d**n tensor-product space: Werner's
cloner built from the symmetrizer with an explicit ancilla, and literal
partial traces.  It reads no cloning amplitude and no rank of the fast path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .symspace import (
    InvalidParameterError,
    ResourceLimitError,
    SymOperator,
    dim,
    enumerate_basis,
    sym_operator,
)

MEMORY_GUARD = 1 << 20  # complex entries per dense array


def sym_embedding(d: int, m: int) -> np.ndarray:
    """E_m, complex128 (d**m, dim(d, m)): column c is basis vector c on the
    m-site words, site 0 most significant.  Raises ResourceLimitError past
    MEMORY_GUARD entries."""
    n = dim(d, m)
    if d**m * n > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {d}**{m} x {n} embedding exceeds the guard of {MEMORY_GUARD} entries"
        )
    words = np.arange(d**m)
    place = d ** np.arange(m - 1, -1, -1)
    digits = words[:, None] // place % d
    # a word's sorted letters name its multiset, and read in base d they sort
    # the multisets as the basis orders their counts
    _, col = np.unique(np.sort(digits, axis=1) @ place, return_inverse=True)
    out = np.zeros((d**m, n), dtype=np.complex128)
    out[words, col] = 1 / np.sqrt(np.bincount(col))[col]
    return out


def reduce_full_to_site(full: np.ndarray, d: int, n_sites: int, site: int = 0) -> SymOperator:
    """The weight-1 operator of one site of a dense (d**n_sites, d**n_sites)
    operator, or a (B, d, d) stack of a stack.  Raises InvalidParameterError
    for another shape or a site outside [0, n_sites)."""
    size = d**n_sites
    if full.ndim not in (2, 3) or full.shape[-2:] != (size, size):
        raise InvalidParameterError(
            f"expected a {size}x{size} operator or a stack of them, got shape {full.shape}"
        )
    if not 0 <= site < n_sites:
        raise InvalidParameterError(f"site must be in [0, {n_sites}), got {site}")
    before = d**site
    after = d ** (n_sites - 1 - site)
    w = full.reshape(-1, before, d, after, before, d, after)
    return sym_operator(d, 1, np.einsum("zaibajb->zij", w).reshape(*full.shape[:-2], d, d))


@lru_cache(maxsize=1)
def clone_isometry_full(d: int, m: int, l: int) -> np.ndarray:
    """V = sqrt(d[m]/d[l]) (S_l (x) 1)(E_m (x) sum_j |j>|j>), read-only
    (d**(2l-m), dim(d, m)), row w d**(l-m) + j the l-site word w and ancilla
    word j; the last cell's is kept.  Raises InvalidParameterError if l < m
    and ResourceLimitError when d**(2l) exceeds MEMORY_GUARD."""
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


def oracle_clone(op: SymOperator, l: int) -> tuple[np.ndarray, SymOperator]:
    """(dense (d**l, d**l) output, its site-0 reduction) of op, or a stack,
    cloned through clone_isometry_full.  Raises ResourceLimitError, before
    any allocation, past MEMORY_GUARD entries in all."""
    d, n = op.d, op.basis.size
    entries = op.entries.reshape(-1, n, n)
    batch, size = len(entries), d**l
    if batch * size * size > MEMORY_GUARD:
        raise ResourceLimitError(
            f"dense {batch} x {d}**{l} x {d}**{l} output exceeds the guard of "
            f"{MEMORY_GUARD} entries"
        )
    v = clone_isometry_full(d, op.m, l).reshape(size, -1, n)
    # tr_ancilla(V X V*) by contraction, never forming V X V*
    full = (v[None] @ entries[:, None]).reshape(batch, size, v[0].size)
    full = (full @ v.reshape(size, -1).conj().T).reshape(*op.entries.shape[:-2], size, size)
    return full, reduce_full_to_site(full, d, l)


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _kron_power(u: np.ndarray, n: int) -> np.ndarray:
    """u tensored with itself n times, each of a stack apart, as np.kron."""
    lead, d = u.shape[:-2], u.shape[-1]
    out = np.ones((*lead, 1, 1), dtype=np.complex128)
    for _ in range(n):
        k = out.shape[-1] * d
        out = (out[..., :, None, :, None] * u[..., None, :, None, :]).reshape(*lead, k, k)
    return out


def covariance_check(u: SymOperator, op: SymOperator, l: int) -> float | np.ndarray:
    """max |reduce(clone(U op U*)) - u reduce(clone(op)) u*|, U = u on every
    site, by oracle_clone; stacks of B give B.  Raises InvalidParameterError
    for a u not (d, d) of weight 1 or off unitarity by more than 1e-10."""
    d, m = op.d, op.m
    if u.m != 1 or u.d != d:
        raise InvalidParameterError(
            f"expected a {d}x{d} unitary on one site (m = 1), got d={u.d}, m={u.m}"
        )
    w = u.entries
    unitarity = float(np.max(np.abs(_dagger(w) @ w - np.eye(d)), initial=0.0))
    if not unitarity <= 1e-10:  # NaN compares False, so it is refused too
        raise InvalidParameterError(
            f"matrix is not unitary within 1e-10 (deviation {unitarity:.3e})"
        )
    # first, so that its guard on d**(2l) also bounds the d**m rotation
    _, reduced = oracle_clone(op, l)
    s = sym_embedding(d, m)
    u_sym = s.conj().T @ _kron_power(w, m) @ s
    rotated = SymOperator(op.basis, u_sym @ op.entries @ _dagger(u_sym))
    _, lhs = oracle_clone(rotated, l)
    rhs = w @ reduced.entries @ _dagger(w)
    return np.max(np.abs(lhs.entries - rhs), axis=(-2, -1))


def ginibre_sym_operator(
    d: int, m: int, rng: np.random.Generator, count: int | None = None
) -> SymOperator:
    """G G* / tr, G complex Gaussian over the basis of (d, m), or a stack of
    count with the bits of count draws of one."""
    basis = enumerate_basis(d, m)
    g = _gaussian_stack(basis.size, 1 if count is None else count, rng)
    x = g @ _dagger(g)
    x = x / np.trace(x, axis1=1, axis2=2).real[:, None, None]
    return SymOperator(basis, x[0] if count is None else x)


def hermitian_sym_operator(
    d: int, m: int, rng: np.random.Generator, count: int | None = None
) -> SymOperator:
    """H / tr(H), H Gaussian Hermitian with |tr(H)| >= 0.5, or a stack of
    count with the bits, and final rng state, of count draws of one."""
    basis = enumerate_basis(d, m)
    n, total = basis.size, 1 if count is None else count
    out = np.empty((total, n, n), dtype=np.complex128)
    done = 0
    while done < total:
        g = _gaussian_stack(n, total - done, rng)
        h = (g + _dagger(g)) / 2.0
        tr = np.trace(h, axis1=1, axis2=2).real
        keep = np.abs(tr) >= 0.5
        h, tr = h[keep], tr[keep]
        np.divide(h, tr[:, None, None], out=out[done : done + len(tr)])
        done += len(tr)
    return SymOperator(basis, out[0] if count is None else out)


def _gaussian_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count complex Gaussian n x n matrices, each real block then imaginary."""
    z = rng.standard_normal((count, 2, n, n))
    return z[:, 0] + 1j * z[:, 1]


def random_unitary(d: int, rng: np.random.Generator) -> SymOperator:
    """A Haar random (d, d) unitary of weight 1: QR of a complex Ginibre
    matrix, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return sym_operator(d, 1, q * phases)
