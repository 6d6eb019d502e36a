"""Exact cloning amplitudes and the channel T(X) = (d[m]/d[l]) S_l (X (x) 1) S_l
from weight m to l >= m (R. F. Werner, PRA 58, 1827 (1998))."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .symspace import (
    AMPLITUDE_GUARD,
    InvalidParameterError,
    ResourceLimitError,
    SymBasis,
    SymOperator,
    basis_projector,
    enumerate_basis,
    guarded_dims,
    pascal,
    sum_ranks,
)

DENSE_GUARD = 1 << 22  # complex entries of a dense channel output (64 MiB)
BLOCK_TERMS = 1 << 14  # terms per block of the dense view, the Gram matrix and the reduced map


def _prefactor(d: int, m: int, l: int) -> Fraction:
    # (l-m)! (m+d-1)! / (l+d-1)! is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    return Fraction(1, math.comb(l + d - 1, l - m))


@dataclass(frozen=True, eq=False)
class CloneAmplitudes:
    """Exact amplitudes of (d, m, l): alpha^2 of the i-th input and t-th
    added composition is prefactor * occupancy[i, t], prefactor =
    1 / C(l+d-1, l-m).  occupancy, read-only (n_in, K), holds the integers
    prod_p C(j_p + k_p, k_p); its rows sum to prefactor's denominator, and
    it is int64 while that is below 2**53, else Python ints."""

    d: int
    m: int
    l: int
    occupancy: np.ndarray
    prefactor: Fraction

    def _squared(self, columns: slice = slice(None)) -> np.ndarray:
        """float64 alpha^2 of the given columns, with float(prefactor *
        occupancy)'s bits."""
        # int / int and a division of exact doubles are both correctly rounded
        squared = self.occupancy[:, columns] / self.prefactor.denominator
        return squared.astype(np.float64, copy=False)

    @cached_property
    def plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (n_in, K) arrays: idx, int64, the output rank of
        a + k_t, distinct within a column, and v, float64, alpha(a, k_t)."""
        d, m, l = self.d, self.m, self.l
        v = np.sqrt(self._squared())
        added = enumerate_basis(d, l - m).counts
        idx = sum_ranks(enumerate_basis(d, m).counts, added, l)
        idx.setflags(write=False)
        v.setflags(write=False)
        return idx, v

    @cached_property
    def reduced_map(self) -> tuple[np.ndarray, np.ndarray]:
        """reduce_one after the channel, l >= 1, as read-only complex128
        weights (imaginary parts +0.0) on the input's diagonal and hops,
        W_diag[i, a] = sum_t alpha(a, k_t)^2 (a_i + k_t,i) / l, (d, dim(d, m)),
        and W_hop[j, r] = sum_t alpha(u + e_p, k_t) alpha(u + e_q, k_t)
        sqrt((u_p + k_t,p + 1)(u_q + k_t,q + 1)) / l, (d(d-1), dim(d, m-1)),
        u the r-th composition of weight m - 1 and (p, q) the j-th move.
        Dyads two or more hops apart reduce to 0 (M. Keyl and R. F. Werner,
        J. Math. Phys. 40, 3283 (1999)).  The bits do not depend on BLAS.
        """
        d, m, l = self.d, self.m, self.l
        inputs = enumerate_basis(d, m)
        added = enumerate_basis(d, l - m).counts
        n_in, k = self.occupancy.shape
        ranks = inputs.hop_ranks
        n_u = ranks.shape[1]
        # the unordered pairs (a, b), a < b, run by a, then b: pair (a, b)
        # is firsts[a] + b - a - 1, and level a's pairs are one slice
        firsts = [a * (2 * d - a - 1) // 2 for a in range(d)]
        w_diag = np.zeros((d, n_in))
        diagonal_sums = np.empty_like(w_diag)
        pairs = np.zeros((firsts[-1], n_u))
        sums = np.empty_like(pairs)
        width = min(max(1, BLOCK_TERMS // n_in), k)
        # reused: a block's C-contiguous prefixes sum as a fresh block's arrays
        terms_buffer, g_buffer, products_buffer = (
            np.empty(rows * width) for rows in (n_in, d * n_u, (d - 1) * n_u)
        )
        for start in range(0, k, width):
            block = slice(start, start + width)
            w = min(width, k - start)
            terms = terms_buffer[: n_in * w].reshape(n_in, w)
            g = g_buffer[: d * n_u * w].reshape(d, n_u, w)
            products = products_buffer[: (d - 1) * n_u * w].reshape(d - 1, n_u, w)
            squared = self._squared(block)
            for i in range(d):
                np.add(inputs.counts[:, i, None], added[block, i], out=terms)
                np.multiply(terms, squared, out=terms)
                terms.sum(axis=-1, out=diagonal_sums[i])
                # mode "raise" would copy out; every row is in range
                np.take(terms, ranks[i], axis=0, out=g[i], mode="clip")
            w_diag += diagonal_sums
            np.sqrt(g, out=g)
            for a in range(d - 1):
                product = np.multiply(g[a], g[a + 1 :], out=products[: d - 1 - a])
                product.sum(axis=-1, out=sums[firsts[a] : firsts[a + 1]])
            pairs += sums
        # both moves of an unordered pair read its one sum
        lo, hi = np.sort(inputs.moves, axis=0)
        w_hop = pairs[np.array(firsts)[lo] + hi - lo - 1]
        # numpy has no float-by-complex loop: reduce_one would cast on every call
        w_diag, w_hop = ((a / l).astype(np.complex128) for a in (w_diag, w_hop))
        for a in (w_diag, w_hop):
            a.setflags(write=False)
        return w_diag, w_hop


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """The CloneAmplitudes of (d, m, l), cached.  Raises
    InvalidParameterError if l < m or (d, m) has no basis, and, before
    anything is enumerated, ResourceLimitError for a table of more than
    AMPLITUDE_GUARD entries or 8 * AMPLITUDE_GUARD entries times levels."""
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    n_table = guarded_dims(d, m, l - m)
    if n_table is None or n_table > AMPLITUDE_GUARD or n_table * d > 8 * AMPLITUDE_GUARD:
        raise ResourceLimitError(
            f"amplitude table exceeds the guard of {AMPLITUDE_GUARD} exact entries "
            f"or {8 * AMPLITUDE_GUARD} entries times levels"
        )
    prefactor = _prefactor(d, m, l)
    # no entry exceeds the row total, so int64 is exact below 2**53
    dtype = np.int64 if prefactor.denominator < 2**53 else object
    # C(j_p + k_p, k_p) sits at [j_p, k_p]: an input's row, then the added columns
    binom = pascal(m + 1, l - m + 1, dtype)
    inputs = enumerate_basis(d, m).counts
    added = enumerate_basis(d, l - m).counts
    occupancy = binom[inputs[:, 0]].take(added[:, 0], axis=1)
    # a level multiplies by C(j_p + k_p, k_p) != 1 only where some input and
    # some added composition both fill it; a positive weight fills every
    # level (its all-in-one-level composition), and a zero weight none
    levels = range(1, d if 0 < m < l else 1)
    factor = np.empty_like(occupancy) if levels else None
    for p in levels:
        # mode "raise" would copy out; every column is in range
        binom[inputs[:, p]].take(added[:, p], axis=1, out=factor, mode="clip")
        occupancy *= factor
    occupancy.setflags(write=False)
    return CloneAmplitudes(d=d, m=m, l=l, occupancy=occupancy, prefactor=prefactor)


class CloneOutput(SymOperator):
    """clone_channel's output of weight l: its source, never a clone
    output, and its table, cell.  basis and entries are built on first
    read; reduce_one reads cell.reduced_map and builds nothing at weight l."""

    def __init__(self, source: SymOperator, cell: CloneAmplitudes):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "cell", cell)

    @cached_property
    def basis(self) -> SymBasis:
        return enumerate_basis(self.cell.d, self.cell.l)

    @property
    def d(self) -> int:
        return self.cell.d

    @property
    def m(self) -> int:
        return self.cell.l

    def __repr__(self) -> str:
        return f"CloneOutput(d={self.d}, m={self.source.m}, l={self.m})"

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense read-only complex128 (dim(d, l), dim(d, l)) output, or
        (B, ., .), each entry's terms added in t order onto +0.0.  Raises
        ResourceLimitError, before any allocation, past DENSE_GUARD in all."""
        lead, n_out = self.source.entries.shape[:-2], self.basis.size
        batch = math.prod(lead)
        if batch * n_out * n_out > DENSE_GUARD:
            raise ResourceLimitError(
                f"dense {batch} x {n_out}x{n_out} output exceeds the guard of {DENSE_GUARD} entries"
            )
        idx, v = self.cell.plan
        n_in, k = idx.shape
        y = np.zeros(batch * n_out * n_out, dtype=np.complex128)
        x = self.source.entries.reshape(batch, n_in, n_in)
        rows = max(1, BLOCK_TERMS // max(batch * n_in, 1))
        # rows taken t-major, so one 1-D np.add.at adds an entry's terms in t order
        for start in range(0, k * n_in, rows):
            t, a = np.divmod(np.arange(start, min(start + rows, k * n_in)), n_in)
            # (v_t v_t^T * x)[a], one buffer per factor
            pair = v.T[t]
            np.multiply(v[a, t, None], pair, out=pair)
            terms = x[:, a]
            np.multiply(pair, terms, out=terms)
            targets = idx.T[t]
            targets += idx[a, t, None] * n_out
            if batch != 1:  # one 1-D scatter: each operator offset by its place in the stack
                targets = targets + np.arange(0, y.size, n_out * n_out)[:, None, None]
            np.add.at(y, targets.ravel(), terms.ravel())
        y = y.reshape(*lead, n_out, n_out)
        y.setflags(write=False)
        return y

    def _source_and_table(self):
        return self.source, self.cell


def clone_channel(op: SymOperator, l: int) -> CloneOutput:
    """The CloneOutput of op, or of a stack, at weight l: Y[a+k, b+k] +=
    X[a, b] alpha(a, k) alpha(b, k) over every added k.  A clone of a clone
    output clones its source, as T_{m'->l} T_{m->m'} = T_{m->l}.  Raises
    InvalidParameterError if l < m, and clone_amplitudes' ResourceLimitError."""
    if isinstance(op, CloneOutput):
        if l < op.m:
            raise InvalidParameterError(f"need l >= m, got l={l}, m={op.m}")
        op = op.source
    return CloneOutput(op, clone_amplitudes(op.d, op.m, l))


def uqcm_pure_output(d: int, n: int, m: int) -> SymOperator:
    """The diagonal CloneOutput of n particles in level 0 cloned to m.
    Raises InvalidParameterError unless 1 <= n <= m."""
    if n < 1:
        raise InvalidParameterError(f"need at least one input copy, got {n}")
    if m < n:
        raise InvalidParameterError(f"need m >= n, got m={m}, n={n}")
    return clone_channel(basis_projector((n,) + (0,) * (d - 1)), m)


def isometry_gram(d: int, m: int, l: int) -> np.ndarray:
    """The (n_in, n_in) float64 Gram matrix sum_k alpha(a, k) alpha(b, k)
    [rank(a+k) == rank(b+k)], summed in k order, the identity iff the channel
    is an isometry.  Refusals are clone_amplitudes'."""
    idx, v = clone_amplitudes(d, m, l).plan
    n, k = idx.shape
    # the plan's columns in t order, a block of whole columns at a time,
    # whose running sum along t, started from the Gram so far, adds each
    # entry's terms strictly in t order
    idx, v = idx.T, v.T
    columns = max(1, BLOCK_TERMS // (n * n))
    gram = np.zeros((n, n))
    for start in range(0, k, columns):
        i, w = idx[start : start + columns], v[start : start + columns]
        block = (w[:, :, None] * w[:, None, :]) * (i[:, :, None] == i[:, None, :])
        block[0] += gram
        gram = np.add.accumulate(block, axis=0, out=block)[-1].copy()
    return gram


def concatenate(d: int, n: int, m: int, l: int) -> tuple[SymOperator, SymOperator]:
    """(n -> m -> l output, direct n -> l output), equal; the second stage
    clones the first's dense view, so the chain law is tested, not used.
    Raises InvalidParameterError unless 1 <= n <= m <= l, and
    ResourceLimitError past DENSE_GUARD."""
    if not 1 <= n <= m <= l:
        raise InvalidParameterError(f"need 1 <= n <= m <= l, got n={n}, m={m}, l={l}")
    mid = uqcm_pure_output(d, n, m)
    via = clone_channel(SymOperator(mid.basis, mid.entries), l)
    direct = uqcm_pure_output(d, n, l)
    return via, direct
