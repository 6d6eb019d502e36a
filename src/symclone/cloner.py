"""Exact cloning amplitudes and the channel T(X) = (d[m]/d[l]) S_l (X (x) 1) S_l
from weight m to l >= m (R. F. Werner, PRA 58, 1827 (1998))."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .symspace import (
    InvalidParameterError,
    SymBasis,
    SymOperator,
    basis_projector,
    enumerate_basis,
    guarded_dims,
    pascal,
    require_room,
    sum_ranks,
)

BLOCK_TERMS = 1 << 14  # terms per block of the dense view and the Gram matrix


@dataclass(frozen=True, eq=False)
class CloneAmplitudes:
    """Exact amplitudes of (d, m, l): alpha^2 of the i-th input and t-th
    added composition is occupancy[i, t] / total, total = C(l+d-1, l-m).
    occupancy, read-only (n_in, K), holds the integers
    prod_p C(j_p + k_p, k_p); its rows sum to total, and it is int64 while
    total (l + 1) is below 2**53, else Python ints."""

    d: int
    m: int
    l: int
    occupancy: np.ndarray
    total: int

    @cached_property
    def plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (n_in, K) arrays: idx, int64, the output rank of
        a + k_t, distinct within a column, and v, float64, alpha(a, k_t)."""
        d, m, l = self.d, self.m, self.l
        # int / int and a division of exact doubles are both correctly rounded
        v = np.sqrt((self.occupancy / self.total).astype(np.float64, copy=False))
        added = enumerate_basis(d, l - m).counts
        idx = sum_ranks(enumerate_basis(d, m).counts, added, l)
        idx.setflags(write=False)
        v.setflags(write=False)
        return idx, v

    @cached_property
    def reduced_map(self) -> tuple[np.ndarray, np.ndarray]:
        """reduce_one after the channel, l >= 1, as read-only complex128
        weights (imaginary parts +0.0) on the input's diagonal and hops, read
        off the integers sums[a, i] = sum_t occupancy[a, t] (a_i + k_t,i):
        W_diag[i, a] = sums[a, i] / (Q l), (d, dim(d, m)), and W_hop[j, r] =
        sqrt(u_p + 1) sqrt(u_q + 1) rho / l, (d(d-1), dim(d, m-1)), rho =
        (sums[rank(u + e_lo), hi] + Q) / ((u_hi + 1) Q), lo < hi the levels
        p, q of the j-th move and u the r-th composition of weight m - 1;
        Q is total and each ratio correctly rounded.
        Dyads two or more hops apart reduce to 0 (M. Keyl and R. F. Werner,
        J. Math. Phys. 40, 3283 (1999)).
        """
        d, m, l = self.d, self.m, self.l
        inputs = enumerate_basis(d, m)
        added = enumerate_basis(d, l - m).counts
        # in the table's dtype: no integer formed here passes total (l + 1)
        total = np.array(self.total, dtype=self.occupancy.dtype)
        # each row sums to total, so sums[a, i] gains a_i total
        sums = self.occupancy @ added + inputs.counts * total
        # rows A of u + e_p and B of u + e_q hold A (u_p + 1)(u_q + k_q + 1) =
        # B (u_q + 1)(u_p + k_p + 1), so a hop's terms sum to sqrt(u_p + 1)
        # sqrt(u_q + 1) sum_t A (u_q + k_q + 1) / ((u_q + 1) Q l), and
        # both moves of a pair read the row of u + e_lo, a hop's smaller rank
        lo, hi = (level[:, None] for level in np.sort(inputs.moves, axis=0))
        rows = np.minimum(*np.divmod(inputs.hop_entries, inputs.size))
        # u_lo + 1 and u_hi + 1, read off the row of u + e_lo
        lo_count, hi_count = inputs.counts[rows, lo], inputs.counts[rows, hi] + 1
        rho = (sums[rows, hi] + total) / (hi_count * total)
        w_hop = np.sqrt(lo_count) * np.sqrt(hi_count) * rho.astype(np.float64) / l
        # numpy has no float-by-complex loop: reduce_one would cast on every call
        w_diag, w_hop = (
            w.astype(np.complex128, order="C") for w in (sums.T / (total * l), w_hop)
        )
        for w in (w_diag, w_hop):
            w.setflags(write=False)
        return w_diag, w_hop


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """The CloneAmplitudes of (d, m, l), cached.  Raises
    InvalidParameterError if l < m or (d, m) has no basis, and, before
    anything is enumerated, ResourceLimitError for a table past ENTRY_GUARD
    entries or a basis of (d, m) or (d, l - m) past 8 times it."""
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    require_room(guarded_dims(d, m, l - m), "amplitude table")
    for n in (m, l - m):
        require_room(guarded_dims(d, n, 1), "amplitude table's basis", times=8)
    # (l-m)! (m+d-1)! / (l+d-1)! is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    total = math.comb(l + d - 1, l - m)
    # no reader forms an integer past total (l + 1), so int64 is exact, and
    # its ratios divide exact doubles, below 2**53
    dtype = np.int64 if total * (l + 1) < 2**53 else object
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
    return CloneAmplitudes(d=d, m=m, l=l, occupancy=occupancy, total=total)


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
        ResourceLimitError, before any allocation, past 4 * ENTRY_GUARD in all."""
        lead, n_out = self.source.entries.shape[:-2], self.basis.size
        batch = math.prod(lead)
        require_room(batch * n_out * n_out, "dense output", times=4)
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
    Raises InvalidParameterError unless 1 <= n <= m, and basis_projector's
    and clone_channel's ResourceLimitError."""
    if n < 1:
        raise InvalidParameterError(f"need at least one input copy, got {n}")
    if m < n:
        raise InvalidParameterError(f"need m >= n, got m={m}, n={n}")
    return clone_channel(basis_projector((n,) + (0,) * (d - 1)), m)


def isometry_gram(d: int, m: int, l: int) -> np.ndarray:
    """The (n_in, n_in) float64 Gram matrix sum_k alpha(a, k) alpha(b, k)
    [rank(a+k) == rank(b+k)], summed in k order, the identity iff the channel
    is an isometry.  Raises ResourceLimitError, before anything is built,
    past 4 * ENTRY_GUARD entries, and clone_amplitudes' refusals."""
    require_room(guarded_dims(d, m, m), "Gram matrix", times=4)
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
    ResourceLimitError past 4 * ENTRY_GUARD dense entries."""
    if not 1 <= n <= m <= l:
        raise InvalidParameterError(f"need 1 <= n <= m <= l, got n={n}, m={m}, l={l}")
    mid = uqcm_pure_output(d, n, m)
    via = clone_channel(SymOperator(mid.basis, mid.entries), l)
    direct = uqcm_pure_output(d, n, l)
    return via, direct
