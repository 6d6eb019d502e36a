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
    prod_p C(j_p + k_p, k_p) in exact_total's dtype; its rows sum to total."""

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


def exact_total(d: int, m: int, l: int) -> tuple[int, type]:
    """total = C(l+d-1, l-m), every table row's sum, and the dtype of the
    table and of every integer a reader forms from it: int64 while
    total (l + 1) is below 2**53, else object (Python ints)."""
    # (l-m)! (m+d-1)! / (l+d-1)! is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    total = math.comb(l + d - 1, l - m)
    # no reader forms an integer past total (l + 1), so int64 is exact, and
    # its ratios divide exact doubles, below 2**53
    return total, np.int64 if total * (l + 1) < 2**53 else object


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """The CloneAmplitudes of (d, m, l), cached.  Raises InvalidParameterError
    if l < m or (d, m) has no basis, and, before anything is enumerated,
    ResourceLimitError for a table past ENTRY_GUARD entries or a basis of
    (d, m) or (d, l - m) past 8 times it."""
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    require_room(guarded_dims(d, m, l - m), "amplitude table")
    for n in (m, l - m):
        require_room(guarded_dims(d, n, 1), "amplitude table's basis", times=8)
    total, dtype = exact_total(d, m, l)
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


def level_sums(d: int, m: int, l: int) -> np.ndarray:
    """S, read-only (m + 1,) in exact_total's dtype, built without the
    table: S[v] = sum_t occupancy[a, t] (a_i + k_t,i) for every input a
    with a_i = v, that is sum_k C(v + k, k) (v + k) C(r + L - k, L - k),
    k = 0..L = l - m, r = m - v + d - 2.  Every term lies in [0, total l]."""
    _, dtype = exact_total(d, m, l)
    L = l - m
    # fixing k_i = k, the other levels' compositions of L - k weigh
    # [x^(L-k)] (1 - x)^-(r + 1) = C(r + L - k, L - k) in all; C(v + k, k)
    # sits at own[v, k] and C(r + L - k, L - k) at rest[v, k]
    binom = pascal(m + d - 1, L + 1, dtype)
    own, rest = binom[: m + 1], binom[d - 2 :][::-1, ::-1]
    v, k = np.arange(m + 1), np.arange(L + 1)
    # the shorter axis is the loop, so no (m + 1, L + 1) product is held
    if m <= L:
        sums = [np.dot(own[j] * (j + k), rest[j]) for j in v]
    else:
        sums = sum(own[:, j] * (v + j) * rest[:, j] for j in k)
    sums = np.array(sums, dtype=dtype)
    sums.setflags(write=False)
    return sums


@lru_cache(maxsize=None)
def reduced_map(d: int, m: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """reduce_one after the channel of (d, m, l), 1 <= l and m <= l, cached:
    read-only complex128 weights (imaginary parts +0.0) on the input's
    diagonal and hops, read off the integers S of level_sums, one ratio
    per level value v, no table built: W_diag[i, a] = S[a_i] / (Q l), (d,
    dim(d, m)), and W_hop[j, r] = sqrt(u_p + 1) sqrt(u_q + 1) rho[u_q] / l,
    (d(d-1), dim(d, m-1)), rho[v] = (S[v] + Q) / ((v + 1) Q), p < q the
    levels of the j-th move and u the r-th composition of weight m - 1; Q
    is total and each ratio correctly rounded.  Dyads two or more hops
    apart reduce to 0 (M. Keyl and R. F. Werner, J. Math. Phys. 40, 3283
    (1999)).  Raises ResourceLimitError, before any exact binomial, for a
    Pascal grid past ENTRY_GUARD entries or d x d moves past 8 times it,
    and enumerate_basis's refusals."""
    require_room((m + d - 1) * (l - m + 1), "reduced map's Pascal grid")
    # np.eye(d) for the moves, and W_hop at m <= 1
    require_room(d * d, "reduced map's move array", times=8)
    inputs = enumerate_basis(d, m)
    total, dtype = exact_total(d, m, l)
    # in the table's dtype: no integer formed here passes total (l + 1)
    total = np.array(total, dtype=dtype)
    sums, count = level_sums(d, m, l), np.arange(1, m + 2)
    # rows A of u + e_p and B of u + e_q hold A (u_p + 1)(u_q + k_q + 1) =
    # B (u_q + 1)(u_p + k_p + 1), so a hop's terms sum to sqrt(u_p + 1)
    # sqrt(u_q + 1) (S[u_q] + Q) / ((u_q + 1) Q l), as row u + e_p sums to
    # Q and weighs level q by S[u_q]; both moves of a pair take q > p
    rho = ((sums + total) / (count * total)).astype(np.float64)
    root, (p, q) = np.sqrt(count), inputs.moves
    # no composition has weight -1: at m = 0 there is no hop
    u = (enumerate_basis(d, m - 1).counts if m else inputs.counts[:0]).T
    w_hop = root[u[p]] * root[u[q]] * rho[u[np.maximum(p, q)]] / l
    # numpy has no float-by-complex loop: reduce_one would cast on every call
    w_hop = w_hop.astype(np.complex128, order="C")
    w_diag = (sums / (total * l)).astype(np.complex128).take(inputs.counts.T)
    for w in (w_diag, w_hop):
        w.setflags(write=False)
    return w_diag, w_hop


class CloneOutput(SymOperator):
    """clone_channel's output of weight l from source, never a clone output:
    basis and entries are built on first read, and reduce_one reads its map."""

    def __init__(self, source: SymOperator, l: int):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "l", l)

    @cached_property
    def basis(self) -> SymBasis:
        return enumerate_basis(self.d, self.l)

    @property
    def d(self) -> int:
        return self.source.d

    @property
    def m(self) -> int:
        return self.l

    def __repr__(self) -> str:
        return f"CloneOutput(d={self.d}, m={self.source.m}, l={self.m})"

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense read-only complex128 (dim(d, l), dim(d, l)) output, or
        (B, ., .), each entry's terms added in t order onto +0.0.  Raises
        ResourceLimitError, before the output basis is enumerated, past
        4 * ENTRY_GUARD in all, and clone_amplitudes' refusals."""
        lead = self.source.entries.shape[:-2]
        batch, square = math.prod(lead), guarded_dims(self.d, self.l, self.l)
        require_room(None if square is None else batch * square, "dense output", times=4)
        n_out = self.basis.size
        idx, v = clone_amplitudes(self.d, self.source.m, self.l).plan
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

    def _source_and_map(self):
        return self.source, reduced_map(self.d, self.source.m, self.l)


def clone_channel(op: SymOperator, l: int) -> CloneOutput:
    """The CloneOutput of op, or of a stack, at weight l: Y[a+k, b+k] +=
    X[a, b] alpha(a, k) alpha(b, k) over every added k.  A clone of a clone
    output clones its source, as T_{m'->l} T_{m->m'} = T_{m->l}.  Raises
    InvalidParameterError if l < op.m, and builds nothing: each reader
    refuses what it would build."""
    if l < op.m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={op.m}")
    if isinstance(op, CloneOutput):
        op = op.source
    return CloneOutput(op, l)


def uqcm_pure_output(d: int, n: int, m: int) -> SymOperator:
    """The diagonal CloneOutput of n particles in level 0 cloned to m.
    Raises InvalidParameterError unless 1 <= n <= m, and basis_projector's
    ResourceLimitError; its readers refuse what they would build."""
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
