"""Cloning amplitudes and the symmetric-subspace cloning channel.

The channel takes an arbitrary operator over the weight-m symmetric basis to
one over the weight-l basis (l >= m) by distributing l - m additional
particles across the d levels with exactly computable amplitudes, the
internal (ancilla) degrees of freedom already traced out.  Squared amplitudes
are exact rationals; conversion to floating point happens once, at the final
amplitude.

The output is K scattered, rescaled copies of the d_in x d_in input block
(Werner's T(X) = (d[m]/d[l]) S_l (X (x) 1) S_l, R. F. Werner, PRA 58, 1827
(1998)), so it is held as the input operator; the dense d_out x d_out matrix
is built only when its entries are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .symspace import (
    Composition,
    InvalidParameterError,
    ResourceLimitError,
    SymOperator,
    _reduction_plan,
    basis_projector,
    composition_rank,
    dim,
    enumerate_basis,
)

AMPLITUDE_GUARD = 1 << 20  # exact int entries of an amplitude table (8-50 B each, measured)
DENSE_GUARD = 1 << 22  # complex entries of a dense channel output (64 MiB)


def alpha_qubit_sq(j: int, k: int, m: int, l: int) -> Fraction:
    """Exact squared amplitude for two-level systems.

    alpha^2 = (l-m)! (m+1)! (l-j-k)! (j+k)! / [(l+1)! (l-m-k)! (m-j)! j! k!]
    where j counts input particles in level 1 and k counts added ones.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    if not 0 <= j <= m:
        raise InvalidParameterError(f"j must be in [0, {m}], got {j}")
    if not 0 <= k <= l - m:
        raise InvalidParameterError(f"k must be in [0, {l - m}], got {k}")
    f = math.factorial
    return Fraction(
        f(l - m) * f(m + 1) * f(l - j - k) * f(j + k),
        f(l + 1) * f(l - m - k) * f(m - j) * f(j) * f(k),
    )


def alpha_qubit(j: int, k: int, m: int, l: int) -> float:
    """Cloning amplitude for two-level systems (nonnegative real)."""
    return math.sqrt(alpha_qubit_sq(j, k, m, l))


def alpha_d_sq(j: Composition, k: Composition, m: int, l: int) -> Fraction:
    """Exact squared amplitude for d-level systems.

    alpha^2 = (l-m)! (m+d-1)! / (l+d-1)!  *  prod_i C(j_i + k_i, k_i)
    with j the input occupation (weight m) and k the added occupation
    (weight l - m).  Reduces to alpha_qubit_sq at d = 2.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    if j.d != k.d:
        raise InvalidParameterError(f"level-count mismatch: {j.d} vs {k.d}")
    if j.weight != m:
        raise InvalidParameterError(f"input composition has weight {j.weight}, expected {m}")
    if k.weight != l - m:
        raise InvalidParameterError(f"added composition has weight {k.weight}, expected {l - m}")
    return _prefactor(j.d, m, l) * _occupancy(j.counts, k.counts)


def _prefactor(d: int, m: int, l: int) -> Fraction:
    f = math.factorial
    return Fraction(f(l - m) * f(m + d - 1), f(l + d - 1))


def _occupancy(j, k) -> int:
    return math.prod(math.comb(a + b, b) for a, b in zip(j, k))


def alpha_d(j: Composition, k: Composition, m: int, l: int) -> float:
    """Cloning amplitude for d-level systems (nonnegative real)."""
    return math.sqrt(alpha_d_sq(j, k, m, l))


def ancilla_dim(d: int, m: int, l: int) -> int:
    """Number of orthonormal internal cloner states: C(l-m+d-1, d-1), exact."""
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    return dim(d, l - m)


@dataclass(frozen=True, eq=False)
class CloneAmplitudes:
    """Exact squared amplitudes for every (input, added) composition pair.

    alpha^2 of the i-th input and the t-th added composition, both in
    canonical (lexicographically decreasing) order, is prefactor *
    occupancy[i, t]: occupancy is a read-only (n_in, K) object array of
    Python ints, prod_p C(j_p + k_p, k_p), and prefactor the one Fraction
    (l-m)! (m+d-1)! / (l+d-1)! all entries share.
    """

    d: int
    m: int
    l: int
    occupancy: np.ndarray
    prefactor: Fraction

    def squared(self) -> np.ndarray:
        """alpha^2 as an (n_in, K) float64 array, computed on each call."""
        # int / int is correctly rounded, and so is float(Fraction), which is
        # numerator / denominator: both give the double nearest the exact
        # alpha^2, whether or not the quotient is reduced, so these are the
        # bits of float(prefactor * occupancy)
        p = self.prefactor
        return ((self.occupancy * p.numerator) / p.denominator).astype(np.float64)


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """Amplitude table for fixed (d, m, l).

    Refuses, before enumerating anything, a table of more than
    AMPLITUDE_GUARD entries.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    n_table = dim(d, m) * dim(d, l - m)
    if n_table > AMPLITUDE_GUARD:
        raise ResourceLimitError(
            f"amplitude table of {n_table} exact entries exceeds the guard of "
            f"{AMPLITUDE_GUARD}"
        )
    # Pascal table over exact ints: binom[a, b] = C(a + b, b), each row the
    # running sum of the one above (hockey stick)
    binom = np.ones((m + 1, l - m + 1), dtype=object)
    for a in range(1, m + 1):
        binom[a] = np.cumsum(binom[a - 1])
    inputs = enumerate_basis(d, m).counts
    added = enumerate_basis(d, l - m).counts
    occupancy = binom[inputs[:, None, 0], added[None, :, 0]]
    for p in range(1, d):
        occupancy = occupancy * binom[inputs[:, None, p], added[None, :, p]]
    occupancy.setflags(write=False)
    return CloneAmplitudes(d=d, m=m, l=l, occupancy=occupancy, prefactor=_prefactor(d, m, l))


@lru_cache(maxsize=None)
def _channel_plan(d: int, m: int, l: int):
    # (K, n_in) arrays: row t holds, over the input basis a, the index of
    # a + k_t in the output basis and the amplitude alpha(a, k_t); the table
    # comes first, so that its guard precedes any enumeration
    v = np.sqrt(clone_amplitudes(d, m, l).squared().T.copy())
    inputs = enumerate_basis(d, m).counts
    added = enumerate_basis(d, l - m).counts
    idx = composition_rank(added[:, None, :] + inputs[None, :, :], l)
    idx.setflags(write=False)
    v.setflags(write=False)
    return idx, v


@lru_cache(maxsize=None)
def _hop_plan(d: int, m: int, l: int) -> np.ndarray:
    # (K, H_in) array: for the input one-hop pair (a, b) of _reduction_plan(d,
    # m) in column h and the added composition k_t in row t, the position of
    # the output pair (a + k_t, b + k_t) in _reduction_plan(d, l)'s hop order
    idx, _ = _channel_plan(d, m, l)
    _, (rows, _, level_p, level_q, _) = _reduction_plan(d, m)
    _, (out_rows, _, out_p, out_q, _) = _reduction_plan(d, l)
    # a hop is fixed by its row and its levels (p, q); -1 marks no hop
    position = np.full((dim(d, l), d, d), -1, dtype=np.intp)
    position[out_rows, out_p, out_q] = np.arange(out_rows.size)
    hops = position[idx[:, rows], level_p, level_q]
    hops.setflags(write=False)
    return hops


def _scatter_sum(index: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    # np.bincount adds in input order, so each output entry sums its terms in
    # k order, as the dense loop does; real and imaginary parts add apart
    # there too, so the sums agree bit for bit
    flat = index.ravel()
    out.real = np.bincount(flat, values.real.ravel(), len(out))
    out.imag = np.bincount(flat, values.imag.ravel(), len(out))


class CloneOutput(SymOperator):
    """clone_channel's output, held as its input operator (source) and l.

    entries is a dense view, built on first read and refused beyond
    DENSE_GUARD entries; reduce_one reads the diagonal and the one-hop
    entries straight from the channel plan and the source's own diagonal and
    one-hop entries instead, so a chain of clones never builds a dense
    intermediate.
    """

    def __init__(self, source: SymOperator, l: int):
        object.__setattr__(self, "basis", enumerate_basis(source.d, l))
        object.__setattr__(self, "source", source)

    def __repr__(self) -> str:
        return f"CloneOutput(d={self.d}, m={self.source.m}, l={self.m})"

    @cached_property
    def entries(self) -> np.ndarray:
        n_out = self.basis.size
        if n_out * n_out > DENSE_GUARD:
            raise ResourceLimitError(
                f"dense {n_out}x{n_out} output exceeds the guard of {DENSE_GUARD} entries"
            )
        y = np.zeros((n_out, n_out), dtype=np.complex128)
        x = self.source.entries
        for idx, v in zip(*_channel_plan(self.d, self.source.m, self.m)):
            y[np.ix_(idx, idx)] += (v[:, None] * v[None, :]) * x
        y.setflags(write=False)
        return y

    def _diagonal_and_hops(self) -> tuple[np.ndarray, np.ndarray]:
        d, m, l = self.d, self.source.m, self.m
        idx, v = _channel_plan(d, m, l)
        # the dense matrix's diagonal is a strided view, and OpenBLAS sums a
        # unit-stride vector in another order than a strided one; reduce_one
        # dots this diagonal, so it gets a strided view too, and the same bits
        diagonal = np.zeros((self.basis.size, 2), dtype=np.complex128)[:, 0]
        _, (out_rows, *_) = _reduction_plan(d, l)
        hops = np.zeros(out_rows.size, dtype=np.complex128)
        if not m:  # a single input state: no one-hop pairs, and no reduction plan
            _scatter_sum(idx, (v * v) * np.diagonal(self.source.entries), diagonal)
            return diagonal, hops
        x_diagonal, x_hops = self.source._diagonal_and_hops()
        _scatter_sum(idx, (v * v) * x_diagonal, diagonal)
        _, (rows, cols, *_) = _reduction_plan(d, m)
        _scatter_sum(_hop_plan(d, m, l), (v[:, rows] * v[:, cols]) * x_hops, hops)
        return diagonal, hops


def clone_channel(op: SymOperator, l: int) -> CloneOutput:
    """Extend a weight-m symmetric operator to weight l, ancilla traced out.

    Y[a+k, b+k] += X[a, b] alpha(a, k) alpha(b, k), summed over all added
    compositions k in canonical order.  Linear in X, trace-preserving, and
    the identity channel at l = m.  The amplitude table's guard applies
    before anything is enumerated.
    """
    clone_amplitudes(op.d, op.m, l)  # the guard, before the plan enumerates
    _channel_plan(op.d, op.m, l)  # so that the plan's cost lands on this call
    return CloneOutput(op, l)


def uqcm_pure_output(d: int, n: int, m: int) -> SymOperator:
    """Output of cloning n identical level-0 particles into m copies.

    Diagonal over the weight-m basis, with weight alpha(seed, k)^2 on each
    reachable output composition.
    """
    if n < 1:
        raise InvalidParameterError(f"need at least one input copy, got {n}")
    if m < n:
        raise InvalidParameterError(f"need m >= n, got m={m}, n={n}")
    seed = Composition((n,) + (0,) * (d - 1))
    return clone_channel(basis_projector(seed), m)


def isometry_gram(d: int, m: int, l: int) -> np.ndarray:
    """Gram matrix of the cloning isometry columns over the input basis.

    Entry (a, b) is sum_k alpha(a, k) alpha(b, k) [a+k == b+k], with a+k
    located by its rank in the output basis, as the channel locates it.  The
    identity on the diagonal is the amplitude normalization; off it, the
    rank's injectivity on each {a + k}.  The transformation is an isometry
    iff this is the identity.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    idx, v = _channel_plan(d, m, l)
    gram = np.zeros((idx.shape[1], idx.shape[1]))
    for idx_k, v_k in zip(idx, v):
        gram += np.outer(v_k, v_k) * (idx_k[:, None] == idx_k[None, :])
    return gram


def concatenate(d: int, n: int, m: int, l: int) -> tuple[SymOperator, SymOperator]:
    """Two-stage n -> m -> l cloning next to direct n -> l cloning.

    Returns (two-stage output, direct output); the two are equal.
    """
    if not 1 <= n <= m <= l:
        raise InvalidParameterError(f"need 1 <= n <= m <= l, got n={n}, m={m}, l={l}")
    via = clone_channel(uqcm_pure_output(d, n, m), l)
    direct = uqcm_pure_output(d, n, l)
    return via, direct
