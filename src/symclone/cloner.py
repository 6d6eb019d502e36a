"""Cloning amplitudes and the symmetric-subspace cloning channel.

The channel takes an arbitrary operator over the weight-m symmetric basis to
one over the weight-l basis (l >= m) by distributing l - m additional
particles across the d levels with exactly computable amplitudes, the
internal (ancilla) degrees of freedom already traced out.  Squared amplitudes
are exact rationals; conversion to floating point happens once, at the final
amplitude.
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
    basis_projector,
    composition_rank,
    dim,
    enumerate_basis,
)

DENSE_GUARD = 1 << 27  # complex entries of a dense channel output (2 GiB)


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

    table[i, t] is alpha^2 for the i-th input and the t-th added composition,
    both in canonical (lexicographically decreasing) order: a read-only
    (n_in, K) object array of Fractions.
    """

    d: int
    m: int
    l: int
    table: np.ndarray

    @cached_property
    def rows(self) -> tuple[tuple[Composition, Composition, Fraction], ...]:
        """(input, added, alpha^2) triples, input compositions outer."""
        inputs = enumerate_basis(self.d, self.m).order
        added = enumerate_basis(self.d, self.l - self.m).order
        return tuple(
            (j, k, sq) for j, row in zip(inputs, self.table) for k, sq in zip(added, row)
        )

    def alpha_sq(self, j: Composition, k: Composition) -> Fraction:
        return self.table[
            enumerate_basis(self.d, self.m).index_of(j),
            enumerate_basis(self.d, self.l - self.m).index_of(k),
        ]

    def alpha(self, j: Composition, k: Composition) -> float:
        return math.sqrt(self.alpha_sq(j, k))


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """Amplitude table for fixed (d, m, l)."""
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    prefactor = _prefactor(d, m, l)
    added = enumerate_basis(d, l - m).counts.tolist()
    table = np.array(
        [
            [prefactor * _occupancy(j, k) for k in added]
            for j in enumerate_basis(d, m).counts.tolist()
        ],
        dtype=object,
    )
    table.setflags(write=False)
    return CloneAmplitudes(d=d, m=m, l=l, table=table)


@lru_cache(maxsize=None)
def _channel_plan(d: int, m: int, l: int):
    # (K, n_in) arrays: row t holds, over the input basis a, the index of
    # a + k_t in the output basis and the amplitude alpha(a, k_t)
    inputs = enumerate_basis(d, m).counts
    added = enumerate_basis(d, l - m).counts
    idx = composition_rank(added[:, None, :] + inputs[None, :, :], l)
    v = np.sqrt(clone_amplitudes(d, m, l).table.T.astype(np.float64, order="C"))
    idx.setflags(write=False)
    v.setflags(write=False)
    return idx, v


def clone_channel(op: SymOperator, l: int) -> SymOperator:
    """Extend a weight-m symmetric operator to weight l, ancilla traced out.

    Y[a+k, b+k] += X[a, b] alpha(a, k) alpha(b, k), summed over all added
    compositions k in canonical order.  Linear in X, trace-preserving, and
    the identity channel at l = m.
    """
    d, m = op.d, op.m
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    n_out = dim(d, l)
    if n_out * n_out > DENSE_GUARD:
        raise ResourceLimitError(
            f"dense {n_out}x{n_out} output exceeds the guard of {DENSE_GUARD} entries"
        )
    x = op.entries
    y = np.zeros((n_out, n_out), dtype=np.complex128)
    for idx, v in zip(*_channel_plan(d, m, l)):
        y[np.ix_(idx, idx)] += (v[:, None] * v[None, :]) * x
    return SymOperator(enumerate_basis(d, l), y)


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
