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
    AMPLITUDE_GUARD,
    InvalidParameterError,
    ResourceLimitError,
    SymBasis,
    SymOperator,
    basis_projector,
    composition,
    dim,
    enumerate_basis,
    pascal,
    sum_ranks,
)

DENSE_GUARD = 1 << 22  # complex entries of a dense channel output (64 MiB)
BLOCK_TERMS = 1 << 14  # terms per block of the dense view, the Gram matrix and the reduced map


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


def alpha_d_sq(j, k, m: int, l: int) -> Fraction:
    """Exact squared amplitude for d-level systems.

    alpha^2 = (l-m)! (m+d-1)! / (l+d-1)!  *  prod_i C(j_i + k_i, k_i)
    with j the input counts (weight m) and k the added counts (weight
    l - m).  Reduces to alpha_qubit_sq at d = 2.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    j, k = composition(j), composition(k)
    if len(j) != len(k):
        raise InvalidParameterError(f"level-count mismatch: {len(j)} vs {len(k)}")
    if sum(j) != m:
        raise InvalidParameterError(f"input composition has weight {sum(j)}, expected {m}")
    if sum(k) != l - m:
        raise InvalidParameterError(f"added composition has weight {sum(k)}, expected {l - m}")
    return _prefactor(len(j), m, l) * _occupancy(j, k)


def _prefactor(d: int, m: int, l: int) -> Fraction:
    # (l-m)! (m+d-1)! / (l+d-1)! is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    return Fraction(1, math.comb(l + d - 1, l - m))


def _occupancy(j, k) -> int:
    return math.prod(math.comb(a + b, b) for a, b in zip(j, k))


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
    occupancy[i, t]: occupancy is a read-only (n_in, K) array of the exact
    integers prod_p C(j_p + k_p, k_p), and prefactor the one Fraction
    1 / C(l+d-1, l-m) all entries share.

    Each row of occupancy sums to that denominator, the row total, so no
    entry, factor or partial product exceeds it.  occupancy is int64 when
    the row total is below 2**53, where every entry is also an exact
    double, and an object array of Python ints otherwise.
    """

    d: int
    m: int
    l: int
    occupancy: np.ndarray
    prefactor: Fraction

    def _squared(self, columns: slice = slice(None)) -> np.ndarray:
        """alpha^2 of the given columns as doubles, the rows in ascending rank.

        The prefactor's numerator is 1.  Python's int / int is correctly
        rounded, and so is float(Fraction); below 2**53 an int64 entry and
        the denominator are exact doubles, so their IEEE division is too.
        Either dtype gives the double nearest the exact alpha^2, the bits of
        float(prefactor * occupancy), whatever columns are taken at once.
        """
        squared = self.occupancy[:, columns] / self.prefactor.denominator
        return squared.astype(np.float64, copy=False)

    @cached_property
    def plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The channel plan: read-only (n_in, K) arrays idx and v, and hops.

        Row i holds one input composition a, in descending canonical rank
        (a is input n_in - 1 - i), and column t the added composition k_t:
        the index of a + k_t in the output basis and the amplitude
        alpha(a, k_t).  hops is the same index one weight lower,
        (dim(d, m-1), K), its rows the u of weight m - 1 in descending rank:
        the one-hop pair (u + e_p, u + e_q) goes to hop (p, q) at the rank
        of u + k_t.  idx is sum_ranks of the a and the added compositions,
        and hops a view of its last dim(d, m-1) rows: in lex order every c
        with c_0 >= 1 comes first and c -> c - e_0 keeps the order, so the
        inputs u + e_0 are the last rows and rank_l(u + e_0 + k_t) is
        rank_{l-1}(u + k_t).

        Every product then runs along K, the longer axis in most cells.
        The order is the scatter's: as t rises, k_t falls in lex order, so for one output
        entry c the a = c - k_t rises and its rank falls.  A 1-D np.add.at
        over the raveled rows therefore adds each entry's terms in t order.
        Only the dense view and a clone output's own diagonal and hops (the
        source side of a chain) read the plan; reduce_one reads reduced_map.
        """
        d, m, l = self.d, self.m, self.l
        v = np.sqrt(self._squared()[::-1])
        added = enumerate_basis(d, l - m).counts
        idx = sum_ranks(enumerate_basis(d, m).counts[::-1], added, l)
        idx.setflags(write=False)
        v.setflags(write=False)
        return idx, v, idx[len(idx) - (dim(d, m - 1) if m else 0) :]

    @cached_property
    def reduced_map(self) -> tuple[np.ndarray, np.ndarray]:
        """reduce_one after the channel, as read-only weights on the input's
        diagonal and one-hop entries, l >= 1: W_diag and W_hop.

        W_diag[i, a] = sum_t alpha(a, k_t)^2 (a_i + k_t,i) / l, (d, dim(d, m)),
        weighs the input's diagonal entry a into output level i.
        W_hop[j, r] = sum_t alpha(u + e_p, k_t) alpha(u + e_q, k_t)
        sqrt((u_p + k_t,p + 1)(u_q + k_t,q + 1)) / l, (d(d-1), dim(d, m-1)),
        weighs the input's hop (u + e_p, u + e_q), u the r-th composition of
        weight m - 1, into output entry (p, q) of move j, in moves order.
        The channel and the reduction are linear, and a dyad two or more
        hops apart reduces to 0 before and after the channel (R. F. Werner,
        PRA 58, 1827 (1998); M. Keyl and R. F. Werner, J. Math. Phys. 40,
        3283 (1999)), so these and the source's own diagonal and hops give
        the output's reduction, and nothing at weight l is built.

        Built from the float squared amplitudes and the input basis's
        hop_ranks, BLOCK_TERMS terms at a time along K: each term
        alpha(a, k_t)^2 (a + k_t)_i serves W_diag, and its square root
        alpha(a, k_t) sqrt((a + k_t)_i), taken at a = u + e_i, the one
        product per unordered pair (p, q) that W_hop's moves (p, q) and
        (q, p) share.  Elementwise products and numpy sums, no BLAS call,
        so the bits do not depend on its thread count.
        """
        d, m, l = self.d, self.m, self.l
        inputs = enumerate_basis(d, m)
        added = enumerate_basis(d, l - m).counts
        n_in, k = self.occupancy.shape
        p, q = inputs.moves
        upper = np.triu_indices(d, 1)
        ranks = inputs.hop_ranks if m else np.zeros((d, 0), dtype=np.int64)
        w_diag = np.zeros((d, n_in))
        pairs = np.zeros((len(upper[0]), ranks.shape[1]))
        columns = max(1, BLOCK_TERMS // n_in)
        for start in range(0, k, columns):
            block = slice(start, start + columns)
            level = inputs.counts.T[:, :, None] + added[block].T[:, None, :]
            # C order, so that each sum along K runs over a contiguous axis
            # and numpy sums it pairwise, not one term at a time
            terms = np.multiply(self._squared(block), level, order="C")
            w_diag += terms.sum(axis=-1)
            g = np.sqrt(terms[np.arange(d)[:, None], ranks])
            pairs += (g[upper[0]] * g[upper[1]]).sum(axis=-1)
        # both moves of an unordered pair read its one sum
        pair = np.zeros((d, d), dtype=np.int64)
        pair[upper] = np.arange(len(upper[0]))
        w_diag, w_hop = w_diag / l, pairs[(pair + pair.T)[p, q]] / l
        for a in (w_diag, w_hop):
            a.setflags(write=False)
        return w_diag, w_hop


@lru_cache(maxsize=None)
def clone_amplitudes(d: int, m: int, l: int) -> CloneAmplitudes:
    """Amplitude table for fixed (d, m, l).

    Refuses, before enumerating anything, a table of more than
    AMPLITUDE_GUARD entries, or of more than 8 * AMPLITUDE_GUARD entries
    times levels: the table's product and the plan's ranks run over every
    level of every entry.  A vast request is refused on a cheap bound
    before any exact binomial is taken: dim(d, n) = C(n + d - 1, k) >= 2**k
    for k = min(n, d - 1).  The message prints no size taken from the
    request, which may have more digits than Python formats.
    """
    if l < m:
        raise InvalidParameterError(f"need l >= m, got l={l}, m={m}")
    bits = min(m, d - 1) + min(l - m, d - 1)
    vast = bits >= AMPLITUDE_GUARD.bit_length() or d > 8 * AMPLITUDE_GUARD
    n_table = 0 if vast else dim(d, m) * dim(d, l - m)
    if vast or n_table > AMPLITUDE_GUARD or n_table * d > 8 * AMPLITUDE_GUARD:
        raise ResourceLimitError(
            f"amplitude table exceeds the guard of {AMPLITUDE_GUARD} exact entries "
            f"or {8 * AMPLITUDE_GUARD} entries times levels"
        )
    prefactor = _prefactor(d, m, l)
    # no entry exceeds the row total, so int64 is exact below 2**53
    dtype = np.int64 if prefactor.denominator < 2**53 else object
    binom = pascal(m + 1, l - m + 1, dtype).ravel()
    # C(j_p + k_p, k_p) sits at j_p (l - m + 1) + k_p of the flat grid
    inputs = enumerate_basis(d, m).counts * (l - m + 1)
    added = enumerate_basis(d, l - m).counts
    occupancy = binom.take(inputs[:, None, 0] + added[None, :, 0])
    # a level multiplies by C(j_p + k_p, k_p) != 1 only where some input and
    # some added composition both fill it; a positive weight fills every
    # level (its all-in-one-level composition), and a zero weight none
    for p in range(1, d if 0 < m < l else 1):
        occupancy = occupancy * binom.take(inputs[:, None, p] + added[None, :, p])
    occupancy.setflags(write=False)
    return CloneAmplitudes(d=d, m=m, l=l, occupancy=occupancy, prefactor=prefactor)


class CloneOutput(SymOperator):
    """clone_channel's output: its input operator (source) and table (cell).

    A stack of sources gives a stack of outputs.  reduce_one weighs the
    source's own diagonal and one-hop entries by cell.reduced_map, so a
    reduce-only output builds no plan and nothing at weight l, not even its
    basis, which is built on first read.  entries is a dense view, built on
    first read and refused beyond DENSE_GUARD entries, and the output's own
    diagonal and one-hop entries, which a clone of this output reduces
    through, are scattered through cell.plan; so a chain of clones never
    builds a dense intermediate.
    """

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
        """The dense output, (dim(d, l), dim(d, l)), or one per operator of
        the source's stack.

        Refused, before anything is allocated, beyond DENSE_GUARD entries in
        all.  Row a of column t's block, (v_t v_t^T * x)[a], goes to the
        output row idx[a, t] and the columns idx[:, t], which are distinct
        within a column.  The rows are taken t-major, BLOCK_TERMS terms at a
        time for the whole stack, and each block is one 1-D np.add.at onto
        a zeroed output, so every entry adds its terms in t order onto
        +0.0, as the plan's scatters do (see CloneAmplitudes.plan), and
        each output keeps the bits it has alone.
        """
        lead, n_out = self.source.entries.shape[:-2], self.basis.size
        batch = math.prod(lead)
        if batch * n_out * n_out > DENSE_GUARD:
            raise ResourceLimitError(
                f"dense {batch} x {n_out}x{n_out} output exceeds the guard of {DENSE_GUARD} entries"
            )
        idx, v, _ = self.cell.plan
        n_in, k = idx.shape
        y = np.zeros(batch * n_out * n_out, dtype=np.complex128)
        # the plan's rows run in descending rank, so each column meets the
        # source block reversed
        x = self.source.entries.reshape(batch, n_in, n_in)[:, ::-1, ::-1]
        rows = max(1, BLOCK_TERMS // max(batch * n_in, 1))
        for start in range(0, k * n_in, rows):
            t, a = np.divmod(np.arange(start, min(start + rows, k * n_in)), n_in)
            # (v_t v_t^T * x)[a], one buffer per factor
            pair = v.T[t]
            np.multiply(v[a, t, None], pair, out=pair)
            terms = x[:, a]
            np.multiply(pair, terms, out=terms)
            targets = idx.T[t]
            targets += idx[a, t, None] * n_out
            np.add.at(y, _stacked(targets, n_out * n_out, batch), terms.ravel())
        y = y.reshape(*lead, n_out, n_out)
        y.setflags(write=False)
        return y

    def _diagonal_and_hops(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal and the one-hop entries, in the layout reduce_one
        reads, scattered from the source's own through the plan, which the
        first read builds.

        Hop (p, q) at u, of the source, lands on hop (p, q) at the rank of
        u + k_t, which the plan's hop index holds.
        """
        source, cell = self.source, self.cell
        d, m, l = cell.d, cell.m, cell.l
        idx, v, hop_index = cell.plan
        x_diagonal, x_hops = source._diagonal_and_hops()
        lead = x_diagonal.shape[:-1]
        batch, n_out, n_hop = math.prod(lead), dim(d, l), dim(d, l - 1)
        # the dense matrix's diagonal is a strided view, and OpenBLAS sums a
        # unit-stride vector in another order than a strided one; a clone of
        # this output dots its diagonal with the map's weights, so it gets a
        # strided view too, and the bits it gets from a dense source
        diagonal = np.zeros((batch * n_out, 2), dtype=np.complex128)[:, 0]
        hops = np.zeros((d * (d - 1), batch * n_hop), dtype=np.complex128)
        # np.add.at adds in index order onto +0.0, as the dense loop adds in
        # k order (see CloneAmplitudes.plan), with real and imaginary parts
        # apart, so the sums agree bit for bit; numpy's fast path takes only
        # 1-D index and value arrays, so each operator's targets are offset by
        # its place in the stack, and a single operator is not offset at all
        np.add.at(
            diagonal, _stacked(idx, n_out, batch), ((v * v) * x_diagonal[..., ::-1, None]).ravel()
        )
        parts = (
            diagonal.reshape(*lead, n_out),
            hops.reshape(len(hops), batch, n_hop).swapaxes(0, 1).reshape(*lead, len(hops), n_hop),
        )
        if not m:  # a single input state: no one-hop pairs, and no reduction plan
            return parts
        # g[i, r, t] = alpha(u + e_i, k_t), u the weight-(m-1) composition of
        # the plan's hop row r
        g = v[len(v) - 1 - source.basis.hop_ranks[:, ::-1]]
        p, q = source.basis.moves
        move = {(p_j, q_j): j for j, (p_j, q_j) in enumerate(zip(p.tolist(), q.tolist()))}
        targets = _stacked(hop_index, n_hop, batch)
        # each move writes only its own row, so one move at a time keeps every
        # entry's order; moves (p, q) and (q, p) share the real product
        # alpha(u + e_p, k) alpha(u + e_q, k), and every move's terms fill
        # one buffer that all of them reuse
        pair = np.empty(hop_index.shape)
        terms = np.empty((*lead, *hop_index.shape), dtype=np.complex128)
        for p_j in range(d):
            for q_j in range(p_j + 1, d):
                np.multiply(g[p_j], g[q_j], out=pair)
                for j in (move[p_j, q_j], move[q_j, p_j]):
                    np.multiply(pair, x_hops[..., j, ::-1, None], out=terms)
                    np.add.at(hops[j], targets, terms.ravel())
        return parts

    def _weights_and_parts(self):
        """cell.reduced_map with the move levels, and the source's own
        diagonal and one-hop entries, which it weighs: reduce_one of the
        output reads nothing at weight l."""
        weights = (*self.cell.reduced_map, self.source.basis.moves)
        return weights, self.source._diagonal_and_hops()


def _stacked(index: np.ndarray, size: int, batch: int) -> np.ndarray:
    """index raveled once per operator of a stack, the b-th offset by b * size."""
    if batch == 1:
        return index.ravel()
    return (index + (np.arange(batch) * size)[:, None, None]).ravel()


def clone_channel(op: SymOperator, l: int) -> CloneOutput:
    """Extend a weight-m symmetric operator to weight l, ancilla traced out.

    Y[a+k, b+k] += X[a, b] alpha(a, k) alpha(b, k), summed over all added
    compositions k in canonical order.  Linear in X, trace-preserving, and
    the identity channel at l = m; a stack of inputs gives a stack of
    outputs.  The amplitude table's guard applies before anything is
    enumerated.  The output holds the input and the table: the channel
    plan is built when the dense view or a clone of the output reads it,
    and reduce_one builds the table's reduced map instead.
    """
    return CloneOutput(op, clone_amplitudes(op.d, op.m, l))


def uqcm_pure_output(d: int, n: int, m: int) -> SymOperator:
    """Output of cloning n identical level-0 particles into m copies.

    Diagonal over the weight-m basis, with weight alpha(seed, k)^2 on each
    reachable output composition.
    """
    if n < 1:
        raise InvalidParameterError(f"need at least one input copy, got {n}")
    if m < n:
        raise InvalidParameterError(f"need m >= n, got m={m}, n={n}")
    return clone_channel(basis_projector((n,) + (0,) * (d - 1)), m)


def isometry_gram(d: int, m: int, l: int) -> np.ndarray:
    """Gram matrix of the cloning isometry columns over the input basis.

    Entry (a, b) is sum_k alpha(a, k) alpha(b, k) [a+k == b+k], with a+k
    located by its rank in the output basis, as the channel locates it.  The
    identity on the diagonal is the amplitude normalization; off it, the
    rank's injectivity on each {a + k}.  The transformation is an isometry
    iff this is the identity.
    """
    idx, v, _ = clone_amplitudes(d, m, l).plan
    n, k = idx.shape
    # the plan's columns in t order, each over the inputs in ascending rank;
    # a block of whole columns at a time, whose running sum along t, started
    # from the Gram so far, adds each entry's terms strictly in t order
    idx, v = idx[::-1].T, v[::-1].T
    columns = max(1, BLOCK_TERMS // (n * n))
    gram = np.zeros((n, n))
    for start in range(0, k, columns):
        i, w = idx[start : start + columns], v[start : start + columns]
        block = (w[:, :, None] * w[:, None, :]) * (i[:, :, None] == i[:, None, :])
        block[0] += gram
        gram = np.add.accumulate(block, axis=0, out=block)[-1].copy()
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
