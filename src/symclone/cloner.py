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
    enumerate_basis,
    guarded_dims,
    pascal,
    sum_ranks,
)

DENSE_GUARD = 1 << 22  # complex entries of a dense channel output (64 MiB)
# terms per block of the dense view and the Gram matrix; the reduced map's
# blocks take BLOCK_TERMS // n_in columns, one level's terms at a time, into
# buffers reused by every block
BLOCK_TERMS = 1 << 14


def _prefactor(d: int, m: int, l: int) -> Fraction:
    # (l-m)! (m+d-1)! / (l+d-1)! is 1 / C(l+d-1, l-m), as (l-m) + (m+d-1) = l+d-1
    return Fraction(1, math.comb(l + d - 1, l - m))


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
    def plan(self) -> tuple[np.ndarray, np.ndarray]:
        """The channel plan: read-only (n_in, K) arrays idx and v.

        Row i holds the i-th input composition a and column t the t-th
        added composition k_t, as the table does: the index of a + k_t in
        the output basis (sum_ranks of the input and the added
        compositions) and the amplitude alpha(a, k_t).

        The targets within one column are distinct, so a reader that takes
        the columns in t order adds each output entry's terms in t order,
        whatever the order of the rows.  Only the dense view and the Gram
        matrix read the plan; reduce_one reads reduced_map.
        """
        d, m, l = self.d, self.m, self.l
        v = np.sqrt(self._squared())
        added = enumerate_basis(d, l - m).counts
        idx = sum_ranks(enumerate_basis(d, m).counts, added, l)
        idx.setflags(write=False)
        v.setflags(write=False)
        return idx, v

    @cached_property
    def reduced_map(self) -> tuple[np.ndarray, np.ndarray]:
        """reduce_one after the channel, as read-only weights on the input's
        diagonal and one-hop entries, l >= 1: W_diag and W_hop, complex128
        with every imaginary part +0.0.  reduce_one weighs complex entries
        by them, and numpy has no float-by-complex loop: float weights would
        be cast to complex on every call.  Cast once here, they give every
        product and matmul the same operands, and so the same bits.

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
        the output's reduction, and nothing at weight l is built.  At l = m
        the channel is the identity, K = 1 and every amplitude 1, so the map
        is the plain reduction, W_diag[i, a] = a_i/m and W_hop =
        sqrt(u_p + 1) sqrt(u_q + 1)/m: reduce_one weighs a plain operator
        by it (SymOperator._source_and_table).

        Built from the float squared amplitudes and the input basis's
        hop_ranks, BLOCK_TERMS terms at a time along K: each term
        alpha(a, k_t)^2 (a + k_t)_i serves W_diag, and its square root
        alpha(a, k_t) sqrt((a + k_t)_i), taken at a = u + e_i, the one
        product per unordered pair (p, q) that W_hop's moves (p, q) and
        (q, p) share.  Elementwise products and numpy sums, no BLAS call,
        so the bits do not depend on its thread count.

        Three float buffers, of w = min(BLOCK_TERMS // n_in, K) columns,
        are allocated once per call and reused by every block: one level's
        terms (n_in, w), every level's roots at its hop rows (d, n_u, w),
        n_u = dim(d, m-1), and one level's pair products (d-1, n_u, w).  A
        block writes into them in place.  It reads its squared amplitudes
        once; then, one level i at a time, it writes (a_i + k_t,i) alpha^2
        into the terms, sums their rows into row i of the block's diagonal
        sums and gathers their hop rows (np.take) into the roots' row i.
        It adds the diagonal sums to W_diag and roots the gathers, then for
        each level a takes the products of its pairs (a, a+1), ..., (a, d-1),
        one slice, summed into that slice of the block's pair sums.  So the
        block's transient is a fixed few times BLOCK_TERMS doubles, with no
        all-levels-, gather- or pair-sized temporary.  Every element, and
        every contiguous sum over w, is the one a (d, n_in, w) block of all
        levels' terms holds.  Each block, the last and narrower one too,
        works on C-contiguous prefixes of the buffers, the shapes a block of
        fresh arrays has: every product is the same one, and every sum along
        K runs over a contiguous axis of the block's width, which numpy sums
        pairwise, not one term at a time, so the map keeps its bits.  The
        sums are divided by l as doubles and only then cast to complex.
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
        w_diag, w_hop = ((a / l).astype(np.complex128) for a in (w_diag, w_hop))
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
    before any exact binomial is taken (see guarded_dims).

    The table is built one level at a time, in place: each input's row of
    the Pascal grid, then the added compositions' columns of it, taken into
    one reused (n_in, K) factor and multiplied into the table.  So the
    build holds the table, one factor and the small row gathers, about 2.2
    times the table.
    """
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
    """clone_channel's output: its input operator (source) and table (cell).

    A stack of sources gives a stack of outputs.  reduce_one weighs the
    source's own diagonal and one-hop entries by cell.reduced_map, as it
    weighs a plain operator's by its identity table's (_source_and_table),
    so a reduce-only output builds no plan and nothing at weight l, not
    even its basis, which is built on first read.  entries is a dense view,
    built on first read through cell.plan and refused beyond DENSE_GUARD
    entries.
    The source is never itself a clone output: clone_channel composes a
    chain into one table (see there).
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
        +0.0, and each output keeps the bits it has alone.
        """
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
    """Extend a weight-m symmetric operator to weight l, ancilla traced out.

    Y[a+k, b+k] += X[a, b] alpha(a, k) alpha(b, k), summed over all added
    compositions k in canonical order.  Linear in X, trace-preserving, and
    the identity channel at l = m; a stack of inputs gives a stack of
    outputs.  The amplitude table's guard applies before anything is
    enumerated.  The output holds the input and the table: the channel
    plan is built when the dense view reads it, and reduce_one builds the
    table's reduced map instead.

    A clone of a clone output is one clone of its source: S_l (S_m' (x) 1)
    = S_l, so T_{m'->l} T_{m->m'} = T_{m->l} (R. F. Werner, PRA 58, 1827
    (1998)).  A chain m -> m' -> l costs one clone and holds the table of
    (d, m, l), whose guard alone admits or refuses it.
    """
    if isinstance(op, CloneOutput):
        if l < op.m:
            raise InvalidParameterError(f"need l >= m, got l={l}, m={op.m}")
        op = op.source
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
    """Two-stage n -> m -> l cloning next to direct n -> l cloning.

    Returns (two-stage output, direct output); the two are equal.  The
    second stage clones the first's dense view as a plain operator, so the
    composition law that clone_channel assumes for a chain is tested here.
    """
    if not 1 <= n <= m <= l:
        raise InvalidParameterError(f"need 1 <= n <= m <= l, got n={n}, m={m}, l={l}")
    mid = uqcm_pure_output(d, n, m)
    via = clone_channel(SymOperator(mid.basis, mid.entries), l)
    direct = uqcm_pure_output(d, n, l)
    return via, direct
