"""Symmetric-subspace combinatorics for collections of d-level systems.

The permutation-invariant subspace of M qudits is spanned by occupation-number
states: each basis vector is labelled by a composition, a length-d vector of
nonnegative counts summing to M.  Everything downstream (cloning channels,
closed forms, the brute-force oracle, file formats) works in this basis.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

# exact entries of an amplitude table: 8 B each as int64, 8-50 B as Python ints
# (measured); 8 times it bounds entries times levels, of a table or a basis
AMPLITUDE_GUARD = 1 << 20
DENSITY_TOL = 1e-9  # Hermiticity and unit trace of a density operator, max entry deviation


class InvalidParameterError(ValueError):
    """Arguments violate a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A dense object would exceed a memory guard."""


def composition(counts) -> tuple[int, ...]:
    """Occupation numbers of d >= 2 levels as a tuple of ints; the weight is
    their sum.  Rejects non-integers, fewer than 2 levels and negative counts."""
    try:
        counts = tuple(operator.index(c) for c in counts)
    except TypeError:
        raise InvalidParameterError(f"occupations must be integers, got {counts!r}") from None
    if len(counts) < 2:
        raise InvalidParameterError(f"need at least 2 levels, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise InvalidParameterError(f"negative occupation in {counts}")
    return counts


def _compositions(d: int, m: int) -> np.ndarray:
    """All compositions of m into d parts as rows, lexicographically decreasing."""
    counts, splits = [], []
    left = np.array([m])
    for _ in range(d - 1):
        if not left.any():
            break  # every later count is 0
        # each prefix splits into left + 1 prefixes whose next count runs left, ..., 0
        reps = left + 1
        within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts.append(np.repeat(left, reps) - within)
        splits.append(reps)
        left = within
    rows = np.zeros((len(left), d), dtype=np.int64)
    rows[:, len(splits)] = left
    # each column is written once, a prefix's count repeated over the rows under it
    under = np.ones(len(left), dtype=np.int64)
    for j in range(len(splits) - 1, -1, -1):
        rows[:, j] = np.repeat(counts[j], under)
        under = np.add.reduceat(under, np.cumsum(splits[j]) - splits[j])
    return rows


def sum_ranks(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Canonical basis index [i, j] of each weight-m row sum a[i] + b[j], int64.

    Closed form (hockey-stick identity): the compositions before c are those
    that first exceed it at some position i < d - 1, which number
    C(rest_i + p_i - 1, p_i) with rest_i = m - (c_0 + ... + c_i) the weight
    left after position i and p_i = d - i - 1 the positions after it.
    Prefix sums add, so rest_i = m - A_i - B_i from the prefix sums A of a
    and B of b, and no sum is built.  The positions are looked up and added
    a block of rows at a time: one row per block once the output has 2**16
    entries, so the transient is one index block and its lookup, not d - 1
    of each; a wide basis with a small output takes many rows per block.
    composition_rank is the case of one zero row b.

    table[q, r] = C(r + q - 1, q) for r <= m: column 0 is zero and the
    columns after it are pascal(d, m), so no entry exceeds dim(d, m) and
    none overflows int64 before the basis does.
    """
    d = a.shape[-1]
    table = np.zeros((d, m + 1), dtype=np.int64)
    table[:, 1:] = pascal(d, max(m, 0), np.int64)
    # row p_i of the flat table starts at p_i (m + 1)
    base = m + (m + 1) * np.arange(d - 1, 0, -1)
    prefix_a = np.cumsum(a[:, :-1], axis=1).T
    prefix_b = np.cumsum(b[:, :-1], axis=1).T
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    rows = max(1, (1 << 16) // max(out.size, 1))
    rest = np.empty((min(rows, d - 1), len(a), len(b)), dtype=np.int64)
    for start in range(0, d - 1, rows):
        block = rest[: min(rows, d - 1 - start)]
        at = slice(start, start + len(block))
        np.subtract(
            (base[at, None] - prefix_a[at])[:, :, None], prefix_b[at, None, :], out=block
        )
        # the block's indices are spent once taken, so its first row takes their sum
        out += np.sum(table.ravel().take(block), axis=0, out=block[0])
    return out


def composition_rank(counts: np.ndarray, m: int) -> np.ndarray:
    """Canonical basis index of each weight-m composition along the last axis."""
    d = counts.shape[-1]
    zero = np.zeros((1, d), dtype=np.int64)
    return sum_ranks(counts.reshape(-1, d), zero, m).reshape(counts.shape[:-1])


def pascal(rows: int, cols: int, dtype) -> np.ndarray:
    """grid[a, b] = C(a + b, b) for a < rows and b < cols, in dtype.

    Row a is the running sum of row a - 1 (hockey stick).  The grid is
    symmetric, so it is built along its longer axis, one cumsum per step of
    the shorter one, and transposed if that axis is the rows.
    """
    short, long = sorted((rows, cols))
    grid = np.ones((short, long), dtype=dtype)
    for a in range(1, short):
        np.cumsum(grid[a - 1], out=grid[a])
    return grid if short == rows else grid.T


@dataclass(frozen=True)
class SymBasis:
    """Canonical ordering of all compositions of weight m into d parts.

    counts holds the compositions as the rows of a read-only (N, d) integer
    array, lexicographically decreasing, so for d = 2 the basis index equals
    the number of particles in level 1.
    """

    d: int
    m: int
    counts: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.counts)

    @cached_property
    def moves(self) -> tuple[np.ndarray, np.ndarray]:
        """The move levels p and q of every off-diagonal pair (p, q), p != q,
        as read-only vectors in (p, q) order: the row order of every
        operator's one-hop array and of a reduced map's W_hop, and where
        reduce_one adds each row's total."""
        moves = np.nonzero(~np.eye(self.d, dtype=bool))
        for levels in moves:
            levels.setflags(write=False)
        return moves

    @cached_property
    def hop_ranks(self) -> np.ndarray:
        """The read-only (d, dim(d, m - 1)) table of ranks: entry [i, j] is
        the rank of u + e_i, u the j-th composition of weight m - 1; (d, 0)
        at m = 0.

        The compositions of weight m with c_i >= 1 are exactly the u + e_i,
        and adding e_i keeps the lex order, so row i lists the ranks of the
        compositions with c_i >= 1, ascending: the nonzero entries of
        counts' column i, and no basis of weight m - 1 is built.  It is
        read to build a table's reduced map at its input weight and, as
        hop_entries, to gather an operator's own hops
        (SymOperator._diagonal_and_hops); every reduction weighs a source's
        hops by that map, so nothing reads it at a clone's output weight.
        """
        # nonzero's column indices are a strided view of its (nnz, 2) result
        ranks = np.nonzero(self.counts.T)[1].reshape(self.d, -1).copy()
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def hop_entries(self) -> np.ndarray:
        """The read-only (d(d-1), dim(d, m - 1)) flat indices of every hop
        in an N x N matrix raveled: row j, of move (p, q) in moves order,
        holds hop_ranks[p] N + hop_ranks[q], m >= 1.  One take along the
        raveled entries gathers every hop of an operator or a stack."""
        p, q = self.moves
        entries = self.hop_ranks[p] * self.size + self.hop_ranks[q]
        entries.setflags(write=False)
        return entries


@lru_cache(maxsize=None)
def enumerate_basis(d: int, m: int) -> SymBasis:
    """All compositions of m into d parts, in canonical (lex-decreasing) order;
    refused, before anything is allocated, beyond clone_amplitudes' bound of
    8 * AMPLITUDE_GUARD entries times levels (see guarded_dims)."""
    size = guarded_dims(d, m)
    if size is None or size * d > 8 * AMPLITUDE_GUARD:
        raise ResourceLimitError(
            f"basis exceeds the guard of {8 * AMPLITUDE_GUARD} entries times levels"
        )
    counts = _compositions(d, m)
    counts.setflags(write=False)
    return SymBasis(d=d, m=m, counts=counts)


def guarded_dims(d: int, *weights: int) -> int | None:
    """The exact product of dim(d, n) over weights, or None where the cheap
    bound dim(d, n) = C(n + d - 1, k) >= 2**k, k = min(n, d - 1), puts it
    times d past 8 * AMPLITUDE_GUARD before any exact binomial is taken.
    Refusals should print no size from the request, which may have more
    digits than Python formats."""
    if d >= 2 and min(weights) >= 0:
        bits = sum(min(n, d - 1) for n in weights)
        if d > 8 * AMPLITUDE_GUARD or bits >= (8 * AMPLITUDE_GUARD).bit_length():
            return None
    return math.prod(dim(d, n) for n in weights)


def dim(d: int, m: int) -> int:
    """Dimension of the symmetric subspace of m qudits: C(m+d-1, d-1), exact."""
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if m < 0:
        raise InvalidParameterError(f"particle number must be >= 0, got {m}")
    return math.comb(m + d - 1, d - 1)


@dataclass(frozen=True, eq=False)
class SymOperator:
    """Complex square matrix over the symmetric basis of (d, m), or a stack.
    An operator on one site is one of weight 1 (see reduce_one).

    entries is one N x N matrix, N = basis.size, or a (B, N, N) stack of B
    of them; any other shape is rejected.  The channel is linear, so every
    function that takes an operator takes a stack too and returns the stack
    of what it returns for each: reduce_one, clone_channel and its
    output's entries, oracle_clone, and the random draws with a count.
    Each operator of a stack keeps the bits it has alone.  trace and
    validate_density read one operator and refuse a stack, and a document
    holds one.
    """

    basis: SymBasis
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        n = self.basis.size
        if entries.ndim not in (2, 3) or entries.shape[-2:] != (n, n):
            raise InvalidParameterError(
                f"expected a {n}x{n} matrix or a stack of them over the basis of "
                f"(d={self.basis.d}, m={self.basis.m}), got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def m(self) -> int:
        return self.basis.m

    def trace(self) -> complex:
        _refuse_a_stack(self.entries, "trace")
        return complex(np.trace(self.entries))

    def _diagonal_and_hops(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The diagonal, a view, and the one-hop entries as a (d(d-1),
        dim(d, m-1)) array in the layout of a reduced map's W_hop: one
        row per move (p, q), the entries at rows hop_ranks[p] and columns
        hop_ranks[q].  They are gathered by one take of basis.hop_entries
        along the (..., N N) view of the entries, which builds no index
        array per call; a gather copies, so each hop has its entry's bits.
        At m = 0 there are no hops, and None stands for them.  A stack
        gives a (B, N) and a (B, d(d-1), dim(d, m-1)) array.
        """
        diagonal = np.diagonal(self.entries, axis1=-2, axis2=-1)
        if not self.m:
            return diagonal, None
        lead, n = self.entries.shape[:-2], self.basis.size
        flat = self.entries.reshape(*lead, n * n)
        return diagonal, flat.take(self.basis.hop_entries, axis=-1)

    def _source_and_table(self):
        """What reduce_one weighs: a plain operator is the identity clone's
        output, T_{m->m} = id, so its own entries and the table of (d, m, m)."""
        # cloner imports this module, so the table is reached at call time
        from .cloner import clone_amplitudes

        return self, clone_amplitudes(self.d, self.m, self.m)

    def validate_density(self, check_psd: bool = False) -> None:
        """Check Hermiticity and unit trace (max entry deviation <= DENSITY_TOL).

        Positivity is advisory: only the trace condition is required of
        inputs, so with check_psd a negative eigenvalue below -DENSITY_TOL
        warns rather than rejects.
        """
        _refuse_a_stack(self.entries, "validate_density")
        if not np.isfinite(self.entries).all():
            raise InvalidParameterError("entries must be finite")
        dev = float(np.max(np.abs(self.entries - self.entries.conj().T)))
        if dev > DENSITY_TOL:
            raise InvalidParameterError(
                f"not Hermitian within {DENSITY_TOL:g} (max deviation {dev:.3e})"
            )
        tr = self.trace()
        if abs(tr - 1.0) > DENSITY_TOL:
            raise InvalidParameterError(
                f"trace must be 1 within {DENSITY_TOL:g}, got {tr:.12g}"
            )
        if check_psd:
            lowest = float(np.linalg.eigvalsh(self.entries).min())
            if lowest < -DENSITY_TOL:
                warnings.warn(f"operator has negative eigenvalue {lowest:.3e}")


def _refuse_a_stack(entries: np.ndarray, name: str) -> None:
    if entries.ndim != 2:
        raise InvalidParameterError(f"{name} reads one operator, got a stack of {len(entries)}")


def sym_operator(d: int, m: int, entries) -> SymOperator:
    """Wrap a dense matrix as an operator over the canonical basis of (d, m)."""
    return SymOperator(enumerate_basis(d, m), entries)


def basis_dyad(a, b) -> SymOperator:
    """|a><b| over the canonical basis; a and b are counts of one d and weight."""
    a, b = composition(a), composition(b)
    if len(a) != len(b) or sum(a) != sum(b):
        raise InvalidParameterError("dyad endpoints must live in the same basis")
    basis = enumerate_basis(len(a), sum(a))
    i, j = composition_rank(np.array([a, b]), basis.m)
    entries = np.zeros((basis.size, basis.size), dtype=np.complex128)
    entries[i, j] = 1.0
    return SymOperator(basis, entries)


def basis_projector(c) -> SymOperator:
    """|c><c| over the canonical basis."""
    return basis_dyad(c, c)


def reduce_one(op: SymOperator) -> SymOperator:
    """Single-site reduced operator of a symmetric-subspace operator, m >= 1.

    One site is the weight-1 symmetric subspace, whose basis index is the
    level (row i of enumerate_basis(d, 1).counts is e_i), so the reduction
    is a d x d operator of weight 1.  Reducing one gives back its finite
    entries bit for bit, but for a -0.0 part, which becomes +0.0.
    Linear and trace-preserving for arbitrary (not necessarily Hermitian or
    positive) inputs.  For permutation-invariant operators every site gives
    the same reduction, which is what this computes from diagonal and
    one-hop entries; a stack gives a stack.  Every operator reduces as a
    clone output (op._source_and_table): its source's diagonal and hops,
    weighed by its table's reduced_map.  A plain operator of weight m is
    the identity clone's output, its own source with the table of
    (d, m, m); a clone output gives its source and cell.

    The map's weights are complex128 with +0.0 imaginary parts, the dtype
    they are applied in: numpy has no float-by-complex loop, so float
    weights would be cast on every call, to the same operands.  Each
    diagonal entry is one vector dot per operator, the whole stack in one
    matmul of (1, N) rows by (N, 1) columns: OpenBLAS sums a (d, N)
    matrix-vector product in another order than a dot.  Each off-diagonal
    entry (p, q) sums its move's terms strictly in basis order, by a
    running sum along the move's row, and only the row totals are added to
    the zeroed output.  That is the order and the +0.0 start of np.add.at
    over every term, so a row of -0.0 terms still gives +0.0.  The terms
    are a new array: a source may hand out hops it holds.  Each operator
    of a stack keeps the bits it has alone.
    """
    if op.m < 1:
        raise InvalidParameterError("single-site reduction needs at least one particle")
    d = op.d
    source, table = op._source_and_table()
    w_diag, w_hop = table.reduced_map
    diagonal, hops = source._diagonal_and_hops()
    p, q = source.basis.moves
    lead = diagonal.shape[:-1]
    out = np.zeros((*lead, d, d), dtype=np.complex128)
    # a stack of (1, N) @ (N, 1) products, each the dot w_diag[i] @ x
    out.reshape(*lead, d * d)[..., :: d + 1] = np.matmul(
        w_diag[:, None, :], diagonal[..., None, :, None]
    )[..., 0, 0]
    if hops is not None:  # a clone of a single input state has no hops to weigh
        terms = w_hop * hops
        np.add.at(out, (..., p, q), np.add.accumulate(terms, axis=-1, out=terms)[..., -1])
    return sym_operator(d, 1, out)
