"""The symmetric subspace of m d-level systems: its basis of compositions
(count vectors summing to m), operators over it, and their reduction."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

ENTRY_GUARD = 1 << 20  # entries of an exact table, oracle array or grid; dense 4x, basis counts 8x
DENSITY_TOL = 1e-9  # Hermiticity and unit trace of a density operator, max entry deviation


class InvalidParameterError(ValueError):
    """Arguments violate a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An array would exceed its multiple of ENTRY_GUARD."""


def require_room(count: int | None, what: str, times: int = 1) -> None:
    """Raise ResourceLimitError, with no size from the request (it may pass str's
    digit limit), if count entries, None when vast, exceed times * ENTRY_GUARD."""
    limit = times * ENTRY_GUARD
    if count is None or count > limit:
        raise ResourceLimitError(f"{what} exceeds the guard of {limit} entries")


def composition(counts) -> tuple[int, ...]:
    """counts as a tuple of ints.  Raises InvalidParameterError for a
    non-integer, fewer than 2 levels or a negative count."""
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
    """Basis index of each weight-m row sum a[i] + b[j], an int64
    (len(a), len(b)) array, computed without building the sums."""
    d = a.shape[-1]
    # rank(c) = sum_i C(rest_i + p_i - 1, p_i), rest_i = m - A_i - B_i (prefix
    # sums), p_i = d - i - 1; no C(r + p - 1, p) in the table exceeds dim(d, m)
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
    """Basis index of each weight-m composition along the last axis, int64."""
    d = counts.shape[-1]
    zero = np.zeros((1, d), dtype=np.int64)
    return sum_ranks(counts.reshape(-1, d), zero, m).reshape(counts.shape[:-1])


def pascal(rows: int, cols: int, dtype) -> np.ndarray:
    """grid[a, b] = C(a + b, b) for a < rows and b < cols, in dtype."""
    short, long = sorted((rows, cols))
    # the grid is symmetric: one running sum per step of its shorter axis
    grid = np.ones((short, long), dtype=dtype)
    for a in range(1, short):
        np.cumsum(grid[a - 1], out=grid[a])
    return grid if short == rows else grid.T


@dataclass(frozen=True)
class SymBasis:
    """The compositions of m into d parts as the rows of counts, a read-only
    (N, d) int64 array, lexicographically decreasing."""

    d: int
    m: int
    counts: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.counts)

    @cached_property
    def moves(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only level vectors p and q of every move (p, q), p != q, in
        (p, q) order, the row order of every hop array and of W_hop."""
        moves = np.nonzero(~np.eye(self.d, dtype=bool))
        for levels in moves:
            levels.setflags(write=False)
        return moves

    @cached_property
    def hop_entries(self) -> np.ndarray:
        """Read-only (d(d-1), dim(d, m - 1)) int64 indices r_p N + r_q of
        every hop in a raveled N x N matrix, r_i the rank of u + e_i and u
        the composition of weight m - 1 in its column, m >= 1."""
        # the u + e_i are the compositions with c_i >= 1, in u's order
        ranks = np.nonzero(self.counts.T)[1].reshape(self.d, -1)
        p, q = self.moves
        entries = ranks[p] * self.size + ranks[q]
        entries.setflags(write=False)
        return entries


@lru_cache(maxsize=None)
def enumerate_basis(d: int, m: int) -> SymBasis:
    """The SymBasis of (d, m), cached.  Raises InvalidParameterError for
    d < 2 or m < 0, and ResourceLimitError, before anything is allocated,
    when its dim(d, m) * d counts exceed 8 * ENTRY_GUARD."""
    require_room(guarded_dims(d, m, 1), "basis", times=8)
    counts = _compositions(d, m)
    counts.setflags(write=False)
    return SymBasis(d=d, m=m, counts=counts)


def guarded_dims(d: int, *weights: int) -> int | None:
    """The exact product of dim(d, n) over weights, (m, 1) for a basis's
    counts and (m, m) for an operator's entries, or None, before any exact
    binomial, when d or dim(d, n) >= 2**min(n, d - 1) passes 8 * ENTRY_GUARD."""
    if d >= 2 and min(weights) >= 0:
        bits = sum(min(n, d - 1) for n in weights)
        if d > 8 * ENTRY_GUARD or bits >= (8 * ENTRY_GUARD).bit_length():
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
    """An operator over the basis of (d, m): entries, read-only complex128,
    is (N, N), N = basis.size, or a (B, N, N) stack; another shape raises
    InvalidParameterError.  What takes an operator takes a stack and gives
    each operator's bits alone; trace and validate_density refuse one."""

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
        """The (N,) diagonal view and a (d(d-1), dim(d, m-1)) copy of the
        hops in W_hop's layout, None at m = 0, each with a leading B axis."""
        diagonal = np.diagonal(self.entries, axis1=-2, axis2=-1)
        if not self.m:
            return diagonal, None
        lead, n = self.entries.shape[:-2], self.basis.size
        flat = self.entries.reshape(*lead, n * n)
        return diagonal, flat.take(self.basis.hop_entries, axis=-1)

    def _source_and_map(self):
        """What reduce_one weighs: a plain operator is its own identity
        clone's source, with the reduced map of (d, m, m)."""
        # cloner imports this module, so the map is reached at call time
        from .cloner import reduced_map

        return self, reduced_map(self.d, self.m, self.m)

    def validate_density(self, check_psd: bool = False) -> None:
        """Raise InvalidParameterError for a stack, a non-finite entry, or a
        deviation from Hermiticity or unit trace over DENSITY_TOL; check_psd
        warns, never refuses, on an eigenvalue below -DENSITY_TOL."""
        _refuse_a_stack(self.entries, "validate_density")
        if not np.isfinite(self.entries).all():
            raise InvalidParameterError("entries must be finite")
        require_hermitian(self.entries)
        tr = self.trace()
        if abs(tr - 1.0) > DENSITY_TOL:
            raise InvalidParameterError(
                f"trace must be 1 within {DENSITY_TOL:g}, got {tr:.12g}"
            )
        if check_psd:
            lowest = float(np.linalg.eigvalsh(self.entries).min())
            if lowest < -DENSITY_TOL:
                warnings.warn(f"operator has negative eigenvalue {lowest:.3e}")


def require_hermitian(entries: np.ndarray) -> None:
    """Raise InvalidParameterError, with the first offender's deviation, if
    a matrix of (..., N, N) entries is not Hermitian within DENSITY_TOL."""
    defects = np.max(np.abs(entries - entries.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = defects > DENSITY_TOL
    if bad.any():
        raise InvalidParameterError(
            f"not Hermitian within {DENSITY_TOL:g} (max deviation {defects[bad][0]:.3e})"
        )


def _refuse_a_stack(entries: np.ndarray, name: str) -> None:
    if entries.ndim != 2:
        raise InvalidParameterError(f"{name} reads one operator, got a stack of {len(entries)}")


def sym_operator(d: int, m: int, entries) -> SymOperator:
    """SymOperator(enumerate_basis(d, m), entries), with their refusals."""
    return SymOperator(enumerate_basis(d, m), entries)


def basis_dyad(a, b) -> SymOperator:
    """|a><b|.  Raises InvalidParameterError unless a and b are counts of
    one d and weight, and ResourceLimitError, before the basis is
    enumerated, past 4 * ENTRY_GUARD entries."""
    a, b = composition(a), composition(b)
    if len(a) != len(b) or sum(a) != sum(b):
        raise InvalidParameterError("dyad endpoints must live in the same basis")
    require_room(guarded_dims(len(a), sum(a), sum(a)), "dense operator", times=4)
    basis = enumerate_basis(len(a), sum(a))
    i, j = composition_rank(np.array([a, b]), basis.m)
    entries = np.zeros((basis.size, basis.size), dtype=np.complex128)
    entries[i, j] = 1.0
    return SymOperator(basis, entries)


def basis_projector(c) -> SymOperator:
    """|c><c|, with basis_dyad's refusals."""
    return basis_dyad(c, c)


def reduce_one(op: SymOperator) -> SymOperator:
    """The (d, d) single-site reduction, of weight 1, of any operator or
    stack, linear and trace-preserving; at weight 1 it gives the finite
    entries' bits, +0.0 for -0.0.  Raises InvalidParameterError at m = 0."""
    if op.m < 1:
        raise InvalidParameterError("single-site reduction needs at least one particle")
    d = op.d
    source, (w_diag, w_hop) = op._source_and_map()
    diagonal, hops = source._diagonal_and_hops()
    p, q = source.basis.moves
    lead = diagonal.shape[:-1]
    out = np.zeros((*lead, d, d), dtype=np.complex128)
    # a stack of dots w_diag[i] @ x; a (d, N) matrix-vector product sums otherwise
    out.reshape(*lead, d * d)[..., :: d + 1] = np.matmul(
        w_diag[:, None, :], diagonal[..., None, :, None]
    )[..., 0, 0]
    if hops is not None:  # a clone of a single input state has no hops to weigh
        terms = w_hop * hops  # a new array: a source may hand out hops it holds
        # a running sum along each move's row: np.add.at's order and +0.0 start
        np.add.at(out, (..., p, q), np.add.accumulate(terms, axis=-1, out=terms)[..., -1])
    return sym_operator(d, 1, out)
