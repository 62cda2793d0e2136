"""Exact integer and rational linear algebra on dense matrices.

Everything here is arbitrary-precision: matrix entries are Python ints,
rational results are ``fractions.Fraction``. The module provides Hermite
and Smith normal forms with their unimodular transforms, integer and
rational linear solving, kernel lattices, lattice membership, and the
plain-text matrix/vector formats used by the command line tools.

Linear solves factor each matrix once: ``_solve_map`` caches an integer
matrix, as the nonzeros of each row, and a common denominator that turn
the target's pivot entries into the solution, so each target costs one
product per nonzero plus the check ``A @ x == v`` on the rows off the
pivots.  That check and ``mat_vec`` read one cached sparse view of the
rows, ``_sparse_rows``.  Lattice membership is an integer solve against
the transposed HNF basis.  Forward substitution against the HNF, the
route the map encodes, stays in the tests as its oracle.

Gauss-Jordan elimination over Q and over F_q has one step, ``_pivot``:
fraction-free (Bareiss, with lazy row scales), it keeps each reduced row
times a scale.  ``_reduced_echelon`` (read off by the face oracle, the
global candidate lines and the finite-field systems), ``det`` and the
simplex tableau pivot through it.  Textbook Gauss-Jordan and the
``Fraction`` simplex stay in the tests as its oracles.

The lattice side has one clearing step too: ``_clear_column`` zeroes a
column below its pivot by exact division or an extended-gcd 2x2 block.
The Hermite form runs it below each pivot, and the Smith form runs it
down the pivot's column and, on the transposes, along its row.  The
former inline loops stay in the tests as its oracle.

Conventions:

* Matrices act on column vectors: ``A`` with shape (rows, cols) maps
  Z^cols -> Z^rows.
* The Hermite normal form is row-style: ``h = u @ m`` with ``u``
  unimodular, pivots positive, entries above each pivot reduced into
  ``[0, pivot)``, and zero rows last.
* The Smith normal form is ``d = u @ m @ v`` with both transforms
  unimodular, diagonal entries nonnegative, and each dividing the next.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatchError,
    FormatError,
    NotUnimodularError,
)

# Rational numbers are fractions.Fraction throughout: construction
# normalizes to lowest terms with a positive denominator, which is the
# canonical-form invariant the rest of the library relies on.
Rational = Fraction

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]

#: The entry type of a vector that needs no conversion, for one type scan.
_INT = frozenset({int})


def l1_norm(vec: Sequence) -> Fraction | int:
    """Sum of absolute values; exact for ints and Fractions alike."""
    return sum(map(abs, vec))


def primitive_ray(vec: Sequence[int]) -> IntVector:
    """Canonical representative of the line through ``vec``.

    Divides out the gcd and flips signs so the first nonzero entry is
    positive. The zero vector is returned unchanged.
    """
    g = math.gcd(*vec)
    if g == 0:
        return tuple(vec)
    scaled = [entry // g for entry in vec]
    for entry in scaled:
        if entry != 0:
            if entry < 0:
                scaled = [-e for e in scaled]
            break
    return tuple(scaled)


def disjoint_supports(rows: Sequence[Sequence]) -> tuple[IntVector, ...] | None:
    """The supports (positions of nonzero entries) of ``rows`` when no
    two rows share a position, else None."""
    supports = tuple(
        tuple(i for i, entry in enumerate(row) if entry) for row in rows
    )
    if sum(map(len, supports)) != len(set().union(*supports)):
        return None
    return supports


def integerize(vec: Sequence[Fraction]) -> IntVector:
    """Clear denominators: the primitive integer vector on the same ray."""
    denom = math.lcm(*(Fraction(entry).denominator for entry in vec))
    return primitive_ray([int(entry * denom) for entry in vec])


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    def __hash__(self) -> int:
        # Every lru_cache lookup hashes its key matrix; hashing the whole
        # entries tuple costs about a fifth of a solve on a large matrix,
        # so the hash is computed on first use and kept.  Most matrices
        # are never hashed, hence not in __post_init__.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", value)
            return value

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]], cols: int | None = None) -> IntMatrix:
        """The matrix with rows ``data``; ``cols`` is required when there
        are none.  Entries must convert to int unchanged: ``True``, an
        integral ``Fraction`` or any other integer type is taken at its
        value, while ``2.5``, ``"3"`` or ``Fraction(3, 2)`` raise
        ``DimensionMismatchError`` rather than be truncated, as do entries
        ``int`` cannot convert at all (``"x"``, ``None``, ``nan``, ``inf``)
        and rows, or data, that are not iterable (``[5]``, ``7``)."""
        try:
            given = [tuple(row) for row in data]
            row_list = [tuple(map(int, row)) for row in given]
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatchError(
                f"matrix entries must be integers: {exc}"
            ) from exc
        if row_list != given:
            bad = next(x for row in given for x in row if int(x) != x)
            raise DimensionMismatchError(
                f"matrix entries must be integers, got {bad!r}"
            )
        if row_list:
            width = len(row_list[0])
            if cols is not None and cols != width:
                raise DimensionMismatchError("cols does not match row width")
            for row in row_list:
                if len(row) != width:
                    raise DimensionMismatchError("ragged rows")
        else:
            if cols is None:
                raise DimensionMismatchError("cols required for a matrix with no rows")
            width = cols
        flat = tuple(itertools.chain.from_iterable(row_list))
        return cls(len(row_list), width, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> IntVector:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        flat = tuple(itertools.chain.from_iterable(map(self.column, range(self.cols))))
        return IntMatrix(self.cols, self.rows, flat)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_t = other.transpose()
        flat = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                right = other_t.row(j)
                flat.append(sum(a * b for a, b in zip(left, right)))
        return IntMatrix(self.rows, other.cols, tuple(flat))


@lru_cache(maxsize=512)
def _sparse_rows(m: IntMatrix) -> tuple[tuple[IntVector, IntVector], ...]:
    """The (columns, entries) of each row's nonzeros, cached per matrix
    for ``mat_vec``, ``_blocks`` and the solvers' check ``A @ x == v``."""
    columns = range(m.cols)
    compress = itertools.compress
    return tuple(
        (tuple(compress(columns, row)), tuple(compress(row, row)))
        for row in map(m.row, range(m.rows))
    )


def mat_vec(m: IntMatrix, x: Sequence) -> tuple:
    """Matrix times column vector; works for int and Fraction entries.

    Runs over the nonzeros of each row only, one plain accumulate loop
    per row, and returns what the dense product would: a dense row adds
    ``0 * x_j`` for every zero entry, so any ``Fraction`` in ``x`` makes
    every entry a ``Fraction``, a zero row's included."""
    if len(x) != m.cols:
        raise DimensionMismatchError(f"vector length {len(x)} != cols {m.cols}")
    # One term 0 * x_j per type in x gives the dense sum's type; for the
    # usual all-int x, one type scan says it is an int.
    zero = 0
    if not _INT.issuperset(map(type, x)):
        zero = sum(0 * b for b in {type(b): b for b in x}.values())
    out = []
    for cols, entries in _sparse_rows(m):
        s = zero
        for j, e in zip(cols, entries):
            s += e * x[j]
        out.append(s)
    return tuple(out)


@lru_cache(maxsize=512)
def _blocks(a: IntMatrix) -> tuple[tuple[IntVector, IntVector, IntMatrix], ...]:
    """The blocks of ``a``: the connected components of its row-support
    graph, where each row joins the columns it is nonzero on
    (union-find), as ``(rows, cols, block)`` triples in order of
    smallest column.  ``rows`` and ``cols`` are increasing index tuples
    and ``block`` is the submatrix on them, built by
    ``dataclasses.replace``, so a ``ModQMatrix`` block keeps its q.  A
    matrix that is one block is its own block, and equal submatrices
    are one object.  Zero rows and zero columns belong to no block.  A
    ``ModQMatrix`` stores reduced entries, so there an entry divisible
    by q joins nothing.  The one place that splits a matrix, cached per
    matrix beside ``_sparse_rows``: every caller shares one search and
    one build of each block; the result is immutable.
    """
    parent = list(range(a.cols))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    supports = [cols for cols, _ in _sparse_rows(a)]
    for cols in supports:
        for j in cols[1:]:
            parent[find(j)] = find(cols[0])
    # Keyed by root, inserted in order of smallest column.
    blocks = {}
    for j in sorted(set().union(*supports)):
        blocks.setdefault(find(j), ([], []))[1].append(j)
    for i, cols in enumerate(supports):
        if cols:
            blocks[find(cols[0])][0].append(i)
    n = a.cols
    built = {}
    out = []
    for rows, cols in blocks.values():
        block = a
        if len(rows) < a.rows or len(cols) < n:
            flat = tuple(a.entries[i * n + j] for i in rows for j in cols)
            block = replace(a, rows=len(rows), cols=len(cols), entries=flat)
            block = built.setdefault(block, block)
        out.append((tuple(rows), tuple(cols), block))
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_combine(mat: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int):
    """Replace rows i, j by (a*row_i + b*row_j, c*row_i + d*row_j)."""
    ri, rj = mat[i], mat[j]
    mat[i] = [a * x + b * y for x, y in zip(ri, rj)]
    mat[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _row_addmul(mat: list[list[int]], i: int, j: int, q: int):
    """row_i -= q * row_j."""
    if q == 0:
        return
    rj = mat[j]
    mat[i] = [x - q * y for x, y in zip(mat[i], rj)]


def _identity_rows(n: int) -> list[list[int]]:
    """The n x n identity as mutable rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _clear_column(mat: list[list[int]], aux: list[list[int]], r: int, c: int):
    """Zero ``mat[i][c]`` for every row ``i`` below ``r`` against the
    pivot ``mat[r][c]``: by exact division when the pivot divides the
    entry, else by the unimodular extended-gcd 2x2 block, which leaves
    the gcd in the pivot.  ``aux`` receives the same row operations."""
    for i in range(r + 1, len(mat)):
        entry = mat[i][c]
        if entry == 0:
            continue
        pivot = mat[r][c]
        if pivot == 1 or pivot == -1:
            q = entry * pivot  # entry // pivot, with no division
        elif entry % pivot == 0:
            q = entry // pivot
        else:
            g, x, y = _xgcd(pivot, entry)
            # 2x2 unimodular block: determinant x*(a/g) + y*(b/g) = 1.
            p, q = -(entry // g), pivot // g
            _row_combine(mat, r, i, x, y, p, q)
            _row_combine(aux, r, i, x, y, p, q)
            continue
        _row_addmul(mat, i, r, q)
        _row_addmul(aux, i, r, q)


def _hnf_rows(a: list[list[int]], nrows: int, ncols: int):
    """In-place style HNF; returns (h, u, pivots) as lists."""
    h = [list(row) for row in a]
    u = _identity_rows(nrows)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if h[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            h[r], h[pivot_row] = h[pivot_row], h[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        _clear_column(h, u, r, c)
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        for i in range(r):
            q = h[i][c] // h[r][c]
            _row_addmul(h, i, r, q)
            _row_addmul(u, i, r, q)
    return h, u, pivots


@lru_cache(maxsize=1024)
def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` with ``h == u @ m``, ``u`` unimodular, pivots
    positive, entries above each pivot reduced into ``[0, pivot)``, and
    zero rows last. Results are cached; IntMatrix is immutable.
    """
    h, u, _ = _hnf_rows(m.to_rows(), m.rows, m.cols)
    return IntMatrix.from_rows(h, cols=m.cols), IntMatrix.from_rows(u, cols=m.rows)


def hnf_pivots(h: IntMatrix) -> list[tuple[int, int]]:
    """Pivot positions (row, col) of a matrix already in row echelon form."""
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        for j, entry in enumerate(row):
            if entry != 0:
                pivots.append((i, j))
                break
    return pivots


def rank(m: IntMatrix) -> int:
    return len(hnf_pivots(hnf(m)[0]))


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``d = u @ m @ v`` with unimodular transforms."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def invariant_factors(self) -> IntVector:
        d = self.d
        diagonal = d.entries[: min(d.rows, d.cols) * (d.cols + 1) : d.cols + 1]
        return tuple(itertools.takewhile(bool, diagonal))


def _smith_pivot(b: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of the first smallest-magnitude nonzero entry of the
    working submatrix ``b[t:][t:]`` in row-major order, or None when it
    is zero.  The scan stops at the first entry of magnitude 1: nothing
    later can be strictly smaller."""
    best = 0
    pos = None
    for i in range(t, len(b)):
        row = b[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if x < best or not best:
                    if x == 1:
                        return i, j
                    best, pos = x, (i, j)
    return pos


@lru_cache(maxsize=4096)
def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with both unimodular transforms.

    Pivoting picks the smallest-magnitude nonzero entry of the working
    submatrix (row-major tie break); the search stops at the first entry
    of magnitude 1, which is the one the full scan would keep.  Its
    column is cleared by the Hermite step ``_clear_column`` on the rows,
    and its row by the same step on the transposed working block, which
    is why ``v`` is kept transposed; the two alternate until both are
    clear, then divisibility is repaired before moving on.  A unit pivot
    divides every entry, so it skips the repair scan.
    """
    nrows, ncols = m.rows, m.cols
    b = m.to_rows()
    u = _identity_rows(nrows)
    vt = _identity_rows(ncols)
    for t in range(min(nrows, ncols)):
        pivot = _smith_pivot(b, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            b[t], b[pi] = b[pi], b[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in b:
                row[t], row[pj] = row[pj], row[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        while True:
            _clear_column(b, u, t, t)
            p = b[t][t]
            unit = p == 1 or p == -1
            if any(b[t][t + 1 :]):
                # The row phase runs on the transposed working block,
                # ``bt[t + k]`` holding column ``t + k`` from row ``t``
                # down (``_clear_column`` reads no row of ``bt`` above
                # ``t``).  Column t is zero below the pivot here, so under
                # a unit pivot (every step an exact division) it changes
                # only row t, and row t alone is transposed.
                block = b[t : t + 1] if unit else b[t:]
                bt = [None] * t
                bt += map(list, zip(*(row[t:] for row in block)))
                _clear_column(bt, vt, t, 0)
                for i, row in enumerate(zip(*bt[t:]), t):
                    b[i][t:] = row
                # Clearing row t can refill column t below the pivot.
                if any(bt[t][1:]):
                    continue
                p = b[t][t]
                unit = p == 1 or p == -1
            if unit:
                break
            # Divisibility repair: fold a bad entry's row into row t.
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if b[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _row_addmul(b, t, bad, -1)
            _row_addmul(u, t, bad, -1)
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
            u[t] = [-x for x in u[t]]
    flat = itertools.chain.from_iterable
    return SnfDecomposition(
        IntMatrix(nrows, ncols, tuple(flat(b))),
        IntMatrix(nrows, nrows, tuple(flat(u))),
        IntMatrix(ncols, ncols, tuple(flat(zip(*vt)))),
    )


def det(m: IntMatrix) -> int:
    """Determinant: the last Bareiss pivot, signed by the row swaps."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    rows = m.to_rows()
    scales = [1] * m.rows
    sign = prev = 1
    for c in range(m.rows):
        pr = next((i for i in range(c, m.rows) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            scales[c], scales[pr] = scales[pr], scales[c]
            sign = -sign
        prev = _pivot(rows, scales, c, c, prev)
    return sign * prev


def _pivot(rows, scales, r, c, prev, q=None) -> int:
    """One Gauss-Jordan step on the entry ``(r, c)``, in place: row ``i``
    is ``scales[i]`` times its reduced row and ``prev`` the last pivot.
    Brings row ``r`` up to the scale ``prev``, clears column ``c`` from
    every other row and returns the new pivot, the new scale of each row
    it touched.  Bareiss with lazy scales: a row last updated at the
    pivot ``s`` holds integer minors over ``s``, so an update divides
    exactly by ``s``; rows zero in the column keep their scale, which
    keeps sparse systems sparse."""
    if scales[r] != prev:
        rows[r] = _divide([x * prev for x in rows[r]], scales[r], q)
    pivot_row = rows[r]
    pv = pivot_row[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i] = _divide(
                [pv * x - f * y for x, y in zip(row, pivot_row)], scales[i], q
            )
            scales[i] = pv
    scales[r] = pv
    return pv


def _divide(row: list[int], s: int, q: int | None) -> list[int]:
    """``row / s`` where the elimination runs: exact floor division over
    Z, multiplication by the inverse of ``s`` over F_q."""
    if q is None:
        return row if s == 1 else [x // s for x in row]
    inv = pow(s, -1, q)
    return [x * inv % q for x in row]


def _reduced_echelon(
    rows: Sequence[Sequence[int]], ncols: int, q: int | None = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer ``rows`` on
    their first ``ncols`` columns, over Q, or over F_q when the prime
    ``q`` is given (entries then lie in ``[0, q)``).

    Returns ``(rows, scales, pivots)``: row ``j`` is ``scales[j]`` times
    row ``j`` of the reduced row echelon form, further columns (right-hand
    sides, a row transform) carried along, and ``pivots`` lists the pivot
    columns.  The pivot row is the first one at or below the current rank
    that is nonzero in the column, so the row order is the one textbook
    Gauss-Jordan over the field produces, and each step is one
    ``_pivot``.
    """
    rows = [list(row) for row in rows]
    scales = [1] * len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        scales[rank], scales[pr] = scales[pr], scales[rank]
        prev = _pivot(rows, scales, rank, c, prev, q)
        pivots.append(c)
    return rows, scales, pivots


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix.

    A unimodular matrix has the identity as its Hermite normal form (the
    positive pivots multiply to 1, and entries above a pivot of 1 reduce
    to 0), so the transform ``u`` with ``u @ m == I`` is the inverse.
    """
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise NotUnimodularError("Hermite normal form is not the identity")
    return u


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^ambient, held as its HNF basis ``hnf``: the
    nonzero rows only, so ``rank`` rows, and canonical, so equal
    lattices compare equal.
    """

    hnf: IntMatrix

    @classmethod
    def from_generators(cls, m: IntMatrix) -> LatticeBasis:
        h, _ = hnf(m)
        nonzero = [list(h.row(i)) for i in range(h.rows) if any(h.row(i))]
        return cls(IntMatrix.from_rows(nonzero, cols=m.cols))

    @property
    def rank(self) -> int:
        return self.hnf.rows

    @property
    def ambient(self) -> int:
        return self.hnf.cols

    def basis_rows(self) -> list[IntVector]:
        return [self.hnf.row(i) for i in range(self.hnf.rows)]


class _SolveMap(NamedTuple):
    """Everything the solvers need of ``a``, independent of the target:
    sparse rows, so a solve pays only for nonzeros.  ``numerators[p]``
    is row ``p`` of ``M`` as its nonzeros ``(col, entry)``, read for the
    target entry at ``pivot_cols[p]``; ``checks`` lists each row of ``a``
    off the pivot columns as ``(row, cols, entries)``, the tuples of
    ``_sparse_rows(a)``."""

    pivot_cols: tuple[int, ...]
    numerators: tuple[tuple[tuple[int, int], ...], ...]
    denominator: int
    checks: tuple[tuple[int, IntVector, IntVector], ...]


@lru_cache(maxsize=512)
def _solve_map(a: IntMatrix) -> _SolveMap:
    """Factor ``a`` once for every target: ``x = (v_P @ M) / d``.

    ``P`` holds the pivot columns of ``h = hnf(a^T) = u @ a^T``.  Forward
    substitution down the pivot columns is linear in ``v_P``: it returns
    ``y = v_P @ T^-1`` for the upper-triangular pivot block ``T`` of
    ``h``, and the solution is ``x = y @ u``.  With ``d = det T``, the
    product of the pivots, ``d * T^-1`` is the integer adjugate, so row
    ``p`` of it comes from one exact substitution against ``d * e_p``;
    ``M`` is that matrix times the pivot rows of ``u``, reduced by the
    gcd it shares with ``d``, and kept as the nonzeros of each row.

    Then ``A @ x = y @ h`` agrees with ``v`` on every row of ``A`` in
    ``P`` by construction, so ``_solve_scaled`` checks only the others,
    ``checks``.  Their sparse rows are those of ``_sparse_rows(a)``, the
    one cached sparse view, not a second copy.
    """
    h, u = hnf(a.transpose())
    pivots = hnf_pivots(h)
    k = len(pivots)
    d = math.prod(h.at(r, c) for r, c in pivots)
    m_rows = []
    for p in range(k):
        y = [0] * k
        y[p] = d // h.at(p, pivots[p][1])
        for r, c in pivots[p + 1 :]:
            acc = -sum(y[i] * h.at(i, c) for i in range(p, r) if y[i])
            y[r] = acc // h.at(r, c)
        row = [0] * a.cols
        for i, coeff in enumerate(y):
            if coeff:
                row = [x + coeff * e for x, e in zip(row, u.row(i))]
        m_rows.append(row)
    g = math.gcd(d, *itertools.chain.from_iterable(m_rows))
    pivot_cols = tuple(c for _, c in pivots)
    on_pivot = set(pivot_cols)
    return _SolveMap(
        pivot_cols,
        tuple(tuple((j, e // g) for j, e in enumerate(row) if e) for row in m_rows),
        d // g,
        tuple(
            (i, cols, entries)
            for i, (cols, entries) in enumerate(_sparse_rows(a))
            if i not in on_pivot
        ),
    )


def _solve_scaled(a: IntMatrix, v: Sequence) -> tuple[list[int], int] | None:
    """``(x_num, den)`` with ``A @ x_num == den * v`` for the pinned
    solution ``x = x_num / den``, or None when ``v`` is not in the
    rational image.  Entries of ``v`` may be ints or Fractions; any other
    entry (``0.5``, ``None``) raises ``DimensionMismatchError``."""
    if len(v) != a.rows:
        raise DimensionMismatchError(f"target length {len(v)} != rows {a.rows}")
    smap = _solve_map(a)
    scale = 1
    if not _INT.issuperset(map(type, v)):
        try:
            scale = math.lcm(1, *(e.denominator for e in v))
        except AttributeError as exc:
            raise DimensionMismatchError(
                f"target entries must be integers or Fractions: {exc}"
            ) from exc
        v = [e.numerator * (scale // e.denominator) for e in v]
    x = [0] * a.cols
    for c, row in zip(smap.pivot_cols, smap.numerators):
        t = v[c]
        if t:
            for j, e in row:
                x[j] += t * e
    # The pivot columns fix x and its rows there; the others must agree.
    d = smap.denominator
    for i, cols, entries in smap.checks:
        s = 0
        for j, e in zip(cols, entries):
            s += e * x[j]
        if s != d * v[i]:
            return None
    return x, d * scale


def solve_integer(a: IntMatrix, v: Sequence[int]) -> IntVector | None:
    """One integer solution of A x = v, or None.

    Deterministic: coordinates come from forward substitution against
    the HNF of the transpose, with free variables pinned to zero, which
    is the cached solve map of ``a`` applied to ``v``.  ``u`` is
    unimodular, so ``x`` is integral exactly when every substitution
    step divides.
    """
    solved = _solve_scaled(a, v)
    if solved is None:
        return None
    x, den = solved
    if any(e % den for e in x):
        return None
    return tuple(e // den for e in x)


def solve_rational(a: IntMatrix, v: Sequence) -> RatVector | None:
    """One rational solution of A x = v, or None; same pinning as above."""
    solved = _solve_scaled(a, v)
    if solved is None:
        return None
    x, den = solved
    return tuple(Fraction(e, den) for e in x)


@lru_cache(maxsize=512)
def integer_kernel_basis(a: IntMatrix) -> LatticeBasis:
    """Basis of the integer kernel {x in Z^cols : A x = 0}.

    Rows of the unimodular transform of hnf(A^T) matching zero rows of
    the echelon form span the kernel saturatedly; the lattice keeps
    their own HNF, so the basis is canonical.
    """
    h, u = hnf(a.transpose())
    raw = [list(u.row(i)) for i in range(h.rows) if not any(h.row(i))]
    return LatticeBasis.from_generators(IntMatrix.from_rows(raw, cols=a.cols))


def lattice_member(basis: LatticeBasis, x: Sequence[int]) -> bool:
    """Is x an integer combination of the lattice generators?

    The HNF rows are independent, so ``y @ hnf == x`` has at most one
    solution and the integer solve decides membership.
    """
    if len(x) != basis.ambient:
        raise DimensionMismatchError(
            f"vector length {len(x)} != ambient {basis.ambient}"
        )
    return solve_integer(basis.hnf.transpose(), x) is not None


# ---------------------------------------------------------------------------
# Plain-text formats.
#
# Matrix files: first content line "rows cols", then one line per row of
# whitespace-separated integers. Blank lines and '#' comments skipped.
# Vector files: whitespace-separated integers in any line layout.
# Rationals print as "p/q", or "p" when the denominator is 1.


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def parse_matrix(text: str) -> IntMatrix:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: header must be 'rows cols'")
    try:
        nrows, ncols = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header must be two integers") from None
    if nrows < 0 or ncols < 0:
        raise FormatError(f"line {lineno}: dimensions must be nonnegative")
    body = lines[1:]
    if ncols == 0 and not body:  # rows with no entries are skipped blank lines
        return IntMatrix.zeros(nrows, 0)
    if len(body) != nrows:
        raise FormatError(f"expected {nrows} rows, got {len(body)}")
    rows = []
    for lineno, line in body:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer entry") from None
        if len(row) != ncols:
            raise FormatError(
                f"line {lineno}: expected {ncols} entries, got {len(row)}"
            )
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=ncols)


def format_matrix(m: IntMatrix) -> str:
    """The ``rows cols`` header, then one line per row; the text of each
    distinct row is built once, since presentation matrices repeat most
    of their rows."""
    text = {}
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        row = m.row(i)
        line = text.get(row)
        if line is None:
            line = text[row] = " ".join(map(str, row))
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_vector(text: str) -> IntVector:
    entries = []
    for lineno, line in _content_lines(text):
        for tok in line.split():
            try:
                entries.append(int(tok))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer entry {tok!r}") from None
    return tuple(entries)


def format_vector(v: Sequence[int]) -> str:
    return " ".join(map(str, v)) + "\n"


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))
