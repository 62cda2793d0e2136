"""Exact integer and rational linear algebra on dense matrices.

Everything here is arbitrary-precision: matrix entries are Python ints,
rational results are ``fractions.Fraction``. The module provides Hermite
and Smith normal forms with their unimodular transforms, integer and
rational linear solving, kernel lattices, lattice membership, and the
plain-text matrix/vector formats used by the command line tools.

Linear solves factor each matrix once: ``_solve_map`` caches an integer
matrix and a common denominator that turn the target's pivot entries
into the solution, so each target costs integer products plus the full
check ``A @ x == v``.  Forward substitution against the HNF
(``_solve_upper``) is the route the map encodes and serves the tests as
its oracle.

Gauss-Jordan elimination over Q and over F_q has one core,
``_reduced_echelon``: fraction-free (Bareiss, with lazy row scales), it
returns each reduced row times a scale.  The face oracle's affine
solves, the candidate lines of the global constants and the finite-field
systems in ``expansion`` are read off it.  Textbook Gauss-Jordan over
``Fraction`` and over F_q stays in the tests as its oracle.

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
import operator
from dataclasses import dataclass
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


def l1_norm(vec: Sequence) -> Fraction | int:
    """Sum of absolute values; exact for ints and Fractions alike."""
    total = 0
    for entry in vec:
        total += abs(entry)
    return total


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


def disjoint_supports(rows: Sequence[Sequence]) -> list[list[int]] | None:
    """The supports (positions of nonzero entries) of ``rows`` when no
    two rows share a position, else None."""
    supports = [[i for i, entry in enumerate(row) if entry] for row in rows]
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

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]], cols: int | None = None) -> IntMatrix:
        row_list = [tuple(int(e) for e in row) for row in data]
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
        return all(e == 0 for e in self.entries)

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


def mat_vec(m: IntMatrix, x: Sequence) -> tuple:
    """Matrix times column vector; works for int and Fraction entries."""
    if len(x) != m.cols:
        raise DimensionMismatchError(f"vector length {len(x)} != cols {m.cols}")
    return tuple(sum(a * b for a, b in zip(m.row(i), x)) for i in range(m.rows))


def vec_mat(y: Sequence, m: IntMatrix) -> tuple:
    """Row vector times matrix."""
    if len(y) != m.rows:
        raise DimensionMismatchError(f"vector length {len(y)} != rows {m.rows}")
    out = []
    for j in range(m.cols):
        out.append(sum(y[i] * m.at(i, j) for i in range(m.rows)))
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


def _hnf_rows(a: list[list[int]], nrows: int, ncols: int):
    """In-place style HNF; returns (h, u, pivots) as lists."""
    h = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
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
        for i in range(r + 1, nrows):
            if h[i][c] == 0:
                continue
            if h[i][c] % h[r][c] == 0:
                q = h[i][c] // h[r][c]
                _row_addmul(h, i, r, q)
                _row_addmul(u, i, r, q)
            else:
                g, x, y = _xgcd(h[r][c], h[i][c])
                # 2x2 unimodular block: determinant x*(a/g) + y*(b/g) = 1.
                p, q = -(h[i][c] // g), h[r][c] // g
                _row_combine(h, r, i, x, y, p, q)
                _row_combine(u, r, i, x, y, p, q)
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
        out = []
        for t in range(min(self.d.rows, self.d.cols)):
            entry = self.d.at(t, t)
            if entry == 0:
                break
            out.append(entry)
        return tuple(out)


@lru_cache(maxsize=4096)
def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with both unimodular transforms.

    Pivoting picks the smallest-magnitude nonzero entry of the working
    submatrix (row-major tie break), clears its row and column with
    exact-division steps where possible and extended-gcd 2x2 blocks
    otherwise, then repairs divisibility before moving on.
    """
    b = m.to_rows()
    nrows, ncols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_combine(j0, j1, a, bb, c, d):
        for mat, height in ((b, nrows), (v, ncols)):
            for i in range(height):
                x, y = mat[i][j0], mat[i][j1]
                mat[i][j0] = a * x + bb * y
                mat[i][j1] = c * x + d * y

    def col_addmul(j0, j1, q):
        if q == 0:
            return
        for mat, height in ((b, nrows), (v, ncols)):
            for i in range(height):
                mat[i][j0] -= q * mat[i][j1]

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if b[i][j] != 0 and (best is None or abs(b[i][j]) < best):
                    best = abs(b[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            b[t], b[pi] = b[pi], b[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat, height in ((b, nrows), (v, ncols)):
                for i in range(height):
                    mat[i][t], mat[i][pj] = mat[i][pj], mat[i][t]
        while True:
            for i in range(t + 1, nrows):
                if b[i][t] == 0:
                    continue
                if b[i][t] % b[t][t] == 0:
                    q = b[i][t] // b[t][t]
                    _row_addmul(b, i, t, q)
                    _row_addmul(u, i, t, q)
                else:
                    g, x, y = _xgcd(b[t][t], b[i][t])
                    p, q = -(b[i][t] // g), b[t][t] // g
                    _row_combine(b, t, i, x, y, p, q)
                    _row_combine(u, t, i, x, y, p, q)
            for j in range(t + 1, ncols):
                if b[t][j] == 0:
                    continue
                if b[t][j] % b[t][t] == 0:
                    col_addmul(j, t, b[t][j] // b[t][t])
                else:
                    g, x, y = _xgcd(b[t][t], b[t][j])
                    p, q = -(b[t][j] // g), b[t][t] // g
                    col_combine(t, j, x, y, p, q)
            if any(b[i][t] != 0 for i in range(t + 1, nrows)):
                continue
            if any(b[t][j] != 0 for j in range(t + 1, ncols)):
                continue
            # Divisibility repair: fold a bad entry's row into row t.
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if b[i][j] % b[t][t] != 0:
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
        t += 1
    return SnfDecomposition(
        IntMatrix.from_rows(b, cols=ncols),
        IntMatrix.from_rows(u, cols=nrows),
        IntMatrix.from_rows(v, cols=ncols),
    )


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    Gauss-Jordan over the field produces.

    Bareiss with lazy scales: a row last updated at the pivot ``s`` holds
    ``s`` times its reduced row, whose entries times ``s`` are integer
    minors, so an update divides exactly by ``s``.  Rows with a zero in
    the pivot column are left at their scale, which keeps sparse systems
    sparse; a row is brought up to the previous pivot only when it
    becomes the pivot row.
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
        if scales[rank] != prev:
            rows[rank] = _divide([x * prev for x in rows[rank]], scales[rank], q)
        pivot_row = rows[rank]
        pv = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != rank:
                rows[i] = _divide(
                    [pv * x - f * y for x, y in zip(row, pivot_row)], scales[i], q
                )
                scales[i] = pv
        scales[rank] = pv
        pivots.append(c)
        prev = pv
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
    """A sublattice of Z^ambient, held as generators plus their HNF.

    ``hnf`` keeps only the nonzero rows, so it has exactly ``rank`` rows
    and is the canonical basis of the lattice.
    """

    generators: IntMatrix
    hnf: IntMatrix
    rank: int

    @classmethod
    def from_generators(cls, m: IntMatrix) -> LatticeBasis:
        h, _ = hnf(m)
        nonzero = [list(h.row(i)) for i in range(h.rows) if any(h.row(i))]
        return cls(m, IntMatrix.from_rows(nonzero, cols=m.cols), len(nonzero))

    @property
    def ambient(self) -> int:
        return self.generators.cols

    def basis_rows(self) -> list[IntVector]:
        return [self.hnf.row(i) for i in range(self.hnf.rows)]


def _solve_upper(
    h: IntMatrix, pivots: list[tuple[int, int]], target: Sequence, integral: bool
):
    """Solve y . h == target for y supported on the pivot rows.

    Forward substitution down the pivot columns; ``integral`` demands
    exact integer divisions. Returns the full-length y (zeros on zero
    rows) or None when no solution exists.
    """
    y = [0] * h.rows
    for r, c in pivots:
        acc = target[c]
        for i in range(r):
            if y[i]:
                acc -= y[i] * h.at(i, c)
        pivot = h.at(r, c)
        if integral:
            if acc % pivot != 0:
                return None
            y[r] = acc // pivot
        else:
            y[r] = Fraction(acc, pivot)
    # Non-pivot columns impose constraints too; verify the whole product.
    for j in range(h.cols):
        acc = sum(y[i] * h.at(i, j) for i in range(h.rows) if y[i])
        if acc != target[j]:
            return None
    return y


class _SolveMap(NamedTuple):
    """Everything the solvers need of ``a``, independent of the target."""

    pivot_cols: tuple[int, ...]
    numerators: tuple[IntVector, ...]
    denominator: int
    sparse_rows: tuple[tuple[IntVector, IntVector], ...]


@lru_cache(maxsize=512)
def _solve_map(a: IntMatrix) -> _SolveMap:
    """Factor ``a`` once for every target: ``x = (v_P @ M) / d``.

    ``P`` holds the pivot columns of ``h = hnf(a^T) = u @ a^T``.  Forward
    substitution (``_solve_upper``) is linear in ``v_P``: it returns
    ``y = v_P @ T^-1`` for the upper-triangular pivot block ``T`` of
    ``h``, and the solution is ``x = y @ u``.  With ``d = det T``, the
    product of the pivots, ``d * T^-1`` is the integer adjugate, so row
    ``p`` of it comes from one exact substitution against ``d * e_p``;
    ``M`` is that matrix times the pivot rows of ``u``, reduced by the
    gcd it shares with ``d``.  ``sparse_rows`` holds the (columns,
    entries) of each row's nonzeros for the check ``A @ x == v``.
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
    sparse_rows = []
    for i in range(a.rows):
        row = a.row(i)
        cols = tuple(j for j, e in enumerate(row) if e)
        sparse_rows.append((cols, tuple(row[j] for j in cols)))
    return _SolveMap(
        tuple(c for _, c in pivots),
        tuple(tuple(e // g for e in row) for row in m_rows),
        d // g,
        tuple(sparse_rows),
    )


def _solve_scaled(a: IntMatrix, v: Sequence) -> tuple[list[int], int] | None:
    """``(x_num, den)`` with ``A @ x_num == den * v`` for the pinned
    solution ``x = x_num / den``, or None when ``v`` is not in the
    rational image.  Entries of ``v`` may be ints or Fractions."""
    if len(v) != a.rows:
        raise DimensionMismatchError(f"target length {len(v)} != rows {a.rows}")
    smap = _solve_map(a)
    scale = math.lcm(1, *(e.denominator for e in v))
    if scale != 1:
        v = [e.numerator * (scale // e.denominator) for e in v]
    x = [0] * a.cols
    for c, row in zip(smap.pivot_cols, smap.numerators):
        if v[c]:
            x = [xi + v[c] * e for xi, e in zip(x, row)]
    # The pivot columns fix x; every row of A must agree with v as well.
    d = smap.denominator
    for (cols, entries), target in zip(smap.sparse_rows, v):
        lhs = sum(map(operator.mul, entries, map(x.__getitem__, cols)))
        if lhs != d * target:
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
    the echelon form span the kernel saturatedly; they are re-normalized
    to their own HNF so the generators are canonical.
    """
    h, u = hnf(a.transpose())
    raw = [list(u.row(i)) for i in range(h.rows) if not any(h.row(i))]
    raw_matrix = IntMatrix.from_rows(raw, cols=a.cols)
    canon, _ = hnf(raw_matrix)
    rows = [list(canon.row(i)) for i in range(canon.rows) if any(canon.row(i))]
    basis = IntMatrix.from_rows(rows, cols=a.cols)
    return LatticeBasis(basis, basis, len(rows))


def lattice_member(basis: LatticeBasis, x: Sequence[int]) -> bool:
    """Is x an integer combination of the lattice generators?"""
    if len(x) != basis.ambient:
        raise DimensionMismatchError(
            f"vector length {len(x)} != ambient {basis.ambient}"
        )
    return hnf_coordinates(basis, x) is not None


def hnf_coordinates(basis: LatticeBasis, x: Sequence[int]) -> IntVector | None:
    """Coefficients of x against the canonical HNF rows, or None."""
    if len(x) != basis.ambient:
        raise DimensionMismatchError(
            f"vector length {len(x)} != ambient {basis.ambient}"
        )
    h = basis.hnf
    y = _solve_upper(h, hnf_pivots(h), tuple(x), integral=True)
    if y is None:
        return None
    return tuple(y)


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
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(e) for e in m.row(i)))
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
    return " ".join(str(e) for e in v) + "\n"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"not a rational: {text!r}") from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))
