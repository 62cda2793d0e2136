"""Integral-spanning certification for finitely generated sublattices.

A family of vectors v_1..v_k in Z^n is integrally spanned when, for
every subset I of the coordinates, the lattice generated by the
projections p_I(v_j) equals the intersection of Z^I with their rational
span. Equivalently: every projected generator matrix has all Smith
invariant factors equal to 1 (the projected lattice is saturated).

The condition ranges over all 2^n - 1 nonempty subsets, but it is
decided by the C(n, k) rank-sized minors of the HNF basis B, k the
rank: a lattice is spanned exactly when each of them is in {0, +-1}
(see ``is_integrally_spanned``). Once every entry of B is in {0, +-1},
it is ``[I | M]`` up to column order and those minors are the square
minors of the tableau M: the lattice is spanned exactly when M is
totally unimodular. The certificate decides that from a table of the
nonzero minors of M, built one size at a time, each by a Laplace
expansion over the table one size down. Its C(n, k) minors are priced
against ``_MAX_SUBSETS`` before the minor table. A failing
certificate names k columns T with |det B_T| >= 2, whose projection is
unsaturated. The witness is read off T: coordinates are dropped from it
while the projection stays unsaturated, each drop decided from the
Smith form of T, so the reported subset has at most k coordinates and
no unsaturated proper subset. The witness step takes at most two Smith
forms: T's, and the final subset's when some drop was kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AmbientDimensionCapError, DimensionMismatchError, WitnessError
from .exactla import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    SnfDecomposition,
    hnf,
    hnf_pivots,
    lattice_member,
    snf,
    solve_rational,
    unimodular_inverse,
)

# The most rank-sized minors one certificate may price: C(n, k) stays
# under 2^22 - 1 at ambient 22.
_MAX_SUBSETS = 2**22 - 1


@dataclass(frozen=True)
class CoordSubset:
    """A nonempty subset of coordinates 1..ambient, strictly increasing."""

    ambient: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise DimensionMismatchError("coordinate subset must be nonempty")
        if list(self.indices) != sorted(set(self.indices)):
            raise DimensionMismatchError("indices must be strictly increasing")
        if self.indices[0] < 1 or self.indices[-1] > self.ambient:
            raise DimensionMismatchError(
                f"indices must lie in 1..{self.ambient}"
            )

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SpanningVerdict:
    """Outcome of the spanning check.

    ``witness`` is None when spanned; otherwise a pair (subset, vector)
    where the vector lies in the rational span of the projected
    generators and in Z^subset but not in their integer span.

    ``subsets_checked`` is 2^n - 1 when spanned (the certificate covers
    every nonempty subset), 0 for a family with no nonzero generator,
    and otherwise the number of coordinate subsets the witness step
    decided: the certificate's failing columns T and each
    one-coordinate drop tried, all from the Smith form of T.
    """

    spanned: bool
    witness: tuple[CoordSubset, IntVector] | None
    subsets_checked: int


def _project(rows: list[IntVector], cols: tuple[int, ...]) -> IntMatrix:
    """The matrix of ``rows`` restricted to the 0-based columns ``cols``."""
    flat = tuple([row[j] for row in rows for j in cols])
    return IntMatrix(len(rows), len(cols), flat)


def project_columns(generators: IntMatrix, subset: CoordSubset) -> IntMatrix:
    if generators.cols != subset.ambient:
        raise DimensionMismatchError(
            f"generator width {generators.cols} != ambient {subset.ambient}"
        )
    rows = list(map(generators.row, range(generators.rows)))
    return _project(rows, tuple(j - 1 for j in subset.indices))


def _saturation_witness(projected: IntMatrix, dec: SnfDecomposition) -> IntVector:
    """A vector certifying that the projected lattice is not saturated.

    With d = u @ m @ v and some diagonal entry d_r > 1, candidate
    vectors are tried in order and validated:

      1. the r-th row of inverse(u) @ d, read as the r-th row of m @ v
         (they are equal), divided by d_r, when integral;
      2. that row undivided;
      3. the r-th row of inverse(v).

    Candidate 3 always works: its coefficient vector against the rows
    of m would need y @ inverse(u) @ d = e_r, forcing d_r to divide 1.
    Validation checks membership in the rational row span and
    non-membership in the integer row lattice, so whichever candidate
    is returned is a genuine witness; if none passes, ``WitnessError``
    is raised.
    """
    r = None
    for idx, f in enumerate(dec.invariant_factors()):
        if f != 1:
            r = idx
            break
    if r is None:
        # Rank-deficient saturation failures cannot happen: factors are 1.
        raise WitnessError("no failing invariant factor")
    d_r = dec.d.at(r, r)
    m_r = projected.row(r)
    mv_row = tuple(
        sum(e * dec.v.at(i, j) for i, e in enumerate(m_r) if e)
        for j in range(dec.v.cols)
    )
    candidates = []
    if all(e % d_r == 0 for e in mv_row):
        candidates.append(tuple(e // d_r for e in mv_row))
    candidates.append(mv_row)
    candidates.append(unimodular_inverse(dec.v).row(r))

    basis = LatticeBasis.from_generators(projected)
    for cand in candidates:
        if all(e == 0 for e in cand):
            continue
        if solve_rational(projected.transpose(), cand) is None:
            continue
        if lattice_member(basis, cand):
            continue
        return cand
    raise WitnessError("witness validation failed for every candidate")


def _rank_sized_certificate(generators: IntMatrix) -> tuple[int, ...] | None:
    """None when every k x k minor of the HNF basis B is in {0, +-1};
    otherwise the sorted 0-based columns T of one k x k minor with
    |det B_T| >= 2.

    A spanned HNF basis has every entry in {0, +-1}: its minor on the
    pivot columns is the product of the positive pivots, so each pivot
    is 1, the entries above it are reduced to 0, and any other entry is
    up to sign the minor that swaps it in for its row's pivot column.
    So a pivot > 1 names the pivot columns, and, with every pivot 1, an
    entry outside {0, +-1} names the pivots with its column swapped in
    for its row's pivot, before any Smith form.

    Once that test has passed, B is ``[I | M]`` up to column order, M
    the k x (n - k) tableau on the free columns.  A k x k minor of B that
    leaves out the pivot columns of rows R and takes the free columns S
    (|R| = |S|) is, up to sign, the minor of M on rows R and columns S.
    So the k-minors are in {0, +-1} exactly when every square submatrix
    of M has determinant in {0, +-1}, i.e. when M is totally unimodular.

    The squares are decided by a table of minors, one size at a time:
    level s maps (R, S) to det M[R, S], keeping only the nonzero ones,
    and only two levels are held.  Level 1 is the nonzero entries of M,
    each confirmed by a 1 x 1 Smith form.  A level-s minor is the
    Laplace expansion along the first row r0 of R,

        det M[R, S] = sum over j in S of
                      (-1)^pos(j, S) M[r0][j] det M[R - r0, S - j],

    read off level s - 1, so a minor that level s - 1 and row r0 leave
    at zero is never formed.  Every smaller minor has passed, so
    "fails" means |det M[R, S]| >= 2 (a singular square, with its
    smaller minors in {0, +-1}, has its nonzero invariant factors 1).
    The first failure, by size, then R, then S, each lexicographically,
    names (pivots - pivots(R)) | S: the square that a Smith form of each
    square in that order would report first.  Raises
    ``AmbientDimensionCapError`` when the C(n, k) = sum_s C(k, s)
    C(n - k, s) minors pass ``_MAX_SUBSETS``, before the minor table.
    """
    basis = LatticeBasis.from_generators(generators)
    rows = basis.basis_rows()
    pivots = [c for _, c in hnf_pivots(basis.hnf)]
    if any(row[p] > 1 for row, p in zip(rows, pivots)):
        return tuple(pivots)
    for row, p in zip(rows, pivots):
        for j, e in enumerate(row):
            if e not in (-1, 0, 1):
                return tuple(sorted(set(pivots) - {p} | {j}))
    k, n = basis.rank, basis.ambient
    price = math.comb(n, k)
    if price > _MAX_SUBSETS:
        raise AmbientDimensionCapError(
            f"certifying takes C({n}, {k}) = {price} rank-sized minors, "
            f"above the subset cap _MAX_SUBSETS = {_MAX_SUBSETS}"
        )
    free = tuple(j for j in range(n) if j not in pivots)
    tableau = [[row[j] for j in free] for row in rows]

    def members(cols: int) -> list[int]:
        """The tableau columns of the bit mask ``cols``, ascending."""
        return [j for j in range(n - k) if cols >> j & 1]

    def named(r: tuple[int, ...], cols: int) -> tuple[int, ...]:
        kept = {p for i, p in enumerate(pivots) if i not in r}
        return tuple(sorted(kept | {free[j] for j in members(cols)}))

    # Level s maps R to {S: det M[R, S]} over its nonzero s x s minors,
    # S a bit mask of tableau columns.  The 1 x 1 Smith forms confirm
    # entries already bounded above; they are the only Smith forms the
    # modq and presentations workloads take (ROADMAP item 4 drops them).
    entries = [[(1 << j, e) for j, e in enumerate(row) if e] for row in tableau]
    level: dict[tuple[int, ...], dict[int, int]] = {}
    for i, row in enumerate(entries):
        for bit, e in row:
            if any(f != 1 for f in snf(IntMatrix(1, 1, (e,))).invariant_factors()):
                return named((i,), bit)
        if row:
            level[(i,)] = dict(row)
    while level:
        below, level = level, {}
        # Rows (r0,) + rest in lexicographic order: r0 outermost, and
        # ``below`` was filled in that order one level down.
        for r0 in range(k):
            for rest, minors in below.items():
                if rest[0] <= r0:
                    continue
                # Laplace along row r0: each nonzero minor on (rest, S')
                # and each nonzero M[r0][j], j not in S', adds
                # (-1)^pos(j) M[r0][j] det M[rest, S'] to S' | {j}, where
                # pos(j) counts the columns of S' below j.
                dets: dict[int, int] = {}
                for cols, d in minors.items():
                    for bit, e in entries[r0]:
                        if cols & bit:
                            continue
                        term = e * d
                        if (cols & (bit - 1)).bit_count() & 1:
                            term = -term
                        dets[cols | bit] = dets.get(cols | bit, 0) + term
                failing = [s for s, d in dets.items() if d > 1 or d < -1]
                if failing:
                    return named((r0,) + rest, min(failing, key=members))
                nonzero = {s: d for s, d in dets.items() if d}
                if nonzero:
                    level[(r0,) + rest] = nonzero
    return None


def _generates(images: list[list[int]], moduli: list[int]) -> bool:
    """Whether ``images`` generate the finite group G, the sum of Z/d_r
    over the d_r of ``moduli``, entry r of each image read mod d_r.

    A cyclic G = Z/d is generated exactly when the gcd of d and the
    images is 1.  Otherwise the images with the rows d_r e_r generate a
    lattice of full rank f = |moduli| in Z^f, which is all of Z^f exactly
    when each pivot of its Hermite form is 1.
    """
    if len(moduli) == 1:
        return math.gcd(moduli[0], *(image[0] for image in images)) == 1
    f = len(moduli)
    lattice = IntMatrix.from_rows(
        images + [[d if c == r else 0 for c in range(f)] for r, d in enumerate(moduli)],
        cols=f,
    )
    h = hnf(lattice)[0]
    return all(h.at(i, j) == 1 for i, j in hnf_pivots(h))


def is_integrally_spanned(generators: IntMatrix) -> SpanningVerdict:
    """Decide the spanning condition, certifying it on rank-sized subsets.

    Theorem: let B be the HNF basis of the lattice, of rank k. The
    lattice is spanned exactly when every k x k minor of B is in
    {0, +-1}, hence exactly when every k-subset projection of B is
    saturated (a k x k projection of full rank is saturated exactly when
    its determinant is +-1).

    Proof sketch. If spanned, every projection is saturated, the
    k-subset ones included. Conversely, B has rank k, so some columns J
    have det B_J != 0, hence det B_J = +-1. Then inverse(B_J) @ B is
    [I | M] up to a column order, with the same row lattice, and every
    square submatrix of M is, up to sign, a k x k minor of B divided by
    det B_J, so M is totally unimodular. Any column subset of [I | M]
    is then totally unimodular of some rank r, with an r x r minor +-1,
    so its Smith invariant factors are all 1: every projection is
    saturated.

    So the k-minors of B are decided on M. When every entry of B is in
    {0, +-1}, J can be its pivot columns: each pivot is 1 and the
    entries above it are 0, so B_J = I and B itself is [I | M]. Its
    k-minors are then, up to sign, the square minors of M, and the
    certificate (``_rank_sized_certificate``) builds the nonzero minors
    of M by size, each a Laplace expansion over the minors one size
    smaller: the lattice is spanned exactly when M is totally
    unimodular.

    A failing certificate names k columns T with |det B_T| >= 2, in one
    of three ways:

      1. a pivot > 1: T is the pivot columns, and det B_T is the
         product of the pivots;
      2. every pivot 1 and an entry e outside {0, +-1}: T is the
         pivots with e's column swapped in for its row's pivot, and
         det B_T = +-e;
      3. a square of M on rows R and columns S, with all smaller ones
         passing, whose determinant is outside {0, +-1} (the first in
         the minor table's order): T is
         (pivots - pivots(R)) | S, and det B_T = +-det M_RS.

    The projection L_T onto T is the row lattice of B_T, of full rank k
    and index |det B_T| >= 2 in Z^T, so it is unsaturated. Each subset of
    T also has full rank, so its projection is saturated exactly when it
    is all of Z^subset, and every subset of a saturated one is
    saturated. Coordinates of T are therefore dropped in one pass,
    keeping each drop that leaves the projection unsaturated: what
    remains has no unsaturated proper subset, and its witness comes from
    its Smith form (``_saturation_witness``). A certificate naming a
    saturated T raises ``WitnessError``.

    Every drop is decided from the one Smith form d = u @ m @ v of T's
    projection m (Newman, Integral Matrices, Ch. II). Dropping the
    coordinates D = T - S leaves the projection onto S all of Z^S
    exactly when L_T + Z^D = Z^T, i.e. when the unit vectors e_i, i in
    D, generate G = Z^T / L_T. The map x -> x @ v carries L_T onto the
    rows of d, so G is the sum of Z/d_r over the factors d_r > 1, and
    e_i maps to row i of v, read mod each d_r (``_generates``). One more
    Smith form, of the final subset, feeds the witness when some drop
    was kept: at most two in all.

    A family with no nonzero generators is spanned outright (every
    projection is the zero lattice), with no subsets enumerated. When
    the certificate holds, the verdict is spanned with
    ``subsets_checked`` = 2^n - 1; when it fails, ``subsets_checked``
    counts the subsets the witness step decided, T and each drop tried,
    at most k + 1. The projections are of the generators as given, so
    the witness is a vector against their rows.

    ``AmbientDimensionCapError`` is raised when the certificate prices
    more than ``_MAX_SUBSETS`` rank-sized minors. At ambient n <= 22
    that cannot happen: C(n, k) is at most 2^n - 1.
    """
    n = generators.cols
    if generators.is_zero():
        return SpanningVerdict(True, None, 0)
    failing = _rank_sized_certificate(generators)
    if failing is None:
        return SpanningVerdict(True, None, 2**n - 1)
    rows = list(map(generators.row, range(generators.rows)))
    projected = _project(rows, failing)
    dec = snf(projected)
    factors = dec.invariant_factors()
    if all(f == 1 for f in factors):
        raise WitnessError(
            f"the certificate names the columns {failing}, yet their "
            "projection is saturated"
        )
    # G = Z^T / L_T is the sum of Z/d_r over the factors d_r > 1, the
    # last ones since each divides the next, and the unit vector of the
    # i-th column of T maps to row i of v, read mod each d_r.
    moduli = [f for f in factors if f != 1]
    first = len(factors) - len(moduli)
    images = [
        [x % d for x, d in zip(dec.v.row(i)[first:], moduli)]
        for i in range(len(failing))
    ]
    kept, dropped = list(range(len(failing))), []
    checked = 1
    for i in range(len(failing)):
        if len(kept) == 1:
            break
        checked += 1
        if not _generates(dropped + [images[i]], moduli):
            kept.remove(i)
            dropped.append(images[i])
    cols = tuple(failing[i] for i in kept)
    if dropped:
        projected = _project(rows, cols)
        dec = snf(projected)
    subset = CoordSubset(n, tuple(j + 1 for j in cols))
    return SpanningVerdict(False, (subset, _saturation_witness(projected, dec)), checked)
