"""Integral-spanning certification for finitely generated sublattices.

A family of vectors v_1..v_k in Z^n is integrally spanned when, for
every subset I of the coordinates, the lattice generated by the
projections p_I(v_j) equals the intersection of Z^I with their rational
span. Equivalently: every projected generator matrix has all Smith
invariant factors equal to 1 (the projected lattice is saturated).

The condition ranges over all 2^n - 1 nonempty subsets, but it is
decided by the C(n, k) rank-sized minors of the HNF basis, k the rank:
a lattice is spanned exactly when each of them is in {0, +-1} (see
``is_integrally_spanned``). Once every entry of the basis is in
{0, +-1}, it is ``[I | M]`` up to column order and those minors are
the square minors of the tableau M, so the certificate takes one Smith
form per square submatrix of M with no zero row or column. The
size-then-lex subset scan runs only when that certificate fails, to
find the first failing subset and a witness vector. It skips the
Smith form of every projection that passes the Heller-Tompkins
2-colouring test (``_signed_edges``, ``_two_colourable``): such a
projection is totally unimodular, hence saturated, so only Smith forms
that could not have failed are skipped. Both are capped at
``_MAX_SUBSETS``: the certificate's C(n, k) minors are priced before
any Smith form, and the scan stops as soon as it would pass the cap on
subsets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import AmbientDimensionCapError, DimensionMismatchError, WitnessError
from .exactla import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    SnfDecomposition,
    hnf_pivots,
    lattice_member,
    snf,
    solve_rational,
    unimodular_inverse,
)

# The most coordinate subsets one call may project: 2^22 - 1 is a full
# scan at ambient 22.
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
    and otherwise the number of subsets the size-then-lex scan visited,
    up to and including the failing one.
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


def subsets_in_order(ambient: int):
    """All nonempty coordinate subsets, by size then lexicographically."""
    for size in range(1, ambient + 1):
        for combo in itertools.combinations(range(1, ambient + 1), size):
            yield CoordSubset(ambient, combo)


def _saturation_witness(projected: IntMatrix, dec: SnfDecomposition) -> IntVector:
    """A vector certifying that the projected lattice is not saturated.

    With d = u @ m @ v and some diagonal entry d_r > 1, candidate
    vectors are tried in order and validated:

      1. the r-th row of inverse(u) @ d divided by d_r, when integral;
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
    u_inv = unimodular_inverse(dec.u)
    ud_row = tuple(
        sum(u_inv.at(r, i) * dec.d.at(i, j) for i in range(dec.d.rows))
        for j in range(dec.d.cols)
    )
    candidates = []
    if all(e % d_r == 0 for e in ud_row):
        candidates.append(tuple(e // d_r for e in ud_row))
    candidates.append(ud_row)
    v_inv = unimodular_inverse(dec.v)
    candidates.append(v_inv.row(r))

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


def _signed_edges(rows: list[IntVector], ncols: int) -> list:
    """The Heller-Tompkins data of each column of ``rows``.

    ``None`` for a column outside the test (an entry not in {0, +-1},
    or more than two nonzeros), ``()`` for a zero column or a single
    +-1, and ``(a, b, parity)`` for +-1 entries in exactly rows a and b,
    with parity 1 when they have the same sign (rows a and b must then
    lie in different classes) and 0 when opposite (the same class).
    """
    out = []
    for j in range(ncols):
        nonzero = [(i, row[j]) for i, row in enumerate(rows) if row[j]]
        if len(nonzero) > 2 or any(x not in (-1, 1) for _, x in nonzero):
            out.append(None)
        elif len(nonzero) == 2:
            (a, x), (b, y) = nonzero
            out.append((a, b, int(x == y)))
        else:
            out.append(())
    return out


def _two_colourable(edges) -> bool:
    """True when the rows split into two classes meeting every edge's
    parity: a union-find over rows, each row holding its parent and its
    class parity against it."""
    parent = {}

    def find(v):
        parity = 0
        while v in parent:
            v, p = parent[v]
            parity ^= p
        return v, parity

    for a, b, parity in edges:
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa ^ pb != parity:
                return False
        else:
            parent[ra] = (rb, pa ^ pb ^ parity)
    return True


def _rank_sized_certificate(generators: IntMatrix) -> bool:
    """True when every k x k minor of the HNF basis B is in {0, +-1}.

    A spanned HNF basis has every entry in {0, +-1}: its minor on the
    pivot columns is the product of the positive pivots, so each pivot
    is 1, the entries above it are reduced to 0, and any other entry is
    up to sign the minor that swaps it in for its row's pivot column.
    That test rules most unspanned lattices out before any Smith form.

    Once it has passed, B is ``[I | M]`` up to column order, M the
    k x (n - k) tableau on the free columns.  A k x k minor of B that
    leaves out the pivot columns of rows R and takes the free columns S
    (|R| = |S|) is, up to sign, the minor of M on rows R and columns S.
    So the k-minors are in {0, +-1} exactly when every square submatrix
    of M has all its invariant factors 1 (its nonzero ones when it is
    singular), i.e. when M is totally unimodular.  The submatrices are
    taken by size, smallest first, and one with a zero row or column is
    skipped: its minor is 0.  Raises ``AmbientDimensionCapError`` when
    the C(n, k) = sum_s C(k, s) C(n - k, s) minors pass
    ``_MAX_SUBSETS``, before the first Smith form.
    """
    basis = LatticeBasis.from_generators(generators)
    if any(e not in (-1, 0, 1) for e in basis.hnf.entries):
        return False
    k, n = basis.rank, basis.ambient
    price = math.comb(n, k)
    if price > _MAX_SUBSETS:
        raise AmbientDimensionCapError(
            f"certifying takes C({n}, {k}) = {price} rank-sized minors, "
            f"above the subset cap _MAX_SUBSETS = {_MAX_SUBSETS}"
        )
    pivots = {c for _, c in hnf_pivots(basis.hnf)}
    free = tuple(j for j in range(n) if j not in pivots)
    tableau = [[row[j] for j in free] for row in basis.basis_rows()]
    for size in range(1, min(k, n - k) + 1):
        for chosen in itertools.combinations(tableau, size):
            live = [j for j in range(n - k) if any(row[j] for row in chosen)]
            for cols in itertools.combinations(live, size):
                if not all(any(row[j] for j in cols) for row in chosen):
                    continue
                square = _project(chosen, cols)
                if any(f != 1 for f in snf(square).invariant_factors()):
                    return False
    return True


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
    certificate (``_rank_sized_certificate``) takes a Smith form of each
    square submatrix of M that has no zero row or column: the lattice is
    spanned exactly when M is totally unimodular.

    A family with no nonzero generators is spanned outright (every
    projection is the zero lattice), with no subsets enumerated. When
    the certificate holds, the verdict is spanned with
    ``subsets_checked`` = 2^n - 1. When it fails, subsets are scanned by
    size then lexicographically over the generators as given, stopping
    at the first unsaturated projection with a validated witness pair;
    by the theorem that subset has at most k coordinates. A scan that
    finds no failure contradicts the certificate and raises
    ``WitnessError``.

    The scan takes no Smith form of a projection that passes the
    Heller-Tompkins test (Heller & Tompkins 1956; Schrijver, *Theory of
    Linear and Integer Programming*, Thm 19.3): every column has at most
    two nonzeros, each +-1, and the rows split into two classes with
    each same-sign pair of a column in different classes and each
    opposite-sign pair in the same class. Such a matrix is totally
    unimodular, so each nonzero maximal minor is +-1, all its invariant
    factors are 1 and the projection is saturated. The test is read off
    the generator rows once (``_signed_edges``); a projection keeps the
    columns it selects and the classes that split them, so each subset
    is decided by a parity union-find over its own columns
    (``_two_colourable``). Only saturated projections are skipped, so
    the failing subset, its witness and ``subsets_checked`` are those of
    the scan with a Smith form on every subset.

    ``AmbientDimensionCapError`` is raised when the certificate prices
    more than ``_MAX_SUBSETS`` rank-sized minors, or the scan would visit
    more than ``_MAX_SUBSETS`` subsets. At ambient n <= 22 neither
    happens: C(n, k) and the scan are both at most 2^n - 1.
    """
    n = generators.cols
    if generators.is_zero():
        return SpanningVerdict(True, None, 0)
    if _rank_sized_certificate(generators):
        return SpanningVerdict(True, None, 2**n - 1)
    rows = list(map(generators.row, range(generators.rows)))
    edges = _signed_edges(rows, n)
    order = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, n + 1)
    )
    for checked, combo in enumerate(order, 1):
        if checked > _MAX_SUBSETS:
            raise AmbientDimensionCapError(
                f"the witness scan of ambient {n} passed the subset cap "
                f"_MAX_SUBSETS = {_MAX_SUBSETS}"
            )
        chosen = [edges[j] for j in combo]
        if None not in chosen and _two_colourable(filter(None, chosen)):
            continue
        projected = _project(rows, combo)
        dec = snf(projected)
        if all(f == 1 for f in dec.invariant_factors()):
            continue
        subset = CoordSubset(n, tuple(j + 1 for j in combo))
        witness = _saturation_witness(projected, dec)
        return SpanningVerdict(False, (subset, witness), checked)
    raise WitnessError(
        "a rank-sized projection is unsaturated, yet the subset scan found "
        "every projection saturated"
    )
