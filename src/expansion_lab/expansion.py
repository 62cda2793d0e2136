"""Expansion constants of integer matrices over the rationals, the
integers, and prime fields.

For a matrix ``A`` and a target vector ``v`` in the image of ``A``, the
expansion constant at ``v`` is the smallest possible ratio
``l1(u) / l1(v)`` over preimages ``u`` of ``v`` (Hamming weight instead
of the 1-norm when working modulo a prime ``q``).  The global expansion
constant is the supremum of the per-target values over all nonzero
image vectors.

Each per-target solver checks its target in one place, ``_target``:
one entry per row, integer entries (``True`` and non-integral values
are refused, never truncated), reduced mod ``q`` over F_q, and nonzero.
The rational image check is ``_rational_preimage``.

Everything here is exact.  Rational optima come from
``simplex.min_l1_combination``, integer optima from branch and bound
with rational relaxation bounds, and finite-field optima from a search
of the solution coset.  The relaxations of branch and bound run in
integers scaled by a common denominator (``simplex._relaxation``);
Fractions appear only in the results.  Branch and bound stops below any
node whose relaxation already has integer coefficients.  On an
integrally spanned kernel the HNF basis is totally unimodular, so the
root relaxation is integral and one LP decides: the paper's equality of
the rational and integer values, met with no spanning check per target
and no Fraction built before the value.  Only
``xi_z_global`` runs that check, to reduce to the rational global
value.  A second, independent route to the rational per-target value
(enumeration of the minimal faces of the objective, the vertices of its
hyperplane arrangement, read off ``_arrangement_lines`` like the global
candidates) is kept deliberately separate so the two can be compared in
tests.

Both minimizations split when the kernel basis rows have pairwise
disjoint supports, as the component indicators spanning the kernel of a
graph incidence matrix do: each row is then solved on its own, by a
weighted median over Q (see ``simplex``) and by the most frequent
zeroing coefficient over F_q.  Kernels with overlapping rows take the
general path, the simplex or the full coset enumeration, which also
serve the tests as oracles for the closed forms.  The global F_q value
walks the image once, one pivot column per step (see ``_image_walk``),
and weighs each coset by the same rule as ``xi_zq_at``,
``_min_weight_in_coset``.  The image walk and the coset enumeration are
one product-order odometer over F_q, ``_odometer``: it adds one sparse
step per changed digit and keeps the Hamming weight as a counter.  The
solves and walks over F_q read a per-matrix plan, ``_modq_system``: the
row transform of the elimination and the kernel as sparse rows, built
once, so a target pays only for nonzeros.

The global values over Q, Z and F_q split over the blocks of the
matrix: the connected components of its row-support graph
(``exactla._blocks``; over F_q, of the reduced entries).  Both norms add
over blocks, so by the mediant inequality the global value is the
largest block value.  ``_block_maximum`` runs the whole-matrix route on
each block submatrix that ``_blocks`` hands out, under that route's caps,
and reports the target of the first block, in order of smallest column,
that reaches the value.  Over Z the spanning check, too, runs on each
block.

Every enumeration is capped by a module constant that the function
reads when it is called: ``_MAX_NODES``, ``_MAX_CANDIDATES``,
``_MAX_COSET`` (checked where a coset is enumerated: per coset in
``_enumerate_coset``, and over the whole walk, ``q ** (rank +
dim(ker))``, before ``xi_zq_global`` walks an enumerated kernel),
``_MAX_IMAGES`` and ``_MAX_FACE_SUBSETS``; the global values check
them, and ``spanning._MAX_SUBSETS``, per block.  A cap hit raises
``EnumerationCapError``, except past the candidate or subset cap of the
global constants, where the value is a lower bound over
``_SAMPLE_TARGETS`` sampled targets with ``exact=False``; those targets
are the images of the first ``_SAMPLE_BOX_POINTS`` points of the box
[-2, 2]^n.  The campaign caps in ``harness`` still price the
whole matrix (``q^cols`` and ``2^cols``), so they skip checks that the
split would now finish.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    AmbientDimensionCapError,
    DimensionMismatchError,
    EnumerationCapError,
    NotPrimeError,
    TargetNotInImageError,
    TargetNotInIntegerImageError,
    UndefinedExpansionError,
    ZeroTargetError,
)
from .exactla import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    Rational,
    _INT,
    _blocks,
    _divide,
    _reduced_echelon,
    disjoint_supports,
    integer_kernel_basis,
    integerize,
    l1_norm,
    mat_vec,
    primitive_ray,
    solve_integer,
    solve_rational,
)
from .simplex import _relaxation, min_l1_combination
from .spanning import is_integrally_spanned

Vector = Sequence[Union[int, Rational]]

#: Cap on q ** dim(kernel) for finite-field coset enumeration.
_MAX_COSET = 10**7

#: Cap on q ** rank for finite-field image enumeration.
_MAX_IMAGES = 10**6

#: Cap on the number of candidate targets examined by the exact global
#: rational search.
_MAX_CANDIDATES = 200_000

#: Number of sampled targets for the inexact global fallbacks.
_SAMPLE_TARGETS = 40

#: Cap on the box points [-2, 2]^n whose images are sampled for them.
_SAMPLE_BOX_POINTS = 20_000

#: Cap on the hyperplane subsets the face-enumeration oracle solves,
#: C(distinct hyperplanes, kernel rank).
_MAX_FACE_SUBSETS = math.comb(14, 7)

#: Cap on the relaxations one integer branch and bound may solve.
_MAX_NODES = 100_000


@dataclass(frozen=True)
class ExpansionResult:
    """Exact per-target expansion value together with an optimal witness.

    ``ring`` is ``"Q"``, ``"Z"``, or ``"Zq(q)"`` with the modulus filled
    in.  ``solver`` records which routine produced the witness: ``"lp"``
    (the L1 program: weighted medians or simplex), ``"face_oracle"``
    (face enumeration), ``"bnb"`` (branch and bound), or
    ``"coset_bruteforce"`` (finite-field coset search: per-row modes or
    enumeration).  The witness always satisfies ``A @ witness ==
    target`` in the stated ring and ``norm(witness) == value *
    norm(target)``.
    """

    value: Rational
    target: tuple
    witness: tuple
    ring: str
    solver: str


@dataclass(frozen=True)
class GlobalExpansion:
    """Global expansion value, an attaining target, and an exactness flag.

    When ``exact`` is true the value is the true supremum and
    ``attaining_target`` attains it.  When false the value is only a
    certified lower bound obtained from a finite sample of targets.
    """

    value: Rational
    attaining_target: IntVector
    exact: bool


def _target(a, v: Vector, q: Optional[int] = None) -> IntVector:
    """The target ``v`` of a per-target solver on ``a``, checked: one
    entry per row of ``a``, integer entries (an ``int`` other than
    ``True``/``False``, or an integral ``Fraction``), reduced mod ``q``
    when given, and not zero (``ZeroTargetError``).  A ``v`` that is not
    a sequence (``None``, ``5``) raises ``DimensionMismatchError``."""
    try:
        length = len(v)
    except TypeError as exc:
        raise DimensionMismatchError(
            f"target must be a sequence of integers: {exc}"
        ) from exc
    if length != a.rows:
        raise DimensionMismatchError(
            f"target has length {length}, matrix has {a.rows} rows"
        )
    if _INT.issuperset(map(type, v)):
        # One type scan for the usual all-int target.
        out = v
    else:
        out = []
        for x in v:
            if isinstance(x, bool):
                raise DimensionMismatchError("target entries must be integers")
            if isinstance(x, int):
                out.append(x)
            elif isinstance(x, Fraction) and x.denominator == 1:
                out.append(int(x))
            else:
                raise DimensionMismatchError(
                    f"target entries must be integers, got {x!r}"
                )
    v = tuple(out) if q is None else tuple(x % q for x in out)
    if not any(v):
        raise ZeroTargetError("expansion at the zero target is undefined")
    return v


def _rational_preimage(a: IntMatrix, v: IntVector):
    """``solve_rational(a, v)``, or ``TargetNotInImageError`` when ``v``
    has no rational preimage."""
    u0 = solve_rational(a, v)
    if u0 is None:
        raise TargetNotInImageError(
            "target is not in the rational image of the matrix"
        )
    return u0


@lru_cache(maxsize=512)
def _kernel_info(a: IntMatrix):
    """``(rows, supports)``, cached per matrix and shared by every
    solver: the HNF basis rows of the integer kernel of ``a`` and, for
    each suffix j = 0..k (the empty one included), the LP route of
    branch and bound at level j, ``disjoint_supports(rows[j:])``."""
    rows = tuple(integer_kernel_basis(a).basis_rows())
    return rows, tuple(disjoint_supports(rows[j:]) for j in range(len(rows) + 1))


# ---------------------------------------------------------------------------
# Rational per-target expansion.
# ---------------------------------------------------------------------------


def xi_q_at(a: IntMatrix, v: Vector) -> ExpansionResult:
    """Exact rational expansion constant of ``a`` at target ``v``.

    Minimizes ``l1(u)`` over all rational solutions of ``a @ u == v``
    and divides by ``l1(v)``.  Raises ``ZeroTargetError`` for ``v == 0``
    and ``TargetNotInImageError`` when ``v`` has no rational preimage.
    """
    v = _target(a, v)
    u0 = _rational_preimage(a, v)
    kernel, _ = _kernel_info(a)
    _, witness, best = min_l1_combination(u0, kernel)
    value = Fraction(best, l1_norm(v))
    return ExpansionResult(
        value=value, target=tuple(v), witness=witness, ring="Q", solver="lp"
    )


# ---------------------------------------------------------------------------
# Face-enumeration oracle for the rational per-target value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizationFace:
    """One minimal face of the piecewise-linear objective, a vertex.

    ``vanishing`` lists the indices (into the matrix columns, 0-based)
    of the affine terms that vanish at the vertex, ``point`` is the
    vertex in kernel coordinates, and ``value`` is the objective value
    there.
    """

    vanishing: tuple
    point: tuple
    value: Rational


@dataclass(frozen=True)
class FaceDecomposition:
    """All minimal faces of ``x -> sum_i |u0_i + (K^T x)_i|``.

    The global minimum of the objective is ``min(f.value for f in
    faces)``, and every minimizer lies on one of the listed faces.
    """

    faces: tuple
    minimum: Rational


def _vertices(a: IntMatrix, v: Vector):
    """The checked target ``v`` and, for each vertex of the objective's
    arrangement in order of the hyperplanes through it, its point and
    the terms ``u0 + K^T x`` there, as Fractions.  Serves
    ``minimization_faces`` and ``xi_q_at_face_oracle``."""
    v = _target(a, v)
    u0 = _rational_preimage(a, v)
    kernel, _ = _kernel_info(a)
    k = len(kernel)
    # Term i of the objective is |u0[i] + sum_j kernel[j][i] * x[j]|, zero
    # on the hyperplane hp . (x, 1) == 0 with hp the signed primitive ray
    # of (kernel[.][i], u0[i]); the distinct nontrivial ones are kept.
    coeffs = [tuple(row[i] for row in kernel) for i in range(a.cols)]
    hyperplanes = _distinct_rays(
        integerize(list(c) + [t]) for c, t in zip(coeffs, u0) if any(c)
    )
    # The kernel rows are independent, so the normals span Q^k and every
    # minimal flat is a vertex: a k-subset whose homogeneous line y has
    # y[k] != 0, at the point y[:k] / y[k].
    lines = _arrangement_lines(hyperplanes, k + 1, _MAX_FACE_SUBSETS)
    if lines is None:
        raise EnumerationCapError(
            f"C({len(hyperplanes)}, {k}) hyperplane subsets exceed face "
            f"enumeration cap {_MAX_FACE_SUBSETS}"
        )
    vertices = {}
    for y in lines:
        if not y[k]:
            continue
        through = tuple(
            idx
            for idx, hp in enumerate(hyperplanes)
            if not sum(c * x for c, x in zip(hp, y))
        )
        vertices[through] = tuple(Fraction(c, y[k]) for c in y[:k])
    out = []
    for key in sorted(vertices):
        point = vertices[key]
        terms = tuple(
            t + sum(c * x for c, x in zip(col, point))
            for col, t in zip(coeffs, u0)
        )
        out.append((point, terms))
    return v, out


def minimization_faces(a: IntMatrix, v: Vector) -> FaceDecomposition:
    """Decompose the rational minimization at ``v`` into minimal faces.

    The objective ``g(x) = l1(u0 + K^T x)`` over kernel coordinates
    ``x`` is piecewise linear; its domains of linearity are cut out by
    the hyperplanes on which individual terms vanish, and its minimal
    faces are the minimal flats of that arrangement.  The rows of the
    kernel basis ``K`` are independent, so the hyperplane normals span
    Q^k and every minimal flat is a vertex.  Each vertex is read off
    ``_nullspace_line`` on a k-subset of the distinct nontrivial
    hyperplanes, homogenized as ``(phi, offset)``.  The faces are
    reported in order of the hyperplanes through them, each with the
    terms vanishing there, its point and the objective value.  Intended
    as an independent check of the simplex route.  Raises
    ``EnumerationCapError`` when the k-subsets of the distinct
    hyperplanes number more than ``_MAX_FACE_SUBSETS``, which keeps the
    combinatorics desk-sized.
    """
    _, vertices = _vertices(a, v)
    faces = tuple(
        MinimizationFace(
            vanishing=tuple(i for i, t in enumerate(terms) if t == 0),
            point=point,
            value=Fraction(sum(map(abs, terms))),
        )
        for point, terms in vertices
    )
    return FaceDecomposition(faces=faces, minimum=min(f.value for f in faces))


def xi_q_at_face_oracle(a: IntMatrix, v: Vector) -> ExpansionResult:
    """Rational expansion at ``v`` via face enumeration instead of
    simplex.  Same value as ``xi_q_at``, independently derived, under
    the caps of ``minimization_faces``.  The witness is the terms
    vector at the first vertex, in face order, of least value."""
    v, vertices = _vertices(a, v)
    witness = min((terms for _, terms in vertices), key=l1_norm)
    return ExpansionResult(
        value=Fraction(l1_norm(witness), l1_norm(v)),
        target=v,
        witness=witness,
        ring="Q",
        solver="face_oracle",
    )


# ---------------------------------------------------------------------------
# Integer per-target expansion.
# ---------------------------------------------------------------------------


def xi_z_at(a: IntMatrix, v: Vector) -> ExpansionResult:
    """Exact integer expansion constant of ``a`` at target ``v``.

    Minimizes ``l1(u)`` over integer solutions of ``a @ u == v`` by
    branch and bound from one integer preimage (see
    ``_branch_and_bound``).  Raises ``TargetNotInIntegerImageError``
    (carrying the rational value) when ``v`` has rational but no integer
    preimage, and ``EnumerationCapError`` when the search passes
    ``_MAX_NODES`` relaxations.
    """
    v = _target(a, v)
    u0 = solve_integer(a, v)
    if u0 is None:
        # xi_q_at raises TargetNotInImageError when v has no rational
        # preimage either.
        rational = xi_q_at(a, v).value
        raise TargetNotInIntegerImageError(
            "target has rational but no integer preimage", rational
        )
    best_u, best_val = _branch_and_bound(u0, *_kernel_info(a))
    return ExpansionResult(
        value=Fraction(best_val, l1_norm(v)),
        target=tuple(v),
        witness=best_u,
        ring="Z",
        solver="bnb",
    )


def _branch_and_bound(u0, kernel, supports):
    """Exact integer minimum of ``l1(u0 + sum c_j kernel_j)`` over
    integer coefficients, with a point attaining it.

    Depth-first search that fixes one coefficient per level.  A node at
    level j solves the rational relaxation over ``kernel[j:]`` on the
    route ``supports[j]`` (``simplex._relaxation``, in integers scaled
    by a common denominator) and is pruned when that bound cannot beat
    the incumbent, which starts at ``u0``: ``|w|_1 >= best * scale``,
    compared in integers.  A node whose relaxation has integer
    coefficients (scale 1) needs no descent: its optimum is the best
    integer point below it, and becomes the incumbent as it stands.  On
    an integrally spanned kernel the root relaxation is such a node (the
    HNF basis is totally unimodular), so one LP decides and no Fraction
    is built.

    Elsewhere the children are scanned outward from the floor of the
    relaxed coefficient in both directions; a direction stops at the
    first pruned child, which is sound because the relaxation value is
    convex in the fixed coefficient and the incumbent only improves.
    Raises ``EnumerationCapError`` past ``_MAX_NODES`` relaxations.
    """
    best_u, best_val = tuple(u0), l1_norm(u0)
    if not kernel:
        return best_u, best_val
    nodes = 0

    def descend(base, j):
        # base = u0 + the shifts fixed at levels < j; True when pruned.
        nonlocal best_u, best_val, nodes
        nodes += 1
        if nodes > _MAX_NODES:
            raise EnumerationCapError(
                f"branch and bound node limit {_MAX_NODES} exceeded"
            )
        x, w, scale = _relaxation(list(base), 1, kernel[j:], supports[j])
        bound = sum(map(abs, w))
        if bound >= best_val * scale:
            return True
        if scale == 1:
            best_u, best_val = tuple(w), bound
            return False
        center = x[0] // scale
        for c, step in ((center, -1), (center + 1, 1)):
            while not descend(
                tuple(b + c * e for b, e in zip(base, kernel[j])), j + 1
            ):
                c += step
        return False

    descend(tuple(u0), 0)
    return best_u, best_val


# ---------------------------------------------------------------------------
# Global expansion over Q and Z.
# ---------------------------------------------------------------------------


def _block_maximum(a, solve) -> GlobalExpansion:
    """The global value ``solve`` gives, split over the blocks of ``a``,
    each block solved on the submatrix that ``_blocks`` hands out, under
    the caps: the largest block value, exact when every block's is.  The
    target is that of the first block, in order of smallest column,
    that reaches the value, padded with zeros.  A matrix with no block
    has a zero image, where the value is undefined
    (``UndefinedExpansionError``).  Each distinct block submatrix is
    solved once per call: identical blocks give identical results, so
    a presentation ``d1`` whose blocks repeat costs one solve per kind
    of block, and a cap is hit, if at all, on the same first block."""
    blocks = _blocks(a)
    if not blocks:
        raise UndefinedExpansionError("global expansion is undefined for a zero image")
    solved = {}
    best = best_rows = None
    exact = True
    for rows, _, block in blocks:
        res = solved.get(block)
        if res is None:
            res = solved[block] = solve(block)
        exact = exact and res.exact
        if best is None or res.value > best.value:
            best, best_rows = res, rows
    target = [0] * a.rows
    for i, x in zip(best_rows, best.attaining_target):
        target[i] = x
    return GlobalExpansion(
        value=best.value, attaining_target=tuple(target), exact=exact
    )


def _global_candidates(a: IntMatrix):
    """Candidate targets covering every extreme point of the unit ball
    of the 1-norm intersected with the rational image.

    Each ambient coordinate ``i`` gives the functional ``y -> (y @ B)[i]``
    on Q^r, ``B`` the image lattice's HNF basis.  An extreme point has
    r-1 independent vanishing functionals, so it lies on the line cut
    out by some (r-1)-subset of the distinct ones.  Returns the point
    ``y @ B`` of each distinct primitive line ``y`` (first entry
    positive), or None past ``_MAX_CANDIDATES`` subsets.  ``B`` is
    echelon with positive pivots, so each is primitive in the image
    lattice, leads with a positive entry and spans a ray of its own.
    """
    basis = LatticeBasis.from_generators(a.transpose()).basis_rows()
    if len(basis) == 1:
        # one candidate ray, exact whatever _MAX_CANDIDATES is
        return [basis[0]]
    columns = list(zip(*basis))
    lines = _arrangement_lines(_distinct_rays(columns), len(basis), _MAX_CANDIDATES)
    if lines is None:
        return None
    return [
        tuple(sum(map(operator.mul, y, phi)) for phi in columns)
        for y in dict.fromkeys(lines)
    ]


def _distinct_rays(vectors):
    """The distinct primitive rays of the nonzero ``vectors``, in order
    of first occurrence."""
    return list(dict.fromkeys(primitive_ray(v) for v in vectors if any(v)))


def _arrangement_lines(normals, r, cap):
    """The ``_nullspace_line`` of each (r-1)-subset of the hyperplane
    ``normals`` on Q^r that cuts out a line, in ``combinations`` order,
    or None when the subsets number more than ``cap``.  The one
    enumeration of an arrangement's lines: the global candidates and the
    face oracle's vertices."""
    if math.comb(len(normals), r - 1) > cap:
        return None
    lines = (_nullspace_line(s, r) for s in itertools.combinations(normals, r - 1))
    return (y for y in lines if y is not None)


def _nullspace_line(subset, r):
    """Primitive integer spanning vector of the solution line of the
    homogeneous system given by ``subset``, or ``None`` when the
    solution space does not have dimension exactly one.

    With ``s`` the last pivot of the fraction-free elimination, ``s``
    times each reduced row is integral, so the line is read off in
    integers: ``y[free] = s`` and ``y[pivot_j] = -row_j[free] * s /
    scale_j``.
    """
    rows, scales, pivots = _reduced_echelon(subset, r)
    if len(pivots) != r - 1:
        return None
    free = next(c for c in range(r) if c not in pivots)
    last = scales[len(pivots) - 1] if pivots else 1
    y = [0] * r
    y[free] = last
    for row, scale, c in zip(rows, scales, pivots):
        y[c] = -row[free] * last // scale
    return primitive_ray(y)


def _sampled_targets(a: IntMatrix, *, dedupe_rays: bool):
    """Deterministic finite sample of nonzero image targets: images of
    the integer box [-2, 2]^n in lexicographic order, de-duplicated
    (by ray or exactly), capped at ``_SAMPLE_TARGETS`` targets and at
    the first ``_SAMPLE_BOX_POINTS`` box points."""
    seen = {}
    out = []
    for count, u in enumerate(
        itertools.product(range(-2, 3), repeat=a.cols)
    ):
        if count >= _SAMPLE_BOX_POINTS or len(out) >= _SAMPLE_TARGETS:
            break
        v = mat_vec(a, u)
        if all(x == 0 for x in v):
            continue
        key = tuple(primitive_ray(v)) if dedupe_rays else tuple(v)
        if key in seen:
            continue
        seen[key] = None
        out.append(tuple(v))
    return out


def xi_q_global(a: IntMatrix) -> GlobalExpansion:
    """Global rational expansion constant of ``a``.

    Exact by default: the supremum over the image is attained at an
    extreme point of the image's unit 1-norm ball, and those are covered
    by a finite candidate enumeration.  If the candidate count would
    exceed ``_MAX_CANDIDATES`` the result degrades to a lower bound over
    ``_SAMPLE_TARGETS`` sampled targets with ``exact=False``.  Raises
    ``UndefinedExpansionError`` when the image is zero.

    The attaining target lies in the integer image, so ``xi_z_at`` is
    defined there: ``(2,)`` on ``[[2]]``.

    Split over the blocks of ``a`` by ``_block_maximum``, each block
    under the caps on its own.
    """
    return _block_maximum(a, _rational_global)


def _rational_global(a: IntMatrix) -> GlobalExpansion:
    """``xi_q_global`` on the whole of the nonzero ``a``: the candidate
    enumeration, or the sample past ``_MAX_CANDIDATES``."""
    candidates = _global_candidates(a)
    exact = candidates is not None
    if not exact:
        candidates = _sampled_targets(a, dedupe_rays=True)
    return _largest_at(a, candidates, xi_q_at, exact)


def _largest_at(a, targets, solve, exact: bool) -> GlobalExpansion:
    """The largest ``solve(a, v).value`` over ``targets``, attained at
    the first target that reaches it (a later one replaces it only with
    a strictly larger value)."""
    best = best_target = None
    for v in targets:
        value = solve(a, v).value
        if best is None or value > best:
            best, best_target = value, v
    return GlobalExpansion(value=best, attaining_target=best_target, exact=exact)


def xi_z_global(a: IntMatrix) -> GlobalExpansion:
    """Global integer expansion constant of ``a``.

    Split over the blocks of ``a`` by ``_block_maximum``, as
    ``xi_q_global`` is: the kernel of ``a`` is the direct sum of its
    blocks' kernels and a unit vector per zero column, so it is
    integrally spanned exactly when every block's kernel is.
    """
    return _block_maximum(a, _integer_global)


def _integer_global(a: IntMatrix) -> GlobalExpansion:
    """``xi_z_global`` on one block ``a``.

    When the kernel of ``a`` is integrally spanned the integer and
    rational per-target values agree everywhere, so this is
    ``_rational_global``, whose targets already lie in the integer
    image, where ``xi_z_at`` is defined.  Otherwise, or past the subset
    cap ``spanning._MAX_SUBSETS``, it is a lower bound over
    ``_SAMPLE_TARGETS`` sampled targets, ``exact=False``.  They are
    images of integer box points, so ``xi_z_at`` finds integer
    preimages, and never none: the first two box points differ in the
    last column, which a block never has zero.
    """
    try:
        spanned = is_integrally_spanned(integer_kernel_basis(a).hnf).spanned
    except AmbientDimensionCapError:
        spanned = False
    if spanned:
        return _rational_global(a)
    targets = _sampled_targets(a, dedupe_rays=False)
    return _largest_at(a, targets, xi_z_at, False)


# ---------------------------------------------------------------------------
# Prime fields.
# ---------------------------------------------------------------------------


#: Miller-Rabin to the prime bases 2..41 decides primality exactly
#: below this bound (Sorenson & Webster 2015).
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q: int) -> bool:
    """Whether ``q`` is a prime ``int``, by deterministic Miller-Rabin;
    ``NotPrimeError`` from ``_PRIME_BOUND`` on."""
    if type(q) is not int or q < 2:
        return False
    if q >= _PRIME_BOUND:
        raise NotPrimeError(f"modulus {q} is past the primality bound {_PRIME_BOUND}")
    if q <= _PRIME_BASES[-1]:
        return q in _PRIME_BASES
    # q - 1 = d * 2^s with d odd; q passes base b when b^d = 1 or some
    # b^(d 2^j) = -1 with j < s.
    low = (q - 1) & (1 - q)
    d, s = (q - 1) // low, low.bit_length() - 1
    for b in _PRIME_BASES:
        x = pow(b, d, q)
        if x != 1 and q - 1 not in (pow(x, 1 << j, q) for j in range(s)):
            return False
    return True


@dataclass(frozen=True)
class ModQMatrix(IntMatrix):
    """Matrix over the prime field with ``q`` elements: an ``IntMatrix``
    whose entries are stored reduced into ``[0, q)``.

    Every construction, ``from_rows``, ``reduce_mod_q`` and
    ``dataclasses.replace`` included, first rejects a composite or unit
    modulus, and one that is not an ``int`` (``3.0``, ``True``), with
    ``NotPrimeError``, then runs ``IntMatrix``'s dimension checks, then
    reduces the entries.  The integer operations (``@``, ``transpose``,
    ``mat_vec``) act on the stored residues and return plain
    ``IntMatrix`` values or integers.  A ``ModQMatrix`` never equals an
    ``IntMatrix``.  A missing modulus (``zeros`` and ``identity`` pass
    none) is None, which the prime check refuses.
    """

    q: Optional[int] = None

    def __post_init__(self):
        if not _is_prime(self.q):
            raise NotPrimeError(f"modulus {self.q} is not prime")
        super().__post_init__()
        object.__setattr__(
            self, "entries", tuple(x % self.q for x in self.entries)
        )

    # The dataclass would generate an uncached hash; keep IntMatrix's.
    __hash__ = IntMatrix.__hash__

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], q: int, cols: Optional[int] = None) -> "ModQMatrix":
        """The rows ``data``, checked by ``IntMatrix.from_rows``, mod ``q``."""
        m = IntMatrix.from_rows(data, cols)
        return cls(m.rows, m.cols, m.entries, q)


def reduce_mod_q(a: IntMatrix, q: int) -> ModQMatrix:
    """Entrywise reduction of an integer matrix modulo a prime."""
    return ModQMatrix(a.rows, a.cols, a.entries, q)


def lift_section(u: Sequence[int], q: int) -> IntVector:
    """The standard set-theoretic section of reduction mod ``q``: each
    residue in ``[0, q)`` is lifted to the integer with the same value.
    Rejects inputs outside ``[0, q)`` so that reduction after lifting is
    the identity by construction, and a ``u`` that is not a sequence,
    both with ``DimensionMismatchError``."""
    if not _is_prime(q):
        raise NotPrimeError(f"modulus {q} is not prime")
    try:
        residues = tuple(u)
    except TypeError as exc:
        raise DimensionMismatchError(
            f"residues must be a sequence of integers: {exc}"
        ) from exc
    if all(type(x) is int and 0 <= x < q for x in residues):
        # One scan for the usual input, plain ints in range.
        return residues
    for x in residues:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < q:
            raise DimensionMismatchError(
                f"residue {x!r} is not in the range [0, {q})"
            )
    return residues


def hamming_weight(u: Sequence[int]) -> int:
    """Number of nonzero entries."""
    return len(u) - u.count(0)


class _ModQPlan(NamedTuple):
    """The sparse rows the solves and walks over F_q read, per matrix.

    ``solve`` holds the row transform's rows for the pivots and
    ``consistency`` its rows past the rank, each as ``(cols, entries)``
    of its nonzeros; ``steps`` holds each kernel row's nonzeros as pairs
    ``(i, x)``, the ``_odometer`` steps of ``_enumerate_coset``."""

    solve: tuple[tuple[IntVector, IntVector], ...]
    consistency: tuple[tuple[IntVector, IntVector], ...]
    steps: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=256)
def _modq_system(a: ModQMatrix):
    """Reduced row echelon data for solving ``a @ u = w`` over F_q,
    decided once per matrix: (kernel terms, pivot columns, kernel
    basis, plan), the terms as ``_disjoint_terms`` gives them, the
    kernel basis as dense rows, and the plan a ``_ModQPlan``: the row
    transform and the kernel as sparse rows, so that a solve or a coset
    step pays only for nonzeros."""
    q, m, n = a.q, a.rows, a.cols
    aug = [list(a.row(i)) + [int(i == j) for j in range(m)] for i in range(m)]
    rows, scales, pivots = _reduced_echelon(aug, n, q)
    work = [_divide(row, s, q) for row, s in zip(rows, scales)]
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(work, pivots):
            vec[c] = -row[f] % q
        kernel.append(tuple(vec))
    trans = []
    for row in work:
        cols = tuple(j for j in range(m) if row[n + j])
        trans.append((cols, tuple(row[n + j] for j in cols)))
    r = len(pivots)
    plan = _ModQPlan(tuple(trans[:r]), tuple(trans[r:]), _sparse_steps(kernel))
    return _disjoint_terms(kernel, q), tuple(pivots), tuple(kernel), plan


def _sparse_steps(rows):
    """Each row's nonzero entries as pairs ``(i, x)``: the ``_odometer``
    steps of the vectors ``rows``."""
    return tuple(tuple((i, x) for i, x in enumerate(row) if x) for row in rows)


def _disjoint_terms(kernel, q):
    """Per kernel row, the triples ``(i, entry, -entry^-1 mod q)`` on its
    support when no two rows share a position, else None: what the
    per-row modes of ``_min_weight_in_coset`` read."""
    supports = disjoint_supports(kernel)
    if supports is None:
        return None
    return tuple(
        tuple((i, row[i], -pow(row[i], q - 2, q) % q) for i in support)
        for row, support in zip(kernel, supports)
    )


def modq_rank(a: ModQMatrix) -> int:
    """Rank of ``a`` over F_q."""
    _, pivots, _, _ = _modq_system(a)
    return len(pivots)


def _modq_solve(a: ModQMatrix, w: Sequence[int], pivots, plan):
    """A solution of ``a @ u = w`` over F_q from the pivots and plan of
    ``_modq_system(a)``, or None.  The consistency rows go first, so a
    target outside the image costs only them; then each pivot
    coordinate is its transform row's nonzeros times ``w``."""
    q = a.q
    for cols, entries in plan.consistency:
        s = 0
        for j, e in zip(cols, entries):
            s += e * w[j]
        if s % q:
            return None
    u = [0] * a.cols
    for c, (cols, entries) in zip(pivots, plan.solve):
        s = 0
        for j, e in zip(cols, entries):
            s += e * w[j]
        u[c] = s % q
    return tuple(u)


def xi_zq_at(a: ModQMatrix, w: Sequence[int]) -> ExpansionResult:
    """Exact expansion of ``a`` at ``w`` over F_q, using Hamming weight
    as the norm on both sides.

    Finds the first minimum-weight vector of the solution coset
    ``u0 + ker`` in coefficient enumeration order (see
    ``_min_weight_in_coset``); raises ``EnumerationCapError`` when the
    coset is enumerated and ``q ** dim(ker)`` exceeds ``_MAX_COSET``.
    """
    q = a.q
    w = _target(a, w, q)
    terms, pivots, _, plan = _modq_system(a)
    u0 = _modq_solve(a, w, pivots, plan)
    if u0 is None:
        raise TargetNotInImageError("target is not in the image over F_q")
    best_u, best_wt = _min_weight_in_coset(u0, plan.steps, q, terms)
    value = Fraction(best_wt, hamming_weight(w))
    return ExpansionResult(
        value=value,
        target=tuple(w),
        witness=tuple(best_u),
        ring=f"Zq({q})",
        solver="coset_bruteforce",
    )


def _min_weight_in_coset(u0, steps, q, terms):
    """First minimum-weight vector of the coset ``u0 + span(kernel)``
    in coefficient enumeration order, with its weight; ``steps`` holds
    the kernel rows as ``_sparse_steps``.

    When ``terms`` (``_disjoint_terms``) is given the kernel rows have
    disjoint supports, the weight splits row by row, and the coefficient
    of each row is chosen on its own: the one that zeroes the most
    coordinates of ``u0`` on the row's support, the smallest such on a
    tie.  Because coefficients are enumerated lexicographically from 0,
    those per-row choices are exactly the first minimizer of the
    enumeration.  Other kernels (``terms`` None) are enumerated.  The one
    coset rule over F_q: ``xi_zq_at`` and ``xi_zq_global`` both weigh
    cosets here.
    """
    if terms is None:
        return _enumerate_coset(u0, steps, q)
    best = list(u0)
    for row in terms:
        zeroed = {}
        for i, _, shift in row:
            c = u0[i] * shift % q
            zeroed[c] = zeroed.get(c, 0) + 1
        c = max(sorted(zeroed), key=zeroed.__getitem__)
        if c:
            for i, entry, _ in row:
                best[i] = (best[i] + c * entry) % q
    return tuple(best), hamming_weight(best)


def _enumerate_coset(u0, steps, q):
    """``_min_weight_in_coset`` by running over all coefficient vectors
    in lexicographic order, stepped by ``_odometer`` from ``u0``, one
    kernel row per changed coefficient; serves any kernel whose rows,
    like ``u0``, have entries in ``[0, q)``, given as ``_sparse_steps``
    (``_modq_system`` builds them once per matrix, not per coset).  A
    later vector replaces the best only with a strictly smaller weight,
    and the search ends once the best weighs at most 1 (at once when
    ``u0`` does): only the zero vector beats that, and it lies in no
    coset of a nonzero target.  The one enumeration of a coset, so the one place that
    checks ``_MAX_COSET`` per coset: raises ``EnumerationCapError`` when
    ``q ** dim(ker)`` exceeds it."""
    kdim = len(steps)
    if q**kdim > _MAX_COSET:
        raise EnumerationCapError(
            f"coset size q**{kdim} exceeds enumeration cap {_MAX_COSET}"
        )
    best_u, best_wt = tuple(u0), hamming_weight(u0)
    if best_wt <= 1:
        return best_u, best_wt
    u = list(u0)
    for wt in _odometer(u, steps, q, [0] * kdim, range(kdim)):
        if wt < best_wt:
            best_u, best_wt = tuple(u), wt
            if wt <= 1:
                break
    return best_u, best_wt


def _odometer(vec, steps, q, digits, positions):
    """Walks the digit vectors of F_q^r, r = ``len(steps)``, after the
    zero vector in ``itertools.product(range(q), repeat=r)`` order, last
    digit fastest, keeping ``vec`` at its start plus ``sum_j digit_j *
    steps[j]`` mod q.  The one product-order walk over F_q: the image
    (``_image_walk``) and the coset (``_enumerate_coset``) both step
    through it.

    ``vec`` is a list with entries in ``[0, q)`` and ``steps[j]`` a
    sparse vector, pairs ``(i, x)`` with ``x`` in ``[1, q)``.  Digit j
    is kept at ``digits[positions[j]]``, which starts at 0.  A step
    raises the last digit and carries; every digit that changes, one
    that wraps from q - 1 to 0 included, adds its sparse step to
    ``vec`` once (q copies add nothing), so a step costs about
    q / (q - 1) sparse steps and one write of ``digits`` per changed
    digit.  Yields the Hamming weight of ``vec`` after each step, kept
    as a counter; ``vec`` and ``digits`` are updated in place."""
    hw = hamming_weight(vec)
    r = len(steps)
    for _ in range(q**r - 1):
        j = r - 1
        while True:
            for i, x in steps[j]:
                old = vec[i]
                new = old + x
                if new >= q:
                    new -= q
                if not old:
                    hw += 1
                elif not new:
                    hw -= 1
                vec[i] = new
            p = positions[j]
            new = digits[p] + 1 if digits[p] + 1 < q else 0
            digits[p] = new
            if new:
                break
            j -= 1
        yield hw


def _image_walk(a: ModQMatrix):
    """Every nonzero image vector ``w`` of ``a`` over F_q with the
    preimage ``u0`` that carries the pivot-column coefficients: the
    ``_odometer`` over those coefficients, one pivot column per changed
    digit, each digit written into ``u0`` at its pivot.

    The coefficient vectors come in ``itertools.product(range(q),
    repeat=rank)`` order, last pivot fastest, the zero vector skipped.
    Yields ``(w, hw, u0)`` with ``w`` and ``u0`` lists updated in place
    (copy them to keep them) and ``hw`` the Hamming weight of ``w``.
    """
    _, pivots, _, _ = _modq_system(a)
    columns = [[(i, x) for i, x in enumerate(a.column(p)) if x] for p in pivots]
    w = [0] * a.rows
    u0 = [0] * a.cols
    for hw in _odometer(w, columns, a.q, u0, pivots):
        yield w, hw, u0


def iter_image_with_preimage(a: ModQMatrix) -> Iterator[tuple]:
    """Yields every nonzero image vector of ``a`` over F_q exactly once,
    paired with one preimage, as tuples.

    The preimage carries the coefficients of the pivot columns, which run
    in ``itertools.product(range(q), repeat=rank)`` order (last pivot
    fastest, zero skipped); each vector is stepped from the one before
    by ``_image_walk``, the walk ``xi_zq_global`` runs, on the
    ``_odometer`` that also steps each enumerated coset."""
    for w, _, u0 in _image_walk(a):
        yield tuple(w), tuple(u0)


def xi_zq_global(a: ModQMatrix) -> GlobalExpansion:
    """Global expansion of ``a`` over F_q: the maximum of the per-target
    values over all nonzero image vectors.  Exact (the image is finite);
    raises ``EnumerationCapError`` when ``q ** rank`` exceeds
    ``_MAX_IMAGES`` or, on a kernel whose cosets are enumerated, when
    ``q ** (rank + dim(ker))``, every coset vector the walk may visit,
    exceeds ``_MAX_COSET``, and ``UndefinedExpansionError`` on a zero
    image.

    The image is walked once by ``_image_walk``: the ``_odometer`` over
    the pivot-column coefficients in ``itertools.product`` order, adding
    one pivot column per changed digit.  Each image vector's coset is
    weighed by ``_min_weight_in_coset``, as in ``xi_zq_at``: per-row
    modes when the kernel rows have disjoint supports, enumeration
    otherwise.  ``attaining_target`` is the first maximizer in that
    order: a later image vector replaces it only with a strictly larger
    value.

    Split over the blocks of ``a`` by ``_block_maximum``, each block
    under the caps on its own, as ``xi_q_global`` is.
    """
    return _block_maximum(a, _image_maximum)


def _image_maximum(a: ModQMatrix) -> GlobalExpansion:
    """``xi_zq_global`` by one walk over the whole of the nonzero ``a``."""
    terms, pivots, kernel, plan = _modq_system(a)
    q, r = a.q, len(pivots)
    if q**r > _MAX_IMAGES:
        raise EnumerationCapError(
            f"image size q**{r} exceeds enumeration cap {_MAX_IMAGES}"
        )
    # On an enumerated kernel the walk may visit q**r cosets of q**k
    # vectors each: price them all before the first step.
    k = len(kernel)
    if terms is None and q ** (r + k) > _MAX_COSET:
        raise EnumerationCapError(
            f"image size q**{r} times coset size q**{k} exceeds "
            f"enumeration cap {_MAX_COSET}"
        )
    # The value wt / hw is compared by cross-multiplying; the start
    # -1 / 1 loses to any image vector.
    best_wt, best_hw, best_target = -1, 1, None
    for w, hw, u0 in _image_walk(a):
        wt = _min_weight_in_coset(u0, plan.steps, q, terms)[1]
        if wt * best_hw > best_wt * hw:
            best_wt, best_hw, best_target = wt, hw, tuple(w)
    best = Fraction(best_wt, best_hw)
    return GlobalExpansion(value=best, attaining_target=best_target, exact=True)
