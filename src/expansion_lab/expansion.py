"""Expansion constants of integer matrices over the rationals, the
integers, and prime fields.

For a matrix ``A`` and a target vector ``v`` in the image of ``A``, the
expansion constant at ``v`` is the smallest possible ratio
``l1(u) / l1(v)`` over preimages ``u`` of ``v`` (Hamming weight instead
of the 1-norm when working modulo a prime ``q``).  The global expansion
constant is the supremum of the per-target values over all nonzero
image vectors.

Everything here is exact.  Rational optima come from
``simplex.min_l1_combination``, integer optima from branch and bound
with rational relaxation bounds, and finite-field optima from a search
of the solution coset.  A second, independent route to the rational
per-target value (enumeration of the minimization faces of the
objective) is kept deliberately separate so the two can be compared in
tests.

Both minimizations split when the kernel basis rows have pairwise
disjoint supports, as the component indicators spanning the kernel of a
graph incidence matrix do: each row is then solved on its own, by a
weighted median over Q (see ``simplex``) and by the most frequent
zeroing coefficient over F_q.  Kernels with overlapping rows take the
general path, the simplex or the full coset enumeration, which also
serve the tests as oracles for the closed forms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

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
    RatVector,
    Rational,
    _divide,
    _reduced_echelon,
    disjoint_supports,
    hnf,
    integer_kernel_basis,
    integerize,
    l1_norm,
    mat_vec,
    primitive_ray,
    solve_integer,
    solve_rational,
)
from .simplex import min_l1_combination
from .spanning import is_integrally_spanned

Vector = Sequence[Union[int, Rational]]

#: Default cap on q ** dim(kernel) for finite-field coset enumeration.
DEFAULT_MAX_COSET = 10**7

#: Default cap on q ** rank for finite-field image enumeration.
DEFAULT_MAX_IMAGES = 10**6

#: Default cap on the number of candidate targets examined by the exact
#: global rational search.
DEFAULT_MAX_CANDIDATES = 200_000

#: Default number of sampled targets for the inexact global fallbacks.
DEFAULT_SAMPLE_TARGETS = 40

#: Caps for the face-enumeration oracle: kernel rank and number of
#: distinct affine terms.
DEFAULT_MAX_FACE_RANK = 8
DEFAULT_MAX_FACE_TERMS = 14


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


def _as_int_vector(v: Vector, what: str = "vector") -> IntVector:
    out = []
    for x in v:
        if isinstance(x, bool):
            raise DimensionMismatchError(f"{what} entries must be integers")
        if isinstance(x, int):
            out.append(x)
        elif isinstance(x, Fraction) and x.denominator == 1:
            out.append(int(x))
        else:
            raise DimensionMismatchError(
                f"{what} entries must be integers, got {x!r}"
            )
    return tuple(out)


def _check_target_length(a: IntMatrix, v: Sequence) -> None:
    if len(v) != a.rows:
        raise DimensionMismatchError(
            f"target has length {len(v)}, matrix has {a.rows} rows"
        )


@lru_cache(maxsize=512)
def _kernel_info(a: IntMatrix):
    """Kernel basis of ``a`` plus its integral-spanning verdict.

    The verdict is ``True``/``False`` when it could be decided and
    ``None`` when the kernel's ambient dimension exceeds the subset
    enumeration cap, in which case callers must fall back to methods
    that do not rely on it.
    """
    lattice = integer_kernel_basis(a)
    kernel = tuple(lattice.basis_rows())
    if not kernel:
        return kernel, True
    try:
        verdict = is_integrally_spanned(lattice.hnf).spanned
    except AmbientDimensionCapError:
        verdict = None
    return kernel, verdict


# ---------------------------------------------------------------------------
# Rational per-target expansion.
# ---------------------------------------------------------------------------


def xi_q_at(a: IntMatrix, v: Vector) -> ExpansionResult:
    """Exact rational expansion constant of ``a`` at target ``v``.

    Minimizes ``l1(u)`` over all rational solutions of ``a @ u == v``
    and divides by ``l1(v)``.  Raises ``ZeroTargetError`` for ``v == 0``
    and ``TargetNotInImageError`` when ``v`` has no rational preimage.
    """
    _check_target_length(a, v)
    v = _as_int_vector(v, "target")
    if all(x == 0 for x in v):
        raise ZeroTargetError("expansion at the zero target is undefined")
    u0 = solve_rational(a, v)
    if u0 is None:
        raise TargetNotInImageError(
            "target is not in the rational image of the matrix"
        )
    kernel, _ = _kernel_info(a)
    x, w, best = min_l1_combination(u0, kernel)
    witness = tuple(w)
    value = Fraction(best, l1_norm(v))
    return ExpansionResult(
        value=value, target=tuple(v), witness=witness, ring="Q", solver="lp"
    )


# ---------------------------------------------------------------------------
# Face-enumeration oracle for the rational per-target value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizationFace:
    """One minimal face of the piecewise-linear objective.

    ``vanishing`` lists the indices (into the matrix columns, 0-based)
    of the affine terms that vanish identically on the face.  ``point``
    is one relatively interior representative of the face in kernel
    coordinates, ``directions`` spans the face's affine hull around it,
    and ``value`` is the objective value, which is constant on the face.
    """

    vanishing: tuple
    point: tuple
    directions: tuple
    value: Rational


@dataclass(frozen=True)
class FaceDecomposition:
    """All minimal faces of ``x -> sum_i |u0_i + (K^T x)_i|``.

    The global minimum of the objective is ``min(f.value for f in
    faces)``, and every minimizer lies on one of the listed faces.
    """

    faces: tuple
    minimum: Rational


def _affine_solve(rows, rhs):
    """Solve a rational affine system, returning a particular solution
    and a basis of the homogeneous solution space, or ``None`` if the
    system is inconsistent.  ``rows`` are integer coefficient tuples
    over k unknowns, ``rhs`` the integer right-hand sides."""
    if not rows:
        return None
    k = len(rows[0])
    aug, scales, pivots = _reduced_echelon(
        [list(row) + [b] for row, b in zip(rows, rhs)], k
    )
    if any(row[k] for row in aug[len(pivots) :]):
        return None
    reduced = list(zip(aug, scales, pivots))
    point = [Fraction(0)] * k
    for row, s, c in reduced:
        point[c] = Fraction(row[k], s)
    basis = []
    for f in range(k):
        if f in pivots:
            continue
        vec = [Fraction(0)] * k
        vec[f] = Fraction(1)
        for row, s, c in reduced:
            vec[c] = Fraction(-row[f], s)
        basis.append(tuple(vec))
    return tuple(point), tuple(basis)


def minimization_faces(
    a: IntMatrix,
    v: Vector,
    *,
    max_kernel_rank: int = DEFAULT_MAX_FACE_RANK,
    max_terms: int = DEFAULT_MAX_FACE_TERMS,
) -> FaceDecomposition:
    """Decompose the rational minimization at ``v`` into minimal faces.

    The objective ``g(x) = l1(u0 + K^T x)`` over kernel coordinates
    ``x`` is piecewise linear; its domains of linearity are cut out by
    the hyperplanes on which individual terms vanish.  This enumerates
    subsets of the distinct nontrivial hyperplanes, keeps consistent
    intersections that are maximal (no further hyperplane vanishes
    identically on them), and reports one representative point and the
    objective value for each.  Intended as an independent check of the
    simplex route; caps keep the combinatorics desk-sized and raising
    ``EnumerationCapError`` when exceeded.
    """
    _check_target_length(a, v)
    v = _as_int_vector(v, "target")
    if all(x == 0 for x in v):
        raise ZeroTargetError("expansion at the zero target is undefined")
    u0 = solve_rational(a, v)
    if u0 is None:
        raise TargetNotInImageError(
            "target is not in the rational image of the matrix"
        )
    kernel, _ = _kernel_info(a)
    k = len(kernel)
    n = a.cols
    if k > max_kernel_rank:
        raise EnumerationCapError(
            f"kernel rank {k} exceeds face enumeration cap {max_kernel_rank}"
        )
    # Term i of the objective is |u0[i] + sum_j kernel[j][i] * x[j]|.
    coeffs = [tuple(kernel[j][i] for j in range(k)) for i in range(n)]
    offsets = list(u0)
    if k == 0:
        val = Fraction(sum(abs(Fraction(t)) for t in offsets))
        vanishing = tuple(i for i in range(n) if offsets[i] == 0)
        face = MinimizationFace(
            vanishing=vanishing, point=(), directions=(), value=val
        )
        return FaceDecomposition(faces=(face,), minimum=val)

    def eval_terms(point):
        return [
            offsets[i] + sum(c * x for c, x in zip(coeffs[i], point))
            for i in range(n)
        ]

    # Distinct nontrivial hyperplanes {phi . x = -offset}, canonicalized
    # by the signed primitive ray of (phi, offset).
    hyper = {}
    term_to_hyper = {}
    for i in range(n):
        if all(c == 0 for c in coeffs[i]):
            continue
        off = Fraction(offsets[i])
        key = primitive_ray(integerize(list(coeffs[i]) + [off]))
        if key not in hyper:
            hyper[key] = len(hyper)
        term_to_hyper[i] = hyper[key]
    hyperplanes = list(hyper)
    h = len(hyperplanes)
    if h > max_terms:
        raise EnumerationCapError(
            f"{h} distinct hyperplanes exceed face enumeration cap {max_terms}"
        )

    # For each consistent intersection, the closure is the set of
    # hyperplane indices vanishing identically on it.  Minimal faces of
    # the objective correspond exactly to maximal closures.
    closures = {}
    for size in range(min(h, k), -1, -1):
        for subset in itertools.combinations(range(h), size):
            rows = [hyperplanes[s][:-1] for s in subset]
            rhs = [-hyperplanes[s][-1] for s in subset]
            if not subset:
                point = tuple(Fraction(0) for _ in range(k))
                basis = tuple(
                    tuple(
                        Fraction(1) if t == j else Fraction(0) for t in range(k)
                    )
                    for j in range(k)
                )
                solved = (point, basis)
            else:
                solved = _affine_solve(rows, rhs)
            if solved is None:
                continue
            point, basis = solved
            closure = []
            for idx in range(h):
                phi = hyperplanes[idx][:-1]
                off = hyperplanes[idx][-1]
                on_point = sum(c * x for c, x in zip(phi, point)) + off == 0
                on_basis = all(
                    sum(c * x for c, x in zip(phi, b)) == 0 for b in basis
                )
                if on_point and on_basis:
                    closure.append(idx)
            closures[tuple(closure)] = (point, basis)
    maximal = []
    for cl in closures:
        cs = set(cl)
        if any(cs < set(other) for other in closures if other != cl):
            continue
        maximal.append(cl)

    faces = []
    for cl in sorted(maximal):
        # Re-solve the full closure system: its solution space is the
        # face's affine hull (a generating subset may cut out something
        # smaller than the closure does).
        if cl:
            point, basis = _affine_solve(
                [hyperplanes[s][:-1] for s in cl],
                [-hyperplanes[s][-1] for s in cl],
            )
        else:
            point, basis = closures[cl]
        # Nudge the representative into the relative interior: move
        # along basis directions away from any non-closure hyperplane
        # it happens to sit on, so term signs are generic for the face.
        point = list(point)
        for idx in range(h):
            if idx in cl:
                continue
            phi = hyperplanes[idx][:-1]
            off = hyperplanes[idx][-1]
            if sum(c * x for c, x in zip(phi, point)) + off != 0:
                continue
            for b in basis:
                step = sum(c * x for c, x in zip(phi, b))
                if step != 0:
                    eps = _interior_step(point, b, hyperplanes, cl)
                    point = [x + eps * y for x, y in zip(point, b)]
                    break
        terms = eval_terms(point)
        vanishing = tuple(
            i
            for i in range(n)
            if (i in term_to_hyper and term_to_hyper[i] in cl)
            or (i not in term_to_hyper and offsets[i] == 0)
        )
        value = Fraction(sum(abs(t) for t in terms))
        faces.append(
            MinimizationFace(
                vanishing=vanishing,
                point=tuple(point),
                directions=tuple(basis),
                value=value,
            )
        )
    minimum = min(f.value for f in faces)
    return FaceDecomposition(faces=tuple(faces), minimum=minimum)


def _interior_step(point, direction, hyperplanes, closure):
    """A step size along ``direction`` small enough not to cross any
    hyperplane that ``point`` is strictly off of."""
    limit = None
    for idx, hp in enumerate(hyperplanes):
        phi, off = hp[:-1], hp[-1]
        val = sum(c * x for c, x in zip(phi, point)) + off
        step = sum(c * x for c, x in zip(phi, direction))
        if val != 0 and step != 0:
            bound = abs(val) / abs(step)
            if limit is None or bound < limit:
                limit = bound
    if limit is None:
        return Fraction(1)
    return limit / 2


def xi_q_at_face_oracle(
    a: IntMatrix,
    v: Vector,
    *,
    max_kernel_rank: int = DEFAULT_MAX_FACE_RANK,
    max_terms: int = DEFAULT_MAX_FACE_TERMS,
) -> ExpansionResult:
    """Rational expansion at ``v`` via face enumeration instead of
    simplex.  Same value as ``xi_q_at``, independently derived."""
    decomposition = minimization_faces(
        a, v, max_kernel_rank=max_kernel_rank, max_terms=max_terms
    )
    v = _as_int_vector(v, "target")
    kernel, _ = _kernel_info(a)
    u0 = solve_rational(a, v)
    best = None
    for face in decomposition.faces:
        if best is None or face.value < best.value:
            best = face
    witness = list(Fraction(t) for t in u0)
    for j, x in enumerate(best.point):
        for i in range(a.cols):
            witness[i] += x * kernel[j][i]
    value = Fraction(decomposition.minimum, l1_norm(v))
    return ExpansionResult(
        value=value,
        target=tuple(v),
        witness=tuple(witness),
        ring="Q",
        solver="face_oracle",
    )


# ---------------------------------------------------------------------------
# Integer per-target expansion.
# ---------------------------------------------------------------------------


def xi_z_at(a: IntMatrix, v: Vector) -> ExpansionResult:
    """Exact integer expansion constant of ``a`` at target ``v``.

    Minimizes ``l1(u)`` over integer solutions of ``a @ u == v``.
    Raises ``TargetNotInIntegerImageError`` (carrying the rational
    value) when ``v`` has rational but no integer preimage.
    """
    _check_target_length(a, v)
    v = _as_int_vector(v, "target")
    if all(x == 0 for x in v):
        raise ZeroTargetError("expansion at the zero target is undefined")
    u0 = solve_integer(a, v)
    if u0 is None:
        if solve_rational(a, v) is None:
            raise TargetNotInImageError(
                "target is not in the rational image of the matrix"
            )
        rational = xi_q_at(a, v).value
        raise TargetNotInIntegerImageError(
            "target has rational but no integer preimage", rational
        )
    kernel, spanned = _kernel_info(a)
    norm_v = l1_norm(v)
    if not kernel:
        return ExpansionResult(
            value=Fraction(l1_norm(u0), norm_v),
            target=tuple(v),
            witness=tuple(u0),
            ring="Z",
            solver="bnb",
        )
    x0, w0, lp_value = min_l1_combination(u0, kernel)
    if l1_norm(u0) == lp_value:
        # The integer start already attains the rational bound.
        return ExpansionResult(
            value=Fraction(lp_value, norm_v),
            target=tuple(v),
            witness=tuple(u0),
            ring="Z",
            solver="bnb",
        )
    if spanned:
        shortcut = _spanned_rounding(u0, kernel, w0, lp_value)
        if shortcut is not None:
            return ExpansionResult(
                value=Fraction(lp_value, norm_v),
                target=tuple(v),
                witness=shortcut,
                ring="Z",
                solver="bnb",
            )
    best_u, best_val = _branch_and_bound(u0, kernel)
    return ExpansionResult(
        value=Fraction(best_val, norm_v),
        target=tuple(v),
        witness=tuple(best_u),
        ring="Z",
        solver="bnb",
    )


def _spanned_rounding(u0, kernel, w_star, lp_value):
    """Try to convert a rational optimum into an integer one of the same
    norm, assuming the kernel lattice is integrally spanned.

    At a rational optimum ``w*``, the coordinates where ``w*`` vanishes
    form an active set ``I``.  If some integer kernel shift of ``u0``
    also vanishes on ``I``, spanning guarantees its remaining support
    can achieve the same norm; this is verified rather than trusted, so
    the routine is sound even if the premise fails.
    """
    active = [i for i, val in enumerate(w_star) if val == 0]
    if not active:
        return None
    rows = [tuple(kj[i] for i in active) for kj in kernel]
    rhs = tuple(-u0[i] for i in active)
    sub = IntMatrix.from_rows(rows, cols=len(active)) if rows else None
    if sub is None:
        return None
    x = solve_integer(sub.transpose(), rhs)
    if x is None:
        return None
    candidate = list(u0)
    for j, c in enumerate(x):
        for i in range(len(candidate)):
            candidate[i] += c * kernel[j][i]
    if l1_norm(candidate) == lp_value:
        return tuple(candidate)
    return None


def _branch_and_bound(u0, kernel):
    """Exact integer minimum of ``l1(u0 + sum c_j kernel_j)`` over
    integer coefficients, by depth-first search on the coefficients with
    rational relaxation bounds for pruning.

    At each level the children are scanned outward from the rational
    optimum's floor in both directions; a direction stops at the first
    pruned child, which is sound because the relaxation value is convex
    in the fixed coefficient and the incumbent only improves.
    """
    k = len(kernel)
    best_val = l1_norm(u0)
    best_u = tuple(u0)

    def offset_plus(base, coeff, j):
        return tuple(b + coeff * kernel[j][i] for i, b in enumerate(base))

    def descend(base, j, incumbent):
        # base = u0 + sum of fixed shifts for levels < j.
        nonlocal best_val, best_u
        remaining = kernel[j:]
        x_star, w_star, bound = min_l1_combination(base, remaining)
        if bound >= incumbent[0]:
            return True  # pruned
        if j == k:
            val = l1_norm(base)
            if val < incumbent[0]:
                incumbent[0] = val
                best_val = val
                best_u = tuple(base)
            return False
        center = math.floor(x_star[0])
        c = center
        while True:
            pruned = descend(offset_plus(base, c, j), j + 1, incumbent)
            if pruned:
                break
            c -= 1
        c = center + 1
        while True:
            pruned = descend(offset_plus(base, c, j), j + 1, incumbent)
            if pruned:
                break
            c += 1
        return False

    incumbent = [best_val]
    descend(tuple(u0), 0, incumbent)
    return best_u, best_val


# ---------------------------------------------------------------------------
# Global expansion over Q and Z.
# ---------------------------------------------------------------------------


def _image_basis(a: IntMatrix):
    h, _ = hnf(a.transpose())
    return [h.row(i) for i in range(h.rows) if any(x != 0 for x in h.row(i))]


def _global_candidates(a: IntMatrix, max_candidates: int):
    """Candidate targets covering every extreme point of the unit ball
    of the 1-norm intersected with the rational image.

    The image is parametrized by an integer basis ``b_1..b_r``; each
    coordinate of the ambient space induces the linear functional
    ``y -> sum_t y_t b_t[i]`` on the parameter space.  An extreme point
    of the polytope has r-1 independent vanishing functionals, so every
    one lies on the line cut out by some (r-1)-subset of the distinct
    functionals.  Returns one integer representative per candidate ray.
    """
    basis = _image_basis(a)
    r = len(basis)
    if r == 0:
        return [], True
    if r == 1:
        return [tuple(primitive_ray(basis[0]))], True
    functionals = {}
    for i in range(a.rows):
        phi = tuple(b[i] for b in basis)
        if all(c == 0 for c in phi):
            continue
        functionals.setdefault(primitive_ray(phi), None)
    distinct = list(functionals)
    total = math.comb(len(distinct), r - 1)
    if total > max_candidates:
        return None, False
    seen = {}
    out = []
    for subset in itertools.combinations(distinct, r - 1):
        y = _nullspace_line(subset, r)
        if y is None:
            continue
        target = [0] * a.rows
        for yt, b in zip(y, basis):
            if yt:
                target = [x + yt * e for x, e in zip(target, b)]
        if all(x == 0 for x in target):
            continue
        key = primitive_ray(target)
        if key in seen:
            continue
        seen[key] = None
        out.append(tuple(key))
    return out, True


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


def _sampled_targets(a: IntMatrix, limit: int, *, dedupe_rays: bool):
    """Deterministic finite sample of nonzero image targets: images of
    the integer box [-2, 2]^n in lexicographic order, de-duplicated
    (by ray or exactly), capped at ``limit`` targets."""
    seen = {}
    out = []
    raw_cap = 20000
    for count, u in enumerate(
        itertools.product(range(-2, 3), repeat=a.cols)
    ):
        if count >= raw_cap or len(out) >= limit:
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


def xi_q_global(
    a: IntMatrix, *, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> GlobalExpansion:
    """Global rational expansion constant of ``a``.

    Exact by default: the supremum over the image is attained at an
    extreme point of the image's unit 1-norm ball, and those are covered
    by a finite candidate enumeration.  If the candidate count would
    exceed ``max_candidates`` the result degrades to a sampled lower
    bound with ``exact=False``.  Raises ``UndefinedExpansionError`` when
    the image is zero.
    """
    candidates, exact = _global_candidates(a, max_candidates)
    if exact and not candidates:
        raise UndefinedExpansionError(
            "global expansion is undefined for a zero image"
        )
    if not exact:
        candidates = _sampled_targets(
            a, DEFAULT_SAMPLE_TARGETS, dedupe_rays=True
        )
    best = None
    best_target = None
    for v in candidates:
        res = xi_q_at(a, v)
        if best is None or res.value > best:
            best = res.value
            best_target = v
    return GlobalExpansion(value=best, attaining_target=best_target, exact=exact)


def xi_z_global(
    a: IntMatrix, *, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> GlobalExpansion:
    """Global integer expansion constant of ``a``.

    When the kernel of ``a`` is integrally spanned the integer and
    rational per-target values agree everywhere, so this is exactly the
    rational global value.  Otherwise no exact finite reduction is
    available and the result is a sampled lower bound with
    ``exact=False``.
    """
    _, spanned = _kernel_info(a)
    if spanned:
        return xi_q_global(a, max_candidates=max_candidates)
    targets = _sampled_targets(a, DEFAULT_SAMPLE_TARGETS, dedupe_rays=False)
    if not targets:
        raise UndefinedExpansionError(
            "global expansion is undefined for a zero image"
        )
    best = None
    best_target = None
    for v in targets:
        u0 = solve_integer(a, v)
        if u0 is None:
            continue
        res = xi_z_at(a, v)
        if best is None or res.value > best:
            best = res.value
            best_target = v
    if best is None:
        raise UndefinedExpansionError(
            "no sampled target had an integer preimage"
        )
    return GlobalExpansion(value=best, attaining_target=best_target, exact=False)


# ---------------------------------------------------------------------------
# Prime fields.
# ---------------------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ModQMatrix:
    """Matrix over the prime field with ``q`` elements.

    Entries are stored reduced into ``[0, q)``.  Construction rejects a
    composite or unit modulus with ``NotPrimeError``.
    """

    rows: int
    cols: int
    q: int
    entries: tuple

    @staticmethod
    def from_rows(data: Sequence[Sequence[int]], q: int, cols: Optional[int] = None) -> "ModQMatrix":
        if not _is_prime(q):
            raise NotPrimeError(f"modulus {q} is not prime")
        rows = len(data)
        if rows == 0:
            if cols is None:
                raise DimensionMismatchError(
                    "cannot infer column count of an empty matrix"
                )
            width = cols
        else:
            width = len(data[0])
            if cols is not None and cols != width:
                raise DimensionMismatchError(
                    f"explicit cols={cols} but rows have length {width}"
                )
        flat = []
        for r in data:
            if len(r) != width:
                raise DimensionMismatchError("ragged rows in matrix data")
            flat.extend(int(x) % q for x in r)
        return ModQMatrix(rows=rows, cols=width, q=q, entries=tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]


def reduce_mod_q(a: IntMatrix, q: int) -> ModQMatrix:
    """Entrywise reduction of an integer matrix modulo a prime."""
    return ModQMatrix.from_rows(a.to_rows(), q)


def lift_section(u: Sequence[int], q: int) -> IntVector:
    """The standard set-theoretic section of reduction mod ``q``: each
    residue in ``[0, q)`` is lifted to the integer with the same value.
    Rejects inputs outside ``[0, q)`` so that reduction after lifting is
    the identity by construction."""
    if not _is_prime(q):
        raise NotPrimeError(f"modulus {q} is not prime")
    out = []
    for x in u:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < q:
            raise DimensionMismatchError(
                f"residue {x!r} is not in the range [0, {q})"
            )
        out.append(x)
    return tuple(out)


def hamming_weight(u: Sequence[int]) -> int:
    """Number of nonzero entries."""
    return sum(1 for x in u if x != 0)


@lru_cache(maxsize=256)
def _modq_system(a: ModQMatrix):
    """Reduced row echelon data for solving ``a @ u = w`` over F_q:
    (rref rows, pivot columns, kernel basis, row transform)."""
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
    rref = tuple(tuple(row[:n]) for row in work)
    trans = tuple(tuple(row[n:]) for row in work)
    return rref, tuple(pivots), tuple(kernel), trans


def modq_rank(a: ModQMatrix) -> int:
    """Rank of ``a`` over F_q."""
    _, pivots, _, _ = _modq_system(a)
    return len(pivots)


def _modq_solve(a: ModQMatrix, w: Sequence[int]):
    rref, pivots, _, trans = _modq_system(a)
    q = a.q
    t = [sum(trans[i][j] * w[j] for j in range(a.rows)) % q for i in range(a.rows)]
    for i in range(len(pivots), a.rows):
        if t[i] != 0:
            return None
    u = [0] * a.cols
    for j, c in enumerate(pivots):
        u[c] = t[j]
    return tuple(u)


def xi_zq_at(
    a: ModQMatrix, w: Sequence[int], *, max_coset: int = DEFAULT_MAX_COSET
) -> ExpansionResult:
    """Exact expansion of ``a`` at ``w`` over F_q, using Hamming weight
    as the norm on both sides.

    Finds the first minimum-weight vector of the solution coset
    ``u0 + ker`` in coefficient enumeration order (see
    ``_min_weight_in_coset``); raises ``EnumerationCapError`` when
    ``q ** dim(ker)`` exceeds ``max_coset``.
    """
    q = a.q
    if len(w) != a.rows:
        raise DimensionMismatchError(
            f"target has length {len(w)}, matrix has {a.rows} rows"
        )
    w = tuple(int(x) % q for x in w)
    if all(x == 0 for x in w):
        raise ZeroTargetError("expansion at the zero target is undefined")
    u0 = _modq_solve(a, w)
    if u0 is None:
        raise TargetNotInImageError("target is not in the image over F_q")
    _, _, kernel, _ = _modq_system(a)
    kdim = len(kernel)
    if q**kdim > max_coset:
        raise EnumerationCapError(
            f"coset size q**{kdim} exceeds enumeration cap {max_coset}"
        )
    best_u, best_wt = _min_weight_in_coset(u0, kernel, q)
    value = Fraction(best_wt, hamming_weight(w))
    return ExpansionResult(
        value=value,
        target=tuple(w),
        witness=tuple(best_u),
        ring=f"Zq({q})",
        solver="coset_bruteforce",
    )


def _min_weight_in_coset(u0, kernel, q):
    """First minimum-weight vector of the coset ``u0 + span(kernel)``
    in coefficient enumeration order, with its weight.

    When the kernel rows have pairwise disjoint supports the weight
    splits row by row, and the coefficient of each row is chosen on its
    own: the one that zeroes the most coordinates of ``u0`` on the
    row's support, the smallest such on a tie.  Because coefficients
    are enumerated lexicographically from 0, those per-row choices are
    exactly the first minimizer of the enumeration.  Other kernels are
    enumerated.
    """
    supports = disjoint_supports(kernel)
    if supports is None:
        return _enumerate_coset(u0, kernel, q)
    best = list(u0)
    for row, support in zip(kernel, supports):
        zeroed = Counter(-u0[i] * pow(row[i], q - 2, q) % q for i in support)
        c = min(zeroed, key=lambda c: (-zeroed[c], c)) if zeroed else 0
        for i in support:
            best[i] = (best[i] + c * row[i]) % q
    return tuple(best), hamming_weight(best)


def _enumerate_coset(u0, kernel, q):
    """``_min_weight_in_coset`` by running over all coefficient vectors
    in lexicographic order; serves any kernel."""
    best_u = tuple(u0)
    best_wt = hamming_weight(u0)
    if best_wt <= 1 or not kernel:
        return best_u, best_wt
    kdim = len(kernel)

    def rec(j, acc):
        nonlocal best_u, best_wt
        if best_wt <= 1:
            return
        if j == kdim:
            wt = hamming_weight(acc)
            if wt < best_wt:
                best_wt = wt
                best_u = tuple(acc)
            return
        row = kernel[j]
        for c in range(q):
            if c == 0:
                rec(j + 1, acc)
            else:
                rec(j + 1, tuple((x + c * y) % q for x, y in zip(acc, row)))

    rec(0, tuple(u0))
    return best_u, best_wt


def iter_image_with_preimage(a: ModQMatrix) -> Iterator[tuple]:
    """Yields every nonzero image vector of ``a`` over F_q exactly once,
    paired with one preimage, by running over coefficient combinations
    of the pivot columns.  Deterministic order."""
    _, pivots, _, _ = _modq_system(a)
    q = a.q
    r = len(pivots)
    cols = [tuple(a.at(i, c) for i in range(a.rows)) for c in pivots]
    for coeffs in itertools.product(range(q), repeat=r):
        if all(c == 0 for c in coeffs):
            continue
        w = [0] * a.rows
        for c, col in zip(coeffs, cols):
            if c:
                for i in range(a.rows):
                    w[i] = (w[i] + c * col[i]) % q
        u0 = [0] * a.cols
        for c, p in zip(coeffs, pivots):
            u0[p] = c
        yield tuple(w), tuple(u0)


def xi_zq_global(
    a: ModQMatrix,
    *,
    max_images: int = DEFAULT_MAX_IMAGES,
    max_coset: int = DEFAULT_MAX_COSET,
) -> GlobalExpansion:
    """Global expansion of ``a`` over F_q: the maximum of the per-target
    values over all nonzero image vectors.  Exact (the image is finite);
    raises ``EnumerationCapError`` when ``q ** rank`` exceeds
    ``max_images`` and ``UndefinedExpansionError`` on a zero image.
    """
    q = a.q
    r = modq_rank(a)
    if r == 0:
        raise UndefinedExpansionError(
            "global expansion is undefined for a zero image"
        )
    if q**r > max_images:
        raise EnumerationCapError(
            f"image size q**{r} exceeds enumeration cap {max_images}"
        )
    _, _, kernel, _ = _modq_system(a)
    if q ** len(kernel) > max_coset:
        raise EnumerationCapError(
            f"coset size q**{len(kernel)} exceeds enumeration cap {max_coset}"
        )
    best = None
    best_target = None
    for w, u0 in iter_image_with_preimage(a):
        _, wt = _min_weight_in_coset(u0, kernel, q)
        value = Fraction(wt, hamming_weight(w))
        if best is None or value > best:
            best = value
            best_target = w
    return GlobalExpansion(value=best, attaining_target=best_target, exact=True)
