"""Shared helpers: small random generators and independent oracles.

The oracles here are deliberately naive (exhaustive enumeration,
permutation expansion, the dense matrix-vector product, forward
substitution against an echelon form,
the image targets sampled by the dense product on every row,
textbook Gauss-Jordan over Fraction and over F_q, the full 2^n - 1
subset scan of the spanning condition, its certificate on every
rank-sized projection of the HNF basis and on one Smith form per
square of the tableau, its witness step with one Smith form per
coordinate dropped, the minimization faces as the
maximal closures of every hyperplane subset solved over Fraction, the
finite-field image rebuilt vector by vector and each coset searched
by recursion, the F_q solve through the dense row transform, the
rational global value by the candidate enumeration with no cut walk,
the integer global value
on the whole matrix with no block split, the per-witness loop of the
mod-q campaign, its per-target equality check and its kernel check,
each on the whole matrix, weighted medians sorted
and summed in Fractions, the L1 simplex on a tableau of Fractions, the Hermite and Smith forms with their
clearing loops written out inline, the presentation tokenizer as a
character-by-character scan, the matrix text written entry by entry,
the presentation matrix from row lists and the incidence row shape
read off every entry) so library results can be checked against
independent arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from expansion_lab import expansion, harness, simplex
from expansion_lab.errors import (
    AmbientDimensionCapError,
    EnumerationCapError,
    RowShapeError,
    UnboundedLPError,
    UndefinedExpansionError,
)
from expansion_lab.exactla import (
    IntMatrix,
    LatticeBasis,
    SnfDecomposition,
    _blocks,
    _row_addmul,
    _row_combine,
    _xgcd,
    disjoint_supports,
    format_rational,
    format_vector,
    hnf_pivots,
    integer_kernel_basis,
    integerize,
    l1_norm,
    mat_vec,
    primitive_ray,
    snf,
    solve_rational,
)
from expansion_lab.expansion import (
    FaceDecomposition,
    GlobalExpansion,
    MinimizationFace,
    _global_candidates,
    _largest_at,
    _modq_system,
    _sampled_targets,
    hamming_weight,
    iter_image_with_preimage,
    lift_section,
    reduce_mod_q,
    xi_q_at,
    xi_q_global,
    xi_z_at,
    xi_zq_at,
)
from expansion_lab.harness import sample_image_targets
from expansion_lab.simplex import min_l1_combination
from expansion_lab.spanning import (
    CoordSubset,
    SpanningVerdict,
    _rank_sized_certificate,
    _saturation_witness,
    is_integrally_spanned,
    project_columns,
)


def rand_matrix(rng: random.Random, max_dim: int = 4, lo: int = -5, hi: int = 5) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def rand_unimodular(rng: random.Random, n: int, steps: int = 8) -> IntMatrix:
    """Random unimodular matrix from elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows)


def det_by_permutations(m: IntMatrix) -> int:
    """Leibniz formula; only sane for tiny matrices."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m.at(i, perm[i])
        total += term
    return total


def box_vectors(n: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def min_l1_preimage_by_box(a: IntMatrix, v, radius: int):
    """Exhaustive min of |u|_1 over integer preimages in a box, or None."""
    best = None
    best_u = None
    target = tuple(v)
    for u in box_vectors(a.cols, radius):
        if mat_vec(a, u) != target:
            continue
        weight = sum(abs(e) for e in u)
        if best is None or weight < best:
            best = weight
            best_u = u
    if best is None:
        return None
    return best, best_u


def in_lattice_by_box(rows: list[tuple[int, ...]], x, radius: int) -> bool:
    """Exhaustive lattice membership with coefficients in a box."""
    if not rows:
        return all(e == 0 for e in x)
    target = tuple(x)
    n = len(rows[0])
    for coeffs in box_vectors(len(rows), radius):
        combo = tuple(
            sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n)
        )
        if combo == target:
            return True
    return False


def mat_vec_dense(m: IntMatrix, x) -> tuple:
    """Matrix times column vector over every entry of every row, zeros
    included."""
    return tuple(sum(a * b for a, b in zip(m.row(i), x)) for i in range(m.rows))


def vec_mat(y, m: IntMatrix) -> tuple:
    """Row vector times matrix."""
    return tuple(sum(y[i] * m.at(i, j) for i in range(m.rows)) for j in range(m.cols))


def solve_upper(h: IntMatrix, pivots, target, integral: bool):
    """Solve y . h == target for y supported on the pivot rows of the
    echelon matrix ``h``, or None.

    Forward substitution down the pivot columns; ``integral`` demands
    exact integer divisions.  Returns the full-length y (zeros on zero
    rows).
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
    if vec_mat(y, h) != tuple(target):
        return None
    return y


def subsets_in_order(ambient: int):
    """All nonempty coordinate subsets, by size then lexicographically."""
    for size in range(1, ambient + 1):
        for combo in itertools.combinations(range(1, ambient + 1), size):
            yield CoordSubset(ambient, combo)


def spanning_by_full_scan(generators: IntMatrix) -> SpanningVerdict:
    """The spanning condition checked on every nonempty coordinate
    subset, by size then lexicographically, stopping at the first
    unsaturated projection; ``subsets_checked`` counts the subsets
    visited (2^n - 1 when spanned, 0 with no nonzero generator)."""
    if generators.is_zero():
        return SpanningVerdict(True, None, 0)
    checked = 0
    for subset in subsets_in_order(generators.cols):
        checked += 1
        projected = project_columns(generators, subset)
        dec = snf(projected)
        if any(f != 1 for f in dec.invariant_factors()):
            witness = _saturation_witness(projected, dec)
            return SpanningVerdict(False, (subset, witness), checked)
    return SpanningVerdict(True, None, checked)


def rank_sized_certificate_by_projections(generators: IntMatrix) -> bool:
    """The spanning certificate on all C(n, k) rank-sized projections of
    the HNF basis, k the rank: True when each has every Smith invariant
    factor 1.  No {0, +-1} filter and no tableau, so it checks both."""
    basis = LatticeBasis.from_generators(generators)
    return all(
        all(f == 1 for f in snf(project_columns(basis.hnf, subset)).invariant_factors())
        for subset in subsets_in_order(basis.ambient)
        if len(subset) == basis.rank
    )


def witness_step_by_smith_forms(generators: IntMatrix) -> SpanningVerdict:
    """``is_integrally_spanned`` with one Smith form per drop of the
    witness step: from the certificate's columns T, each coordinate in
    T's order is dropped when the Smith form of the smaller projection
    still has a factor other than 1, and ``subsets_checked`` counts T
    and each drop tried.  No quotient group of T."""
    n = generators.cols
    if generators.is_zero():
        return SpanningVerdict(True, None, 0)
    failing = _rank_sized_certificate(generators)
    if failing is None:
        return SpanningVerdict(True, None, 2**n - 1)

    def projection(cols):
        return IntMatrix.from_rows(
            [[generators.at(i, j) for j in cols] for i in range(generators.rows)],
            cols=len(cols),
        )

    cols, projected = failing, projection(failing)
    dec = snf(projected)
    checked = 1
    for j in failing:
        if len(cols) == 1:
            break
        smaller = tuple(c for c in cols if c != j)
        smaller_projected = projection(smaller)
        smaller_dec = snf(smaller_projected)
        checked += 1
        if any(f != 1 for f in smaller_dec.invariant_factors()):
            cols, projected, dec = smaller, smaller_projected, smaller_dec
    subset = CoordSubset(n, tuple(j + 1 for j in cols))
    return SpanningVerdict(False, (subset, _saturation_witness(projected, dec)), checked)


def tableau_certificate_by_smith_forms(generators: IntMatrix) -> tuple[int, ...] | None:
    """The rank-sized certificate with one Smith form per square of the
    tableau: after the same pivot and {0, +-1} entry tests, every square
    submatrix of M with no zero row or column, by size, then rows, then
    columns, each lexicographically; the first with an invariant factor
    other than 1 names (pivots - pivots(R)) | S.  None when M is totally
    unimodular.  No minor table and no price."""
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
    free = tuple(j for j in range(n) if j not in pivots)
    tableau = [[row[j] for j in free] for row in rows]
    for size in range(1, min(k, n - k) + 1):
        for r in itertools.combinations(range(k), size):
            chosen = [tableau[i] for i in r]
            live = [j for j in range(n - k) if any(row[j] for row in chosen)]
            for cols in itertools.combinations(live, size):
                if not all(any(row[j] for j in cols) for row in chosen):
                    continue
                square = IntMatrix.from_rows([[row[j] for j in cols] for row in chosen])
                if any(f != 1 for f in snf(square).invariant_factors()):
                    kept = {p for i, p in enumerate(pivots) if i not in r}
                    return tuple(sorted(kept | {free[j] for j in cols}))
    return None


def modq_solve_dense(a, w, pivots, trans):
    """A solution of ``a @ u = w`` over F_q, or None: the dense ``m x m``
    row transform ``trans`` times ``w``, every row of it, then the rows
    past the rank checked zero and the others written at their pivot
    columns.  The route the sparse plan of ``_modq_system`` replaced."""
    q = a.q
    t = [sum(trans[i][j] * w[j] for j in range(a.rows)) % q for i in range(a.rows)]
    for i in range(len(pivots), a.rows):
        if t[i] != 0:
            return None
    u = [0] * a.cols
    for j, c in enumerate(pivots):
        u[c] = t[j]
    return tuple(u)


def coset_by_recursion(u0, kernel, q):
    """The first minimum-weight vector of ``u0 + span(kernel)`` over F_q
    and its weight, by recursion over the coefficient vectors in
    lexicographic order, each leaf's vector rebuilt as a tuple and its
    weight recounted; a leaf replaces the best only with a strictly
    smaller weight, and the search stops once the best weighs at most 1.
    No cap."""
    kdim = len(kernel)
    best_u = tuple(u0)
    best_wt = hamming_weight(u0)

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


def zq_global_by_product_enumeration(a) -> GlobalExpansion | None:
    """``xi_zq_global`` one image vector at a time: each nonzero
    pivot-coefficient vector, in ``itertools.product`` order, builds its
    image from scratch, ``coset_by_recursion`` weighs its coset (never
    the per-row modes the library takes on disjoint kernels), and a
    strictly larger ``Fraction`` replaces the best.  None on a zero
    image; no caps."""
    _, pivots, kernel, _ = _modq_system(a)
    q = a.q
    cols = [tuple(a.at(i, c) for i in range(a.rows)) for c in pivots]
    best = best_target = None
    for coeffs in itertools.product(range(q), repeat=len(pivots)):
        if not any(coeffs):
            continue
        w = [0] * a.rows
        for c, col in zip(coeffs, cols):
            for i in range(a.rows):
                w[i] = (w[i] + c * col[i]) % q
        u0 = [0] * a.cols
        for c, p in zip(coeffs, pivots):
            u0[p] = c
        _, wt = coset_by_recursion(tuple(u0), kernel, q)
        value = Fraction(wt, hamming_weight(w))
        if best is None or value > best:
            best, best_target = value, tuple(w)
    if best is None:
        return None
    return GlobalExpansion(value=best, attaining_target=best_target, exact=True)


def by_blocks(oracle):
    """``oracle``, a global value on a whole matrix, under the block
    rule: with two or more blocks (``_blocks``), ``oracle`` on each
    block's rows and columns, the largest value, exact when every
    block's is, at the target of the first block in order of smallest
    column that reaches it, padded with zeros; else ``oracle`` on the
    matrix as given."""

    def run(a):
        blocks = _blocks(a)
        if len(blocks) < 2:
            return oracle(a)
        results = []
        # Each block is cut here, not taken from _blocks, so that the
        # oracle does not share the code it checks.
        for rows, cols, _ in blocks:
            entries = tuple(a.at(i, j) for i in rows for j in cols)
            block = replace(a, rows=len(rows), cols=len(cols), entries=entries)
            results.append((oracle(block), rows))
        value = max(res.value for res, _ in results)
        res, rows = next((res, rows) for res, rows in results if res.value == value)
        target = [0] * a.rows
        for i, x in zip(rows, res.attaining_target):
            target[i] = x
        exact = all(res.exact for res, _ in results)
        return GlobalExpansion(value=value, attaining_target=tuple(target), exact=exact)

    return run


def rational_global_by_candidates(a: IntMatrix) -> GlobalExpansion:
    """``expansion._rational_global`` with no cut walk: the largest
    ``xi_q_at`` over the candidate targets of ``_global_candidates``,
    the first that reaches it, on any ``a`` under the candidate cap."""
    return _largest_at(a, _global_candidates(a), xi_q_at, True)


def z_global_by_whole_matrix(a: IntMatrix) -> GlobalExpansion:
    """``xi_z_global`` without the block split: one spanning check on
    the kernel of the whole matrix (its subset cap read as unspanned).
    Spanned, ``xi_q_global``'s value and target, the target scaled into
    the integer image by the lcm of its coordinates' denominators in the
    image lattice's HNF basis; else the largest ``xi_z_at`` over
    ``_sampled_targets`` of the whole matrix, ``exact=False``.  Raises
    ``UndefinedExpansionError`` when the sample holds no nonzero image,
    which a nonzero matrix can give when its leading columns cancel."""
    try:
        spanned = is_integrally_spanned(integer_kernel_basis(a).hnf).spanned
    except AmbientDimensionCapError:
        spanned = False
    if spanned:
        res = xi_q_global(a)
        t = res.attaining_target
        image = LatticeBasis.from_generators(a.transpose()).hnf
        coords = solve_rational(image.transpose(), t)
        scale = math.lcm(*(y.denominator for y in coords))
        return replace(res, attaining_target=tuple(scale * x for x in t))
    targets = _sampled_targets(a, dedupe_rays=False)
    if not targets:
        raise UndefinedExpansionError("global expansion is undefined for a zero image")
    return _largest_at(a, targets, xi_z_at, False)


def witness_loop_by_whole_matrix(a: IntMatrix, q: int, solve_z=xi_z_at):
    """The per-witness loop of ``harness.campaign_modq`` with no block
    split: for each nonzero image vector ``w`` of ``a`` mod ``q``, in
    ``iter_image_with_preimage`` order, ``xi_zq_at`` on the whole
    reduced matrix, its witness lifted by ``lift_section`` and mapped by
    ``a`` to the target ``t``, and ``solve_z(a, t)`` on the whole
    matrix.  Returns ``(checked, bad, seen)``: the image vectors
    checked, the report quantities of the first ``w`` with ``(q - 1) *
    xi_z_at < xi_zq_at`` (None when there is none, and the walk then
    checks every image vector), and ``(w, xi_zq_at value, t, xi_z_at
    value)`` for each ``w`` checked."""
    reduced = reduce_mod_q(a, q)
    seen = []
    for w, _ in iter_image_with_preimage(reduced):
        res = xi_zq_at(reduced, w)
        zq_val = res.value
        t = mat_vec(a, lift_section(res.witness, q))
        z_val = solve_z(a, t).value
        seen.append((w, zq_val, t, z_val))
        if (q - 1) * z_val < zq_val:
            bad = {
                "w": format_vector(w).strip(),
                "lifted_target": format_vector(t).strip(),
                "xi_z_at": format_rational(z_val),
                "xi_zq_at": format_rational(zq_val),
            }
            return len(seen), bad, seen
    return len(seen), None, seen


def targets_equal_by_whole_matrix(rng: random.Random, a: IntMatrix):
    """``harness._matrix_targets_equal`` with no block split: for each
    target ``sample_image_targets(rng, a)`` draws, ``xi_q_at`` and
    ``xi_z_at`` on the whole matrix, in order, up to the first target
    where they differ.  Returns ``(ok, compared, counterexample)``."""
    compared = []
    for v in sample_image_targets(rng, a):
        q_val = xi_q_at(a, v).value
        z_val = xi_z_at(a, v).value
        compared.append(
            {
                "target": format_vector(v).strip(),
                "xi_q": format_rational(q_val),
                "xi_z": format_rational(z_val),
            }
        )
        if q_val != z_val:
            return False, compared, v
    return True, compared, None


def kernel_spanned_by_whole_matrix(a: IntMatrix):
    """``harness._kernel_spanned`` with no block split: the spanning
    verdict of the HNF basis of the whole kernel, and its rank."""
    kernel = integer_kernel_basis(a)
    verdict = is_integrally_spanned(kernel.hnf)
    return verdict.spanned, f"kernel rank {kernel.rank}"


def minimization_faces_by_closures(a: IntMatrix, v):
    """``minimization_faces`` the long way, for an image target ``v``:
    solve every subset of at most ``min(h, k)`` of the ``h`` distinct
    hyperplanes by Gauss-Jordan over Fraction, take each solution set's
    closure (the hyperplanes through its point and along every basis
    direction), keep the maximal closures, re-solve each closure's own
    system, and nudge its point off any hyperplane outside the closure.
    No caps.  Returns the ``FaceDecomposition`` and, per face, the basis
    of the directions along it."""
    u0 = solve_rational(a, v)
    kernel = integer_kernel_basis(a).basis_rows()
    k = len(kernel)
    n = a.cols
    coeffs = [tuple(kernel[j][i] for j in range(k)) for i in range(n)]
    offsets = list(u0)
    if k == 0:
        val = Fraction(sum(abs(Fraction(t)) for t in offsets))
        vanishing = tuple(i for i in range(n) if offsets[i] == 0)
        face = MinimizationFace(vanishing=vanishing, point=(), value=val)
        return FaceDecomposition(faces=(face,), minimum=val), ((),)

    def eval_terms(point):
        return [
            offsets[i] + sum(c * x for c, x in zip(coeffs[i], point))
            for i in range(n)
        ]

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

    def interior_step(point, direction):
        limit = None
        for hp in hyperplanes:
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
                solved = affine_solve_by_fractions(rows, rhs, k)
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
    directions = []
    for cl in sorted(maximal):
        if cl:
            point, basis = affine_solve_by_fractions(
                [hyperplanes[s][:-1] for s in cl],
                [-hyperplanes[s][-1] for s in cl],
                k,
            )
        else:
            point, basis = closures[cl]
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
                    eps = interior_step(point, b)
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
            MinimizationFace(vanishing=vanishing, point=tuple(point), value=value)
        )
        directions.append(tuple(basis))
    minimum = min(f.value for f in faces)
    return FaceDecomposition(faces=tuple(faces), minimum=minimum), tuple(directions)


def hnf_by_inline_clearing(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """``hnf`` with the extended-gcd clearing below each pivot written
    out in the loop: same pivot choice, same row operations, so the same
    ``(h, u)`` entry for entry."""
    nrows, ncols = m.rows, m.cols
    h = m.to_rows()
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if h[i][c] != 0), None)
        if pivot_row is None:
            continue
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
    return IntMatrix.from_rows(h, cols=ncols), IntMatrix.from_rows(u, cols=nrows)


def snf_by_row_and_column_operations(m: IntMatrix) -> SnfDecomposition:
    """``snf`` with its row phase done as column operations on ``b`` and
    ``v`` in place rather than as a Hermite step on the transposes: same
    pivots, same operations, so the same ``(d, u, v)`` entry for entry."""
    b = m.to_rows()
    nrows, ncols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_combine(j0, j1, a, bb, c, d):
        for mat in (b, v):
            for row in mat:
                x, y = row[j0], row[j1]
                row[j0] = a * x + bb * y
                row[j1] = c * x + d * y

    def col_addmul(j0, j1, q):
        for mat in (b, v):
            for row in mat:
                row[j0] -= q * row[j1]

    for t in range(min(nrows, ncols)):
        entries = [
            (abs(b[i][j]), i, j)
            for i in range(t, nrows)
            for j in range(t, ncols)
            if b[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        b[t], b[pi] = b[pi], b[t]
        u[t], u[pi] = u[pi], u[t]
        for mat in (b, v):
            for row in mat:
                row[t], row[pj] = row[pj], row[t]
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
            bad = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if b[i][j] % b[t][t] != 0
                ),
                None,
            )
            if bad is None:
                break
            _row_addmul(b, t, bad, -1)
            _row_addmul(u, t, bad, -1)
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
            u[t] = [-x for x in u[t]]
    return SnfDecomposition(
        IntMatrix.from_rows(b, cols=ncols),
        IntMatrix.from_rows(u, cols=nrows),
        IntMatrix.from_rows(v, cols=ncols),
    )


def weighted_median_by_fractions(u, d, support) -> Fraction:
    """Lower weighted median of the breakpoints ``-u_i / d_i`` with
    weights ``|d_i|``, over ``i`` in ``support``, with ``u`` a tuple of
    Fractions: a minimizer of ``sum_i |u_i + x d_i|``.  An empty support
    gives 0."""
    points = sorted((-u[i] / d[i], abs(d[i])) for i in support)
    total = sum(weight for _, weight in points)
    running = 0
    for point, weight in points:
        running += weight
        if 2 * running >= total:
            return point
    return Fraction(0)


def median_combination_by_fractions(u, directions):
    """``min_l1_combination`` for directions with pairwise disjoint
    supports, in Fractions throughout: one ``weighted_median_by_fractions``
    per direction, then ``w = u + sum_j x_j d_j`` over every coordinate
    and every direction, and ``value = |w|_1``."""
    u = tuple(Fraction(e) for e in u)
    supports = disjoint_supports(directions)
    x = tuple(
        weighted_median_by_fractions(u, d, support)
        for d, support in zip(directions, supports)
    )
    w = tuple(
        u[i] + sum(x[j] * Fraction(d[i]) for j, d in enumerate(directions))
        for i in range(len(u))
    )
    return x, w, Fraction(sum(abs(e) for e in w))


def branch_and_bound_by_fractions(u0, kernel):
    """``expansion._branch_and_bound`` on the public Fraction relaxation
    ``min_l1_combination``: the same depth-first search, pruning rule
    (``>=``) and child order, with each bound, coefficient and residual
    a Fraction and integrality read off the denominators.  Returns
    ``(point, value, relaxations)``, under the same ``_MAX_NODES``."""
    best_u, best_val = tuple(u0), l1_norm(u0)
    if not kernel:
        return best_u, best_val, 0
    nodes = 0

    def descend(base, j):
        nonlocal best_u, best_val, nodes
        nodes += 1
        if nodes > expansion._MAX_NODES:
            raise EnumerationCapError(
                f"branch and bound node limit {expansion._MAX_NODES} exceeded"
            )
        x, w, bound = min_l1_combination(base, kernel[j:])
        if bound >= best_val:
            return True
        if all(c.denominator == 1 for c in x):
            best_u, best_val = tuple(int(e) for e in w), int(bound)
            return False
        center = math.floor(x[0])
        for c, step in ((center, -1), (center + 1, 1)):
            while not descend(
                tuple(b + c * e for b, e in zip(base, kernel[j])), j + 1
            ):
                c += step
        return False

    descend(tuple(u0), 0)
    return best_u, best_val, nodes


def simplex_by_fractions(u, directions):
    """``simplex._simplex_min_l1`` on a tableau of Fractions, each pivot
    row divided by its pivot: the same start, entering rule, switch to
    Bland's rule after ``simplex._STALL_LIMIT`` stalls, ratio test and
    tie rule, under ``simplex._MAX_PIVOTS``.  Returns ``(x, pivots)``,
    ``x`` a tuple of Fractions."""
    n = len(u)
    k = len(directions)
    zero = Fraction(0)
    one = Fraction(1)
    width = 2 * n + 2 * k + 1  # rp, rm, xp, xm, rhs
    rows = []
    basis = []
    for i in range(n):
        row = [zero] * width
        row[i] = one
        row[n + i] = -one
        for j, d in enumerate(directions):
            coeff = Fraction(d[i])
            row[2 * n + j] = -coeff
            row[2 * n + k + j] = coeff
        row[-1] = Fraction(u[i])
        if u[i] < 0:
            row = [-e for e in row]
            basis.append(n + i)
        else:
            basis.append(i)
        rows.append(row)

    # Reduced costs z_j - c_j; every starting basic variable has cost 1.
    cost = [one] * (2 * n) + [zero] * (2 * k) + [zero]
    obj = [sum(rows[i][j] for i in range(n)) - cost[j] for j in range(width)]

    pivots = 0
    stall = 0
    last_objective = obj[-1]
    use_bland = False
    while True:
        entering = None
        if use_bland:
            entering = next((j for j in range(width - 1) if obj[j] > 0), None)
        else:
            best = zero
            for j in range(width - 1):
                if obj[j] > best:
                    best = obj[j]
                    entering = j
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(n):
            coeff = rows[i][entering]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise UnboundedLPError("L1 objective cannot be unbounded below")
        pivot = rows[leaving][entering]
        rows[leaving] = [e / pivot for e in rows[leaving]]
        for i in range(n):
            if i != leaving and rows[i][entering] != 0:
                factor = rows[i][entering]
                rows[i] = [e - factor * p for e, p in zip(rows[i], rows[leaving])]
        factor = obj[entering]
        obj = [e - factor * p for e, p in zip(obj, rows[leaving])]
        basis[leaving] = entering
        pivots += 1
        if pivots > simplex._MAX_PIVOTS:
            raise EnumerationCapError(
                f"simplex pivot limit {simplex._MAX_PIVOTS} exceeded"
            )
        if obj[-1] == last_objective:
            stall += 1
            if stall > simplex._STALL_LIMIT:
                use_bland = True
        else:
            stall = 0
            last_objective = obj[-1]

    values = {var: rows[i][-1] for i, var in enumerate(basis)}
    x = tuple(
        values.get(2 * n + j, zero) - values.get(2 * n + k + j, zero)
        for j in range(k)
    )
    return x, pivots


def rref_by_fractions(rows, ncols):
    """Gauss-Jordan over Fraction on the first ``ncols`` columns, later
    columns carried along: (reduced rows, pivot columns)."""
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


def affine_solve_by_fractions(rows, rhs, k):
    """A rational affine system in ``k`` unknowns by Gauss-Jordan over
    Fraction: a particular solution and a basis of the homogeneous
    solution space, or None when the system is inconsistent."""
    aug, pivots = rref_by_fractions(
        [list(row) + [b] for row, b in zip(rows, rhs)], k
    )
    if any(row[k] for row in aug[len(pivots) :]):
        return None
    point = [Fraction(0)] * k
    for row, c in zip(aug, pivots):
        point[c] = row[k]
    basis = []
    for f in range(k):
        if f not in pivots:
            vec = [Fraction(0)] * k
            vec[f] = Fraction(1)
            for row, c in zip(aug, pivots):
                vec[c] = -row[f]
            basis.append(tuple(vec))
    return tuple(point), tuple(basis)


def rref_mod_q(rows, ncols, q):
    """Gauss-Jordan over F_q, normalizing each pivot row by the inverse
    of its pivot; same shape and result convention as above."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


@st.composite
def elimination_systems(draw, fields=(None, 2, 3, 5, 7), carried=st.integers(0, 3)):
    """(rows, ncols, q): 0..6 integer rows over ``ncols`` eliminated
    columns plus ``carried`` further columns, mixing random rows, rows
    zero on the eliminated columns and combinations of earlier rows.
    ``q`` is None (over Q) or a prime with entries reduced into [0, q)."""
    q = draw(st.sampled_from(fields))
    ncols = draw(st.integers(1, 6))
    width = ncols + draw(carried)
    entries = st.integers(-5, 5) | st.just(0)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            row = draw(st.lists(entries, min_size=width, max_size=width))
            rows.append([0] * ncols + row[ncols:] if kind == "zero" else row)
    if q is not None:
        rows = [[x % q for x in row] for row in rows]
    return rows, ncols, q


def frac(p, q=1) -> Fraction:
    return Fraction(p, q)


def tokenize_by_scan(text: str):
    """Presentation tokens ``(token, line, col)``, 1-based, by one scan
    over the characters: a newline starts the next line, any other
    whitespace character advances the column, ``;`` is its own token and
    a token is otherwise a maximal run of other characters."""
    out = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == ";":
            out.append((";", line, col))
            col += 1
            i += 1
            continue
        j = i
        start = col
        while j < len(text) and not text[j].isspace() and text[j] != ";":
            j += 1
        out.append((text[i:j], line, start))
        col += j - i
        i = j
    return out


def sparse_rows_by_entries(m: IntMatrix) -> tuple:
    """``exactla._sparse_rows`` entry by entry: for each row, zero rows
    included, the columns of its nonzero entries and those entries."""
    out = []
    for i in range(m.rows):
        cols = tuple(j for j in range(m.cols) if m.at(i, j) != 0)
        out.append((cols, tuple(m.at(i, j) for j in cols)))
    return tuple(out)


def format_matrix_by_entries(m: IntMatrix) -> str:
    """``exactla.format_matrix`` written entry by entry: the header,
    then every row's entries joined by spaces, one line per row."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(e) for e in m.row(i)))
    return "\n".join(lines) + "\n"


def sample_image_targets_by_rows(rng: random.Random, a: IntMatrix) -> list:
    """``harness.sample_image_targets`` with every row multiplied on
    every draw by the dense product, each target keyed by its own ray."""
    seen = set()
    out = []
    for _ in range(60):
        if len(out) >= harness._TARGETS_PER_MATRIX:
            break
        u = [rng.randint(-2, 2) for _ in range(a.cols)]
        v = mat_vec_dense(a, u)
        if all(x == 0 for x in v):
            continue
        key = primitive_ray(v)
        if key in seen:
            continue
        seen.add(key)
        out.append(v)
    return out


def presentation_d1_by_rows(p) -> IntMatrix:
    """``complexes.presentation_d1`` through dense row lists: one row of
    exponent sums per relator, read back by ``IntMatrix.from_rows``."""
    rows = []
    for word in p.relators:
        row = [0] * len(p.generators)
        for idx, sign in word:
            row[idx] += sign
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=len(p.generators))


def check_incidence_rows_by_entries(a: IntMatrix) -> None:
    """``complexes.check_incidence_rows`` over every entry, zeros
    included: the first entry outside {-1, 0, 1} in row order, else the
    first row with two entries +1 or two entries -1, raises
    ``RowShapeError`` with the same message."""
    for i in range(a.rows):
        plus = minus = 0
        for x in a.row(i):
            if x == 1:
                plus += 1
            elif x == -1:
                minus += 1
            elif x != 0:
                raise RowShapeError(
                    f"row {i + 1} has entry {x} outside {{-1, 0, 1}}"
                )
        if plus > 1 or minus > 1:
            raise RowShapeError(
                f"row {i + 1} has {plus} entries +1 and {minus} entries -1"
            )


@st.composite
def repeated_row_matrices(draw, bound: int = 3):
    """Matrices with 0 to 5 columns whose rows are drawn from a small
    pool, so rows repeat, with the zero row in the pool; entries in
    [-k, k] for k drawn from 1 to ``bound``."""
    cols = draw(st.integers(0, 5))
    k = draw(st.integers(1, bound))
    line = st.lists(st.integers(-k, k), min_size=cols, max_size=cols)
    pool = draw(st.lists(line, min_size=1, max_size=4)) + [[0] * cols]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    return IntMatrix.from_rows([pool[i] for i in picks], cols=cols)


def outcome(fn, *args):
    """``("value", fn(*args))``, or the type and message of the
    ``Exception`` it raises, for comparing a route with its oracle."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
