"""Per-target and global expansion constants over Q, Z, and prime fields.

Fixed small examples are hand-checked; the randomized parts compare the
simplex route against the face-enumeration oracle and against exhaustive
box searches, which are independent arithmetic.
"""

import inspect
import itertools
import math
import operator
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expansion_lab import expansion, simplex, spanning
from expansion_lab.complexes import (
    Graph,
    check_incidence_rows,
    graph_d0,
    presentation_d1,
    steinberg_presentation,
)
from expansion_lab.errors import (
    DimensionMismatchError,
    EnumerationCapError,
    NotPrimeError,
    TargetNotInImageError,
    TargetNotInIntegerImageError,
    UndefinedExpansionError,
    ZeroTargetError,
)
from expansion_lab.exactla import (
    IntMatrix,
    _blocks,
    disjoint_supports,
    integer_kernel_basis,
    integerize,
    l1_norm,
    mat_vec,
    primitive_ray,
    solve_integer,
    solve_rational,
)
from expansion_lab.expansion import (
    GlobalExpansion,
    ModQMatrix,
    _disjoint_terms,
    _enumerate_coset,
    _image_maximum,
    _is_prime,
    _kernel_info,
    _min_weight_in_coset,
    _modq_solve,
    _modq_system,
    _nullspace_line,
    _rational_global,
    _sparse_steps,
    hamming_weight,
    iter_image_with_preimage,
    lift_section,
    minimization_faces,
    modq_rank,
    reduce_mod_q,
    xi_q_at,
    xi_q_at_face_oracle,
    xi_q_global,
    xi_z_at,
    xi_z_global,
    xi_zq_at,
    xi_zq_global,
)
from expansion_lab.spanning import is_integrally_spanned

from conftest import (
    branch_and_bound_by_fractions,
    by_blocks,
    coset_by_recursion,
    elimination_systems,
    min_l1_preimage_by_box,
    minimization_faces_by_closures,
    modq_solve_dense,
    outcome,
    rand_matrix,
    rref_by_fractions,
    rref_mod_q,
    z_global_by_whole_matrix,
    zq_global_by_product_enumeration,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def simplex_d1(n):
    """``d1`` of the full simplex on ``n`` vertices, Δ^(n-1): one row per
    triangle i < j < k and one column per edge, both in lexicographic
    order, the row being the coboundary f -> f(jk) - f(ik) + f(ij).  Its
    kernel rows overlap."""
    edges = list(itertools.combinations(range(n), 2))
    index = {e: c for c, e in enumerate(edges)}
    rows = []
    for i, j, k in itertools.combinations(range(n), 3):
        row = [0] * len(edges)
        row[index[j, k]], row[index[i, k]], row[index[i, j]] = 1, -1, 1
        rows.append(row)
    return mat(rows)


def kernel_is_spanned(a: IntMatrix):
    lattice = integer_kernel_basis(a)
    if lattice.rank == 0:
        return True
    return is_integrally_spanned(lattice.hnf).spanned


def image_target(rng: random.Random, a: IntMatrix):
    """A nonzero target of the form A u for small integer u, or None."""
    for _ in range(30):
        u = [rng.randint(-2, 2) for _ in range(a.cols)]
        v = mat_vec(a, u)
        if any(x != 0 for x in v):
            return v
    return None


def xi_z_at_counting_relaxations(a: IntMatrix, v):
    """``xi_z_at(a, v)`` and the number of LP relaxations it solved."""
    with mock.patch.object(
        expansion, "_relaxation", wraps=expansion._relaxation
    ) as lp:
        res = xi_z_at(a, v)
    return res, lp.call_count


@st.composite
def spanned_kernel_targets(draw):
    """A matrix whose integer kernel is the row lattice of ``[I | N]``,
    with its columns shuffled, and a nonzero image target.

    Each column of ``N`` is a run of consecutive rows with row and
    column signs, so ``N`` is an interval matrix up to signs, hence
    totally unimodular, and the kernel is integrally spanned.  Kernel
    rows overlap wherever a run covers two rows."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    row_signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    columns = []
    for _ in range(m):
        lo = draw(st.integers(0, k - 1))
        hi = draw(st.integers(lo, k - 1))
        sign = draw(st.sampled_from((1, -1)))
        columns.append(
            [sign * row_signs[j] if lo <= j <= hi else 0 for j in range(k)]
        )
    # [-N^T | I] sends (y, z) to zero exactly when z = N^T y.
    rows = [
        [-x for x in col] + [int(i == t) for t in range(m)]
        for i, col in enumerate(columns)
    ]
    order = draw(st.permutations(range(k + m)))
    a = mat([[row[c] for c in order] for row in rows])
    u = draw(st.lists(st.integers(-2, 2), min_size=k + m, max_size=k + m))
    v = mat_vec(a, u)
    assume(any(v))
    return a, v


@st.composite
def small_matrix_targets(draw):
    """A 1-3 x 2-5 matrix with entries in [-3, 3] and a nonzero image
    target ``A u`` with ``u`` in [-2, 2]^cols."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2, 5))
    entries = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    a = mat(draw(st.lists(entries, min_size=rows, max_size=rows)))
    u = draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
    v = mat_vec(a, u)
    assume(any(v))
    return a, v


@st.composite
def disjoint_wide_targets(draw):
    """A block-diagonal matrix of 1x2 rows ``(p, r)`` with entries in
    [-4, 4], and a nonzero image target.  Each block's kernel row is
    ``(r, -p) / gcd``, so the kernel rows have disjoint supports and a
    block with ``|p| != |r|`` has an entry ``|d_i| > 1``, where the
    weighted median may fall between integers (``[[1, 2]]`` at 3)."""
    nonzero = st.integers(-4, 4).filter(bool)
    blocks = draw(st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=3))
    cols = 2 * len(blocks)
    a = mat(
        [
            [0] * (2 * b) + list(pair) + [0] * (cols - 2 * b - 2)
            for b, pair in enumerate(blocks)
        ]
    )
    u = draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
    v = mat_vec(a, u)
    assume(any(v))
    return a, v


@st.composite
def overlapping_unspanned_targets(draw):
    """A 1x3 row with entries in [-4, 4] whose kernel basis rows overlap
    and do not span integrally (as ``[[1, 2, 3]]``), and a nonzero image
    target: the relaxations take the simplex and the search branches."""
    row = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=3, max_size=3))
    a = mat([row])
    assume(_kernel_info(a)[1][0] is None)
    assume(not kernel_is_spanned(a))
    u = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    v = mat_vec(a, u)
    assume(any(v))
    return a, v


class TestXiQAt:
    def test_known_wide_matrix(self):
        res = xi_q_at(mat([[1, 2]]), (1,))
        assert res.value == Fraction(1, 2)
        assert res.witness == (0, Fraction(1, 2))
        assert res.ring == "Q"
        assert res.solver == "lp"

    def test_known_tall_matrix(self):
        res = xi_q_at(mat([[1], [1]]), (1, 1))
        assert res.value == Fraction(1, 2)
        assert res.witness == (1,)

    def test_identity_is_one(self):
        res = xi_q_at(IntMatrix.identity(3), (2, -1, 0))
        assert res.value == 1
        assert res.witness == (2, -1, 0)

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            xi_q_at(mat([[1, 2]]), (0,))

    def test_target_outside_image(self):
        with pytest.raises(TargetNotInImageError):
            xi_q_at(mat([[1], [0]]), (0, 1))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            xi_q_at(mat([[1, 2]]), (1, 0))

    def test_witness_feasibility_random(self):
        rng = random.Random(401)
        for _ in range(40):
            a = rand_matrix(rng, max_dim=4, lo=-3, hi=3)
            v = image_target(rng, a)
            if v is None:
                continue
            res = xi_q_at(a, v)
            assert mat_vec(a, res.witness) == tuple(v)
            assert l1_norm(res.witness) == res.value * l1_norm(v)

    def test_integer_homogeneity(self):
        rng = random.Random(402)
        for _ in range(25):
            a = rand_matrix(rng, max_dim=3, lo=-3, hi=3)
            v = image_target(rng, a)
            if v is None:
                continue
            base = xi_q_at(a, v).value
            for c in (2, -3, 7):
                scaled = tuple(c * x for x in v)
                assert xi_q_at(a, scaled).value == base


@st.composite
def face_targets(draw):
    """A matrix of 1-3 rows and 1-7 columns, some columns copies of
    others up to sign so that terms share or parallel a hyperplane, and
    a nonzero target ``A x``, x an integer box point."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 7))
    entries = st.integers(-3, 3)
    columns = []
    for _ in range(cols):
        if columns and draw(st.booleans()):
            sign = draw(st.sampled_from((1, -1)))
            columns.append([sign * x for x in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(entries, min_size=rows, max_size=rows)))
    a = mat([list(row) for row in zip(*columns)])
    x = draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
    v = mat_vec(a, x)
    assume(any(v))
    return a, v


class TestFaceOracle:
    @settings(max_examples=150, deadline=None)
    @given(face_targets())
    def test_matches_closure_enumeration(self, case):
        a, v = case
        dec = minimization_faces(a, v)
        ref, directions = minimization_faces_by_closures(a, v)
        assert dec == ref
        assert dec.minimum == xi_q_at(a, v).value * l1_norm(v)
        # the kernel rows are independent, so every minimal face is a vertex
        assert all(d == () for d in directions)
        for face in dec.faces:
            assert all(type(x) is Fraction for x in (*face.point, face.value))

    @settings(max_examples=300, deadline=None)
    @given(face_targets())
    def test_vanishing_terms_are_exactly_the_listed_ones(self, case):
        a, v = case
        kernel = integer_kernel_basis(a).basis_rows()
        u0 = solve_rational(a, v)
        for face in minimization_faces(a, v).faces:
            w = [
                u0[i] + sum(x * row[i] for x, row in zip(face.point, kernel))
                for i in range(a.cols)
            ]
            assert tuple(i for i, t in enumerate(w) if t == 0) == face.vanishing
            assert l1_norm(w) == face.value

    def test_known_decomposition(self):
        dec = minimization_faces(mat([[1, 2]]), (1,))
        assert dec.minimum == Fraction(1, 2)
        assert sorted(f.value for f in dec.faces) == [
            Fraction(1, 2),
            Fraction(1),
        ]

    def test_matches_simplex_on_known(self):
        res = xi_q_at_face_oracle(mat([[1, 2]]), (1,))
        assert res.value == Fraction(1, 2)
        assert res.witness == (0, Fraction(1, 2))
        assert res.solver == "face_oracle"

    def test_no_kernel_single_face(self):
        dec = minimization_faces(mat([[1], [1]]), (1, 1))
        assert len(dec.faces) == 1
        assert dec.minimum == 1

    def test_face_values_match_direct_evaluation(self):
        # kernel ranks 1 and 2
        for a in (mat([[1, 1, 0], [0, 1, 1]]), mat([[1, 1, 0, 2], [0, 1, 1, -1]])):
            dec = minimization_faces(a, (1, 1))
            kernel = integer_kernel_basis(a).basis_rows()
            u0 = solve_rational(a, (1, 1))
            assert len(dec.faces) > 1
            for face in dec.faces:
                w = list(u0)
                for j, x in enumerate(face.point):
                    for i in range(a.cols):
                        w[i] += x * kernel[j][i]
                assert sum(abs(t) for t in w) == face.value
                for i in face.vanishing:
                    assert w[i] == 0
                # the vanishing terms cut out a single point: their
                # kernel columns have rank k
                columns = [[row[i] for row in kernel] for i in face.vanishing]
                assert len(rref_by_fractions(columns, len(kernel))[1]) == len(kernel)

    def test_agrees_with_simplex_random(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(60):
            a = rand_matrix(rng, max_dim=3, lo=-3, hi=3)
            v = image_target(rng, a)
            if v is None:
                continue
            lp = xi_q_at(a, v)
            fo = xi_q_at_face_oracle(a, v)
            assert lp.value == fo.value
            assert mat_vec(a, fo.witness) == tuple(v)
            assert l1_norm(fo.witness) == fo.value * l1_norm(v)
            checked += 1
        assert checked >= 30

    def test_rank_cap(self, monkeypatch):
        # four distinct hyperplanes each: C(4, 1) = 4 subsets at kernel
        # rank 1, C(4, 2) = 6 at kernel rank 2
        chain = mat([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
        ramp = mat([[1, 1, 1, 1], [0, 1, 2, 3]])
        assert [len(_kernel_info(a)[0]) for a in (chain, ramp)] == [1, 2]
        monkeypatch.setattr(expansion, "_MAX_FACE_SUBSETS", 4)
        assert minimization_faces(chain, (1, 1, 1)).minimum == 4
        with pytest.raises(EnumerationCapError, match=r"C\(4, 2\)"):
            minimization_faces(ramp, (1, 1))

    def test_term_cap(self, monkeypatch):
        # kernel rank 1, two distinct hyperplanes: C(2, 1) = 2 subsets
        a = mat([[1, 2]])
        monkeypatch.setattr(expansion, "_MAX_FACE_SUBSETS", 2)
        assert minimization_faces(a, (1,)).minimum == Fraction(1, 2)
        monkeypatch.setattr(expansion, "_MAX_FACE_SUBSETS", 1)
        with pytest.raises(EnumerationCapError, match=r"C\(2, 1\)"):
            minimization_faces(a, (1,))

    def test_kernel_rank_nine_is_priced_by_its_subsets(self):
        # kernel rank 9, but 10 distinct hyperplanes give only
        # C(10, 9) = 10 subsets
        a = mat([[1, 2, 3, 1, 2, 3, 1, 2, 3, 1]])
        assert len(_kernel_info(a)[0]) == 9
        res = xi_q_at_face_oracle(a, (5,))
        assert res.value == xi_q_at(a, (5,)).value == Fraction(1, 3)
        assert mat_vec(a, res.witness) == (5,)


def lines_run(fn, code, *args):
    """``fn(*args)`` and the set of line numbers of ``code`` it ran."""
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return fn(*args), lines
    finally:
        sys.settrace(previous)


class TestAntiCycling:
    """The simplex's switch to Bland's smallest-index rule, made on the
    first stall by ``_STALL_LIMIT = 0``, against the face oracle."""

    @pytest.fixture(autouse=True)
    def switch_on_first_stall(self, monkeypatch):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)

    def test_pinned_instance_engages_blands_rule(self):
        source, start = inspect.getsourcelines(simplex._simplex_min_l1)
        switch = start + next(
            i for i, line in enumerate(source) if "use_bland = True" in line
        )
        a = mat([[0, 2, 1, 2]])
        code = simplex._simplex_min_l1.__code__
        res, lines = lines_run(xi_q_at, code, a, (1,))
        assert switch in lines
        assert res.value == xi_q_at_face_oracle(a, (1,)).value == Fraction(1, 2)
        assert mat_vec(a, res.witness) == (1,)

    def test_overlapping_kernels_match_face_oracle(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(400):
            rows, cols = rng.randint(1, 3), rng.randint(2, 7)
            a = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            if _kernel_info(a)[1][0] is not None:
                continue
            v = image_target(rng, a)
            if v is None:
                continue
            res = xi_q_at(a, v)
            assert res.value == xi_q_at_face_oracle(a, v).value
            assert mat_vec(a, res.witness) == tuple(v)
            assert l1_norm(res.witness) == res.value * l1_norm(v)
            checked += 1
            if checked == 60:
                break
        assert checked == 60


class TestXiZAt:
    def test_known_gap_instance(self):
        res = xi_z_at(mat([[1, 2]]), (1,))
        assert res.value == 1
        assert res.witness == (1, 0)
        assert res.ring == "Z"
        assert res.solver == "bnb"

    def test_known_tall_matrix(self):
        res = xi_z_at(mat([[1], [1]]), (1, 1))
        assert res.value == Fraction(1, 2)
        assert res.witness == (1,)

    def test_rational_but_not_integer_target(self):
        with pytest.raises(TargetNotInIntegerImageError) as err:
            xi_z_at(mat([[2]]), (1,))
        assert err.value.rational_value == Fraction(1, 2)

    def test_fully_outside_image(self):
        with pytest.raises(TargetNotInImageError):
            xi_z_at(mat([[1], [0]]), (0, 1))

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            xi_z_at(mat([[1, 2]]), (0,))

    def test_spanned_kernel_matches_rational(self):
        rng = random.Random(405)
        checked = 0
        for _ in range(60):
            a = rand_matrix(rng, max_dim=4, lo=-3, hi=3)
            v = image_target(rng, a)
            if v is None or solve_integer(a, v) is None:
                continue
            q_val = xi_q_at(a, v).value
            z_val = xi_z_at(a, v).value
            assert q_val <= z_val
            if kernel_is_spanned(a):
                assert q_val == z_val
            checked += 1
        assert checked >= 25

    def test_box_search_agreement(self):
        # Random small matrices, plus unspanned kernels whose basis rows
        # overlap, where the search branches below the root relaxation.
        rng = random.Random(406)
        cases = []
        for _ in range(40):
            a = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
            cases.append((a, image_target(rng, a)))
        for rows in ([[1, 2, 3]], [[3, 5, 7]], [[1, 1, 2, 3], [0, 2, 1, 1]]):
            a = mat(rows)
            assert not kernel_is_spanned(a)
            assert _kernel_info(a)[1][0] is None
            targets = itertools.product(range(-3, 4), repeat=a.rows)
            cases += [(a, v) for v in targets if any(v)]
        checked = branched = 0
        for a, v in cases:
            if v is None:
                continue
            u0 = solve_integer(a, v)
            if u0 is None:
                continue
            radius = int(l1_norm(u0))
            if radius > 4:
                continue
            expected = min_l1_preimage_by_box(a, v, radius)
            assert expected is not None
            res, relaxations = xi_z_at_counting_relaxations(a, v)
            assert res.value == Fraction(expected[0], int(l1_norm(v)))
            assert mat_vec(a, res.witness) == tuple(v)
            assert l1_norm(res.witness) == res.value * l1_norm(v)
            checked += 1
            branched += relaxations > 1
        assert checked >= 15
        assert branched >= 10

    @settings(max_examples=100, deadline=None)
    @given(spanned_kernel_targets())
    @example((mat([[-1, -1, 1]]), (-2,)))
    def test_spanned_kernel_takes_one_relaxation(self, case):
        # A spanned kernel has a totally unimodular HNF basis, so the
        # root relaxation is integral and branch and bound stops there,
        # at the rational value.
        a, v = case
        assert kernel_is_spanned(a)
        res, relaxations = xi_z_at_counting_relaxations(a, v)
        assert relaxations == 1
        assert res.value == xi_q_at(a, v).value
        assert mat_vec(a, res.witness) == tuple(v)

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(expansion, "_MAX_NODES", 0)
        with pytest.raises(EnumerationCapError, match="node limit"):
            xi_z_at(mat([[1, 2]]), (1,))
        # an empty kernel leaves nothing to search, so no node is spent
        assert xi_z_at(IntMatrix.identity(2), (1, 2)).value == 1


class TestBranchAndBoundOracle:
    """Branch and bound on scaled-integer relaxations against the same
    search on Fraction relaxations (``branch_and_bound_by_fractions``):
    the same value, witness and number of relaxations."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            small_matrix_targets(),
            spanned_kernel_targets(),
            disjoint_wide_targets(),
            overlapping_unspanned_targets(),
        )
    )
    # A badly conditioned basis row (0, 0, 0, 0, 2, 1, 0): 604 relaxations.
    @example((mat([[2, -2, -1, 2, -1, 2, 0]]), (15,)))
    # A fractional median at the root.
    @example((mat([[1, 2]]), (3,)))
    # Overlapping kernel rows, branching below the root.
    @example((mat([[1, 2, 3]]), (7,)))
    def test_matches_fraction_oracle(self, case):
        a, v = case
        res, relaxations = xi_z_at_counting_relaxations(a, v)
        point, value, nodes = branch_and_bound_by_fractions(
            solve_integer(a, v), _kernel_info(a)[0]
        )
        assert res.value == Fraction(value, l1_norm(v))
        assert res.witness == point
        assert relaxations == nodes
        assert all(type(e) is int for e in res.witness)

    @pytest.mark.parametrize(
        "rows, target, value, witness, relaxations",
        [
            (
                [[2, -2, -1, 2, -1, 2, 0]],
                (15,),
                Fraction(8, 15),
                (0, 0, 0, 0, -1, 7, 0),
                604,
            ),
            ([[1, 2]], (3,), Fraction(2, 3), (1, 1), 4),
            ([[1, 2, 3]], (7,), Fraction(3, 7), (0, 2, 1), 8),
        ],
        ids=["badly-conditioned", "fractional-median", "overlapping"],
    )
    def test_pinned_witnesses(self, rows, target, value, witness, relaxations):
        res, count = xi_z_at_counting_relaxations(mat(rows), target)
        assert (res.value, res.witness, count) == (value, witness, relaxations)


def test_per_target_solvers_skip_the_spanning_scan(monkeypatch):
    # The spanning check serves only xi_z_global; the per-target
    # solvers must not reach it.  The face routines run on a 1x6 row,
    # since the 13-dimensional kernel of the 1x14 row is past their
    # kernel rank cap.
    def scan(*args, **kwargs):
        raise AssertionError("spanning scan reached")

    monkeypatch.setattr(expansion, "is_integrally_spanned", scan)
    _kernel_info.cache_clear()
    wide, narrow = mat([[1] * 14]), mat([[1] * 6])
    assert xi_q_at(wide, (3,)).value == 1
    assert xi_z_at(wide, (3,)).value == 1
    assert xi_q_at_face_oracle(narrow, (3,)).value == 1
    assert minimization_faces(narrow, (3,)).minimum == 3
    with pytest.raises(AssertionError, match="spanning scan reached"):
        xi_z_global(wide)


class TestGlobalRational:
    def test_difference_matrix(self):
        res = xi_q_global(mat([[1, -1]]))
        assert res.value == 1
        assert res.exact

    def test_repeated_row(self):
        res = xi_q_global(mat([[1], [1]]))
        assert res.value == Fraction(1, 2)
        assert res.exact
        assert res.attaining_target == (1, 1)

    def test_identity(self):
        res = xi_q_global(IntMatrix.identity(3))
        assert res.value == 1
        assert res.exact

    def test_zero_image_undefined(self):
        with pytest.raises(UndefinedExpansionError):
            xi_q_global(IntMatrix.zeros(2, 2))

    def test_attaining_target_attains(self):
        rng = random.Random(407)
        for _ in range(20):
            a = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
            if a.is_zero():
                continue
            res = xi_q_global(a)
            assert res.exact
            assert xi_q_at(a, res.attaining_target).value == res.value

    def test_dominates_sampled_targets(self):
        rng = random.Random(408)
        for _ in range(20):
            a = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
            if a.is_zero():
                continue
            res = xi_q_global(a)
            for _ in range(8):
                v = image_target(rng, a)
                if v is None:
                    continue
                assert xi_q_at(a, v).value <= res.value

    def test_candidate_cap_falls_back_to_sample(self, monkeypatch):
        # one block whose image has two candidate rays
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_q_global(mat([[1, 0], [1, 1]]))
        assert not res.exact
        assert res.value >= Fraction(1, 2)

    def test_candidate_cap_is_priced_per_block(self, monkeypatch):
        # the identity splits into rank-1 blocks, one candidate each
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_q_global(IntMatrix.identity(2))
        assert res == GlobalExpansion(
            value=Fraction(1), attaining_target=(1, 0), exact=True
        )

    def test_rank_one_image_needs_no_enumeration(self, monkeypatch):
        # A line image has a single candidate ray, so the cap is moot.
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_q_global(mat([[1, -1]]))
        assert res.exact
        assert res.value == 1


class TestGlobalInteger:
    def test_spanned_routes_through_rational(self):
        a = mat([[1, 1]])
        res = xi_z_global(a)
        assert res.exact
        assert res.value == xi_q_global(a).value == 1

    def test_spanned_kernel_past_candidate_cap_is_inexact(self, monkeypatch):
        # The kernel is zero, hence spanned, but the image of this one
        # block has three candidate rays.
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_z_global(mat([[1, 0], [0, 1], [1, 1]]))
        assert not res.exact
        assert res.value == 1

    def test_spanned_kernel_splits_over_blocks(self, monkeypatch):
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_z_global(IntMatrix.identity(2))
        assert res.exact
        assert res.value == 1

    @pytest.mark.parametrize(
        "rows, target", [([[2]], (2,)), ([[2, 2]], (2,)), ([[1, 2], [1, -1]], (0, 3))]
    )
    def test_spanned_target_in_integer_image(self, rows, target):
        # The primitive rays (1,), resp. (0, 1), of Z^m are not in the
        # integer image; both global values report the image-lattice
        # point on that ray instead.
        res = xi_z_global(mat(rows))
        assert res.exact
        assert res.attaining_target == target
        assert xi_q_global(mat(rows)) == res
        assert xi_z_at(mat(rows), target).value == res.value

    def test_spanning_cap_gives_lower_bound(self, monkeypatch):
        # Past the subset cap the spanning check of the block is read as
        # unspanned: the value is a sampled lower bound, not an error.
        a = mat([[1, -1]])
        monkeypatch.setattr(spanning, "_MAX_SUBSETS", 0)
        assert xi_z_global(a) == GlobalExpansion(
            value=Fraction(1), attaining_target=(-1,), exact=False
        )
        monkeypatch.undo()
        assert xi_z_global(a).exact

    def test_unspanned_gives_lower_bound(self):
        res = xi_z_global(mat([[1, 2]]))
        assert not res.exact
        assert res.value >= 1

    def test_unspanned_sample_is_pinned(self):
        # The first maximizer over the sampled box images [-2, 2]^2.
        res = xi_z_global(mat([[1, 2]]))
        assert res == GlobalExpansion(
            value=Fraction(1), attaining_target=(-1,), exact=False
        )

    def test_lower_bound_is_attained_value(self):
        res = xi_z_global(mat([[1, 2]]))
        assert xi_z_at(mat([[1, 2]]), res.attaining_target).value == res.value

    def test_zero_image_undefined(self):
        with pytest.raises(UndefinedExpansionError):
            xi_z_global(IntMatrix.zeros(1, 3))

    def test_cancelling_leading_columns_still_answer(self):
        # The first 20,000 points of the box [-2, 2]^10 all map the row to
        # 0; the sample of its block, the columns 1 2 -3, does not.
        a = mat([[1, 2, -3] + [0] * 7])
        res = xi_z_global(a)
        assert (res.value, res.exact) == (1, False)
        assert xi_z_at(a, res.attaining_target).value == res.value

    def test_spanning_check_is_priced_per_block(self):
        # 13 copies of the row 1 1: the whole kernel is priced at
        # C(26, 13) = 10,400,600 rank-sized minors, past _MAX_SUBSETS;
        # each block's kernel at C(2, 1).
        a = mat([[1 if j // 2 == i else 0 for j in range(26)] for i in range(13)])
        res = xi_z_global(a)
        assert res == GlobalExpansion(
            value=Fraction(1), attaining_target=(1,) + (0,) * 12, exact=True
        )

    def test_one_block_is_solved_as_given(self):
        # so that its cached factorizations are shared
        a = mat([[1, 2], [0, 1]])
        _blocks.cache_clear()
        ((rows, cols, block),) = _blocks(a)
        assert (rows, cols, block) == ((0, 1), (0, 1), a)
        assert block is a

    def test_spanned_kernel_past_ambient_22_is_exact(self):
        # The kernel of the path on 24 vertices is the all-ones line:
        # priced at C(24, 1) = 24 minors, it is certified by the 23 1 x 1
        # Smith forms of its tableau of ones.
        a = graph_d0(Graph(24, tuple((i, i + 1) for i in range(1, 24))))
        res = xi_z_global(a)
        assert res == xi_q_global(a)
        assert res.exact
        assert res.value == 12


@st.composite
def image_targets(draw):
    """A small matrix and a nonzero target ``A x``, x an integer box point."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    a = mat(draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )))
    x = draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
    v = mat_vec(a, x)
    assume(any(v))
    return a, v


class TestPerTargetSolvers:
    """One property over ``xi_q_at`` and ``xi_z_at`` at the same target."""

    @settings(max_examples=200, deadline=None)
    @given(image_targets())
    def test_witnesses_and_order(self, case):
        a, v = case
        q_res = xi_q_at(a, v)
        z_res = xi_z_at(a, v)
        for res in (q_res, z_res):
            assert mat_vec(a, res.witness) == v
            assert l1_norm(res.witness) == res.value * l1_norm(v)
        assert q_res.value <= z_res.value
        if is_integrally_spanned(integer_kernel_basis(a).hnf).spanned:
            assert q_res.value == z_res.value

    @settings(max_examples=100, deadline=None)
    @given(image_targets())
    def test_global_values_attained(self, case):
        # Each global value is the per-target value at its attaining
        # target.  The Q target lies in the integer image and no proper
        # divisor of it does; on a spanned kernel the Z result is the
        # Q result, so its target is that one.
        a, _ = case
        q_global = xi_q_global(a)
        assert q_global.exact
        t = q_global.attaining_target
        assert xi_q_at(a, t).value == q_global.value
        assert solve_integer(a, t) is not None
        g = math.gcd(*t)
        assert all(
            solve_integer(a, [x // d for x in t]) is None
            for d in range(2, g + 1)
            if g % d == 0
        )
        z_global = xi_z_global(a)
        assert z_global.exact == kernel_is_spanned(a)
        assert xi_z_at(a, z_global.attaining_target).value == z_global.value
        if z_global.exact:
            assert z_global == q_global


def _xi_zq_at_mod_3(a, v):
    return xi_zq_at(reduce_mod_q(a, 3), v)


class TestTargetChecks:
    """Every per-target solver refuses a target that is not a sequence
    with the typed error, as ``IntMatrix.from_rows`` refuses such rows."""

    @pytest.mark.parametrize(
        "solve",
        [xi_q_at, xi_z_at, _xi_zq_at_mod_3, minimization_faces, xi_q_at_face_oracle],
        ids=["xi_q_at", "xi_z_at", "xi_zq_at", "minimization_faces", "xi_q_at_face_oracle"],
    )
    @pytest.mark.parametrize("target", [None, 5, 2.5], ids=["None", "5", "2.5"])
    def test_non_sequence_target_rejected(self, solve, target):
        with pytest.raises(DimensionMismatchError, match="must be a sequence"):
            solve(mat([[1, 1], [0, 1]]), target)

    @pytest.mark.parametrize(
        "solve", [xi_q_at, xi_z_at, _xi_zq_at_mod_3], ids=["xi_q_at", "xi_z_at", "xi_zq_at"]
    )
    @pytest.mark.parametrize(
        "entry", [True, 2.0, Fraction(1, 2)], ids=["True", "2.0", "1/2"]
    )
    def test_last_entry_off_the_int_scan_rejected(self, solve, entry):
        # Every entry but the last is a plain int, so only the full check
        # after the one type scan can refuse the target.
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            solve(IntMatrix.identity(3), (1, 0, entry))

    @pytest.mark.parametrize(
        "solve, target",
        [(xi_q_at, (1, 0, 4)), (xi_z_at, (1, 0, 4)), (_xi_zq_at_mod_3, (1, 0, 1))],
        ids=["xi_q_at", "xi_z_at", "xi_zq_at"],
    )
    def test_integral_fraction_accepted(self, solve, target):
        res = solve(IntMatrix.identity(3), (1, 0, Fraction(4)))
        assert res.target == target
        assert all(type(x) is int for x in res.target)


@st.composite
def modq_image_targets(draw):
    """A small matrix over F_q, q in {2, 3, 5}, with a nonzero image
    target drawn from ``iter_image_with_preimage``."""
    q = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    a = ModQMatrix.from_rows(draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )), q)
    images = [w for w, _ in iter_image_with_preimage(a)]
    assume(images)
    return a, draw(st.sampled_from(images))


class TestZqWitnesses:
    """The F_q counterpart of ``TestPerTargetSolvers``, Hamming weight
    for the 1-norm."""

    @settings(max_examples=200, deadline=None)
    @given(modq_image_targets())
    def test_witness_and_global_target(self, case):
        a, w = case
        res = xi_zq_at(a, w)
        image = mat_vec(a, res.witness)
        assert tuple(x % a.q for x in image) == w
        assert hamming_weight(res.witness) == res.value * hamming_weight(w)
        g = xi_zq_global(a)
        assert g.value >= res.value
        assert xi_zq_at(a, g.attaining_target).value == g.value


class TestModQMatrix:
    def test_entries_reduced(self):
        m = reduce_mod_q(mat([[-1, 3]]), 2)
        assert m.to_rows() == [[1, 1]]
        assert reduce_mod_q(mat([[-1, 3]]), 3).to_rows() == [[2, 0]]

    def test_zero_row_matrix_keeps_its_width(self):
        # the d1 of a graph with no faces has no rows
        m = reduce_mod_q(IntMatrix.zeros(0, 3), 2)
        assert (m.rows, m.cols) == (0, 3)
        with pytest.raises(UndefinedExpansionError, match="zero image"):
            xi_zq_global(m)

    def test_composite_modulus_rejected(self):
        for q in (1, 4, 6, 9):
            with pytest.raises(NotPrimeError):
                ModQMatrix.from_rows([[1]], q)

    def test_constructor_checks_modulus_and_shape(self):
        with pytest.raises(NotPrimeError):
            ModQMatrix(rows=1, cols=2, q=4, entries=(1, 1))
        with pytest.raises(DimensionMismatchError):
            ModQMatrix(rows=1, cols=2, q=3, entries=(1,))
        # the modulus is checked first
        with pytest.raises(NotPrimeError):
            ModQMatrix(rows=1, cols=2, q=4, entries=(1,))

    def test_constructor_reduces_entries(self):
        m = ModQMatrix(rows=1, cols=2, q=3, entries=(1, 7))
        assert m.entries == (1, 1)
        assert m == ModQMatrix.from_rows([[1, 1]], 3)
        assert hash(m) == hash(ModQMatrix.from_rows([[1, 1]], 3))
        assert xi_zq_global(m).value == 1

    def test_submatrix_is_a_checked_modq_matrix(self):
        # _blocks cuts a ModQMatrix block by dataclasses.replace, so the
        # block keeps its q and passes the constructor's checks.
        a = ModQMatrix.from_rows([[1, 0, 2], [0, 4, 0]], 5)
        (rows, cols, block), _ = _blocks(a)
        assert (rows, cols) == ((0,), (0, 2))
        assert type(block) is ModQMatrix
        assert (block.rows, block.cols, block.q, block.entries) == (1, 2, 5, (1, 2))
        with pytest.raises(DimensionMismatchError):
            replace(block, cols=3)
        with pytest.raises(NotPrimeError):
            replace(block, q=4)

    def test_never_equals_an_int_matrix(self):
        m = ModQMatrix.from_rows([[1, 0], [0, 1]], 2)
        assert isinstance(m, IntMatrix)
        assert m != IntMatrix.identity(2) and IntMatrix.identity(2) != m
        assert m.entries == IntMatrix.identity(2).entries
        assert m != ModQMatrix.from_rows([[1, 0], [0, 1]], 3)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ModQMatrix.from_rows([[1, 0], [1]], 2)

    @pytest.mark.parametrize(
        "q", [3.0, 5.0, Fraction(3), True], ids=["3.0", "5.0", "Fraction(3)", "True"]
    )
    def test_non_int_modulus_rejected(self, q):
        with pytest.raises(NotPrimeError):
            ModQMatrix.from_rows([[1, 3], [2, 5]], q)
        with pytest.raises(NotPrimeError):
            reduce_mod_q(mat([[1, 3]]), q)
        with pytest.raises(NotPrimeError):
            lift_section((1, 0), q)

    @pytest.mark.parametrize("entry", [2.5, "3", Fraction(3, 2)])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(DimensionMismatchError):
            ModQMatrix.from_rows([[1, entry]], 3)

    def test_integral_fraction_accepted(self):
        assert ModQMatrix.from_rows([[Fraction(2), 4]], 3).to_rows() == [[2, 1]]

    def test_lift_section_roundtrip(self):
        rng = random.Random(409)
        for q in (2, 3, 5):
            for _ in range(10):
                u = tuple(rng.randrange(q) for _ in range(4))
                lifted = lift_section(u, q)
                assert lifted == u
                assert tuple(x % q for x in lifted) == u

    def test_missing_modulus_rejected(self):
        # zeros and identity come from IntMatrix and pass no modulus
        with pytest.raises(NotPrimeError, match="modulus None"):
            ModQMatrix.zeros(2, 2)
        with pytest.raises(NotPrimeError, match="modulus None"):
            ModQMatrix.identity(2)
        with pytest.raises(NotPrimeError, match="modulus None"):
            ModQMatrix(1, 2, (1, 1))

    @pytest.mark.parametrize("u", [None, 5], ids=["None", "5"])
    def test_lift_section_non_sequence_rejected(self, u):
        with pytest.raises(DimensionMismatchError, match="must be a sequence"):
            lift_section(u, 3)

    def test_lift_section_range_check(self):
        with pytest.raises(DimensionMismatchError):
            lift_section((3,), 3)
        with pytest.raises(DimensionMismatchError):
            lift_section((-1,), 2)

    @pytest.mark.parametrize("u", [(True, 0), (0, 3)], ids=["True", "3"])
    def test_lift_section_refuses_what_the_one_scan_passes_on(self, u):
        with pytest.raises(DimensionMismatchError, match="not in the range"):
            lift_section(u, 3)


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    """Miller-Rabin to the bases 2..41 against trial division."""

    def test_matches_trial_division_below_10_5(self):
        assert [n for n in range(-2, 10**5) if _is_prime(n)] == [
            n for n in range(-2, 10**5) if is_prime_by_trial_division(n)
        ]

    @pytest.mark.parametrize(
        "n, prime",
        [
            (561, False),  # Carmichael
            (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
            (2**61 - 1, True),
            (2**61 + 1, False),
            (10**12 + 39, True),
            # strong pseudoprime to every base 2..37, caught by base 41
            (318665857834031151167461, False),
        ],
    )
    def test_large_cases(self, n, prime):
        assert _is_prime(n) is prime

    def test_bound_is_refused(self):
        with pytest.raises(NotPrimeError, match="3317044064679887385961981"):
            _is_prime(expansion._PRIME_BOUND)
        with pytest.raises(NotPrimeError, match="bound"):
            ModQMatrix.from_rows([[1, -1]], 2**89 - 1)

    def test_large_prime_modulus_is_answered_at_once(self):
        a = ModQMatrix.from_rows([[1, -1]], 2**61 - 1)
        assert xi_zq_at(a, (1,)).value == 1
        assert lift_section((2**61 - 2,), 2**61 - 1) == (2**61 - 2,)


class TestXiZqAt:
    def test_known_mod2(self):
        res = xi_zq_at(ModQMatrix.from_rows([[1, 1]], 2), (1,))
        assert res.value == 1
        assert res.witness == (1, 0)
        assert res.ring == "Zq(2)"
        assert res.solver == "coset_bruteforce"

    def test_known_mod2_two_rows(self):
        a = ModQMatrix.from_rows([[1, 1, 0], [0, 1, 1]], 2)
        res = xi_zq_at(a, (1, 1))
        assert res.value == Fraction(1, 2)
        assert res.witness == (0, 1, 0)

    def test_large_prime_coset_needs_no_q_sized_counts(self):
        # the per-row mode counts only the coefficients that occur on the
        # row's support; a list of q counts would take 8 MB here, and
        # about 17 GB at the second prime
        a = ModQMatrix.from_rows([[1, -1]], 999983)
        tracemalloc.start()
        try:
            res = xi_zq_at(a, (5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert (res.value, res.witness) == (1, (5, 0))
        res = xi_zq_at(ModQMatrix.from_rows([[1, -1]], 2**31 - 1), (5,))
        assert (res.value, res.witness) == (1, (5, 0))

    def test_target_reduced_before_use(self):
        a = ModQMatrix.from_rows([[1, 1]], 2)
        res = xi_zq_at(a, (3,))
        assert res.target == (1,)
        assert res.value == 1

    @pytest.mark.parametrize("entry", [1.7, Fraction(1, 2), True])
    def test_non_integer_target_rejected(self, entry):
        # As over Q and Z: the entry is refused, not truncated.
        a = reduce_mod_q(IntMatrix.identity(2), 3)
        with pytest.raises(DimensionMismatchError):
            xi_zq_at(a, (entry, 0))

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            xi_zq_at(ModQMatrix.from_rows([[1, 1]], 2), (0,))
        with pytest.raises(ZeroTargetError):
            xi_zq_at(ModQMatrix.from_rows([[1, 1]], 2), (2,))

    def test_outside_image(self):
        a = ModQMatrix.from_rows([[1], [1]], 2)
        with pytest.raises(TargetNotInImageError):
            xi_zq_at(a, (1, 0))

    def test_coset_cap(self, monkeypatch):
        # kernel rows (1, 1, 0) and (1, 0, 1) overlap, so the coset of
        # size 2 ** 2 is enumerated
        monkeypatch.setattr(expansion, "_MAX_COSET", 3)
        a = ModQMatrix.from_rows([[1, 1, 1]], 2)
        assert _modq_system(a)[0] is None
        with pytest.raises(EnumerationCapError, match="coset size"):
            xi_zq_at(a, (1,))

    def test_disjoint_kernel_past_coset_cap_is_not_enumerated(self):
        # 25 kernel rows with disjoint supports: a 2 ** 25 coset, far
        # past _MAX_COSET, weighed row by row
        a = ModQMatrix.from_rows([[1] + [0] * 25], 2)
        assert 2 ** len(_modq_system(a)[2]) > expansion._MAX_COSET
        assert xi_zq_at(a, (1,)).value == 1
        assert xi_zq_global(a).value == 1

    def test_witness_feasibility_random(self):
        rng = random.Random(410)
        for q in (2, 3, 5):
            for _ in range(15):
                rows = rng.randint(1, 3)
                cols = rng.randint(1, 4)
                a = ModQMatrix.from_rows(
                    [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)],
                    q,
                )
                targets = list(iter_image_with_preimage(a))
                if not targets:
                    continue
                w, _ = targets[rng.randrange(len(targets))]
                res = xi_zq_at(a, w)
                got = tuple(
                    sum(a.at(i, j) * res.witness[j] for j in range(a.cols)) % q
                    for i in range(a.rows)
                )
                assert got == w
                assert hamming_weight(res.witness) == res.value * hamming_weight(w)
                assert Fraction(1, a.rows) <= res.value <= a.cols


class TestXiZqGlobal:
    def test_known_values(self):
        assert xi_zq_global(ModQMatrix.from_rows([[1, 1]], 2)).value == 1
        assert xi_zq_global(ModQMatrix.from_rows([[1, 0], [0, 1]], 2)).value == 1
        assert xi_zq_global(ModQMatrix.from_rows([[1, 1]], 3)).value == 1

    def test_exact_flag_set(self):
        res = xi_zq_global(ModQMatrix.from_rows([[1, 1]], 2))
        assert res.exact
        assert res.attaining_target == (1,)

    def test_dominates_all_targets(self):
        rng = random.Random(411)
        for q in (2, 3):
            for _ in range(10):
                rows = rng.randint(1, 3)
                cols = rng.randint(1, 3)
                a = ModQMatrix.from_rows(
                    [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)],
                    q,
                )
                targets = list(iter_image_with_preimage(a))
                if not targets:
                    continue
                res = xi_zq_global(a)
                for w, _ in targets:
                    assert xi_zq_at(a, w).value <= res.value

    def test_zero_image_undefined(self):
        with pytest.raises(UndefinedExpansionError):
            xi_zq_global(ModQMatrix.from_rows([[0, 0]], 2))

    def test_image_cap(self, monkeypatch):
        # one block of rank 2: 5 ** 2 images
        monkeypatch.setattr(expansion, "_MAX_IMAGES", 10)
        a = ModQMatrix.from_rows([[1, 1], [0, 1]], 5)
        with pytest.raises(EnumerationCapError):
            xi_zq_global(a)

    def test_image_cap_is_priced_per_block(self, monkeypatch):
        # the identity splits into two blocks of 5 images each
        monkeypatch.setattr(expansion, "_MAX_IMAGES", 10)
        a = ModQMatrix.from_rows([[1, 0], [0, 1]], 5)
        assert xi_zq_global(a).value == 1

    def test_coset_cap(self, monkeypatch):
        # image 2 ** 1, overlapping kernel rows, coset 2 ** 2
        monkeypatch.setattr(expansion, "_MAX_COSET", 3)
        a = ModQMatrix.from_rows([[1, 1, 1]], 2)
        with pytest.raises(EnumerationCapError, match="coset size"):
            xi_zq_global(a)

    def test_walk_cap_prices_image_times_coset(self):
        # rank 18 and an overlapping kernel of dimension 12: the image
        # and each coset are under their caps, the 2 ** 30 coset vectors
        # of the walk are not, and the walk is refused before it starts
        rng = random.Random(3)
        a = ModQMatrix.from_rows(
            [[rng.randint(0, 1) for _ in range(30)] for _ in range(18)], 2
        )
        terms, pivots, kernel, _ = _modq_system(a)
        assert (terms, len(pivots), len(kernel)) == (None, 18, 12)
        assert 2**18 <= expansion._MAX_IMAGES and 2**12 <= expansion._MAX_COSET
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="coset size"):
            xi_zq_global(a)
        assert time.perf_counter() - start < 1

    def test_walk_cap_refuses_a_wide_row_that_each_target_answers(self):
        # every coset of the 1 x 24 all-ones row starts at weight 1 and
        # exits at once, but the walk is priced as 2 ** 24 coset vectors
        a = ModQMatrix.from_rows([[1] * 24], 2)
        assert _modq_system(a)[0] is None
        with pytest.raises(EnumerationCapError, match="coset size"):
            xi_zq_global(a)
        assert xi_zq_at(a, (1,)).value == 1

    def test_image_enumeration_is_complete_and_disjoint(self):
        a = ModQMatrix.from_rows([[1, 1, 0], [0, 1, 1]], 2)
        pairs = list(iter_image_with_preimage(a))
        images = [w for w, _ in pairs]
        assert len(images) == len(set(images)) == 3
        for w, u in pairs:
            got = tuple(
                sum(a.at(i, j) * u[j] for j in range(a.cols)) % a.q
                for i in range(a.rows)
            )
            assert got == w


@st.composite
def disjoint_rref_cosets(draw):
    """(q, u0, kernel) shaped like ``_modq_system`` output: kernel rows
    with pairwise disjoint supports, each 1 on its own free column, and
    a nonzero u0 that vanishes on the free columns (so u0 is not in the
    kernel span and the coset's target is nonzero)."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    kernel, free = [], set()
    for j in range(4):
        cols = [i for i in range(n) if owner[i] == j]
        if not cols:
            continue
        row = [0] * n
        row[cols[0]] = 1
        free.add(cols[0])
        for i in cols[1:]:
            row[i] = draw(st.integers(1, q - 1))
        kernel.append(tuple(row))
    u0 = tuple(
        0 if i in free else draw(st.integers(0, q - 1)) for i in range(n)
    )
    assume(any(u0))
    return q, u0, tuple(kernel)


class TestMinWeightInCoset:
    """The per-row mode route against coset enumeration, its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(disjoint_rref_cosets())
    def test_mode_matches_enumeration(self, case):
        q, u0, kernel = case
        terms = _disjoint_terms(kernel, q)
        steps = _sparse_steps(kernel)
        assert _min_weight_in_coset(u0, steps, q, terms) == _enumerate_coset(
            u0, steps, q
        )

    def test_terms_carry_each_entry_and_its_negated_inverse(self):
        kernel = ((1, 3, 0, 0), (0, 0, 2, 4))
        assert _disjoint_terms(kernel, 5) == (
            ((0, 1, 4), (1, 3, 3)),
            ((2, 2, 2), (3, 4, 1)),
        )
        assert _disjoint_terms(((1, 1), (0, 1)), 5) is None

    def test_overlapping_kernel_matches_exhaustive_search(self):
        # both kernel rows are nonzero on columns 0 and 1, so the coset is
        # enumerated; a per-row choice would not reach the weight-1 optimum
        a = ModQMatrix.from_rows([[0, 2, 2, 2], [2, 2, 1, 1]], 3)
        _, _, kernel, _ = _modq_system(a)
        assert all(row[0] and row[1] for row in kernel)
        w = (1, 2)
        res = xi_zq_at(a, w)
        weights = [
            hamming_weight(u)
            for u in itertools.product(range(3), repeat=a.cols)
            if tuple(
                sum(a.at(i, j) * u[j] for j in range(a.cols)) % 3
                for i in range(a.rows)
            )
            == w
        ]
        assert hamming_weight(res.witness) == min(weights) == 1


@st.composite
def overlapping_cosets(draw):
    """(q, u0, kernel) over F_q, q in {2, 3, 5, 7}: two to four kernel
    rows with entries in [0, q) and ``q ** rows`` at most 2,401, of which
    the first two share a nonzero position, and a start ``u0`` with
    entries in [0, q).  The rows need not be independent or echelon:
    the enumeration runs over coefficient vectors, not the span."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, max(c for c in (2, 3, 4) if q**c <= 2401)))
    entry = st.integers(0, q - 1)
    kernel = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    i = draw(st.integers(0, n - 1))
    nonzero = st.integers(1, q - 1)
    kernel[0][i], kernel[1][i] = draw(nonzero), draw(nonzero)
    u0 = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    return q, u0, tuple(map(tuple, kernel))


class TestCosetOdometer:
    """``_enumerate_coset`` on the shared odometer against the recursion
    it replaced, ``conftest.coset_by_recursion``."""

    @settings(max_examples=300, deadline=None)
    @given(overlapping_cosets())
    @example((2, (1, 1, 0), ()))
    @example((5, (0, 0, 0), ((1, 2, 0), (3, 1, 4))))
    @example((3, (0, 2, 0), ((1, 1, 0), (0, 1, 1))))
    @example((7, (0, 6, 5, 0), ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))))
    # (1, 0, 0), weight 1, ends the walk before (1, 1) reaches zero
    @example((2, (1, 1, 0), ((1, 0, 0), (0, 1, 0))))
    def test_matches_recursion(self, case):
        q, u0, kernel = case
        assert _enumerate_coset(u0, _sparse_steps(kernel), q) == coset_by_recursion(
            u0, kernel, q
        )

    def test_start_of_weight_one_is_returned_unwalked(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("walked a coset whose start weighs 1")

        monkeypatch.setattr(expansion, "_odometer", forbidden)
        steps = _sparse_steps(((1, 1, 0), (0, 1, 1)))
        assert _enumerate_coset((0, 4, 0), steps, 5) == ((0, 4, 0), 1)


@st.composite
def modq_matrices_by_kernel(draw):
    """(kind, a): a matrix over F_q, q in {2, 3, 5, 7}, whose kernel
    basis is zero, has rows with pairwise disjoint supports, or has two
    rows sharing a position (``kind``).  It starts from a reduced
    echelon form, pivots first: a kernel row sits on its free column and
    on the pivots whose rows touch that column, so rows overlap exactly
    when one pivot row touches two free columns.  Zero columns (free
    columns nobody touches) go anywhere, then the rows are mixed by
    invertible row operations, zero rows are inserted and entries are
    lifted off [0, q).  ``q ** cols`` stays below 3,000, which bounds
    the image walk times the coset enumeration."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    kind = draw(st.sampled_from(("zero", "disjoint", "overlapping")))
    most = 1
    while q ** (most + 1) < 3000:
        most += 1
    least_free = {"zero": 0, "disjoint": 1, "overlapping": 2}[kind]
    r = draw(st.integers(1, min(4, most - least_free)))
    f = 0 if kind == "zero" else draw(st.integers(least_free, min(3, most - r)))
    nonzero = st.integers(1, q - 1)
    rows = [[int(i == j) for j in range(r)] + [0] * f for i in range(r)]
    if kind == "disjoint":
        for row in rows:
            t = draw(st.integers(-1, f - 1))
            if t >= 0:
                row[r + t] = draw(nonzero)
    elif kind == "overlapping":
        for row in rows:
            for t in range(f):
                if draw(st.booleans()):
                    row[r + t] = draw(nonzero)
        j = draw(st.integers(0, r - 1))
        t1, t2 = draw(st.lists(st.integers(0, f - 1), min_size=2, max_size=2, unique=True))
        rows[j][r + t1], rows[j][r + t2] = draw(nonzero), draw(nonzero)
    # Only free columns that no row touches may move before a pivot.
    zero_cols = [t for t in range(f) if not any(row[r + t] for row in rows)]
    order = list(range(r + f))
    for t in zero_cols:
        order.remove(r + t)
        order.insert(draw(st.integers(0, len(order))), r + t)
    rows = [[row[c] for c in order] for row in rows]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2))
        if i == j:
            rows.reverse()
        else:
            c = draw(nonzero)
            rows[i] = [(x + c * y) % q for x, y in zip(rows[i], rows[j])]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * (r + f))
    lifted = [[x + q * draw(st.integers(-1, 1)) for x in row] for row in rows]
    return kind, ModQMatrix.from_rows(lifted, q)


@st.composite
def incidence_shaped(draw):
    """Small integer matrices that ``check_incidence_rows`` accepts: each
    row has at most one +1 and at most one -1, and some row is nonzero."""
    cols = draw(st.integers(1, 5))
    slot = st.none() | st.integers(0, cols - 1)
    data = []
    for _ in range(draw(st.integers(1, 4))):
        row = [0] * cols
        plus, minus = draw(slot), draw(slot)
        if plus is not None:
            row[plus] = 1
        if minus is not None and minus != plus:
            row[minus] = -1
        data.append(row)
    a = mat(data)
    check_incidence_rows(a)
    assume(not a.is_zero())
    return a


class TestImageWalk:
    """The odometer walk of the F_q image against the per-image loop it
    replaced, ``conftest.zq_global_by_product_enumeration``, run block
    by block under the block rule (``conftest.by_blocks``)."""

    @settings(max_examples=300, deadline=None)
    @given(modq_matrices_by_kernel())
    def test_global_matches_product_enumeration(self, case):
        kind, a = case
        supports, _, kernel, _ = _modq_system(a)
        assert (not kernel, supports is None) == (
            kind == "zero",
            kind == "overlapping",
        )
        res = xi_zq_global(a)
        oracle = by_blocks(zq_global_by_product_enumeration)(a)
        assert (res.value, res.attaining_target) == (
            oracle.value,
            oracle.attaining_target,
        )

    @settings(max_examples=100, deadline=None)
    @given(modq_matrices_by_kernel())
    def test_images_come_in_product_order(self, case):
        _, a = case
        _, pivots, _, _ = _modq_system(a)
        pairs = list(iter_image_with_preimage(a))
        coeffs = [tuple(u[p] for p in pivots) for _, u in pairs]
        assert coeffs == [
            c for c in itertools.product(range(a.q), repeat=len(pivots)) if any(c)
        ]
        for w, u in pairs:
            assert all(u[c] == 0 for c in range(a.cols) if c not in pivots)
            assert w == tuple(
                sum(a.at(i, j) * u[j] for j in range(a.cols)) % a.q
                for i in range(a.rows)
            )

    def test_steinberg_4_mod_2_matches_product_enumeration(self):
        a = reduce_mod_q(presentation_d1(steinberg_presentation(4)), 2)
        assert modq_rank(a) == 12 and not _modq_system(a)[2]
        res = xi_zq_global(a)
        oracle = by_blocks(zq_global_by_product_enumeration)(a)
        assert (res.value, res.attaining_target) == (
            oracle.value,
            oracle.attaining_target,
        )

    @pytest.mark.parametrize(
        "n, value, target",
        [
            (5, Fraction(3, 5), (1, 1, 0, 0, 0, 1, 0, 1, 0, 1)),
            (
                6,
                Fraction(1, 2),
                (0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0),
            ),
        ],
    )
    def test_simplex_d1_mod_2(self, n, value, target):
        # Δ^4 (10 x 10) and Δ^5 (20 x 15): overlapping kernels, every
        # coset enumerated; 3/n is the Meshulam-Wallach bound
        a = reduce_mod_q(simplex_d1(n), 2)
        assert _modq_system(a)[0] is None
        res = xi_zq_global(a)
        assert (res.value, res.attaining_target) == (value, target)
        oracle = by_blocks(zq_global_by_product_enumeration)(a)
        assert (oracle.value, oracle.attaining_target) == (value, target)

    def test_disjoint_kernel_needs_no_coset_search(self, monkeypatch):
        # two components: the kernel is spanned by their indicators
        a = reduce_mod_q(mat([[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1]]), 3)
        supports, _, kernel, _ = _modq_system(a)
        assert len(kernel) == 2 and supports is not None
        oracle = by_blocks(zq_global_by_product_enumeration)(a)

        def forbidden(*args):
            raise AssertionError("coset enumeration on a disjoint kernel")

        # each image vector of each block's walk is weighed once, by the
        # per-row modes, none by enumeration
        monkeypatch.setattr(expansion, "_enumerate_coset", forbidden)
        with mock.patch.object(
            expansion, "_min_weight_in_coset", wraps=expansion._min_weight_in_coset
        ) as spy:
            res = xi_zq_global(a)
        ranks = [modq_rank(block) for _, _, block in _blocks(a)]
        assert ranks == [1, 2]
        assert spy.call_count == sum(3**r - 1 for r in ranks)
        assert (res.value, res.attaining_target) == (
            oracle.value,
            oracle.attaining_target,
        )

    def test_large_prime_walk_stays_linear_in_the_image(self):
        # q - 1 image vectors, each weighed in time independent of q
        a = ModQMatrix.from_rows([[1, -1]], 999983)
        start = time.perf_counter()
        res = xi_zq_global(a)
        assert time.perf_counter() - start < 60
        assert (res.value, res.attaining_target) == (1, (1,))

    def test_overlapping_kernel_enumerates_each_coset(self):
        a = ModQMatrix.from_rows([[0, 2, 2, 2], [2, 2, 1, 1]], 3)
        assert _modq_system(a)[0] is None
        with mock.patch.object(
            expansion, "_enumerate_coset", wraps=expansion._enumerate_coset
        ) as spy:
            res = xi_zq_global(a)
        assert spy.call_count == 3 ** modq_rank(a) - 1
        oracle = by_blocks(zq_global_by_product_enumeration)(a)
        assert (res.value, res.attaining_target) == (
            oracle.value,
            oracle.attaining_target,
        )

    @settings(max_examples=200, deadline=None)
    @given(incidence_shaped(), st.sampled_from((2, 3, 5)))
    def test_q_minus_one_bound_on_incidence_rows(self, a, q):
        # the paper's bound (q - 1) Xi_Z >= Xi_Zq, with Xi_Z = Xi_Q on
        # these spanned kernels
        assert kernel_is_spanned(a)
        left = (q - 1) * xi_q_global(a).value
        assert left >= xi_zq_global(reduce_mod_q(a, q)).value


@st.composite
def permuted_block_diagonals(draw, field=st.none()):
    """A block-diagonal matrix of two or three random blocks of at most
    3 x 3, each with an entry that is nonzero (mod q over F_q), with up
    to two zero rows and zero columns put in and its rows and columns
    shuffled.  An ``IntMatrix`` when ``field`` draws None, else a
    ``ModQMatrix`` over the drawn prime q with entries lifted off [0, q)
    and ``q ** cols`` below 3,000, which bounds the product enumeration
    times the coset enumeration."""
    q = draw(field)
    most = 8 if q is None else max(c for c in range(1, 12) if q**c < 3000)
    count = draw(st.integers(2, min(3, most)))
    widths = []
    for b in range(count):
        room = most - sum(widths) - (count - b - 1)
        widths.append(draw(st.integers(1, min(3, room))))
    zero_cols = draw(st.integers(0, min(2, most - sum(widths))))
    entry = st.integers(-2, 2) if q is None else st.integers(0, q - 1)
    blocks = []
    for width in widths:
        line = st.lists(entry, min_size=width, max_size=width)
        block = [draw(line) for _ in range(draw(st.integers(1, 3)))]
        assume(any(any(row) for row in block))
        blocks.append(block)
    cols = sum(widths) + zero_cols
    rows = []
    left = 0
    for block, width in zip(blocks, widths):
        for row in block:
            rows.append([0] * left + row + [0] * (cols - left - width))
        left += width
    rows += [[0] * cols for _ in range(draw(st.integers(0, 2)))]
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(cols)))
    data = [[rows[i][j] for j in col_order] for i in row_order]
    if q is None:
        return mat(data)
    lifted = [[x + q * draw(st.integers(-1, 1)) for x in row] for row in data]
    return ModQMatrix.from_rows(lifted, q)


class TestBlockSplit:
    """The global values split over the blocks of A, against the product
    enumeration over F_q run block by block, and against the whole route
    over Q."""

    def test_blocks_in_order_of_smallest_column(self):
        a = mat([[0, 2, 0, 0], [0, 0, 0, 0], [1, 0, 0, 3], [0, 0, 0, 1]])
        assert _blocks(a) == (
            ((2, 3), (0, 3), mat([[1, 3], [0, 1]])),
            ((0,), (1,), mat([[2]])),
        )
        assert _blocks(IntMatrix.zeros(2, 3)) == ()

    def test_blocks_over_f_q_use_reduced_entries(self):
        a = mat([[1, 3], [0, 1]])
        assert _blocks(a) == (((0, 1), (0, 1), a),)
        a = ModQMatrix.from_rows([[1, 3], [0, 1]], 3)
        one = ModQMatrix.from_rows([[1]], 3)
        assert _blocks(a) == (((0,), (0,), one), ((1,), (1,), one))

    @settings(max_examples=300, deadline=None)
    @given(permuted_block_diagonals(st.sampled_from((2, 3, 5))))
    def test_zq_global_matches_product_enumeration(self, a):
        assert len(_blocks(a)) >= 2
        res = xi_zq_global(a)
        oracle = by_blocks(zq_global_by_product_enumeration)(a)
        assert (res.value, res.attaining_target) == (
            oracle.value,
            oracle.attaining_target,
        )

    @settings(max_examples=150, deadline=None)
    @given(permuted_block_diagonals())
    @example(mat([[1, 1, 0], [0, 0, 0], [0, 0, 1]]))
    def test_q_global_matches_whole_route(self, a):
        blocks = _blocks(a)
        assert len(blocks) >= 2
        res = xi_q_global(a)
        whole = _rational_global(a)
        assert (res.value, res.exact) == (whole.value, whole.exact)
        assert xi_q_at(a, res.attaining_target).value == res.value
        # The tie rule: the target lies on the first block, in order of
        # smallest column, that reaches the value.  In the example both
        # blocks reach 1 and the whole route's target is (0, 0, 1).
        values = [_rational_global(block).value for _, _, block in blocks]
        rows, _, _ = blocks[values.index(res.value)]
        assert not any(x for i, x in enumerate(res.attaining_target) if i not in rows)

    @settings(max_examples=150, deadline=None)
    @given(permuted_block_diagonals())
    @example(mat([[0, 1, 2, -3, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]]))
    def test_z_global_matches_whole_matrix_where_spanned(self, a):
        # The kernel is spanned exactly when every block's is; then the
        # split value, target and flag are the whole-matrix route's.
        res = xi_z_global(a)
        assert xi_z_at(a, res.attaining_target).value == res.value
        spanned = all(kernel_is_spanned(block) for _, _, block in _blocks(a))
        assert spanned == kernel_is_spanned(a)
        if spanned:
            assert res == z_global_by_whole_matrix(a)
        else:
            assert not res.exact

    def test_q_global_tie_goes_to_smallest_column(self):
        a = IntMatrix.identity(2)
        assert _rational_global(a).attaining_target == (0, 1)
        assert xi_q_global(a) == GlobalExpansion(
            value=Fraction(1), attaining_target=(1, 0), exact=True
        )

    def test_zq_global_follows_the_same_tie_rule(self):
        # the whole walk's first maximizer is (0, 1); both global values
        # take the first block instead
        a = ModQMatrix.from_rows([[1, 0], [0, 1]], 2)
        assert _image_maximum(a).attaining_target == (0, 1)
        expected = GlobalExpansion(Fraction(1), attaining_target=(1, 0), exact=True)
        assert xi_zq_global(a) == expected == xi_q_global(IntMatrix.identity(2))

    @pytest.mark.parametrize(
        "n, value", [(5, Fraction(1, 3)), (6, Fraction(1, 4)), (7, Fraction(1, 5))]
    )
    def test_steinberg_d1_mod_2_bound(self, n, value):
        # The paper's degree-1 Z/2Z bound Xi_Z2(d1) <= Xi_Q(d1) = Xi_Z(d1)
        # past the 2^cols cap of the presentations campaign: d1 splits
        # into one-column blocks.
        d1 = presentation_d1(steinberg_presentation(n))
        zq = xi_zq_global(reduce_mod_q(d1, 2))
        assert zq.value == value
        assert zq.value <= xi_q_global(d1).value


def block_diagonal(blocks, q=None):
    """The block-diagonal sum of ``blocks`` in order, as an
    ``IntMatrix`` or, given ``q``, a ``ModQMatrix``."""
    cols = sum(len(b[0]) for b in blocks)
    rows = []
    left = 0
    for b in blocks:
        rows += [[0] * left + row + [0] * (cols - left - len(row)) for row in b]
        left += len(b[0])
    return mat(rows) if q is None else ModQMatrix.from_rows(rows, q)


@st.composite
def repeated_block_diagonals(draw, field=st.none()):
    """Block-diagonal sums of two to five blocks, in order, each drawn
    from a pool of one to three nonzero blocks of at most 3x3 followed
    by up to two zero rows, so that blocks repeat.  With ``field``
    drawing a prime q, a ``ModQMatrix`` whose pool entries are lifted by
    multiples of q."""
    q = draw(field)
    entry = st.integers(-2, 2) if q is None else st.integers(0, q - 1)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 3))
        line = st.lists(entry, min_size=width, max_size=width)
        block = draw(st.lists(line, min_size=1, max_size=3))
        assume(any(any(row) for row in block))
        if q is not None:
            block = [[x + q * draw(st.integers(-1, 1)) for x in row] for row in block]
        pool.append(block + [[0] * width] * draw(st.integers(0, 2)))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=2, max_size=5))
    return block_diagonal([pool[i] for i in picks], q)


def dense_slice(a, rows, cols):
    """The rows ``rows`` and columns ``cols`` of ``a``, cut from its
    nested row lists, as a matrix of ``a``'s type."""
    data = a.to_rows()
    cut = [[data[i][j] for j in cols] for i in rows]
    if isinstance(a, ModQMatrix):
        return ModQMatrix.from_rows(cut, a.q, cols=len(cols))
    return IntMatrix.from_rows(cut, cols=len(cols))


def distinct_blocks(a):
    return {dense_slice(a, rows, cols) for rows, cols, _ in _blocks(a)}


@st.composite
def sparse_matrices(draw):
    """Matrices of up to 4 x 4 with entries in [-2, 2], mostly zero, so
    that zero rows and columns occur and a matrix can be one block."""
    cols = draw(st.integers(1, 4))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    line = st.lists(entry, min_size=cols, max_size=cols)
    return IntMatrix.from_rows(draw(st.lists(line, max_size=4)), cols=cols)


class TestBlockSubmatrices:
    """``_blocks`` hands out each block's submatrix, against a dense
    slice of the matrix's rows cut in the test."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            sparse_matrices(),
            permuted_block_diagonals(),
            permuted_block_diagonals(st.sampled_from((2, 3, 5))),
            repeated_block_diagonals(),
            repeated_block_diagonals(st.sampled_from((2, 3, 5))),
        )
    )
    def test_every_block_is_the_dense_slice(self, a):
        # The cache answers for an equal matrix seen before with that
        # matrix's blocks; start from an empty cache to see a's own.
        _blocks.cache_clear()
        blocks = _blocks(a)
        nonzeros = 0
        shared = {}
        for rows, cols, block in blocks:
            assert type(block) is type(a)
            assert block == dense_slice(a, rows, cols)
            # Equal submatrices are one object.
            assert shared.setdefault(block, block) is block
            nonzeros += sum(map(bool, block.entries))
        # The blocks hold every nonzero entry of the matrix.
        assert nonzeros == sum(map(bool, a.entries))
        # A matrix that is one block gets itself.
        everything = (tuple(range(a.rows)), tuple(range(a.cols)))
        if len(blocks) == 1 and blocks[0][:2] == everything:
            assert blocks[0][2] is a

    @pytest.mark.parametrize("q", [None, 2])
    def test_steinberg_d1_blocks_are_one_object(self, q):
        # Steinberg d1 at n = 7 is 840 x 42 and splits into 42 identical
        # 5 x 1 blocks.
        a = presentation_d1(steinberg_presentation(7))
        if q is not None:
            a = reduce_mod_q(a, q)
        blocks = _blocks(a)
        assert len(blocks) == 42
        assert len({id(block) for _, _, block in blocks}) == 1
        assert blocks[0][2] == dense_slice(a, *blocks[0][:2])


class TestOneSolvePerDistinctBlock:
    """``_block_maximum`` solves each distinct block submatrix once per
    call; the per-block loop with no memo (``conftest.by_blocks``) is
    the oracle for values, targets, flags and errors."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_steinberg_d1_solves_its_one_kind_of_block_once(self, n):
        # d1 splits into n(n - 1) identical blocks, one per generator.
        d1 = presentation_d1(steinberg_presentation(n))
        for a, name, route in (
            (d1, "_rational_global", xi_q_global),
            (reduce_mod_q(d1, 2), "_image_maximum", xi_zq_global),
        ):
            assert len(_blocks(a)) == n * (n - 1)
            assert len(distinct_blocks(a)) == 1
            solve = getattr(expansion, name)
            with mock.patch.object(expansion, name, wraps=solve) as counted:
                res = route(a)
            assert counted.call_count == 1
            assert res == by_blocks(solve)(a)

    @settings(max_examples=150, deadline=None)
    @given(repeated_block_diagonals())
    def test_q_global_matches_per_block_loop(self, a):
        with mock.patch.object(
            expansion, "_rational_global", wraps=_rational_global
        ) as counted:
            res = xi_q_global(a)
        assert res == by_blocks(_rational_global)(a)
        solved = [c.args[0] for c in counted.call_args_list]
        assert len(solved) == len(set(solved)) == len(distinct_blocks(a))

    @settings(max_examples=150, deadline=None)
    @given(repeated_block_diagonals(st.sampled_from((2, 3, 5))))
    def test_zq_global_matches_per_block_loop(self, a):
        with mock.patch.object(
            expansion, "_image_maximum", wraps=_image_maximum
        ) as counted:
            res = xi_zq_global(a)
        assert res == by_blocks(_image_maximum)(a)
        solved = [c.args[0] for c in counted.call_args_list]
        assert len(solved) == len(set(solved)) == len(distinct_blocks(a))

    def test_image_cap_raises_on_the_same_first_block(self, monkeypatch):
        # Blocks of rank 1, 2, 3, 2, 3 mod 2 under a cap of 2 images:
        # the first rank-2 block raises, before any rank-3 block is met.
        one, two, three = [[1]], [[1, 1], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        a = block_diagonal([one, two, three, two, three], q=2)
        monkeypatch.setattr(expansion, "_MAX_IMAGES", 2)
        got = outcome(xi_zq_global, a)
        assert got == outcome(by_blocks(_image_maximum), a)
        assert got == (EnumerationCapError, "image size q**2 exceeds enumeration cap 2")

    def test_candidate_cap_gives_the_same_lower_bound(self, monkeypatch):
        # Past the candidate cap the rank-2 blocks are sampled, inexact;
        # the rank-1 blocks stay exact.
        a = block_diagonal([[[1, 2]], [[1, 1, 0], [0, 1, 1]], [[1, 2]], [[1, 1, 0], [0, 1, 1]]])
        monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
        res = xi_q_global(a)
        assert res == by_blocks(_rational_global)(a)
        assert not res.exact


def test_modq_rank():
    assert modq_rank(ModQMatrix.from_rows([[1, 1], [1, 1]], 2)) == 1
    assert modq_rank(ModQMatrix.from_rows([[1, 2], [2, 1]], 3)) == 1
    assert modq_rank(ModQMatrix.from_rows([[1, 2], [2, 1]], 5)) == 2
    assert modq_rank(ModQMatrix.from_rows([[0, 0]], 2)) == 0


def nullspace_line_by_fractions(subset, r):
    """Reference for ``_nullspace_line``: Gauss-Jordan over Fraction."""
    rows, pivots = rref_by_fractions(subset, r)
    if len(pivots) != r - 1:
        return None
    free = next(c for c in range(r) if c not in pivots)
    y = [Fraction(0)] * r
    y[free] = Fraction(1)
    for row, c in zip(rows, pivots):
        y[c] = -row[free]
    return primitive_ray(integerize(y))


def modq_system_by_elimination(a):
    """Reference for ``_modq_system``: (pivot columns, kernel basis, row
    transform) by Gauss-Jordan over F_q with the row transform carried
    as extra columns."""
    q, m, n = a.q, a.rows, a.cols
    work, pivots = rref_mod_q(
        [list(a.row(i)) + [int(i == j) for j in range(m)] for i in range(m)], n, q
    )
    kernel = []
    for f in range(n):
        if f not in pivots:
            vec = [0] * n
            vec[f] = 1
            for row, c in zip(work, pivots):
                vec[c] = -row[f] % q
            kernel.append(tuple(vec))
    return tuple(pivots), tuple(kernel), tuple(tuple(row[n:]) for row in work)


@st.composite
def homogeneous_systems(draw):
    """(subset, r): r - 1 functionals on Q^r, sparse or dense, with some
    rows combinations of earlier ones so the rank is often short."""
    r = draw(st.integers(2, 7))
    entries = st.integers(-5, 5) | st.just(0)
    subset = []
    for _ in range(r - 1):
        if subset and draw(st.booleans()):
            a, b = draw(st.sampled_from(subset)), draw(st.sampled_from(subset))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            subset.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            subset.append(tuple(draw(st.lists(entries, min_size=r, max_size=r))))
    return subset, r


class TestNullspaceLine:
    """The fraction-free elimination against the Fraction reference."""

    @settings(max_examples=400, deadline=None)
    @given(homogeneous_systems())
    def test_matches_fraction_elimination(self, case):
        subset, r = case
        line = _nullspace_line(subset, r)
        assert line == nullspace_line_by_fractions(subset, r)
        if line is not None:
            assert all(sum(map(operator.mul, phi, line)) == 0 for phi in subset)


@st.composite
def modq_targets(draw):
    """(a, w): a matrix over F_q, q in {2, 3, 5, 7}, with 1-5 rows and
    ``q ** cols`` at most 2,401, and a nonzero target that is the image
    of a drawn vector or is drawn outright, so often outside the image
    when the rank is short."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    cols = draw(st.integers(1, max(c for c in range(1, 7) if q**c <= 2401)))
    rows = draw(st.integers(1, 5))
    entry = st.integers(0, q - 1) | st.just(0)
    a = ModQMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)),
        q,
    )
    if draw(st.booleans()):
        u = draw(st.lists(entry, min_size=cols, max_size=cols))
        w = tuple(x % q for x in mat_vec(a, u))
    else:
        w = tuple(draw(st.lists(entry, min_size=rows, max_size=rows)))
    assume(any(w))
    return a, w


class TestSparseModqSolve:
    """``xi_zq_at`` on the sparse plan of ``_modq_system`` against the
    dense row transform, ``conftest.modq_solve_dense``, with the coset
    searched by ``conftest.coset_by_recursion``."""

    @settings(max_examples=400, deadline=None)
    @given(modq_targets())
    @example((ModQMatrix.from_rows([[1], [1]], 2), (1, 0)))
    def test_matches_dense_solve(self, case):
        a, w = case
        pivots, kernel, trans = modq_system_by_elimination(a)
        u0 = modq_solve_dense(a, w, pivots, trans)
        if u0 is None:
            with pytest.raises(TargetNotInImageError, match="not in the image over F_q"):
                xi_zq_at(a, w)
            return
        witness, weight = coset_by_recursion(u0, kernel, a.q)
        res = xi_zq_at(a, w)
        assert res.witness == witness
        assert res.value == Fraction(weight, hamming_weight(w))


@st.composite
def modq_solve_cases(draw):
    """(a, w): a matrix over F_q, q in {2, 3, 5, 7}, with 0-4 rows and
    0-4 columns, and a target, zero ones included, that is the image of
    a drawn vector or is drawn outright."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(0, q - 1) | st.just(0)
    a = ModQMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)),
        q,
        cols=cols,
    )
    if draw(st.booleans()):
        u = draw(st.lists(entry, min_size=cols, max_size=cols))
        w = tuple(x % q for x in mat_vec(a, u))
    else:
        w = tuple(draw(st.lists(entry, min_size=rows, max_size=rows)))
    return a, w


class TestModqSolveKernel:
    """``expansion._modq_solve`` on the sparse plan against the dense
    row transform, ``conftest.modq_solve_dense``: the same solution,
    entry by entry and of type int, or the same refusal."""

    @settings(max_examples=400, deadline=None)
    @given(modq_solve_cases())
    # A consistency row refuses (1, 0) before any pivot is filled.
    @example((ModQMatrix.from_rows([[1], [1]], 2), (1, 0)))
    @example((ModQMatrix.from_rows([], 3, cols=2), ()))
    @example((ModQMatrix.from_rows([[], []], 5, cols=0), (0, 0)))
    @example((ModQMatrix.from_rows([[], []], 5, cols=0), (0, 4)))
    def test_matches_dense_solve(self, case):
        a, w = case
        pivots, _, trans = modq_system_by_elimination(a)
        want = modq_solve_dense(a, w, pivots, trans)
        _, pivots, _, plan = _modq_system(a)
        got = _modq_solve(a, w, pivots, plan)
        assert got == want
        if got is not None:
            assert all(type(x) is int for x in got)


class TestEliminationReadOffs:
    """``_modq_system`` reads the fraction-free elimination; the
    reference reads textbook Gauss-Jordan over F_q."""

    @settings(max_examples=300, deadline=None)
    @given(elimination_systems(fields=(2, 3, 5, 7), carried=st.just(0)))
    def test_modq_system_matches_field_elimination(self, case):
        rows, n, q = case
        a = ModQMatrix.from_rows(rows, q, cols=n)
        terms, pivots, kernel, plan = _modq_system(a)
        # The plan keeps the row transform and the kernel as sparse rows;
        # densified, they are the whole transform and the kernel basis.
        trans = tuple(
            tuple(dict(zip(cols, entries)).get(j, 0) for j in range(a.rows))
            for cols, entries in plan.solve + plan.consistency
        )
        assert (pivots, kernel, trans) == modq_system_by_elimination(a)
        assert len(plan.solve) == len(pivots)
        steps = tuple(
            tuple(dict(row).get(i, 0) for i in range(n)) for row in plan.steps
        )
        assert steps == kernel
        assert all(x for row in plan.steps for _, x in row)
        supports = disjoint_supports(kernel)
        if supports is None:
            assert terms is None
        else:
            assert [[i for i, _, _ in row] for row in terms] == [
                list(support) for support in supports
            ]
            for row, vec in zip(terms, kernel):
                for i, entry, shift in row:
                    assert entry == vec[i] and entry * shift % q == q - 1
