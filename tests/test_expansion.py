"""Per-target and global expansion constants over Q, Z, and prime fields.

Fixed small examples are hand-checked; the randomized parts compare the
simplex route against the face-enumeration oracle and against exhaustive
box searches, which are independent arithmetic.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    integer_kernel_basis,
    integerize,
    l1_norm,
    mat_vec,
    primitive_ray,
    solve_integer,
    solve_rational,
)
from expansion_lab.expansion import (
    ModQMatrix,
    _affine_solve,
    _enumerate_coset,
    _min_weight_in_coset,
    _modq_system,
    _nullspace_line,
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
    elimination_systems,
    min_l1_preimage_by_box,
    rand_matrix,
    rref_by_fractions,
    rref_mod_q,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


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


class TestFaceOracle:
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
        a = mat([[1, 1, 0], [0, 1, 1]])
        dec = minimization_faces(a, (1, 1))
        kernel = integer_kernel_basis(a).basis_rows()
        u0 = solve_rational(a, (1, 1))
        for face in dec.faces:
            w = list(u0)
            for j, x in enumerate(face.point):
                for i in range(a.cols):
                    w[i] += x * kernel[j][i]
            assert sum(abs(t) for t in w) == face.value
            for i in face.vanishing:
                assert w[i] == 0
            for direction in face.directions:
                shifted = list(w)
                for j, x in enumerate(direction):
                    for i in range(a.cols):
                        shifted[i] += Fraction(1, 7) * x * kernel[j][i]
                assert sum(abs(t) for t in shifted) == face.value

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

    def test_rank_cap(self):
        with pytest.raises(EnumerationCapError):
            minimization_faces(mat([[1, 2]]), (1,), max_kernel_rank=0)

    def test_term_cap(self):
        with pytest.raises(EnumerationCapError):
            minimization_faces(mat([[1, 2]]), (1,), max_terms=1)


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
        rng = random.Random(406)
        checked = 0
        for _ in range(40):
            a = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
            v = image_target(rng, a)
            if v is None:
                continue
            u0 = solve_integer(a, v)
            if u0 is None:
                continue
            radius = int(l1_norm(u0))
            if radius > 4 or a.cols > 3:
                continue
            expected = min_l1_preimage_by_box(a, v, radius)
            assert expected is not None
            res = xi_z_at(a, v)
            assert res.value == Fraction(expected[0], int(l1_norm(v)))
            assert mat_vec(a, res.witness) == tuple(v)
            assert l1_norm(res.witness) == res.value * l1_norm(v)
            checked += 1
        assert checked >= 15


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

    def test_candidate_cap_falls_back_to_sample(self):
        res = xi_q_global(IntMatrix.identity(2), max_candidates=0)
        assert not res.exact
        assert res.value >= Fraction(1, 2)

    def test_rank_one_image_needs_no_enumeration(self):
        # A line image has a single candidate ray, so the cap is moot.
        res = xi_q_global(mat([[1, -1]]), max_candidates=0)
        assert res.exact
        assert res.value == 1


class TestGlobalInteger:
    def test_spanned_routes_through_rational(self):
        a = mat([[1, 1]])
        res = xi_z_global(a)
        assert res.exact
        assert res.value == xi_q_global(a).value == 1

    def test_unspanned_gives_lower_bound(self):
        res = xi_z_global(mat([[1, 2]]))
        assert not res.exact
        assert res.value >= 1

    def test_lower_bound_is_attained_value(self):
        res = xi_z_global(mat([[1, 2]]))
        assert xi_z_at(mat([[1, 2]]), res.attaining_target).value == res.value

    def test_zero_image_undefined(self):
        with pytest.raises(UndefinedExpansionError):
            xi_z_global(IntMatrix.zeros(1, 3))


class TestModQMatrix:
    def test_entries_reduced(self):
        m = reduce_mod_q(mat([[-1, 3]]), 2)
        assert m.to_rows() == [[1, 1]]
        assert reduce_mod_q(mat([[-1, 3]]), 3).to_rows() == [[2, 0]]

    def test_composite_modulus_rejected(self):
        for q in (1, 4, 6, 9):
            with pytest.raises(NotPrimeError):
                ModQMatrix.from_rows([[1]], q)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ModQMatrix.from_rows([[1, 0], [1]], 2)

    def test_lift_section_roundtrip(self):
        rng = random.Random(409)
        for q in (2, 3, 5):
            for _ in range(10):
                u = tuple(rng.randrange(q) for _ in range(4))
                lifted = lift_section(u, q)
                assert lifted == u
                assert tuple(x % q for x in lifted) == u

    def test_lift_section_range_check(self):
        with pytest.raises(DimensionMismatchError):
            lift_section((3,), 3)
        with pytest.raises(DimensionMismatchError):
            lift_section((-1,), 2)


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

    def test_target_reduced_before_use(self):
        a = ModQMatrix.from_rows([[1, 1]], 2)
        res = xi_zq_at(a, (3,))
        assert res.target == (1,)
        assert res.value == 1

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            xi_zq_at(ModQMatrix.from_rows([[1, 1]], 2), (0,))
        with pytest.raises(ZeroTargetError):
            xi_zq_at(ModQMatrix.from_rows([[1, 1]], 2), (2,))

    def test_outside_image(self):
        a = ModQMatrix.from_rows([[1], [1]], 2)
        with pytest.raises(TargetNotInImageError):
            xi_zq_at(a, (1, 0))

    def test_coset_cap(self):
        a = ModQMatrix.from_rows([[1, 0, 0]], 2)
        with pytest.raises(EnumerationCapError):
            xi_zq_at(a, (1,), max_coset=3)

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

    def test_image_cap(self):
        a = ModQMatrix.from_rows([[1, 0], [0, 1]], 5)
        with pytest.raises(EnumerationCapError):
            xi_zq_global(a, max_images=10)

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
        assert _min_weight_in_coset(u0, kernel, q) == _enumerate_coset(
            u0, kernel, q
        )

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


def affine_solve_by_fractions(rows, rhs):
    """Reference for ``_affine_solve``: Gauss-Jordan over Fraction."""
    k = len(rows[0])
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


def modq_system_by_elimination(a):
    """Reference for ``_modq_system``: Gauss-Jordan over F_q with the
    row transform carried as extra columns."""
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
    return (
        tuple(tuple(row[:n]) for row in work),
        tuple(pivots),
        tuple(kernel),
        tuple(tuple(row[n:]) for row in work),
    )


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


class TestEliminationReadOffs:
    """``_affine_solve`` and ``_modq_system`` read the fraction-free
    elimination; the references read textbook Gauss-Jordan."""

    @settings(max_examples=300, deadline=None)
    @given(elimination_systems(fields=(None,), carried=st.just(1)))
    def test_affine_solve_matches_fraction_elimination(self, case):
        rows, k, _ = case
        assume(rows)
        coeffs, rhs = [row[:k] for row in rows], [row[k] for row in rows]
        solved = _affine_solve(coeffs, rhs)
        assert solved == affine_solve_by_fractions(coeffs, rhs)
        if solved is not None:
            # _interior_step divides with /, so an int here could let a
            # float into the face oracle
            point, basis = solved
            assert all(type(x) is Fraction for x in itertools.chain(point, *basis))

    @settings(max_examples=300, deadline=None)
    @given(elimination_systems(fields=(2, 3, 5, 7), carried=st.just(0)))
    def test_modq_system_matches_field_elimination(self, case):
        rows, n, q = case
        a = ModQMatrix.from_rows(rows, q, cols=n)
        assert _modq_system(a) == modq_system_by_elimination(a)
