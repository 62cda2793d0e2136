import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    det_by_permutations,
    elimination_systems,
    in_lattice_by_box,
    rand_matrix,
    rand_unimodular,
    rref_by_fractions,
    rref_mod_q,
)
from expansion_lab.errors import (
    DimensionMismatchError,
    FormatError,
    NotUnimodularError,
)
from expansion_lab.exactla import (
    IntMatrix,
    LatticeBasis,
    _reduced_echelon,
    _solve_upper,
    det,
    format_matrix,
    format_rational,
    format_vector,
    hnf,
    hnf_coordinates,
    hnf_pivots,
    integer_kernel_basis,
    integerize,
    l1_norm,
    lattice_member,
    mat_vec,
    parse_matrix,
    parse_rational,
    parse_vector,
    primitive_ray,
    rank,
    snf,
    solve_integer,
    solve_rational,
    unimodular_inverse,
    vec_mat,
)

M = IntMatrix.from_rows


def small_matrices():
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(M)
        )
    )


def assert_hnf_shape(h: IntMatrix):
    pivots = hnf_pivots(h)
    cols_seen = [c for _, c in pivots]
    assert cols_seen == sorted(cols_seen)
    last_pivot_row = -1
    for r, c in pivots:
        assert r == last_pivot_row + 1
        last_pivot_row = r
        assert h.at(r, c) > 0
        for i in range(r):
            assert 0 <= h.at(i, c) < h.at(r, c)
        for i in range(r + 1, h.rows):
            assert h.at(i, c) == 0
    for i in range(last_pivot_row + 1, h.rows):
        assert not any(h.row(i))


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            M([[1, 2], [3]])
        with pytest.raises(DimensionMismatchError):
            M([], cols=None)

    def test_empty_shapes(self):
        zero_rows = M([], cols=3)
        assert zero_rows.rows == 0 and zero_rows.cols == 3
        assert zero_rows.transpose().rows == 3

    def test_matmul(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert (a @ b) == M([[2, 1], [4, 3]])
        with pytest.raises(DimensionMismatchError):
            a @ M([[1, 2, 3]])

    def test_mat_vec_and_vec_mat(self):
        a = M([[1, 2], [3, 4]])
        assert mat_vec(a, (1, 1)) == (3, 7)
        assert vec_mat((1, 1), a) == (4, 6)
        with pytest.raises(DimensionMismatchError):
            mat_vec(a, (1, 1, 1))


class TestVectors:
    def test_l1_norm(self):
        assert l1_norm((1, -2, 3)) == 6
        assert l1_norm(()) == 0
        assert l1_norm((Fraction(1, 2), Fraction(-1, 3))) == Fraction(5, 6)

    def test_primitive_ray(self):
        assert primitive_ray((2, -4)) == (1, -2)
        assert primitive_ray((-2, 4)) == (1, -2)
        assert primitive_ray((0, 0)) == (0, 0)
        assert primitive_ray((0, -3, 6)) == (0, 1, -2)

    def test_integerize(self):
        assert integerize((Fraction(1, 2), Fraction(1, 3))) == (3, 2)


class TestHnf:
    def test_identity_fixed(self):
        h, u = hnf(IntMatrix.identity(2))
        assert h == IntMatrix.identity(2)
        assert u == IntMatrix.identity(2)

    def test_known_reduction(self):
        # Hand Euclid on rows (2,4),(1,1): gcd pivot 1, remainder row (0,2),
        # then the above-pivot entry 4 reduces to 1 mod 2.
        h, u = hnf(M([[2, 4], [1, 1]]))
        assert h == M([[1, 1], [0, 2]])
        assert u @ M([[2, 4], [1, 1]]) == h
        assert det(u) in (1, -1)

    def test_zero_matrix(self):
        h, u = hnf(IntMatrix.zeros(2, 3))
        assert h == IntMatrix.zeros(2, 3)
        assert u == IntMatrix.identity(2)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_hnf_properties(self, m):
        h, u = hnf(m)
        assert u @ m == h
        assert det(u) in (1, -1)
        assert_hnf_shape(h)

    def test_canonical_for_lattice(self):
        # Same row lattice, different generators: identical trimmed HNF.
        rng = random.Random(7)
        for _ in range(25):
            m = rand_matrix(rng)
            w = rand_unimodular(rng, m.rows)
            a = LatticeBasis.from_generators(m)
            b = LatticeBasis.from_generators(w @ m)
            assert a.hnf == b.hnf


class TestSnf:
    def test_already_diagonal(self):
        dec = snf(M([[3, 0], [0, 6]]))
        assert dec.d == M([[3, 0], [0, 6]])
        assert dec.u == IntMatrix.identity(2)
        assert dec.v == IntMatrix.identity(2)
        assert dec.invariant_factors() == (3, 6)

    def test_zero(self):
        dec = snf(IntMatrix.zeros(2, 2))
        assert dec.d == IntMatrix.zeros(2, 2)
        assert dec.invariant_factors() == ()

    def test_known_factors(self):
        dec = snf(M([[1, 1], [1, 3]]))
        assert dec.d == M([[1, 0], [0, 2]])
        assert dec.u @ M([[1, 1], [1, 3]]) @ dec.v == dec.d

    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_snf_properties(self, m):
        dec = snf(m)
        assert dec.u @ m @ dec.v == dec.d
        assert det(dec.u) in (1, -1)
        assert det(dec.v) in (1, -1)
        diag = []
        for i in range(dec.d.rows):
            for j in range(dec.d.cols):
                if i == j:
                    diag.append(dec.d.at(i, j))
                    assert dec.d.at(i, j) >= 0
                else:
                    assert dec.d.at(i, j) == 0
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0

    def test_matches_minor_gcds(self):
        # Independent oracle: the product of the first k invariant factors
        # is the gcd of all k x k minors.
        import itertools as it
        import math

        rng = random.Random(11)
        for _ in range(20):
            m = rand_matrix(rng, max_dim=3, lo=-4, hi=4)
            factors = snf(m).invariant_factors()
            for k in range(1, min(m.rows, m.cols) + 1):
                g = 0
                for rows_idx in it.combinations(range(m.rows), k):
                    for cols_idx in it.combinations(range(m.cols), k):
                        sub = M(
                            [[m.at(i, j) for j in cols_idx] for i in rows_idx]
                        )
                        g = math.gcd(g, det(sub))
                expected = 0
                if k <= len(factors):
                    expected = 1
                    for f in factors[:k]:
                        expected *= f
                assert g == expected


class TestReducedEchelon:
    """The fraction-free elimination core against textbook Gauss-Jordan
    over Fraction and over F_q."""

    @settings(max_examples=500, deadline=None)
    @given(elimination_systems())
    def test_matches_textbook_elimination(self, case):
        rows, ncols, q = case
        got, scales, pivots = _reduced_echelon(rows, ncols, q)
        assert all(type(x) is int for row in got for x in row)
        if q is None:
            reduced = [[Fraction(x, s) for x in row] for row, s in zip(got, scales)]
            assert (reduced, pivots) == rref_by_fractions(rows, ncols)
        else:
            reduced = [
                [x * pow(s, -1, q) % q for x in row] for row, s in zip(got, scales)
            ]
            assert (reduced, pivots) == rref_mod_q(rows, ncols, q)


class TestDetInverse:
    def test_det_small(self):
        assert det(M([[5]])) == 5
        assert det(M([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.zeros(3, 3)) == 0
        with pytest.raises(DimensionMismatchError):
            det(M([[1, 2]]))

    def test_det_matches_permutation_expansion(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            assert det(m) == det_by_permutations(m)

    def test_unimodular_inverse(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            u = rand_unimodular(rng, n)
            assert u @ unimodular_inverse(u) == IntMatrix.identity(n)
        with pytest.raises(NotUnimodularError):
            unimodular_inverse(M([[2]]))
        with pytest.raises(NotUnimodularError):
            unimodular_inverse(M([[1, 2]]))


class TestSolvers:
    def test_integer_solution_pinned(self):
        assert solve_integer(M([[1, 2]]), (1,)) == (1, 0)

    def test_integer_no_solution(self):
        assert solve_integer(M([[2]]), (1,)) is None

    def test_zero_target(self):
        assert solve_integer(M([[3, 1], [0, 2]]), (0, 0)) == (0, 0)

    def test_rational_solution_pinned(self):
        assert solve_rational(M([[1, -1]]), (3,)) == (Fraction(3), Fraction(0))

    def test_rational_vs_integer_gap(self):
        a = M([[2]])
        assert solve_integer(a, (1,)) is None
        assert solve_rational(a, (1,)) == (Fraction(1, 2),)

    def test_inconsistent(self):
        a = M([[1, 0], [1, 0]])
        assert solve_rational(a, (0, 1)) is None
        assert solve_integer(a, (0, 1)) is None

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            solve_integer(M([[1, 2]]), (1, 2))

    def test_random_roundtrip(self):
        rng = random.Random(13)
        for _ in range(60):
            a = rand_matrix(rng)
            x = [rng.randint(-3, 3) for _ in range(a.cols)]
            v = mat_vec(a, x)
            got = solve_integer(a, v)
            assert got is not None
            assert mat_vec(a, got) == v
            gotq = solve_rational(a, v)
            assert gotq is not None
            assert mat_vec(a, gotq) == v


def solve_by_substitution(a: IntMatrix, v, integral: bool):
    """The route the cached solve map replaces, kept as its oracle:
    forward substitution against hnf(A^T), free variables pinned to
    zero, then times the transform."""
    h, u = hnf(a.transpose())
    y = _solve_upper(h, hnf_pivots(h), tuple(v), integral)
    if y is None:
        return None
    x = vec_mat(y, u)
    return tuple(x) if integral else tuple(Fraction(e) for e in x)


@st.composite
def solve_cases(draw):
    """(A, v): A = L @ R for thin random factors, so it is often rank
    deficient, with 0..4 rows and columns (zero rows and zero columns
    included), and a target of one of four kinds."""
    entries = st.integers(-3, 3)

    def vectors(n):
        return st.lists(entries, min_size=n, max_size=n)

    rows, cols, inner = (draw(st.integers(0, 4)) for _ in range(3))
    left = draw(st.lists(vectors(inner), min_size=rows, max_size=rows))
    right = draw(st.lists(vectors(cols), min_size=inner, max_size=inner))
    product = [vec_mat(lrow, M(right, cols=cols)) for lrow in left]
    a = M(product, cols=cols)
    kind = draw(st.sampled_from(("image", "divided", "outside", "fraction")))
    if kind == "outside":
        return a, tuple(draw(vectors(rows)))
    x = draw(vectors(cols))
    v = mat_vec(a, x)
    if kind == "divided":
        # A x / g lies in the rational image; an integer preimage may not exist.
        g = draw(st.integers(2, 3))
        v = tuple(e // g for e in v) if all(e % g == 0 for e in v) else v
    elif kind == "fraction":
        den = draw(st.integers(2, 4))
        v = tuple(Fraction(e, den) for e in v)
    return a, v


class TestSolveMap:
    """solve_integer / solve_rational against forward substitution."""

    @settings(max_examples=400, deadline=None)
    @given(solve_cases())
    def test_matches_substitution(self, case):
        a, v = case
        got_q = solve_rational(a, v)
        assert got_q == solve_by_substitution(a, v, integral=False)
        if got_q is not None:
            assert mat_vec(a, got_q) == tuple(v)
        if all(Fraction(e).denominator == 1 for e in v):
            v = tuple(int(e) for e in v)
            got_z = solve_integer(a, v)
            assert got_z == solve_by_substitution(a, v, integral=True)
            if got_z is not None:
                assert all(type(e) is int for e in got_z)
                assert mat_vec(a, got_z) == v

    def test_rational_but_not_integer_preimage(self):
        # the image of [[2, 4], [0, 6]] has index 12: (2, 0) is reached only by
        # (1, 0), while (1, 3) needs (-1/2, 1/2)
        a = M([[2, 4], [0, 6]])
        assert solve_integer(a, (2, 0)) == (1, 0)
        assert solve_integer(a, (1, 3)) is None
        assert solve_rational(a, (1, 3)) == (Fraction(-1, 2), Fraction(1, 2))
        assert solve_rational(a, (1, 3)) == solve_by_substitution(a, (1, 3), False)

    def test_empty_shapes(self):
        assert solve_integer(M([], cols=3), ()) == (0, 0, 0)
        assert solve_rational(IntMatrix(2, 0, ()), (0, 0)) == ()
        assert solve_rational(IntMatrix(2, 0, ()), (0, 1)) is None


class TestKernel:
    def test_line_kernel_canonical(self):
        k = integer_kernel_basis(M([[1, 2]]))
        assert k.basis_rows() == [(2, -1)]
        assert k.rank == 1

    def test_injective(self):
        k = integer_kernel_basis(IntMatrix.identity(3))
        assert k.rank == 0
        assert k.ambient == 3

    def test_zero_map(self):
        k = integer_kernel_basis(IntMatrix.zeros(2, 3))
        assert k.hnf == IntMatrix.identity(3)

    def test_kernel_properties(self):
        rng = random.Random(17)
        for _ in range(40):
            a = rand_matrix(rng)
            k = integer_kernel_basis(a)
            for row in k.basis_rows():
                assert mat_vec(a, row) == (0,) * a.rows
            assert k.rank + rank(a) == a.cols

    def test_kernel_saturated(self):
        # Any integer vector killed by A must be an integer combination
        # of the returned basis (saturation), checked exhaustively.
        rng = random.Random(19)
        for _ in range(25):
            a = rand_matrix(rng, max_dim=3, lo=-3, hi=3)
            k = integer_kernel_basis(a)
            basis = LatticeBasis.from_generators(k.generators)
            import itertools as it

            for x in it.product(range(-2, 3), repeat=a.cols):
                if mat_vec(a, x) == (0,) * a.rows:
                    assert lattice_member(basis, x)


class TestLattice:
    def test_membership_even_lattice(self):
        basis = LatticeBasis.from_generators(M([[2, 0], [0, 2]]))
        assert lattice_member(basis, (2, -2))
        assert not lattice_member(basis, (1, 1))
        assert lattice_member(basis, (0, 0))

    def test_membership_matches_box_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
            basis = LatticeBasis.from_generators(m)
            import itertools as it

            for x in it.product(range(-2, 3), repeat=m.cols):
                got = lattice_member(basis, x)
                want = in_lattice_by_box(
                    [tuple(r) for r in m.to_rows()], x, radius=6
                )
                assert got == want, (m, x)

    def test_coordinates_roundtrip(self):
        basis = LatticeBasis.from_generators(M([[1, 1], [0, 3]]))
        y = hnf_coordinates(basis, (2, 5))
        assert y is not None
        assert vec_mat(y, basis.hnf) == (2, 5)
        assert hnf_coordinates(basis, (0, 1)) is None

    def test_dimension_check(self):
        basis = LatticeBasis.from_generators(M([[1, 0]]))
        with pytest.raises(DimensionMismatchError):
            lattice_member(basis, (1, 0, 0))


class TestTextFormats:
    def test_matrix_roundtrip(self):
        m = M([[1, -2, 3], [0, 4, -5]])
        assert parse_matrix(format_matrix(m)) == m

    def test_matrix_comments_and_blanks(self):
        text = "# codifferential\n\n2 2\n1 0\n\n0 1\n"
        assert parse_matrix(text) == IntMatrix.identity(2)

    def test_matrix_errors(self):
        with pytest.raises(FormatError):
            parse_matrix("")
        with pytest.raises(FormatError):
            parse_matrix("2\n1 2\n")
        with pytest.raises(FormatError):
            parse_matrix("1 2\n1\n")
        with pytest.raises(FormatError):
            parse_matrix("1 2\n1 x\n")
        with pytest.raises(FormatError):
            parse_matrix("2 2\n1 2\n")

    def test_vector_roundtrip(self):
        assert parse_vector(format_vector((3, -1, 0))) == (3, -1, 0)
        assert parse_vector("1 2\n3\n") == (1, 2, 3)
        with pytest.raises(FormatError):
            parse_vector("1 a")

    def test_rational_text(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(5)) == "5"
        with pytest.raises(FormatError):
            parse_rational("1/0")
        with pytest.raises(FormatError):
            parse_rational("pi")
