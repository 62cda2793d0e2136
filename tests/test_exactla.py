import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    det_by_permutations,
    elimination_systems,
    format_matrix_by_entries,
    hnf_by_inline_clearing,
    in_lattice_by_box,
    mat_vec_dense,
    rand_matrix,
    rand_unimodular,
    repeated_row_matrices,
    rref_by_fractions,
    rref_mod_q,
    snf_by_row_and_column_operations,
    solve_upper,
    vec_mat,
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
    _solve_map,
    det,
    format_matrix,
    format_rational,
    format_vector,
    hnf,
    hnf_pivots,
    integer_kernel_basis,
    integerize,
    l1_norm,
    lattice_member,
    mat_vec,
    parse_matrix,
    parse_vector,
    primitive_ray,
    rank,
    snf,
    solve_integer,
    solve_rational,
    unimodular_inverse,
)

M = IntMatrix.from_rows


@st.composite
def matrix_vector_pairs(draw):
    """(m, x): a matrix of 0..5 rows and 0..5 columns, some rows zero,
    and a vector of ints, of Fractions (integral ones included) or of
    both, as a tuple or a list."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.integers(-4, 4) | st.just(0)
    row = st.lists(entries, min_size=cols, max_size=cols)
    data = [[0] * cols if draw(st.booleans()) else draw(row) for _ in range(rows)]
    ints = st.integers(-5, 5)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kind = draw(st.sampled_from((ints, fractions, ints | fractions)))
    x = draw(st.lists(kind, min_size=cols, max_size=cols))
    return M(data, cols=cols), draw(st.sampled_from((tuple, list)))(x)


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


@st.composite
def matrices_with_zero_lines(draw):
    """Matrices up to 4x5, shapes with no rows or columns included, with
    a drawn set of rows and of columns set to zero."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    zero_rows = draw(st.sets(st.integers(0, 3)))
    zero_cols = draw(st.sets(st.integers(0, 4)))
    data = [
        [0 if i in zero_rows or j in zero_cols else draw(st.integers(-6, 6))
         for j in range(cols)]
        for i in range(rows)
    ]
    return M(data, cols=cols)


@st.composite
def unit_entry_matrices(draw):
    """{0, +-1} matrices up to 7x7, shapes with no rows or columns
    included: the spanning certificate's 5x5 projections and the subset
    scan's 7x1..7x3 ones are of this kind."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.lists(st.integers(-1, 1), min_size=cols, max_size=cols)
    return M(draw(st.lists(entries, min_size=rows, max_size=rows)), cols=cols)


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

    @pytest.mark.parametrize("entry", [2.5, "3", Fraction(3, 2)])
    def test_non_integer_entry_rejected(self, entry):
        # Refused, not truncated by int().
        with pytest.raises(DimensionMismatchError):
            M([[1, entry]])

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param([[1, entry]], id=str(entry))
            for entry in ["x", float("nan"), None, float("inf"), float("-inf")]
        ]
        + [
            pytest.param([5], id="row-not-iterable"),
            pytest.param([[1, 2], 3], id="second-row-not-iterable"),
            pytest.param(7, id="data-not-iterable"),
        ],
    )
    def test_unconvertible_entry_rejected(self, data):
        # int() or tuple() itself raises ValueError, TypeError or
        # OverflowError here.
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            M(data)

    def test_integral_entries_taken_at_their_value(self):
        m = M([[Fraction(2), True, -4]])
        assert m.entries == (2, 1, -4)
        assert all(type(x) is int for x in m.entries)

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

    def test_mat_vec(self):
        a = M([[1, 2], [3, 4]])
        assert mat_vec(a, (1, 1)) == (3, 7)
        with pytest.raises(DimensionMismatchError):
            mat_vec(a, (1, 1, 1))

    @settings(max_examples=300, deadline=None)
    @given(matrix_vector_pairs())
    @example((M([[0, 0], [1, 0]]), (1, Fraction(1, 2))))
    # The row's one nonzero meets an int, but its zero meets a Fraction.
    @example((M([[1, 0]]), (2, Fraction(1, 3))))
    @example((IntMatrix.zeros(2, 0), ()))
    @example((IntMatrix.zeros(0, 2), (Fraction(1, 2), 1)))
    def test_mat_vec_matches_dense_product(self, case):
        # values and types: a Fraction anywhere in x makes every entry a
        # Fraction, as 0 * x_j does in the dense sum
        m, x = case
        got, want = mat_vec(m, x), mat_vec_dense(m, x)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))

    def test_hash_is_cached_and_matches_equality(self):
        a = M([[1, 2, 0], [3, 4, 5]])
        b = IntMatrix(3, 2, (1, 3, 2, 4, 0, 5)).transpose()
        assert a == b and a is not b
        # computed on first use, not at construction
        assert "_hash" not in vars(a)
        assert hash(a) == hash(b) == hash((2, 3, (1, 2, 0, 3, 4, 5)))
        assert "_hash" in vars(a)
        assert repr(a) == "IntMatrix(rows=2, cols=3, entries=(1, 2, 0, 3, 4, 5))"
        assert M([[1, 2]]) != M([[2, 1]])
        hits = hnf.cache_info().hits
        assert hnf(b) is hnf(a)
        assert hnf.cache_info().hits >= hits + 1


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

    @settings(deadline=None)
    @given(matrices_with_zero_lines())
    @example(M([[2, 4, 6], [1, 3, 5], [0, 0, 0]]))
    def test_row_lattice_matches_sympy(self, m):
        # sympy's HNF is column-style with another normalization: for the
        # example it gives rows [4 2 0], [1 1 1] against [1 1 1], [0 2 4].
        # So compare lattices: the sympy rows lie in ours, the ranks agree
        # and so do the Gram determinants, which forces equal lattices.
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        theirs = normalforms.hermite_normal_form(
            sympy.Matrix(m.rows, m.cols, list(m.entries)).T
        ).T.tolist()
        ours = LatticeBasis.from_generators(m)
        assert len(theirs) == ours.rank
        pivots = hnf_pivots(ours.hnf)
        for row in theirs:
            assert solve_upper(ours.hnf, pivots, [int(x) for x in row], True) is not None

        def gram_det(rows):
            return det_by_permutations(M(
                [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows],
                cols=len(rows),
            ))

        assert gram_det(theirs) == gram_det(ours.basis_rows())

    def test_canonical_for_lattice(self):
        # Same row lattice, different generators: identical trimmed HNF.
        rng = random.Random(7)
        for _ in range(25):
            m = rand_matrix(rng)
            w = rand_unimodular(rng, m.rows)
            a = LatticeBasis.from_generators(m)
            b = LatticeBasis.from_generators(w @ m)
            assert a.hnf == b.hnf
            assert a == b


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

    @settings(max_examples=200, deadline=None)
    @given(matrices_with_zero_lines())
    def test_invariant_factors_match_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        d = normalforms.smith_normal_form(
            sympy.Matrix(m.rows, m.cols, list(m.entries)), domain=sympy.ZZ
        )
        diagonal = [abs(int(d[t, t])) for t in range(min(m.rows, m.cols))]
        assert snf(m).invariant_factors() == tuple(x for x in diagonal if x)

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


class TestClearColumn:
    """Both normal forms run one clearing step, ``_clear_column``; the
    inline loops it replaced are their oracles, entry for entry."""

    @settings(max_examples=800, deadline=None)
    @given(st.one_of(matrices_with_zero_lines(), unit_entry_matrices()))
    @example(IntMatrix.zeros(0, 3))
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.zeros(3, 4))
    @example(M([[4, 6, 10], [6, 9, 15], [10, 15, 7]]))
    # The first unit in row-major order comes after a larger entry.
    @example(M([[2, 1], [1, 3]]))
    # A unit pivot whose row is not clear after its column is.
    @example(M([[1, 2], [3, 4]]))
    # A non-unit pivot that needs the divisibility repair.
    @example(M([[2, 0], [0, 3]]))
    def test_forms_match_inline_oracles(self, m):
        assert hnf(m) == hnf_by_inline_clearing(m)
        assert snf(m) == snf_by_row_and_column_operations(m)


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4) | st.just(0), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ).map(lambda rows: IntMatrix.from_rows(rows, cols=len(rows)))
        )
    )
    # One swap flips the sign.
    @example(M([[0, 1], [1, 0]]))
    # Row 2 is zero in column 0, so it stays at scale 1 until a swap
    # brings it up to the pivot 2 in column 1: det -10.
    @example(M([[2, 1, 0], [4, 2, 1], [0, 5, 7]]))
    # Column 1 has no pivot once column 0 is cleared.
    @example(M([[1, 2, 3], [2, 4, 5], [3, 6, 1]]))
    def test_det_matches_permutation_expansion(self, m):
        # det is the last Bareiss pivot, signed by the row swaps.
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

    @pytest.mark.parametrize("entry", [0.5, 1.0, None], ids=["0.5", "1.0", "None"])
    def test_entry_without_denominator_rejected(self, entry):
        # Neither an int nor a Fraction: refused with the typed error,
        # not an AttributeError from reading its denominator.
        a = M([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatchError, match="integers or Fractions"):
            solve_rational(a, [entry, 1])
        with pytest.raises(DimensionMismatchError, match="integers or Fractions"):
            solve_integer(a, [1, entry])

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
    y = solve_upper(h, hnf_pivots(h), tuple(v), integral)
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
    # The check row 2 refuses (1, 2, 4) once rows 0 and 1 fix x.
    @example((M([[1, 0], [0, 1], [1, 1]]), (1, 2, 4)))
    @example((M([[1, 0], [0, 1], [1, 1]]), (Fraction(1, 2), 1, Fraction(3, 2))))
    @example((M([], cols=3), ()))
    @example((IntMatrix(2, 0, ()), (0, 1)))
    def test_matches_substitution(self, case):
        a, v = case
        got_q = solve_rational(a, v)
        assert got_q == solve_by_substitution(a, v, integral=False)
        if got_q is not None:
            assert all(type(e) is Fraction for e in got_q)
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

    def test_map_is_sparse_and_checks_only_rows_off_the_pivots(self):
        # hnf(A^T) is A^T itself, pivots on rows 0 and 1 of A, so the
        # solve fixes those rows and checks row 2 alone.
        a = M([[1, 0], [0, 1], [1, 1]])
        smap = _solve_map(a)
        assert smap.pivot_cols == (0, 1)
        assert smap.numerators == (((0, 1),), ((1, 1),))
        assert smap.denominator == 1
        assert smap.checks == ((2, (0, 1), (1, 1)),)
        assert solve_integer(a, (1, 2, 3)) == (1, 2)
        assert solve_integer(a, (1, 2, 4)) is None

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
            basis = LatticeBasis.from_generators(k.hnf)
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
        matrices = [IntMatrix.zeros(2, 3), M([], cols=2)]  # rank 0
        matrices += [rand_matrix(rng, max_dim=3, lo=-2, hi=2) for _ in range(25)]
        for m in matrices:
            basis = LatticeBasis.from_generators(m)
            import itertools as it

            for x in it.product(range(-2, 3), repeat=m.cols):
                got = lattice_member(basis, x)
                want = in_lattice_by_box(
                    [tuple(r) for r in m.to_rows()], x, radius=6
                )
                assert got == want, (m, x)

    def test_dimension_check(self):
        basis = LatticeBasis.from_generators(M([[1, 0]]))
        with pytest.raises(DimensionMismatchError):
            lattice_member(basis, (1, 0, 0))


class TestTextFormats:
    def test_matrix_roundtrip(self):
        m = M([[1, -2, 3], [0, 4, -5]])
        assert parse_matrix(format_matrix(m)) == m

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)])
    def test_empty_matrix_roundtrip(self, shape):
        # Rows with no columns are written as blank lines.
        m = IntMatrix.zeros(*shape)
        assert parse_matrix(format_matrix(m)) == m

    @settings(max_examples=200, deadline=None)
    @given(repeated_row_matrices())
    def test_matrix_text_matches_entry_by_entry_oracle(self, m):
        # Each distinct row's text is built once; repeated rows, zero
        # rows and rows with no columns must read as the oracle writes.
        text = format_matrix(m)
        assert text == format_matrix_by_entries(m)
        assert parse_matrix(text) == m

    @settings(max_examples=200, deadline=None)
    @given(repeated_row_matrices())
    def test_is_zero_matches_every_entry(self, m):
        assert m.is_zero() == all(e == 0 for e in m.entries)

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
        with pytest.raises(FormatError, match="expected 0 entries"):
            parse_matrix("2 0\n1\n1\n")

    def test_vector_roundtrip(self):
        assert parse_vector(format_vector((3, -1, 0))) == (3, -1, 0)
        assert parse_vector("1 2\n3\n") == (1, 2, 3)
        with pytest.raises(FormatError):
            parse_vector("1 a")

    def test_rational_text(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(5)) == "5"
