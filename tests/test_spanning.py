import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    affine_solve_by_fractions,
    det_by_permutations,
    in_lattice_by_box,
    rand_matrix,
    rand_unimodular,
    rank_sized_certificate_by_projections,
    snf_by_row_and_column_operations,
    spanning_by_full_scan,
    subsets_in_order,
    tableau_certificate_by_smith_forms,
    witness_step_by_smith_forms,
)
from expansion_lab import spanning
from expansion_lab.errors import (
    AmbientDimensionCapError,
    DimensionMismatchError,
    WitnessError,
)
from expansion_lab.exactla import IntMatrix, rank, snf, solve_rational
from expansion_lab.spanning import (
    CoordSubset,
    is_integrally_spanned,
    project_columns,
)

M = IntMatrix.from_rows


def minor_gcd_saturated(rows: list[list[int]]) -> bool:
    """Independent saturation oracle: gcd of the rank-sized minors is 1.

    The product of the invariant factors equals that gcd, and all of
    them are 1 exactly when the product is.
    """
    m = M(rows, cols=len(rows[0]) if rows else 0)
    best_rank = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = M([[m.at(i, j) for j in ci] for i in ri])
                if det_by_permutations(sub) != 0:
                    best_rank = k
                    break
            else:
                continue
            break
    if best_rank == 0:
        return True
    g = 0
    for ri in itertools.combinations(range(m.rows), best_rank):
        for ci in itertools.combinations(range(m.cols), best_rank):
            sub = M([[m.at(i, j) for j in ci] for i in ri])
            g = math.gcd(g, det_by_permutations(sub))
    return g == 1


def in_integer_span(rows: list[list[int]], x) -> bool:
    """Integer membership of ``x``, a vector in the rational span of
    ``rows``: adjoining it keeps the product of the nonzero invariant
    factors (the covolume) exactly when it is already a member."""
    def covolume(m):
        return math.prod(snf_by_row_and_column_operations(M(m)).invariant_factors())

    return covolume(rows) == covolume(rows + [list(x)])


def image_lattice(vertices: int) -> list[list[int]]:
    """The image lattice of K_vertices: one row per vertex but the last,
    +1 where an edge (a, b), a < b, leaves it and -1 where one enters."""
    edges = list(itertools.combinations(range(vertices), 2))
    return [[1 if a == v else -1 if b == v else 0 for a, b in edges]
            for v in range(vertices - 1)]


def cycle_lattice(length: int) -> IntMatrix:
    """Rows e_i + e_(i+1) around a cycle: an odd cycle has a pivot 2 in
    its HNF, while every proper projection is totally unimodular."""
    return M([[int(j in (i, (i + 1) % length)) for j in range(length)]
              for i in range(length)])


def assert_matches_oracles(gens: IntMatrix):
    """The verdict against the full subset scan and the certificate
    against every rank-sized projection; an unspanned verdict's witness
    re-checked by Fraction elimination and Smith covolumes, its subset
    no larger than the rank and saturated after any one drop."""
    verdict = is_integrally_spanned(gens)
    assert verdict.spanned == spanning_by_full_scan(gens).spanned
    failing = spanning._rank_sized_certificate(gens)
    assert (failing is None) == rank_sized_certificate_by_projections(gens)
    assert (failing is None) == verdict.spanned
    if verdict.spanned:
        return
    subset, witness = verdict.witness
    rows = [[gens.at(i, j - 1) for j in subset.indices] for i in range(gens.rows)]
    # in the rational span of the projected generators ...
    assert affine_solve_by_fractions(list(zip(*rows)), witness, gens.rows) is not None
    # ... but not in their integer span
    assert not in_integer_span(rows, witness)
    assert len(subset) <= rank(gens)
    assert verdict.subsets_checked <= len(failing) + 1
    if len(subset) > 1:
        for d in range(len(subset)):
            assert minor_gcd_saturated([row[:d] + row[d + 1:] for row in rows])


def spanned_by_minor_oracle(gens: IntMatrix) -> bool:
    n = gens.cols
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            rows = [[gens.at(i, j) for j in combo] for i in range(gens.rows)]
            if not minor_gcd_saturated(rows):
                return False
    return True


@st.composite
def generator_families(draw):
    """Up to five generators in Z^1..Z^6 with entries in -2..2: rows drawn
    from -1..1 or -2..2, zero rows, and dependent rows (a signed sum of
    two earlier rows, or a signed copy of one when the sum leaves -2..2)."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("unit", "wide", "zero", "dependent")))
        if kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.sampled_from((-1, 1))), draw(st.sampled_from((-1, 1)))
            row = [s * x + t * y for x, y in zip(a, b)]
            if any(abs(x) > 2 for x in row):
                row = [s * x for x in a]
        elif kind == "zero":
            row = [0] * n
        else:
            bound = 1 if kind == "unit" else 2
            row = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        rows.append(row)
    return M(rows, cols=n)


@st.composite
def signed_graph_families(draw):
    """Up to five generators in Z^1..Z^7 whose columns are mostly signed
    edges: a zero column, one +-1, or two +-1 entries of either sign;
    sometimes a same-sign triangle (an odd cycle, whose 3 x 3 minor is
    2) and sometimes a column that is not a signed edge (a +-2 entry,
    or three +-1 entries)."""
    r = draw(st.integers(1, 5))
    sign = st.sampled_from((-1, 1))
    columns = []
    if r >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(r)))[:3]
        s = draw(sign)
        for i, j in ((a, b), (b, c), (c, a)):
            columns.append({i: s, j: s})
    for _ in range(draw(st.integers(1 if not columns else 0, 7 - len(columns)))):
        kind = draw(st.sampled_from(("zero", "single", "edge", "edge", "wide")))
        if kind == "edge" and r >= 2:
            i, j = draw(st.permutations(range(r)))[:2]
            columns.append({i: draw(sign), j: draw(sign)})
        elif kind == "wide" and r >= 3 and draw(st.booleans()):
            columns.append({i: draw(sign) for i in range(3)})
        elif kind == "wide":
            columns.append({draw(st.integers(0, r - 1)): 2 * draw(sign)})
        elif kind != "zero":
            columns.append({draw(st.integers(0, r - 1)): draw(sign)})
        else:
            columns.append({})
    columns = draw(st.permutations(columns))
    return M([[col.get(i, 0) for col in columns] for i in range(r)], cols=len(columns))


@st.composite
def small_lattices(draw):
    """Up to four generators in Z^1..Z^8, entries in {0, +-1} or in -2..2."""
    n = draw(st.integers(1, 8))
    bound = draw(st.sampled_from((1, 2)))
    entries = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return M([draw(entries) for _ in range(draw(st.integers(1, 4)))], cols=n)


@st.composite
def tableau_lattices(draw):
    """[I | M] in Z^2..Z^8 of rank 1..4 with its columns shuffled, M in
    {0, +-1}, and sometimes a planted square of M that is not totally
    unimodular: [[1, 1], [1, -1]] (determinant -2) or the odd cycle
    (determinant 2), on random rows and columns of M."""
    k = draw(st.integers(1, 4))
    f = draw(st.integers(1, 8 - k))
    m = [draw(st.lists(st.integers(-1, 1), min_size=f, max_size=f)) for _ in range(k)]
    plant = draw(st.sampled_from(((), ((1, 1), (1, -1)), ((1, 1, 0), (0, 1, 1), (1, 0, 1)))))
    if len(plant) <= min(k, f):
        rows = draw(st.permutations(range(k)))[: len(plant)]
        cols = draw(st.permutations(range(f)))[: len(plant)]
        for r, planted_row in zip(rows, plant):
            for c, x in zip(cols, planted_row):
                m[r][c] = x
    order = draw(st.permutations(range(k + f)))
    full = [[int(i == j) for j in range(k)] + m[i] for i in range(k)]
    return M([[row[j] for j in order] for row in full], cols=k + f)


@st.composite
def projection_cases(draw):
    """A generator matrix up to 5x7, drawn rows set to zero and shapes
    with no rows included, and a coordinate subset of its columns."""
    n = draw(st.integers(1, 7))
    zero_rows = draw(st.sets(st.integers(0, 4)))
    data = [
        [0] * n if i in zero_rows
        else draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        for i in range(draw(st.integers(0, 5)))
    ]
    indices = draw(st.sets(st.integers(1, n), min_size=1))
    return M(data, cols=n), CoordSubset(n, tuple(sorted(indices)))


class TestProjectColumns:
    @settings(max_examples=300, deadline=None)
    @given(projection_cases())
    def test_matches_entrywise_oracle(self, case):
        gens, subset = case
        expected = M(
            [[gens.at(i, j - 1) for j in subset.indices] for i in range(gens.rows)],
            cols=len(subset),
        )
        assert project_columns(gens, subset) == expected

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project_columns(M([[1, 0, 1]]), CoordSubset(4, (1, 2)))
        with pytest.raises(DimensionMismatchError):
            project_columns(M([], cols=3), CoordSubset(2, (1,)))


class TestCoordSubset:
    def test_validation(self):
        CoordSubset(3, (1, 3))
        with pytest.raises(DimensionMismatchError):
            CoordSubset(3, ())
        with pytest.raises(DimensionMismatchError):
            CoordSubset(3, (2, 1))
        with pytest.raises(DimensionMismatchError):
            CoordSubset(3, (1, 1))
        with pytest.raises(DimensionMismatchError):
            CoordSubset(3, (0, 1))
        with pytest.raises(DimensionMismatchError):
            CoordSubset(3, (1, 4))

    def test_enumeration_order(self):
        got = [s.indices for s in subsets_in_order(3)]
        assert got == [
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 2, 3),
        ]


class TestSaturatedFor:
    def test_single_even_vector(self):
        gens = M([[2, 1]])

        def saturated(indices):
            projected = project_columns(gens, CoordSubset(2, indices))
            return all(f == 1 for f in snf(projected).invariant_factors())

        assert not saturated((1,))
        assert saturated((2,))
        assert saturated((1, 2))


class TestIsIntegrallySpanned:
    def test_flagship_failure(self):
        verdict = is_integrally_spanned(M([[1, 1], [1, 3]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (1, 2)
        assert witness == (1, 2)
        assert verdict.subsets_checked == 3

    def test_planted_triple_failure(self):
        # index 2 in Z^3, while every pair projection is all of Z^2
        verdict = is_integrally_spanned(M([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (1, 2, 3)
        assert witness == (0, 0, 1)
        assert verdict.subsets_checked == 4

    def test_tableau_minor_failure(self):
        # HNF [I | M] with M = [[1, 1], [1, -1]]: every entry is in
        # {0, +-1}, but the minor on columns 3 and 4 is -2
        verdict = is_integrally_spanned(M([[1, 0, 1, 1], [0, 1, 1, -1]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (3, 4)
        assert witness == (1, -2)
        assert verdict.subsets_checked == 3

    def test_single_vector_projection_failure(self):
        verdict = is_integrally_spanned(M([[2, 1]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (1,)
        assert witness == (1,)
        assert verdict.subsets_checked == 1

    def test_witness_subset_is_shrunk_from_the_certificate(self):
        # The pivot 2 names the pivot columns (1, 2, 3).  Dropping 1
        # leaves (2, 3) unsaturated, dropping 2 from it saturates it, and
        # dropping 3 leaves (2,), the only unsaturated subset: four
        # subsets decided, T and the three drops tried.
        verdict = is_integrally_spanned(M([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (2,)
        assert witness == (1,)
        assert verdict.subsets_checked == 4

    def test_single_vector_spanned_iff_small_entries(self):
        for vec in itertools.product(range(-3, 4), repeat=3):
            if not any(vec):
                continue
            verdict = is_integrally_spanned(M([list(vec)]))
            expected = all(abs(e) <= 1 for e in vec)
            assert verdict.spanned == expected, vec

    def test_pair_with_unit(self):
        for k in (-3, 0, 2, 5):
            verdict = is_integrally_spanned(M([[0, 1], [1, k]]))
            assert verdict.spanned, k
            assert verdict.subsets_checked == 3

    def test_disjoint_support_unit_rows(self):
        gens = M([[1, -1, 0, 0], [0, 0, 1, 1]])
        assert is_integrally_spanned(gens).spanned

    def test_zero_generators_short_circuit(self):
        verdict = is_integrally_spanned(IntMatrix.zeros(3, 30))
        assert verdict.spanned
        assert verdict.subsets_checked == 0
        verdict = is_integrally_spanned(M([], cols=40))
        assert verdict.spanned

    def test_matches_minor_oracle(self):
        rng = random.Random(29)
        agree_spanned = 0
        for _ in range(40):
            gens = rand_matrix(rng, max_dim=3, lo=-3, hi=3)
            verdict = is_integrally_spanned(gens)
            assert verdict.spanned == spanned_by_minor_oracle(gens), gens
            agree_spanned += verdict.spanned
        # the sample must exercise both outcomes
        assert 0 < agree_spanned < 40

    def test_witness_is_valid(self):
        rng = random.Random(31)
        seen = 0
        while seen < 25:
            gens = rand_matrix(rng, max_dim=3, lo=-4, hi=4)
            verdict = is_integrally_spanned(gens)
            if verdict.spanned:
                continue
            seen += 1
            subset, witness = verdict.witness
            projected_rows = [
                tuple(gens.at(i, j - 1) for j in subset.indices)
                for i in range(gens.rows)
            ]
            proj = M(projected_rows, cols=len(subset.indices))
            # in the rational span of the projected generators
            assert solve_rational(proj.transpose(), witness) is not None
            # but not in their integer span
            assert not in_lattice_by_box(projected_rows, witness, radius=8)

    def test_invariant_under_respan(self):
        rng = random.Random(37)
        for _ in range(30):
            gens = rand_matrix(rng, max_dim=3, lo=-3, hi=3)
            u = rand_unimodular(rng, gens.rows)
            a = is_integrally_spanned(gens)
            b = is_integrally_spanned(u @ gens)
            assert a.spanned == b.spanned

    def test_ambient_cap(self, monkeypatch):
        def no_snf(m):
            raise AssertionError("a Smith form ran past the cap")

        monkeypatch.setattr(spanning, "snf", no_snf)
        # [I | I] in Z^26 passes the HNF filter, but certifying it takes
        # C(26, 13) = 10,400,600 rank-sized minors: refused before the
        # first Smith form.  Its tableau I has only 2^13 - 1 squares
        # with no zero row or column; the price is C(n, k) all the same.
        identity = [[int(i == j) for j in range(13)] for i in range(13)]
        with pytest.raises(AmbientDimensionCapError, match="_MAX_SUBSETS"):
            is_integrally_spanned(M([row + row for row in identity]))
        # The certificate of [[1, 0, 1, 0]] is priced at C(4, 1) = 4
        # minors, although its tableau (0, 1, 0) takes one Smith form.
        gens = M([[1, 0, 1, 0]])
        monkeypatch.setattr(spanning, "_MAX_SUBSETS", 3)
        with pytest.raises(AmbientDimensionCapError):
            is_integrally_spanned(gens)
        monkeypatch.setattr(spanning, "snf", snf)
        monkeypatch.setattr(spanning, "_MAX_SUBSETS", 4)
        assert is_integrally_spanned(gens).spanned

    @settings(max_examples=300, deadline=None)
    @given(generator_families() | signed_graph_families())
    # The span-scan benchmark's shape: a rank-5 graph lattice in Z^11.
    @example(M([
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
        [-1, 0, 1, 0, 0, 1, -1, 0, 0, -1, 0],
        [0, 0, 0, -1, -1, 0, 1, 0, -1, 0, 1],
        [0, -1, 0, 0, 1, -1, 0, -1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0, 0, 1, 0, 0],
    ]))
    @example(cycle_lattice(7))
    def test_matches_full_scan(self, gens):
        assert_matches_oracles(gens)

    @settings(max_examples=300, deadline=None)
    @given(small_lattices() | tableau_lattices())
    @example(M([[1, 0, 1, 1], [0, 1, 1, -1]]))
    @example(M([[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]]))
    def test_certificate_matches_projections(self, gens):
        assert_matches_oracles(gens)

    @settings(max_examples=300, deadline=None)
    @given(small_lattices() | tableau_lattices())
    # the odd cycle in the tableau: every 2 x 2 passes, the 3 x 3 is 2
    @example(M([[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]]))
    # the 2 x 2 tableau square of determinant -2
    @example(M([[1, 0, 1, 1], [0, 1, 1, -1]]))
    # K5, spanned: every square of its 4 x 6 tableau is in {0, +-1}
    @example(M(image_lattice(5)))
    # two failing 2 x 2 squares, on tableau rows (1, 2) and (2, 3): the
    # first by rows names T
    @example(M([[1, 0, 0, 1, 1, 0, 0], [0, 1, 0, 1, -1, 1, 1], [0, 0, 1, 0, 0, 1, -1]]))
    def test_certificate_matches_smith_forms(self, gens):
        # The minor table names the same columns T as a Smith form of
        # each tableau square, not only the same verdict.
        assert spanning._rank_sized_certificate(gens) == tableau_certificate_by_smith_forms(gens)

    @pytest.mark.parametrize(
        "rows, calls, spanned, checked",
        [
            # K5 image lattice: rank 4 at ambient 10, a 4 x 6 tableau
            # (the incidence matrix of K4) standing in for the C(10, 4) =
            # 210 projections.  Only its 12 nonzero entries take a Smith
            # form (a 1 x 1 each); the larger squares are decided by the
            # minor table, with no Smith form.
            (image_lattice(5), 12, True, 2**10 - 1),
            # ambient 30, past a full scan's reach: the 1 x 29 tableau
            # of ones takes 29 1 x 1 forms
            ([[1] * 30], 29, True, 2**30 - 1),
            # HNF [[1, 1], [0, 2]]: the pivot 2 names (1, 2) before any
            # Smith form; the witness step takes the Smith form of (1, 2)
            # and decides its two drops from it, keeping neither
            ([[1, 1], [1, 3]], 1, False, 3),
            # the planted triple: its pivot 2 names (1, 2, 3), and the
            # witness step takes its Smith form and decides its three
            # drops from it, keeping none
            ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 1, False, 4),
            # tableau [[1, 1], [1, -1]]: four 1 x 1 forms pass, and the
            # minor table finds the 2 x 2 determinant -2, which names
            # (3, 4) with no Smith form; the witness step takes the Smith
            # form of (3, 4) and decides its two drops from it, keeping
            # neither, with witness (1, -2)
            ([[1, 0, 1, 1], [0, 1, 1, -1]], 5, False, 3),
            # the 23-cycle e_i + e_(i+1): its pivot 2 names all 23 columns
            # before any Smith form or price, where a scan would pass
            # _MAX_SUBSETS; the witness step takes their Smith form and
            # decides 23 drops from it, keeping none
            (cycle_lattice(23).to_rows(), 1, False, 24),
            # K8 image lattice: rank 7 at ambient 28, a 7 x 21 tableau (the
            # incidence matrix of K7).  Its Smith forms are its 42 nonzero
            # tableau entries, so no square of size >= 2 takes one.
            (image_lattice(8), 42, True, 2**28 - 1),
        ],
    )
    def test_smith_forms_computed(self, monkeypatch, rows, calls, spanned, checked):
        counted = []

        def counting_snf(m):
            counted.append(m)
            return snf(m)

        monkeypatch.setattr(spanning, "snf", counting_snf)
        gens = M(rows)
        verdict = is_integrally_spanned(gens)
        assert verdict.spanned == spanned
        assert len(counted) == calls
        assert verdict.subsets_checked == checked

    @settings(max_examples=300, deadline=None)
    @given(small_lattices() | tableau_lattices())
    # G = Z^T / L_T is not cyclic: Z/2 + Z/2 and Z/2 + Z/4
    @example(M([[2, 0], [0, 2]]))
    @example(M([[2, 0], [0, 4]]))
    # the planted triple: G = Z/2, and no drop is kept
    @example(M([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    # dropping 1 saturates the projection and is refused; dropping 2
    # then leaves (1,), unsaturated, and is kept
    @example(M([[2, 0], [0, 1]]))
    def test_witness_step_matches_smith_form_per_drop(self, gens):
        # The drops decided from the Smith form of T keep the same
        # subset, give the same witness and count the same subsets as a
        # Smith form of each projection tried.
        assert is_integrally_spanned(gens) == witness_step_by_smith_forms(gens)

    def test_certificate_contradicted_by_scan_is_an_error(self, monkeypatch):
        # a certificate naming columns (1, 2), whose projection is the
        # identity and so saturated, is contradicted by its Smith form
        monkeypatch.setattr(spanning, "_rank_sized_certificate", lambda gens: (0, 1))
        with pytest.raises(WitnessError, match="saturated"):
            is_integrally_spanned(M([[1, 0, 1], [0, 1, -1]]))
