"""Graph and presentation codifferentials, component kernels, and the
cochain-complex container."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansion_lab.errors import (
    CochainConditionError,
    DimensionMismatchError,
    FormatError,
    PresentationSyntaxError,
    RowShapeError,
)
from expansion_lab.exactla import (
    IntMatrix,
    format_matrix,
    integer_kernel_basis,
    lattice_member,
    LatticeBasis,
    mat_vec,
    solve_rational,
)
from expansion_lab.expansion import xi_q_at, xi_q_global
from expansion_lab.complexes import (
    CochainComplex,
    Graph,
    GroupPresentation,
    NULL_EDGE,
    _tokenize,
    braid_presentation,
    check_incidence_rows,
    format_graph,
    graph_complex,
    graph_d0,
    graph_of_incidence,
    h1_is_trivial,
    incidence_kernel_basis,
    parse_graph,
    parse_presentation,
    presentation_complex,
    presentation_d1,
    presentation_text,
    steinberg_presentation,
)
from expansion_lab.harness import random_incidence_matrix
from expansion_lab.spanning import is_integrally_spanned

from conftest import (
    check_incidence_rows_by_entries,
    format_matrix_by_entries,
    outcome,
    presentation_d1_by_rows,
    repeated_row_matrices,
    tokenize_by_scan,
)

#: Every character ``str.isspace`` accepts (29 of them), the separator,
#: word pieces and a non-ASCII letter: the presentation tokenizer's
#: alphabet.
TOKEN_ALPHABET = [
    chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()
] + [";", "^-1", "a", "b", "Z", "_", "1", "é", "gens:", "rel:"]


def rand_graph(rng: random.Random, max_v: int = 6, max_e: int = 8) -> Graph:
    v = rng.randint(1, max_v)
    edges = []
    for _ in range(rng.randint(0, max_e)):
        roll = rng.random()
        if roll < 0.1:
            edges.append(NULL_EDGE)
        elif roll < 0.3:
            w = rng.randint(1, v)
            edges.append((w, w))
        else:
            edges.append((rng.randint(1, v), rng.randint(1, v)))
    return Graph(v, tuple(edges))


def rand_incidence(rng: random.Random, **kw) -> IntMatrix:
    """Random incidence-shaped matrix, including single -1 rows."""
    m = graph_d0(rand_graph(rng, **kw))
    rows = m.to_rows()
    for i in range(len(rows)):
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=m.cols)


class TestGraph:
    def test_path3_codifferential(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert graph_d0(g).to_rows() == [[1, -1, 0], [0, 1, -1]]

    def test_single_vertex_no_edges(self):
        d0 = graph_d0(Graph(1, ()))
        assert (d0.rows, d0.cols) == (0, 1)

    def test_loop_plus_edge(self):
        g = Graph(2, ((1, 1), (1, 2)))
        assert graph_d0(g).to_rows() == [[1, 0], [1, -1]]

    def test_null_edge_gives_zero_row(self):
        g = Graph(3, ((1, 2), NULL_EDGE))
        assert graph_d0(g).to_rows() == [[1, -1, 0], [0, 0, 0]]

    def test_endpoint_validation(self):
        with pytest.raises(DimensionMismatchError):
            Graph(2, ((1, 3),))
        with pytest.raises(DimensionMismatchError):
            Graph(2, ((0, 1),))


class TestGraphText:
    def test_parse_simple(self):
        g = parse_graph("3 2\n1 2\n2 3\n")
        assert g == Graph(3, ((1, 2), (2, 3)))

    def test_parse_self_and_comments(self):
        text = "# a graph\n2 2\n\nself 1\n1 2\n"
        assert parse_graph(text) == Graph(2, ((1, 1), (1, 2)))

    def test_format_roundtrip(self):
        g = Graph(4, ((1, 2), (2, 2), (3, 4)))
        assert parse_graph(format_graph(g)) == g

    def test_null_edges_and_loops_roundtrip(self):
        # A null edge is written as 0 0 and a loop as self v, and
        # parse_graph reads both back.
        cases = [
            (Graph(1, (NULL_EDGE,)), "1 1\n0 0\n"),
            (Graph(0, (NULL_EDGE, NULL_EDGE)), "0 2\n0 0\n0 0\n"),
            (Graph(3, ((2, 2), NULL_EDGE, (3, 1), (1, 1))),
             "3 4\nself 2\n0 0\n3 1\nself 1\n"),
        ]
        for g, text in cases:
            assert format_graph(g) == text
            assert parse_graph(format_graph(g)) == g

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_graph("")
        with pytest.raises(FormatError):
            parse_graph("3\n")
        with pytest.raises(FormatError):
            parse_graph("2 2\n1 2\n")
        with pytest.raises(FormatError):
            parse_graph("2 1\n1 2 3\n")
        with pytest.raises(FormatError):
            parse_graph("2 1\nself x\n")
        with pytest.raises(FormatError):
            parse_graph("2 1\n1 5\n")

    @pytest.mark.parametrize("vertex", [0, 3, -1])
    def test_self_vertex_outside_the_graph(self, vertex):
        # self 0 would otherwise read as the null edge (0, 0).
        with pytest.raises(FormatError, match="line 2: self vertex"):
            parse_graph(f"2 1\nself {vertex}\n")

    def test_zero_pair_is_the_null_edge(self):
        assert parse_graph("2 1\n0 0\n") == Graph(2, (NULL_EDGE,))


class TestIncidenceShape:
    def test_accepts_incidence_rows(self):
        check_incidence_rows(
            IntMatrix.from_rows([[1, -1, 0], [0, 0, 0], [0, -1, 0], [1, 0, 0]])
        )

    def test_rejects_large_entries(self):
        with pytest.raises(RowShapeError):
            check_incidence_rows(IntMatrix.from_rows([[2, 0]]))

    def test_rejects_two_plus_ones(self):
        with pytest.raises(RowShapeError):
            check_incidence_rows(IntMatrix.from_rows([[1, 1, -1]]))

    def test_rejects_two_minus_ones(self):
        with pytest.raises(RowShapeError):
            check_incidence_rows(IntMatrix.from_rows([[0, -1, -1]]))

    def test_graph_of_incidence_roundtrip(self):
        rng = random.Random(501)
        for _ in range(25):
            g = rand_graph(rng)
            a = graph_d0(g)
            assert graph_d0(graph_of_incidence(a)) == a

    @settings(max_examples=300, deadline=None)
    @given(repeated_row_matrices())
    def test_sparse_check_matches_entry_by_entry_oracle(self, a):
        # The check reads each row's nonzeros; the oracle reads every
        # entry.  Both accept, or both raise the same message.
        assert outcome(check_incidence_rows, a) == outcome(
            check_incidence_rows_by_entries, a
        )

    def test_first_bad_entry_in_column_order_is_named(self):
        a = IntMatrix.from_rows([[1, 0, -1], [0, 3, -2], [1, 1, 0]])
        with pytest.raises(RowShapeError, match="^row 2 has entry 3 outside"):
            check_incidence_rows(a)


class TestIncidenceKernel:
    def test_path3(self):
        basis = incidence_kernel_basis(IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]]))
        assert basis.basis_rows() == [(1, 1, 1)]

    def test_self_connected_component_dropped(self):
        basis = incidence_kernel_basis(IntMatrix.from_rows([[1, 0], [1, -1]]))
        assert basis.basis_rows() == []
        assert basis.rank == 0

    def test_zero_matrix_gives_standard_basis(self):
        basis = incidence_kernel_basis(IntMatrix.zeros(0, 4))
        assert basis.basis_rows() == [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ]

    def test_single_minus_one_marks_self_connection(self):
        basis = incidence_kernel_basis(IntMatrix.from_rows([[-1, 0]]))
        assert basis.basis_rows() == [(0, 1)]

    def test_shape_violation_rejected(self):
        with pytest.raises(RowShapeError):
            incidence_kernel_basis(IntMatrix.from_rows([[1, 1]]))

    def test_matches_elimination_kernel(self):
        rng = random.Random(502)
        for _ in range(40):
            a = rand_incidence(rng)
            inc = incidence_kernel_basis(a)
            ker = integer_kernel_basis(a)
            assert inc == ker
            for row in inc.basis_rows():
                assert lattice_member(ker, row)
            for row in ker.basis_rows():
                assert lattice_member(inc, row)

    def test_components_match_networkx(self):
        # One indicator row per connected component of the column graph
        # (a row with two nonzeros is an edge) that has no self-connected
        # vertex (a column with the only nonzero of some row).
        nx = pytest.importorskip("networkx")
        rng = random.Random(505)
        for max_edges in (8, 10):
            for _ in range(60):
                a = random_incidence_matrix(rng, max_edges=max_edges)
                g = nx.Graph()
                g.add_nodes_from(range(a.cols))
                self_connected = set()
                for i in range(a.rows):
                    support = [j for j, x in enumerate(a.row(i)) if x]
                    if len(support) == 2:
                        g.add_edge(*support)
                    else:
                        self_connected.update(support)
                expected = [
                    tuple(int(v in comp) for v in range(a.cols))
                    for comp in sorted(nx.connected_components(g), key=min)
                    if not comp & self_connected
                ]
                assert incidence_kernel_basis(a).basis_rows() == expected, a

    def test_kernel_and_image_integrally_spanned(self):
        rng = random.Random(503)
        for _ in range(30):
            a = rand_incidence(rng, max_v=5, max_e=6)
            kernel = integer_kernel_basis(a)
            if kernel.rank > 0:
                assert is_integrally_spanned(kernel.hnf).spanned
            image = LatticeBasis.from_generators(a.transpose())
            if image.rank > 0:
                assert is_integrally_spanned(image.hnf).spanned

    def test_fractional_parts_lie_in_kernel(self):
        rng = random.Random(504)
        for _ in range(25):
            a = rand_incidence(rng, max_v=5, max_e=6)
            z = [rng.randint(-3, 3) for _ in range(a.cols)]
            target = mat_vec(a, z)
            gamma = list(solve_rational(a, target))
            for row in integer_kernel_basis(a).basis_rows():
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                gamma = [g + c * x for g, x in zip(gamma, row)]
            assert all(x.denominator == 1 for x in mat_vec(a, gamma))
            fractional = [g - (g.numerator // g.denominator) for g in gamma]
            assert all(x == 0 for x in mat_vec(a, fractional))


class TestPresentationParsing:
    def test_commutator_example(self):
        p = parse_presentation("gens: a b; rel: a b a^-1 b^-1")
        assert p.generators == ("a", "b")
        assert len(p.relators) == 1
        assert len(p.relators[0]) == 4

    def test_braid_relator_example(self):
        p = parse_presentation("gens: s1 s2; rel: s1 s2 s1 s2^-1 s1^-1 s2^-1")
        assert presentation_d1(p).to_rows() == [[1, -1]]

    def test_empty_relator_clause(self):
        p = parse_presentation("gens: a; rel:")
        assert p.generators == ("a",)
        assert p.relators == ()

    def test_unknown_generator_position(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation("gens: a b;\nrel: a c")
        assert err.value.line == 2
        assert err.value.col == 8
        assert "unknown generator" in str(err.value)

    def test_malformed_exponent(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation("gens: a; rel: a^2")
        assert "exponent" in str(err.value)

    def test_missing_gens_clause(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("rel: a")

    def test_empty_generator_list(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: ; rel: a")

    def test_duplicate_generator(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: a a; rel:")

    def test_invalid_name(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: 1a; rel:")

    def test_empty_text(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("   \n ")

    @pytest.mark.parametrize(
        "generators, relators, message",
        [
            (("1a",), (), "invalid generator name"),
            (("a", "a"), (), "duplicate generator"),
            (("a", "b"), (((2, 1),),), "index 2 out of range"),
            (("a",), (((0, 2),),), "sign must be +1 or -1, got 2"),
        ],
        ids=["name", "duplicate", "index", "sign"],
    )
    def test_direct_construction_rejected(self, generators, relators, message):
        with pytest.raises(PresentationSyntaxError, match=re.escape(message)) as err:
            GroupPresentation(generators, relators)
        assert err.value.line is None and err.value.col is None
        assert "line" not in str(err.value)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=40).map("".join))
    def test_tokenizer_matches_character_scan(self, text):
        assert _tokenize(text) == tokenize_by_scan(text)

    def test_printer_roundtrip(self):
        texts = [
            "gens: a b; rel: a b a^-1 b^-1",
            "gens: s1 s2; rel: s1 s2 s1 s2^-1 s1^-1 s2^-1",
            "gens: x y z",
        ]
        for text in texts:
            p = parse_presentation(text)
            assert presentation_text(p) == text
            assert parse_presentation(presentation_text(p)) == p


class TestPresentationMatrices:
    def test_commutator_row_is_zero(self):
        p = parse_presentation("gens: a b; rel: a b a^-1 b^-1")
        assert presentation_d1(p).to_rows() == [[0, 0]]

    def test_steinberg_relator_row(self):
        p = parse_presentation(
            "gens: x1_2 x2_3 x1_3; rel: x1_2 x2_3 x1_2^-1 x2_3^-1 x1_3^-1"
        )
        assert presentation_d1(p).to_rows() == [[0, 0, -1]]

    def test_exponent_sums_accumulate(self):
        p = parse_presentation("gens: a b; rel: a a b^-1 a")
        assert presentation_d1(p).to_rows() == [[3, -1]]

    def test_all_commutator_presentation_gives_zero_matrix(self):
        p = parse_presentation(
            "gens: a b c; rel: a b a^-1 b^-1; rel: b c b^-1 c^-1"
        )
        assert presentation_d1(p).is_zero()


class TestBraidFamily:
    def test_minimum_n(self):
        with pytest.raises(DimensionMismatchError):
            braid_presentation(1)
        p = braid_presentation(2)
        assert p.generators == ("s1",)
        assert p.relators == ()

    def test_braid3(self):
        p = braid_presentation(3)
        assert len(p.generators) == 2
        assert len(p.relators) == 1
        assert presentation_d1(p).to_rows() == [[1, -1]]

    def test_braid4(self):
        p = braid_presentation(4)
        assert len(p.generators) == 3
        assert len(p.relators) == 3
        rows = presentation_d1(p).to_rows()
        assert rows == [[0, 0, 0], [1, -1, 0], [0, 1, -1]]

    def test_row_structure_general(self):
        for n in range(3, 8):
            p = braid_presentation(n)
            m = presentation_d1(p)
            check_incidence_rows(m)
            zero = sum(1 for i in range(m.rows) if not any(m.row(i)))
            assert zero == (n - 2) * (n - 3) // 2
            assert m.rows - zero == n - 2

    def test_row_negation_leaves_expansion_unchanged(self):
        a = presentation_d1(braid_presentation(4))
        flipped = IntMatrix.from_rows(
            [[-x for x in a.row(i)] if i % 2 else list(a.row(i)) for i in range(a.rows)]
        )
        assert xi_q_global(a).value == xi_q_global(flipped).value
        v = (0, 1, 1)
        v_flipped = tuple(-x if i % 2 else x for i, x in enumerate(v))
        assert xi_q_at(a, v).value == xi_q_at(flipped, v_flipped).value


class TestSteinbergFamily:
    def test_minimum_n(self):
        with pytest.raises(DimensionMismatchError):
            steinberg_presentation(1)
        p = steinberg_presentation(2)
        assert p.generators == ("x1_2", "x2_1")
        assert p.relators == ()

    def test_steinberg3_counts(self):
        p = steinberg_presentation(3)
        assert len(p.generators) == 6
        assert len(p.relators) == 12
        m = presentation_d1(p)
        zero = sum(1 for i in range(m.rows) if not any(m.row(i)))
        assert zero == 6

    def test_nonzero_rows_are_single_minus_one(self):
        for n in (3, 4):
            p = steinberg_presentation(n)
            m = presentation_d1(p)
            check_incidence_rows(m)
            per_generator = [0] * len(p.generators)
            for i in range(m.rows):
                row = m.row(i)
                if not any(row):
                    continue
                assert sorted(row) == [-1] + [0] * (len(row) - 1)
                per_generator[row.index(-1)] += 1
            assert all(c == n - 2 for c in per_generator)


class TestCochainComplex:
    def test_build_with_default_labels(self):
        c = graph_complex(Graph(3, ((1, 2), (2, 3))))
        assert c.vertex_labels == ("v1", "v2", "v3")
        assert c.edge_labels == ("e1", "e2")
        assert c.face_labels == ()

    def test_cochain_condition_enforced(self):
        with pytest.raises(CochainConditionError):
            CochainComplex.build(
                IntMatrix.from_rows([[1, -1]]), IntMatrix.from_rows([[1]])
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CochainComplex.build(IntMatrix.zeros(2, 2), IntMatrix.zeros(1, 3))

    def test_label_length_validated(self):
        with pytest.raises(DimensionMismatchError):
            CochainComplex.build(
                IntMatrix.zeros(1, 2),
                IntMatrix.zeros(0, 1),
                vertex_labels=("only-one",),
            )

    def test_presentation_complex_shape(self):
        p = braid_presentation(3)
        c = presentation_complex(p)
        assert (c.d0.rows, c.d0.cols) == (2, 1)
        assert c.d0.is_zero()
        assert c.edge_labels == ("s1", "s2")
        assert c.face_labels == ("r1",)

    def test_filled_triangle_satisfies_cochain_condition(self):
        d0 = IntMatrix.from_rows([[1, -1, 0], [1, 0, -1], [0, 1, -1]])
        d1 = IntMatrix.from_rows([[1, -1, 1]])
        c = CochainComplex.build(d0, d1)
        assert h1_is_trivial(c)


class TestH1:
    def test_single_edge_tree(self):
        assert h1_is_trivial(graph_complex(Graph(2, ((1, 2),))))

    def test_path3(self):
        assert h1_is_trivial(graph_complex(Graph(3, ((1, 2), (2, 3)))))

    def test_circle(self):
        circle = CochainComplex.build(IntMatrix.zeros(1, 1), IntMatrix.zeros(0, 1))
        assert not h1_is_trivial(circle)

    def test_disk_with_degenerate_attachment(self):
        disk = CochainComplex.build(IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1))
        assert not h1_is_trivial(disk)

    def test_graph_with_independent_cycle(self):
        square = Graph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
        assert not h1_is_trivial(graph_complex(square))


@st.composite
def presentations(draw):
    """Presentations on 0 to 5 generators whose relators are drawn from
    a small pool of words, so rows repeat; empty words give zero rows,
    and words may repeat or cancel a generator."""
    count = draw(st.integers(0, 5))
    names = tuple(f"g{i}" for i in range(count))
    letter = st.tuples(st.integers(0, count - 1), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=6).map(tuple) if count else st.just(())
    pool = draw(st.lists(word, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    return GroupPresentation(names, tuple(pool[i] for i in picks))


class TestPresentationMatrixOracles:
    """``presentation_d1`` fills one flat entry list and the report
    prints each distinct row once; the row-list construction, the dense
    text and the dense row-shape check are the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(presentations())
    def test_flat_fill_matches_row_lists(self, p):
        m = presentation_d1(p)
        assert type(m) is IntMatrix
        assert m == presentation_d1_by_rows(p)
        assert all(type(e) is int for e in m.entries)
        assert format_matrix(m) == format_matrix_by_entries(m)
        assert outcome(check_incidence_rows, m) == outcome(
            check_incidence_rows_by_entries, m
        )

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("build", [braid_presentation, steinberg_presentation])
    def test_families_match_oracles(self, build, n):
        p = build(n)
        m = presentation_d1(p)
        assert m == presentation_d1_by_rows(p)
        assert format_matrix(m) == format_matrix_by_entries(m)
        assert outcome(check_incidence_rows, m) == outcome(
            check_incidence_rows_by_entries, m
        ) == ("value", None)
