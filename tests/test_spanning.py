import itertools
import math
import random

import pytest

from conftest import det_by_permutations, in_lattice_by_box, rand_matrix, rand_unimodular
from expansion_lab.errors import (
    AmbientDimensionCapError,
    DimensionMismatchError,
    NotUnimodularError,
)
from expansion_lab.exactla import IntMatrix, solve_rational
from expansion_lab.spanning import (
    CoordSubset,
    is_integrally_spanned,
    project,
    respan,
    saturated_for,
    subsets_in_order,
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


def spanned_by_minor_oracle(gens: IntMatrix) -> bool:
    n = gens.cols
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            rows = [[gens.at(i, j) for j in combo] for i in range(gens.rows)]
            if not minor_gcd_saturated(rows):
                return False
    return True


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

    def test_project(self):
        s = CoordSubset(4, (2, 4))
        assert project(s, (10, 20, 30, 40)) == (20, 40)
        with pytest.raises(DimensionMismatchError):
            project(s, (1, 2, 3))

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
        assert not saturated_for(gens, CoordSubset(2, (1,)))
        assert saturated_for(gens, CoordSubset(2, (2,)))
        assert saturated_for(gens, CoordSubset(2, (1, 2)))


class TestIsIntegrallySpanned:
    def test_flagship_failure(self):
        verdict = is_integrally_spanned(M([[1, 1], [1, 3]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (1, 2)
        assert witness == (1, 2)
        assert verdict.subsets_checked == 3

    def test_single_vector_projection_failure(self):
        verdict = is_integrally_spanned(M([[2, 1]]))
        assert not verdict.spanned
        subset, witness = verdict.witness
        assert subset.indices == (1,)
        assert witness == (1,)

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
            b = is_integrally_spanned(respan(gens, u))
            assert a.spanned == b.spanned

    def test_respan_rejects_non_unimodular(self):
        gens = M([[1, 0], [0, 1]])
        with pytest.raises(NotUnimodularError):
            respan(gens, M([[2, 0], [0, 1]]))
        with pytest.raises(NotUnimodularError):
            respan(gens, M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_ambient_cap(self):
        wide = M([[1] * 23])
        with pytest.raises(AmbientDimensionCapError):
            is_integrally_spanned(wide)
        gens = M([[1, 0, 1, 0]])
        with pytest.raises(AmbientDimensionCapError):
            is_integrally_spanned(gens, max_ambient=3)
        assert is_integrally_spanned(gens, max_ambient=4).spanned
