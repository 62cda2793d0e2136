import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expansion_lab import exactla, simplex
from expansion_lab.errors import DimensionMismatchError, EnumerationCapError
from expansion_lab.exactla import disjoint_supports
from expansion_lab.simplex import _relaxation, _simplex_min_l1, min_l1_combination

from conftest import (
    median_combination_by_fractions,
    simplex_by_fractions,
    weighted_median_by_fractions,
)

F = Fraction


def simplex_x(u, directions):
    """``_simplex_min_l1`` at a rational offset ``u``: on ``L u`` in
    integers its ``X / D`` is ``L x``."""
    scale = math.lcm(1, *(F(e).denominator for e in u))
    x, den = _simplex_min_l1([int(e * scale) for e in u], directions)
    return tuple(F(c, den * scale) for c in x)


def f_value(u, directions, x):
    n = len(u)
    total = F(0)
    for i in range(n):
        acc = F(u[i])
        for j, d in enumerate(directions):
            acc += x[j] * d[i]
        total += abs(acc)
    return total


class TestKnownMinima:
    def test_no_directions(self):
        x, w, value = min_l1_combination((3, -1), [])
        assert x == ()
        assert w == (3, -1)
        assert value == 4

    def test_balanced_pair(self):
        # |1+x| + |1-x| is 2 on the whole interval [-1, 1]
        x, w, value = min_l1_combination((1, 1), [(1, -1)])
        assert value == 2
        assert f_value((1, 1), [(1, -1)], x) == 2

    def test_fractional_optimum(self):
        # |5+2x| + |1+x| has its minimum 3/2 at x = -5/2
        x, w, value = min_l1_combination((5, 1), [(2, 1)])
        assert value == F(3, 2)
        assert x == (F(-5, 2),)
        assert w == (0, F(-3, 2))

    def test_target_in_span(self):
        x, w, value = min_l1_combination((1, 2, 3), [(1, 0, 1), (0, 1, 1)])
        assert value == 0
        assert w == (0, 0, 0)
        assert x == (-1, -2)

    def test_fraction_offsets(self):
        u = (F(1, 2), F(-1, 2))
        x, w, value = min_l1_combination(u, [(1, 1)])
        assert value == 1

    def test_zero_offset(self):
        x, w, value = min_l1_combination((0, 0, 0), [(1, 2, 3)])
        assert value == 0
        assert x == (0,)

    def test_empty_rows(self):
        x, w, value = min_l1_combination((), [])
        assert value == 0

    @pytest.mark.parametrize(
        "u, directions, expected",
        [
            ((3, -1), [], ((), (F(3), F(-1)), F(4))),
            ((F(1, 2), F(-3, 4)), [], ((), (F(1, 2), F(-3, 4)), F(5, 4))),
            ((), [], ((), (), F(0))),
            ((), [(), ()], ((F(0), F(0)), (), F(0))),
        ],
        ids=["no-directions", "fraction-offset", "empty-offset", "empty-directions"],
    )
    def test_nothing_to_move_is_pinned(self, u, directions, expected):
        # The weighted-median route answers these: x is all zeros, w is u
        # and every entry is a Fraction.
        result = min_l1_combination(u, directions)
        assert result == expected
        x, w, value = result
        assert all(type(e) is F for e in (*x, *w, value))


class TestRandomProperties:
    def test_exactness_and_bounds(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 5)
            k = rng.randint(0, 3)
            u = tuple(rng.randint(-6, 6) for _ in range(n))
            dirs = [
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)
            ]
            x, w, value = min_l1_combination(u, dirs)
            assert value == f_value(u, dirs, x)
            assert value >= 0
            assert value <= sum(abs(e) for e in u)
            assert w == tuple(
                F(u[i]) + sum(x[j] * dirs[j][i] for j in range(k))
                for i in range(n)
            )

    def test_beats_random_competitors(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 4)
            k = rng.randint(1, 3)
            u = tuple(rng.randint(-5, 5) for _ in range(n))
            dirs = [
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)
            ]
            _, _, value = min_l1_combination(u, dirs)
            for _atmpt in range(40):
                cand = tuple(
                    F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(k)
                )
                assert f_value(u, dirs, cand) >= value

    def test_degenerate_stacked_rows(self):
        # many identical rows force degenerate pivots; must terminate
        u = (1,) * 8
        dirs = [(1,) * 8, (2,) * 8]
        x, w, value = min_l1_combination(u, dirs)
        assert value == 0


@st.composite
def disjoint_instances(draw):
    """An offset u and 1-4 directions with pairwise disjoint supports;
    some coordinates lie in no support and some directions are zero.
    u is either integers (as branch and bound passes it) or Fractions
    (as ``xi_q_at`` passes a rational particular solution)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    entry = st.integers(-3, 3).filter(bool)
    dirs = [
        tuple(draw(entry) if owner[i] == j else 0 for i in range(n))
        for j in range(k)
    ]
    if draw(st.booleans()):
        u = tuple(draw(st.integers(-6, 6)) for _ in range(n))
    else:
        u = tuple(
            F(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
            for _ in range(n)
        )
    return u, dirs


class TestDisjointSupports:
    """The integer weighted-median route against its oracles: the same
    medians in Fractions, and the simplex."""

    @settings(max_examples=300, deadline=None)
    @given(disjoint_instances())
    # A tie at the median: breakpoints 0, 0, 1, 1 with unit weights.
    @example(((0, 0, -1, -1), [(1, 1, 1, 1)]))
    # Weight 2 against two unit weights, rational offsets, a zero
    # direction and a coordinate outside every support.
    @example(
        (
            (F(1, 2), F(-3, 2), F(5, 3), 4),
            [(2, 0, -1, 0), (0, 0, 0, 0), (0, 1, 0, 0)],
        )
    )
    def test_weighted_median_matches_simplex(self, instance):
        u, dirs = instance
        x, w, value = min_l1_combination(u, dirs)
        assert (x, w, value) == median_combination_by_fractions(u, dirs)
        assert all(type(e) is F for e in x + w + (value,))
        assert value == f_value(u, dirs, simplex_x(u, dirs))
        assert w == tuple(
            u[i] + sum(x[j] * d[i] for j, d in enumerate(dirs))
            for i in range(len(u))
        )
        assert value == f_value(u, dirs, x)

    def test_lower_weighted_median(self):
        # breakpoints 0 (weight 1), 1 (weight 1) and 2 (weight 2): the
        # minimizers are [1, 2] and the lower end is taken
        x, w, value = min_l1_combination((0, -1, -4), [(1, 1, 2)])
        assert x == (1,)
        assert value == 3

    def test_overlapping_supports_take_the_simplex(self):
        # coordinate 1 is in both supports; solving each direction on its
        # own would stop at value 2, the joint optimum is 0
        u, dirs = (F(-2), F(-1), F(1)), [(1, 1, 0), (0, 1, 1)]
        medians = tuple(
            weighted_median_by_fractions(u, d, [i for i in range(3) if d[i]])
            for d in dirs
        )
        assert f_value(u, dirs, medians) == 2
        x, w, value = min_l1_combination(u, dirs)
        assert x == simplex_x(u, dirs) == (2, -1)
        assert value == 0


@st.composite
def sparse_instances(draw, offsets=st.integers(-6, 6)):
    """An offset drawn from ``offsets`` (integers, as branch and bound
    passes it, by default) and 0-3 integer directions drawn sparse, so
    that their supports are sometimes disjoint (the median route) and
    sometimes overlap (the simplex)."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    dirs = [tuple(draw(entry) for _ in range(n)) for _ in range(k)]
    u = tuple(draw(offsets) for _ in range(n))
    return u, dirs


class TestRelaxation:
    """``_relaxation`` from scale 1, as branch and bound calls it, is
    ``min_l1_combination`` in scaled integers."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_instances())
    # A median between integers: |5 + 2x| + |1 + x| at x = -5/2.
    @example(((5, 1), [(2, 1)]))
    # Overlapping supports with an integral optimum.
    @example(((-2, -1, 1), [(1, 1, 0), (0, 1, 1)]))
    def test_matches_the_fraction_entry_point(self, instance):
        u, dirs = instance
        x, w, scale = _relaxation(list(u), 1, dirs, disjoint_supports(dirs))
        assert all(type(e) is int for e in (*x, *w, scale))
        assert scale >= 1
        fx, fw, fvalue = min_l1_combination(u, dirs)
        assert tuple(F(c, scale) for c in x) == fx
        assert tuple(F(e, scale) for e in w) == fw
        assert F(sum(map(abs, w)), scale) == fvalue
        assert (scale == 1) == all(c.denominator == 1 for c in fx)

    def test_fractional_median_rescales_earlier_coefficients(self):
        # The first direction's median is 2; the second's is -1/2, which
        # multiplies everything, the first coefficient included, by 2.
        dirs = ((1, 0, 0, 0), (0, 0, 2, 0))
        x, w, scale = _relaxation([-2, 0, 1, 0], 1, dirs, disjoint_supports(dirs))
        assert (x, w, scale) == ([4, -1], [0, 0, 0, 0], 2)


@settings(max_examples=200, deadline=None)
@given(sparse_instances(offsets=st.fractions(-6, 6, max_denominator=4)))
def test_rational_offsets_on_both_routes(instance):
    # A rational offset starts the scaled core above scale 1; the simplex
    # route must carry that scale into its coefficients.
    u, dirs = instance
    x, w, value = min_l1_combination(u, dirs)
    assert all(type(e) is F for e in (*x, *w, value))
    assert w == tuple(
        u[i] + sum(x[j] * d[i] for j, d in enumerate(dirs)) for i in range(len(u))
    )
    assert value == sum(map(abs, w))
    if disjoint_supports(dirs) is None:
        assert x == simplex_x(u, dirs)


@st.composite
def overlapping_instances(draw):
    """An integer offset and 2-4 directions whose supports overlap, the
    inputs the simplex route takes: n <= 8, entries in [-3, 3]."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 4))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    dirs = [draw(row) for _ in range(k)]
    assume(disjoint_supports(dirs) is None)
    return draw(st.tuples(*[st.integers(-6, 6)] * n)), dirs


class TestIntegerTableau:
    """The fraction-free tableau against ``simplex_by_fractions``."""

    @settings(max_examples=400, deadline=None)
    @given(overlapping_instances())
    # The root LP of xi_q_at on [[0, 2, 1, 2]] at (1,), which stalls
    # into Bland's rule under _STALL_LIMIT 0.
    @example(((0, 0, 1, 0), [(1, 0, 0, 0), (0, 1, 0, -1), (0, 0, 2, -1)]))
    # The root LP of [[2, -2, -1, 2, -1, 2, 0]] at 15, whose branch and
    # bound takes 604 relaxations.
    @example(
        (
            (0, 0, -15, 0, 0, 0, 0),
            [
                (1, 0, 0, 0, 0, -1, 0),
                (0, 1, 0, 0, 0, 1, 0),
                (0, 0, 1, 0, 1, 1, 0),
                (0, 0, 0, 1, 0, -1, 0),
                (0, 0, 0, 0, 2, 1, 0),
                (0, 0, 0, 0, 0, 0, 1),
            ],
        )
    )
    def test_matches_the_fraction_tableau(self, instance):
        u, dirs = instance
        divide, pivot = exactla._divide, simplex._pivot

        def exact_divide(row, s, q):
            # Floor division would truncate a remainder silently.
            assert q is not None or all(x % s == 0 for x in row), (row, s)
            return divide(row, s, q)

        def counted_pivot(*args):
            nonlocal pivots
            pivots += 1
            return pivot(*args)

        for limit in (30, 0):
            pivots = 0
            with (
                mock.patch.object(simplex, "_STALL_LIMIT", limit),
                mock.patch.object(exactla, "_divide", exact_divide),
                mock.patch.object(simplex, "_pivot", counted_pivot),
            ):
                x, den = _simplex_min_l1(u, dirs)
                expected, expected_pivots = simplex_by_fractions(u, dirs)
            assert all(type(e) is int for e in (*x, den)) and den > 0
            assert tuple(F(c, den) for c in x) == expected
            assert pivots == expected_pivots


class TestTypedErrors:
    """Both routes refuse the same malformed input with the same error."""

    ROUTES = pytest.mark.parametrize(
        "directions",
        [[(1, 0, 0), (0, 1, 1)], [(1, 1, 0), (0, 1, 1)]],
        ids=["median", "simplex"],
    )

    @ROUTES
    def test_float_offset(self, directions):
        with pytest.raises(DimensionMismatchError, match="integers or Fractions"):
            min_l1_combination((0.5, 1, 2), directions)

    @ROUTES
    def test_float_direction_entry(self, directions):
        directions = [directions[0], (0, 1.5, 1)]
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            min_l1_combination((1, 1, 2), directions)

    @ROUTES
    def test_direction_of_wrong_length(self, directions):
        directions = [directions[0], directions[1][:2]]
        with pytest.raises(DimensionMismatchError, match="direction length 2 != 3"):
            min_l1_combination((1, 1, 2), directions)


def test_pivot_cap_is_a_typed_cap_error(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    with pytest.raises(EnumerationCapError, match="pivot limit"):
        min_l1_combination((-2, -1, 1), [(1, 1, 0), (0, 1, 1)])
