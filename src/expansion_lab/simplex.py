"""Exact L1 minimization over an affine subspace.

The one entry point minimizes ``|u + x_1 d_1 + ... + x_k d_k|_1`` over
rational x, the classic least-absolute-deviations program.

When the directions have pairwise disjoint supports (every coordinate
is moved by at most one of them, as for the component indicators that
span the kernel of a graph incidence matrix), the program splits into
k one-dimensional problems ``min_x sum_i |u_i + x d_i|`` over the
support of each d.  Each is minimized by a weighted median of the
breakpoints ``-u_i / d_i`` with weights ``|d_i|`` (Barrodale & Roberts
1973); the lower weighted median is taken.  The supports, and whether
they are disjoint, are decided once per kernel (``_supports``, cached on
the directions), not on every call.  This route works in integers: the
denominators of u are cleared once, to ``U = L u``, so a unit entry
``d_i = +-1`` has the integer breakpoint ``-U_i d_i`` (in units of 1/L)
and only entries with ``|d_i| > 1`` need a Fraction.  The residual
``L w`` is updated on each support alone, and the results are divided
by L once, at the end; when L is 1 there is nothing to divide, and each
Fraction is built from its integer without a gcd.

Otherwise the general path is a simplex on the LP: with residual
r = u + D x split as r = rp - rm and x = xp - xm,

    minimize  1 . (rp + rm)
    subject   rp - rm - D xp + D xm = u,   rp, rm, xp, xm >= 0.

Setting x = 0, rp = max(u, 0), rm = max(-u, 0) is already a basic
feasible solution, so no phase-1 is needed: rows with negative right
hand side are negated to put the matching rm variable in the basis.
The entering rule is largest reduced cost, switching permanently to
Bland's smallest-index rule when the objective stalls, which rules out
cycling.  The simplex works in fractions.Fraction and also serves the
tests as an oracle for the weighted-median route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import EnumerationCapError, UnboundedLPError
from .exactla import disjoint_supports

_STALL_LIMIT = 30
_MAX_PIVOTS = 20000


def min_l1_combination(
    u: Sequence, directions: Sequence[Sequence]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction]:
    """Minimize the L1 norm of u plus a rational combination of directions.

    Returns ``(x, w, value)`` with ``w = u + sum x_j d_j`` evaluated
    exactly and ``value = |w|_1``. With no directions this is just
    ``((), u, |u|_1)``.  Directions with pairwise disjoint supports are
    solved by one weighted median each, any others by the simplex.
    """
    n = len(u)
    k = len(directions)
    for d in directions:
        if len(d) != n:
            raise ValueError(f"direction length {len(d)} != {n}")
    supports = _supports(tuple(map(tuple, directions)))
    if supports is not None:
        return _median_combination(u, directions, supports)
    u = tuple(Fraction(e) for e in u)
    x = _simplex_min_l1(u, directions)
    w = tuple(
        u[i] + sum(x[j] * Fraction(directions[j][i]) for j in range(k))
        for i in range(n)
    )
    value = Fraction(sum(abs(e) for e in w))
    return x, w, value


@lru_cache(maxsize=512)
def _supports(directions):
    """``disjoint_supports(directions)`` for a tuple of tuples, decided
    once per kernel: the per-target solvers pass the same cached kernel
    rows on every call."""
    return disjoint_supports(directions)


def _median_combination(u, directions, supports):
    """``min_l1_combination`` for directions with pairwise disjoint
    ``supports``: one lower weighted median per direction, in integers
    scaled by the common denominator of ``u`` (integers or Fractions).
    An empty support gives the coefficient 0."""
    scale = math.lcm(*(e.denominator for e in u))
    scaled = [e.numerator * (scale // e.denominator) for e in u]
    x = []
    for d, support in zip(directions, supports):
        points = []
        total = 0
        for i in support:
            di = d[i]
            if di == 1 or di == -1:
                points.append((-scaled[i] * di, 1))
            else:
                points.append((Fraction(-scaled[i], di), abs(di)))
            total += abs(di)
        points.sort(key=itemgetter(0))
        median = 0
        running = 0
        for point, weight in points:
            running += weight
            if 2 * running >= total:
                median = point
                break
        if median:
            for i in support:
                scaled[i] += median * d[i]
        x.append(median)
    if scale == 1:
        # Nothing to divide out: Fraction(e) skips the gcd.
        return (
            tuple(map(Fraction, x)),
            tuple(map(Fraction, scaled)),
            Fraction(sum(map(abs, scaled))),
        )
    w = tuple(Fraction(e, scale) for e in scaled)
    value = Fraction(sum(map(abs, scaled)), scale)
    return tuple(Fraction(e, scale) for e in x), w, value


def _simplex_min_l1(u, directions) -> tuple[Fraction, ...]:
    """Optimal ``x`` by the tableau simplex, for any directions.

    ``u`` is a tuple of Fractions and there is at least one direction
    and one coordinate.  Raises ``EnumerationCapError`` past
    ``_MAX_PIVOTS`` pivots.
    """
    n = len(u)
    k = len(directions)
    zero = Fraction(0)
    one = Fraction(1)
    width = 2 * n + 2 * k + 1  # rp, rm, xp, xm, rhs
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(n):
        row = [zero] * width
        row[i] = one
        row[n + i] = -one
        for j, d in enumerate(directions):
            coeff = Fraction(d[i])
            row[2 * n + j] = -coeff
            row[2 * n + k + j] = coeff
        row[-1] = u[i]
        if u[i] < 0:
            row = [-e for e in row]
            basis.append(n + i)
        else:
            basis.append(i)
        rows.append(row)

    # Reduced costs z_j - c_j; every starting basic variable has cost 1.
    cost = [one] * (2 * n) + [zero] * (2 * k) + [zero]
    obj = [zero] * width
    for j in range(width):
        obj[j] = sum(rows[i][j] for i in range(n)) - cost[j]

    pivots = 0
    stall = 0
    last_objective = obj[-1]
    use_bland = False
    while True:
        entering = None
        if use_bland:
            for j in range(width - 1):
                if obj[j] > 0:
                    entering = j
                    break
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
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [e - factor * p for e, p in zip(obj, rows[leaving])]
        basis[leaving] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise EnumerationCapError(
                f"simplex pivot limit {_MAX_PIVOTS} exceeded"
            )
        if obj[-1] == last_objective:
            stall += 1
            if stall > _STALL_LIMIT:
                use_bland = True
        else:
            stall = 0
            last_objective = obj[-1]

    values = {var: rows[i][-1] for i, var in enumerate(basis)}
    return tuple(
        values.get(2 * n + j, zero) - values.get(2 * n + k + j, zero)
        for j in range(k)
    )
