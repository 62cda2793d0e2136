"""Exact L1 minimization over an affine subspace.

The public entry point minimizes ``|u + x_1 d_1 + ... + x_k d_k|_1``
over rational x, the classic least-absolute-deviations program, for a
rational offset u and integer directions d_j.

When the directions have pairwise disjoint supports (every coordinate
is moved by at most one of them, as for the component indicators that
span the kernel of a graph incidence matrix), the program splits into
k one-dimensional problems ``min_x sum_i |u_i + x d_i|`` over the
support of each d.  Each is minimized by a weighted median of the
breakpoints ``-u_i / d_i`` with weights ``|d_i|`` (Barrodale & Roberts
1973); the lower weighted median is taken.  The callers decide whether
the supports are disjoint, so this layer keeps no cache: once per call
(``min_l1_combination``) or once per kernel suffix
(``expansion._kernel_info``).  The medians run in one
scaled-integer core, ``_median_core``: the denominators of u are
cleared once, to ``U = L u``, so a unit entry ``d_i = +-1`` has the
integer breakpoint ``-U_i d_i`` (in units of 1/L) and only entries with
``|d_i| > 1`` need a Fraction to be sorted.  A median that falls
between integers multiplies L, U and the earlier coefficients by its
denominator, so the coefficients ``L x`` and the residual ``L w`` stay
integers, updated on each support alone.

Otherwise the general path is a simplex on the LP: with residual
r = u + D x split as r = rp - rm and x = xp - xm,

    minimize  1 . (rp + rm)
    subject   rp - rm - D xp + D xm = u,   rp, rm, xp, xm >= 0.

Setting x = 0, rp = max(u, 0), rm = max(-u, 0) is already a basic
feasible solution, so no phase-1 is needed: rows with negative right
hand side are negated to put the matching rm variable in the basis.
The entering rule is largest reduced cost, switching permanently to
Bland's smallest-index rule when the objective stalls, which rules out
cycling.  The tableau is in integers, pivoted by the Bareiss step
``exactla._pivot``, and x comes back as ``(X, D)``.  It also serves the
tests as an oracle for the weighted-median route.

Both routes answer through ``_relaxation`` as ``(L x, L w, L)`` in
integers; the simplex route reduces ``(X, D)`` by one gcd.
``min_l1_combination`` divides by L into Fractions, once.  Branch and
bound calls ``_relaxation`` directly on its integer offsets (L starts at
1): L stays 1 exactly when the relaxation is integral, and then no
Fraction is built on either route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import DimensionMismatchError, EnumerationCapError, UnboundedLPError
from .exactla import _INT, _pivot, disjoint_supports

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
    Entries of ``u`` are ints or Fractions and entries of the directions
    are ints; any other entry (``0.5``), or a direction whose length is
    not ``len(u)``, raises ``DimensionMismatchError`` on either route.
    """
    n = len(u)
    try:
        scale = math.lcm(1, *(e.denominator for e in u))
    except AttributeError as exc:
        raise DimensionMismatchError(
            f"offset entries must be integers or Fractions: {exc}"
        ) from exc
    for d in directions:
        if len(d) != n:
            raise DimensionMismatchError(f"direction length {len(d)} != {n}")
        if not _INT.issuperset(map(type, d)):
            raise DimensionMismatchError(
                f"direction entries must be integers, got {tuple(d)!r}"
            )
    scaled = [e.numerator * (scale // e.denominator) for e in u]
    supports = disjoint_supports(directions)
    x, w, scale = _relaxation(scaled, scale, directions, supports)
    if scale == 1:
        # Nothing to divide out: Fraction(e) skips the gcd.
        return (
            tuple(map(Fraction, x)),
            tuple(map(Fraction, w)),
            Fraction(sum(map(abs, w))),
        )
    return (
        tuple(Fraction(e, scale) for e in x),
        tuple(Fraction(e, scale) for e in w),
        Fraction(sum(map(abs, w)), scale),
    )


def _relaxation(scaled, scale, directions, supports):
    """The optimum of ``min_l1_combination`` in scaled integers, for the
    offset ``scaled / scale`` (``scaled`` a list of ints, which the
    median route updates in place), integer directions and their
    ``disjoint_supports`` (None takes the simplex): ``(x, w, scale)``,
    with ``x / scale`` the coefficients and ``w / scale`` the residual.
    From ``scale`` 1, as branch and bound calls it, the returned scale
    is 1 exactly when every coefficient is an integer."""
    if supports is not None:
        return _median_core(scaled, scale, directions, supports)
    # X / D is scale * x; dividing by g leaves den the lcm of x's denominators.
    x, den = _simplex_min_l1(scaled, directions)
    g = math.gcd(den * scale, *x)
    den = den * scale // g
    x = [c // g * scale for c in x]
    w = [e * den for e in scaled]
    for c, d in zip(x, directions):
        if c:
            for i, e in enumerate(d):
                w[i] += c * e
    return x, w, scale * den


def _median_core(scaled, scale, directions, supports):
    """The weighted-median optimum for directions with pairwise disjoint
    ``supports``, in integers: ``scaled`` is the offset times ``scale``
    (a list of ints, updated in place until a fractional median
    replaces it).  Returns ``(x, w, scale)``, the lower weighted median
    of each direction and the residual, both times the returned scale,
    which is ``scale`` times the denominators of the fractional medians.
    An empty support gives the coefficient 0."""
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
        if type(median) is Fraction:
            den = median.denominator
            if den != 1:
                # Rescale so that the median, and all that follows,
                # stays an integer.
                scale *= den
                scaled = [e * den for e in scaled]
                x = [c * den for c in x]
            median = median.numerator
        if median:
            for i in support:
                scaled[i] += median * d[i]
        x.append(median)
    return x, scaled, scale


def _simplex_min_l1(u, directions) -> tuple[list[int], int]:
    """Optimal ``x = X / D`` by the tableau simplex, for any directions.

    ``u`` is a sequence of ints and there is at least one direction and
    one coordinate.  Row ``i`` of the tableau (row n: the reduced costs)
    is ``scales[i] > 0`` times its rational row, so the scales keep
    every sign and cancel in each ratio: each choice is the rational
    tableau's.  Raises ``EnumerationCapError`` past ``_MAX_PIVOTS``.
    """
    n = len(u)
    k = len(directions)
    width = 2 * n + 2 * k + 1  # rp, rm, xp, xm, rhs
    rows: list[list[int]] = []
    basis: list[int] = []
    for i in range(n):
        row = [0] * width
        row[i] = 1
        row[n + i] = -1
        for j, d in enumerate(directions):
            row[2 * n + j] = -d[i]
            row[2 * n + k + j] = d[i]
        row[-1] = u[i]
        if u[i] < 0:
            row = [-e for e in row]
            basis.append(n + i)
        else:
            basis.append(i)
        rows.append(row)

    # Reduced costs z_j - c_j; every starting basic variable has cost 1.
    obj = [sum(col) for col in zip(*rows)]
    for j in range(2 * n):
        obj[j] -= 1
    rows.append(obj)
    scales, prev = [1] * (n + 1), 1

    pivots = 0
    stall = 0
    last_objective, last_scale = obj[-1], prev
    use_bland = False
    while True:
        obj = rows[n]
        entering = None
        if use_bland:
            for j in range(width - 1):
                if obj[j] > 0:
                    entering = j
                    break
        else:
            best = 0
            for j in range(width - 1):
                if obj[j] > best:
                    best = obj[j]
                    entering = j
        if entering is None:
            break
        leaving = None
        best_rhs, best_coeff = 1, 0  # the ratio 1 / 0, above every other
        for i in range(n):
            coeff = rows[i][entering]
            if coeff > 0:
                # rows[i][-1] / coeff against the least ratio, in integers.
                lhs, least = rows[i][-1] * best_coeff, best_rhs * coeff
                if lhs < least or (lhs == least and basis[i] < basis[leaving]):
                    best_rhs, best_coeff, leaving = rows[i][-1], coeff, i
        if leaving is None:
            raise UnboundedLPError("L1 objective cannot be unbounded below")
        prev = _pivot(rows, scales, leaving, entering, prev)
        basis[leaving] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise EnumerationCapError(
                f"simplex pivot limit {_MAX_PIVOTS} exceeded"
            )
        # The objective row, nonzero at entering, is at the scale prev.
        if rows[n][-1] * last_scale == last_objective * prev:
            stall += 1
            if stall > _STALL_LIMIT:
                use_bland = True
        else:
            stall = 0
            last_objective, last_scale = rows[n][-1], prev

    den = math.lcm(*scales[:n])
    values = {var: rows[i][-1] * (den // scales[i]) for i, var in enumerate(basis)}
    x = [values.get(2 * n + j, 0) - values.get(2 * n + k + j, 0) for j in range(k)]
    return x, den
