"""Shared helpers: small random generators and independent oracles.

The oracles here are deliberately naive (exhaustive enumeration,
permutation expansion, textbook Gauss-Jordan over Fraction and over
F_q) so library results can be checked against independent arithmetic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from expansion_lab.exactla import IntMatrix, mat_vec


def rand_matrix(rng: random.Random, max_dim: int = 4, lo: int = -5, hi: int = 5) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def rand_unimodular(rng: random.Random, n: int, steps: int = 8) -> IntMatrix:
    """Random unimodular matrix from elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows)


def det_by_permutations(m: IntMatrix) -> int:
    """Leibniz formula; only sane for tiny matrices."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m.at(i, perm[i])
        total += term
    return total


def box_vectors(n: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def min_l1_preimage_by_box(a: IntMatrix, v, radius: int):
    """Exhaustive min of |u|_1 over integer preimages in a box, or None."""
    best = None
    best_u = None
    target = tuple(v)
    for u in box_vectors(a.cols, radius):
        if mat_vec(a, u) != target:
            continue
        weight = sum(abs(e) for e in u)
        if best is None or weight < best:
            best = weight
            best_u = u
    if best is None:
        return None
    return best, best_u


def in_lattice_by_box(rows: list[tuple[int, ...]], x, radius: int) -> bool:
    """Exhaustive lattice membership with coefficients in a box."""
    if not rows:
        return all(e == 0 for e in x)
    target = tuple(x)
    n = len(rows[0])
    for coeffs in box_vectors(len(rows), radius):
        combo = tuple(
            sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n)
        )
        if combo == target:
            return True
    return False


def rref_by_fractions(rows, ncols):
    """Gauss-Jordan over Fraction on the first ``ncols`` columns, later
    columns carried along: (reduced rows, pivot columns)."""
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


def rref_mod_q(rows, ncols, q):
    """Gauss-Jordan over F_q, normalizing each pivot row by the inverse
    of its pivot; same shape and result convention as above."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


@st.composite
def elimination_systems(draw, fields=(None, 2, 3, 5, 7), carried=st.integers(0, 3)):
    """(rows, ncols, q): 0..6 integer rows over ``ncols`` eliminated
    columns plus ``carried`` further columns, mixing random rows, rows
    zero on the eliminated columns and combinations of earlier rows.
    ``q`` is None (over Q) or a prime with entries reduced into [0, q)."""
    q = draw(st.sampled_from(fields))
    ncols = draw(st.integers(1, 6))
    width = ncols + draw(carried)
    entries = st.integers(-5, 5) | st.just(0)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            row = draw(st.lists(entries, min_size=width, max_size=width))
            rows.append([0] * ncols + row[ncols:] if kind == "zero" else row)
    if q is not None:
        rows = [[x % q for x in row] for row in rows]
    return rows, ncols, q


def frac(p, q=1) -> Fraction:
    return Fraction(p, q)
