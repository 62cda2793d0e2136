"""Integral-spanning certification for finitely generated sublattices.

A family of vectors v_1..v_k in Z^n is integrally spanned when, for
every subset I of the coordinates, the lattice generated by the
projections p_I(v_j) equals the intersection of Z^I with their rational
span. Equivalently: every projected generator matrix has all Smith
invariant factors equal to 1 (the projected lattice is saturated).

The check enumerates all 2^n - 1 nonempty coordinate subsets, so the
ambient dimension is capped at ``DEFAULT_MAX_AMBIENT``; the cap can be
raised per call with ``max_ambient`` (``span-check --max-ambient`` on
the command line).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import AmbientDimensionCapError, DimensionMismatchError, WitnessError
from .exactla import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    NotUnimodularError,
    SnfDecomposition,
    det,
    lattice_member,
    snf,
    solve_rational,
    unimodular_inverse,
)

DEFAULT_MAX_AMBIENT = 22


@dataclass(frozen=True)
class CoordSubset:
    """A nonempty subset of coordinates 1..ambient, strictly increasing."""

    ambient: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise DimensionMismatchError("coordinate subset must be nonempty")
        if list(self.indices) != sorted(set(self.indices)):
            raise DimensionMismatchError("indices must be strictly increasing")
        if self.indices[0] < 1 or self.indices[-1] > self.ambient:
            raise DimensionMismatchError(
                f"indices must lie in 1..{self.ambient}"
            )

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SpanningVerdict:
    """Outcome of the spanning check.

    ``witness`` is None when spanned; otherwise a pair (subset, vector)
    where the vector lies in the rational span of the projected
    generators and in Z^subset but not in their integer span.
    """

    spanned: bool
    witness: tuple[CoordSubset, IntVector] | None
    subsets_checked: int


def project(subset: CoordSubset, x: Sequence) -> tuple:
    """Keep the coordinates named by the subset (1-based), in order."""
    if len(x) != subset.ambient:
        raise DimensionMismatchError(
            f"vector length {len(x)} != ambient {subset.ambient}"
        )
    return tuple(x[i - 1] for i in subset.indices)


def project_columns(generators: IntMatrix, subset: CoordSubset) -> IntMatrix:
    if generators.cols != subset.ambient:
        raise DimensionMismatchError(
            f"generator width {generators.cols} != ambient {subset.ambient}"
        )
    rows = [
        [generators.at(i, j - 1) for j in subset.indices]
        for i in range(generators.rows)
    ]
    return IntMatrix.from_rows(rows, cols=len(subset.indices))


def saturated_for(generators: IntMatrix, subset: CoordSubset) -> bool:
    """Does the projected lattice equal Z^I intersected with its Q-span?"""
    projected = project_columns(generators, subset)
    return all(f == 1 for f in snf(projected).invariant_factors())


def respan(generators: IntMatrix, u: IntMatrix) -> IntMatrix:
    """Replace the generators by u @ generators; u must be unimodular."""
    if u.rows != u.cols or u.cols != generators.rows:
        raise NotUnimodularError(
            f"change of basis must be square of size {generators.rows}"
        )
    if det(u) not in (1, -1):
        raise NotUnimodularError("change of basis must have determinant +-1")
    return u @ generators


def subsets_in_order(ambient: int):
    """All nonempty coordinate subsets, by size then lexicographically."""
    for size in range(1, ambient + 1):
        for combo in itertools.combinations(range(1, ambient + 1), size):
            yield CoordSubset(ambient, combo)


def _saturation_witness(projected: IntMatrix, dec: SnfDecomposition) -> IntVector:
    """A vector certifying that the projected lattice is not saturated.

    With d = u @ m @ v and some diagonal entry d_r > 1, candidate
    vectors are tried in order and validated:

      1. the r-th row of inverse(u) @ d divided by d_r, when integral;
      2. that row undivided;
      3. the r-th row of inverse(v).

    Candidate 3 always works: its coefficient vector against the rows
    of m would need y @ inverse(u) @ d = e_r, forcing d_r to divide 1.
    Validation checks membership in the rational row span and
    non-membership in the integer row lattice, so whichever candidate
    is returned is a genuine witness; if none passes, ``WitnessError``
    is raised.
    """
    r = None
    for idx, f in enumerate(dec.invariant_factors()):
        if f != 1:
            r = idx
            break
    if r is None:
        # Rank-deficient saturation failures cannot happen: factors are 1.
        raise WitnessError("no failing invariant factor")
    d_r = dec.d.at(r, r)
    u_inv = unimodular_inverse(dec.u)
    ud_row = tuple(
        sum(u_inv.at(r, i) * dec.d.at(i, j) for i in range(dec.d.rows))
        for j in range(dec.d.cols)
    )
    candidates = []
    if all(e % d_r == 0 for e in ud_row):
        candidates.append(tuple(e // d_r for e in ud_row))
    candidates.append(ud_row)
    v_inv = unimodular_inverse(dec.v)
    candidates.append(v_inv.row(r))

    basis = LatticeBasis.from_generators(projected)
    for cand in candidates:
        if all(e == 0 for e in cand):
            continue
        if solve_rational(projected.transpose(), cand) is None:
            continue
        if lattice_member(basis, cand):
            continue
        return cand
    raise WitnessError("witness validation failed for every candidate")


def is_integrally_spanned(
    generators: IntMatrix, *, max_ambient: int | None = None
) -> SpanningVerdict:
    """Check the spanning condition over every coordinate subset.

    Subsets are visited by size then lexicographically and the scan
    stops at the first failure, returning a validated witness pair.
    A family with no nonzero generators is spanned outright (every
    projection is the zero lattice), with no subsets enumerated.
    """
    n = generators.cols
    if generators.is_zero():
        return SpanningVerdict(True, None, 0)
    cap = DEFAULT_MAX_AMBIENT if max_ambient is None else max_ambient
    if n > cap:
        raise AmbientDimensionCapError(
            f"ambient dimension {n} exceeds the subset enumeration cap {cap}; "
            "raise max_ambient (span-check --max-ambient) to force"
        )
    checked = 0
    for subset in subsets_in_order(n):
        checked += 1
        projected = project_columns(generators, subset)
        dec = snf(projected)
        if all(f == 1 for f in dec.invariant_factors()):
            continue
        witness = _saturation_witness(projected, dec)
        return SpanningVerdict(False, (subset, witness), checked)
    return SpanningVerdict(True, None, checked)
