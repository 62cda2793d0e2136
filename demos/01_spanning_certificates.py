"""Deciding integral spanning, with certificates either way.

A family of integer vectors is integrally spanned when, for every
subset of coordinates, the projections of the generators Z-span every
integer point of their Q-span.  The checker diagnoses projections
through their Smith invariant factors: a spanned lattice of rank k is
certified on its k-coordinate projections alone.  Otherwise the
certificate names k coordinates whose projection is unsaturated; they
are shrunk while the projection stays unsaturated, and the result
carries a concrete witness vector.  The count printed is the number of
subsets covered when spanned, and otherwise the subsets the witness
step decided, all from the Smith form of the named coordinates.
"""

from expansion_lab import IntMatrix, is_integrally_spanned


def show(rows):
    a = IntMatrix.from_rows(rows)
    verdict = is_integrally_spanned(a)
    print(f"generators {rows}")
    label = "subsets covered" if verdict.spanned else "subsets decided for the witness"
    print(f"  spanned: {verdict.spanned}  ({label}: {verdict.subsets_checked})")
    if verdict.witness is not None:
        subset, vector = verdict.witness
        print(f"  witness: at coordinates {subset.indices}, the integer vector")
        print(f"           {vector} lies in the rational span of the projected")
        print("           generators but not in their integer span")
    print()


print("A failing pair: (1,1) and (1,3) span a sublattice of index 2")
print("inside the integer points of their plane.")
show([[1, 1], [1, 3]])

print("A single vector is spanned exactly when its entries lie in {-1,0,1}:")
show([[1, -1, 0]])
show([[1, 2]])

print("Sign-vector families with pairwise disjoint supports always span:")
show([[1, -1, 0, 0], [0, 0, 1, 1]])

print("Spanning is not monotone in the coordinate subset.  The single")
print("generator (2,1) fails at {1} alone (projection 2Z inside Z) yet")
print("passes at {1,2}, so no subset pruning is sound:")
show([[2, 1]])
