"""Expansion constants over Q and over Z, and when they differ.

The expansion constant of a matrix A at a target v is the smallest
ratio |u|_1 / |v|_1 over preimages u of v.  Over the rationals it is
an exact linear program; over the integers it is a lattice problem.
The two agree whenever the kernel of A is integrally spanned, and the
smallest example of disagreement is one row long.
"""

from expansion_lab import (
    IntMatrix,
    integer_kernel_basis,
    is_integrally_spanned,
    minimization_faces,
    xi_q_at,
    xi_q_at_face_oracle,
    xi_q_global,
    xi_z_at,
    xi_z_global,
)

a = IntMatrix.from_rows([[1, 2]])
v = (1,)
print("A = [[1, 2]], target v = (1)")

def vec(values):
    return "(" + ", ".join(str(x) for x in values) + ")"


q = xi_q_at(a, v)
z = xi_z_at(a, v)
print(f"  over Q: value {q.value} with witness {vec(q.witness)} ({q.solver})")
print(f"  over Z: value {z.value} with witness {vec(z.witness)} ({z.solver})")

kernel = integer_kernel_basis(a)
verdict = is_integrally_spanned(kernel.hnf)
print(f"  kernel basis rows: {kernel.basis_rows()}")
print(f"  kernel integrally spanned: {verdict.spanned}")
print("  the gap 1/2 < 1 is possible precisely because the kernel")
print("  generator (2,-1) has a coordinate projection of index 2")
print()

b = IntMatrix.from_rows([[1, -1]])
w = (1,)
print("B = [[1, -1]], target w = (1): a spanned kernel forces equality")
print(f"  over Q: {xi_q_at(b, w).value}   over Z: {xi_z_at(b, w).value}")
print()

print("Two independent rational solvers must agree everywhere: the exact")
print("L1 solver (one weighted median here, as the kernel has one row) and")
print("an enumeration of the minimal faces of the piecewise linear objective.")
face = xi_q_at_face_oracle(a, v)
print(f"  face-enumeration value: {face.value} with witness {vec(face.witness)}")
decomposition = minimization_faces(a, v)
for f in decomposition.faces:
    print(
        f"  vertex {vec(f.point)} with vanishing terms {f.vanishing}: "
        f"value {f.value}"
    )
print()

print("Global constants take the supremum over nonzero image targets:")
print(f"  over Q: {xi_q_global(a).value} (exact: {xi_q_global(a).exact})")
zg = xi_z_global(a)
print(f"  over Z: {zg.value} at target {zg.attaining_target} (exact: {zg.exact})")
print("  the integer global value is reported as a sampled lower bound")
print("  here, because an unspanned kernel breaks ray homogeneity and")
print("  with it the finite reduction to candidate targets")
