"""Verification campaigns over fixture and randomized instance families.

Each campaign runs a family of checks and returns a
:class:`CampaignReport` whose entries carry everything needed to replay
a failure by hand: serialized matrices, targets, and the exact rational
quantities compared.  Entries are ``pass``, ``fail``, or ``skipped``;
an enumeration-cap hit is always a visible ``skipped`` entry, never a
silent pass.  Reports are deterministic functions of (seed, caps,
library version).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    CochainComplex,
    Graph,
    check_incidence_rows,
    braid_presentation,
    graph_complex,
    graph_d0,
    h1_is_trivial,
    presentation_d1,
    steinberg_presentation,
)
from .errors import EnumerationCapError, RowShapeError
from .exactla import (
    IntMatrix,
    LatticeBasis,
    format_matrix,
    format_rational,
    format_vector,
    integer_kernel_basis,
    mat_vec,
    primitive_ray,
    solve_rational,
)
from .expansion import (
    iter_image_with_preimage,
    lift_section,
    minimization_faces,
    modq_rank,
    reduce_mod_q,
    xi_q_at,
    xi_q_at_face_oracle,
    xi_q_global,
    xi_z_at,
    xi_zq_at,
    xi_zq_global,
)
from .spanning import is_integrally_spanned


@dataclass
class CampaignReport:
    """Outcome of one verification campaign.

    ``entries`` is an index-ordered list of dicts with keys ``index``,
    ``instance`` (serialized inputs), ``verdict`` (``pass`` / ``fail`` /
    ``skipped``), ``detail``, and ``quantities`` (the exact rational
    values compared, as strings).
    """

    campaign: str
    seed: Optional[int]
    params: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def add(self, instance: dict, verdict: str, detail: str, quantities: dict):
        self.entries.append(
            {
                "index": len(self.entries),
                "instance": instance,
                "verdict": verdict,
                "detail": detail,
                "quantities": quantities,
            }
        )

    @property
    def totals(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for entry in self.entries:
            out[entry["verdict"]] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.totals["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "params": self.params,
            "totals": self.totals,
            "ok": self.ok,
            "entries": self.entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["campaign", "index", "verdict", "detail", "instance", "quantities"]
        )
        for entry in self.entries:
            writer.writerow(
                [
                    self.campaign,
                    entry["index"],
                    entry["verdict"],
                    entry["detail"],
                    json.dumps(entry["instance"]),
                    json.dumps(entry["quantities"]),
                ]
            )
        return buf.getvalue()


def _fr(x) -> str:
    return format_rational(Fraction(x))


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------


def random_incidence_matrix(rng: random.Random, max_edges: int = 10) -> IntMatrix:
    """Random incidence-shaped matrix from a random graph.

    Vertex count uniform in [2, 8]; edge count uniform in
    [1, max_edges].  Each edge is a zero row with probability 1/10,
    otherwise a loop/half-edge with probability 1/5, otherwise a
    uniform pair of distinct vertices.  Exercises all three row types.
    """
    v = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        if rng.random() < Fraction(1, 10):
            edges.append((0, 0))
            continue
        if rng.random() < Fraction(1, 5):
            w = rng.randint(1, v)
            edges.append((w, w))
            continue
        tail = rng.randint(1, v)
        head = rng.randint(1, v)
        while head == tail:
            head = rng.randint(1, v)
        edges.append((tail, head))
    return graph_d0(Graph(v, tuple(edges)))


def sample_image_targets(
    rng: random.Random, a: IntMatrix, limit: int = 8
) -> list:
    """Up to ``limit`` nonzero image targets ``A u`` with ``u`` drawn
    from the box [-2, 2]^n, de-duplicated by ray (one representative
    per rational direction)."""
    seen = set()
    out = []
    for _ in range(60):
        if len(out) >= limit:
            break
        u = [rng.randint(-2, 2) for _ in range(a.cols)]
        v = mat_vec(a, u)
        if all(x == 0 for x in v):
            continue
        key = tuple(primitive_ray(v))
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(v))
    return out


def _kernel_spanned(a: IntMatrix):
    """(spanned, detail) for the kernel of ``a``; rank-0 kernels are
    spanned outright."""
    kernel = integer_kernel_basis(a)
    if kernel.rank == 0:
        return True, "kernel rank 0"
    verdict = is_integrally_spanned(kernel.hnf)
    return verdict.spanned, f"kernel rank {kernel.rank}"


# ---------------------------------------------------------------------------
# Campaign: per-target rational/integer equality on spanned kernels.
# ---------------------------------------------------------------------------


def _equality_entry(report, rng, a: IntMatrix, label: str):
    instance = {"kind": label, "matrix": format_matrix(a)}
    spanned, kdetail = _kernel_spanned(a)
    if not spanned:
        report.add(instance, "fail", f"kernel not integrally spanned ({kdetail})", {})
        return
    ok, compared, _ = _matrix_targets_equal(rng, a)
    if not compared:
        report.add(instance, "pass", "no nonzero image targets; equality vacuous", {})
    elif not ok:
        failing = compared[-1]
        instance["target"] = failing["target"]
        report.add(
            instance,
            "fail",
            "rational and integer expansion differ on a spanned kernel",
            {"xi_q": failing["xi_q"], "xi_z": failing["xi_z"]},
        )
    else:
        report.add(
            instance,
            "pass",
            f"{kdetail}; equality on {len(compared)} targets",
            {"targets": compared},
        )


def campaign_equality(seed: int, count: int, max_edges: int = 8) -> CampaignReport:
    """Per-target equality of rational and integer expansion for
    incidence-shaped matrices (whose kernels are integrally spanned),
    plus a negative control with an unspanned kernel where the values
    must differ."""
    rng = random.Random(seed)
    report = CampaignReport(
        "equality", seed, {"count": count, "max_edges": max_edges}
    )
    _equality_entry(report, rng, IntMatrix.from_rows([[1, -1]]), "fixture")
    _equality_entry(
        report, rng, graph_d0(Graph(3, ((1, 2), (2, 3)))), "fixture"
    )
    _equality_entry(
        report, rng, graph_d0(Graph(4, ((1, 2), (1, 3), (1, 4), (0, 0)))), "fixture"
    )

    control = IntMatrix.from_rows([[1, 2]])
    v = (1,)
    q_val = xi_q_at(control, v).value
    z_val = xi_z_at(control, v).value
    instance = {
        "kind": "negative control",
        "matrix": format_matrix(control),
        "target": format_vector(v).strip(),
    }
    quantities = {"xi_q": _fr(q_val), "xi_z": _fr(z_val)}
    if q_val == Fraction(1, 2) and z_val == 1:
        report.add(
            instance,
            "pass",
            "unspanned kernel shows the expected strict gap 1/2 < 1",
            quantities,
        )
    else:
        report.add(instance, "fail", "expected gap not observed", quantities)

    for _ in range(count):
        a = random_incidence_matrix(rng, max_edges=max_edges)
        _equality_entry(report, rng, a, "random")
    return report


# ---------------------------------------------------------------------------
# Campaign: CW complexes.
# ---------------------------------------------------------------------------


def default_cw_fixtures() -> list:
    """Named complexes exercised by default: trees (trivial H^1), a
    filled triangle, and two H^1-nontrivial controls that must be
    skipped."""
    filled_triangle = CochainComplex.build(
        IntMatrix.from_rows([[1, -1, 0], [1, 0, -1], [0, 1, -1]]),
        IntMatrix.from_rows([[1, -1, 1]]),
    )
    circle = CochainComplex.build(IntMatrix.zeros(1, 1), IntMatrix.zeros(0, 1))
    disk = CochainComplex.build(IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1))
    return [
        ("segment", graph_complex(Graph(2, ((1, 2),)))),
        ("path3", graph_complex(Graph(3, ((1, 2), (2, 3))))),
        ("path4", graph_complex(Graph(4, ((1, 2), (2, 3), (3, 4))))),
        ("star4", graph_complex(Graph(4, ((1, 2), (1, 3), (1, 4))))),
        ("filled-triangle", filled_triangle),
        ("circle", circle),
        ("disk", disk),
    ]


def _matrix_targets_equal(rng, a: IntMatrix):
    """(ok, compared, counterexample) for Q/Z equality over sampled
    targets of ``a``; vacuously true when the image is zero."""
    targets = sample_image_targets(rng, a)
    compared = []
    for v in targets:
        q_val = xi_q_at(a, v).value
        z_val = xi_z_at(a, v).value
        compared.append(
            {"target": format_vector(v).strip(), "xi_q": _fr(q_val), "xi_z": _fr(z_val)}
        )
        if q_val != z_val:
            return False, compared, v
    return True, compared, None


def campaign_cw(complexes: Optional[Sequence] = None) -> CampaignReport:
    """For each complex with trivial first cohomology: the kernel of
    ``d1`` must equal the image lattice of ``d0`` exactly, and both
    matrices must show per-target rational/integer equality.  Complexes
    with nontrivial cohomology are reported skipped."""
    if complexes is None:
        complexes = default_cw_fixtures()
    report = CampaignReport("cw", None, {"complexes": len(complexes)})
    rng = random.Random(0)
    for name, c in complexes:
        instance = {
            "kind": name,
            "d0": format_matrix(c.d0),
            "d1": format_matrix(c.d1),
        }
        if not h1_is_trivial(c):
            report.add(instance, "skipped", "H^1 is nontrivial", {})
            continue
        kernel = integer_kernel_basis(c.d1)
        image = LatticeBasis.from_generators(c.d0.transpose())
        quantities = {
            "ker_d1_hnf": format_matrix(kernel.hnf),
            "im_d0_hnf": format_matrix(image.hnf),
        }
        if kernel.hnf != image.hnf:
            report.add(
                instance,
                "fail",
                "kernel of d1 differs from image lattice of d0",
                quantities,
            )
            continue
        ok0, compared0, bad0 = _matrix_targets_equal(rng, c.d0)
        ok1, compared1, bad1 = _matrix_targets_equal(rng, c.d1)
        quantities["d0_targets"] = compared0
        quantities["d1_targets"] = compared1
        if not (ok0 and ok1):
            bad = bad0 if not ok0 else bad1
            instance["target"] = format_vector(bad).strip()
            report.add(
                instance, "fail", "rational/integer equality failed", quantities
            )
            continue
        report.add(
            instance,
            "pass",
            "lattice equality and per-target equality hold",
            quantities,
        )
    return report


# ---------------------------------------------------------------------------
# Campaign: mod-q comparison.
# ---------------------------------------------------------------------------


def campaign_modq(
    seed: int,
    count: int,
    primes: Sequence[int] = (2, 3, 5),
    global_work_cap: int = 30000,
    witness_image_cap: int = 256,
) -> CampaignReport:
    """Exact check of ``(q-1) * Xi_Z(A) >= Xi_Zq(A mod q)`` for random
    incidence-shaped matrices, globally and witness by witness.

    The integer side is computed through the rational global value,
    which is exact because incidence kernels are integrally spanned.
    Instances whose finite-field enumeration exceeds the caps are
    reported skipped.
    """
    rng = random.Random(seed)
    report = CampaignReport(
        "modq",
        seed,
        {
            "count": count,
            "primes": list(primes),
            "global_work_cap": global_work_cap,
            "witness_image_cap": witness_image_cap,
        },
    )
    if not primes:
        return report

    fixtures = [
        IntMatrix.from_rows([[1, -1]]),
        IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]]),
    ]
    instances = fixtures + [
        random_incidence_matrix(rng) for _ in range(count)
    ]
    for idx, a in enumerate(instances):
        kind = "fixture" if idx < len(fixtures) else "random"
        if a.is_zero():
            report.add(
                {"kind": kind, "matrix": format_matrix(a)},
                "skipped",
                "zero matrix has no expansion values",
                {},
            )
            continue
        spanned, kdetail = _kernel_spanned(a)
        if not spanned:
            report.add(
                {"kind": kind, "matrix": format_matrix(a)},
                "fail",
                f"kernel not integrally spanned ({kdetail})",
                {},
            )
            continue
        z_global = xi_q_global(a)
        for q in primes:
            instance = {"kind": kind, "matrix": format_matrix(a), "q": q}
            reduced = reduce_mod_q(a, q)
            work = q**a.cols
            if work > global_work_cap:
                report.add(
                    instance,
                    "skipped",
                    f"global check needs q^{a.cols} = {work} > cap {global_work_cap}",
                    {},
                )
            else:
                zq_global = xi_zq_global(reduced)
                left = (q - 1) * z_global.value
                quantities = {
                    "xi_z_global": _fr(z_global.value),
                    "(q-1)*xi_z_global": _fr(left),
                    "xi_zq_global": _fr(zq_global.value),
                }
                if left >= zq_global.value:
                    report.add(
                        instance, "pass", "global inequality holds", quantities
                    )
                else:
                    report.add(
                        instance, "fail", "global inequality violated", quantities
                    )

            witness_instance = dict(instance)
            witness_instance["check"] = "per-witness"
            images = q ** modq_rank(reduced)
            if images > witness_image_cap:
                report.add(
                    witness_instance,
                    "skipped",
                    f"witness loop needs q^rank = {images} > cap {witness_image_cap}",
                    {},
                )
                continue
            bad = None
            checked = 0
            for w, _ in iter_image_with_preimage(reduced):
                res = xi_zq_at(reduced, w)
                lifted = lift_section(res.witness, q)
                t = mat_vec(a, lifted)
                z_val = xi_z_at(a, t).value
                checked += 1
                if (q - 1) * z_val < res.value:
                    bad = {
                        "w": format_vector(w).strip(),
                        "lifted_target": format_vector(t).strip(),
                        "xi_z_at": _fr(z_val),
                        "xi_zq_at": _fr(res.value),
                    }
                    break
            if bad is None:
                report.add(
                    witness_instance,
                    "pass",
                    f"per-witness inequality over {checked} image vectors",
                    {"images_checked": checked},
                )
            else:
                report.add(
                    witness_instance, "fail", "per-witness inequality violated", bad
                )
    return report


# ---------------------------------------------------------------------------
# Campaign: braid and Steinberg presentation matrices.
# ---------------------------------------------------------------------------


def campaign_presentations(
    n_range: Sequence[int] = range(3, 8),
    targets_per_instance: int = 4,
    zq_work_cap: int = 4096,
) -> CampaignReport:
    """Row-shape, kernel-spanning, per-target rational/integer equality,
    and the global chain ``Xi_Z(d1) >= Xi_Z2(d1 mod 2)`` for the braid
    and Steinberg presentation matrices."""
    report = CampaignReport(
        "presentations",
        None,
        {
            "n_range": list(n_range),
            "targets_per_instance": targets_per_instance,
            "zq_work_cap": zq_work_cap,
        },
    )
    rng = random.Random(0)
    families = [("braid", braid_presentation), ("steinberg", steinberg_presentation)]
    for n in n_range:
        for family, build in families:
            p = build(n)
            d1 = presentation_d1(p)
            instance = {"kind": f"{family} n={n}", "d1": format_matrix(d1)}
            try:
                check_incidence_rows(d1)
            except RowShapeError as err:
                report.add(instance, "fail", f"row shape violated: {err}", {})
                continue
            spanned, kdetail = _kernel_spanned(d1)
            if not spanned:
                report.add(
                    instance,
                    "fail",
                    f"kernel not integrally spanned ({kdetail})",
                    {},
                )
                continue
            ok, compared, bad = _matrix_targets_equal(rng, d1)
            if not ok:
                instance["target"] = format_vector(bad).strip()
                report.add(
                    instance,
                    "fail",
                    "rational/integer equality failed",
                    {"targets": compared},
                )
                continue
            quantities = {"targets": compared}
            z_global = xi_q_global(d1)
            quantities["xi_z_global"] = _fr(z_global.value)
            work = 2**d1.cols
            if work > zq_work_cap:
                report.add(
                    instance,
                    "skipped",
                    f"row shape, spanning ({kdetail}), and equality hold; "
                    f"mod-2 chain needs 2^{d1.cols} = {work} > cap {zq_work_cap}",
                    quantities,
                )
                continue
            zq_global = xi_zq_global(reduce_mod_q(d1, 2))
            quantities["xi_z2_global"] = _fr(zq_global.value)
            if z_global.value >= zq_global.value:
                report.add(
                    instance,
                    "pass",
                    f"{kdetail}; equality on {len(compared)} targets; "
                    "global chain holds at q=2",
                    quantities,
                )
            else:
                report.add(
                    instance, "fail", "global chain violated at q=2", quantities
                )
    return report


# ---------------------------------------------------------------------------
# Campaign: simplex vs face-oracle cross-check.
# ---------------------------------------------------------------------------


def campaign_lemma_oracle(seed: int, count: int) -> CampaignReport:
    """Cross-checks the simplex and face-enumeration routes on random
    small instances, and verifies that the objective is constant on
    every reported minimal face by evaluating it at random rational
    points of the face."""
    rng = random.Random(seed)
    report = CampaignReport("lemma-oracle", seed, {"count": count})

    def run(a: IntMatrix, v, kind: str):
        instance = {
            "kind": kind,
            "matrix": format_matrix(a),
            "target": format_vector(v).strip(),
        }
        lp = xi_q_at(a, v)
        try:
            fo = xi_q_at_face_oracle(a, v)
            decomposition = minimization_faces(a, v)
        except EnumerationCapError as err:
            report.add(instance, "skipped", str(err), {})
            return
        quantities = {"lp": _fr(lp.value), "face_oracle": _fr(fo.value)}
        if lp.value != fo.value:
            report.add(instance, "fail", "solver values differ", quantities)
            return
        kernel = integer_kernel_basis(a).basis_rows()
        u0 = solve_rational(a, v)
        for face in decomposition.faces:
            for _ in range(3):
                point = list(face.point)
                for direction in face.directions:
                    c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    point = [x + c * y for x, y in zip(point, direction)]
                w = list(u0)
                for j, x in enumerate(point):
                    for i in range(a.cols):
                        w[i] += x * kernel[j][i]
                value = sum(abs(t) for t in w)
                if value != face.value:
                    quantities["face_value"] = _fr(face.value)
                    quantities["sampled_value"] = _fr(value)
                    report.add(
                        instance,
                        "fail",
                        "objective not constant on a reported face",
                        quantities,
                    )
                    return
        report.add(
            instance,
            "pass",
            f"solvers agree; {len(decomposition.faces)} faces constant",
            quantities,
        )

    run(IntMatrix.from_rows([[1, 2]]), (1,), "fixture")
    produced = 0
    while produced < count:
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        u = [rng.randint(-2, 2) for _ in range(cols)]
        v = mat_vec(a, u)
        if all(x == 0 for x in v):
            continue
        run(a, v, "random")
        produced += 1
    return report
