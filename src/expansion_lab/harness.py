"""Verification campaigns over fixture and randomized instance families.

Each campaign runs a family of checks and returns a
:class:`CampaignReport` whose entries carry everything needed to replay
a failure by hand: serialized matrices, targets, and the exact rational
quantities compared.  Entries are ``pass``, ``fail``, or ``skipped``;
an enumeration-cap hit is always a visible ``skipped`` entry, never a
silent pass.  Reports are deterministic functions of (seed, arguments,
library version).

The checks run on the blocks of each matrix.  The cached
``exactla._blocks`` decides the split and hands out each block's
submatrix, built once per matrix, to every check that asks it for the
blocks of the matrix it is given.  The matrix is, up to row and column
order, the direct sum of its blocks and of zero rows and columns, so
its kernel is the direct sum of the block kernels and of one unit
vector per zero column, and a preimage of a target is a preimage of
each block part, side by side.  Spanning, the kernel rank, the 1-norm
minima over Q and Z and the norms of the targets all follow from the
blocks (``_kernel_spanned``, ``_matrix_targets_equal``), and each
distinct block, or block and block target, is solved once per matrix.

The campaign sizes are module constants, recorded in each report's
``params``: ``_GLOBAL_WORK_CAP`` and ``_WITNESS_IMAGE_CAP`` bound the
finite-field work per instance of the mod-q campaign, ``_ZQ_WORK_CAP``
the mod-2 chain of the presentation campaign, ``_EQUALITY_MAX_EDGES``
the random graphs of the equality campaign, and ``_TARGETS_PER_MATRIX``
the targets sampled per matrix.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import expansion
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
from .errors import EnumerationCapError, RowShapeError, UndefinedExpansionError
from .exactla import (
    IntMatrix,
    LatticeBasis,
    _blocks,
    _sparse_rows,
    format_matrix,
    format_rational,
    format_vector,
    integer_kernel_basis,
    l1_norm,
    mat_vec,
    primitive_ray,
)
from .expansion import (
    _image_walk,
    hamming_weight,
    minimization_faces,
    modq_rank,
    reduce_mod_q,
    xi_q_at,
    xi_q_global,
    xi_z_at,
    xi_zq_at,
    xi_zq_global,
)
from .spanning import is_integrally_spanned

#: Largest ``q ** cols`` for which the mod-q campaign runs the global check.
_GLOBAL_WORK_CAP = 30000

#: Largest ``q ** rank`` for which the mod-q campaign runs the witness loop.
_WITNESS_IMAGE_CAP = 256

#: Largest ``2 ** cols`` for which the presentation campaign runs the
#: mod-2 chain.
_ZQ_WORK_CAP = 4096

#: Edge bound of the random incidence matrices of the equality campaign.
_EQUALITY_MAX_EDGES = 8

#: Image targets sampled per matrix for the rational/integer comparison.
_TARGETS_PER_MATRIX = 8


def _lower_bound_note() -> str:
    """Why a global check is skipped on an inexact ``xi_q_global``."""
    return (
        "xi_q_global is a lower bound past the candidate cap "
        f"expansion._MAX_CANDIDATES = {expansion._MAX_CANDIDATES}"
    )


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


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------


def random_incidence_matrix(rng: random.Random, max_edges: int = 10) -> IntMatrix:
    """Random incidence-shaped matrix from a random graph.

    Vertex count uniform in [2, 8]; edge count uniform in
    [1, max_edges].  Each edge is a zero row with probability 1/10,
    otherwise a loop/half-edge with probability 1/5, otherwise a
    uniform pair of distinct vertices.  Exercises all three row types.
    The floats 0.1 and 0.2 split the multiples of 2^-53 that ``random``
    returns exactly where 1/10 and 1/5 do.
    """
    v = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        if rng.random() < 0.1:
            edges.append((0, 0))
            continue
        if rng.random() < 0.2:
            w = rng.randint(1, v)
            edges.append((w, w))
            continue
        tail = rng.randint(1, v)
        head = rng.randint(1, v)
        while head == tail:
            head = rng.randint(1, v)
        edges.append((tail, head))
    return graph_d0(Graph(v, tuple(edges)))


def sample_image_targets(rng: random.Random, a: IntMatrix) -> list:
    """Up to ``_TARGETS_PER_MATRIX`` nonzero image targets ``A u`` with
    ``u`` drawn from the box [-2, 2]^n, de-duplicated by ray (one
    representative per rational direction).

    Each distinct row of ``a`` is multiplied once per draw and its
    value copied to the rows that repeat it: most rows of a
    presentation ``d1`` repeat an earlier one.  Rows are told apart by
    their ``_sparse_rows`` entries, and the distinct rows are the dense
    rows of their first occurrences, so the draws are those of the
    dense product."""
    first = {}
    at = [first.setdefault(key, i) for i, key in enumerate(_sparse_rows(a))]
    slot = {i: s for s, i in enumerate(first.values())}
    spread = [slot[i] for i in at]
    distinct = IntMatrix.from_rows(map(a.row, slot), cols=a.cols)
    seen = set()
    out = []
    for _ in range(60):
        if len(out) >= _TARGETS_PER_MATRIX:
            break
        u = [rng.randint(-2, 2) for _ in range(a.cols)]
        w = mat_vec(distinct, u)
        if not any(w):
            continue
        # v holds every entry of w, and its first nonzero entry is that
        # of w, so the ray of w names the ray of v.
        key = primitive_ray(w)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(map(w.__getitem__, spread)))
    return out


def _kernel_spanned(a: IntMatrix):
    """(spanned, detail) for the kernel of ``a``, from the block
    submatrices that ``_blocks(a)`` hands out.

    The kernel is the direct sum of the block kernels, each on its
    block's columns, and of one unit vector per zero column.  A
    projection of a direct sum on disjoint coordinates is the direct sum
    of the projections, saturated exactly when each is, and a unit
    vector projects to Z or 0.  So the kernel is spanned exactly when
    every distinct block's kernel is, and its rank is the sum of the
    block ranks plus the number of zero columns."""
    blocks = _blocks(a)
    rank = a.cols - sum(len(cols) for _, cols, _ in blocks)
    spanned = True
    seen = {}
    for _, _, block in blocks:
        if block not in seen:
            kernel = integer_kernel_basis(block)
            seen[block] = kernel.rank, is_integrally_spanned(kernel.hnf).spanned
        rank += seen[block][0]
        spanned = spanned and seen[block][1]
    return spanned, f"kernel rank {rank}"


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


def campaign_equality(seed: int, count: int) -> CampaignReport:
    """Per-target equality of rational and integer expansion for
    incidence-shaped matrices (whose kernels are integrally spanned),
    plus a negative control with an unspanned kernel where the values
    must differ."""
    rng = random.Random(seed)
    report = CampaignReport(
        "equality", seed, {"count": count, "max_edges": _EQUALITY_MAX_EDGES}
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
    quantities = {"xi_q": format_rational(q_val), "xi_z": format_rational(z_val)}
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
        a = random_incidence_matrix(rng, max_edges=_EQUALITY_MAX_EDGES)
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
    targets of ``a``; vacuously true when the image is zero.

    The targets are sampled on the whole matrix, but solved on the
    block submatrices of ``_blocks(a)``.  A preimage of ``v`` is a
    preimage of each block part ``v_b`` side by side, with any value on
    the zero columns (best 0), and ``v`` is zero on the zero rows.  So
    the 1-norm minimum at ``v``, over Q and over Z, is the sum of the
    block minima, ``xi_*_at(block, v_b) * |v_b|_1``, and the value is
    that sum divided once by ``|v|_1``.  Each nonzero ``(block, v_b)``
    is solved once per matrix, whichever targets and blocks share it.
    A block minimum is kept as an ``int`` when it is integral, as it
    always is on a spanned kernel, so each target's sum is int
    additions; only a non-integral minimum stays a ``Fraction``."""
    targets = sample_image_targets(rng, a)
    blocks = _blocks(a)
    minima = {}
    compared = []
    for v in targets:
        q_min = z_min = 0
        for rows, _, block in blocks:
            v_b = tuple(map(v.__getitem__, rows))
            if not any(v_b):
                continue
            part = minima.get((block, v_b))
            if part is None:
                norm = l1_norm(v_b)
                part = minima[block, v_b] = tuple(
                    m.numerator if m.denominator == 1 else m
                    for m in (
                        xi_q_at(block, v_b).value * norm,
                        xi_z_at(block, v_b).value * norm,
                    )
                )
            q_min += part[0]
            z_min += part[1]
        norm = l1_norm(v)
        q_val = Fraction(q_min, norm)
        z_val = Fraction(z_min, norm)
        compared.append(
            {
                "target": format_vector(v).strip(),
                "xi_q": format_rational(q_val),
                "xi_z": format_rational(z_val),
            }
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


def _block_tables(a: IntMatrix, q: int, z_at: dict) -> dict:
    """One table per distinct block of ``_blocks(a)``: a dict from each
    nonzero image vector ``w_b`` of the block mod q, in ``_image_walk``
    order, to ``(wt_b, hw_b, m_b, norm_b, t_b)``.  ``wt_b`` is the
    weight of ``xi_zq_at``'s witness ``u`` on the block mod q, ``hw_b``
    the weight of ``w_b``, ``t_b`` the lifted block target, the block
    times the standard lift of ``u`` (``lift_section``), which is ``u``
    itself, its entries already ints in ``[0, q)``, and ``m_b`` and
    ``norm_b`` the 1-norms of ``xi_z_at``'s minimizer at ``t_b`` and of
    ``t_b``.

    Each block image is solved once per (matrix, q), each lifted block
    target once per matrix: ``z_at`` maps ``(block, t_b)`` to ``(m_b,
    norm_b)``, shared by every prime of the matrix.  The tables serve
    both checks of the pair: the global value (``_zq_global_value``)
    and the per-witness inequality (``_witness_check``)."""
    tables = {}
    for _, _, block in _blocks(a):
        if block in tables:
            continue
        block_q = reduce_mod_q(block, q)
        table = tables[block] = {}
        for w_b, hw_b, _ in _image_walk(block_q):
            w_b = tuple(w_b)
            u = xi_zq_at(block_q, w_b).witness
            t_b = mat_vec(block, u)
            z = z_at.get((block, t_b))
            if z is None:
                best = xi_z_at(block, t_b).witness
                z = z_at[block, t_b] = (l1_norm(best), l1_norm(t_b))
            table[w_b] = (hamming_weight(u), hw_b, *z, t_b)
    return tables


def _block_witnesses(a: IntMatrix, reduced, tables: dict):
    """Every nonzero image vector ``w`` of ``reduced`` (``a`` mod q), in
    ``_image_walk`` order, as ``(w, wt, hw, m, norm, parts)``: ``hw``
    the walk's weight of ``w``, the sums of ``wt_b``, ``m_b`` and
    ``norm_b`` of ``tables`` (``_block_tables``) over the nonzero block
    parts of ``w``, and the lifted block targets ``t_b``, one per block
    of ``_blocks(a)`` (see ``_lifted_target``).  This is exact: the F_q
    elimination never mixes blocks, so a block's witness is the whole
    witness restricted to the block, and both minima and both norms add
    over blocks."""
    cut = [(rows, tables[block], (0,) * len(rows)) for rows, _, block in _blocks(a)]
    for w, hw, _ in _image_walk(reduced):
        wt = m = norm = 0
        parts = []
        for rows, table, zero in cut:
            part = table.get(tuple(w[i] for i in rows))
            if part is None:
                parts.append(zero)
                continue
            wt += part[0]
            m += part[2]
            norm += part[3]
            parts.append(part[4])
        yield tuple(w), wt, hw, m, norm, parts


def _lifted_target(a: IntMatrix, parts) -> tuple:
    """The lifted target of the whole matrix from its block parts."""
    t = [0] * a.rows
    for (rows, _, _), part in zip(_blocks(a), parts):
        for i, x in zip(rows, part):
            t[i] = x
    return tuple(t)


def _zq_global_value(reduced, tables) -> Fraction:
    """``xi_zq_global(reduced).value``: read off ``tables``
    (``_block_tables``) when the witness loop built them, else walked
    by ``xi_zq_global``.  The image of ``reduced`` is the product of the
    block images, so by the mediant inequality its value is the largest
    block value, as in ``expansion._block_maximum``; a block's value is
    the largest ``wt_b / hw_b`` of its table, ``wt_b`` being the least
    weight of a preimage of ``w_b``.  A zero image has no value
    (``UndefinedExpansionError``) on either route."""
    if tables is None:
        return xi_zq_global(reduced).value
    # The value wt / hw is compared by cross-multiplying; the start
    # -1 / 1 loses to any table entry.
    best_wt, best_hw = -1, 1
    for table in tables.values():
        for wt, hw, _, _, _ in table.values():
            if wt * best_hw > best_wt * hw:
                best_wt, best_hw = wt, hw
    if best_wt < 0:
        raise UndefinedExpansionError("global expansion is undefined for a zero image")
    return Fraction(best_wt, best_hw)


def _witness_check(a: IntMatrix, reduced, tables: dict):
    """``(checked, bad)`` for the per-witness inequality ``(q - 1) *
    xi_z_at >= xi_zq_at`` over the nonzero image vectors ``w`` of
    ``reduced``, from the ``_block_tables`` of ``a`` at the q of
    ``reduced``: the number of image vectors checked, and the first
    violation as report quantities, or None.

    At ``w`` the inequality reads ``(q - 1) * M * H >= W * N``, with
    ``W``, ``H``, ``M`` and ``N`` the sums of ``wt_b``, ``hw_b``,
    ``m_b`` and ``norm_b`` of ``_block_tables`` over the nonzero block
    parts of ``w``.  It need not hold block by block, but a certificate
    proves it for every ``w``: let ``hi`` be the largest ``norm_b /
    hw_b`` and ``lo`` the least ``(q - 1) * m_b / wt_b`` over every
    table entry.  If ``hi <= lo``, pick any ``lam`` in ``[hi, lo]``.
    Summing ``norm_b <= lam * hw_b`` and ``(q - 1) * m_b >= lam * wt_b``
    over the parts gives ``N <= lam * H`` and ``(q - 1) * M >= lam *
    W``, so ``(q - 1) * M * H >= lam * W * H >= W * N``.  Then all
    ``q^rank - 1`` image vectors pass unwalked.  On incidence-shaped
    blocks ``lam = q - 1`` always works, by the paper's argument: each
    entry of ``t_b`` is plus or minus one lifted entry in ``[0, q)``,
    or the difference of two, so it lies in ``(-q, q)`` and is 0 where
    ``w_b`` is, and ``norm_b <= (q - 1) * hw_b``; any integer preimage of
    ``t_b`` reduces to an F_q preimage of ``w_b``, so ``m_b >= wt_b``.
    When the certificate fails,
    ``_block_witnesses`` walks the image in order, the only route that
    names the first violating ``w``."""
    q = reduced.q
    # hi = hi_norm / hi_hw and lo = lo_m / lo_wt; lo starts at 1 / 0,
    # above every ratio.
    hi_norm, hi_hw, lo_m, lo_wt = 0, 1, 1, 0
    for table in tables.values():
        for wt, hw, m, norm, _ in table.values():
            if norm * hi_hw > hi_norm * hw:
                hi_norm, hi_hw = norm, hw
            if (q - 1) * m * lo_wt < lo_m * wt:
                lo_m, lo_wt = (q - 1) * m, wt
    if hi_norm * lo_wt <= lo_m * hi_hw:
        # The image is the product of the block images.
        return math.prod(len(tables[b]) + 1 for _, _, b in _blocks(a)) - 1, None
    checked = 0
    for w, wt, hw, m, norm, parts in _block_witnesses(a, reduced, tables):
        checked += 1
        # (q - 1) * (m / norm) < wt / hw, cross-multiplied in integers.
        if (q - 1) * m * hw < wt * norm:
            return checked, {
                "w": format_vector(w).strip(),
                "lifted_target": format_vector(_lifted_target(a, parts)).strip(),
                "xi_z_at": format_rational(Fraction(m, norm)),
                "xi_zq_at": format_rational(Fraction(wt, hw)),
            }
    return checked, None


def campaign_modq(
    seed: int, count: int, primes: Sequence[int] = (2, 3, 5)
) -> CampaignReport:
    """Exact check of ``(q-1) * Xi_Z(A) >= Xi_Zq(A mod q)`` for random
    incidence-shaped matrices, globally and witness by witness.

    The integer side is computed through the rational global value,
    which is exact because incidence kernels are integrally spanned.
    Each block of an instance is connected and incidence-shaped, so that
    value comes from one cut walk per block (the coarea formula,
    ``expansion._cut_maximum``), certified by one ``xi_q_at``, and is
    exact within the cut cap: 18 vertices per block, 17 with a
    half-edge.  Checks whose finite-field enumeration exceeds
    ``_GLOBAL_WORK_CAP`` (global) or ``_WITNESS_IMAGE_CAP`` (per
    witness) are reported skipped, as is the global check when the
    rational value is only a lower bound (``exact`` false).

    Within ``_WITNESS_IMAGE_CAP`` each (matrix, q) is solved block by
    block into one table per distinct block (``_block_tables``): each
    nonzero block image once per prime over F_q, each lifted block
    target once per matrix over Z, whichever primes reach it.  The
    global value ``Xi_Zq`` is read off the tables
    (``_zq_global_value``), and ``xi_zq_global`` walks the image only
    past the cap.  For the witness check (``_witness_check``) a
    certificate over the tables, which always holds on incidence-shaped
    blocks, passes every image vector at once; only when it fails is
    the whole image walked (``_block_witnesses``).
    ``_WITNESS_IMAGE_CAP`` still prices ``q^rank``, the rank a sum of
    block ranks, while the solves number ``sum_b q^rank_b``.
    """
    rng = random.Random(seed)
    report = CampaignReport(
        "modq",
        seed,
        {
            "count": count,
            "primes": list(primes),
            "global_work_cap": _GLOBAL_WORK_CAP,
            "witness_image_cap": _WITNESS_IMAGE_CAP,
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
        matrix = format_matrix(a)
        if a.is_zero():
            report.add(
                {"kind": kind, "matrix": matrix},
                "skipped",
                "zero matrix has no expansion values",
                {},
            )
            continue
        spanned, kdetail = _kernel_spanned(a)
        if not spanned:
            report.add(
                {"kind": kind, "matrix": matrix},
                "fail",
                f"kernel not integrally spanned ({kdetail})",
                {},
            )
            continue
        z_global = xi_q_global(a)
        z_at = {}
        for q in primes:
            instance = {"kind": kind, "matrix": matrix, "q": q}
            reduced = reduce_mod_q(a, q)
            # The rank of ``reduced`` is the sum of its block ranks.
            images = q ** sum(modq_rank(reduce_mod_q(b, q)) for _, _, b in _blocks(a))
            tables = None
            if images <= _WITNESS_IMAGE_CAP:
                tables = _block_tables(a, q, z_at)
            work = q**a.cols
            if work > _GLOBAL_WORK_CAP:
                report.add(
                    instance,
                    "skipped",
                    f"global check needs q^{a.cols} = {work} > cap {_GLOBAL_WORK_CAP}",
                    {},
                )
            elif not z_global.exact:
                report.add(
                    instance, "skipped", f"global check: {_lower_bound_note()}", {}
                )
            else:
                zq_global = _zq_global_value(reduced, tables)
                left = (q - 1) * z_global.value
                quantities = {
                    "xi_z_global": format_rational(z_global.value),
                    "(q-1)*xi_z_global": format_rational(left),
                    "xi_zq_global": format_rational(zq_global),
                }
                if left >= zq_global:
                    report.add(
                        instance, "pass", "global inequality holds", quantities
                    )
                else:
                    report.add(
                        instance, "fail", "global inequality violated", quantities
                    )

            witness_instance = dict(instance)
            witness_instance["check"] = "per-witness"
            if tables is None:
                report.add(
                    witness_instance,
                    "skipped",
                    f"witness loop needs q^rank = {images} > cap {_WITNESS_IMAGE_CAP}",
                    {},
                )
                continue
            checked, bad = _witness_check(a, reduced, tables)
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


def campaign_presentations(n_range: Sequence[int] = range(3, 8)) -> CampaignReport:
    """Row-shape, kernel-spanning, per-target rational/integer equality,
    and the global chain ``Xi_Z(d1) >= Xi_Z2(d1 mod 2)`` for the braid
    and Steinberg presentation matrices.  The chain is reported skipped
    when ``2 ** cols`` exceeds ``_ZQ_WORK_CAP`` or the rational value is
    only a lower bound (``exact`` false).  A family whose ``d1`` is zero
    (both, at n = 2) is one skipped entry."""
    report = CampaignReport(
        "presentations",
        None,
        {
            "n_range": list(n_range),
            "zq_work_cap": _ZQ_WORK_CAP,
        },
    )
    rng = random.Random(0)
    families = [("braid", braid_presentation), ("steinberg", steinberg_presentation)]
    for n in n_range:
        for family, build in families:
            p = build(n)
            d1 = presentation_d1(p)
            instance = {"kind": f"{family} n={n}", "d1": format_matrix(d1)}
            if d1.is_zero():
                report.add(instance, "skipped", "zero image has no expansion values", {})
                continue
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
            quantities["xi_z_global"] = format_rational(z_global.value)
            work = 2**d1.cols
            skip = None
            if work > _ZQ_WORK_CAP:
                skip = f"mod-2 chain needs 2^{d1.cols} = {work} > cap {_ZQ_WORK_CAP}"
            elif not z_global.exact:
                skip = f"mod-2 chain: {_lower_bound_note()}"
            if skip:
                report.add(
                    instance,
                    "skipped",
                    f"row shape, spanning ({kdetail}), and equality hold; {skip}",
                    quantities,
                )
                continue
            zq_global = xi_zq_global(reduce_mod_q(d1, 2))
            quantities["xi_z2_global"] = format_rational(zq_global.value)
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
    small instances: the simplex value must equal the least objective
    value over the minimal faces.  Every minimal face is a vertex of
    the arrangement, on which the objective is trivially constant."""
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
            decomposition = minimization_faces(a, v)
        except EnumerationCapError as err:
            report.add(instance, "skipped", str(err), {})
            return
        # The face oracle's value, as xi_q_at_face_oracle computes it.
        fo_value = Fraction(decomposition.minimum, l1_norm(v))
        quantities = {
            "lp": format_rational(lp.value),
            "face_oracle": format_rational(fo_value),
        }
        if lp.value != fo_value:
            report.add(instance, "fail", "solver values differ", quantities)
            return
        report.add(
            instance,
            "pass",
            f"solvers agree; {len(decomposition.faces)} vertices",
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
