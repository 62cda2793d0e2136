"""Acceptance gate: eight end-to-end criteria, exact arithmetic only.

Every check is an equality or a certified inequality of exact
rationals (tolerance zero).  Each test prints one summary line; the
pytest verdict for each test is the pass/fail line for that criterion.
Run with ``-s`` to see the summary lines and timings.
"""

import random
import time
from fractions import Fraction

from expansion_lab import (
    IntMatrix,
    LatticeBasis,
    braid_presentation,
    campaign_cw,
    campaign_equality,
    campaign_lemma_oracle,
    campaign_modq,
    check_incidence_rows,
    det,
    hnf,
    incidence_kernel_basis,
    integer_kernel_basis,
    is_integrally_spanned,
    mat_vec,
    presentation_d1,
    random_incidence_matrix,
    reduce_mod_q,
    snf,
    steinberg_presentation,
    xi_q_global,
    xi_z_at,
    xi_z_global,
    xi_zq_global,
)
from conftest import min_l1_preimage_by_box, rand_matrix


def report(name: str, started: float, budget: float, detail: str):
    elapsed = time.monotonic() - started
    print(f"\n{name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def test_criterion_1_spanning_fixture_verdicts():
    started = time.monotonic()

    verdict = is_integrally_spanned(IntMatrix.from_rows([[1, 1], [1, 3]]))
    assert not verdict.spanned
    subset, vector = verdict.witness
    assert subset.indices == (1, 2)
    assert vector == (1, 2)

    for k in (-3, 0, 2, 5):
        assert is_integrally_spanned(IntMatrix.from_rows([[0, 1], [1, k]])).spanned

    singles = [
        ((1, -1, 0), True),
        ((0, 0, 0), True),
        ((1, 1, 1), True),
        ((2,), False),
        ((1, 2), False),
        ((-1, 3, 0), False),
    ]
    for row, expected in singles:
        got = is_integrally_spanned(IntMatrix.from_rows([list(row)])).spanned
        assert got == expected, row

    disjoint = [
        [[1, -1, 0, 0], [0, 0, 1, 1]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
        [[1, 1, 0, 0, 0], [0, 0, -1, 0, 1]],
    ]
    for rows in disjoint:
        assert is_integrally_spanned(IntMatrix.from_rows(rows)).spanned

    report(
        "criterion 1",
        started,
        1.0,
        "spanning fixtures: failing pair with witness (1,2) at {1,2}, "
        "spanned families, single-vector characterization",
    )


def test_criterion_2_equality_campaign_200_instances():
    started = time.monotonic()
    outcome = campaign_equality(20260819, 200)
    totals = outcome.totals
    assert totals["fail"] == 0
    assert totals["skipped"] == 0
    assert totals["pass"] == 204  # 3 fixtures + negative control + 200 randoms

    control = next(
        e for e in outcome.entries if e["instance"]["kind"] == "negative control"
    )
    assert control["verdict"] == "pass"
    assert control["quantities"] == {"xi_q": "1/2", "xi_z": "1"}

    report(
        "criterion 2",
        started,
        120.0,
        "rational = integer expansion on 200 random incidence instances; "
        "control [[1,2]] shows 1/2 < 1",
    )


def test_criterion_3_minimization_lemma_oracle_100_instances():
    started = time.monotonic()
    outcome = campaign_lemma_oracle(20260819, 100)
    totals = outcome.totals
    assert totals["fail"] == 0
    assert totals["skipped"] == 0
    assert totals["pass"] == 101  # fixture + 100 randoms
    report(
        "criterion 3",
        started,
        120.0,
        "simplex value = least objective value over the minimal faces "
        "(vertices of the arrangement), 100 random instances",
    )


def test_criterion_4_incidence_kernel_proposition_200_instances():
    started = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(200):
        a = random_incidence_matrix(rng)
        fast = incidence_kernel_basis(a)
        eliminated = integer_kernel_basis(a)
        assert fast.hnf == eliminated.hnf

        assert is_integrally_spanned(eliminated.hnf).spanned
        image = LatticeBasis.from_generators(a.transpose())
        assert is_integrally_spanned(image.hnf).spanned
    report(
        "criterion 4",
        started,
        120.0,
        "component-indicator kernel = eliminated kernel as lattices; "
        "kernel and image integrally spanned, 200 random instances",
    )


def test_criterion_5_finite_field_campaign_100_instances():
    started = time.monotonic()
    outcome = campaign_modq(20260819, 100, primes=(2, 3, 5))
    totals = outcome.totals
    assert totals["fail"] == 0
    assert totals["pass"] > 0

    witness_passes = [
        e
        for e in outcome.entries
        if e["instance"].get("check") == "per-witness" and e["verdict"] == "pass"
    ]
    assert len(witness_passes) >= 100  # the per-witness inequality really ran
    for q in (2, 3, 5):
        assert any(e["instance"]["q"] == q for e in witness_passes)

    report(
        "criterion 5",
        started,
        300.0,
        f"(q-1)*Xi_Z >= Xi_Zq globally and per witness, q in {{2,3,5}}, "
        f"{totals['pass']} checks passed, {totals['skipped']} honest cap skips",
    )


def test_criterion_6_braid_and_steinberg_families():
    started = time.monotonic()

    def family_checks(d1: IntMatrix, expected_value: Fraction):
        check_incidence_rows(d1)
        kernel = integer_kernel_basis(d1)
        assert kernel.rank == 0 or is_integrally_spanned(kernel.hnf).spanned

        q_global = xi_q_global(d1)
        z_global = xi_z_global(d1)
        assert q_global.exact and z_global.exact
        assert q_global.value == z_global.value == expected_value
        # Independent recomputation of the integer value at the target
        # that attains the supremum.
        assert xi_z_at(d1, z_global.attaining_target).value == expected_value

        z2 = xi_zq_global(reduce_mod_q(d1, 2))
        assert z2.exact
        assert z_global.value >= z2.value
        return z2.value

    for n in range(3, 8):
        d1 = presentation_d1(braid_presentation(n))
        family_checks(d1, Fraction((n - 1) // 2))

    for n in (3, 4):
        d1 = presentation_d1(steinberg_presentation(n))
        z2_value = family_checks(d1, Fraction(1, n - 2))
        assert z2_value == Fraction(1, n - 2)

    report(
        "criterion 6",
        started,
        120.0,
        "braid n=3..7 values 1,1,2,2,3 and Steinberg n=3,4 values 1,1/2; "
        "row shape, spanning, Q=Z equality, and the mod-2 bound all hold",
    )


def test_criterion_7_algebra_substrate_identities():
    started = time.monotonic()
    rng = random.Random(20260819)

    for _ in range(500):
        a = rand_matrix(rng, max_dim=5, lo=-5, hi=5)

        h, u = hnf(a)
        assert h == u @ a
        assert abs(det(u)) == 1

        s = snf(a)
        assert s.d == s.u @ a @ s.v
        assert abs(det(s.u)) == 1
        assert abs(det(s.v)) == 1
        factors = s.invariant_factors()
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0

        kernel = integer_kernel_basis(a)
        if kernel.rank > 0:
            assert all(f == 1 for f in snf(kernel.hnf).invariant_factors())

    checked = 0
    while checked < 100:
        a = rand_matrix(rng, max_dim=3, lo=-2, hi=2)
        u = [rng.randint(-1, 1) for _ in range(a.cols)]
        v = mat_vec(a, u)
        if all(x == 0 for x in v):
            continue
        result = xi_z_at(a, v)
        radius = int(sum(abs(e) for e in result.witness))
        boxed = min_l1_preimage_by_box(a, v, radius)
        assert boxed is not None
        weight, _ = boxed
        assert Fraction(weight) == result.value * sum(abs(x) for x in v)
        checked += 1

    report(
        "criterion 7",
        started,
        120.0,
        "HNF/SNF reconstruction, unimodularity, divisibility chains, and "
        "kernel saturation on 500 matrices; integer expansion matches "
        "box search on 100 tiny instances",
    )


def test_criterion_8_cw_campaign_trees_pass_circle_skipped():
    started = time.monotonic()
    outcome = campaign_cw()
    verdicts = {e["instance"]["kind"]: e["verdict"] for e in outcome.entries}
    assert verdicts["segment"] == "pass"
    assert verdicts["path3"] == "pass"
    assert verdicts["path4"] == "pass"
    assert verdicts["star4"] == "pass"
    assert verdicts["filled-triangle"] == "pass"
    assert verdicts["circle"] == "skipped"
    assert verdicts["disk"] == "skipped"
    assert outcome.totals["fail"] == 0
    report(
        "criterion 8",
        started,
        30.0,
        "tree and filled-triangle complexes pass d0/d1 checks; the "
        "circle and disk are skipped (nontrivial H^1), never passed",
    )
