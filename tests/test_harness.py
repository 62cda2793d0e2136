"""Tests for the verification campaign harness.

Covers fixture verdicts, determinism under a fixed seed, report
serialization (JSON and CSV), replayability of recorded instances, and
honest recording of enumeration-cap skips.
"""

import csv
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expansion_lab import complexes, expansion, harness
from expansion_lab.complexes import (
    braid_presentation,
    check_incidence_rows,
    presentation_d1,
    steinberg_presentation,
)
from expansion_lab.errors import UndefinedExpansionError
from expansion_lab.exactla import (
    IntMatrix,
    _blocks,
    format_matrix,
    mat_vec,
    parse_matrix,
    parse_vector,
    primitive_ray,
)
from expansion_lab.expansion import (
    iter_image_with_preimage,
    modq_rank,
    reduce_mod_q,
    xi_q_at,
    xi_z_at,
    xi_zq_at,
    xi_zq_global,
)
from expansion_lab.harness import (
    CampaignReport,
    campaign_cw,
    campaign_equality,
    campaign_lemma_oracle,
    campaign_modq,
    campaign_presentations,
    default_cw_fixtures,
    random_incidence_matrix,
    sample_image_targets,
)

from conftest import (
    kernel_spanned_by_whole_matrix,
    repeated_row_matrices,
    sample_image_targets_by_rows,
    targets_equal_by_whole_matrix,
    witness_loop_by_whole_matrix,
)


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------


def test_report_totals_and_ok():
    report = CampaignReport("demo", 1, {})
    report.add({"kind": "a"}, "pass", "fine", {})
    report.add({"kind": "b"}, "skipped", "capped", {})
    assert report.totals == {"pass": 1, "fail": 0, "skipped": 1}
    assert report.ok
    report.add({"kind": "c"}, "fail", "broken", {"xi_q": "1/2"})
    assert report.totals == {"pass": 1, "fail": 1, "skipped": 1}
    assert not report.ok


def test_report_entries_are_indexed_in_order():
    report = CampaignReport("demo", None, {})
    for _ in range(5):
        report.add({}, "pass", "", {})
    assert [e["index"] for e in report.entries] == [0, 1, 2, 3, 4]


def test_report_json_roundtrip():
    report = campaign_equality(3, 2)
    data = json.loads(report.to_json())
    assert data["campaign"] == "equality"
    assert data["seed"] == 3
    assert data["totals"] == report.totals
    assert data["ok"] is report.ok
    assert len(data["entries"]) == len(report.entries)
    for entry in data["entries"]:
        assert set(entry) == {"index", "instance", "verdict", "detail", "quantities"}


def test_report_csv_shape():
    report = campaign_equality(3, 2)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["campaign", "index", "verdict", "detail", "instance", "quantities"]
    assert len(rows) == 1 + len(report.entries)
    # Instance and quantities cells are JSON so the row is self-contained.
    instance = json.loads(rows[1][4])
    assert "matrix" in instance


def test_campaigns_are_deterministic_given_seed():
    assert campaign_equality(11, 6).to_json() == campaign_equality(11, 6).to_json()
    assert campaign_modq(5, 3).to_json() == campaign_modq(5, 3).to_json()
    assert (
        campaign_lemma_oracle(9, 10).to_json() == campaign_lemma_oracle(9, 10).to_json()
    )


# ---------------------------------------------------------------------------
# Instance generators.
# ---------------------------------------------------------------------------


def test_random_incidence_matrix_rows_are_incidence_shaped():
    rng = random.Random(2)
    for _ in range(40):
        a = random_incidence_matrix(rng)
        check_incidence_rows(a)
        assert 2 <= a.cols <= 8
        assert 1 <= a.rows <= 10


def test_incidence_thresholds_split_random_floats_as_fractions():
    # random() returns k * 2^-53; no such value lies between 1/10 and
    # the float 0.1, or between 1/5 and the float 0.2, so comparing with
    # the floats draws the same edges as comparing with the fractions.
    for threshold in (Fraction(1, 10), Fraction(1, 5)):
        centre = int(threshold * 2**53)
        for k in range(centre - 1000, centre + 1001):
            x = k / 2**53
            assert Fraction(x) == Fraction(k, 2**53)
            assert (x < float(threshold)) == (x < threshold), k


def test_sample_image_targets_are_nonzero_distinct_rays_in_image():
    rng = random.Random(4)
    a = random_incidence_matrix(rng)
    targets = sample_image_targets(rng, a)
    rays = {tuple(primitive_ray(list(v))) for v in targets}
    assert len(rays) == len(targets)
    for v in targets:
        assert any(x != 0 for x in v)
        xi_q_at(a, v)  # raises if v were outside the image


@settings(max_examples=200, deadline=None)
@given(repeated_row_matrices(), st.integers(0, 2**32))
def test_sample_image_targets_match_dense_oracle(a, seed):
    # Distinct rows are multiplied once per draw and rays keyed on them;
    # the targets and the rng stream are those of the dense product.
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert sample_image_targets(rng, a) == sample_image_targets_by_rows(oracle_rng, a)
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_sample_image_targets_on_steinberg_d1_match_dense_oracle(n):
    a = presentation_d1(steinberg_presentation(n))
    rng, oracle_rng = random.Random(n), random.Random(n)
    assert sample_image_targets(rng, a) == sample_image_targets_by_rows(oracle_rng, a)
    assert rng.getstate() == oracle_rng.getstate()


def test_sample_image_targets_zero_matrix_gives_nothing():
    rng = random.Random(4)
    assert sample_image_targets(rng, IntMatrix.zeros(2, 3)) == []


# ---------------------------------------------------------------------------
# Equality campaign.
# ---------------------------------------------------------------------------


def test_equality_fixtures_pass_and_control_sees_the_gap():
    report = campaign_equality(0, 0)
    assert len(report.entries) == 4
    assert report.ok
    control = report.entries[3]
    assert control["instance"]["kind"] == "negative control"
    assert control["verdict"] == "pass"
    assert control["quantities"] == {"xi_q": "1/2", "xi_z": "1"}


def test_equality_random_entries_record_compared_values():
    report = campaign_equality(1, 5)
    randoms = [e for e in report.entries if e["instance"]["kind"] == "random"]
    assert len(randoms) == 5
    for entry in randoms:
        assert entry["verdict"] == "pass"
        if "targets" in entry["quantities"]:
            for row in entry["quantities"]["targets"]:
                assert row["xi_q"] == row["xi_z"]


def test_equality_entries_are_replayable_from_the_report():
    report = campaign_equality(8, 3)
    entry = next(
        e
        for e in report.entries
        if e["instance"]["kind"] == "random" and "targets" in e["quantities"]
    )
    a = parse_matrix(entry["instance"]["matrix"])
    for row in entry["quantities"]["targets"]:
        v = parse_vector(row["target"])
        assert xi_q_at(a, v).value == Fraction(row["xi_q"])
        assert xi_z_at(a, v).value == Fraction(row["xi_z"])


def test_equality_unspanned_kernel_is_a_recorded_failure():
    from expansion_lab.harness import _equality_entry

    report = CampaignReport("equality", 0, {})
    rng = random.Random(0)
    _equality_entry(report, rng, IntMatrix.from_rows([[1, 2]]), "random")
    assert report.entries[0]["verdict"] == "fail"
    assert "not integrally spanned" in report.entries[0]["detail"]
    assert parse_matrix(report.entries[0]["instance"]["matrix"]) == IntMatrix.from_rows(
        [[1, 2]]
    )
    assert not report.ok


def test_equality_mismatch_records_the_failing_target(monkeypatch):
    from dataclasses import replace

    real_xi_z_at = harness.xi_z_at
    seen = []

    def skewed(a, v):
        # the integer value is wrong from the second target on
        seen.append(v)
        res = real_xi_z_at(a, v)
        return res if len(seen) < 2 else replace(res, value=res.value + 1)

    monkeypatch.setattr(harness, "xi_z_at", skewed)
    report = CampaignReport("equality", 0, {})
    path3 = IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    harness._equality_entry(report, random.Random(0), path3, "random")
    entry = report.entries[0]
    assert entry["verdict"] == "fail"
    assert len(seen) == 2
    assert parse_vector(entry["instance"]["target"]) == seen[1]
    q_val = Fraction(entry["quantities"]["xi_q"])
    assert Fraction(entry["quantities"]["xi_z"]) == q_val + 1
    assert q_val == xi_q_at(path3, seen[1]).value


# ---------------------------------------------------------------------------
# Block-wise kernel and per-target checks.
# ---------------------------------------------------------------------------


def with_zero_lines(a, rng):
    """``a`` with zero rows and zero columns inserted at random places
    and its rows and columns shuffled, so that blocks interleave."""
    rows = [list(a.row(i)) for i in range(a.rows)]
    cols = a.cols
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, cols)
        rows = [row[:at] + [0] + row[at:] for row in rows]
        cols += 1
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * cols)
    order = list(range(cols))
    rng.shuffle(order)
    rng.shuffle(rows)
    return IntMatrix.from_rows([[row[j] for j in order] for row in rows], cols=cols)


@st.composite
def targets_cases(draw):
    """A matrix for the per-target check: a random incidence matrix, a
    block-diagonal sum of up to three parts (incidence matrices, or a
    random 1x2 or 1x3 row, whose kernel may be unspanned and whose
    values may differ) with zero rows and columns interleaved, or the
    ``d1`` of a braid or Steinberg presentation on 2 to 6 strands."""
    kind = draw(st.sampled_from(("incidence", "sum", "presentation")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "incidence":
        return random_incidence_matrix(rng, max_edges=8)
    if kind == "presentation":
        build = draw(st.sampled_from((braid_presentation, steinberg_presentation)))
        return presentation_d1(build(draw(st.integers(2, 6))))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            parts.append(random_incidence_matrix(rng, max_edges=4))
        else:
            width = rng.randint(2, 3)
            parts.append(
                IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(width)]])
            )
    return with_zero_lines(block_diagonal(parts), rng)


@settings(max_examples=200, deadline=None)
@given(targets_cases(), st.integers(0, 2**32))
def test_block_targets_check_matches_the_whole_matrix(a, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert harness._matrix_targets_equal(rng, a) == targets_equal_by_whole_matrix(
        oracle_rng, a
    )
    # The same draws leave the stream in the same state.
    assert rng.random() == oracle_rng.random()
    assert harness._kernel_spanned(a) == kernel_spanned_by_whole_matrix(a)


@pytest.mark.parametrize(
    "rows, cols, expected",
    [
        # The zero matrix: no block, every column a unit vector.
        ([[0, 0, 0], [0, 0, 0]], 3, (True, "kernel rank 3")),
        # Zero columns add one unit vector each to the kernel.
        ([[0, 1, -1, 0, 0]], 5, (True, "kernel rank 4")),
        # Zero rows belong to no block.
        ([[1, -1, 0], [0, 0, 0], [0, 1, -1]], 3, (True, "kernel rank 1")),
        # [[1, 2]] + [[1, -1]]: the first block's kernel (2, -1) is
        # unspanned (its projection on column 1 is 2Z).
        ([[1, 2, 0, 0], [0, 0, 1, -1]], 4, (False, "kernel rank 2")),
    ],
)
def test_block_kernel_check_matches_the_whole_matrix(rows, cols, expected):
    a = IntMatrix.from_rows(rows, cols=cols)
    assert kernel_spanned_by_whole_matrix(a) == expected
    assert harness._kernel_spanned(a) == expected


def record_block_searches(monkeypatch):
    """Clear the ``_blocks`` cache and record, in a list it returns,
    every matrix whose blocks any module asks for; the cache's misses
    then count the block searches."""
    _blocks.cache_clear()
    asked = []

    def blocks_of(a):
        asked.append(a)
        return _blocks(a)

    for module in (complexes, expansion, harness):
        monkeypatch.setattr(module, "_blocks", blocks_of)
    return asked


@pytest.mark.parametrize(
    "run, matrices",
    [
        (lambda: campaign_presentations(range(3, 8)), 10),
        (lambda: campaign_equality(5, 20), 23),
    ],
    ids=["presentations", "equality"],
)
def test_targets_check_solves_each_block_target_once_per_matrix(
    monkeypatch, run, matrices
):
    # Every check reads the blocks of its matrix from the cached
    # _blocks, which searches each distinct matrix once; each distinct
    # (block, v_b) is solved once per matrix over Q and once over Z.
    # The equality campaign's negative control solves outside these
    # checks.
    plain = run().to_json()
    seen, targets, q_solves, z_solves = [], [], [], []
    inside = []

    def sample(rng, a):
        out = sample_image_targets(rng, a)
        targets[-1].extend(out)
        return out

    real_check = harness._matrix_targets_equal

    def check(rng, a):
        seen.append(a)
        for calls in (targets, q_solves, z_solves):
            calls.append([])
        inside.append(True)
        try:
            return real_check(rng, a)
        finally:
            inside.pop()

    def recording(solve, calls):
        def wrapped(a, v):
            if inside:
                calls[-1].append((a, tuple(v)))
            return solve(a, v)

        return wrapped

    asked = record_block_searches(monkeypatch)
    monkeypatch.setattr(harness, "sample_image_targets", sample)
    monkeypatch.setattr(harness, "_matrix_targets_equal", check)
    monkeypatch.setattr(harness, "xi_q_at", recording(xi_q_at, q_solves))
    monkeypatch.setattr(harness, "xi_z_at", recording(xi_z_at, z_solves))
    assert run().to_json() == plain
    assert _blocks.cache_info().misses == len(set(asked))
    assert set(seen) <= set(asked)
    assert len(seen) == matrices
    pairs = 0
    for a, vs, q_calls, z_calls in zip(seen, targets, q_solves, z_solves):
        blocks = _blocks(a)
        expected = set()
        for v in vs:
            for rows, _, block in blocks:
                v_b = tuple(v[i] for i in rows)
                if any(v_b):
                    expected.add((block, v_b))
        for calls in (q_calls, z_calls):
            assert len(calls) == len(set(calls))
            assert set(calls) == expected
        pairs += len(vs) * len(blocks)
    assert sum(map(len, q_solves)) < pairs


def test_campaign_reports_match_the_whole_matrix_checks(monkeypatch):
    def reports():
        return [
            campaign_presentations(range(2, 8)).to_json(),
            campaign_cw().to_json(),
            *(campaign_equality(seed, 20).to_json() for seed in range(3)),
            campaign_modq(0, 10, (2, 3)).to_json(),
        ]

    plain = reports()
    monkeypatch.setattr(
        harness,
        "_matrix_targets_equal",
        lambda rng, a: targets_equal_by_whole_matrix(rng, a),
    )
    monkeypatch.setattr(harness, "_kernel_spanned", kernel_spanned_by_whole_matrix)
    assert reports() == plain


# ---------------------------------------------------------------------------
# CW campaign.
# ---------------------------------------------------------------------------


def test_cw_default_fixtures_verdicts():
    report = campaign_cw()
    verdicts = {e["instance"]["kind"]: e["verdict"] for e in report.entries}
    assert verdicts == {
        "segment": "pass",
        "path3": "pass",
        "path4": "pass",
        "star4": "pass",
        "filled-triangle": "pass",
        "circle": "skipped",
        "disk": "skipped",
    }
    assert report.ok
    skipped = [e for e in report.entries if e["verdict"] == "skipped"]
    for entry in skipped:
        assert "nontrivial" in entry["detail"]


def test_cw_records_both_lattice_sides():
    report = campaign_cw()
    entry = next(e for e in report.entries if e["instance"]["kind"] == "path3")
    assert entry["quantities"]["ker_d1_hnf"] == entry["quantities"]["im_d0_hnf"]


def test_cw_accepts_custom_complex_list():
    fixtures = [f for f in default_cw_fixtures() if f[0] == "segment"]
    report = campaign_cw(fixtures)
    assert len(report.entries) == 1
    assert report.entries[0]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# Mod-q campaign.
# ---------------------------------------------------------------------------


def test_modq_fixtures_include_a_tight_case():
    report = campaign_modq(0, 0, primes=(2,))
    assert report.ok
    entry = report.entries[0]
    assert entry["instance"]["q"] == 2
    assert entry["verdict"] == "pass"
    # A = [[1, -1]], q = 2: both sides equal 1, so the bound is tight.
    assert entry["quantities"]["(q-1)*xi_z_global"] == "1"
    assert entry["quantities"]["xi_zq_global"] == "1"


def test_modq_empty_primes_gives_empty_report():
    report = campaign_modq(0, 5, primes=())
    assert report.entries == []
    assert report.ok


def test_modq_runs_global_and_witness_parts_per_prime():
    report = campaign_modq(2, 2, primes=(2, 3))
    kinds = [
        (e["instance"].get("q"), e["instance"].get("check", "global"))
        for e in report.entries
        if e["verdict"] != "skipped" or True
    ]
    # Two fixtures + two randoms, two primes, two parts each; zero
    # matrices would collapse to a single skip but none occur here.
    assert len(kinds) >= 2 * 2 * 2
    assert report.ok


def test_modq_cap_hits_are_recorded_as_skips(monkeypatch):
    monkeypatch.setattr(harness, "_GLOBAL_WORK_CAP", 1)
    monkeypatch.setattr(harness, "_WITNESS_IMAGE_CAP", 1)
    report = campaign_modq(0, 0, primes=(5,))
    verdicts = {e["verdict"] for e in report.entries}
    assert verdicts == {"skipped"}
    for entry in report.entries:
        assert "cap 1" in entry["detail"]
    assert report.params["global_work_cap"] == 1
    assert report.params["witness_image_cap"] == 1
    assert report.ok  # skips are honest, not failures


def test_modq_inexact_global_value_is_a_skip_not_a_fail(monkeypatch):
    # Past the candidate cap xi_q_global is a sampled lower bound (2/3
    # on one matrix whose mod-2 value is 1), so the global check cannot
    # be decided from it.
    monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
    report = campaign_modq(20260819, 20, (2, 3, 5))
    assert report.ok
    skips = [e for e in report.entries if "lower bound" in e["detail"]]
    assert skips
    for entry in skips:
        assert entry["verdict"] == "skipped"
        assert "check" not in entry["instance"]
        assert "_MAX_CANDIDATES = 0" in entry["detail"]


def test_presentations_inexact_global_value_is_a_skip(monkeypatch):
    monkeypatch.setattr(expansion, "_MAX_CANDIDATES", 0)
    report = campaign_presentations(range(4, 5))
    entry = next(e for e in report.entries if e["instance"]["kind"] == "braid n=4")
    assert entry["verdict"] == "skipped"
    assert "_MAX_CANDIDATES = 0" in entry["detail"]
    assert "xi_z2_global" not in entry["quantities"]


def test_modq_witness_entries_count_images():
    report = campaign_modq(0, 0, primes=(2,))
    witness = next(
        e for e in report.entries if e["instance"].get("check") == "per-witness"
    )
    assert witness["quantities"]["images_checked"] >= 1


def test_modq_solves_each_lifted_target_once_per_matrix(monkeypatch):
    # The block tables solve each nonzero image of each distinct block
    # once per (matrix, q), through harness.xi_zq_at, lift its witness
    # through harness.mat_vec, and solve each lifted block target once
    # per matrix, through harness.xi_z_at; targets recur across the
    # primes.  Seed 6 draws a matrix with repeated blocks.  The cached
    # _blocks searches each distinct matrix once.
    primes = (2, 3, 5)
    plain = campaign_modq(6, 3, primes=primes).to_json()
    matrices, asked, lifted, solved = [], [], [], []
    real_tables = harness._block_tables

    def tables(a, q, z_at):
        if not matrices or matrices[-1] is not a:
            matrices.append(a)
            for calls in (asked, lifted, solved):
                calls.append([])
        return real_tables(a, q, z_at)

    def solve_q(block_q, w_b):
        asked[-1].append((block_q, tuple(w_b)))
        return xi_zq_at(block_q, w_b)

    def lift_target(a, u):
        t = mat_vec(a, u)
        lifted[-1].append((a, t))
        return t

    def solve(a, v):
        solved[-1].append((a, tuple(v)))
        return xi_z_at(a, v)

    searched = record_block_searches(monkeypatch)
    monkeypatch.setattr(harness, "_block_tables", tables)
    monkeypatch.setattr(harness, "xi_zq_at", solve_q)
    monkeypatch.setattr(harness, "mat_vec", lift_target)
    monkeypatch.setattr(harness, "xi_z_at", solve)
    report = campaign_modq(6, 3, primes=primes)
    assert report.to_json() == plain
    assert _blocks.cache_info().misses == len(set(searched))
    assert set(matrices) <= set(searched)
    assert any(len(_blocks(a)) > len({b for _, _, b in _blocks(a)}) for a in matrices)
    for a, images, lifts, solves in zip(matrices, asked, lifted, solved):
        expected = set()
        for q in primes:
            if q ** modq_rank(reduce_mod_q(a, q)) > harness._WITNESS_IMAGE_CAP:
                continue
            for block in {block for _, _, block in _blocks(a)}:
                block_q = reduce_mod_q(block, q)
                expected |= {(block_q, w) for w, _ in iter_image_with_preimage(block_q)}
        assert len(images) == len(expected)
        assert set(images) == expected
        assert len(lifts) == len(images)
        assert len(solves) == len(set(solves))
        assert set(solves) == set(lifts)
    checked = sum(
        e["quantities"].get("images_checked", 0) for e in report.entries
    )
    assert sum(map(len, lifted)) < checked


@st.composite
def modq_witness_cases(draw):
    """``(a, q)``: a random incidence matrix or a block-diagonal sum of
    up to three, with at most as many rows as keep ``q ** rank`` within
    256, the campaign's witness cap."""
    q = draw(st.sampled_from((2, 3, 5)))
    budget = {2: 8, 3: 5, 5: 3}[q]
    k = draw(st.integers(1, 3))
    parts = [
        random_incidence_matrix(
            random.Random(draw(st.integers(0, 2**32))), max_edges=budget // k
        )
        for _ in range(k)
    ]
    return block_diagonal(parts), q


def block_diagonal(parts):
    """The block-diagonal sum of the matrices ``parts``."""
    cols = sum(p.cols for p in parts)
    rows = []
    offset = 0
    for p in parts:
        for i in range(p.rows):
            rows.append([0] * offset + list(p.row(i)) + [0] * (cols - offset - p.cols))
        offset += p.cols
    return IntMatrix.from_rows(rows, cols=cols)


@st.composite
def general_witness_cases(draw, up_to_q=False):
    """``(a, q)``: a 1-3 x 1-4 matrix with entries in [-2, 2], where the
    certificate of ``harness._witness_check`` often fails and the
    per-witness inequality often does too.  With ``up_to_q`` the entries
    lie in [-q, q], so that some blocks of ``a`` split mod q and some
    matrices vanish mod q."""
    q = draw(st.sampled_from((2, 3, 5)))
    bound = q if up_to_q else 2
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    size = rows * cols
    entries = draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
    return IntMatrix(rows, cols, tuple(entries)), q


@settings(max_examples=300, deadline=None)
@given(st.one_of(modq_witness_cases(), general_witness_cases()))
def test_block_witness_loop_matches_the_whole_matrix_loop(case):
    a, q = case
    reduced = reduce_mod_q(a, q)
    checked, bad, seen = witness_loop_by_whole_matrix(a, q)
    tables = harness._block_tables(a, q, {})
    assert harness._witness_check(a, reduced, tables) == (checked, bad)
    walked = [
        (w, Fraction(wt, hw), harness._lifted_target(a, parts), Fraction(m, norm))
        for w, wt, hw, m, norm, parts in harness._block_witnesses(a, reduced, tables)
    ]
    assert walked[:checked] == seen
    assert bad is not None or len(walked) == checked


def record_walks(monkeypatch):
    """Record, in a list it returns, every matrix whose whole image
    ``harness._block_witnesses`` walks: the fallback of the witness
    check, run only when its certificate fails."""
    walked = []
    real_walk = harness._block_witnesses

    def walk(a, reduced, tables):
        walked.append(a)
        return real_walk(a, reduced, tables)

    monkeypatch.setattr(harness, "_block_witnesses", walk)
    return walked


@pytest.mark.parametrize(
    "rows, q, walks, passes",
    [
        # Incidence rows: the certificate holds at lam = q - 1.
        ([[1, -1, 0], [0, 1, -1]], 3, False, True),
        # norm_b / hw_b reaches 8 at w = 2 (u = 4, t = -8), above the
        # least (q - 1) * m_b / wt_b, 4 at w = 3 (u = 1, t = -2), but
        # each w passes on its own.
        ([[-2]], 5, True, True),
        # The column (0, 1) mod 2: w = (0, 1) lifts to t = (-2, -1),
        # whose integer minimum 1 is below wt / hw * norm = 3.
        ([[-2], [-1]], 2, True, False),
    ],
)
def test_witness_check_walks_only_when_the_certificate_fails(
    monkeypatch, rows, q, walks, passes
):
    a = IntMatrix.from_rows(rows)
    walked = record_walks(monkeypatch)
    checked, bad, _ = witness_loop_by_whole_matrix(a, q)
    tables = harness._block_tables(a, q, {})
    assert harness._witness_check(a, reduce_mod_q(a, q), tables) == (checked, bad)
    assert bool(walked) == walks
    assert (bad is None) == passes


def test_modq_campaign_never_walks_the_whole_image(monkeypatch):
    walked = record_walks(monkeypatch)
    report = campaign_modq(20260819, 20)
    assert report.ok
    assert report.totals["pass"] > 100
    assert not walked


@settings(max_examples=100, deadline=None)
@given(modq_witness_cases())
def test_block_coset_witness_is_the_whole_witness_restricted(case):
    a, q = case
    reduced = reduce_mod_q(a, q)
    blocks = _blocks(a)
    in_blocks = {j for _, cols, _ in blocks for j in cols}
    for w, _ in iter_image_with_preimage(reduced):
        whole = xi_zq_at(reduced, w).witness
        assert all(whole[j] == 0 for j in range(a.cols) if j not in in_blocks)
        for rows, cols, block in blocks:
            w_b = tuple(w[i] for i in rows)
            restricted = tuple(whole[j] for j in cols)
            # Reduction commutes with taking the submatrix.
            block_q = reduce_mod_q(block, q)
            cut = tuple(reduced.at(i, j) for i in rows for j in cols)
            assert block_q.entries == cut
            if any(w_b):
                assert xi_zq_at(block_q, w_b).witness == restricted
            else:
                assert not any(restricted)


def test_modq_reports_match_the_whole_matrix_loop(monkeypatch):
    plain = [campaign_modq(seed, 20, (2, 3, 5)).to_json() for seed in range(3)]

    def whole_matrix_check(a, reduced, tables):
        return witness_loop_by_whole_matrix(a, reduced.q)[:2]

    monkeypatch.setattr(harness, "_witness_check", whole_matrix_check)
    assert [campaign_modq(seed, 20, (2, 3, 5)).to_json() for seed in range(3)] == plain


@settings(max_examples=300, deadline=None)
@given(st.one_of(modq_witness_cases(), general_witness_cases(up_to_q=True)))
# One block of ``a`` that splits mod 2 into two, and a matrix that
# vanishes mod 3.
@example((IntMatrix.from_rows([[1, 2], [0, 1]]), 2))
@example((IntMatrix.from_rows([[3, -3]]), 3))
def test_table_maximum_is_the_global_value(case):
    a, q = case
    reduced = reduce_mod_q(a, q)
    tables = harness._block_tables(a, q, {})
    try:
        want = xi_zq_global(reduced).value
    except UndefinedExpansionError:
        assert not any(tables.values())
        with pytest.raises(UndefinedExpansionError, match="zero image"):
            harness._zq_global_value(reduced, tables)
        return
    assert harness._zq_global_value(reduced, tables) == want


def test_modq_reports_match_the_global_walk(monkeypatch):
    # The global value read off the witness tables gives the report of
    # xi_zq_global walking every image, on every pair.
    seeds, primes = (0, 1, 2, 20260819), (2, 3, 5, 7)
    plain = [campaign_modq(seed, 20, primes).to_json() for seed in seeds]
    real_value = harness._zq_global_value

    def walked_value(reduced, tables):
        return real_value(reduced, None)

    monkeypatch.setattr(harness, "_zq_global_value", walked_value)
    assert [campaign_modq(seed, 20, primes).to_json() for seed in seeds] == plain


def test_modq_walks_the_global_image_only_past_the_witness_cap(monkeypatch):
    walked = []

    def walk(reduced):
        walked.append(reduced)
        return xi_zq_global(reduced)

    monkeypatch.setattr(harness, "xi_zq_global", walk)
    report = campaign_modq(20260819, 20, (2, 3, 5, 7))
    assert report.ok
    # Each (matrix, q) reports its global entry, then its witness entry.
    entries = report.entries
    pairs = list(zip(entries[0::2], entries[1::2]))
    assert len(pairs) * 2 == len(entries)
    assert all(w["instance"] == {**g["instance"], "check": "per-witness"} for g, w in pairs)
    ran = [(g["instance"], w) for g, w in pairs if g["verdict"] != "skipped"]
    capped = [
        reduce_mod_q(parse_matrix(instance["matrix"]), instance["q"])
        for instance, w in ran
        if "witness loop needs" in w["detail"]
    ]
    # 10 capped pairs at q = 5 and 7 walk the image; the other 67 global
    # checks read the witness tables.
    assert walked == capped
    assert (len(walked), len(ran)) == (10, 77)
    assert {a.q for a in walked} == {5, 7}


def _zero_minimum(a, v):
    """A wrong integer solver: minimum 0 at every target."""
    return replace(xi_z_at(a, v), value=Fraction(0), witness=(0,) * a.cols)


def _zero_minimum_past_one(a, v):
    """A wrong integer solver: minimum 0 at every target with an entry
    of size 2 or more."""
    res = xi_z_at(a, v)
    if max(map(abs, v)) < 2:
        return res
    return _zero_minimum(a, v)


@pytest.mark.parametrize(
    "rows, q, solver, first",
    [
        # Two blocks on interleaved columns and a zero column: the first
        # image vector fails, and its lifted target joins both blocks.
        ([[1, 0, -1, 0, 0], [0, 1, 0, -1, 0], [0, 0, 1, 0, 0]], 3, _zero_minimum, True),
        # One block: only a lifted target with an entry 2 fails, later
        # in the walk.
        ([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]], 3, _zero_minimum_past_one, False),
    ],
)
def test_modq_witness_violation_is_reported_as_the_oracle_finds_it(
    monkeypatch, rows, q, solver, first
):
    a = IntMatrix.from_rows(rows)
    checked, bad, _ = witness_loop_by_whole_matrix(a, q, solver)
    assert bad is not None
    assert (checked == 1) == first
    monkeypatch.setattr(harness, "random_incidence_matrix", lambda rng: a)
    monkeypatch.setattr(harness, "xi_z_at", solver)
    walked = record_walks(monkeypatch)
    report = campaign_modq(0, 1, primes=(q,))
    assert walked[-1] == a
    entry = report.entries[-1]
    assert entry["instance"]["matrix"] == format_matrix(a)
    assert entry["instance"]["check"] == "per-witness"
    assert entry["verdict"] == "fail"
    assert entry["detail"] == "per-witness inequality violated"
    assert entry["quantities"] == bad
    assert not report.ok


# ---------------------------------------------------------------------------
# Presentation campaign.
# ---------------------------------------------------------------------------


def test_presentations_small_range_passes():
    report = campaign_presentations(range(3, 5))
    assert len(report.entries) == 4
    assert all(e["verdict"] == "pass" for e in report.entries)
    assert report.ok


def test_presentations_two_strands_are_skipped_zero_images():
    # At n = 2 both families have a d1 with no rows; n = 3 is reported
    # as if the range began there.
    report = campaign_presentations(range(2, 4))
    assert [e["instance"]["kind"] for e in report.entries[:2]] == [
        "braid n=2",
        "steinberg n=2",
    ]
    for entry in report.entries[:2]:
        assert entry["verdict"] == "skipped"
        assert "zero image" in entry["detail"]
    tail = [dict(e, index=e["index"] - 2) for e in report.entries[2:]]
    assert tail == campaign_presentations(range(3, 4)).entries
    assert report.ok


def test_presentations_large_steinberg_is_skipped_not_passed():
    report = campaign_presentations(range(5, 6))
    by_kind = {e["instance"]["kind"]: e for e in report.entries}
    assert by_kind["braid n=5"]["verdict"] == "pass"
    entry = by_kind["steinberg n=5"]
    assert entry["verdict"] == "skipped"
    assert "2^20" in entry["detail"]
    # The parts that did run are still recorded.
    assert "xi_z_global" in entry["quantities"]


def test_presentations_chain_cap_is_recorded_as_skip(monkeypatch):
    monkeypatch.setattr(harness, "_ZQ_WORK_CAP", 1)
    report = campaign_presentations(range(3, 4))
    assert report.params["zq_work_cap"] == 1
    assert [e["verdict"] for e in report.entries] == ["skipped", "skipped"]
    for entry in report.entries:
        assert "mod-2 chain needs" in entry["detail"]
        assert "xi_z2_global" not in entry["quantities"]
    assert report.ok


def test_presentations_record_global_values():
    report = campaign_presentations(range(4, 5))
    entry = next(
        e for e in report.entries if e["instance"]["kind"] == "steinberg n=4"
    )
    assert entry["quantities"]["xi_z_global"] == "1/2"
    assert Fraction(entry["quantities"]["xi_z2_global"]) <= Fraction(1, 2)


# ---------------------------------------------------------------------------
# Lemma-oracle campaign.
# ---------------------------------------------------------------------------


def test_lemma_oracle_fixture_agrees_at_one_half():
    report = campaign_lemma_oracle(0, 0)
    entry = report.entries[0]
    assert entry["instance"]["kind"] == "fixture"
    assert entry["verdict"] == "pass"
    assert entry["quantities"] == {"lp": "1/2", "face_oracle": "1/2"}


def test_lemma_oracle_randoms_pass_and_replay():
    report = campaign_lemma_oracle(6, 12)
    assert report.ok
    randoms = [e for e in report.entries if e["instance"]["kind"] == "random"]
    assert len(randoms) == 12
    entry = randoms[0]
    a = parse_matrix(entry["instance"]["matrix"])
    v = parse_vector(entry["instance"]["target"])
    assert xi_q_at(a, v).value == Fraction(entry["quantities"]["lp"])


def test_lemma_oracle_random_targets_are_in_image():
    report = campaign_lemma_oracle(13, 8)
    for entry in report.entries:
        a = parse_matrix(entry["instance"]["matrix"])
        v = parse_vector(entry["instance"]["target"])
        assert any(x != 0 for x in v)
        # Targets were built as A u, so a rational preimage must exist.
        xi_q_at(a, v)
