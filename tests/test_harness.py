"""Tests for the verification campaign harness.

Covers fixture verdicts, determinism under a fixed seed, report
serialization (JSON and CSV), replayability of recorded instances, and
honest recording of enumeration-cap skips.
"""

import csv
import io
import json
import random
from fractions import Fraction

from expansion_lab.complexes import check_incidence_rows
from expansion_lab.exactla import (
    IntMatrix,
    mat_vec,
    parse_matrix,
    parse_rational,
    parse_vector,
    primitive_ray,
)
from expansion_lab.expansion import xi_q_at, xi_z_at
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


def test_sample_image_targets_are_nonzero_distinct_rays_in_image():
    rng = random.Random(4)
    a = random_incidence_matrix(rng)
    targets = sample_image_targets(rng, a)
    rays = {tuple(primitive_ray(list(v))) for v in targets}
    assert len(rays) == len(targets)
    for v in targets:
        assert any(x != 0 for x in v)
        xi_q_at(a, v)  # raises if v were outside the image


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
        assert xi_q_at(a, v).value == parse_rational(row["xi_q"])
        assert xi_z_at(a, v).value == parse_rational(row["xi_z"])


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

    from expansion_lab import harness

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
    q_val = parse_rational(entry["quantities"]["xi_q"])
    assert parse_rational(entry["quantities"]["xi_z"]) == q_val + 1
    assert q_val == xi_q_at(path3, seen[1]).value


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


def test_modq_cap_hits_are_recorded_as_skips():
    report = campaign_modq(0, 0, primes=(5,), global_work_cap=1, witness_image_cap=1)
    verdicts = {e["verdict"] for e in report.entries}
    assert verdicts == {"skipped"}
    for entry in report.entries:
        assert "cap" in entry["detail"]
    assert report.ok  # skips are honest, not failures


def test_modq_witness_entries_count_images():
    report = campaign_modq(0, 0, primes=(2,))
    witness = next(
        e for e in report.entries if e["instance"].get("check") == "per-witness"
    )
    assert witness["quantities"]["images_checked"] >= 1


# ---------------------------------------------------------------------------
# Presentation campaign.
# ---------------------------------------------------------------------------


def test_presentations_small_range_passes():
    report = campaign_presentations(range(3, 5))
    assert len(report.entries) == 4
    assert all(e["verdict"] == "pass" for e in report.entries)
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


def test_presentations_record_global_values():
    report = campaign_presentations(range(4, 5))
    entry = next(
        e for e in report.entries if e["instance"]["kind"] == "steinberg n=4"
    )
    assert entry["quantities"]["xi_z_global"] == "1/2"
    assert parse_rational(entry["quantities"]["xi_z2_global"]) <= Fraction(1, 2)


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
    assert xi_q_at(a, v).value == parse_rational(entry["quantities"]["lp"])


def test_lemma_oracle_random_targets_are_in_image():
    report = campaign_lemma_oracle(13, 8)
    for entry in report.entries:
        a = parse_matrix(entry["instance"]["matrix"])
        v = parse_vector(entry["instance"]["target"])
        assert any(x != 0 for x in v)
        # Targets were built as A u, so a rational preimage must exist.
        xi_q_at(a, v)
