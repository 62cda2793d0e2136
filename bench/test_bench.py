"""Tests of the benchmark itself: inputs, output checks, tracing, doc.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from expansion_lab import IntMatrix, cli, exactla, expansion, is_integrally_spanned  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def clear_caches():
    for fn in (exactla.hnf, exactla.snf, exactla.integer_kernel_basis,
               expansion._kernel_info, expansion._modq_system):
        fn.cache_clear()


def run_in_process(workload, seed, workdir):
    calls = workloads.plan(workload, seed, workdir)
    workloads.write_inputs(calls)
    return calls, [cli.main(call["argv"]) for call in calls]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MODQ_COUNT", 2)
    monkeypatch.setattr(workloads, "PRESENTATIONS_N_RANGE", "3:5")
    monkeypatch.setattr(workloads, "SPAN_AMBIENTS", (8, 9))
    monkeypatch.setattr(workloads, "SPAN_UNSPANNED_EACH", 2)


def test_same_seed_same_inputs_and_seeds_differ(tmp_path):
    first = workloads.plan("span-scan", 7, tmp_path)
    again = workloads.plan("span-scan", 7, tmp_path)
    other = workloads.plan("span-scan", 8, tmp_path)
    assert [c["text"] for c in first] == [c["text"] for c in again]
    assert [c["text"] for c in first] != [c["text"] for c in other]
    for workload in ("modq", "presentations"):
        assert (workloads.plan(workload, 1, tmp_path)[0]["argv"]
                == workloads.plan(workload, 2, tmp_path)[0]["argv"])


def test_span_batch_shape_and_planted_failure():
    batch = workloads.span_batch(3)
    assert len(batch) == len(workloads.SPAN_AMBIENTS) * (1 + workloads.SPAN_UNSPANNED_EACH)
    for rows, expected in batch:
        assert {x for row in rows for x in row} <= {-1, 0, 1}
        if expected:
            # Incidence columns: at most one +1 and one -1 per coordinate.
            assert len(rows) == workloads.SPAN_VERTICES - 1
            for column in zip(*rows):
                assert column.count(1) <= 1 and column.count(-1) <= 1
            continue
        verdict = is_integrally_spanned(IntMatrix.from_rows(rows))
        subset, vector = verdict.witness
        assert len(subset.indices) == 3
        assert checks.witness_problem(rows, list(subset.indices), list(vector)) is None


def test_tiny_smoke_of_all_workloads_passes_checks(tiny, tmp_path):
    for workload in workloads.WORKLOADS:
        clear_caches()
        calls, codes = run_in_process(workload, 5, tmp_path)
        tally = checks.Tally()
        for call, code in zip(calls, codes):
            if workload == "span-scan":
                checks.check_span(tally, code, call["out"], call["generators"],
                                  call["expected"])
            else:
                checks.check_campaign(tally, code, call["out"], None)
        assert tally.attempted > 0
        assert tally.failed == 0, tally.messages


def test_worker_refuses_warm_caches_then_runs_cold(tiny, tmp_path, capsys):
    clear_caches()
    exactla.snf(exactla.IntMatrix.from_rows([[2]]))
    with pytest.raises(RuntimeError, match="caches not empty"):
        worker.main(["span-scan", "1", "0", str(tmp_path)])
    clear_caches()
    assert worker.main(["span-scan", "1", "0", str(tmp_path)]) == 0
    sample = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [c["code"] for c in sample["calls"]] == [0] * 6
    assert sample["wall_s"] > 0 and sample["peak_rss_mb"] > 0


def test_perturbed_report_entry_counts_as_failed(tmp_path):
    reference = checks.load_reference("presentations")
    report = copy.deepcopy(reference)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    clean = checks.Tally()
    checks.check_campaign(clean, 0, str(path), reference)
    assert (clean.attempted, clean.failed) == (len(reference["entries"]), 0)

    quantities = report["entries"][1]["quantities"]
    quantities["xi_z_global"] = quantities["xi_z_global"] + "1"
    path.write_text(json.dumps(report), encoding="utf-8")
    tally = checks.Tally()
    checks.check_campaign(tally, 0, str(path), reference)
    assert tally.failed == 1

    report["entries"].pop()
    path.write_text(json.dumps(report), encoding="utf-8")
    tally = checks.Tally()
    checks.check_campaign(tally, 1, str(path), reference)
    assert tally.failed == 3  # exit code, the perturbed entry, the missing one


def test_corrupted_witness_counts_as_failed(tmp_path):
    generators = [[1, 1], [1, -1]]
    path = tmp_path / "verdict.json"

    def failed_for(data, expected=False):
        path.write_text(json.dumps(data), encoding="utf-8")
        tally = checks.Tally()
        checks.check_span(tally, 0, str(path), generators, expected)
        return tally.failed

    good = {"spanned": False, "witness_subset": [1, 2], "witness_vector": [1, 0]}
    assert failed_for(good) == 0
    assert failed_for({**good, "witness_vector": [1, 1]}) == 1    # in the Z-span
    assert failed_for({**good, "witness_vector": [0, 0]}) == 1
    assert failed_for({**good, "witness_vector": None}) == 1
    assert failed_for({**good, "witness_subset": [2, 1]}) == 1
    assert failed_for(good, expected=True) == 1                  # wrong verdict
    # A 1-dimensional projection: (2) is rational but (1) is not integral.
    generators[:] = [[2, 0], [0, 2]]
    assert failed_for({**good, "witness_subset": [1], "witness_vector": [1]}) == 0
    assert failed_for({**good, "witness_subset": [1], "witness_vector": [4]}) == 1


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "span-scan", "2", "1", str(tmp_path)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    run_level = {"wall_s", "calib_s", "setup_raw_s", "trace.overhead_s", "trace.overhead_share",
                 "fail_ratio", "skip_ratio"}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names - run_level <= set(sample["trace"])
    assert sample["trace"]["spanning.calls"] == len(workloads.span_batch(2))
    assert sample["trace"]["simplex.calls"] == 0
    assert sample["trace"]["spanning.witness_s"] > 0


def test_doc_lists_every_metric_and_workload():
    doc = (BENCH / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in rows, metric["name"]
        unit, better = rows[metric["name"]][:2]
        assert (unit, better) == (metric["unit"], metric["better"]), metric["name"]
    for metric in SPEC["end_to_end"]:
        assert rows[metric["name"]][2] == str(metric["bound"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert name in rows
