"""The campaign workloads of the benchmark still reproduce its references.

``bench/run.py`` counts every campaign report entry that differs from
``bench/refs/`` as a failed operation.  These tests run the same CLI
calls in process, with the arguments ``bench/workloads.py`` builds, and
compare the entries one by one (``params`` is not compared, as in
``bench/checks.check_campaign``), so a change to a report fails the
test suite before it fails the benchmark.  Nothing under ``bench/`` is
changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from expansion_lab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", ["modq", "presentations"])
def test_campaign_matches_reference(workload, tmp_path):
    (call,) = workloads.plan(workload, 0, tmp_path)
    assert cli.main(call["argv"]) == 0
    ref = BENCH / "refs" / f"{workload}.json"
    got = json.loads(Path(call["out"]).read_text(encoding="utf-8"))["entries"]
    want = json.loads(ref.read_text(encoding="utf-8"))["entries"]
    assert len(got) == len(want)
    for index, (entry, reference) in enumerate(zip(got, want)):
        assert entry == reference, f"{workload} entry {index}"
