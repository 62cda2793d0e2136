"""Record the reference outputs in ``bench/refs/`` from the current sources.

    python3 bench/record_refs.py

Writes the full ``verify modq`` and ``verify presentations`` reports.
(span-scan needs no recorded reference: every verdict is known from how
its lattice was built.)  References are recorded once, at the commit that defines the benchmark;
a later change that alters a report is caught by ``run.py`` instead of
being re-recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"


def run_calls(cli, calls) -> list:
    workloads.write_inputs(calls)
    outputs = []
    for call in calls:
        code = cli.main(call["argv"])
        if code != 0:
            raise SystemExit(f"{call['argv']} exited {code}")
        outputs.append(json.loads(Path(call["out"]).read_text(encoding="utf-8")))
    return outputs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from expansion_lab import cli

    REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in ("modq", "presentations"):
            (report,) = run_calls(cli, workloads.plan(workload, 0, Path(tmp)))
            text = json.dumps(report, indent=1, sort_keys=True) + "\n"
            (REFS / f"{workload}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
