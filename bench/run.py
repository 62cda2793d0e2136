"""Benchmark entry point.

    python3 bench/run.py --workload {modq,presentations,span-scan}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Launches one fresh worker process at
a time (``bench/worker.py``), so each sample starts with empty caches,
as a CLI user does, and the load is one process on the machine.
Workers are launched until about S seconds have been measured.  Every
worker's outputs are checked (``bench/checks.py``).  With ``--trace 0``
the end-to-end metrics are medians over the workers (``wall_rel`` is the
timed phase over the worker's reference computation, which cancels the
host's speed drift, and ``setup_s`` is scaled by the same reference
computation; raw ``wall_s`` and set-up seconds are printed too); with
``--trace 1`` untraced and traced workers alternate, the per-layer
metrics are medians over the traced ones, ``trace.overhead_s`` is the traced
minus the untraced median ``wall_s`` and ``trace.overhead_share`` the
same comparison of ``wall_rel``, which is free of host drift.

Prints a readable summary, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics that
``BENCHMARK.json`` lists for the mode).  A full record with every
sample, machine info, Python version and git SHA is written to
``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import COVERAGE_EXIT, CoverageError
from worker import REFERENCE_HOST_S

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

#: A run never starts a worker after this many seconds, and kills one
#: still running at HARD_LIMIT, so it always exits within 180 s.
START_LIMIT = 120.0
HARD_LIMIT = 170.0


def median(values):
    return statistics.median(values) if values else 0.0


def upper(values):
    """(label, value): the highest percentile with at least ten samples
    above it, or the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        p = 100 * (n - 10) // n
        return f"p{p}", ordered[max(0, -(-p * n // 100) - 1)]
    return "max", ordered[-1] if ordered else 0.0


def machine_info() -> dict:
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def source_ids() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "expansion_lab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_worker(workload, seed, traced, workdir, timeout):
    """Launch one worker; returns (sample dict or None, error text)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "EXPANSION_LAB_MAX_SUBSETS")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(workdir)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode == COVERAGE_EXIT:
        raise CoverageError(proc.stderr.strip()[-2000:])
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"worker printed no result: {proc.stderr.strip()[-2000:]}"
    # Set-up time follows the host's speed drift as the timed phase does;
    # scaling by the worker's reference computation cancels it.
    sample["setup_raw_s"] = sample["ready"] - launched
    sample["setup_s"] = sample["setup_raw_s"] * REFERENCE_HOST_S / sample["calib_s"]
    sample["traced"] = traced
    return sample, ""


def check_sample(tally, workload, calls, sample, reference):
    for call, result in zip(calls, sample["calls"]):
        if workload == "span-scan":
            checks.check_span(tally, result["code"], call["out"], call["generators"],
                              call["expected"])
        else:
            checks.check_campaign(tally, result["code"], call["out"], reference)


def measure(workload, seed, seconds, trace):
    workdir = OUT / f"work-{os.getpid()}"
    calls = workloads.plan(workload, seed, workdir)
    reference = None if workload == "span-scan" else checks.load_reference(workload)
    tally = checks.Tally()
    samples = []
    errors = []
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        elapsed = time.monotonic() - start
        sample, error = run_worker(workload, seed, traced, workdir,
                                   max(1.0, HARD_LIMIT - elapsed))
        if sample is None:
            errors.append(error)
            tally.attempted += len(calls)
            tally.fail(error, len(calls))
        else:
            samples.append(sample)
            check_sample(tally, workload, calls, sample, reference)
        shutil.rmtree(workdir, ignore_errors=True)
        if sample is None:
            break
        elapsed = time.monotonic() - start
        plain = [s for s in samples if not s["traced"]]
        enough = len(plain) >= (1 if trace else 3) and (not trace or len(plain) < len(samples))
        per_worker = elapsed / len(samples)
        if elapsed > START_LIMIT or (enough and elapsed + per_worker / 2 > seconds):
            break
    return samples, tally, errors, time.monotonic() - start


def summarize(workload, seed, seconds, trace, samples, tally, errors, elapsed, spec):
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    stats = {}
    for key in ("wall_rel", "wall_s", "calib_s", "setup_s", "setup_raw_s", "peak_rss_mb"):
        values = [s[key] for s in plain]
        label, value = upper(values)
        stats[key] = {"median": median(values), label: value, "n": len(values)}
    attempted = max(1, tally.attempted)
    run_level = {
        "fail_ratio": tally.failed / attempted,
        "skip_ratio": tally.skipped / attempted,
    }
    layer = {}
    if traced:
        for key in traced[0]["trace"]:
            layer[key] = median([s["trace"][key] for s in traced])
        layer["trace.overhead_s"] = (median([s["wall_s"] for s in traced])
                                     - stats["wall_s"]["median"])
        layer["trace.overhead_share"] = (median([s["wall_rel"] for s in traced])
                                         / stats["wall_rel"]["median"] - 1)
    layer.update(run_level)
    medians = {key: stat["median"] for key, stat in stats.items()}
    layer.update({key: medians[key] for key in ("wall_s", "calib_s", "setup_raw_s")})

    if trace:
        wanted = spec["per_layer"]
        values = layer
    else:
        wanted = spec["end_to_end"]
        values = medians
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not errors:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": tally.failed == 0 and not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(plain)} untraced + {len(traced)} traced workers in {elapsed:.1f} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, stat in stats.items():
        extra = ", ".join(f"{k} {v:.4g}" for k, v in stat.items() if k not in ("median", "n"))
        print(f"  {key:<12} {stat['median']:.4f} {units.get(key, '')} "
              f"(median; {extra}; n={stat['n']})")
    ref_skip = ""
    if workload != "span-scan":
        totals = checks.load_reference(workload)["totals"]
        ref_skip = f"; reference {totals['skipped'] / sum(totals.values()):.4f}"
    print(f"  fail_ratio   {run_level['fail_ratio']:.4f} ({tally.failed}/{tally.attempted})")
    print(f"  skip_ratio   {run_level['skip_ratio']:.4f} "
          f"({tally.skipped}/{tally.attempted}{ref_skip})")
    if traced:
        print(f"  trace overhead {layer['trace.overhead_s']:.3f} s over the untraced "
              f"median wall_s {stats['wall_s']['median']:.3f} s; "
              f"{layer['trace.overhead_share']:+.1%} in wall_rel")
    for message in tally.messages + errors:
        print(f"  FAIL: {message}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), **source_ids(),
        "params": {k: getattr(workloads, k) for k in dir(workloads) if k.isupper()},
        "end_to_end": stats, "run_level": run_level, "per_layer": layer,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
        "spans": traced[-1]["spans"] if traced else [],
        "failures": tally.messages + errors, "result": result,
    }
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "expansion_lab" / "cli.py").is_file():
        print(f"error: no expansion_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Build step: byte-compile once so no worker pays for compilation.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    try:
        samples, tally, errors, elapsed = measure(args.workload, args.seed, args.seconds,
                                                  bool(args.trace))
    except CoverageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = summarize(args.workload, args.seed, args.seconds, bool(args.trace), samples,
                       tally, errors, elapsed, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
