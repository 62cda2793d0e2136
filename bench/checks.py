"""Output checks, independent of the library under test.

Campaign reports hold only exact values, so they are compared entry by
entry with the references recorded in ``refs/``.  A ``span-check``
verdict is compared on ``spanned`` only; a witness is validated with
this module's own exact arithmetic (it is in the rational span of the
projected generators and not in their integer span).  The witness
subset and ``subsets_checked`` are never compared, because faster
spanning tests may legitimately report another failing subset.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def load_reference(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))


class Tally:
    """Operations attempted, failed and skipped, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.messages = []

    def fail(self, message: str, count: int = 1):
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)


def check_campaign(tally: Tally, code, report_path: str, reference) -> None:
    """One report entry is one operation.  An entry fails if its verdict
    is ``fail`` or it differs from the reference entry at its index; a
    crash, an unexpected exit code or a missing report fails every
    reference entry.  ``reference`` is the recorded report or None."""
    expected = reference["entries"] if reference is not None else []
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        entries = report["entries"]
    except (OSError, ValueError, KeyError) as err:
        tally.attempted += max(1, len(expected))
        tally.fail(f"no report ({err}), exit code {code}", max(1, len(expected)))
        return
    tally.attempted += max(len(entries), len(expected))
    tally.skipped += sum(1 for e in entries if e.get("verdict") == "skipped")
    if code != 0:
        tally.fail(f"exit code {code}, expected 0")
    for i, entry in enumerate(entries):
        if entry.get("verdict") == "fail":
            tally.fail(f"entry {i}: verdict fail: {entry.get('detail')}")
        elif reference is not None and (i >= len(expected) or entry != expected[i]):
            tally.fail(f"entry {i}: differs from the reference")
    if len(entries) < len(expected):
        tally.fail(f"{len(expected) - len(entries)} reference entries missing",
                   len(expected) - len(entries))


def check_span(tally: Tally, code, out_path: str, generators, expected: bool) -> None:
    """One ``span-check`` call is one operation."""
    tally.attempted += 1
    if code != 0:
        tally.fail(f"span-check exit code {code}, expected 0")
        return
    try:
        data = json.loads(Path(out_path).read_text(encoding="utf-8"))
        spanned = data["spanned"]
    except (OSError, ValueError, KeyError) as err:
        tally.fail(f"span-check output unreadable: {err}")
        return
    if spanned != expected:
        tally.fail(f"{out_path}: spanned={spanned}, expected {expected}")
        return
    if spanned:
        if data.get("witness_vector") is not None:
            tally.fail(f"{out_path}: spanned verdict carries a witness")
        return
    problem = witness_problem(generators, data.get("witness_subset"),
                              data.get("witness_vector"))
    if problem:
        tally.fail(f"{out_path}: {problem}")


def witness_problem(generators, subset, vector):
    """None when ``vector`` certifies that the projection of
    ``generators`` onto the 1-based ``subset`` is not saturated;
    otherwise the reason it does not."""
    if not subset or vector is None:
        return "unspanned verdict without a witness"
    ambient = len(generators[0])
    if sorted(set(subset)) != list(subset) or subset[0] < 1 or subset[-1] > ambient:
        return f"witness subset {subset} is not a coordinate subset"
    if len(vector) != len(subset) or not all(isinstance(x, int) for x in vector):
        return "witness vector is not an integer vector on the subset"
    projected = [[row[i - 1] for i in subset] for row in generators]
    if not in_rational_span(projected, vector):
        return "witness is not in the rational span of the projection"
    if in_integer_span(projected, vector):
        return "witness is in the integer span of the projection"
    return None


def _rank(rows) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def in_rational_span(rows, vector) -> bool:
    return _rank(rows) == _rank(list(rows) + [list(vector)])


def _echelon(rows) -> list:
    """Integer row echelon form with the same row lattice (extended-gcd
    row operations), zero rows dropped."""
    work = [list(row) for row in rows]
    out = []
    width = len(work[0]) if work else 0
    for c in range(width):
        live = [row for row in work if row[c] != 0]
        if not live:
            continue
        rest = [row for row in work if row[c] == 0]
        pivot = live[0]
        for row in live[1:]:
            a, b = pivot[c], row[c]
            g, x, y = _xgcd(a, b)
            new_pivot = [x * p + y * r for p, r in zip(pivot, row)]
            reduced = [(a // g) * r - (b // g) * p for p, r in zip(pivot, row)]
            pivot = new_pivot
            rest.append(reduced)
        out.append(pivot)
        work = rest
    return out


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def in_integer_span(rows, vector) -> bool:
    rest = list(vector)
    for pivot in _echelon(rows):
        c = next(j for j, x in enumerate(pivot) if x != 0)
        if any(rest[j] != 0 for j in range(c)):
            return False
        if rest[c] % pivot[c]:
            return False
        q = rest[c] // pivot[c]
        rest = [r - q * p for r, p in zip(rest, pivot)]
    return all(x == 0 for x in rest)
