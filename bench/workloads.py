"""Workload definitions and the seeded input generator.

Every workload is a list of argument vectors for
``expansion_lab.cli.main``.  The benchmark seed only reaches the program
through the files and arguments built here.

* ``modq``: ``verify modq --primes 2,3,5`` on the incidence family of
  acceptance criterion 5 (campaign seed 20260819).  The campaign builds
  its instances itself from its own seed, and their costs are heavy
  tailed (150 single-instance campaigns: mean 0.17 s, sd 0.26 s, max
  2.1 s), so a seed-varied batch of any size that fits a run spreads far
  beyond the benchmark's bound.  The family is therefore fixed and, like
  ``presentations``, this workload does not depend on ``--seed``.
* ``presentations``: ``verify presentations --n-range 3:8`` on the fixed
  braid/Steinberg families.
* ``span-scan``: one ``span-check`` per lattice on a seeded batch at
  ambient 11-13.  Every batch has the same shape (ambient and rank per
  slot), so its cost barely moves with the seed while its entries do.
"""

from __future__ import annotations

import random
from pathlib import Path

MODQ_SEED = 20260819
MODQ_COUNT = 20
MODQ_PRIMES = "2,3,5"
PRESENTATIONS_N_RANGE = "3:8"

#: Ambient dimensions of the span-scan batch; each gets one spanned
#: lattice and SPAN_UNSPANNED_EACH unspanned ones.
SPAN_AMBIENTS = (11, 12, 13)
SPAN_UNSPANNED_EACH = 3
#: Vertices of the connected graphs whose image lattices are spanned
#: (rank SPAN_VERTICES - 1), and of the graph part of the unspanned ones.
SPAN_VERTICES = 6
SPAN_UNSPANNED_VERTICES = 5

WORKLOADS = ("modq", "presentations", "span-scan")


def connected_graph_lattice(rng: random.Random, vertices: int, edges: int) -> list:
    """Generators of the image lattice of a random connected simple graph.

    The rows are the incidence columns of all vertices but the last one,
    so the lattice has rank ``vertices - 1`` in ambient ``edges``.  The
    incidence matrix of a graph is totally unimodular, so the lattice is
    integrally spanned and the checker must scan all 2^edges - 1 subsets.
    """
    if not vertices - 1 <= edges <= vertices * (vertices - 1) // 2:
        raise ValueError(f"no connected simple graph with {vertices} vertices, {edges} edges")
    pairs = set()
    order = list(range(vertices))
    rng.shuffle(order)
    for i in range(1, vertices):
        a, b = order[i], order[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    all_pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    rng.shuffle(all_pairs)
    for pair in all_pairs:
        if len(pairs) >= edges:
            break
        pairs.add(pair)
    edge_list = sorted(pairs)
    rng.shuffle(edge_list)
    rows = [[0] * edges for _ in range(vertices - 1)]
    for e, (a, b) in enumerate(edge_list):
        tail, head = (a, b) if rng.random() < 0.5 else (b, a)
        if tail < vertices - 1:
            rows[tail][e] = 1
        if head < vertices - 1:
            rows[head][e] = -1
    return rows


def planted_unspanned_lattice(rng: random.Random, ambient: int) -> list:
    """0/+-1 generators that fail the spanning test first on a planted triple.

    The lattice is the direct sum of a spanned graph lattice on
    ``ambient - 3`` coordinates and, on the three remaining (random)
    coordinates, the lattice of (1, 1, 0), (0, 1, 1), (1, 0, 1): index 2
    in Z^3, while each of its pair projections is all of Z^2.  A
    projection of a direct sum is saturated exactly when both parts are,
    so the first failing subset in size-then-lex order is the planted
    triple: past the singletons and pairs, and found after a short scan.
    """
    graph = connected_graph_lattice(rng, SPAN_UNSPANNED_VERTICES, ambient - 3)
    coords = list(range(ambient))
    rng.shuffle(coords)
    graph_coords, triple = coords[3:], coords[:3]
    out = []
    for row in graph:
        full = [0] * ambient
        for c, x in zip(graph_coords, row):
            full[c] = x
        out.append(full)
    for pattern in ((1, 1, 0), (0, 1, 1), (1, 0, 1)):
        full = [0] * ambient
        for c, x in zip(triple, pattern):
            full[c] = x
        out.append(full)
    rng.shuffle(out)
    return out


def span_batch(seed: int) -> list:
    """The span-scan batch for ``seed``: (generator rows, expected spanned)."""
    rng = random.Random(f"span-scan/{seed}")
    batch = []
    for ambient in SPAN_AMBIENTS:
        batch.append((connected_graph_lattice(rng, SPAN_VERTICES, ambient), True))
        for _ in range(SPAN_UNSPANNED_EACH):
            batch.append((planted_unspanned_lattice(rng, ambient), False))
    return batch


def matrix_text(rows: list) -> str:
    """The CLI's matrix file format: a 'rows cols' header, then the rows."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def plan(workload: str, seed: int, workdir: Path) -> list:
    """One dict per CLI call: ``argv``, the ``out`` file it writes and,
    for span-scan, the ``input`` file with its ``text``, the
    ``generators`` and the ``expected`` verdict by construction."""
    if workload == "modq":
        out = workdir / "modq.json"
        argv = ["verify", "modq", "--seed", str(MODQ_SEED), "--count", str(MODQ_COUNT),
                "--primes", MODQ_PRIMES, "--out", str(out)]
        return [{"argv": argv, "out": str(out)}]
    if workload == "presentations":
        out = workdir / "presentations.json"
        argv = ["verify", "presentations", "--n-range", PRESENTATIONS_N_RANGE,
                "--out", str(out)]
        return [{"argv": argv, "out": str(out)}]
    if workload == "span-scan":
        calls = []
        for i, (rows, expected) in enumerate(span_batch(seed)):
            path = workdir / f"lattice{i:02d}.mat"
            out = workdir / f"lattice{i:02d}.json"
            calls.append({"argv": ["span-check", str(path), "--out", str(out)],
                          "out": str(out), "input": str(path), "text": matrix_text(rows),
                          "generators": rows, "expected": expected})
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(calls: list) -> None:
    for call in calls:
        if "input" in call:
            Path(call["input"]).write_text(call["text"], encoding="utf-8")
