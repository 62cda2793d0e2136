"""Integer codifferential matrices of graphs, small CW data, and group
presentations.

Graphs produce incidence-shaped codifferentials ``d0`` (one row per
edge).  A loop or half-edge contributes a single ``+1`` row marking its
vertex as self-connected; that convention matches the component-based
kernel construction in :func:`incidence_kernel_basis`, where exactly the
components with no self-connected vertex contribute indicator vectors.

Group presentations produce ``d1`` matrices whose rows are the signed
exponent sums of the relators; the braid and Steinberg families are
built in explicitly.  General two-dimensional complexes are accepted as
explicit ``(d0, d1)`` matrix pairs and validated against the cochain
condition ``d1 @ d0 == 0``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CochainConditionError,
    DimensionMismatchError,
    FormatError,
    PresentationSyntaxError,
    RowShapeError,
)
from .exactla import (
    IntMatrix,
    LatticeBasis,
    _blocks,
    _content_lines,
    _sparse_rows,
    rank,
)

#: Sentinel edge producing an all-zero codifferential row.
NULL_EDGE = (0, 0)


@dataclass(frozen=True)
class Graph:
    """Directed multigraph on vertices ``1..vertex_count``.

    Edges are ``(tail, head)`` pairs; ``tail == head`` marks the vertex
    as self-connected (a loop or half-edge), and the ``(0, 0)`` sentinel
    stands for a null edge whose codifferential row is zero.
    """

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        if self.vertex_count < 0:
            raise DimensionMismatchError("vertex count must be nonnegative")
        for k, (tail, head) in enumerate(self.edges):
            if (tail, head) == NULL_EDGE:
                continue
            for v in (tail, head):
                if not 1 <= v <= self.vertex_count:
                    raise DimensionMismatchError(
                        f"edge {k + 1} endpoint {v} outside 1..{self.vertex_count}"
                    )

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    First content line: ``V E``.  Then ``E`` lines, each either
    ``tail head`` (a loop when equal) or ``self v``.  Blank lines and
    ``#`` comments are skipped.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty graph text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: expected 'V E' header")
    try:
        v_count, e_count = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header entries must be integers")
    if v_count < 0 or e_count < 0:
        raise FormatError(f"line {lineno}: counts must be nonnegative")
    body = lines[1:]
    if len(body) != e_count:
        raise FormatError(
            f"expected {e_count} edge lines, found {len(body)}"
        )
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(
                f"line {lineno}: expected 'tail head' or 'self v'"
            )
        if parts[0] == "self":
            try:
                v = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex must be an integer")
            if not 1 <= v <= v_count:  # (0, 0) is the null edge
                raise FormatError(f"line {lineno}: self vertex {v} not in 1..{v_count}")
            edges.append((v, v))
            continue
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers")
        edges.append((tail, head))
    try:
        return Graph(v_count, tuple(edges))
    except DimensionMismatchError as err:
        raise FormatError(str(err))


def format_graph(g: Graph) -> str:
    """Render a graph in the format accepted by :func:`parse_graph`,
    a null edge as ``0 0``, so that ``parse_graph`` reads it back."""
    out = [f"{g.vertex_count} {g.edge_count}"]
    for tail, head in g.edges:
        if tail == head and (tail, head) != NULL_EDGE:
            out.append(f"self {tail}")
        else:
            out.append(f"{tail} {head}")
    return "\n".join(out) + "\n"


def graph_d0(g: Graph) -> IntMatrix:
    """Vertex-to-edge codifferential: one row per edge.

    The row for ``(i, j)`` with ``i != j`` has ``+1`` at ``i`` and
    ``-1`` at ``j``; a loop or half-edge at ``i`` gives a single ``+1``
    at ``i``; a null edge gives a zero row.
    """
    rows = []
    for tail, head in g.edges:
        row = [0] * g.vertex_count
        if (tail, head) != NULL_EDGE:
            row[tail - 1] = 1
            if head != tail:
                row[head - 1] = -1
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=g.vertex_count)


def check_incidence_rows(a: IntMatrix) -> None:
    """Require every row to have entries in {-1, 0, 1} with at most one
    ``+1`` and at most one ``-1``; raises ``RowShapeError`` otherwise.
    Reads each row's nonzeros, in column order, from ``_sparse_rows``."""
    for i, (_, entries) in enumerate(_sparse_rows(a)):
        plus, minus = entries.count(1), entries.count(-1)
        if plus + minus < len(entries):
            x = next(x for x in entries if x != 1 and x != -1)
            raise RowShapeError(
                f"row {i + 1} has entry {x} outside {{-1, 0, 1}}"
            )
        if plus > 1 or minus > 1:
            raise RowShapeError(
                f"row {i + 1} has {plus} entries +1 and {minus} entries -1"
            )


def graph_of_incidence(a: IntMatrix) -> Graph:
    """The graph whose codifferential is the incidence-shaped ``a``.

    Columns are vertices.  A row with ``+1`` at ``i`` and ``-1`` at
    ``j`` becomes edge ``(i, j)``; a single ``+1`` or single ``-1`` at
    ``i`` marks ``i`` self-connected; a zero row becomes a null edge.
    """
    check_incidence_rows(a)
    edges = []
    for r in range(a.rows):
        plus = minus = None
        for j, x in enumerate(a.row(r)):
            if x == 1:
                plus = j + 1
            elif x == -1:
                minus = j + 1
        if plus is None and minus is None:
            edges.append(NULL_EDGE)
        elif plus is None:
            edges.append((minus, minus))
        elif minus is None:
            edges.append((plus, plus))
        else:
            edges.append((plus, minus))
    return Graph(a.cols, tuple(edges))


def incidence_kernel_basis(a: IntMatrix) -> LatticeBasis:
    """Kernel of an incidence-shaped matrix by component counting.

    The components of the associated graph on the columns are the
    blocks of ``a`` (``exactla._blocks``) plus one isolated vertex per
    zero column.  Returns the 0/1 indicator vectors of the components
    containing no self-connected vertex (a block with no single-nonzero
    row, or an isolated vertex), ordered by their smallest vertex.
    The indicator vectors are a kernel basis already in Hermite form
    (disjoint supports, ordered by smallest vertex), so this equals
    ``integer_kernel_basis(a)``, without any matrix elimination.
    """
    check_incidence_rows(a)
    n = a.cols
    blocks = _blocks(a)
    covered = {j for _, cols, _ in blocks for j in cols}
    components = [
        cols
        for _, cols, block in blocks
        if all(sum(map(bool, block.row(i))) != 1 for i in range(block.rows))
    ]
    components += [(j,) for j in range(n) if j not in covered]
    rows = []
    # Disjoint increasing tuples sort by their smallest vertex.
    for cols in sorted(components):
        row = [0] * n
        for j in cols:
            row[j] = 1
        rows.append(row)
    return LatticeBasis(IntMatrix.from_rows(rows, cols=n))


# ---------------------------------------------------------------------------
# Group presentations.
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation: generator names plus relator words.

    A word is a tuple of ``(generator index, sign)`` pairs with sign
    ``+1`` or ``-1``; indices are 0-based into ``generators``.  Empty
    words are allowed.
    """

    generators: tuple
    relators: tuple

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise PresentationSyntaxError(f"invalid generator name {name!r}")
            if name in seen:
                raise PresentationSyntaxError(f"duplicate generator {name!r}")
            seen.add(name)
        for word in self.relators:
            for idx, sign in word:
                if not 0 <= idx < len(self.generators):
                    raise PresentationSyntaxError(
                        f"generator index {idx} out of range"
                    )
                if sign not in (1, -1):
                    raise PresentationSyntaxError(
                        f"exponent sign must be +1 or -1, got {sign}"
                    )


_TOKENS = re.compile(r";|[^\s;]+").finditer


def _tokenize(text: str):
    """Tokens with 1-based line/column positions; ';' is its own token.
    Only a newline ends a line; any other whitespace character, a
    carriage return included, separates tokens and takes one column."""
    return [
        (m.group(), line, m.start() + 1)
        for line, row in enumerate(text.split("\n"), start=1)
        for m in _TOKENS(row)
    ]


def parse_presentation(text: str) -> GroupPresentation:
    """Parse ``gens: <name>+ ; rel: <word> (; rel: <word>)*``.

    Word tokens are ``name`` or ``name^-1``.  A ``rel:`` clause with no
    tokens contributes no relator.  Errors carry line and column.
    """
    tokens = _tokenize(text)
    clauses = []
    current = []
    for tok in tokens:
        if tok[0] == ";":
            clauses.append(current)
            current = []
        else:
            current.append(tok)
    clauses.append(current)
    clauses = [c for c in clauses if c]
    if not clauses:
        raise PresentationSyntaxError("empty presentation", 1, 1)
    head, line, col = clauses[0][0]
    if head != "gens:":
        raise PresentationSyntaxError("expected 'gens:'", line, col)
    gen_tokens = clauses[0][1:]
    if not gen_tokens:
        raise PresentationSyntaxError(
            "at least one generator is required", line, col
        )
    names = []
    index = {}
    for name, gline, gcol in gen_tokens:
        if not _NAME_RE.match(name):
            raise PresentationSyntaxError(
                f"invalid generator name {name!r}", gline, gcol
            )
        if name in index:
            raise PresentationSyntaxError(
                f"duplicate generator {name!r}", gline, gcol
            )
        index[name] = len(names)
        names.append(name)
    relators = []
    for clause in clauses[1:]:
        head, line, col = clause[0]
        if head != "rel:":
            raise PresentationSyntaxError("expected 'rel:'", line, col)
        word = []
        for tok, tline, tcol in clause[1:]:
            if tok.endswith("^-1"):
                name, sign = tok[:-3], -1
            elif "^" in tok:
                raise PresentationSyntaxError(
                    f"malformed exponent in {tok!r} (only ^-1 is allowed)",
                    tline,
                    tcol,
                )
            else:
                name, sign = tok, 1
            if name not in index:
                raise PresentationSyntaxError(
                    f"unknown generator {name!r}", tline, tcol
                )
            word.append((index[name], sign))
        if word:
            relators.append(tuple(word))
    return GroupPresentation(tuple(names), tuple(relators))


def presentation_text(p: GroupPresentation) -> str:
    """Render a presentation in the syntax of :func:`parse_presentation`."""
    parts = ["gens: " + " ".join(p.generators)]
    for word in p.relators:
        toks = [
            p.generators[idx] + ("" if sign == 1 else "^-1")
            for idx, sign in word
        ]
        parts.append("rel: " + " ".join(toks))
    return "; ".join(parts)


def presentation_d1(p: GroupPresentation) -> IntMatrix:
    """Relator-by-generator matrix of signed exponent sums.

    The entries are summed from the relator words straight into one
    flat row-major list, with no row lists and no ``from_rows`` pass
    over the (mostly zero) entries."""
    cols = len(p.generators)
    entries = [0] * (len(p.relators) * cols)
    for r, word in enumerate(p.relators):
        start = r * cols
        for idx, sign in word:
            entries[start + idx] += sign
    return IntMatrix(len(p.relators), cols, tuple(entries))


def _commutator(a: int, b: int):
    return ((a, 1), (b, 1), (a, -1), (b, -1))


def braid_presentation(n: int) -> GroupPresentation:
    """Standard presentation of the braid group on ``n`` strands.

    Generators ``s1..s(n-1)``.  Relators: commutators ``[s_i, s_j]``
    for ``j - i >= 2`` (lexicographic), then ``s_i s_{i+1} s_i
    s_{i+1}^-1 s_i^-1 s_{i+1}^-1`` for ``i = 1..n-2``.
    """
    if n < 2:
        raise DimensionMismatchError("braid presentation needs n >= 2")
    names = tuple(f"s{i}" for i in range(1, n))
    relators = []
    for i, j in itertools.combinations(range(n - 1), 2):
        if j - i >= 2:
            relators.append(_commutator(i, j))
    for i in range(n - 2):
        relators.append(
            ((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1))
        )
    return GroupPresentation(names, tuple(relators))


def steinberg_presentation(n: int) -> GroupPresentation:
    """Steinberg group presentation over the integers, rank ``n``.

    Generators ``x{i}_{j}`` for ``1 <= i != j <= n`` in lexicographic
    order.  Relators: commutators ``[x_ij, x_kl]`` for unordered pairs
    with ``i != l`` and ``j != k``, then ``[x_ij, x_jk] x_ik^-1`` for
    ordered triples of distinct ``i, j, k``.
    """
    if n < 2:
        raise DimensionMismatchError("Steinberg presentation needs n >= 2")
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    index = {p: k for k, p in enumerate(pairs)}
    names = tuple(f"x{i}_{j}" for i, j in pairs)
    relators = []
    for (a, b) in itertools.combinations(pairs, 2):
        i, j = a
        k, l = b
        if i != l and j != k:
            relators.append(_commutator(index[a], index[b]))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        a, b, c = index[(i, j)], index[(j, k)], index[(i, k)]
        relators.append(
            ((a, 1), (b, 1), (a, -1), (b, -1), (c, -1))
        )
    return GroupPresentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# Cochain complexes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CochainComplex:
    """Two-step integer cochain data ``C^0 -> C^1 -> C^2``.

    ``d0`` maps 0-cells to 1-cells (one row per 1-cell) and ``d1`` maps
    1-cells to 2-cells (one row per 2-cell); the composite must vanish.
    Labels name the cells of each level.
    """

    d0: IntMatrix
    d1: IntMatrix
    vertex_labels: tuple = ()
    edge_labels: tuple = ()
    face_labels: tuple = ()

    def __post_init__(self):
        if self.d1.cols != self.d0.rows:
            raise DimensionMismatchError(
                f"d1 has {self.d1.cols} columns but d0 has {self.d0.rows} rows"
            )
        composite = self.d1 @ self.d0
        if not composite.is_zero():
            raise CochainConditionError("d1 composed with d0 is nonzero")
        for labels, count, what in (
            (self.vertex_labels, self.d0.cols, "vertex"),
            (self.edge_labels, self.d0.rows, "edge"),
            (self.face_labels, self.d1.rows, "face"),
        ):
            if labels and len(labels) != count:
                raise DimensionMismatchError(
                    f"{len(labels)} {what} labels for {count} cells"
                )

    @classmethod
    def build(
        cls,
        d0: IntMatrix,
        d1: IntMatrix,
        vertex_labels: Optional[Sequence[str]] = None,
        edge_labels: Optional[Sequence[str]] = None,
        face_labels: Optional[Sequence[str]] = None,
    ) -> "CochainComplex":
        if vertex_labels is None:
            vertex_labels = tuple(f"v{i + 1}" for i in range(d0.cols))
        if edge_labels is None:
            edge_labels = tuple(f"e{i + 1}" for i in range(d0.rows))
        if face_labels is None:
            face_labels = tuple(f"f{i + 1}" for i in range(d1.rows))
        return cls(
            d0,
            d1,
            tuple(vertex_labels),
            tuple(edge_labels),
            tuple(face_labels),
        )


def graph_complex(g: Graph) -> CochainComplex:
    """Cochain complex of a graph: ``d0`` from the edges, no 2-cells."""
    d0 = graph_d0(g)
    return CochainComplex.build(d0, IntMatrix.zeros(0, d0.rows))


def presentation_complex(p: GroupPresentation) -> CochainComplex:
    """Complex of a presentation's one-vertex 2-complex.

    One vertex, one edge per generator, one face per relator.  ``d0``
    is a zero column (every edge starts and ends at the single vertex)
    and ``d1`` is the exponent-sum matrix.
    """
    d1 = presentation_d1(p)
    d0 = IntMatrix.zeros(len(p.generators), 1)
    return CochainComplex.build(
        d0,
        d1,
        vertex_labels=("v1",),
        edge_labels=p.generators,
        face_labels=tuple(f"r{i + 1}" for i in range(d1.rows)),
    )


def h1_is_trivial(c: CochainComplex) -> bool:
    """Whether the first rational cohomology vanishes: the rank of
    ``ker d1`` equals the rank of ``im d0``."""
    kernel_rank = c.d1.cols - rank(c.d1)
    return kernel_rank == rank(c.d0)
