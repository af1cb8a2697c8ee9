"""Rank tables realized from combinatorial structures.

Covers rooted-graph branching greedoids, tree pruning antimatroids, uniform
matroids, convex closure in full antimatroids, and feasible-set-based
greedoid minors. Tables are materialized eagerly; construction is capped at
MAX_MATERIALIZED_N edges to bound the 2**n table size. The structure tables
are counted from bit sets over all edge subsets (``core.member_counts``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_

from .axioms import FeasibleFamily, check_antimatroid, check_greedoid
from .core import (
    GroundSet,
    RankFunctionError,
    RankTable,
    SubsetRef,
    avoid_sets,
    bitset,
    feasible_flags,
    member_counts,
    member_flags,
    popcounts,
)
from .ops import _kept_ground, _select

MAX_MATERIALIZED_N = 20


class StructureError(RankFunctionError):
    """Invalid combinatorial structure or unmet structural precondition."""


class ContractionError(RankFunctionError):
    """Feasible-set contraction would not produce a greedoid."""


def _check_edges(vertices, edges):
    seen_labels = set()
    seen_pairs = set()
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise StructureError("duplicate vertex names")
    for label, u, v in edges:
        if label in seen_labels:
            raise StructureError(f"duplicate edge label {label!r}")
        seen_labels.add(label)
        if u == v:
            raise StructureError(f"self-loop edge {label!r} at {u!r}")
        if u not in vset or v not in vset:
            raise StructureError(f"edge {label!r} uses unknown vertex")
        pair = (u, v) if u <= v else (v, u)
        if pair in seen_pairs:
            raise StructureError(f"parallel edge {label!r} between {pair[0]!r} and {pair[1]!r}")
        seen_pairs.add(pair)


def _edge_pairs(vertices, edges) -> list:
    """The (u, v) vertex index pairs of labelled edges, in edge order."""
    index = {name: i for i, name in enumerate(vertices)}
    return [(index[u], index[v]) for _, u, v in edges]


def _is_connected(vertices, edges) -> bool:
    return _connected(len(vertices), [_edge_pairs(vertices, edges)]) == b"\x01"


@dataclass(frozen=True)
class RootedGraph:
    """A connected simple graph with labeled edges and a distinguished root."""

    vertices: tuple
    root: str
    edges: tuple  # (label, u, v) triples

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.root not in self.vertices:
            raise StructureError(f"root {self.root!r} is not a vertex")
        _check_edges(self.vertices, self.edges)
        if not _is_connected(self.vertices, self.edges):
            raise StructureError("rooted graph must be connected")

    @classmethod
    def _trusted(cls, vertices: tuple, root: str, edges: tuple) -> RootedGraph:
        """A graph built without ``__post_init__``'s checks, for graphs the
        library generated itself. The caller guarantees that ``vertices`` is
        a tuple of distinct names containing ``root``, and ``edges`` a tuple
        of (label, u, v) tuples with distinct labels over those vertices
        that form a connected simple graph (no loops, no parallel edges)."""
        graph = object.__new__(cls)
        graph.__dict__.update(vertices=vertices, root=root, edges=edges)
        return graph

    def edge_labels(self) -> tuple:
        return tuple(label for label, _, _ in self.edges)


@dataclass(frozen=True)
class Tree:
    """A connected acyclic graph with labeled edges (no root)."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if not self.vertices:
            raise StructureError("a tree needs at least one vertex")
        _check_edges(self.vertices, self.edges)
        if len(self.edges) != len(self.vertices) - 1:
            raise StructureError(
                f"a tree on {len(self.vertices)} vertices needs "
                f"{len(self.vertices) - 1} edges, got {len(self.edges)}"
            )
        if not _is_connected(self.vertices, self.edges):
            raise StructureError("tree must be connected")

    def edge_labels(self) -> tuple:
        return tuple(label for label, _, _ in self.edges)


def _require_materializable(n: int):
    if n > MAX_MATERIALIZED_N:
        raise StructureError(
            f"{n} edges exceed the materialization cap of {MAX_MATERIALIZED_N}"
        )


def _has_sets(n: int, blocks: int = 1) -> list:
    """Entry e is the set of masks over n bits that contain bit e, over
    ``blocks`` consecutive blocks of 2**n masks as in ``core.avoid_sets``."""
    every = (1 << (blocks << n)) - 1
    return [every ^ avoid for avoid in avoid_sets(n, blocks)]


def _relax(reach: list, has: dict) -> None:
    """Grow reach[b] by reach[a] & has[(a, b)] across each vertex pair of
    ``has``, both ways, until no set changes.

    A queue holds the vertices whose set has grown since they last grew
    their neighbours, each at most once at a time, so with one-bit sets
    each vertex is taken once and the time is linear in the pairs."""
    near = [[] for _ in reach]
    for (u, v), members in has.items():
        near[u].append((v, members))
        near[v].append((u, members))
    queued = list(map(bool, reach))
    queue = deque(compress(range(len(reach)), queued))
    while queue:
        a = queue.popleft()
        queued[a] = False
        for b, members in near[a]:
            new = reach[b] | reach[a] & members
            if new != reach[b]:
                reach[b] = new
                if not queued[b]:
                    queued[b] = True
                    queue.append(b)


def _graph_has_sets(graphs, width: int, edge_sets: list) -> dict:
    """Vertex pair p: the positions whose graph has p as its edge k and
    whose mask holds k, given the ``width`` positions of one graph and
    edge_sets[k], the positions of one graph whose mask holds k.

    Field g of has[p] is edge_sets[k] when p is edge k of graphs[g], and 0
    when graphs[g] lacks p."""
    has = {}
    for g, pairs in enumerate(graphs):
        for pair, members in zip(pairs, edge_sets):
            has[pair] = has.get(pair, 0) | members << g * width
    return has


def _connected(vertex_count: int, graphs) -> bytes:
    """Byte g is 1 when graphs[g] connects its vertex_count vertices; the
    graphs are edge pair tuples of one length. Bit g of reach[x] says
    whether x is reachable from vertex 0 in graphs[g]. The has-sets are
    ``_graph_has_sets`` of one position per graph, so bit g of has[pair]
    says whether graphs[g] has that pair as an edge, and one relaxation
    serves every graph."""
    reach = [(1 << len(graphs)) - 1] + [0] * (vertex_count - 1)
    _relax(reach, _graph_has_sets(graphs, 1, [1] * len(graphs[0])))
    return member_flags(reduce(and_, reach), len(graphs))


def branching_rows(edge_count: int, vertex_count: int, graphs, roots) -> bytes:
    """The branching rank rows of every listed root of every graph, laid end
    to end: block g * len(roots) + i is the row of root roots[i] in
    graphs[g], a sequence of edge_count vertex index pairs, and its byte A
    is the number of vertices other than that root that the edges of mask A
    connect to it.

    The positions are (graph, root, mask) blocks, and reach[x] is the set of
    positions at which x is reachable from the block's root through the
    mask. It grows by reach[x] & has[p] across each vertex pair p that some
    graph uses until it is stable, where has[p] is the set of positions
    whose graph has the edge p and whose mask holds that edge. So one loop
    over the pairs relaxes every graph and root at once, and one
    ``member_counts`` counts every row.
    """
    size, blocks = 1 << edge_count, len(graphs) * len(roots)
    if not blocks:
        return b""
    width = len(roots) << edge_count  # the positions of one graph
    every = (1 << width) - 1
    # bit g * width for every graph g: a field times it is laid in every graph
    copies = ((1 << width * len(graphs)) - 1) // every
    own = [0] * vertex_count
    for i, root in enumerate(roots):
        own[root] |= ((1 << size) - 1) << (i * size)
    own = [field * copies for field in own]
    reach = list(own)
    # the positions of one graph whose mask holds edge k; the has-sets built
    # from them are freed before the rows are counted
    _relax(reach, _graph_has_sets(graphs, width, _has_sets(edge_count, len(roots))))
    # a root is not counted in its own row
    return member_counts(edge_count, map(int.__xor__, reach, own), blocks)


def branching_greedoid(rg: RootedGraph) -> RankTable:
    """Rank of an edge subset A = size of the largest subtree inside A that
    contains the root, i.e. (vertices reachable from the root through A) - 1.
    Built from one reachability bit set per vertex.
    """
    n = len(rg.edges)
    _require_materializable(n)
    pairs = _edge_pairs(rg.vertices, rg.edges)
    ranks = branching_rows(n, len(rg.vertices), (pairs,), (rg.vertices.index(rg.root),))
    # a monotone table is largest at the full set
    return RankTable._from_bytes(GroundSet(rg.edge_labels()), ranks, ranks[-1])


def root_adjacency_test(rg: RootedGraph) -> bool:
    """True iff every non-root vertex shares an edge with the root."""
    adjacent = {rg.root}
    for _, u, v in rg.edges:
        if u == rg.root:
            adjacent.add(v)
        elif v == rg.root:
            adjacent.add(u)
    return adjacent == set(rg.vertices)


def pruning_antimatroid(t: Tree) -> RankTable:
    """Edge subset A is feasible iff the remaining edges form a subtree (the
    empty edge set counts). Rank of A = size of its largest feasible subset,
    which equals n minus the size of the minimal subtree containing K = S - A.

    Edge e lies in that subtree iff e is in K or K meets both sides of e in
    T - e, so the rank counts, per edge, the bit set of masks A that contain
    e and contain one whole side of it. One relaxation finds every side:
    edge f joins its ends for every edge bit but its own, so bit e of
    side[x] says that x is joined to u, the first end of e, in T - e.
    """
    n = len(t.edges)
    _require_materializable(n)
    pairs = _edge_pairs(t.vertices, t.edges)
    side = [0] * len(t.vertices)
    for e, (u, _) in enumerate(pairs):
        side[u] |= 1 << e
    _relax(side, {pair: ~(1 << f) for f, pair in enumerate(pairs)})
    has = _has_sets(n)
    every = (1 << (1 << n)) - 1
    prunable = []
    for e in range(n):
        # contains[x]: the masks that contain every edge on side x of e
        contains = [every, every]
        for f, (a, _) in enumerate(pairs):
            if f != e:
                contains[side[a] >> e & 1] &= has[f]
        prunable.append(has[e] & (contains[0] | contains[1]))
    ranks = member_counts(n, prunable)
    return RankTable._from_bytes(GroundSet(t.edge_labels()), ranks, ranks[-1])


def _convex_flags(g: RankTable) -> bytes:
    """Byte C is 1 iff C is convex: its complement S - C is feasible. The
    feasible flags reversed, since mask S - C is the C-th from the end."""
    return feasible_flags(g.n, g._kernel_view())[::-1]


def _closure_gaps(g: RankTable) -> bytes:
    """Byte A is |cl(A) - A|, where the convex closure cl(A) is the
    intersection of the convex supersets of A (S when there is none). The
    table need not be a full antimatroid, but every closure must be convex.

    Element p lies in cl(A) iff no convex superset of A avoids p, that is iff
    A is not in Down(convex sets without p). Each down-set takes one
    shift-or pass per element, (X & has[q]) >> 2**q adding the sets with q
    removed, so gaps[p] = avoid[p] & ~Down(convex & avoid[p]) is the set of
    masks A without p whose closure holds p, and ``member_counts`` counts them.

    A is closed, cl(A) = A, iff it lies in no gaps[p]. The closures are the
    closed sets: a convex set holds A iff it holds cl(A), so cl(cl(A)) =
    cl(A), and a closed set is its own closure. So every closure is convex
    iff every mask is convex or in some gaps[p], for any table, r(empty) != 0
    and n = 0 included.
    """
    convex = bitset(_convex_flags(g))
    has = _has_sets(g.n)
    every = (1 << g.ground.size) - 1
    gaps = []
    for avoid in avoid_sets(g.n):
        below = convex & avoid
        for q, members in enumerate(has):
            below |= (below & members) >> (1 << q)
        gaps.append(avoid & ~below)
    if reduce(or_, gaps, convex) != every:
        raise StructureError(
            "closure is not convex; the table violates the antimatroid precondition"
        )
    return member_counts(g.n, gaps)


def _require_full_antimatroid(g: RankTable):
    if g.full_rank != g.n:
        raise StructureError("convex closure requires a full table (r(S) = |S|)")
    report = check_antimatroid(g)
    if not report.passed:
        failed = [name for name, ok in report.verdicts.items() if not ok]
        raise StructureError(f"convex closure requires an antimatroid; failed: {failed}")


def convex_closure(g: RankTable, a: SubsetRef) -> SubsetRef:
    """Smallest convex superset of a (convex = complement feasible).

    The table must be a full antimatroid; the intersection of all convex
    supersets is computed and verified to be convex itself. Element p lies in
    it iff no convex superset of a avoids p, which is read off bit sets.
    """
    if a.ground != g.ground:
        raise RankFunctionError("subset belongs to a different ground set")
    _require_full_antimatroid(g)
    is_convex = _convex_flags(g)
    supersets = bitset(is_convex)
    for p, has in enumerate(_has_sets(g.n)):
        if a.bits >> p & 1:
            supersets &= has
    acc = sum(1 << p for p, avoid in enumerate(avoid_sets(g.n)) if not supersets & avoid)
    if not is_convex[acc]:
        raise StructureError(
            "closure is not convex; the table violates the antimatroid precondition"
        )
    return SubsetRef(g.ground, acc)


def uniform_matroid(labels, k: int) -> RankTable:
    """r(A) = min(|A|, k)."""
    ground = GroundSet(tuple(labels))
    if not 0 <= k <= ground.n:
        raise StructureError(f"uniform rank {k} out of range for {ground.n} elements")
    ranks = popcounts(ground.n).translate(bytes(min(i, k) for i in range(256)))
    return RankTable._from_bytes(ground, ranks, k)


def greedoid_minor_feasible(g: RankTable, p: str, kind: str) -> FeasibleFamily:
    """Feasible family of a greedoid minor, per the feasible-set definitions:
    F is feasible in G - p iff F is feasible in G; F is feasible in G / p iff
    F | p is feasible in G. Contracting a greedoid loop equals deleting it.

    Contracting p that lies in some feasible set while {p} is infeasible is
    rejected: the result would not be a greedoid.
    """
    if kind not in ("delete", "contract"):
        raise RankFunctionError(f"unknown minor kind {kind!r}")
    report = check_greedoid(g)
    if not report.passed:
        failed = [name for name, ok in report.verdicts.items() if not ok]
        raise StructureError(f"input is not a greedoid; failed: {failed}")
    n, bit = g.n, 1 << g.ground.position(p)
    flags = feasible_flags(n, g._kernel_view())
    # deleting p, or contracting a greedoid loop p, keeps the flags of the
    # masks without p; contracting p with {p} feasible, those with p
    contracted = bit if kind == "contract" and flags[bit] else 0
    if kind == "contract" and not contracted and 1 in _select(flags, n, bit, bit):
        raise ContractionError(
            f"contraction at {p!r} is not a greedoid: "
            f"{p!r} lies in a feasible set but {{{p}}} is infeasible"
        )
    kept = _select(flags, n, contracted, bit)
    return FeasibleFamily(_kept_ground(g.ground, bit), frozenset(compress(range(len(kept)), kept)))


def demo_rooted_tree() -> RootedGraph:
    """Three-edge rooted tree: a chain root-v1-v2 through edges a, b plus a
    leaf edge c at the root. Its branching greedoid is the standard worked
    example used throughout the tests."""
    return RootedGraph(
        vertices=("root", "v1", "v2", "v3"),
        root="root",
        edges=(("a", "root", "v1"), ("b", "v1", "v2"), ("c", "root", "v3")),
    )


def demo_pruning_tree() -> Tree:
    """Ten-edge tree whose pruning antimatroid is the worked example for
    convex closure: a four-edge path into a hub with three branches."""
    return Tree(
        vertices=("u1", "u2", "u3", "u4", "u5", "u6", "w1", "w2", "u9", "u10", "u11"),
        edges=(
            ("a", "u1", "u2"),
            ("b", "u2", "u3"),
            ("c", "u3", "u4"),
            ("d", "u4", "u5"),
            ("e", "u5", "u6"),
            ("f", "w1", "w2"),
            ("g", "u4", "w1"),
            ("h", "u4", "u9"),
            ("i", "w1", "u10"),
            ("j", "u10", "u11"),
        ),
    )
