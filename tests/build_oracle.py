"""Per-mask reference constructions and the depth-first recursion.

These are the plain-loop forms of ``branching_greedoid`` and
``branching_rows`` (a search from the root for every edge mask),
``pruning_antimatroid`` (a leaf-pruning walk for every edge mask),
``convex_closure`` (an intersection over every convex mask),
``_closure_gaps`` (the closures by one pass over every mask per convex
set, and the gaps |cl(A) - A| from them) and
``tutte_recursive`` (a depth-first deletion-contraction that
merges one polynomial per node). The library builds the same tables and
closures from bit sets and evaluates the recursion level by level; the
tests require equal results.
"""

from rankdual import LaurentPoly2, RankFunctionError, StructureError
from rankdual.tutte import PIVOT_STRATEGIES


def _adjacency(vertices, edges):
    index = {name: i for i, name in enumerate(vertices)}
    adjacency = [[] for _ in vertices]
    for pos, (_, u, v) in enumerate(edges):
        adjacency[index[u]].append((pos, index[v]))
        adjacency[index[v]].append((pos, index[u]))
    return index, adjacency


def oracle_branching_values(rg) -> tuple:
    """Branching ranks of a rooted graph: a stack search per edge mask."""
    n = len(rg.edges)
    index, adjacency = _adjacency(rg.vertices, rg.edges)
    root = index[rg.root]
    values = []
    for mask in range(1 << n):
        reached = 1 << root
        stack = [root]
        count = 1
        while stack:
            at = stack.pop()
            for pos, other in adjacency[at]:
                if mask >> pos & 1 and not reached >> other & 1:
                    reached |= 1 << other
                    count += 1
                    stack.append(other)
        values.append(count - 1)
    return tuple(values)


def _span_size(adjacency, in_set, degree, edge_count):
    """Size of the minimal subtree containing the given edge set: prune leaf
    edges that are not in the set until none is left."""
    degree = list(degree)
    alive = list(in_set)
    size = edge_count
    leaves = [v for v, d in enumerate(degree) if d == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:
            continue
        for pos, other in adjacency[v]:
            if not alive[pos]:
                continue
            if alive[pos] == 2:
                break  # pendant edge belongs to the set; keep it
            alive[pos] = 0
            size -= 1
            degree[v] -= 1
            degree[other] -= 1
            if degree[other] == 1:
                leaves.append(other)
            break
    return size


def oracle_pruning_values(tree) -> tuple:
    """Pruning ranks of a tree: n minus the span of the kept edges, per mask."""
    n = len(tree.edges)
    _, adjacency = _adjacency(tree.vertices, tree.edges)
    full = (1 << n) - 1
    values = []
    for mask in range(1 << n):
        keep = full ^ mask
        # 2 marks edges the span must contain, 1 marks prunable edges
        in_set = [2 if keep >> pos & 1 else 1 for pos in range(n)]
        degree = [len(adjacency[v]) for v in range(len(tree.vertices))]
        values.append(n - _span_size(adjacency, in_set, degree, n))
    return tuple(values)


def oracle_convex_closure(g, a):
    """Mask of the intersection of the convex supersets of mask a (all of S
    when there is none); a convex mask C has r(S - C) = |S - C|."""
    full = g.ground.full_mask
    acc = full
    for c in range(full + 1):
        if g.values[full ^ c] == (full ^ c).bit_count() and a & ~c == 0:
            acc &= c
    return acc


def oracle_closure_table(g) -> list:
    """Convex closure of every mask: each convex mask C is intersected into
    the closures of all masks inside C. Raises StructureError, as the
    library does, when a closure is not convex itself."""
    full = g.ground.full_mask
    convex = [c for c in range(full + 1) if g.values[full ^ c] == (full ^ c).bit_count()]
    closures = [full] * (full + 1)
    for c in convex:
        for mask in range(full + 1):
            if mask & ~c == 0:
                closures[mask] &= c
    if not set(closures) <= set(convex):
        raise StructureError(
            "closure is not convex; the table violates the antimatroid precondition"
        )
    return closures


def oracle_closure_gaps(g) -> bytes:
    """Byte A is |cl(A) - A|, read from ``oracle_closure_table``."""
    return bytes((closure & ~mask).bit_count() for mask, closure in enumerate(oracle_closure_table(g)))


def oracle_recursion(g, pivot="lowest") -> LaurentPoly2:
    """Depth-first deletion-contraction: one polynomial per node, shifted by
    the edge weights and added on the way back up."""
    choose = PIVOT_STRATEGIES[pivot] if isinstance(pivot, str) else pivot
    return _deletion_contraction(g.values, choose, 0, g.ground.full_mask)


def _deletion_contraction(values, choose, contracted, remaining):
    if remaining == 0:
        return LaurentPoly2.one()
    bit = 1 << choose(remaining)
    if not remaining & bit:
        raise RankFunctionError("pivot strategy chose an element outside the ground set")
    rest = remaining ^ bit
    t_exp = values[contracted | remaining] - values[contracted | rest]
    z_exp = 1 - (values[contracted | bit] - values[contracted])
    deleted = _deletion_contraction(values, choose, contracted, rest)
    kept = _deletion_contraction(values, choose, contracted | bit, rest)
    return deleted.shift(t_exp, 0) + kept.shift(0, z_exp)
