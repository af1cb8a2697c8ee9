import itertools
import random
from collections import defaultdict

import pytest

from rankdual import (
    ContractionError,
    EnumSpec,
    RootedGraph,
    StructureError,
    Tree,
    branching_greedoid,
    check_antimatroid,
    check_greedoid,
    check_matroid,
    contract,
    convex_closure,
    delete,
    demo_pruning_tree,
    demo_rooted_tree,
    dual,
    enumerate_tables,
    greedoid_minor_feasible,
    pruning_antimatroid,
    root_adjacency_test,
    table_from_values,
    uniform_matroid,
)
from rankdual.axioms import FeasibleFamily
from rankdual.structures import _closure_gaps, _connected, _relax
from rankdual.verify import all_trees

from conftest import make_table


# --- structure validation -----------------------------------------------------


def test_rooted_graph_validation():
    with pytest.raises(StructureError, match="root"):
        RootedGraph(("u", "v"), "w", (("a", "u", "v"),))
    with pytest.raises(StructureError, match="self-loop"):
        RootedGraph(("u", "v"), "u", (("a", "u", "u"),))
    with pytest.raises(StructureError, match="parallel"):
        RootedGraph(("u", "v"), "u", (("a", "u", "v"), ("b", "v", "u")))
    with pytest.raises(StructureError, match="duplicate edge label"):
        RootedGraph(("u", "v", "w"), "u", (("a", "u", "v"), ("a", "v", "w")))
    with pytest.raises(StructureError, match="connected"):
        RootedGraph(("u", "v", "w", "x"), "u", (("a", "u", "v"), ("b", "w", "x")))


def test_tree_validation():
    with pytest.raises(StructureError, match="edges"):
        Tree(("u", "v", "w"), (("a", "u", "v"),))
    # right edge count but a cycle plus an isolated vertex
    with pytest.raises(StructureError, match="connected"):
        Tree(
            ("u", "v", "w", "x"),
            (("a", "v", "w"), ("b", "w", "x"), ("c", "v", "x")),
        )


def _random_graphs(rng, count):
    """Seeded simple graphs on 1-8 vertices with 0 to C(v, 2) edges, as
    (vertex names in shuffled order, vertex index pairs)."""
    for _ in range(count):
        v = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(v), 2))
        chosen = [p if rng.random() < 0.5 else p[::-1] for p in rng.sample(pairs, rng.randint(0, len(pairs)))]
        names = [f"x{i}" for i in range(v)]
        rng.shuffle(names)
        yield names, chosen


def _search_connects(vertex_count, pairs):
    """Depth-first search from vertex 0: does it reach every vertex?"""
    near = defaultdict(list)
    for a, b in pairs:
        near[a].append(b)
        near[b].append(a)
    seen, todo = {0}, [0]
    while todo:
        for b in near[todo.pop()]:
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return len(seen) == vertex_count


def _edges(names, pairs):
    return tuple((f"e{k}", names[a], names[b]) for k, (a, b) in enumerate(pairs))


def test_rooted_graphs_must_be_connected_as_a_search_finds():
    rng = random.Random(2012)
    seen = set()
    for names, pairs in _random_graphs(rng, 600):
        connected = _search_connects(len(names), pairs)
        seen.add((connected, len(pairs) < len(names)))
        args = (tuple(names), rng.choice(names), _edges(names, pairs))
        if connected:
            RootedGraph(*args)
        else:
            with pytest.raises(StructureError, match="connected"):
                RootedGraph(*args)
    # connected and not, with fewer edges than vertices and with more
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_trees_must_be_connected_as_a_search_finds():
    rng = random.Random(2012)
    verdicts = []
    for v in range(1, 9):
        pairs = list(itertools.combinations(range(v), 2))
        for _ in range(60):
            chosen = rng.sample(pairs, v - 1)
            names = [f"x{i}" for i in range(v)]
            rng.shuffle(names)
            verdicts.append(_search_connects(v, chosen))
            if verdicts[-1]:
                Tree(tuple(names), _edges(names, chosen))
            else:
                with pytest.raises(StructureError, match="connected"):
                    Tree(tuple(names), _edges(names, chosen))
    assert True in verdicts and False in verdicts


def test_connected_answers_each_graph_of_a_batch_as_alone():
    rng = random.Random(2012)
    batches = defaultdict(list)
    for names, pairs in _random_graphs(rng, 600):
        batches[len(names), len(pairs)].append(tuple(pairs))
    for (v, _), graphs in batches.items():
        alone = b"".join(_connected(v, [pairs]) for pairs in graphs)
        assert _connected(v, graphs) == alone
        assert list(alone) == [_search_connects(v, pairs) for pairs in graphs]


def test_relax_takes_linear_time_with_one_bit_sets():
    evaluations = 0

    class Counted(int):
        def __rand__(self, other):
            nonlocal evaluations
            evaluations += 1
            return int(self) & other

    edges = 2000
    path = {(i, i + 1): Counted(1) for i in reversed(range(edges))}  # from the far end
    star = {(0, i): Counted(1) for i in range(1, edges + 1)}
    for has in (path, star):
        evaluations = 0
        reach = [1] + [0] * edges
        _relax(reach, has)
        assert reach == [1] * (edges + 1)
        assert evaluations <= 4 * edges


# --- branching greedoid --------------------------------------------------------


def test_branching_demo_matches_golden(demo_table):
    assert demo_table.values == (0, 1, 0, 2, 1, 2, 1, 3)
    assert demo_table.rank(("b", "c")) == 1


def test_branching_single_edge():
    rg = RootedGraph(("r", "v"), "r", (("e", "r", "v"),))
    assert branching_greedoid(rg).values == (0, 1)


def test_branching_star_is_free():
    rg = RootedGraph(
        ("r", "v1", "v2", "v3"),
        "r",
        (("a", "r", "v1"), ("b", "r", "v2"), ("c", "r", "v3")),
    )
    table = branching_greedoid(rg)
    assert all(table.values[m] == m.bit_count() for m in range(8))
    assert check_matroid(table).passed


def test_branching_outputs_are_greedoids():
    for tree in all_trees(4):
        if not tree.vertices:
            continue
        for root in tree.vertices:
            table = branching_greedoid(RootedGraph(tree.vertices, root, tree.edges))
            assert check_greedoid(table).passed
            # rooted trees give full greedoids
            assert table.full_rank == len(tree.edges)


def test_structure_tables_keep_the_view_a_checked_build_makes():
    # the constructors build their tables from their own bytes, unchecked:
    # the view they give must be the one the checked constructor makes
    tables = [uniform_matroid("abcde"[:n], k) for n in range(6) for k in range(n + 1)]
    for tree in all_trees(4):
        tables.append(pruning_antimatroid(Tree(tree.vertices, tree.edges)))
        tables += [branching_greedoid(RootedGraph(tree.vertices, root, tree.edges)) for root in tree.vertices]
    tables += [FeasibleFamily.from_table(g).induced_rank_table() for g in list(tables)]
    for table in tables:
        assert type(table.values) is tuple and set(map(type, table.values)) <= {int}
        view, checked = table._kernel_view(), table_from_values(table.ground, table.values)._kernel_view()
        assert (view.low, view.high, view.offsets) == (checked.low, checked.high, checked.offsets)


def test_builders_reject_more_edges_than_the_materialization_cap():
    # a 21-edge star and a 21-edge path are valid structures, one edge over
    vertices = tuple(f"x{i}" for i in range(22))
    star = RootedGraph(vertices, "x0", [(f"e{i}", "x0", f"x{i}") for i in range(1, 22)])
    path = Tree(vertices, [(f"e{i}", f"x{i}", f"x{i + 1}") for i in range(21)])
    with pytest.raises(StructureError, match="21 edges exceed the materialization cap of 20"):
        branching_greedoid(star)
    with pytest.raises(StructureError, match="21 edges exceed the materialization cap of 20"):
        pruning_antimatroid(path)


def test_root_adjacency():
    assert not root_adjacency_test(demo_rooted_tree())
    star = RootedGraph(
        ("r", "v1", "v2"), "r", (("a", "r", "v1"), ("b", "r", "v2"))
    )
    assert root_adjacency_test(star)
    triangle = RootedGraph(
        ("r", "u", "v"),
        "r",
        (("a", "r", "u"), ("b", "r", "v"), ("c", "u", "v")),
    )
    assert root_adjacency_test(triangle)
    # star duals stay nonnegative, the demo tree dual goes negative
    assert min(dual(branching_greedoid(star)).values) >= 0
    assert min(dual(branching_greedoid(demo_rooted_tree())).values) < 0


# --- pruning antimatroid --------------------------------------------------------


def test_pruning_demo_facts():
    g = pruning_antimatroid(demo_pruning_tree())
    sub = g.ground.subset
    assert g.full_rank == 10
    assert check_antimatroid(g).passed
    assert g.rank(sub(("a", "d", "e", "f"))) == 4
    assert g.rank(sub(("b", "e", "h"))) == 2
    assert dual(g).rank(sub(("a", "d", "e", "f")).complement()) == 0


def test_pruning_single_edge():
    t = Tree(("u", "v"), (("e", "u", "v"),))
    assert pruning_antimatroid(t).values == (0, 1)


def test_pruning_outputs_are_full_antimatroids():
    for tree in all_trees(5):
        table = pruning_antimatroid(tree)
        assert table.full_rank == len(tree.edges)
        assert check_antimatroid(table).passed


def test_pruning_convex_iff_subtree():
    # a subset is convex exactly when its edges form a connected subgraph
    t = demo_pruning_tree()
    g = pruning_antimatroid(t)
    index = {name: i for i, name in enumerate(t.vertices)}
    pairs = [(index[u], index[v]) for _, u, v in t.edges]
    full = g.ground.full_mask
    for mask in range(g.ground.size):
        edges = [pairs[i] for i in range(10) if mask >> i & 1]
        if edges:
            seen = {edges[0][0]}
            frontier = [edges[0][0]]
            while frontier:
                at = frontier.pop()
                for u, v in edges:
                    for x, y in ((u, v), (v, u)):
                        if x == at and y not in seen:
                            seen.add(y)
                            frontier.append(y)
            connected = all(u in seen and v in seen for u, v in edges)
        else:
            connected = True
        is_convex = g.values[full ^ mask] == (full ^ mask).bit_count()
        assert is_convex == connected


# --- convex closure --------------------------------------------------------------


def test_closure_goldens():
    g = pruning_antimatroid(demo_pruning_tree())
    sub = g.ground.subset
    assert convex_closure(g, sub(("b", "e", "h"))) == sub(("b", "c", "d", "e", "h"))
    assert convex_closure(g, sub(("a", "d", "f"))) == sub(("a", "b", "c", "d", "f", "g"))


def test_closure_idempotent_on_convex_sets():
    g = pruning_antimatroid(demo_pruning_tree())
    full = g.ground.full_mask
    for mask in range(g.ground.size):
        if g.values[full ^ mask] == (full ^ mask).bit_count():
            c = g.ground.subset_from_mask(mask)
            assert convex_closure(g, c) == c


def test_closure_requires_full_table():
    g = uniform_matroid("ab", 1)
    with pytest.raises(StructureError, match="full"):
        convex_closure(g, g.ground.subset(("a",)))


def test_closure_requires_antimatroid():
    g = make_table("ab", [0, 0, 0, 2])  # full but fails local semimodularity
    with pytest.raises(StructureError, match="antimatroid"):
        convex_closure(g, g.ground.empty())


def test_closure_table_detects_non_convex_intersection():
    # feasible family {, a, b}: neither {} nor {a,b} complement behaves, so
    # the closure of the empty set is not convex
    g = make_table("ab", [0, 1, 1, 1])
    with pytest.raises(StructureError, match="not convex"):
        _closure_gaps(g)


def test_closure_table_matches_pointwise_closure():
    g = pruning_antimatroid(all_trees(4)[-1])
    gaps = _closure_gaps(g)
    for mask in range(g.ground.size):
        assert gaps[mask] == (convex_closure(g, g.ground.subset_from_mask(mask)).bits & ~mask).bit_count()


# --- uniform matroids -------------------------------------------------------------


def test_uniform_goldens():
    assert uniform_matroid("ab", 0).values == (0, 0, 0, 0)
    assert uniform_matroid("abc", 2).rank(("a", "b", "c")) == 2
    assert check_matroid(uniform_matroid("abcd", 3)).passed


def test_uniform_duality():
    for n, labels in ((3, "abc"), (4, "abcd")):
        for k in range(n + 1):
            assert dual(uniform_matroid(labels, k)) == uniform_matroid(labels, n - k)


def test_uniform_rank_out_of_range():
    with pytest.raises(StructureError):
        uniform_matroid("ab", 3)
    with pytest.raises(StructureError):
        uniform_matroid("ab", -1)


# --- feasible-set minors ------------------------------------------------------------


def test_feasible_contract_golden(demo_table):
    family = greedoid_minor_feasible(demo_table, "a", "contract")
    assert {str(s) for s in family.subsets()} == {"{}", "{b}", "{c}", "{b,c}"}
    assert family.induced_rank_table() == contract(demo_table, "a")


def test_feasible_contract_rejects_infeasible_covered_element(demo_table):
    # b lies in the feasible set {a,b} but {b} alone is infeasible
    with pytest.raises(ContractionError, match="not a greedoid"):
        greedoid_minor_feasible(demo_table, "b", "contract")
    # the rank-based contraction indeed breaks subcardinality
    assert contract(demo_table, "b").rank(("a",)) == 2


def test_feasible_delete_always_greedoid():
    for g in enumerate_tables(EnumSpec(3, "greedoid")):
        for label in g.ground.labels:
            family = greedoid_minor_feasible(g, label, "delete")
            induced = family.induced_rank_table()
            assert induced == delete(g, label)
            assert check_greedoid(induced).passed


def test_feasible_minors_follow_the_label_set_definitions():
    # F is feasible in G - p iff F is feasible in G; F is feasible in G / p
    # iff F + p is; contracting a loop p (in no feasible set) deletes it
    for n in range(4):
        for g in enumerate_tables(EnumSpec(n, "greedoid")):
            subsets = [frozenset(s.labels()) for s in g.ground.subsets()]
            feasible = {f for f in subsets if g.rank(f) == len(f)}
            for p in g.ground.labels:
                rest = [f for f in subsets if p not in f]
                deleted = {f for f in rest if f in feasible}
                got = greedoid_minor_feasible(g, p, "delete")
                assert {frozenset(s.labels()) for s in got.subsets()} == deleted
                if frozenset((p,)) in feasible:
                    contracted = {f for f in rest if f | {p} in feasible}
                elif not any(p in f for f in feasible):
                    contracted = deleted
                else:
                    with pytest.raises(ContractionError):
                        greedoid_minor_feasible(g, p, "contract")
                    continue
                got = greedoid_minor_feasible(g, p, "contract")
                assert {frozenset(s.labels()) for s in got.subsets()} == contracted


def test_feasible_contract_of_loop_equals_delete():
    g = make_table("ab", [0, 0, 1, 1])  # a is a greedoid loop
    assert check_greedoid(g).passed
    deleted = greedoid_minor_feasible(g, "a", "delete")
    contracted = greedoid_minor_feasible(g, "a", "contract")
    assert deleted.members == contracted.members
    assert contracted.induced_rank_table() == contract(g, "a")


def test_feasible_minor_rejects_non_greedoid(demo_table):
    with pytest.raises(StructureError, match="not a greedoid"):
        greedoid_minor_feasible(dual(demo_table), "a", "delete")
    with pytest.raises(Exception, match="kind"):
        greedoid_minor_feasible(demo_table, "a", "shrink")
