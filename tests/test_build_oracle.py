"""The bit-set constructors and the level-by-level recursion against the
per-mask constructions and the depth-first recursion of ``build_oracle``."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    EnumSpec,
    GroundSet,
    RankFunctionError,
    RootedGraph,
    Tree,
    all_rooted_graphs,
    all_trees,
    branching_greedoid,
    convex_closure,
    enumerate_tables,
    pruning_antimatroid,
    random_tables,
    table_from_values,
    tutte_recursive,
    tutte_subset,
)
from rankdual.structures import _closure_gaps, _edge_pairs, branching_rows
from rankdual.verify import _rooted_graphs

from build_oracle import (
    oracle_branching_values,
    oracle_closure_gaps,
    oracle_convex_closure,
    oracle_pruning_values,
    oracle_recursion,
)

LABELS = "abcdefghijklmnopqrstuvwx"


def middle(remaining):
    bits = [p for p in range(remaining.bit_length()) if remaining >> p & 1]
    return bits[len(bits) // 2]


PIVOTS = ("lowest", "highest", middle)


def assert_recursions_match(g):
    for pivot in PIVOTS:
        assert tutte_recursive(g, pivot) == oracle_recursion(g, pivot), (pivot, g.values)


def random_tree(rng, edges):
    """Random labelled tree: each new vertex hangs from an earlier one; the
    edges come out in shuffled order with shuffled endpoints."""
    pairs = [(rng.randrange(v), v) for v in range(1, edges + 1)]
    rng.shuffle(pairs)
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    vertices = tuple(f"x{i}" for i in range(edges + 1))
    return vertices, [(LABELS[i], f"x{a}", f"x{b}") for i, (a, b) in enumerate(pairs)]


def random_rooted_graph(rng, edges):
    """Random connected simple graph with the given edge count: a random
    spanning tree plus random extra edges, rooted at a random vertex."""
    order = rng.randint(2 if edges else 1, edges + 1)
    while order * (order - 1) // 2 < edges:
        order += 1
    tree = [(rng.randrange(v), v) for v in range(1, order)]
    extra = [p for p in ((a, b) for b in range(order) for a in range(b)) if p not in tree]
    pairs = tree + rng.sample(extra, edges - len(tree))
    rng.shuffle(pairs)
    vertices = tuple(f"x{i}" for i in range(order))
    labelled = [(LABELS[i], f"x{a}", f"x{b}") for i, (a, b) in enumerate(pairs)]
    return RootedGraph(vertices, rng.choice(vertices), labelled)


def test_every_small_tree_and_rooted_graph():
    for tree in all_trees(8):
        g = pruning_antimatroid(tree)
        assert g.values == oracle_pruning_values(tree), tree
    for rg in all_rooted_graphs(5):
        g = branching_greedoid(rg)
        assert g.values == oracle_branching_values(rg), rg


def test_seeded_random_structures_up_to_twelve_edges():
    rng = random.Random(2024)
    for edges in range(13):
        for _ in range(3):
            tree = Tree(*random_tree(rng, edges))
            assert pruning_antimatroid(tree).values == oracle_pruning_values(tree), tree
            rg = random_rooted_graph(rng, edges)
            assert branching_greedoid(rg).values == oracle_branching_values(rg), rg


def test_recursion_on_structures_and_random_tables():
    rng = random.Random(7)
    for edges in (3, 6, 9):
        assert_recursions_match(branching_greedoid(random_rooted_graph(rng, edges)))
        assert_recursions_match(pruning_antimatroid(Tree(*random_tree(rng, edges))))
    for g in random_tables(150, max_n=6, seed=31):
        assert_recursions_match(g)


def test_convex_closure_of_every_subset():
    tables = [pruning_antimatroid(tree) for tree in all_trees(6)]
    tables += list(enumerate_tables(EnumSpec(3, "full-antimatroid")))
    for g in tables:
        for a in range(g.ground.size):
            got = convex_closure(g, g.ground.subset_from_mask(a)).bits
            assert got == oracle_convex_closure(g, a), (g.values, a)


def assert_rows_match(vertices, pairs):
    """branching_rows of one graph for all roots at once equals its rows for
    one root at a time and the per-mask search for every root."""
    roots = range(len(vertices))
    rows = branching_rows(len(pairs), len(vertices), (pairs,), roots)
    assert rows == b"".join(branching_rows(len(pairs), len(vertices), (pairs,), (r,)) for r in roots)
    edges = [(LABELS[i], vertices[a], vertices[b]) for i, (a, b) in enumerate(pairs)]
    size = 1 << len(pairs)
    for i, root in enumerate(vertices):
        row = tuple(rows[i * size : (i + 1) * size])
        assert row == oracle_branching_values(RootedGraph(vertices, root, edges)), (root, edges)


def test_branching_rows_of_every_small_graph():
    # every rooted tree shape and every cyclic graph up to five edges
    for v, graphs, _ in _rooted_graphs(5):
        for pairs in graphs:
            assert_rows_match(tuple(f"v{i}" for i in range(v)), pairs)


def test_batched_rows_are_the_branching_greedoids_of_the_census():
    # each census batch at once, against one branching_greedoid per
    # (graph, root); the tree batches have one root, the cyclic ones all
    for v, graphs, roots in _rooted_graphs(5):
        e = len(graphs[0])
        rows = branching_rows(e, v, graphs, roots)
        vertices = tuple(f"v{i}" for i in range(v))
        blocks = [(pairs, root) for pairs in graphs for root in roots]
        assert len(rows) == len(blocks) << e
        for b, (pairs, root) in enumerate(blocks):
            edges = [(LABELS[i], f"v{x}", f"v{y}") for i, (x, y) in enumerate(pairs)]
            expected = branching_greedoid(RootedGraph(vertices, f"v{root}", edges)).values
            assert tuple(rows[b << e : (b + 1) << e]) == expected, (pairs, root)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(1, 5), st.randoms(use_true_random=False))
def test_a_batch_of_mixed_graphs_is_its_graphs_rows_laid_end_to_end(edges, count, rng):
    # graphs of one edge count on 9 vertices, connected or not, and any
    # listed roots: the field width of a graph need not be whole bytes
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    graphs = [tuple(rng.sample(pairs, edges)) for _ in range(count)]
    roots = rng.sample(range(9), rng.randint(1, 3))
    rows = branching_rows(edges, 9, graphs, roots)
    assert rows == b"".join(branching_rows(edges, 9, (g,), (r,)) for g in graphs for r in roots)


def test_a_batch_may_use_more_than_256_vertex_pairs():
    # 128 graphs of 5 edges on 40 vertices use 428 distinct vertex pairs
    rng = random.Random(0)
    pairs = [(a, b) for a in range(40) for b in range(a + 1, 40)]
    graphs = [tuple(rng.sample(pairs, 5)) for _ in range(128)]
    assert len(set().union(*graphs)) == 428
    rows = branching_rows(5, 40, graphs, (0, 1))
    assert rows == b"".join(branching_rows(5, 40, (g,), (r,)) for g in graphs for r in (0, 1))


def test_branching_rows_of_seeded_graphs_up_to_ten_edges():
    rng = random.Random(11)
    for edges in range(11):
        for _ in range(2):
            rg = random_rooted_graph(rng, edges)
            assert_rows_match(rg.vertices, _edge_pairs(rg.vertices, rg.edges))


def closure_outcome(build, g):
    try:
        return build(g)
    except RankFunctionError as exc:
        return type(exc), str(exc)


def test_closure_table_of_trees_and_full_antimatroids():
    tables = [pruning_antimatroid(tree) for tree in all_trees(7)]
    tables += [g for n in range(4) for g in enumerate_tables(EnumSpec(n, "full-antimatroid"))]
    for g in tables:
        assert _closure_gaps(g) == oracle_closure_gaps(g), g.values


@st.composite
def convex_families(draw):
    """A table over n <= 6 elements whose convex masks C (those with
    r(S - C) = |S - C|) are an arbitrary family, or that family closed
    under intersection, so that every closure is convex."""
    n = draw(st.integers(0, 6))
    full = (1 << n) - 1
    family = draw(st.sets(st.integers(0, full), max_size=12))
    if draw(st.booleans()):
        family.add(full)
        while True:
            meets = {a & b for a in family for b in family} - family
            if not meets:
                break
            family |= meets
    values = [m.bit_count() - ((full ^ m) not in family) for m in range(full + 1)]
    return table_from_values(GroundSet(tuple(LABELS[:n])), values)


@settings(max_examples=200, deadline=None)
@given(convex_families())
def test_closure_table_matches_oracle_on_any_convex_family(g):
    # where a closure is not convex, both sides raise the same error
    assert closure_outcome(_closure_gaps, g) == closure_outcome(oracle_closure_gaps, g)


def test_empty_and_single_element_grounds():
    assert_recursions_match(table_from_values(GroundSet(()), [0]))
    for r1 in range(-2, 4):
        assert_recursions_match(table_from_values(GroundSet(("a",)), [0, r1]))
    lone = RootedGraph(("r",), "r", ())
    assert branching_greedoid(lone).values == oracle_branching_values(lone) == (0,)
    point = Tree(("x0",), ())
    assert pruning_antimatroid(point).values == oracle_pruning_values(point) == (0,)
    edge = Tree(*random_tree(random.Random(1), 1))
    assert pruning_antimatroid(edge).values == oracle_pruning_values(edge) == (0, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.integers(-3, 6), min_size=(1 << n) - 1, max_size=(1 << n) - 1)
    )
)
def test_recursion_matches_oracle_on_any_table(rest):
    n = len(rest).bit_length()
    g = table_from_values(GroundSet(tuple(LABELS[:n])), [0] + rest)
    assert_recursions_match(g)
    assert tutte_recursive(g) == tutte_subset(g)
