"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or in the
captured output of a failing run) and asserts every expected value exactly;
all comparisons are exact integer/polynomial equality. Stated runtime bounds
are enforced with perf_counter measurements.
"""

import time
from pathlib import Path

from rankdual import (
    DemiTriple,
    EnumSpec,
    LaurentPoly2,
    check_demimatroid_characterization,
    check_demimatroid_triple,
    check_dual_greedoid,
    branching_greedoid,
    contract,
    delete,
    demo_pruning_tree,
    demo_rooted_tree,
    dual,
    enumerate_tables,
    pruning_antimatroid,
    random_monotone_tables,
    random_tables,
    run_suite,
    swap_vars,
    table_from_values,
    tutte_recursive,
    tutte_subset,
)
from rankdual.axioms import block_failures
from rankdual.core import DECREASE, JUMP, GroundSet, step_sets
from rankdual.ops import _dual_values
from rankdual.verify import _corpora

SEED = 20260810
CORPUS_COUNT = 1000


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def corpus():
    return random_tables(CORPUS_COUNT, max_n=6, seed=SEED, lo=-3, hi=8)


def test_criterion_01_golden_dual_row():
    expected = {
        (): 0, ("a",): -1, ("b",): 0, ("c",): 0,
        ("a", "b"): 0, ("a", "c"): -1, ("b", "c"): 0, ("a", "b", "c"): 0,
    }
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        gd = dual(branching_greedoid(demo_rooted_tree()))
        best = min(best, time.perf_counter() - start)
    ok = all(gd.rank(labels) == value for labels, value in expected.items())
    ok = ok and gd.values == (0, -1, 0, 0, 0, -1, 0, 0)
    ok = ok and best < 0.001
    report(1, "golden-dual-row", ok, f"runtime {best * 1e6:.0f} us < 1 ms")


def test_criterion_02_golden_minor_rows():
    g = branching_greedoid(demo_rooted_tree())
    reduced, contracted = delete(g, "a"), contract(g, "a")
    ok = (
        reduced.values == (0, 0, 1, 1)
        and [reduced.rank(s) for s in ((), ("b",), ("c",), ("b", "c"))] == [0, 0, 1, 1]
        and contracted.values == (0, 1, 1, 2)
        and [contracted.rank(s) for s in ((), ("b",), ("c",), ("b", "c"))] == [0, 1, 1, 2]
    )
    report(2, "golden-minor-rows", ok)


def test_criterion_03_example_polynomials():
    g = branching_greedoid(demo_rooted_tree())
    expectations = [
        (g, {(3, 1): 1, (3, 0): 1, (2, 1): 1, (2, 0): 2, (1, 0): 2, (0, 0): 1}),
        (delete(g, "a"), {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}),
        (contract(g, "a"), {(2, 0): 1, (1, 0): 2, (0, 0): 1}),
        (delete(g, "b"), {(2, 0): 1, (1, 0): 2, (0, 0): 1}),
        (contract(g, "b"), {(3, 0): 1, (2, 0): 1, (1, -1): 1, (0, -1): 1}),
    ]
    ok = True
    for table, terms in expectations:
        expected = LaurentPoly2(terms)
        ok = ok and tutte_subset(table) == expected
        ok = ok and tutte_recursive(table, "lowest") == expected
        ok = ok and tutte_recursive(table, "highest") == expected
    f = tutte_subset(g)
    ok = ok and f == tutte_subset(delete(g, "a")).shift(2, 0) + tutte_subset(contract(g, "a"))
    ok = ok and f == tutte_subset(delete(g, "b")).shift(1, 0) + tutte_subset(
        contract(g, "b")
    ).shift(0, 1)
    report(3, "example-polynomials", ok)


def test_criterion_04_duality_swap_corpus():
    start = time.perf_counter()
    checked = 0
    ok = True
    for g in corpus():
        checked += 1
        if tutte_subset(dual(g)) != swap_vars(tutte_subset(g)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and checked == CORPUS_COUNT and elapsed < 10.0
    report(4, "duality-swap", ok, f"{checked} tables, {elapsed:.2f}s < 10s")


def test_criterion_05_recursion_oracle_corpus():
    start = time.perf_counter()
    checked = 0
    ok = True
    for g in corpus():
        checked += 1
        reference = tutte_subset(g)
        if tutte_recursive(g, "lowest") != reference or tutte_recursive(g, "highest") != reference:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and checked == CORPUS_COUNT and elapsed < 30.0
    report(5, "recursion-oracle", ok, f"{checked} tables x 2 pivots, {elapsed:.2f}s < 30s")


def test_criterion_06_involution_and_exchange():
    ok = True
    for g in corpus():
        if dual(dual(g)) != g:
            ok = False
            break
        gd = dual(g)
        for p in g.ground.labels:
            if dual(delete(g, p)) != contract(gd, p) or dual(contract(g, p)) != delete(gd, p):
                ok = False
                break
        if not ok:
            break
    report(6, "involution-and-exchange", ok)


def test_criterion_07_greedoid_intersection_exhaustive():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(5):
        for corpus in _corpora(n, "all-normalized-subcardinal-monotone"):
            count = len(corpus) >> n
            checked += count
            # the sets of tables failing each class, one bit per table
            greedoid, matroid, _ = block_failures(n, corpus, count)
            duals = [x for b in range(count) for x in _dual_values(corpus[b << n : (b + 1) << n], n)]
            dual_greedoid, _, _ = block_failures(n, duals, count)
            ok = ok and (greedoid | dual_greedoid) == matroid
    elapsed = time.perf_counter() - start
    ok = ok and checked == 1 + 2 + 9 + 209 + 134602 and elapsed < 300.0
    report(7, "greedoid-intersection", ok, f"{checked} tables, actual runtime {elapsed:.2f}s")


def test_criterion_08_dual_greedoid_axioms_exhaustive():
    ok = True
    checked = 0
    for n in range(5):
        for g in enumerate_tables(EnumSpec(n, "greedoid")):
            checked += 1
            if not check_dual_greedoid(dual(g)).passed:
                ok = False
                break
        if not ok:
            break
    report(8, "dual-greedoid-axioms", ok, f"{checked} greedoids")


def test_criterion_09_closure_identities():
    closure = run_suite("closure_dual_rank", {"n": 4, "max_tree_edges": 8})
    convex = run_suite("convex_zero_dual", {"n": 4, "max_tree_edges": 8})
    g = pruning_antimatroid(demo_pruning_tree())
    spot = dual(g).rank(("a", "d", "f")) == -3
    ok = closure.passed and convex.passed and spot
    report(
        9,
        "closure-identities",
        ok,
        f"{closure.instances_checked + convex.instances_checked} subset checks, spot r*({{a,d,f}}) = -3",
    )


def test_criterion_10_demimatroid_equivalences():
    ok = True
    checked = 0

    def instances():
        for n in range(4):
            yield from enumerate_tables(EnumSpec(n, "all-normalized-subcardinal-monotone"))
        yield from random_monotone_tables(CORPUS_COUNT, max_n=6, seed=SEED)

    for g in instances():
        checked += 1
        characterization = check_demimatroid_characterization(g).passed
        triple = check_demimatroid_triple(DemiTriple(g, dual(g))).passed
        if characterization != triple:
            ok = False
            break
        # unit rank increase (no jump step) iff the nullity |A| - r(A) never drops
        (jump,) = step_sets(g.n, g.values, JUMP)
        (drop,) = step_sets(g.n, [m.bit_count() - v for m, v in enumerate(g.values)], DECREASE)
        if any(jump) != any(drop):
            ok = False
            break

    demo = branching_greedoid(demo_rooted_tree())
    witness = check_demimatroid_characterization(demo).witnesses["unit-increase"]
    ok = ok and str(witness["A"]) == "{b}" and witness["p"] == "a"
    report(10, "demimatroid-equivalences", ok, f"{checked} tables, witness A={{b}} p=a")


def test_criterion_11_root_adjacency_and_full_duals():
    adjacency = run_suite("root_adjacency", {"max_edges": 6})
    nonpositive = run_suite("full_dual_nonpositive", {"n": 4})
    ok = adjacency.passed and nonpositive.passed
    report(
        11,
        "root-adjacency-and-full-duals",
        ok,
        f"{adjacency.instances_checked} rooted graphs, {nonpositive.instances_checked} full greedoids",
    )


def test_criterion_12_non_normalized_regression_and_erratum():
    table = table_from_values(GroundSet(("a", "b")), (3, -1, 7, 2))
    expected = LaurentPoly2({(-5, -6): 1, (-1, -3): 1, (3, 2): 1, (0, 0): 1})
    ok = tutte_subset(table) == expected
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    ok = ok and "t^3*z^2" in readme and "inconsistent" in readme.lower()
    report(12, "non-normalized-regression", ok, "erratum note present in README")
