"""Reports of suites made to fail.

Each scenario swaps one function the suite relies on for a wrong one, so
that the suite records failures. Suites describe their instances and
witnesses with callables that run only when a failure is recorded; the
reports below pin the exact failure lines, instance counts and the
``max_failures`` / ``fail_fast`` behaviour, so a callable that reads a
variable late, from a later loop iteration, shows up as a changed line.
"""

import pytest

from rankdual import GroundSet, run_suite, structures, table_from_values, verify
from rankdual.cli import run_command


def _plus_one(fn):
    """fn with 1 added to every rank of the table it returns."""

    def wrong(*args):
        table = fn(*args)
        return table_from_values(table.ground, [v + 1 for v in table.values])

    return wrong


def _jumping(step_sets):
    """step_sets with a jump step in every table, of no element in particular."""

    def wrong(n, values, *relations, **blocks):
        found = step_sets(n, values, *relations, **blocks)
        return [[1] if relation is verify.JUMP else sets for relation, sets in zip(relations, found)]

    return wrong


def _scenarios():
    """Suite name: (params, {attribute of ``verify``, or "structures.<name>":
    its wrong replacement})."""
    dual, delete, contract = verify.dual, verify.delete, verify.contract
    tutte_subset, dual_values = verify.tutte_subset, verify._dual_values
    return {
        "involution": ({"count": 4, "max_n": 2, "seed": 3}, {"dual": _plus_one(dual)}),
        "exchange": ({"count": 3, "max_n": 2, "seed": 3}, {"contract": delete}),
        "contract_formula": ({"count": 3, "max_n": 2, "seed": 3}, {"contract": delete}),
        "direct_sum_dual": ({"count": 3, "max_n": 2, "seed": 3}, {"dual": _plus_one(dual)}),
        "recursion_oracle": (
            {"count": 3, "max_n": 2, "seed": 3},
            {"tutte_recursive": lambda g, strategy: tutte_subset(g).shift(1, 0)},
        ),
        "duality_swap": (
            {"count": 4, "max_n": 2, "seed": 3},
            {"swap_vars": lambda p: p.shift(0, 1)},
        ),
        "polynomiality": (
            {"count": 6, "max_n": 2, "lo": 0, "hi": 2, "seed": 3},
            {"tutte_subset": lambda g: tutte_subset(g).shift(-1, 0)},
        ),
        "contract_feasibility": ({"n": 2}, {"contract": delete}),
        "minor_agreement": ({"n": 2}, {"delete": contract}),
        "dual_greedoid_axioms": ({"n": 2}, {"dual": lambda g: g}),
        "greedoid_intersection": ({"n": 2}, {"_dual_values": lambda v, n: [1] * len(v)}),
        # the trees pass; every rooted triangle fails
        "root_adjacency": (
            {"max_edges": 3},
            {"branching_rows": lambda edges, vertices, pairs: [[0] * 7 + [5]] * vertices},
        ),
        "full_dual_nonpositive": ({"n": 2}, {"_dual_values": lambda v, n: [1] * len(v)}),
        # n = 0: the one antimatroid passes, the pruning trees fail
        "closure_dual_rank": (
            {"n": 0, "max_tree_edges": 2},
            {"closure_table": lambda g: [g.ground.full_mask] * g.ground.size},
        ),
        "convex_zero_dual": (
            {"n": 2, "max_tree_edges": 2},
            {"_dual_values": lambda v, n: [x + 1 for x in dual_values(v, n)]},
        ),
        "nullity_monotone": (
            {"n": 0, "count": 3, "max_n": 2, "seed": 3},
            {"step_sets": _jumping(verify.step_sets)},
        ),
        "demimatroid_characterization": (
            {"n": 1, "count": 4, "max_n": 2, "seed": 3},
            {"dual": lambda g: g},
        ),
        # the empty set keeps rank 0, so that contraction still applies
        "branching_goldens": (
            {},
            {
                "branching_greedoid": lambda rg: table_from_values(
                    GroundSet(("a", "b", "c")), (0, 2, 0, 2, 1, 2, 1, 3)
                )
            },
        ),
        "pruning_goldens": (
            {},
            {
                "_dual_values": lambda v, n: [x + 1 for x in dual_values(v, n)],
                "structures.convex_closure": lambda g, subset: subset,
            },
        ),
    }


def _patch(monkeypatch, patches):
    for name, replacement in patches.items():
        module, _, attr = name.rpartition(".")
        monkeypatch.setattr(structures if module else verify, attr, replacement)


def failing_reports(name):
    """The lines of the reports with max_failures=3 and with fail_fast of
    one scenario; the caller patches ``verify``."""
    params, _ = _scenarios()[name]
    capped = run_suite(name, {**params, "max_failures": 3}).to_report()
    fast = run_suite(name, {**params, "fail_fast": True}).to_report()
    return tuple(capped.split("\n")), tuple(fast.split("\n"))


# reports of the library before suite descriptions became callables; the
# two golden suites' fail_fast reports stop at their first failure, like
# every other suite's
EXPECTED = {
    "branching_goldens": (
        (
            "suite: branching_goldens",
            "params: max_failures=3",
            "instances: 13",
            "failures: 3",
            "failure: demo rooted tree | branching ranks | (0, 2, 0, 2, 1, 2, 1, 3)",
            "failure: demo rooted tree | dual ranks | (0, -1, 0, 0, 0, -1, 1, 0)",
            "failure: demo rooted tree | contraction ranks | (0, 0, 0, 1)",
            "result: fail",
        ),
        (
            "suite: branching_goldens",
            "params: fail_fast=True",
            "instances: 1",
            "failures: 1",
            "failure: demo rooted tree | branching ranks | (0, 2, 0, 2, 1, 2, 1, 3)",
            "result: fail",
        ),
    ),
    "closure_dual_rank": (
        (
            "suite: closure_dual_rank",
            "params: max_failures=3 max_tree_edges=2 n=0",
            "instances: 9",
            "failures: 3",
            "failure: pruning-tree[1] edges=1"
            " | dual rank equals minus the closure gap"
            " | A={} dual=0 gap=1",
            "failure: pruning-tree[2] edges=2"
            " | dual rank equals minus the closure gap"
            " | A={} dual=0 gap=2",
            "failure: pruning-tree[2] edges=2"
            " | dual rank equals minus the closure gap"
            " | A={a} dual=0 gap=1",
            "result: fail",
        ),
        (
            "suite: closure_dual_rank",
            "params: fail_fast=True max_tree_edges=2 n=0",
            "instances: 3",
            "failures: 1",
            "failure: pruning-tree[1] edges=1"
            " | dual rank equals minus the closure gap"
            " | A={} dual=0 gap=1",
            "result: fail",
        ),
    ),
    "contract_feasibility": (
        (
            "suite: contract_feasibility",
            "params: max_failures=3 n=2",
            "instances: 22",
            "failures: 2",
            "failure: greedoid[5] values=(0, 0, 1, 2) p=a"
            " | contraction is a greedoid iff the singleton is feasible"
            " | ",
            "failure: greedoid[7] values=(0, 1, 0, 2) p=b"
            " | contraction is a greedoid iff the singleton is feasible"
            " | ",
            "result: fail",
        ),
        (
            "suite: contract_feasibility",
            "params: fail_fast=True n=2",
            "instances: 5",
            "failures: 1",
            "failure: greedoid[5] values=(0, 0, 1, 2) p=a"
            " | contraction is a greedoid iff the singleton is feasible"
            " | ",
            "result: fail",
        ),
    ),
    "contract_formula": (
        (
            "suite: contract_formula",
            "params: count=3 max_failures=3 max_n=2 seed=3",
            "instances: 4",
            "failures: 3",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | contract formula at a | (0, -1)",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | contract formula at b | (0, 5)",
            "failure: table[2] n=2 values=(0, 4, 7, 6) | contract formula at a | (0, 7)",
            "result: fail",
        ),
        (
            "suite: contract_formula",
            "params: count=3 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | contract formula at a | (0, -1)",
            "result: fail",
        ),
    ),
    "convex_zero_dual": (
        (
            "suite: convex_zero_dual",
            "params: max_failures=3 max_tree_edges=2 n=2",
            "instances: 22",
            "failures: 3",
            "failure: antimatroid[0] n=0 values=(0,)"
            " | convex iff dual rank zero"
            " | C={} convex=True dual=1",
            "failure: antimatroid[1] n=1 values=(0, 1)"
            " | convex iff dual rank zero"
            " | C={} convex=True dual=1",
            "failure: antimatroid[1] n=1 values=(0, 1)"
            " | convex iff dual rank zero"
            " | C={a} convex=True dual=1",
            "result: fail",
        ),
        (
            "suite: convex_zero_dual",
            "params: fail_fast=True max_tree_edges=2 n=2",
            "instances: 1",
            "failures: 1",
            "failure: antimatroid[0] n=0 values=(0,)"
            " | convex iff dual rank zero"
            " | C={} convex=True dual=1",
            "result: fail",
        ),
    ),
    "demimatroid_characterization": (
        (
            "suite: demimatroid_characterization",
            "params: count=4 max_failures=3 max_n=2 n=1 seed=3",
            "instances: 7",
            "failures: 3",
            "failure: enumerated[1] n=1 values=(0, 0)"
            " | characterization passes iff (S, r, r*) is a demi triple"
            " | characterization=True triple=False",
            "failure: enumerated[2] n=1 values=(0, 1)"
            " | characterization passes iff (S, r, r*) is a demi triple"
            " | characterization=True triple=False",
            "failure: sampled[3] n=1 values=(0, 0)"
            " | characterization passes iff (S, r, r*) is a demi triple"
            " | characterization=True triple=False",
            "result: fail",
        ),
        (
            "suite: demimatroid_characterization",
            "params: count=4 fail_fast=True max_n=2 n=1 seed=3",
            "instances: 2",
            "failures: 1",
            "failure: enumerated[1] n=1 values=(0, 0)"
            " | characterization passes iff (S, r, r*) is a demi triple"
            " | characterization=True triple=False",
            "result: fail",
        ),
    ),
    "direct_sum_dual": (
        (
            "suite: direct_sum_dual",
            "params: count=3 max_failures=3 max_n=2 seed=3",
            "instances: 3",
            "failures: 3",
            "failure: pair[0] n1=0 n2=2 | dual(g1 + g2) == dual(g1) + dual(g2) | ",
            "failure: pair[1] n1=2 n2=1 | dual(g1 + g2) == dual(g1) + dual(g2) | ",
            "failure: pair[2] n1=0 n2=1 | dual(g1 + g2) == dual(g1) + dual(g2) | ",
            "result: fail",
        ),
        (
            "suite: direct_sum_dual",
            "params: count=3 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: pair[0] n1=0 n2=2 | dual(g1 + g2) == dual(g1) + dual(g2) | ",
            "result: fail",
        ),
    ),
    "dual_greedoid_axioms": (
        (
            "suite: dual_greedoid_axioms",
            "params: max_failures=3 n=2",
            "instances: 10",
            "failures: 2",
            "failure: greedoid[5] n=2 values=(0, 0, 1, 2)"
            " | dual of a greedoid passes the starred axioms"
            " | Gr1*: fail (B={a}, p=b); overall: fail",
            "failure: greedoid[7] n=2 values=(0, 1, 0, 2)"
            " | dual of a greedoid passes the starred axioms"
            " | Gr1*: fail (B={b}, p=a); overall: fail",
            "result: fail",
        ),
        (
            "suite: dual_greedoid_axioms",
            "params: fail_fast=True n=2",
            "instances: 6",
            "failures: 1",
            "failure: greedoid[5] n=2 values=(0, 0, 1, 2)"
            " | dual of a greedoid passes the starred axioms"
            " | Gr1*: fail (B={a}, p=b); overall: fail",
            "result: fail",
        ),
    ),
    "duality_swap": (
        (
            "suite: duality_swap",
            "params: count=4 max_failures=3 max_n=2 seed=3",
            "instances: 4",
            "failures: 3",
            "failure: table[0] n=0 values=(0,) | poly(dual) == swap_vars(poly) | ",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | poly(dual) == swap_vars(poly) | ",
            "failure: table[2] n=2 values=(0, 4, 7, 6) | poly(dual) == swap_vars(poly) | ",
            "result: fail",
        ),
        (
            "suite: duality_swap",
            "params: count=4 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[0] n=0 values=(0,) | poly(dual) == swap_vars(poly) | ",
            "result: fail",
        ),
    ),
    "exchange": (
        (
            "suite: exchange",
            "params: count=3 max_failures=3 max_n=2 seed=3",
            "instances: 8",
            "failures: 3",
            "failure: table[1] n=2 values=(0, 5, -1, 2)"
            " | dual(delete(g,a)) == contract(dual(g),a)"
            " | ",
            "failure: table[1] n=2 values=(0, 5, -1, 2)"
            " | dual(contract(g,a)) == delete(dual(g),a)"
            " | ",
            "failure: table[1] n=2 values=(0, 5, -1, 2)"
            " | dual(delete(g,b)) == contract(dual(g),b)"
            " | ",
            "result: fail",
        ),
        (
            "suite: exchange",
            "params: count=3 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[1] n=2 values=(0, 5, -1, 2)"
            " | dual(delete(g,a)) == contract(dual(g),a)"
            " | ",
            "result: fail",
        ),
    ),
    "full_dual_nonpositive": (
        (
            "suite: full_dual_nonpositive",
            "params: max_failures=3 n=2",
            "instances: 5",
            "failures: 3",
            "failure: full-greedoid[0] n=0 values=(0,)"
            " | dual rank of a full greedoid is nonpositive everywhere"
            " | max=1",
            "failure: full-greedoid[2] n=1 values=(0, 1)"
            " | dual rank of a full greedoid is nonpositive everywhere"
            " | max=1",
            "failure: full-greedoid[5] n=2 values=(0, 0, 1, 2)"
            " | dual rank of a full greedoid is nonpositive everywhere"
            " | max=1",
            "result: fail",
        ),
        (
            "suite: full_dual_nonpositive",
            "params: fail_fast=True n=2",
            "instances: 1",
            "failures: 1",
            "failure: full-greedoid[0] n=0 values=(0,)"
            " | dual rank of a full greedoid is nonpositive everywhere"
            " | max=1",
            "result: fail",
        ),
    ),
    "greedoid_intersection": (
        (
            "suite: greedoid_intersection",
            "params: max_failures=3 n=2",
            "instances: 12",
            "failures: 3",
            "failure: n=0 values=(0,) | greedoid(r) and greedoid(r*) iff matroid(r) | matroid=True",
            "failure: n=1 values=(0, 0)"
            " | greedoid(r) and greedoid(r*) iff matroid(r)"
            " | matroid=True",
            "failure: n=1 values=(0, 1)"
            " | greedoid(r) and greedoid(r*) iff matroid(r)"
            " | matroid=True",
            "result: fail",
        ),
        (
            "suite: greedoid_intersection",
            "params: fail_fast=True n=2",
            "instances: 1",
            "failures: 1",
            "failure: n=0 values=(0,) | greedoid(r) and greedoid(r*) iff matroid(r) | matroid=True",
            "result: fail",
        ),
    ),
    "involution": (
        (
            "suite: involution",
            "params: count=4 max_failures=3 max_n=2 seed=3",
            "instances: 4",
            "failures: 3",
            "failure: table[0] n=0 values=(0,) | dual(dual(g)) == g | (1,)",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | dual(dual(g)) == g | (1, 6, 0, 3)",
            "failure: table[2] n=2 values=(0, 4, 7, 6) | dual(dual(g)) == g | (1, 5, 8, 7)",
            "result: fail",
        ),
        (
            "suite: involution",
            "params: count=4 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[0] n=0 values=(0,) | dual(dual(g)) == g | (1,)",
            "result: fail",
        ),
    ),
    "minor_agreement": (
        (
            "suite: minor_agreement",
            "params: max_failures=3 n=2",
            "instances: 30",
            "failures: 3",
            "failure: greedoid[5] values=(0, 0, 1, 2) p=a"
            " | feasible-set deletion matches rank deletion"
            " | ",
            "failure: greedoid[5] values=(0, 0, 1, 2) p=b"
            " | feasible-set deletion matches rank deletion"
            " | ",
            "failure: greedoid[7] values=(0, 1, 0, 2) p=a"
            " | feasible-set deletion matches rank deletion"
            " | ",
            "result: fail",
        ),
        (
            "suite: minor_agreement",
            "params: fail_fast=True n=2",
            "instances: 13",
            "failures: 1",
            "failure: greedoid[5] values=(0, 0, 1, 2) p=a"
            " | feasible-set deletion matches rank deletion"
            " | ",
            "result: fail",
        ),
    ),
    "nullity_monotone": (
        (
            "suite: nullity_monotone",
            "params: count=3 max_failures=3 max_n=2 n=0 seed=3",
            "instances: 4",
            "failures: 3",
            "failure: enumerated[0] n=0 values=(0,)"
            " | unit rank increase iff monotone nullity (iff bounded stretch)"
            " | unit=False nullity=True stretch=True",
            "failure: sampled[0] n=0 values=(0,)"
            " | unit rank increase iff monotone nullity (iff bounded stretch)"
            " | unit=False nullity=True stretch=True",
            "failure: sampled[2] n=2 values=(0, 0, 0, 1)"
            " | unit rank increase iff monotone nullity (iff bounded stretch)"
            " | unit=False nullity=True stretch=True",
            "result: fail",
        ),
        (
            "suite: nullity_monotone",
            "params: count=3 fail_fast=True max_n=2 n=0 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: enumerated[0] n=0 values=(0,)"
            " | unit rank increase iff monotone nullity (iff bounded stretch)"
            " | unit=False nullity=True stretch=True",
            "result: fail",
        ),
    ),
    "polynomiality": (
        (
            "suite: polynomiality",
            "params: count=6 hi=2 lo=0 max_failures=3 max_n=2 seed=3",
            "instances: 6",
            "failures: 3",
            "failure: table[0] n=0 values=(0,)"
            " | nonnegative exponents iff rank-S-maximum and subcardinal"
            " | (-1, 0)",
            "failure: table[3] n=0 values=(0,)"
            " | nonnegative exponents iff rank-S-maximum and subcardinal"
            " | (-1, 0)",
            "failure: table[4] n=2 values=(0, 0, 1, 1)"
            " | nonnegative exponents iff rank-S-maximum and subcardinal"
            " | (-1, 0)",
            "result: fail",
        ),
        (
            "suite: polynomiality",
            "params: count=6 fail_fast=True hi=2 lo=0 max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[0] n=0 values=(0,)"
            " | nonnegative exponents iff rank-S-maximum and subcardinal"
            " | (-1, 0)",
            "result: fail",
        ),
    ),
    "pruning_goldens": (
        (
            "suite: pruning_goldens",
            "params: max_failures=3",
            "instances: 8",
            "failures: 3",
            "failure: demo pruning tree | dual rank of its complement is 0 | ",
            "failure: demo pruning tree | closure of {b,e,h} | {b,e,h}",
            "failure: demo pruning tree | closure of {a,d,f} | {a,d,f}",
            "result: fail",
        ),
        (
            "suite: pruning_goldens",
            "params: fail_fast=True",
            "instances: 3",
            "failures: 1",
            "failure: demo pruning tree | dual rank of its complement is 0 | ",
            "result: fail",
        ),
    ),
    "recursion_oracle": (
        (
            "suite: recursion_oracle",
            "params: count=3 max_failures=3 max_n=2 seed=3",
            "instances: 6",
            "failures: 3",
            "failure: table[0] n=0 values=(0,) | recursion(lowest) == subset expansion | ",
            "failure: table[0] n=0 values=(0,) | recursion(highest) == subset expansion | ",
            "failure: table[1] n=2 values=(0, 5, -1, 2) | recursion(lowest) == subset expansion | ",
            "result: fail",
        ),
        (
            "suite: recursion_oracle",
            "params: count=3 fail_fast=True max_n=2 seed=3",
            "instances: 1",
            "failures: 1",
            "failure: table[0] n=0 values=(0,) | recursion(lowest) == subset expansion | ",
            "result: fail",
        ),
    ),
    "root_adjacency": (
        (
            "suite: root_adjacency",
            "params: max_edges=3 max_failures=3",
            "instances: 11",
            "failures: 3",
            "failure: cyclic v=3 edges=((0, 1), (0, 2), (1, 2)) root=v0"
            " | dual rank nonnegative iff every vertex is root-adjacent"
            " | min_dual=-4 adjacent=True",
            "failure: cyclic v=3 edges=((0, 1), (0, 2), (1, 2)) root=v1"
            " | dual rank nonnegative iff every vertex is root-adjacent"
            " | min_dual=-4 adjacent=True",
            "failure: cyclic v=3 edges=((0, 1), (0, 2), (1, 2)) root=v2"
            " | dual rank nonnegative iff every vertex is root-adjacent"
            " | min_dual=-4 adjacent=True",
            "result: fail",
        ),
        (
            "suite: root_adjacency",
            "params: fail_fast=True max_edges=3",
            "instances: 9",
            "failures: 1",
            "failure: cyclic v=3 edges=((0, 1), (0, 2), (1, 2)) root=v0"
            " | dual rank nonnegative iff every vertex is root-adjacent"
            " | min_dual=-4 adjacent=True",
            "result: fail",
        ),
    ),
}


def test_every_suite_has_a_failing_scenario():
    assert set(_scenarios()) == set(EXPECTED) == set(verify.SUITES)


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_failing_report(monkeypatch, name):
    _patch(monkeypatch, _scenarios()[name][1])
    assert failing_reports(name) == EXPECTED[name]


def _only_n3_fails(monkeypatch):
    """Make the n = 3 tables of greedoid_intersection fail, and no smaller one."""
    dual_values = verify._dual_values
    monkeypatch.setattr(
        verify, "_dual_values", lambda v, n: [1] * len(v) if n == 3 else dual_values(v, n)
    )


def test_failures_of_pool_tasks_are_kept_in_serial_order(monkeypatch):
    _only_n3_fails(monkeypatch)
    capped = run_suite("greedoid_intersection", {"n": 3, "max_failures": 3})
    fast = run_suite("greedoid_intersection", {"n": 3, "fail_fast": True})
    assert [instance for instance, _, _ in capped.failures] == [
        "n=3 values=(0, 0, 0, 0, 0, 0, 0, 0)",
        "n=3 values=(0, 0, 0, 0, 1, 1, 1, 1)",
        "n=3 values=(0, 0, 1, 1, 0, 0, 1, 1)",
    ]
    assert fast.failures == capped.failures[:1]


def test_fail_fast_counts_do_not_depend_on_workers(monkeypatch):
    # the first failing table is the first n = 3 table: the 12 smaller
    # tables and that one are counted
    _only_n3_fails(monkeypatch)
    result = run_suite("greedoid_intersection", {"n": 3, "fail_fast": True})
    assert result.instances_checked == 13
    assert result.to_report().split("\n")[1:4] == [
        "params: fail_fast=True n=3",
        "instances: 13",
        "failures: 1",
    ]


def test_the_chunk_size_changes_no_intersection_report(monkeypatch):
    def reports():
        runs = ({"n": 3, "max_failures": 3}, {"n": 3}, {"n": 3, "fail_fast": True})
        return [run_suite("greedoid_intersection", params).to_report() for params in runs]

    _only_n3_fails(monkeypatch)
    default_chunks = reports()
    # at 5 tables a chunk, the runs cross chunk boundaries at n = 2 and n = 3,
    # and the 16 failures of the full run fall in several chunks
    monkeypatch.setattr(verify, "_CORPUS_TABLES", 5)
    assert reports() == default_chunks
    assert "\ninstances: 13\n" in default_chunks[2]
    _patch(monkeypatch, _scenarios()["greedoid_intersection"][1])
    assert failing_reports("greedoid_intersection") == EXPECTED["greedoid_intersection"]


@pytest.mark.parametrize("max_failures, code", [("0", 2), ("-1", 2), ("1", 1)])
def test_a_failing_suite_keeps_at_least_one_failure(monkeypatch, capsys, max_failures, code):
    # with no failure kept, a failing suite would report "result: pass"
    _patch(monkeypatch, _scenarios()["dual_greedoid_axioms"][1])
    argv = ["verify", "--suite", "dual_greedoid_axioms", "--params", f"n=2,max_failures={max_failures}"]
    assert run_command(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err == f"error: max_failures = {max_failures} out of range (1 or more)\n"
    else:
        assert "\nfailures: 1\n" in out and out.endswith("result: fail\n")


@pytest.mark.parametrize("fail_fast", [0, "0", False])
def test_fail_fast_zero_checks_every_instance(monkeypatch, fail_fast):
    _patch(monkeypatch, _scenarios()["dual_greedoid_axioms"][1])
    full = run_suite("dual_greedoid_axioms", {"n": 2})
    result = run_suite("dual_greedoid_axioms", {"n": 2, "fail_fast": fail_fast})
    assert len(full.failures) > 1
    assert (result.instances_checked, result.failures) == (full.instances_checked, full.failures)
