"""Reports of suites made to fail.

Each scenario swaps one function the suite relies on for a wrong one, so
that the suite records failures. Suites describe their instances and
witnesses with callables that run only when a failure is recorded; the
reports below pin the exact failure lines, instance counts and the
``max_failures`` / ``fail_fast`` behaviour, so a callable that reads a
variable late, from a later loop iteration, shows up as a changed line.
"""

import itertools

import pytest

from rankdual import GroundSet, SubsetRef, dual, run_suite, structures, table_from_values, verify
from rankdual.cli import run_command
from rankdual.core import TableView, _view_of
from rankdual.ops import _dual_values

from build_oracle import oracle_closure_gaps


def _plus_one(fn):
    """fn with 1 added to every rank of the table it returns."""

    def wrong(*args):
        table = fn(*args)
        return table_from_values(table.ground, [v + 1 for v in table.values])

    return wrong


def _jumping(step_sets):
    """step_sets with a jump step at every mask of every table, of no
    element in particular."""

    def wrong(n, values, *relations, **blocks):
        found = step_sets(n, values, *relations, **blocks)
        return [[-1] if relation is verify.JUMP else sets for relation, sets in zip(relations, found)]

    return wrong


def _packed_plus_one(packed_dual):
    """packed_dual with 1 added to every rank of the tables it returns."""

    def wrong(n, values, blocks=1):
        view = packed_dual(n, values, blocks)
        return _view_of(tuple(v + 1 for v in view.values))

    return wrong


def _lower_halves(half):
    """_half that takes the half without the bit, also when asked for the
    half with it: each contraction reads the deletion."""
    return lambda seq, bit, upper: half(seq, bit, False)


def _cyclic_rows_wrong(edges, vertices, graphs, roots):
    """branching_rows with one wrong row for every root of graphs with a
    cycle (edges >= vertices); trees get their true rows."""
    if edges < vertices:
        return structures.branching_rows(edges, vertices, graphs, roots)
    return bytes([0] * 7 + [5]) * (len(graphs) * len(roots))


def _all_ones(n, values, blocks=1):
    """_packed_dual with every dual rank 1."""
    ones = b"\1" * (blocks << n)
    return TableView(ones, 0, 1, ones)


def _scenarios():
    """Suite name: (params, {attribute of ``verify``: its wrong replacement})."""
    dual, delete, contract = verify.dual, verify.delete, verify.contract
    tutte_subset = verify.tutte_subset
    return {
        # the corpora read the packed duals, and the witnesses the table's
        "involution": (
            {"count": 4, "max_n": 2, "seed": 3},
            {"_packed_dual": _packed_plus_one(verify._packed_dual), "dual": _plus_one(dual)},
        ),
        # a contraction read as the deletion: the report of contract = delete
        "exchange": ({"count": 3, "max_n": 2, "seed": 3}, {"_half": _lower_halves(verify._half)}),
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
        # the verdicts and the witnesses both read the greedoid as its dual
        "dual_greedoid_axioms": (
            {"n": 2},
            {"_packed_dual": lambda n, values, blocks=1: values, "dual": lambda g: g},
        ),
        "greedoid_intersection": ({"n": 2}, {"_packed_dual": _all_ones}),
        # the trees pass; every rooted triangle fails
        "root_adjacency": ({"max_edges": 3}, {"branching_rows": _cyclic_rows_wrong}),
        "full_dual_nonpositive": ({"n": 2}, {"_packed_dual": _all_ones}),
        # n = 0: the one antimatroid passes, the pruning trees fail
        "closure_dual_rank": (
            {"n": 0, "max_tree_edges": 2},
            {"_closure_gaps": lambda g: bytes(g.n - mask.bit_count() for mask in range(g.ground.size))},
        ),
        "convex_zero_dual": (
            {"n": 2, "max_tree_edges": 2},
            {"dual": _plus_one(dual)},
        ),
        "nullity_monotone": (
            {"n": 0, "count": 3, "max_n": 2, "seed": 3},
            {"step_sets": _jumping(verify.step_sets)},
        ),
        # s = r: the corpora read it from _packed_dual, the witnesses from dual
        "demimatroid_characterization": (
            {"n": 1, "count": 4, "max_n": 2, "seed": 3},
            {"_packed_dual": lambda n, values, blocks=1: values, "dual": lambda g: g},
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
                "dual": _plus_one(dual),
                "convex_closure": lambda g, subset: subset,
            },
        ),
    }


def _patch(monkeypatch, patches):
    for name, replacement in patches.items():
        monkeypatch.setattr(verify, name, replacement)


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
    packed_dual = verify._packed_dual
    monkeypatch.setattr(
        verify,
        "_packed_dual",
        lambda n, values, blocks=1: (_all_ones if n == 3 else packed_dual)(n, values, blocks),
    )


def test_intersection_failures_are_kept_in_enumeration_order(monkeypatch):
    _only_n3_fails(monkeypatch)
    capped = run_suite("greedoid_intersection", {"n": 3, "max_failures": 3})
    fast = run_suite("greedoid_intersection", {"n": 3, "fail_fast": True})
    assert [instance for instance, _, _ in capped.failures] == [
        "n=3 values=(0, 0, 0, 0, 0, 0, 0, 0)",
        "n=3 values=(0, 0, 0, 0, 1, 1, 1, 1)",
        "n=3 values=(0, 0, 1, 1, 0, 0, 1, 1)",
    ]
    assert fast.failures == capped.failures[:1]


def test_fail_fast_counts_the_tables_up_to_the_first_failure(monkeypatch):
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


def _split_corpora(monkeypatch, tables):
    """Make ``verify._corpora`` yield each corpus in pieces of ``tables``
    tables, so that corpus boundaries fall elsewhere."""
    corpora = verify._corpora

    def split(n, constraint):
        step = tables << n
        for corpus in corpora(n, constraint):
            yield from (corpus[i : i + step] for i in range(0, len(corpus), step))

    monkeypatch.setattr(verify, "_corpora", split)


def test_the_chunk_size_changes_no_intersection_report(monkeypatch):
    def reports():
        runs = ({"n": 3, "max_failures": 3}, {"n": 3}, {"n": 3, "fail_fast": True})
        return [run_suite("greedoid_intersection", params).to_report() for params in runs]

    _only_n3_fails(monkeypatch)
    whole_corpora = reports()
    assert "\ninstances: 13\n" in whole_corpora[2]
    monkeypatch.undo()
    # in pieces of 5 or 1 tables, the runs cross corpus boundaries at n = 2
    # and n = 3, and the 16 failures of the full run fall in several pieces
    for tables in (5, 1):
        _split_corpora(monkeypatch, tables)
        _only_n3_fails(monkeypatch)
        assert reports() == whole_corpora
        _patch(monkeypatch, _scenarios()["greedoid_intersection"][1])
        assert failing_reports("greedoid_intersection") == EXPECTED["greedoid_intersection"]
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["dual_greedoid_axioms", "full_dual_nonpositive"])
def test_the_chunk_size_changes_no_greedoid_corpus_report(monkeypatch, name):
    def reports(n):
        runs = ({"n": n, "max_failures": 3}, {"n": n}, {"n": n, "fail_fast": True})
        return [run_suite(name, params).to_report() for params in runs]

    passing = reports(4)
    _patch(monkeypatch, _scenarios()[name][1])
    whole_corpora = reports(3)
    monkeypatch.undo()
    # in pieces of 5 tables, the n = 3 and n = 4 greedoids fall in many
    # pieces; in pieces of 1, many pieces hold no full greedoid
    for tables in (5, 1):
        _split_corpora(monkeypatch, tables)
        assert reports(4) == passing
        _patch(monkeypatch, _scenarios()[name][1])
        assert reports(3) == whole_corpora
        assert failing_reports(name) == EXPECTED[name]
        monkeypatch.undo()


def _one_dual_wrong(target):
    """_packed_dual with every dual rank 1 in the blocks of the table
    ``target`` (bytes)."""
    packed_dual = verify._packed_dual

    def wrong(n, values, blocks=1):
        duals = list(packed_dual(n, values, blocks).values)
        for b in range(blocks):
            if values[b << n : (b + 1) << n] == target:
                duals[b << n : (b + 1) << n] = [1] * (1 << n)
        return TableView(tuple(duals), min(duals, default=0), max(duals, default=0))

    return wrong


def test_fail_fast_counts_the_greedoids_up_to_one_past_the_first_chunk(monkeypatch):
    # the greedoids one table at a time, and a full one among the n = 4
    # greedoids past their first piece of 5 tables
    greedoids = [g.values for g in verify._enumerated(4, "greedoid")]
    first_n4 = next(i for i, values in enumerate(greedoids) if len(values) == 16)
    i = next(i for i in range(first_n4 + 5, len(greedoids)) if greedoids[i][-1] == 4)
    full_through_i = sum(values[-1] == len(values).bit_length() - 1 for values in greedoids[: i + 1])
    monkeypatch.setattr(verify, "_packed_dual", _one_dual_wrong(bytes(greedoids[i])))
    # whole corpora, then each in pieces of 5 tables, then those in pieces of 1
    for tables in (None, 5, 1):
        if tables:
            _split_corpora(monkeypatch, tables)
        for name, instances, instance in (
            ("dual_greedoid_axioms", i + 1, f"greedoid[{i}] n=4 values={greedoids[i]}"),
            ("full_dual_nonpositive", full_through_i, f"full-greedoid[{i}] n=4 values={greedoids[i]}"),
        ):
            fast = run_suite(name, {"n": 4, "fail_fast": True})
            full = run_suite(name, {"n": 4})
            assert fast.instances_checked == instances < full.instances_checked
            assert [failure[0] for failure in fast.failures] == [instance]
            assert full.failures == fast.failures


def _middle_of_a_batch():
    """A graph in the middle of the five-vertex, five-edge census group,
    past its first pass, and a root of it that some vertex is not adjacent
    to."""
    batches = verify._rooted_graphs(5)
    graphs = [pairs for v, batch, _ in batches if v == 5 for pairs in batch if len(pairs) == 5]
    pairs = graphs[len(graphs) // 2]
    assert len(graphs) // 2 > verify._CENSUS_GRAPHS
    root = next(x for x in range(5) if sum(x in pair for pair in pairs) < 4)
    return pairs, root


def _zero_row_at(target, root):
    """branching_rows with an all-zero row for one root of one graph: its
    duals are |A| >= 0, so the root, which some vertex is not adjacent to,
    fails."""

    def wrong(edges, vertices, graphs, roots):
        rows = bytearray(structures.branching_rows(edges, vertices, graphs, roots))
        for g, pairs in enumerate(graphs):
            if pairs == target and root in roots:
                b = g * len(roots) + list(roots).index(root)
                rows[b << edges : (b + 1) << edges] = bytes(1 << edges)
        return bytes(rows)

    return wrong


def _one_at_a_time(max_edges, target, root, max_failures=100, fail_fast=False):
    """The report lines after the params of a root_adjacency run that checks
    one rooted graph at a time, with the zero row of _zero_row_at."""
    instances, lines = 0, []
    for rg in verify.all_rooted_graphs(max_edges):
        instances += 1
        pairs = tuple((int(u[1:]), int(w[1:])) for _, u, w in rg.edges)
        if pairs == target and rg.root == f"v{root}":
            row = bytes(1 << len(pairs))
        else:
            row = structures.branching_greedoid(rg).values
        least = min(_dual_values(row, len(pairs)))
        adjacent = structures.root_adjacency_test(rg)
        if (least >= 0) != adjacent:
            kind = "tree" if len(pairs) < len(rg.vertices) else "cyclic"
            if len(lines) < max_failures:
                lines.append(
                    f"failure: {kind} v={len(rg.vertices)} edges={pairs} root={rg.root}"
                    " | dual rank nonnegative iff every vertex is root-adjacent"
                    f" | min_dual={least} adjacent={adjacent}"
                )
            if fail_fast:
                break
    return [f"instances: {instances}", f"failures: {len(lines)}", *lines, "result: fail"]


def test_one_failing_root_mid_batch_is_counted_as_one_at_a_time(monkeypatch):
    target, root = _middle_of_a_batch()
    monkeypatch.setattr(verify, "branching_rows", _zero_row_at(target, root))
    capped = run_suite("root_adjacency", {"max_edges": 5, "max_failures": 3}).to_report()
    fast = run_suite("root_adjacency", {"max_edges": 5, "fail_fast": True}).to_report()
    assert capped.split("\n")[2:] == _one_at_a_time(5, target, root, max_failures=3)
    assert fast.split("\n")[2:] == _one_at_a_time(5, target, root, fail_fast=True)
    # the fail-fast run stops inside the census, the full run checks it all
    total = sum(1 for _ in verify.all_rooted_graphs(5))
    assert f"\ninstances: {total}\n" in capped and f"\ninstances: {total}\n" not in fast


def test_the_pass_size_changes_no_root_adjacency_report(monkeypatch):
    def reports():
        runs = ({"max_edges": 5}, {"max_edges": 5, "max_failures": 3}, {"max_edges": 5, "fail_fast": True})
        return [run_suite("root_adjacency", params).to_report() for params in runs]

    target, root = _middle_of_a_batch()
    passing = run_suite("root_adjacency", {"max_edges": 5}).to_report()
    monkeypatch.setattr(verify, "branching_rows", _zero_row_at(target, root))
    default_passes = reports()
    # two graphs a pass: the census and every batch cross many pass boundaries
    monkeypatch.setattr(verify, "_CENSUS_GRAPHS", 2)
    assert reports() == default_passes
    monkeypatch.setattr(verify, "branching_rows", structures.branching_rows)
    assert run_suite("root_adjacency", {"max_edges": 5}).to_report() == passing
    _patch(monkeypatch, _scenarios()["root_adjacency"][1])
    assert failing_reports("root_adjacency") == EXPECTED["root_adjacency"]


def _one_entry_wrong(k):
    """verify.dual with one entry of its k-th result changed, at the mask
    two thirds of the way through the table (past mask 0): a zero dual
    becomes -1 and any other 0, so both closure suites fail there."""
    calls = itertools.count()

    def wrong(g):
        d = dual(g)
        if next(calls) != k:
            return d
        values = list(d.values)
        mask = len(values) * 2 // 3
        values[mask] = -1 if values[mask] == 0 else 0
        return table_from_values(d.ground, values)

    return wrong


_CLOSURE_ASSERTIONS = {
    "closure_dual_rank": "dual rank equals minus the closure gap",
    "convex_zero_dual": "convex iff dual rank zero",
}


def _closure_checks(name, params, dual):
    """(instance, ok, witness) for every mask of every closure table, in
    order, as the suite checks them one mask at a time with this dual."""
    for desc, g in verify._closure_corpora(params):
        dv = dual(g).values
        full = g.ground.full_mask
        gaps = oracle_closure_gaps(g)
        for mask in range(g.ground.size):
            subset = SubsetRef(g.ground, mask)
            if name == "closure_dual_rank":
                gap = gaps[mask]
                yield desc(), dv[mask] == -gap, f"A={subset} dual={dv[mask]} gap={gap}"
            else:
                convex = g.values[full ^ mask] == (full ^ mask).bit_count()
                yield desc(), convex == (dv[mask] == 0), f"C={subset} convex={convex} dual={dv[mask]}"


def _mask_by_mask(name, params, dual, max_failures=100, fail_fast=False):
    """The report lines after the params of a closure suite run that checks
    one mask at a time."""
    instances, lines = 0, []
    for instance, ok, witness in _closure_checks(name, params, dual):
        instances += 1
        if not ok:
            if len(lines) < max_failures:
                lines.append(f"failure: {instance} | {_CLOSURE_ASSERTIONS[name]} | {witness}")
            if fail_fast:
                break
    else:
        # closure_dual_rank ends with the demo tree's spot value
        instances += name == "closure_dual_rank"
    return [f"instances: {instances}", f"failures: {len(lines)}", *lines, "result: fail"]


@pytest.mark.parametrize("part", ["antimatroid", "pruning-tree"])
@pytest.mark.parametrize("name", sorted(_CLOSURE_ASSERTIONS))
def test_one_failing_mask_of_a_closure_table_is_counted_as_one_at_a_time(monkeypatch, name, part):
    params = {"n": 3, "max_tree_edges": 5}
    corpora = [(desc(), g) for desc, g in verify._closure_corpora(params)]
    in_part = [i for i, (desc, _) in enumerate(corpora) if desc.startswith(part)]
    k = in_part[len(in_part) // 2]
    size = corpora[k][1].ground.size
    assert k > 0 and size > 2
    runs = []
    for run in ({"max_failures": 3}, {"fail_fast": True}):
        # the wrong dual counts its calls: one for each run
        monkeypatch.setattr(verify, "dual", _one_entry_wrong(k))
        runs.append(run_suite(name, {**params, **run}))
    capped, fast = runs
    assert capped.to_report().split("\n")[2:] == _mask_by_mask(
        name, params, _one_entry_wrong(k), max_failures=3
    )
    assert fast.to_report().split("\n")[2:] == _mask_by_mask(
        name, params, _one_entry_wrong(k), fail_fast=True
    )
    # exactly one mask fails, and fail-fast counts the masks before it
    assert len(capped.failures) == 1 and capped.failures == fast.failures
    before = sum(g.ground.size for _, g in corpora[:k]) + size * 2 // 3
    assert fast.instances_checked == before + 1


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
