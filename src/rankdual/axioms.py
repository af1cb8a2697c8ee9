"""Axiom-system checkers with counterexample witnesses.

Violations are detected with bit sets (see the kernel in ``core``). Every
local axiom is a condition on the step d = r(A | p) - r(A): Gr1 and
monotonicity read d < 0, Gr3 and R2' the flat steps d = 0, R1 and Gr3* the
unit steps d = 1, and Gr1* d > 1. Each checker computes the steps of every
element once (``core.step_sets``) and reads all the relations it needs from
them, as one bit per mask A without p packed into an int. The local axioms
combine these per-element sets with AND and shifts, so no axiom loops over
subsets in Python. Union-closure is read the same way from the feasible
sets when the family is accessible.

The same violation sets serve one table and a whole corpus: with tables
laid end to end as blocks (``core.step_sets``), ``block_failures`` gives
the tables failing the greedoid, matroid and dual-greedoid checkers in one
pass, and the verification suites read their verdicts from it. The bounds
0 <= r(A), r(A) <= |A| and r(A) <= r(S) are read with ``core.exceeding``,
for one table as for a corpus, and the feasible sets r(A) = |A| with
``core.feasible_flags``.

Each failed axiom reports its canonical witness, the first violation in
(cardinality, mask) order, ties broken by element position: the lowest set
bit of the violation set within the first nonempty cardinality layer, then
the first element (or pair p < q) whose set holds that mask. The pairwise
semimodularity scan (R2, n <= MAX_PAIRWISE_N) is the one plain loop left on
the passing path; the pairwise union scan finds the canonical witness only
when the bit-set verdict fails.
Checkers never mutate or normalize their input; a table failing one axiom
still gets every other axiom evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import and_, mul, ne, or_, sub

from .core import (
    DECREASE,
    FULL,
    FLAT,
    JUMP,
    MAX_PAIRWISE_N,
    NEGATIVE,
    SIZE,
    UNIT,
    GroundSet,
    GroundSetError,
    RankTable,
    SubsetRef,
    _view_of,
    avoid_sets,
    bitset,
    by_cardinality,
    exceeding,
    failing_blocks,
    feasible_flags,
    first_by_cardinality,
    first_step,
    masks_by_cardinality,
    popcounts,
    step_sets,
    subset_max,
)
from .ops import _dual_values


def format_witness(witness: dict) -> str:
    parts = []
    for name, value in witness.items():
        parts.append(f"{name}={value}")
    return ", ".join(parts)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts with first-found counterexample witnesses.

    ``witnesses`` has an entry exactly for the failed axioms. ``passed`` is
    the checker's overall verdict; for every system except the demi-matroid
    characterization it equals the conjunction of all verdicts (there the
    monotone-nullity verdict is advisory).
    """

    system: str
    verdicts: dict
    witnesses: dict
    passed: bool
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"system: {self.system}"]
        for axiom, ok in self.verdicts.items():
            if ok:
                out.append(f"{axiom}: pass")
            else:
                out.append(f"{axiom}: fail ({format_witness(self.witnesses[axiom])})")
        for key, value in self.details.items():
            out.append(f"note: {key} = {value}")
        out.append(f"overall: {'pass' if self.passed else 'fail'}")
        return out


@dataclass(frozen=True)
class FeasibleFamily:
    """A family of subsets of one ground set, stored as a mask set.

    When built from a table, a subset F is a member iff r(F) = |F|.
    """

    ground: GroundSet
    members: frozenset

    @classmethod
    def from_table(cls, g: RankTable) -> "FeasibleFamily":
        flags = feasible_flags(g.n, g._kernel_view())
        return cls(g.ground, frozenset(compress(range(g.ground.size), flags)))

    def __contains__(self, subset) -> bool:
        mask = subset.bits if isinstance(subset, SubsetRef) else subset
        return mask in self.members

    def subsets(self) -> list[SubsetRef]:
        return [SubsetRef(self.ground, m) for m in by_cardinality(self.members)]

    def induced_rank_table(self) -> RankTable:
        """Table with r(A) = max{|F| : F in family, F subset of A}.

        Subsets containing no member (not even the empty set) get rank 0.
        """
        n = self.ground.n
        sizes = map(mul, popcounts(n), map(self.members.__contains__, range(1 << n)))
        ranks = subset_max(n, bytes(sizes))
        # the table is monotone, so largest at the full set
        return RankTable._from_bytes(self.ground, ranks, ranks[-1])


@dataclass(frozen=True)
class DemiTriple:
    """A ground set with two rank tables sharing it."""

    r: RankTable
    s: RankTable

    def __post_init__(self):
        if self.r.ground != self.s.ground:
            raise GroundSetError("the two tables of a demi triple use different ground sets")

    @property
    def ground(self) -> GroundSet:
        return self.r.ground


# ---------------------------------------------------------------------------
# violation sets (bit sets over masks, see core.step_sets) and their witnesses
# ---------------------------------------------------------------------------


def _subset(ground: GroundSet, mask: int) -> SubsetRef:
    return SubsetRef(ground, mask)


def _pair_union(n, pair_set):
    """The union of the bit sets pair_set(p, q) over all p < q."""
    return reduce(or_, (pair_set(p, q) for p in range(n) for q in range(p + 1, n)), 0)


def _first_pair(n, pair_set):
    """First (A, p, q) in (cardinality, mask, p, q) order, p < q, with A in
    the bit set pair_set(p, q). The sets are computed twice rather than
    stored: n**2 / 2 of them would take n**2 * 2**n / 16 bytes."""
    mask = first_by_cardinality(n, _pair_union(n, pair_set))
    if mask is None:
        return None
    pairs = ((p, q) for p in range(n) for q in range(p + 1, n))
    return (mask,) + next(pair for pair in pairs if pair_set(*pair) >> mask & 1)


def _flat_squares(flat):
    """Gr3 and R2': pair_set(p1, p2) is the set of A with
    r(A) = r(A|p1) = r(A|p2) but r(A|p1|p2) != r(A), given the flat step
    sets of every element; union closure passes the sets of A and A | p
    both feasible in their place."""
    # A|p1 in flat[p2] says r(A|p1|p2) = r(A|p1)
    return lambda p1, p2: flat[p1] & flat[p2] & ~(flat[p2] >> (1 << p1))


def _unit_squares(unit):
    """Gr3*: pair_set(p, q) is the set of B with r(B-p) = r(B-q) = r(B)-1
    but r(B-{p,q}) != r(B)-2, given the unit step sets of every element."""
    # top[p]: the sets B holding p with r(B) = r(B - p) + 1
    top = [s << (1 << p) for p, s in enumerate(unit)]
    return lambda p, q: top[p] & top[q] & ~(top[q] << (1 << p))


def _off_steps(avoid, flat, unit):
    """R1: entry p is the set of A without p whose step to A | p is neither
    flat nor a unit increase, given avoid_sets and the flat and unit steps."""
    return [a & ~(f | u) for a, f, u in zip(avoid, flat, unit)]


def block_failures(n, values, blocks):
    """The sets of blocks failing check_greedoid, check_matroid and
    check_dual_greedoid, for ``blocks`` tables of 2**n values laid end to end
    (see ``core.step_sets``), from the helpers that give the checkers their
    witnesses. Nonnegativity is not read: r(empty) = 0 and no decreasing step
    imply it. Nor is R2: under R1 a violation of local submodularity is a
    flat square, and local submodularity implies R2 (Schrijver, Combinatorial
    Optimization, 2003, Thm 44.1). No blocks, no failing block."""
    if not blocks:
        return 0, 0, 0
    view = _view_of(values)
    decrease, flat, unit = step_sets(n, view, DECREASE, FLAT, UNIT, blocks=blocks)
    supercardinal = exceeding(n, view, SIZE, blocks)
    # no set of a table without decreasing steps lies above the full set
    above_full = exceeding(n, view, FULL, blocks) if any(decrease) else 0
    unnormalized = bitset(map(bool, view.values[:: 1 << n]))
    off = _off_steps(avoid_sets(n, blocks), flat, unit)
    # Gr1*: the off-steps that are no decrease
    jump = [o & ~d for o, d in zip(off, decrease)]
    flat_squares = _pair_union(n, _flat_squares(flat))

    def failing(*sets):
        return unnormalized | failing_blocks(n, reduce(or_, sets), blocks)

    return (
        failing(*decrease, supercardinal, flat_squares),
        failing(*off, flat_squares),
        failing(*jump, above_full, _pair_union(n, _unit_squares(unit))),
    )


def _union_failures(n, feasible, blocks=1) -> int:
    """The blocks, of ``blocks`` tables of 2**n masks laid end to end, whose
    family in the bit set ``feasible`` is not accessible or has A, A|p, A|q
    feasible but A|p|q infeasible: on accessible families, not union-closed.

    Take feasible X, Y with X | Y infeasible and |X| + |Y| least. Neither is
    empty, so accessibility gives feasible X - x and Y - y, and minimality
    puts U = (X - x) | (Y - y), U | x = X | (Y - y) and U | y = (X - x) | Y in
    the family. Then x != y and neither lies in U, else X | Y would be one of
    these, and the local condition gives X | Y = U | x | y, a contradiction.
    """
    avoid = avoid_sets(n, blocks)
    # the sets B empty (avoiding every element) or with some B - p feasible
    reached = reduce(and_, avoid, (1 << (blocks << n)) - 1)
    for p, a in enumerate(avoid):
        reached |= (feasible & a) << (1 << p)
    # up[p]: the sets A without p with A and A | p both feasible
    up = [feasible & feasible >> (1 << p) & a for p, a in enumerate(avoid)]
    return failing_blocks(n, _pair_union(n, _flat_squares(up)) | feasible & ~reached, blocks)


def _first_union_gap(members):
    """First pair F1 <= F2 in (cardinality, mask) order of the given masks
    whose union is not among them."""
    ordered = by_cardinality(members)
    for i, f1 in enumerate(ordered):
        for f2 in ordered[i:]:
            if f1 | f2 not in members:
                return f1, f2
    return None


def _first_semimodular_violation(values, n):
    """First incomparable pair (A, B) with r(A&B) + r(A|B) > r(A) + r(B)."""
    order = masks_by_cardinality(n)
    for ia, a in enumerate(order):
        va = values[a]
        for b in order[ia + 1 :]:
            if a & b == a or a & b == b:
                continue  # nested pairs satisfy semimodularity trivially
            if values[a & b] + values[a | b] > va + values[b]:
                return a, b
    return None


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _record(found, axiom, hit, witness):
    """Record in found = (verdicts, witnesses) that the axiom holds when hit
    is None, and otherwise that it fails with the witness witness(hit)."""
    verdicts, witnesses = found
    verdicts[axiom] = hit is None
    if hit is not None:
        witnesses[axiom] = witness(hit)


def _report(system, found, details=None) -> AxiomReport:
    verdicts, witnesses = found
    return AxiomReport(system, verdicts, witnesses, all(verdicts.values()), details or {})


def _unnormalized(values):
    """The empty set's mask when r(empty) != 0, else None."""
    return 0 if values[0] else None


# witnesses of a set and its rank, of a step (A, p), of the nested pair
# A, A | p of a step, of a square (A, p, q), and of two sets


def _rank_at(ground, values, keys=("A", "r(A)")):
    return lambda a: {keys[0]: _subset(ground, a), keys[1]: values[a]}


def _step_at(ground, key="A"):
    return lambda hit: {key: _subset(ground, hit[0]), "p": ground.labels[hit[1]]}


def _nested_at(ground):
    return lambda hit: {"A": _subset(ground, hit[0]), "B": _subset(ground, hit[0] | 1 << hit[1])}


def _square_at(ground, keys):
    labels = ground.labels
    return lambda hit: dict(zip(keys, (_subset(ground, hit[0]), labels[hit[1]], labels[hit[2]])))


def _pair_at(ground, keys):
    return lambda hit: {keys[0]: _subset(ground, hit[0]), keys[1]: _subset(ground, hit[1])}


def check_matroid(g: RankTable) -> AxiomReport:
    """Check R0 (normalization), R1 (unit rank increase, both inequalities),
    R2 (semimodularity over all pairs), and the local variant R2'.

    For ground sets past MAX_PAIRWISE_N the pairwise R2 scan is skipped and
    the report notes that only R2' was evaluated.
    """
    values, n, ground = g.values, g.n, g.ground
    found = ({}, {})
    _record(found, "R0", _unnormalized(values), _rank_at(ground, values))
    flat, unit = step_sets(n, g._kernel_view(), FLAT, UNIT)
    _record(found, "R1", first_step(n, _off_steps(avoid_sets(n), flat, unit)), _step_at(ground))
    details: dict = {}
    pairwise = n <= MAX_PAIRWISE_N
    if pairwise:
        _record(found, "R2", _first_semimodular_violation(values, n), _pair_at(ground, "AB"))
    else:
        details["semimodularity"] = "pairwise scan skipped (n > %d); local variant only" % MAX_PAIRWISE_N
    square = _first_pair(n, _flat_squares(flat))
    _record(found, "R2'", square, _square_at(ground, ("A", "p1", "p2")))
    if pairwise:
        verdicts = found[0]
        base = verdicts["R0"] and verdicts["R1"]
        details["global_local_agree"] = (base and verdicts["R2"]) == (base and verdicts["R2'"])
    return _report("matroid", found, details)


def check_greedoid(g: RankTable) -> AxiomReport:
    """Check nonnegativity of the codomain plus Gr0 (normalization),
    Gr1 (increasing), Gr2 (subcardinal), Gr3 (local semimodularity)."""
    values, view, n, ground = g.values, g._kernel_view(), g.n, g.ground
    found = ({}, {})
    negative = first_by_cardinality(n, exceeding(n, view, NEGATIVE))
    _record(found, "nonnegative", negative, _rank_at(ground, values))
    _record(found, "Gr0", _unnormalized(values), _rank_at(ground, values))
    decrease, flat = step_sets(n, view, DECREASE, FLAT)
    _record(found, "Gr1", first_step(n, decrease), _step_at(ground))
    supercardinal = first_by_cardinality(n, exceeding(n, view, SIZE))
    _record(found, "Gr2", supercardinal, _rank_at(ground, values))
    square = _first_pair(n, _flat_squares(flat))
    _record(found, "Gr3", square, _square_at(ground, ("A", "p1", "p2")))
    return _report("greedoid", found)


def check_dual_greedoid(g: RankTable) -> AxiomReport:
    """Check the starred axioms on the given table (the caller passes a dual
    candidate): Gr0* normalization, Gr1* unit rank increase, Gr2* rank-S
    maximum, Gr3* local rank decrease."""
    values, view, n, ground = g.values, g._kernel_view(), g.n, g.ground
    found = ({}, {})
    _record(found, "Gr0*", _unnormalized(values), _rank_at(ground, values, ("B", "r(B)")))
    jump, unit = step_sets(n, view, JUMP, UNIT)
    _record(found, "Gr1*", first_step(n, jump), _step_at(ground, "B"))
    above_full = first_by_cardinality(n, exceeding(n, view, FULL))
    _record(found, "Gr2*", above_full, _rank_at(ground, values, ("B", "r(B)")))
    _record(found, "Gr3*", _first_pair(n, _unit_squares(unit)), _square_at(ground, "Bpq"))
    return _report("dual-greedoid", found)


@dataclass(frozen=True)
class FeasibleDescriptors:
    """Feasible sets, spanning sets, bases, fullness, and loops of a table."""

    family: FeasibleFamily
    bases: tuple
    spanning: tuple
    full: bool
    loops: tuple


def feasible_descriptors(g: RankTable) -> FeasibleDescriptors:
    """Feasible sets {A : r(A) = |A|}, spanning sets {A : r(A) = r(S)},
    bases (feasible and spanning), fullness (r(S) = |S|), and loops
    (elements in no feasible set)."""
    values, n, ground = g.values, g.n, g.ground
    total = values[ground.full_mask]
    family = FeasibleFamily.from_table(g)
    spanning_masks = by_cardinality(compress(range(ground.size), map(total.__eq__, values)))
    spanning = tuple(_subset(ground, m) for m in spanning_masks)
    bases = tuple(_subset(ground, m) for m in spanning_masks if m in family.members)
    covered = reduce(or_, family.members, 0)
    loops = tuple(label for pos, label in enumerate(ground.labels) if not covered >> pos & 1)
    return FeasibleDescriptors(
        family=family,
        bases=bases,
        spanning=spanning,
        full=total == n,
        loops=loops,
    )


def check_antimatroid(g: RankTable) -> AxiomReport:
    """A table passes iff it passes check_greedoid and its feasible family is
    union-closed. Pairwise closure implies closure of all finite unions.

    The verdict comes from the local bit-set test when the family is
    accessible (as every greedoid's is); otherwise, and to find the
    canonical witness of a failure, the feasible sets are scanned pairwise.
    """
    greedoid = check_greedoid(g)
    found = (dict(greedoid.verdicts), dict(greedoid.witnesses))
    feasible = bitset(feasible_flags(g.n, g._kernel_view()))
    hit = None
    if _union_failures(g.n, feasible):
        hit = _first_union_gap(FeasibleFamily.from_table(g).members)
    _record(found, "union-closed", hit, _pair_at(g.ground, ("F1", "F2")))
    return _report("antimatroid", found)


def _demi_flag_checks(prefix: str, table: RankTable, found):
    values, view, n, ground = table.values, table._kernel_view(), table.n, table.ground
    witness = _rank_at(ground, values, ("A", "rank"))
    for name, bound in (("nonnegative", NEGATIVE), ("subcardinal", SIZE)):
        hit = first_by_cardinality(n, exceeding(n, view, bound))
        _record(found, f"{prefix}-{name}", hit, witness)
    (decrease,) = step_sets(n, view, DECREASE)
    _record(found, f"{prefix}-monotone", first_step(n, decrease), _nested_at(ground))


def check_demimatroid_triple(d: DemiTriple) -> AxiomReport:
    """Check the triple conditions: both tables nonnegative, subcardinal, and
    monotone, plus the rank-nullity duality |S-A| - r(S-A) = s(S) - s(A) and
    its complementary form |S-A| - s(S-A) = r(S) - r(A).

    Also reports (as a note) whether s equals the dual of r, which the
    duality condition forces whenever the triple passes.
    """
    r, s = d.r, d.s
    ground, n = d.ground, d.ground.n
    full = ground.full_mask
    found = ({}, {})
    _demi_flag_checks("r", r, found)
    _demi_flag_checks("s", s, found)

    # |S-A| - t(S-A) for every A, read from the tables in reverse mask order
    co_sizes = popcounts(n)[::-1]
    for name, t, u in (
        ("rank-nullity-duality", r.values, s.values),
        ("rank-nullity-duality-complement", s.values, r.values),
    ):
        co_nullity = map(sub, co_sizes, t[::-1])
        hit = first_by_cardinality(n, bitset(map(ne, co_nullity, map(u[full].__sub__, u))))
        _record(found, name, hit, lambda a: {"A": _subset(ground, a)})

    details = {"s_is_dual_of_r": s.values == _dual_values(r.values, n)}
    return _report("demi-matroid-triple", found, details)


def check_demimatroid_characterization(g: RankTable) -> AxiomReport:
    """Check the conditions under which (S, r, r*) forms a demi triple:

    (a) nonnegative-subcardinal: 0 <= r(A) <= |A|
    (b) monotone: A in B implies r(A) <= r(B)
    (c) unit-increase: r(A | p) <= r(A) + 1

    The monotone-nullity verdict (|A| - r(A) never drops as A grows) is also
    reported; it is advisory, since |A| - r(A) drops from A to A | p exactly
    when r(A | p) > r(A) + 1, so it always equals (c). The overall verdict
    is (a) and (b) and (c).
    """
    values, view, n, ground = g.values, g._kernel_view(), g.n, g.ground
    found = verdicts, _ = ({}, {})
    hit = first_by_cardinality(n, exceeding(n, view, NEGATIVE))
    if hit is None:
        hit = first_by_cardinality(n, exceeding(n, view, SIZE))
    _record(found, "nonnegative-subcardinal", hit, _rank_at(ground, values, ("A", "rank")))
    decrease, jump = step_sets(n, view, DECREASE, JUMP)
    _record(found, "monotone", first_step(n, decrease), _nested_at(ground))
    hit = first_step(n, jump)
    _record(found, "unit-increase", hit, _step_at(ground))
    # |A| - r(A) drops from A to A | p exactly when r(A | p) > r(A) + 1: the
    # same violations as unit-increase, so the same first witness
    _record(found, "monotone-nullity", hit, _nested_at(ground))
    passed = all(map(verdicts.get, ("nonnegative-subcardinal", "monotone", "unit-increase")))
    return AxiomReport("demi-matroid-characterization", *found, passed)
