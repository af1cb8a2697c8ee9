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
from itertools import compress
from operator import eq, gt, ne, sub

from .core import (
    DECREASE,
    FLAT,
    JUMP,
    MAX_PAIRWISE_N,
    UNIT,
    GroundSet,
    GroundSetError,
    RankTable,
    SubsetRef,
    avoid_sets,
    bitset,
    first_by_cardinality,
    first_step,
    first_where,
    masks_by_cardinality,
    popcounts,
    step_sets,
    table_from_values,
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
        return cls(
            g.ground,
            frozenset(m for m in range(g.ground.size) if g.values[m] == m.bit_count()),
        )

    def __contains__(self, subset) -> bool:
        mask = subset.bits if isinstance(subset, SubsetRef) else subset
        return mask in self.members

    def subsets(self) -> list[SubsetRef]:
        return [
            SubsetRef(self.ground, m)
            for m in sorted(self.members, key=lambda m: (m.bit_count(), m))
        ]

    def induced_rank_table(self) -> RankTable:
        """Table with r(A) = max{|F| : F in family, F subset of A}.

        Subsets containing no member (not even the empty set) get rank 0.
        """
        size = self.ground.size
        n = self.ground.n
        values = [0] * size
        for mask in range(size):
            best = mask.bit_count() if mask in self.members else 0
            m = mask
            while m:
                low = m & -m
                prev = values[mask ^ low]
                if prev > best:
                    best = prev
                m ^= low
            values[mask] = best
        return table_from_values(self.ground, values)


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


def _negative(values):
    return map((0).__gt__, values)


def _supercardinal(values, n):
    return map(gt, values, popcounts(n))


def _first_pair(n, pair_set):
    """First (A, p, q) in (cardinality, mask, p, q) order, p < q, with A in
    the bit set pair_set(p, q). The sets are computed twice rather than
    stored: n**2 / 2 of them would take n**2 * 2**n / 16 bytes."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    union = 0
    for p, q in pairs:
        union |= pair_set(p, q)
    mask = first_by_cardinality(n, union)
    if mask is None:
        return None
    return (mask,) + next(pair for pair in pairs if pair_set(*pair) >> mask & 1)


def _local_semimodular_witness(n, flat):
    """First (A, p1, p2) with r(A) = r(A|p1) = r(A|p2) but r(A|p1|p2) != r(A),
    given the flat step sets of every element."""
    # A|p1 in flat[p2] says r(A|p1|p2) = r(A|p1)
    return _first_pair(n, lambda p1, p2: flat[p1] & flat[p2] & ~(flat[p2] >> (1 << p1)))


def _local_decrease_witness(n, unit):
    """First (B, p, q) with r(B-p) = r(B-q) = r(B)-1 but r(B-{p,q}) != r(B)-2,
    given the unit step sets of every element."""
    # top[p]: the sets B holding p with r(B) = r(B - p) + 1
    top = [s << (1 << p) for p, s in enumerate(unit)]
    return _first_pair(n, lambda p, q: top[p] & top[q] & ~(top[q] << (1 << p)))


def _locally_union_closed(n, feasible) -> bool:
    """Whether the family of the bit set ``feasible`` is accessible and
    A, A|p, A|q feasible imply A|p|q feasible; then it is union-closed.

    Take feasible X, Y with X | Y infeasible and |X| + |Y| least. Neither is
    empty, so accessibility gives feasible X - x and Y - y, and minimality
    puts U = (X - x) | (Y - y), U | x = X | (Y - y) and U | y = (X - x) | Y in
    the family. Then x != y and neither lies in U, else X | Y would be one of
    these, and the local condition gives X | Y = U | x | y, a contradiction.
    """
    avoid = avoid_sets(n)
    reached = 0  # the sets B holding some p with B - p feasible
    for p, a in enumerate(avoid):
        reached |= (feasible & a) << (1 << p)
    if feasible & ~reached & ~1:
        return False  # a nonempty feasible set with no feasible B - p
    # up[p]: the sets A without p with A and A | p both feasible
    up = [feasible & feasible >> (1 << p) & a for p, a in enumerate(avoid)]
    return not any(
        up[p] & up[q] & ~(up[q] >> (1 << p)) for p in range(n) for q in range(p + 1, n)
    )


def _first_union_gap(members):
    """First pair F1 <= F2 in (cardinality, mask) order of the given masks
    whose union is not among them."""
    ordered = sorted(members, key=lambda m: (m.bit_count(), m))
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


def check_matroid(g: RankTable) -> AxiomReport:
    """Check R0 (normalization), R1 (unit rank increase, both inequalities),
    R2 (semimodularity over all pairs), and the local variant R2'.

    For ground sets past MAX_PAIRWISE_N the pairwise R2 scan is skipped and
    the report notes that only R2' was evaluated.
    """
    values, n, ground = g.values, g.n, g.ground
    verdicts: dict = {}
    witnesses: dict = {}

    verdicts["R0"] = values[0] == 0
    if not verdicts["R0"]:
        witnesses["R0"] = {"A": _subset(ground, 0), "r(A)": values[0]}

    # R1 holds at (A, p) iff the step from A to A | p is flat or a unit increase
    flat, unit = step_sets(n, values, FLAT, UNIT)
    hit = first_step(n, [a & ~(f | u) for a, f, u in zip(avoid_sets(n), flat, unit)])
    verdicts["R1"] = hit is None
    if hit:
        witnesses["R1"] = {"A": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    details: dict = {}
    pairwise = n <= MAX_PAIRWISE_N
    if pairwise:
        hit = _first_semimodular_violation(values, n)
        verdicts["R2"] = hit is None
        if hit:
            witnesses["R2"] = {"A": _subset(ground, hit[0]), "B": _subset(ground, hit[1])}
    else:
        details["semimodularity"] = "pairwise scan skipped (n > %d); local variant only" % MAX_PAIRWISE_N

    hit = _local_semimodular_witness(n, flat)
    verdicts["R2'"] = hit is None
    if hit:
        witnesses["R2'"] = {
            "A": _subset(ground, hit[0]),
            "p1": ground.labels[hit[1]],
            "p2": ground.labels[hit[2]],
        }

    if pairwise:
        base = verdicts["R0"] and verdicts["R1"]
        details["global_local_agree"] = (base and verdicts["R2"]) == (base and verdicts["R2'"])

    passed = all(verdicts.values())
    return AxiomReport("matroid", verdicts, witnesses, passed, details)


def check_greedoid(g: RankTable) -> AxiomReport:
    """Check nonnegativity of the codomain plus Gr0 (normalization),
    Gr1 (increasing), Gr2 (subcardinal), Gr3 (local semimodularity)."""
    values, n, ground = g.values, g.n, g.ground
    verdicts: dict = {}
    witnesses: dict = {}

    hit = first_where(n, _negative(values))
    verdicts["nonnegative"] = hit is None
    if hit is not None:
        witnesses["nonnegative"] = {"A": _subset(ground, hit), "r(A)": values[hit]}

    verdicts["Gr0"] = values[0] == 0
    if not verdicts["Gr0"]:
        witnesses["Gr0"] = {"A": _subset(ground, 0), "r(A)": values[0]}

    decrease, flat = step_sets(n, values, DECREASE, FLAT)
    hit = first_step(n, decrease)
    verdicts["Gr1"] = hit is None
    if hit:
        witnesses["Gr1"] = {"A": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    hit = first_where(n, _supercardinal(values, n))
    verdicts["Gr2"] = hit is None
    if hit is not None:
        witnesses["Gr2"] = {"A": _subset(ground, hit), "r(A)": values[hit]}

    hit = _local_semimodular_witness(n, flat)
    verdicts["Gr3"] = hit is None
    if hit:
        witnesses["Gr3"] = {
            "A": _subset(ground, hit[0]),
            "p1": ground.labels[hit[1]],
            "p2": ground.labels[hit[2]],
        }

    passed = all(verdicts.values())
    return AxiomReport("greedoid", verdicts, witnesses, passed)


def check_dual_greedoid(g: RankTable) -> AxiomReport:
    """Check the starred axioms on the given table (the caller passes a dual
    candidate): Gr0* normalization, Gr1* unit rank increase, Gr2* rank-S
    maximum, Gr3* local rank decrease."""
    values, n, ground = g.values, g.n, g.ground
    verdicts: dict = {}
    witnesses: dict = {}

    verdicts["Gr0*"] = values[0] == 0
    if not verdicts["Gr0*"]:
        witnesses["Gr0*"] = {"B": _subset(ground, 0), "r(B)": values[0]}

    jump, unit = step_sets(n, values, JUMP, UNIT)
    hit = first_step(n, jump)
    verdicts["Gr1*"] = hit is None
    if hit:
        witnesses["Gr1*"] = {"B": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    hit = first_where(n, map(values[ground.full_mask].__lt__, values))
    verdicts["Gr2*"] = hit is None
    if hit is not None:
        witnesses["Gr2*"] = {"B": _subset(ground, hit), "r(B)": values[hit]}

    hit = _local_decrease_witness(n, unit)
    verdicts["Gr3*"] = hit is None
    if hit:
        witnesses["Gr3*"] = {
            "B": _subset(ground, hit[0]),
            "p": ground.labels[hit[1]],
            "q": ground.labels[hit[2]],
        }

    passed = all(verdicts.values())
    return AxiomReport("dual-greedoid", verdicts, witnesses, passed)


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
    # a stable sort by popcount lists the spanning masks in (cardinality,
    # mask) order without the 2**n order of masks_by_cardinality
    spanning_masks = sorted(
        compress(range(ground.size), map(total.__eq__, values)), key=popcounts(n).__getitem__
    )
    spanning = tuple(_subset(ground, m) for m in spanning_masks)
    bases = tuple(_subset(ground, m) for m in spanning_masks if m in family.members)
    covered = 0
    for m in family.members:
        covered |= m
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
    verdicts = dict(greedoid.verdicts)
    witnesses = dict(greedoid.witnesses)

    feasible = bitset(map(eq, g.values, popcounts(g.n)))
    hit = None
    if not _locally_union_closed(g.n, feasible):
        hit = _first_union_gap(FeasibleFamily.from_table(g).members)
    verdicts["union-closed"] = hit is None
    if hit:
        witnesses["union-closed"] = {
            "F1": _subset(g.ground, hit[0]),
            "F2": _subset(g.ground, hit[1]),
        }

    passed = all(verdicts.values())
    return AxiomReport("antimatroid", verdicts, witnesses, passed)


def _demi_flag_checks(prefix: str, table: RankTable, verdicts, witnesses):
    values, n, ground = table.values, table.n, table.ground

    hit = first_where(n, _negative(values))
    verdicts[f"{prefix}-nonnegative"] = hit is None
    if hit is not None:
        witnesses[f"{prefix}-nonnegative"] = {"A": _subset(ground, hit), "rank": values[hit]}

    hit = first_where(n, _supercardinal(values, n))
    verdicts[f"{prefix}-subcardinal"] = hit is None
    if hit is not None:
        witnesses[f"{prefix}-subcardinal"] = {"A": _subset(ground, hit), "rank": values[hit]}

    (decrease,) = step_sets(n, values, DECREASE)
    hit = first_step(n, decrease)
    verdicts[f"{prefix}-monotone"] = hit is None
    if hit:
        a, pos = hit
        witnesses[f"{prefix}-monotone"] = {
            "A": _subset(ground, a),
            "B": _subset(ground, a | (1 << pos)),
        }


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
    verdicts: dict = {}
    witnesses: dict = {}

    _demi_flag_checks("r", r, verdicts, witnesses)
    _demi_flag_checks("s", s, verdicts, witnesses)

    # |S-A| - t(S-A) for every A, read from the tables in reverse mask order
    co_sizes = popcounts(n)[::-1]
    for name, t, u in (
        ("rank-nullity-duality", r.values, s.values),
        ("rank-nullity-duality-complement", s.values, r.values),
    ):
        co_nullity = map(sub, co_sizes, t[::-1])
        hit = first_where(n, map(ne, co_nullity, map(u[full].__sub__, u)))
        verdicts[name] = hit is None
        if hit is not None:
            witnesses[name] = {"A": _subset(ground, hit)}

    details = {"s_is_dual_of_r": s.values == _dual_values(r.values, n)}

    passed = all(verdicts.values())
    return AxiomReport("demi-matroid-triple", verdicts, witnesses, passed, details)


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
    values, n, ground = g.values, g.n, g.ground
    verdicts: dict = {}
    witnesses: dict = {}

    hit = first_where(n, _negative(values))
    if hit is None:
        hit = first_where(n, _supercardinal(values, n))
    verdicts["nonnegative-subcardinal"] = hit is None
    if hit is not None:
        witnesses["nonnegative-subcardinal"] = {"A": _subset(ground, hit), "rank": values[hit]}

    decrease, jump = step_sets(n, values, DECREASE, JUMP)
    hit = first_step(n, decrease)
    verdicts["monotone"] = hit is None
    if hit:
        a, pos = hit
        witnesses["monotone"] = {
            "A": _subset(ground, a),
            "B": _subset(ground, a | (1 << pos)),
        }

    hit = first_step(n, jump)
    verdicts["unit-increase"] = hit is None
    if hit:
        witnesses["unit-increase"] = {"A": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    # |A| - r(A) drops from A to A | p exactly when r(A | p) > r(A) + 1: the
    # same violations as unit-increase, so the same first witness
    verdicts["monotone-nullity"] = hit is None
    if hit:
        witnesses["monotone-nullity"] = {
            "A": _subset(ground, hit[0]),
            "B": _subset(ground, hit[0] | 1 << hit[1]),
        }

    passed = (
        verdicts["nonnegative-subcardinal"]
        and verdicts["monotone"]
        and verdicts["unit-increase"]
    )
    return AxiomReport("demi-matroid-characterization", verdicts, witnesses, passed)
