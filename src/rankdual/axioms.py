"""Axiom-system checkers with counterexample witnesses.

Every checker scans subsets in (cardinality, mask) order and reports, for
each failed axiom, the first violation found in that order: the smallest
witness by cardinality, ties broken by mask value, then by element position.
Checkers never mutate or normalize their input; a table failing one axiom
still gets every other axiom evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    GroundSet,
    GroundSetError,
    RankTable,
    SubsetRef,
    masks_by_cardinality,
    table_from_values,
)
from .ops import _dual_values

# Full semimodularity scans all subset pairs (4**n / 2 work); past this size
# only the local variant is checked and the report says so.
MAX_PAIRWISE_N = 12


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
# witness scans (all in (cardinality, mask) order)
# ---------------------------------------------------------------------------


def _subset(ground: GroundSet, mask: int) -> SubsetRef:
    return SubsetRef(ground, mask)


def _first_negative(values, n):
    for mask in masks_by_cardinality(n):
        if values[mask] < 0:
            return mask
    return None


def _first_supercardinal(values, n):
    for mask in masks_by_cardinality(n):
        if values[mask] > mask.bit_count():
            return mask
    return None


def _first_above_full(values, n):
    total = values[(1 << n) - 1]
    for mask in masks_by_cardinality(n):
        if values[mask] > total:
            return mask
    return None


def _first_decrease(values, n):
    """First (A, p) with r(A | p) < r(A)."""
    for mask in masks_by_cardinality(n):
        for pos in range(n):
            bit = 1 << pos
            if mask & bit:
                continue
            if values[mask | bit] < values[mask]:
                return mask, pos
    return None


def _first_unit_jump(values, n):
    """First (A, p) with r(A | p) > r(A) + 1."""
    for mask in masks_by_cardinality(n):
        for pos in range(n):
            bit = 1 << pos
            if mask & bit:
                continue
            if values[mask | bit] > values[mask] + 1:
                return mask, pos
    return None


def _first_r1_violation(values, n):
    """First (A, p) breaking r(A) <= r(A | p) <= r(A) + 1 (either side)."""
    for mask in masks_by_cardinality(n):
        for pos in range(n):
            bit = 1 << pos
            if mask & bit:
                continue
            up = values[mask | bit]
            if up < values[mask] or up > values[mask] + 1:
                return mask, pos
    return None


def _first_local_semimodular_violation(values, n):
    """First (A, p1, p2) with r(A) = r(A|p1) = r(A|p2) but r(A|p1|p2) != r(A)."""
    for mask in masks_by_cardinality(n):
        v = values[mask]
        for p1 in range(n):
            b1 = 1 << p1
            if mask & b1 or values[mask | b1] != v:
                continue
            for p2 in range(p1 + 1, n):
                b2 = 1 << p2
                if mask & b2 or values[mask | b2] != v:
                    continue
                if values[mask | b1 | b2] != v:
                    return mask, p1, p2
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


def _first_local_decrease_violation(values, n):
    """First (B, p, q) with r(B-p) = r(B-q) = r(B)-1 but r(B-{p,q}) != r(B)-2."""
    for mask in masks_by_cardinality(n):
        v = values[mask]
        for p in range(n):
            bp = 1 << p
            if not mask & bp or values[mask ^ bp] != v - 1:
                continue
            for q in range(p + 1, n):
                bq = 1 << q
                if not mask & bq or values[mask ^ bq] != v - 1:
                    continue
                if values[mask ^ bp ^ bq] != v - 2:
                    return mask, p, q
    return None


def _first_nullity_violation(values, n):
    """First (A, A | p) where nullity |A| - r(A) drops as the set grows."""
    for mask in masks_by_cardinality(n):
        base = mask.bit_count() - values[mask]
        for pos in range(n):
            bit = 1 << pos
            if mask & bit:
                continue
            if (mask | bit).bit_count() - values[mask | bit] < base:
                return mask, mask | bit
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

    hit = _first_r1_violation(values, n)
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

    hit = _first_local_semimodular_violation(values, n)
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

    hit = _first_negative(values, n)
    verdicts["nonnegative"] = hit is None
    if hit is not None:
        witnesses["nonnegative"] = {"A": _subset(ground, hit), "r(A)": values[hit]}

    verdicts["Gr0"] = values[0] == 0
    if not verdicts["Gr0"]:
        witnesses["Gr0"] = {"A": _subset(ground, 0), "r(A)": values[0]}

    hit = _first_decrease(values, n)
    verdicts["Gr1"] = hit is None
    if hit:
        witnesses["Gr1"] = {"A": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    hit = _first_supercardinal(values, n)
    verdicts["Gr2"] = hit is None
    if hit is not None:
        witnesses["Gr2"] = {"A": _subset(ground, hit), "r(A)": values[hit]}

    hit = _first_local_semimodular_violation(values, n)
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

    hit = _first_unit_jump(values, n)
    verdicts["Gr1*"] = hit is None
    if hit:
        witnesses["Gr1*"] = {"B": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    hit = _first_above_full(values, n)
    verdicts["Gr2*"] = hit is None
    if hit is not None:
        witnesses["Gr2*"] = {"B": _subset(ground, hit), "r(B)": values[hit]}

    hit = _first_local_decrease_violation(values, n)
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
    order = masks_by_cardinality(n)
    spanning = tuple(_subset(ground, m) for m in order if values[m] == total)
    bases = tuple(
        _subset(ground, m) for m in order if m in family.members and values[m] == total
    )
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
    union-closed. Pairwise closure implies closure of all finite unions."""
    greedoid = check_greedoid(g)
    verdicts = dict(greedoid.verdicts)
    witnesses = dict(greedoid.witnesses)

    members = FeasibleFamily.from_table(g).members
    ordered = sorted(members, key=lambda m: (m.bit_count(), m))
    hit = None
    for i, f1 in enumerate(ordered):
        for f2 in ordered[i:]:
            if f1 | f2 not in members:
                hit = (f1, f2)
                break
        if hit:
            break
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

    hit = _first_negative(values, n)
    verdicts[f"{prefix}-nonnegative"] = hit is None
    if hit is not None:
        witnesses[f"{prefix}-nonnegative"] = {"A": _subset(ground, hit), "rank": values[hit]}

    hit = _first_supercardinal(values, n)
    verdicts[f"{prefix}-subcardinal"] = hit is None
    if hit is not None:
        witnesses[f"{prefix}-subcardinal"] = {"A": _subset(ground, hit), "rank": values[hit]}

    hit = _first_decrease(values, n)
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

    hit = None
    for mask in masks_by_cardinality(n):
        co = full ^ mask
        if co.bit_count() - r.values[co] != s.values[full] - s.values[mask]:
            hit = mask
            break
    verdicts["rank-nullity-duality"] = hit is None
    if hit is not None:
        witnesses["rank-nullity-duality"] = {"A": _subset(ground, hit)}

    hit = None
    for mask in masks_by_cardinality(n):
        co = full ^ mask
        if co.bit_count() - s.values[co] != r.values[full] - r.values[mask]:
            hit = mask
            break
    verdicts["rank-nullity-duality-complement"] = hit is None
    if hit is not None:
        witnesses["rank-nullity-duality-complement"] = {"A": _subset(ground, hit)}

    details = {"s_is_dual_of_r": s.values == _dual_values(r.values, n)}

    passed = all(verdicts.values())
    return AxiomReport("demi-matroid-triple", verdicts, witnesses, passed, details)


def check_demimatroid_characterization(g: RankTable) -> AxiomReport:
    """Check the conditions under which (S, r, r*) forms a demi triple:

    (a) nonnegative-subcardinal: 0 <= r(A) <= |A|
    (b) monotone: A in B implies r(A) <= r(B)
    (c) unit-increase: r(A | p) <= r(A) + 1

    The monotone-nullity verdict (|A| - r(A) never drops as A grows) is also
    evaluated; it is advisory and equals (c) whenever (a) and (b) hold. The
    overall verdict is (a) and (b) and (c).
    """
    values, n, ground = g.values, g.n, g.ground
    verdicts: dict = {}
    witnesses: dict = {}

    hit = _first_negative(values, n)
    if hit is None:
        hit = _first_supercardinal(values, n)
    verdicts["nonnegative-subcardinal"] = hit is None
    if hit is not None:
        witnesses["nonnegative-subcardinal"] = {"A": _subset(ground, hit), "rank": values[hit]}

    hit = _first_decrease(values, n)
    verdicts["monotone"] = hit is None
    if hit:
        a, pos = hit
        witnesses["monotone"] = {
            "A": _subset(ground, a),
            "B": _subset(ground, a | (1 << pos)),
        }

    hit = _first_unit_jump(values, n)
    verdicts["unit-increase"] = hit is None
    if hit:
        witnesses["unit-increase"] = {"A": _subset(ground, hit[0]), "p": ground.labels[hit[1]]}

    hit = _first_nullity_violation(values, n)
    verdicts["monotone-nullity"] = hit is None
    if hit:
        witnesses["monotone-nullity"] = {
            "A": _subset(ground, hit[0]),
            "B": _subset(ground, hit[1]),
        }

    passed = (
        verdicts["nonnegative-subcardinal"]
        and verdicts["monotone"]
        and verdicts["unit-increase"]
    )
    return AxiomReport("demi-matroid-characterization", verdicts, witnesses, passed)
