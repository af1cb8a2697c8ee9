"""Brute-force reference for the axiom checkers and ``validate``.

Each scan walks subsets in (cardinality, mask) order with plain Python
loops and stops at the first violation, which is by construction the
canonical witness. The library finds the same witnesses from bit sets; the
``oracle_*`` functions assemble reports from these scans alone, and the tests
require the library's reports to equal them field by field.
"""

from rankdual.axioms import MAX_PAIRWISE_N, AxiomReport, FeasibleFamily
from rankdual.core import SubsetRef, ValidationReport, masks_by_cardinality


def pairwise_semimodular(values, n) -> bool:
    """r(A & B) + r(A | B) <= r(A) + r(B) for every incomparable pair."""
    size = 1 << n
    return all(
        values[a & b] + values[a | b] <= values[a] + values[b]
        for a in range(size)
        for b in range(a + 1, size)
        if a & b != a and a & b != b
    )


def pairwise_union_closed(values, n) -> bool:
    """The union of every two feasible sets {A : r(A) = |A|} is feasible."""
    feas = [m for m in range(1 << n) if values[m] == m.bit_count()]
    fset = set(feas)
    return all(f1 | f2 in fset for i, f1 in enumerate(feas) for f2 in feas[i + 1 :])


def step_classes(values, n, blocks=1):
    """Entry i, p is the set of masks A without bit p whose step
    d = values[A | p] - values[A] is, for i = 0..3, a decrease (d < 0), flat
    (d = 0), a unit (d = 1) or a jump (d > 1); over ``blocks`` tables of 2**n
    values laid end to end, mask b * 2**n + A being mask A of table b."""
    found = [[0] * n for _ in range(4)]
    for base in range(0, blocks << n, 1 << n):
        for mask in range(1 << n):
            for pos in range(n):
                bit = 1 << pos
                if mask & bit:
                    continue
                d = values[base + (mask | bit)] - values[base + mask]
                kind = 0 if d < 0 else 1 if d == 0 else 2 if d == 1 else 3
                found[kind][pos] |= 1 << base + mask
    return found


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
        for b in order[ia + 1 :]:
            if a & b == a or a & b == b:
                continue
            if values[a & b] + values[a | b] > values[a] + values[b]:
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


def _first_duality_violation(t, u, n):
    """First A with |S-A| - t(S-A) != u(S) - u(A)."""
    full = (1 << n) - 1
    for mask in masks_by_cardinality(n):
        co = full ^ mask
        if co.bit_count() - t[co] != u[full] - u[mask]:
            return mask
    return None


def _first_union_gap(members):
    ordered = sorted(members, key=lambda m: (m.bit_count(), m))
    for i, f1 in enumerate(ordered):
        for f2 in ordered[i:]:
            if f1 | f2 not in members:
                return f1, f2
    return None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _record(verdicts, witnesses, axiom, hit, witness):
    """Store the verdict of one scan and, on a hit, its witness."""
    verdicts[axiom] = hit is None
    if hit is not None:
        witnesses[axiom] = witness(hit)


def oracle_matroid(g):
    values, n, ground = g.values, g.n, g.ground
    labels = ground.labels
    verdicts, witnesses, details = {}, {}, {}
    _record(verdicts, witnesses, "R0", None if values[0] == 0 else 0,
            lambda m: {"A": SubsetRef(ground, m), "r(A)": values[m]})
    _record(verdicts, witnesses, "R1", _first_r1_violation(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "p": labels[h[1]]})
    pairwise = n <= MAX_PAIRWISE_N
    if pairwise:
        _record(verdicts, witnesses, "R2", _first_semimodular_violation(values, n),
                lambda h: {"A": SubsetRef(ground, h[0]), "B": SubsetRef(ground, h[1])})
    else:
        details["semimodularity"] = f"pairwise scan skipped (n > {MAX_PAIRWISE_N}); local variant only"
    _record(verdicts, witnesses, "R2'", _first_local_semimodular_violation(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "p1": labels[h[1]], "p2": labels[h[2]]})
    if pairwise:
        base = verdicts["R0"] and verdicts["R1"]
        details["global_local_agree"] = (base and verdicts["R2"]) == (base and verdicts["R2'"])
    return AxiomReport("matroid", verdicts, witnesses, all(verdicts.values()), details)


def _greedoid_parts(g):
    values, n, ground = g.values, g.n, g.ground
    labels = ground.labels
    verdicts, witnesses = {}, {}
    _record(verdicts, witnesses, "nonnegative", _first_negative(values, n),
            lambda m: {"A": SubsetRef(ground, m), "r(A)": values[m]})
    _record(verdicts, witnesses, "Gr0", None if values[0] == 0 else 0,
            lambda m: {"A": SubsetRef(ground, m), "r(A)": values[m]})
    _record(verdicts, witnesses, "Gr1", _first_decrease(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "p": labels[h[1]]})
    _record(verdicts, witnesses, "Gr2", _first_supercardinal(values, n),
            lambda m: {"A": SubsetRef(ground, m), "r(A)": values[m]})
    _record(verdicts, witnesses, "Gr3", _first_local_semimodular_violation(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "p1": labels[h[1]], "p2": labels[h[2]]})
    return verdicts, witnesses


def oracle_greedoid(g):
    verdicts, witnesses = _greedoid_parts(g)
    return AxiomReport("greedoid", verdicts, witnesses, all(verdicts.values()))


def oracle_dual_greedoid(g):
    values, n, ground = g.values, g.n, g.ground
    labels = ground.labels
    verdicts, witnesses = {}, {}
    _record(verdicts, witnesses, "Gr0*", None if values[0] == 0 else 0,
            lambda m: {"B": SubsetRef(ground, m), "r(B)": values[m]})
    _record(verdicts, witnesses, "Gr1*", _first_unit_jump(values, n),
            lambda h: {"B": SubsetRef(ground, h[0]), "p": labels[h[1]]})
    _record(verdicts, witnesses, "Gr2*", _first_above_full(values, n),
            lambda m: {"B": SubsetRef(ground, m), "r(B)": values[m]})
    _record(verdicts, witnesses, "Gr3*", _first_local_decrease_violation(values, n),
            lambda h: {"B": SubsetRef(ground, h[0]), "p": labels[h[1]], "q": labels[h[2]]})
    return AxiomReport("dual-greedoid", verdicts, witnesses, all(verdicts.values()))


def oracle_antimatroid(g):
    verdicts, witnesses = _greedoid_parts(g)
    _record(verdicts, witnesses, "union-closed", _first_union_gap(FeasibleFamily.from_table(g).members),
            lambda h: {"F1": SubsetRef(g.ground, h[0]), "F2": SubsetRef(g.ground, h[1])})
    return AxiomReport("antimatroid", verdicts, witnesses, all(verdicts.values()))


def _demi_flags(prefix, table, verdicts, witnesses):
    values, n, ground = table.values, table.n, table.ground
    _record(verdicts, witnesses, f"{prefix}-nonnegative", _first_negative(values, n),
            lambda m: {"A": SubsetRef(ground, m), "rank": values[m]})
    _record(verdicts, witnesses, f"{prefix}-subcardinal", _first_supercardinal(values, n),
            lambda m: {"A": SubsetRef(ground, m), "rank": values[m]})
    _record(verdicts, witnesses, f"{prefix}-monotone", _first_decrease(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "B": SubsetRef(ground, h[0] | 1 << h[1])})


def oracle_demimatroid_triple(d):
    r, s, ground = d.r, d.s, d.ground
    n, full = ground.n, ground.full_mask
    verdicts, witnesses = {}, {}
    _demi_flags("r", r, verdicts, witnesses)
    _demi_flags("s", s, verdicts, witnesses)
    _record(verdicts, witnesses, "rank-nullity-duality", _first_duality_violation(r.values, s.values, n),
            lambda m: {"A": SubsetRef(ground, m)})
    _record(verdicts, witnesses, "rank-nullity-duality-complement",
            _first_duality_violation(s.values, r.values, n), lambda m: {"A": SubsetRef(ground, m)})
    total = r.values[full]
    r_dual = tuple(m.bit_count() + r.values[full ^ m] - total for m in range(full + 1))
    details = {"s_is_dual_of_r": s.values == r_dual}
    return AxiomReport("demi-matroid-triple", verdicts, witnesses, all(verdicts.values()), details)


def oracle_demimatroid_characterization(g):
    values, n, ground = g.values, g.n, g.ground
    verdicts, witnesses = {}, {}
    hit = _first_negative(values, n)
    if hit is None:
        hit = _first_supercardinal(values, n)
    _record(verdicts, witnesses, "nonnegative-subcardinal", hit,
            lambda m: {"A": SubsetRef(ground, m), "rank": values[m]})
    _record(verdicts, witnesses, "monotone", _first_decrease(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "B": SubsetRef(ground, h[0] | 1 << h[1])})
    _record(verdicts, witnesses, "unit-increase", _first_unit_jump(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "p": ground.labels[h[1]]})
    _record(verdicts, witnesses, "monotone-nullity", _first_nullity_violation(values, n),
            lambda h: {"A": SubsetRef(ground, h[0]), "B": SubsetRef(ground, h[1])})
    passed = verdicts["nonnegative-subcardinal"] and verdicts["monotone"] and verdicts["unit-increase"]
    return AxiomReport("demi-matroid-characterization", verdicts, witnesses, passed)


def oracle_validate(table):
    values, n, ground = table.values, table.n, table.ground
    total = values[ground.full_mask]
    witnesses = {}
    flags = {"subcardinal": True, "nonnegative": True, "rank_s_maximum": True}
    for mask in masks_by_cardinality(n):
        v = values[mask]
        for name, bad in (
            ("subcardinal", v > mask.bit_count()),
            ("nonnegative", v < 0),
            ("rank_s_maximum", v > total),
        ):
            if flags[name] and bad:
                flags[name] = False
                witnesses[name] = SubsetRef(ground, mask)
    hit = _first_decrease(values, n)
    if hit is not None:
        a, pos = hit
        witnesses["monotone"] = (SubsetRef(ground, a), SubsetRef(ground, a | 1 << pos))
    return ValidationReport(
        normalized=values[0] == 0,
        monotone=hit is None,
        witnesses=witnesses,
        **flags,
    )
