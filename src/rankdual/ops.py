"""Generalized duality, deletion, contraction, minors, and direct sums.

All operations are pure: they return fresh tables and never mutate inputs.
The dual rank is r*(A) = |A| + r(S - A) - r(S), which is total for any
integer table; the involution (g*)* = g is only guaranteed when r(empty) = 0,
and contraction requires that normalization outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, sub

from .core import (
    GroundSet,
    GroundSetError,
    NormalizationError,
    RankFunctionError,
    RankTable,
    SubsetRef,
    popcounts,
    table_from_values,
)


@dataclass(frozen=True)
class MinorSpec:
    """A disjoint (contracted, deleted) pair of subsets of one ground set."""

    contracted: SubsetRef
    deleted: SubsetRef

    def __post_init__(self):
        if self.contracted.ground != self.deleted.ground:
            raise GroundSetError("contracted and deleted sets use different ground sets")
        if self.contracted.bits & self.deleted.bits:
            overlap = SubsetRef(self.contracted.ground, self.contracted.bits & self.deleted.bits)
            raise RankFunctionError(f"contracted and deleted sets overlap on {overlap}")


def _dual_values(values, n: int) -> tuple:
    """Dual ranks of a raw 2**n value sequence: |A| + r(S - A) - r(S)."""
    # reversed(values)[A] is r(S - A)
    return tuple(map(sub, map(add, popcounts(n), reversed(values)), repeat(values[-1])))


def dual(g: RankTable) -> RankTable:
    """Dual table: r*(A) = |A| + r(S - A) - r(S) for every subset A."""
    return table_from_values(g.ground, _dual_values(g.values, g.n))


def _expansion(bits) -> list[int]:
    """Entry M is the old mask with old bit bits[k] for each new bit k of M."""
    expand = [0]
    for bit in bits:
        # new masks 2**k .. 2**(k+1) - 1 are the masks below 2**k plus bit k
        expand += list(map(bit.__or__, expand))
    return expand


def _project(ground: GroundSet, removed_mask: int) -> tuple[GroundSet, list[int]]:
    """Ground set without the removed elements, plus a map from new masks to
    the corresponding old masks (over the surviving elements only)."""
    kept_bits = [1 << pos for pos in range(ground.n) if not removed_mask >> pos & 1]
    new_ground = GroundSet(
        tuple(label for pos, label in enumerate(ground.labels) if not removed_mask >> pos & 1)
    )
    return new_ground, _expansion(kept_bits)


def delete(g: RankTable, p: str) -> RankTable:
    """Restrict the table to subsets avoiding p."""
    bit = 1 << g.ground.position(p)
    new_ground, expand = _project(g.ground, bit)
    return table_from_values(new_ground, tuple(map(g.values.__getitem__, expand)))


def _contracted_values(values, expand, c: int) -> tuple:
    """r(A | c) - r(c) for the old mask A of each new mask, in new-mask order."""
    return tuple(map(sub, map(values.__getitem__, map(c.__or__, expand)), repeat(values[c])))


def contract(g: RankTable, p: str) -> RankTable:
    """Contract p: rank of A becomes r(A | p) - r(p), on the ground set S - p.

    Requires r(empty) = 0. The result equals dual(delete(dual(g), p)); the
    exchange and contract_formula verification suites check that identity.
    """
    if g.values[0] != 0:
        raise NormalizationError(
            f"contraction requires r(empty) = 0, got {g.values[0]}"
        )
    bit = 1 << g.ground.position(p)
    new_ground, expand = _project(g.ground, bit)
    return table_from_values(new_ground, _contracted_values(g.values, expand, bit))


def minor(g: RankTable, spec: MinorSpec) -> RankTable:
    """The minor (G / C) - D, with rank r(A | C) - r(C) on S - C - D.

    Equals any sequential composition of single-element deletions and
    contractions realizing (C, D). Requires r(empty) = 0.
    """
    if spec.contracted.ground != g.ground:
        raise GroundSetError("minor spec uses a different ground set")
    if g.values[0] != 0:
        raise NormalizationError("minors require r(empty) = 0")
    c = spec.contracted.bits
    removed = c | spec.deleted.bits
    new_ground, expand = _project(g.ground, removed)
    return table_from_values(new_ground, _contracted_values(g.values, expand, c))


def direct_sum(g1: RankTable, g2: RankTable) -> RankTable:
    """Rank-additive union on disjoint label sets:
    r(A) = r1(A & S1) + r2(A & S2)."""
    collision = set(g1.ground.labels) & set(g2.ground.labels)
    if collision:
        raise GroundSetError(f"label collision in direct sum: {sorted(collision)}")
    ground = GroundSet(g1.ground.labels + g2.ground.labels)
    n1 = g1.ground.n
    low = g1.ground.full_mask
    values = tuple(
        g1.values[mask & low] + g2.values[mask >> n1] for mask in range(ground.size)
    )
    return table_from_values(ground, values)
