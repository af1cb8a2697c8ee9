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
    MAX_PACKED_SPREAD,
    GroundSet,
    GroundSetError,
    NormalizationError,
    RankFunctionError,
    RankTable,
    SubsetRef,
    TableView,
    _shifted,
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


def _byte_range(data: bytes, top: int) -> tuple[int, int]:
    """min(data) and max(data) for nonempty bytes that are all at most top,
    by one C-level membership probe per candidate byte, from the bottom and
    from ``top``: min and max would box every byte of a long run."""
    least = next(filter(data.__contains__, range(top + 1)))
    return least, next(filter(data.__contains__, range(top, least - 1, -1)))


def _packed_dual(n: int, view: TableView):
    """The view of the dual of a table's view, from one int pass over its
    offsets: None when the view has none, or the dual's spread is past
    MAX_PACKED_SPREAD.

    The reversed offsets plus popcounts(n) give byte A = |A| + r(S - A) - low
    (at most 24 + 127, so no byte carries), and r*(A) is that byte plus
    low - r(S). Its ranks lie within 151 of 0, far inside the magnitude
    bound, so the dual needs none of the constructor's checks."""
    offsets = view.offsets
    if offsets is None:
        return None
    total = int.from_bytes(offsets[::-1], "little") + int.from_bytes(popcounts(n), "little")
    sums = total.to_bytes(1 << n, "little")
    shift = view.low - view.values[-1]
    least, most = _byte_range(sums, n + view.high - view.low)
    low, high = min(least + shift, 0), most + shift
    if high - low > MAX_PACKED_SPREAD:
        return None
    dual_offsets = sums if low == shift else sums.translate(_shifted(shift - low))
    if low == 0:
        values = tuple(dual_offsets)
    else:
        # low >= shift >= -127: the ranks are signed bytes, and read as such
        values = tuple(memoryview(dual_offsets.translate(_shifted(low))).cast("b"))
    return TableView(values, low, high, dual_offsets)


# Fewest subsets for which dual takes the packed pass: below about 2**8, the
# pass's fixed steps cost more than _dual_values and the checked build.
PACKED_DUAL_SIZE = 256


def dual(g: RankTable) -> RankTable:
    """Dual table: r*(A) = |A| + r(S - A) - r(S) for every subset A.

    A packed table of at least PACKED_DUAL_SIZE subsets gets its dual, with
    the dual's view, from _packed_dual; any other goes through _dual_values
    and the checked constructor."""
    if len(g.values) >= PACKED_DUAL_SIZE:
        dual_view = _packed_dual(g.n, g._kernel_view())
        if dual_view is not None:
            return RankTable._from_view(g.ground, dual_view)
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
    # entries of a table already checked
    return RankTable._trusted(new_ground, tuple(map(g.values.__getitem__, expand)))


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
