"""Generalized duality, deletion, contraction, minors, and direct sums.

All operations are pure: they return fresh tables and never mutate inputs.
The dual rank is r*(A) = |A| + r(S - A) - r(S), which is total for any
integer table; the involution (g*)* = g is only guaranteed when r(empty) = 0,
and contraction requires that normalization outright.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, ne, sub

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
    _view_of,
    bitset,
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


def _shifted_view(data: bytes, top: int, shift: int):
    """The view of the values b + shift for the bytes b of nonempty data,
    all at most top: None when their spread passes MAX_PACKED_SPREAD or one
    of them is below -128, so that the values are no signed bytes."""
    least, most = _byte_range(data, top)
    low, high = min(least + shift, 0), most + shift
    # low <= 0 and high - low <= 127 give high <= 127
    if high - low > MAX_PACKED_SPREAD or low < -128:
        return None
    offsets = data if low == shift else data.translate(_shifted(shift - low))
    if low == 0:
        values = tuple(offsets)
    else:
        # the values lie in -128..127: signed bytes, and read as such
        values = struct.unpack(f"{len(data)}b", data.translate(_shifted(shift)))
    return TableView(values, low, high, offsets)


def _rebased(n: int, data: bytes, blocks: int, byteorder: str = "little") -> int:
    """The bytes of ``blocks`` blocks of 2**n bytes, read from data as one
    int in ``byteorder``, each block lowered by its byte 0 and lifted by the
    largest byte 0, so that no byte goes below 0: byte A of block b is
    X_b[A] - X_b[0] + lift, and byte 0 of every block is the lift. No byte
    passes 255 while all are within 127. Read big-endian, block b is the
    b-th block from the end of data, reversed. Each block's byte 0, masked
    and multiplied as in the FULL pass of core.exceeding, lifts its block."""
    size = 1 << n
    packed = int.from_bytes(data, byteorder)
    starts = data[::size] if byteorder == "little" else data[size - 1 :: size]
    firsts = int.from_bytes(bytes(size - 1).join([b"\1"] * blocks), "little")
    lift = max(starts, default=0) * firsts - (packed & 0xFF * firsts)
    return packed + lift * int.from_bytes(b"\1" * size, "little")


def _dual_sums(n: int, offsets: bytes, blocks: int) -> bytes:
    """The packed dual pass over the offsets O of ``blocks`` tables of 2**n
    values laid end to end, b"" for none: byte A of block b is
    |A| + O_b[S - A] + bias - O_b[S] = r_b*(A) + bias, with bias the largest
    O_b[S], which is byte 0 of every block. The blocks, joined in reverse
    order and read as one big-endian int, hold O_b[S - A] at byte A of block
    b, whose byte 0 O_b[S] _rebased takes off."""
    size = 1 << n
    offsets = b"".join([offsets[end - size : end] for end in range(blocks << n, 0, -size)])
    total = _rebased(n, offsets, blocks, "big") + int.from_bytes(popcounts(n) * blocks, "little")
    return total.to_bytes(blocks << n, "little")


def _packed_dual(n: int, values, blocks: int = 1):
    """The view of the duals of ``blocks`` tables of 2**n values laid end to
    end, from _dual_sums: None when the values have no offsets, a byte of
    the pass could pass 255, or the duals' spread passes MAX_PACKED_SPREAD.
    A table's dual lies within 151 of 0, so it needs no constructor check."""
    if not blocks:
        return TableView((), 0, 0, b"")
    view = _view_of(values)
    if view.offsets is None:
        return None
    sums = _dual_sums(n, view.offsets, blocks)
    # byte A of block b is at most n + max(O) + bias - O_b[S]; byte 0 is bias
    top = n + view.high - view.low + sums[0] - min(view.offsets[(1 << n) - 1 :: 1 << n])
    return _shifted_view(sums, top, -sums[0]) if top < 256 else None


def _side(view):
    """The side (see _differing) of a view's values."""
    return view.offsets, view.low


def _differing(x, y):
    """The set of masks at which the values of the sides x and y differ. A
    side is a pair (offsets, low) of the values offsets + low; None unless
    both offsets are ASCII and both lows in -128..0, so that the offsets of
    one side raised onto the other's lower low stay bytes."""
    (x, x_low), (y, y_low) = x, y
    if not (x.isascii() and y.isascii()) or min(x_low, y_low) < -128:
        return None
    if x_low > y_low:
        x = x.translate(_shifted(x_low - y_low))
    elif y_low > x_low:
        y = y.translate(_shifted(y_low - x_low))
    return 0 if x == y else bitset(map(ne, x, y))


def _dual_mismatch(n: int, t, u, blocks: int = 1):
    """The set of masks B with t(B) != u*(B), for the views t and u of
    ``blocks`` tables of 2**n values laid end to end, read from the packed
    dual of u when both pack; otherwise None for a corpus, and for one table
    from _dual_values (not ``dual``, whose checked build refuses duals past
    the magnitude bound)."""
    u_dual = None if t.offsets is None else _packed_dual(n, u, blocks)
    masks = None if u_dual is None else _differing(_side(t), _side(u_dual))
    if masks is None and blocks == 1:
        return bitset(map(ne, t.values, _dual_values(u.values, n)))
    return masks


# Fewest values for which dual, the minors, direct_sum and the two
# polynomials read a table's packed bytes: below about 2**8, the fixed steps
# of a packed pass cost more than the per-value path and the checked build.
PACKED_PASS_SIZE = 256


def _packed_view(g: RankTable):
    """The view of g that the packed passes read, or None: g is smaller than
    PACKED_PASS_SIZE subsets, or its view has no offsets."""
    if len(g.values) < PACKED_PASS_SIZE:
        return None
    view = g._kernel_view()
    return view if view.offsets is not None else None


def dual(g: RankTable) -> RankTable:
    """Dual table: r*(A) = |A| + r(S - A) - r(S) for every subset A.

    A packed table of at least PACKED_PASS_SIZE subsets gets its dual, with
    the dual's view, from _packed_dual; any other goes through _dual_values
    and the checked constructor."""
    view = _packed_view(g)
    dual_view = None if view is None else _packed_dual(g.n, view)
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


def _half(seq, bit: int, upper: bool):
    """The half of a sequence of 2**n entries at the masks with ``bit``
    (upper) or without it, in mask order. Those masks are the runs of
    ``bit`` entries that start at every other multiple of ``bit``: the
    result is taken as ``bit`` step slices when there are fewer of them
    than runs, and as a join of the runs otherwise. Bytes give bytes, and
    any other sequence a tuple."""
    size, step = len(seq), 2 * bit
    start = bit if upper else 0
    # one slice serves the lowest bit, and the highest, whose one run is a half
    if bit == 1:
        return seq[start::2]
    if step == size:
        return seq[start : start + bit]
    packed = isinstance(seq, bytes)
    if bit * step <= size:
        out = bytearray(size >> 1) if packed else [0] * (size >> 1)
        for j in range(bit):
            # entry j of each run
            out[j::bit] = seq[start + j :: step]
        return bytes(out) if packed else tuple(out)
    runs = map(seq.__getitem__, map(slice, range(start, size, step), range(start + bit, size + 1, step)))
    return b"".join(runs) if packed else tuple(chain.from_iterable(runs))


def _select(seq, n: int, contracted: int, removed: int):
    """The entries of a sequence of 2**n entries at the masks A | contracted
    for every mask A that avoids ``removed`` (a superset of contracted), in
    the mask order of the elements left. Each removed bit, from the highest
    down so that the lower ones keep their place, keeps the half of the
    sequence with that bit (a contracted element) or without it."""
    for pos in reversed(range(n)):
        if removed >> pos & 1:
            seq = _half(seq, 1 << pos, contracted >> pos & 1)
    return seq


def _kept_ground(ground: GroundSet, removed: int) -> GroundSet:
    """The ground set without the elements of the mask ``removed``."""
    return GroundSet(tuple(label for pos, label in enumerate(ground.labels) if not removed >> pos & 1))


def _minor_table(g: RankTable, contracted: int, removed: int) -> RankTable:
    """The table r(A | C) - r(C) on the elements of g outside ``removed``,
    for the contracted set C within it; r(A) itself when C is empty.

    A packed table of at least PACKED_PASS_SIZE subsets selects its offsets
    r(A | C) - low: the result is those bytes plus low - r(C), within 127 of
    0 when C is not empty, so it needs no checked build. Any other table
    (or a deletion whose ranks are not signed bytes) selects its values;
    entries of a checked table need no check either, their differences do."""
    ground = _kept_ground(g.ground, removed)
    base = g.values[contracted] if contracted else 0
    view = _packed_view(g)
    if view is not None:
        selected = _select(view.offsets, g.n, contracted, removed)
        minor_view = _shifted_view(selected, view.high - view.low, view.low - base)
        if minor_view is not None:
            return RankTable._from_view(ground, minor_view)
    values = _select(g.values, g.n, contracted, removed)
    if not base:
        return RankTable._trusted(ground, values)
    return table_from_values(ground, map(sub, values, repeat(base)))


def delete(g: RankTable, p: str) -> RankTable:
    """Restrict the table to subsets avoiding p."""
    return _minor_table(g, 0, 1 << g.ground.position(p))


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
    return _minor_table(g, bit, bit)


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
    return _minor_table(g, c, c | spec.deleted.bits)


def direct_sum(g1: RankTable, g2: RankTable) -> RankTable:
    """Rank-additive union on disjoint label sets:
    r(A) = r1(A & S1) + r2(A & S2).

    When both summands are packed tables of at least PACKED_PASS_SIZE
    subsets, the offsets of the sum are one join: the left offsets raised
    by each right offset in turn, one translate per distinct right offset;
    with both spreads at most MAX_PACKED_SPREAD, no byte passes 254. A sum
    whose spread stays at most MAX_PACKED_SPREAD and whose ranks are signed
    bytes takes its view from _shifted_view; any other sum adds the
    values."""
    collision = set(g1.ground.labels) & set(g2.ground.labels)
    if collision:
        raise GroundSetError(f"label collision in direct sum: {sorted(collision)}")
    ground = GroundSet(g1.ground.labels + g2.ground.labels)
    view1, view2 = _packed_view(g1), _packed_view(g2)
    if view1 is not None and view2 is not None:
        left = view1.offsets
        raised = {o: left.translate(_shifted(o)) for o in set(view2.offsets)}
        offsets = b"".join(map(raised.__getitem__, view2.offsets))
        top = view1.high - view1.low + view2.high - view2.low
        view = _shifted_view(offsets, top, view1.low + view2.low)
        if view is not None:
            return RankTable._from_view(ground, view)
    # mask (h << n1) | l has rank r1(l) + r2(h): h outer, l inner
    values = tuple(v1 + v2 for v2 in g2.values for v1 in g1.values)
    return table_from_values(ground, values)
