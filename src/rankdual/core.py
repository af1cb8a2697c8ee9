"""Ground sets, bitmask subsets, and explicit integer rank tables.

A rank table stores one signed integer per subset of a finite ground set.
Subsets are encoded as bitmasks: bit i corresponds to the i-th label of the
ground set, so a table over n elements is a flat tuple of 2**n values indexed
by mask. Nothing at this level forces ranks to be nonnegative, monotone, or
subcardinal; those are reported by :func:`validate` and enforced only by the
axiom checkers that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, compress, count, repeat
from operator import add, and_, eq, gt, invert, lshift, or_, rshift, sub
from typing import Iterable, Iterator, Sequence

# Explicit tables hold 2**n entries; 24 keeps the worst case at 16M ints.
MAX_GROUND_SIZE = 24

# Ranks must stay inside machine-integer territory; the structures this
# library models never get anywhere near the bound.
MAX_RANK_MAGNITUDE = 2**31


class RankFunctionError(Exception):
    """Base class for all errors raised by this package."""


class GroundSetError(RankFunctionError):
    """Bad ground set or mixing subsets of different ground sets."""


class TableBuildError(RankFunctionError):
    """Rank-table construction failed (missing/duplicate/unknown entries)."""


class NormalizationError(RankFunctionError):
    """Operation requires r(empty) = 0 but the table is not normalized."""


# Full pairwise scans (semimodularity over all subset pairs, 4**n / 2 work)
# run only up to this ground size; past it only local variants are checked.
MAX_PAIRWISE_N = 12


def by_cardinality(masks) -> list[int]:
    """The given masks sorted by (popcount, mask value).

    This is the canonical scan order for witness search: the first violation
    found in this order is the smallest by cardinality, ties broken by mask.
    """
    # sorted by value first, so that the stable popcount sort keeps each
    # cardinality in mask order
    return sorted(sorted(masks), key=int.bit_count)


def masks_by_cardinality(n: int) -> tuple[int, ...]:
    """All masks over n bits in (cardinality, mask) order. Nothing is
    cached, so a large call keeps no 2**n tuple alive."""
    return tuple(by_cardinality(range(1 << n)))


# ---------------------------------------------------------------------------
# bit-set kernel: a family of masks over n bits is one int whose bit A is set
# iff mask A belongs to it. Every set is built by C-level bytes operations,
# never by a Python loop over subsets. The step relations of the axioms are
# read from one scan of each element's steps (step_sets), and the bounds
# 0 <= r(A), r(A) <= |A| and r(A) <= r(S) from one byte pass each
# (exceeding), when the table's values spread over at most 127; from map
# passes otherwise. The feasible sets r(A) = |A| are read as flags
# (feasible_flags).
#
# The kernel reads values through a TableView: the values, the offset
# low = min(min(values), 0), their maximum high, and the bytes v - low, one
# per value, when high - low <= MAX_PACKED_SPREAD (None otherwise, and the
# readers take their map paths). One offset serves every reader, so each
# table is packed at most once, on the first read that needs the bytes. The
# checked RankTable constructor makes a table's view from the min and max
# its checks take, a table built with RankTable._trusted makes it on its
# first kernel read, and ops._packed_dual and the structure constructors
# make theirs, bytes and all, from the bytes they computed. Corpora of ASCII
# bytes are their own bytes. The view of one table also keeps, from the
# first step_sets call on it, the class of every step in two bit planes,
# held as one int of 2**n bits per element (n * 2**n / 8 bytes in all),
# from which each relation of every later call is a few bit operations per
# element; raw values and corpora are scanned anew on every call.
# ---------------------------------------------------------------------------

_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_INCREMENT = bytes(range(1, 256)) + b"\0"
_ZERO_FLAGS = b"\1" + bytes(255)
_CYCLE = bytes(range(256)) * 2


def _shifted(k: int) -> bytes:
    """The translate table of byte x to (x + k) mod 256."""
    k %= 256
    return _CYCLE[k : k + 256]


def bitset(flags) -> int:
    """The set of indices i whose flag (an iterable of bools) is true; 0
    for no flags."""
    return int(bytes(flags).translate(_DIGITS)[::-1] or b"0", 2)


def member_flags(members: int, width: int) -> bytes:
    """Byte i is 1 when i is in the bit set ``members`` and 0 otherwise, for
    i in range(width), width >= 1: the inverse of ``bitset``."""
    members &= (1 << width) - 1
    return format(members, f"0{width}b").encode()[::-1].translate(_FLAGS)


def members_of(members: int, width: int) -> list[int]:
    """The elements of the bit set ``members`` within range(width), in
    increasing order. ~s is s's complement."""
    if not members & (1 << width) - 1:
        return []
    return list(compress(range(width), member_flags(members, width)))


def _spread(width: int, members: int) -> int:
    """The bit set ``members`` over ``width`` positions with one byte per
    position: byte i of the result, little-endian, is bit i of ``members``."""
    return int.from_bytes(format(members, f"0{width}b").encode().translate(_FLAGS), "big")


def member_counts(n: int, sets, blocks: int = 1) -> bytes:
    """Byte A is the number of the given bit sets over n bits that contain
    mask A; there must be fewer than 256 sets.

    The sets are added as binary counters held in bit planes, plane j being
    the set of masks whose count has bit j, each set rippling its carries up
    the planes. Each plane is then spread to one byte per mask and the
    spread planes, shifted by j, are summed as integers: no byte ever
    carries into the next.

    With ``blocks`` > 1 the sets run over that many consecutive blocks of
    2**n masks, and byte b * 2**n + A counts position A of block b."""
    width = blocks << n
    planes = []
    for carry in sets:
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    total = 0
    for plane in reversed(planes):
        total = (total << 1) + _spread(width, plane)
    return total.to_bytes(width, "little")


@lru_cache(maxsize=None)
def popcounts(n: int) -> bytes:
    """Byte A is |A|, for every mask A over n bits."""
    counts = b"\0"
    for _ in range(n):
        counts += counts.translate(_INCREMENT)
    return counts


@lru_cache(maxsize=64)
def avoid_sets(n: int, blocks: int = 1) -> tuple[int, ...]:
    """Entry p is the set of masks over n bits that do not contain bit p.

    With ``blocks`` > 1 the set runs over that many consecutive blocks of
    2**n masks, and holds the masks of each block without bit p: the same
    periodic pattern, only longer."""
    width = blocks << n
    sets = []
    for p in range(n):
        half = 1 << p
        # one period of the pattern: half masks without bit p, half with it
        unit = bytes([(0x55, 0x33, 0x0F)[p]]) if half < 8 else b"\xff" * (half // 8) + bytes(half // 8)
        periods = -(-width // (8 * len(unit)))
        sets.append(int.from_bytes(unit * periods, "little") & (1 << width) - 1)
    return tuple(sets)


@lru_cache(maxsize=None)
def cardinality_layers(n: int) -> tuple[int, ...]:
    """Entry k is the set of masks over n bits with exactly k elements."""
    counts = popcounts(n)[::-1]
    layers = []
    for k in range(n + 1):
        digits = bytearray(b"0" * 256)
        digits[k] = ord("1")
        layers.append(int(counts.translate(digits), 2))
    return tuple(layers)


def first_by_cardinality(n: int, members: int):
    """Smallest mask of a bit set in (cardinality, mask) order, or None."""
    if members:
        for layer in cardinality_layers(n):
            hit = members & layer
            if hit:
                return (hit & -hit).bit_length() - 1
    return None


# Step relations: conditions on the single-element step
# d = values[A | 1 << p] - values[A]. Each is a function of the two planes of
# the step code (see step_sets) that builds the relation's sets by C-level
# maps. The step code holds the class of each step d in two bits: the low
# bit when d = 0 or d > 1, the high bit when d >= 1. A decrease has neither
# bit, a flat step the low bit alone, a unit step the high bit alone and a
# jump both.

DECREASE = lambda low, high: map(invert, map(or_, low, high))  # d < 0
FLAT = lambda low, high: map(and_, low, map(invert, high))  # d = 0
UNIT = lambda low, high: map(and_, high, map(invert, low))  # d = 1
JUMP = lambda low, high: map(and_, low, high)  # d > 1

# Largest spread high - low of a packed view; see TableView and step_sets.
MAX_PACKED_SPREAD = 127


class TableView:
    """A value sequence as the kernel reads it (see the comment at the top of
    the kernel): ``low`` = min(min(values), 0), ``high`` = max(values) (the
    ASCII bound 127 for a corpus of ASCII bytes), and ``offsets``, the bytes
    v - low, one per value, or None when high - low > MAX_PACKED_SPREAD.
    The offsets are packed on their first read, unless given. ``_steps``,
    set by the first step_sets call on the view of one table, is the step
    code of each element, both planes of it in one int (see step_sets)."""

    __slots__ = ("values", "low", "high", "_offsets", "_steps")

    def __init__(self, values, low: int, high: int, offsets=None):
        self.values, self.low, self.high = values, low if low < 0 else 0, high
        if offsets is not None:
            self._offsets = offsets

    @property
    def offsets(self):
        try:
            return self._offsets
        except AttributeError:
            self._offsets = _pack(self.values, self.low, self.high)
            return self._offsets


def _pack(values, low: int, high: int):
    """The bytes v - low of values within low..high, with low <= 0; None
    when high - low > MAX_PACKED_SPREAD."""
    if high - low > MAX_PACKED_SPREAD:
        return None
    return bytes(values) if low == 0 else bytes(map(add, values, repeat(-low)))


def _view_of(values) -> TableView:
    """The view of the kernel argument ``values``: a table's view as it is,
    ASCII bytes as their own offsets, and any other values in a new view."""
    if type(values) is TableView:
        return values
    # min and max of a long bytes run cost more than the packed pass itself
    if isinstance(values, bytes) and values.isascii():
        return TableView(values, 0, MAX_PACKED_SPREAD, values)
    return TableView(values, min(values), max(values))


def failing_blocks(n: int, members: int, blocks: int) -> int:
    """The set of blocks b whose block of 2**n masks meets the bit set
    ``members`` over ``blocks`` consecutive blocks; 0 for no blocks. Bits
    past the last block are ignored."""
    members &= (1 << (blocks << n)) - 1
    for k in range(n):
        members |= members >> (1 << k)
    # bit b * 2**n now says whether block b meets the set; the big-endian
    # digits list those bits from the last block to the first
    size = 1 << n
    return int(format(members, f"0{blocks << n}b")[size - 1 :: size] or "0", 2)


def step_sets(n: int, values, *relations, blocks: int = 1) -> list[list[int]]:
    """Entry i, p is the set of masks A without bit p whose step
    d = values[A | 1 << p] - values[A] satisfies relations[i], one of
    DECREASE, FLAT, UNIT and JUMP.

    ``values`` is a table's view (see TableView) or raw values; with
    ``blocks`` > 1 they are that many tables of 2**n entries laid end to
    end, and mask b * 2**n + A is mask A of table b. Every call reads the
    step code of each element p (see _step_code): the set of masks A
    without p whose step has the low bit, or'ed with the set of A | p for
    the A whose step has the high bit. Each relation is built from the two
    planes by C-level bit operations as new ints. The view of one table
    keeps its code from its first call, so one scan serves every relation
    of every call; raw values and corpora are scanned on every call.
    """
    if blocks == 1 and type(values) is TableView:
        try:
            code = values._steps
        except AttributeError:
            code = values._steps = _step_code(n, values)
    else:
        code = _step_code(n, _view_of(values), blocks)
    avoid, found = avoid_sets(n, blocks), []
    for relation in relations:
        # the high plane of element p is its code moved back by 2**p
        high = map(rshift, code, map(lshift, repeat(1), range(n)))
        found.append(list(map(and_, avoid, relation(code, high))))
    return found


# 2**49 + 2**42 + ... + 2**0: times flags at bit 7 of the bytes of a 64-bit
# word, it puts the flag of byte k at bit k of the word's top byte
_GATHER = sum(1 << 7 * k for k in range(8))


def _step_code(n: int, view: TableView, blocks: int = 1) -> list[int]:
    """The step code of each element (see step_sets) of ``blocks`` tables
    laid end to end. A mask without bit p steps to a mask of its own block,
    so each plane only repeats the masks without p once per block.

    A packed view's offsets, the bytes v - low, one per mask, are read as
    the int X. For element p, D = (X >> 8 * 2**p) + 0x8080...80 - X then
    holds d + 128 in byte A: every byte of the sum is in 128..255 and every
    byte of X in 0..127, so nothing carries or borrows across bytes. Both
    bits of all the bytes are read at once: bit 7 says d >= 0; with bit 7
    cleared and 0x7F added, bit 7 says d >= 1; and with that bit 7 cleared
    and 0x7F added again, d >= 2; nothing carries across bytes. The low bits
    at the bytes A without p and the high bits, moved up 2**p bytes, at the
    bytes A | p make one int, and one multiplication by _GATHER moves bit 7
    of the 8 bytes of each 64-bit word into its top byte, every product
    term on a bit of its own: those top bytes are the code. The last word
    may be short, as for fewer than 8 masks in all: its missing bytes are
    zero. The map path reads the low bit as d ^ 1 > 0, with two ``map``
    passes in C per element.
    """
    width, values, offsets = blocks << n, view.values, view.offsets
    code = []
    if offsets is None:
        for p, avoid in enumerate(avoid_sets(n, blocks)):
            upper = values[1 << p :]
            low = bitset(map((0).__lt__, map((1).__xor__, map(sub, upper, values))))
            high = bitset(map((0).__lt__, map(sub, upper, values)))
            code.append(low & avoid | (high & avoid) << (1 << p))
        return code
    words = -(-width // 8)
    packed = int.from_bytes(offsets, "little")
    sign, seven = (int.from_bytes(byte * width, "little") for byte in (b"\x80", b"\x7f"))
    biased = sign - packed
    for p in range(n):
        # each temporary is a width-byte int: the passes run in place and
        # drop each one after its last use, which bounds the peak memory
        shift = 8 << p
        steps = packed >> shift
        steps += biased
        nonnegative = steps & sign
        steps ^= nonnegative
        steps += seven
        high = nonnegative & steps
        # low = nonnegative ^ high ^ (high & (steps & seven) + seven)
        steps &= seven
        steps += seven
        steps &= high
        steps ^= high
        steps ^= nonnegative
        low = steps
        del steps, nonnegative
        # 0xFF at the bytes of the masks without p, doubled up to width
        avoid, period = (1 << shift) - 1, 2 << p
        while period < width:
            avoid |= avoid << 8 * period
            period *= 2
        low &= avoid
        high &= avoid
        del avoid
        high <<= shift
        low |= high
        del high
        low *= _GATHER
        bits = low.to_bytes(8 * words + 8, "little")
        del low
        code.append(int.from_bytes(bits[7 : 8 * words : 8], "little"))
        del bits
    return code


def subset_max(n: int, data: bytes, blocks: int = 1) -> bytes:
    """Byte B is the largest byte A over the subsets A of B, for 2**n bytes
    each in 0..127: the zeta transform over the subset lattice with max for
    sum (Yates, 1937), n passes of the biased subtraction of _step_code, each
    taking the larger of bytes A and A | 1 << p into byte A | 1 << p.
    ``blocks`` as in step_sets: each block of 2**n bytes is read alone."""
    width = blocks << n
    x = int.from_bytes(data, "little")
    bias = int.from_bytes(b"\x80" * width, "little")
    for p, avoid in enumerate(avoid_sets(n, blocks)):
        keep, s = _spread(width, avoid), 8 << p
        lower, upper = x & keep * 255, x >> s & keep * 255
        # byte A is 128 + upper - lower, with bit 7 set iff upper >= lower
        lower_wins = keep & ~(((upper | bias) - lower) >> 7)
        x ^= ((upper ^ lower) & lower_wins * 255) << s
    return x.to_bytes(width, "little")


# The bounds of ``exceeding``: 0, |A|, and the value r(S) of the full set of
# the block of A.
NEGATIVE, SIZE, FULL = "negative", "size", "full"

# The translate table of a biased byte to the digit "1" below 128, "0" above
_BELOW = b"1" * 128 + b"0" * 128


def exceeding(n: int, values, bound: str, blocks: int = 1) -> int:
    """The set of masks A whose value breaks the bound: values[A] < 0 for
    NEGATIVE, values[A] > |A| for SIZE and values[A] > r(S) for FULL;
    ``blocks`` as in step_sets. This is the one reader of the three bounds,
    for one table as for a corpus.

    The packed path is the biased subtraction of _step_code with the bound
    in place of the shifted table, so that byte A holds bound - v + 128
    (v + 128 for NEGATIVE), and a byte below 128 marks a break. It reads the
    view's offsets v - low when n - low <= MAX_PACKED_SPREAD, so that
    |A| - low packs too.
    Values that are all nonnegative (low = 0) break NEGATIVE nowhere, which
    costs no pass.
    """
    size, width = 1 << n, blocks << n
    view = _view_of(values)
    values, low = view.values, view.low
    if bound == NEGATIVE and low == 0:
        return 0
    offsets = None if n - low > MAX_PACKED_SPREAD else view.offsets
    if offsets is None:
        if bound == NEGATIVE:
            return bitset(map((0).__gt__, values))
        tops = chain.from_iterable(map(repeat, values[size - 1 :: size], repeat(size)))
        return bitset(map(gt, values, popcounts(n) * blocks if bound == SIZE else tops))
    packed = int.from_bytes(offsets, "little")
    ones = int.from_bytes(b"\1" * width, "little")
    if bound == NEGATIVE:
        steps = packed + (128 + low) * ones
    elif bound == SIZE:
        steps = int.from_bytes(popcounts(n) * blocks, "little") + (128 - low) * ones - packed
    else:
        # the last byte of each block, moved to the block's first byte,
        # raised by 128 and copied into all 2**n bytes of the block
        firsts = int.from_bytes((b"\1" + bytes(size - 1)) * blocks, "little")
        tops = (packed >> 8 * (size - 1) & 0xFF * firsts) + 128 * firsts
        steps = tops * int.from_bytes(b"\1" * size, "little") - packed
    digits = steps.to_bytes(width, "big").translate(_BELOW)
    # a bound that holds everywhere, as it mostly does, costs no parse
    return int(digits, 2) if b"1" in digits else 0


def feasible_flags(n: int, values, blocks: int = 1) -> bytes:
    """Byte A is 1 iff A is feasible, values[A] = |A|; ``values`` and
    ``blocks`` as in step_sets. A packed view is compared with the bytes
    |A| - low in one XOR, whose zero bytes mark the feasible sets."""
    view = _view_of(values)
    low = view.low
    offsets = None if n - low > MAX_PACKED_SPREAD else view.offsets
    sizes = popcounts(n) * blocks
    if offsets is None:
        return bytes(map(eq, view.values, sizes))
    if low:
        sizes = sizes.translate(_shifted(-low))
    diff = int.from_bytes(offsets, "little") ^ int.from_bytes(sizes, "little")
    return diff.to_bytes(blocks << n, "little").translate(_ZERO_FLAGS)


def first_step(n: int, sets):
    """First (A, p) in (cardinality, mask, p) order with A in sets[p]."""
    mask = first_by_cardinality(n, reduce(or_, sets, 0))
    if mask is None:
        return None
    return mask, next(p for p, s in enumerate(sets) if s >> mask & 1)


@dataclass(frozen=True)
class GroundSet:
    """An ordered sequence of distinct element labels.

    Label order is fixed at construction and defines bit positions for
    subset masks.
    """

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > MAX_GROUND_SIZE:
            raise GroundSetError(
                f"ground set has {len(labels)} elements; explicit tables are "
                f"capped at {MAX_GROUND_SIZE}"
            )
        index = {}
        for pos, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise GroundSetError(f"labels must be non-empty strings, got {label!r}")
            if label in index:
                raise GroundSetError(f"duplicate label {label!r}")
            index[label] = pos
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, 2**n."""
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GroundSetError(f"unknown label {label!r}") from None

    def subset(self, labels: Iterable[str] = ()) -> SubsetRef:
        mask = 0
        for label in labels:
            bit = 1 << self.position(label)
            if mask & bit:
                raise GroundSetError(f"label {label!r} listed twice in subset")
            mask |= bit
        return SubsetRef(self, mask)

    def subset_from_mask(self, mask: int) -> SubsetRef:
        return SubsetRef(self, mask)

    def empty(self) -> SubsetRef:
        return SubsetRef(self, 0)

    def full(self) -> SubsetRef:
        return SubsetRef(self, self.full_mask)

    def subsets(self) -> Iterator[SubsetRef]:
        """All 2**n subsets in increasing mask order, each exactly once."""
        for mask in range(self.size):
            yield SubsetRef(self, mask)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SubsetRef(object):
    """A subset of a specific ground set, stored as an n-bit mask."""

    ground: GroundSet
    bits: int

    def __post_init__(self):
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise GroundSetError(f"mask must be an integer, got {self.bits!r}")
        if not 0 <= self.bits <= self.ground.full_mask:
            raise GroundSetError(
                f"mask {self.bits:#x} has bits outside the {self.ground.n}-element ground set"
            )

    def _check_same_ground(self, other: SubsetRef) -> None:
        if self.ground != other.ground:
            raise GroundSetError("subsets belong to different ground sets")

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for pos, label in enumerate(self.ground.labels) if self.bits >> pos & 1
        )

    def complement(self) -> SubsetRef:
        return SubsetRef(self.ground, self.ground.full_mask ^ self.bits)

    def union(self, other: SubsetRef) -> SubsetRef:
        self._check_same_ground(other)
        return SubsetRef(self.ground, self.bits | other.bits)

    def intersection(self, other: SubsetRef) -> SubsetRef:
        self._check_same_ground(other)
        return SubsetRef(self.ground, self.bits & other.bits)

    def difference(self, other: SubsetRef) -> SubsetRef:
        self._check_same_ground(other)
        return SubsetRef(self.ground, self.bits & ~other.bits)

    def issubset(self, other: SubsetRef) -> bool:
        self._check_same_ground(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: SubsetRef) -> bool:
        self._check_same_ground(other)
        return self.bits & other.bits == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement
    __le__ = issubset

    def __contains__(self, label: str) -> bool:
        return self.bits >> self.ground.position(label) & 1 == 1

    def __len__(self) -> int:
        return self.cardinality

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


class _KernelViewSlot:
    """The slot in which a RankTable keeps its kernel view. It is no
    dataclass field, so that fields(), asdict, equality, hashing, repr and
    pickling see the ground set and the values alone."""

    __slots__ = ("_view",)


@dataclass(frozen=True, slots=True)
class RankTable(_KernelViewSlot):
    """A total integer-valued function on all subsets of a ground set.

    ``values[mask]`` is the rank of the subset encoded by ``mask``. Ranks are
    arbitrary signed integers; in particular negative ranks are legal.

    A table also keeps the view that the bit-set kernel reads (see
    TableView), made at most once per table: by the checked constructor,
    by ``ops.dual``, the minors and the structure constructors, or on the
    first kernel read of a ``_trusted`` table.
    It is no field: equality, hashing, ``repr`` and pickling ignore it, and
    a copy makes its own on its first read.
    """

    ground: GroundSet
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.ground.size:
            raise TableBuildError(
                f"expected {self.ground.size} rank entries, got {len(self.values)}"
            )
        values = self.values
        # the checks run in C; only a failing table is walked again in Python,
        # so that the error names the first bad mask
        if set(map(type, values)) <= {int}:
            low, high = min(values), max(values)
            if -MAX_RANK_MAGNITUDE <= low and high <= MAX_RANK_MAGNITUDE:
                object.__setattr__(self, "_view", TableView(values, low, high))
                return
        for mask, v in enumerate(values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TableBuildError(f"rank of mask {mask} is not an integer: {v!r}")
            if abs(v) > MAX_RANK_MAGNITUDE:
                raise TableBuildError(f"rank {v} exceeds the magnitude bound")

    @classmethod
    def _trusted(cls, ground: GroundSet, values: tuple) -> RankTable:
        """A table built without ``__post_init__``'s checks, for values the
        library generated itself. The caller guarantees that ``values`` is a
        tuple of exactly ``ground.size`` ints (no bools), each at most
        MAX_RANK_MAGNITUDE in absolute value; anything else makes a table
        that the checked constructor would have refused. Its view is made
        on its first kernel read."""
        table = object.__new__(cls)
        object.__setattr__(table, "ground", ground)
        object.__setattr__(table, "values", values)
        return table

    @classmethod
    def _from_view(cls, ground: GroundSet, view: TableView) -> RankTable:
        """A ``_trusted`` table of view.values that keeps ``view``."""
        table = cls._trusted(ground, view.values)
        object.__setattr__(table, "_view", view)
        return table

    @classmethod
    def _from_bytes(cls, ground: GroundSet, ranks: bytes, high: int) -> RankTable:
        """A ``_trusted`` table of ranks computed as bytes, all in 0..high
        with high <= MAX_PACKED_SPREAD: the bytes are their own offsets, so
        the table takes no constructor scan and no second pack."""
        return cls._from_view(ground, TableView(tuple(ranks), 0, high, ranks))

    def _kernel_view(self) -> TableView:
        """The table's view, which a ``_trusted`` table makes on its first
        read."""
        view = getattr(self, "_view", None)
        if view is None:
            view = _view_of(self.values)
            object.__setattr__(self, "_view", view)
        return view

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def full_rank(self) -> int:
        """Rank of the whole ground set."""
        return self.values[self.ground.full_mask]

    def rank(self, subset) -> int:
        """Rank of a subset given as a SubsetRef, a mask, or label iterable."""
        if isinstance(subset, SubsetRef):
            if subset.ground != self.ground:
                raise GroundSetError("subset belongs to a different ground set")
            return self.values[subset.bits]
        # anything but a label iterable is a mask, which SubsetRef checks
        if isinstance(subset, int) or not isinstance(subset, Iterable):
            return self.values[SubsetRef(self.ground, subset).bits]
        return self.values[self.ground.subset(subset).bits]

    def subsets(self) -> Iterator[SubsetRef]:
        return self.ground.subsets()

    def is_normalized(self) -> bool:
        return self.values[0] == 0


def table_from_values(ground: GroundSet, values: Sequence[int]) -> RankTable:
    """Build a table directly from 2**n values in mask order."""
    return RankTable(ground, tuple(values))


def build_rank_table(ground: GroundSet, entries) -> RankTable:
    """Build a table from (subset, rank) pairs covering all 2**n subsets.

    Each subset may be a SubsetRef over ``ground`` or an iterable of labels.
    Every subset must appear exactly once; anything missing, duplicated, or
    referring to an unknown label is a hard error.
    """
    by_mask: dict = {}
    for subset, rank in entries:
        if isinstance(subset, SubsetRef):
            if subset.ground != ground:
                raise TableBuildError("entry subset belongs to a different ground set")
            mask = subset.bits
        else:
            mask = ground.subset(subset).bits
        if mask in by_mask:
            raise TableBuildError(
                f"duplicate subset entry {SubsetRef(ground, mask)}"
            )
        by_mask[mask] = rank
    if len(by_mask) < ground.size:
        # probe from 0: a document with few entries must not cost 2**n memory
        missing = next(mask for mask in count() if mask not in by_mask)
        raise TableBuildError(f"missing subset entry {SubsetRef(ground, missing)}")
    return RankTable(ground, tuple(map(by_mask.__getitem__, range(ground.size))))


@dataclass(frozen=True)
class ValidationReport:
    """Structural flags of a rank table, with witnesses for false flags.

    ``normalized`` records r(empty) = 0. Each of the four named flags carries
    a witness exactly when it is false: a single subset for subcardinal,
    nonnegative, and rank_s_maximum, and a pair (A, B) with A contained in B
    for monotone.
    """

    normalized: bool
    subcardinal: bool
    nonnegative: bool
    monotone: bool
    rank_s_maximum: bool
    witnesses: dict

    def flag(self, name: str) -> bool:
        return getattr(self, name.replace("-", "_"))


def validate(table: RankTable) -> ValidationReport:
    """Report normalization, subcardinality, nonnegativity, monotonicity,
    and the rank-of-S-maximum property.

    Witnesses are the smallest violations in (cardinality, mask) order.
    """
    view = table._kernel_view()
    n = table.n
    ground = table.ground

    flags = {}
    found = []
    for name, bound in (("subcardinal", SIZE), ("nonnegative", NEGATIVE), ("rank_s_maximum", FULL)):
        mask = first_by_cardinality(n, exceeding(n, view, bound))
        flags[name] = mask is None
        if mask is not None:
            found.append((mask, name))
    # witnesses keep the order in which a (cardinality, mask) scan meets them
    found.sort(key=lambda item: (item[0].bit_count(), item[0]))
    witnesses: dict = {name: SubsetRef(ground, mask) for mask, name in found}

    # A single-element violation exists iff any nested violation does.
    (decrease,) = step_sets(n, view, DECREASE)
    hit = first_step(n, decrease)
    if hit:
        mask, pos = hit
        witnesses["monotone"] = (SubsetRef(ground, mask), SubsetRef(ground, mask | 1 << pos))

    return ValidationReport(
        normalized=table.values[0] == 0,
        monotone=hit is None,
        witnesses=witnesses,
        **flags,
    )
