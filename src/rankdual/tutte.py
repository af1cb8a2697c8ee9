"""Sparse two-variable Laurent polynomials and the corank-nullity polynomial.

The polynomial of a table g is sum over subsets A of t**(r(S)-r(A)) *
z**(|A|-r(A)). Exponents may be negative for badly behaved tables, so terms
live in Z[t, 1/t, z, 1/z] with exact integer coefficients.

Two evaluations are offered: the subset expansion, and the
deletion-contraction recursion evaluated level by level, whose result is the
sum of the path monomials of its recursion tree. For a packed table of at
least ``ops.PACKED_PASS_SIZE`` subsets both read the table's offsets (see
``core.TableView``): the exponents are biased bytes, one per subset or per
node of a level, made by whole-int passes. In both, the z byte of a subset
A exceeds its t byte by |A|, so the pair is fixed by the t byte and |A|:
where those fit one byte for every A other than the empty set and S, one
Counter over one-byte keys sums the monomials, and otherwise one Counter
over the interleaved byte pairs (_monomial_counts). Any other table is read
value by value, with two int lists per level in the recursion.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import chain, islice, repeat
from operator import add, sub
from typing import Callable, Mapping

from .core import NormalizationError, RankFunctionError, RankTable, popcounts
from .ops import _expansion, _packed_view


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checked_term(key, c) -> tuple[int, int]:
    """The exponent pair of a term that is not all plain ints: int
    subclasses other than bool pass, as ints; anything else raises."""
    if not _is_int(c):
        raise RankFunctionError(f"non-integer coefficient {c!r}")
    if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))):
        raise RankFunctionError(f"non-integer exponent pair {key!r}")
    return (int(key[0]), int(key[1]))


class LaurentPoly2:
    """Sparse polynomial in t and z with integer coefficients and integer
    (possibly negative) exponents. Immutable; zero coefficients are never
    stored, so equality is term-map equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        cleaned: dict[tuple[int, int], int] = {}
        if terms:
            for key, c in terms.items():
                # the common case, plain ints, is screened without calls
                if not (type(key) is tuple and len(key) == 2
                        and type(key[0]) is type(key[1]) is type(c) is int):
                    key = _checked_term(key, c)
                if c != 0:
                    cleaned[key] = c
        self._terms = cleaned

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, t_exp: int, z_exp: int, coeff: int = 1) -> "LaurentPoly2":
        return cls({(t_exp, z_exp): coeff})

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            s = acc.get(key, 0) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = acc
        return out

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                s = acc.get(key, 0) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = acc
        return out

    __rmul__ = __mul__

    def shift(self, dt: int, dz: int) -> "LaurentPoly2":
        """Multiply by the monomial t**dt * z**dz."""
        if dt == 0 and dz == 0:
            return self
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._terms = {(i + dt, j + dz): c for (i, j), c in self._terms.items()}
        return out

    def min_exponents(self) -> tuple[int, int]:
        """Smallest t and z exponents; (0, 0) for the zero polynomial."""
        if not self._terms:
            return (0, 0)
        return (
            min(i for i, _ in self._terms),
            min(j for _, j in self._terms),
        )

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms sorted by t exponent descending, then z exponent descending."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (i, j), c in self.sorted_terms():
            parts = []
            if abs(c) != 1 or (i == 0 and j == 0):
                parts.append(str(abs(c)))
            if i != 0:
                parts.append("t" if i == 1 else f"t^{i}")
            if j != 0:
                parts.append("z" if j == 1 else f"z^{j}")
            body = "*".join(parts)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly2({self._terms!r})"


def _pair_counts(ts: bytes, zs: bytes, t_bias: int, z_bias: int) -> LaurentPoly2:
    """The sum over i of t**(ts[i] - t_bias) * z**(zs[i] - z_bias).

    The two byte strings are interleaved, so that each (t, z) pair is one
    16-bit unit of a memoryview, and one Counter counts the units; only the
    distinct pairs are decoded. This serves the tables whose pairs do not
    fit the one-byte keys of _monomial_counts, which count about twice as
    fast: a Counter makes a new int object for each key above 256, and
    CPython keeps the ints 0..256 cached."""
    pairs = bytearray(2 * len(ts))
    pairs[0::2] = ts
    pairs[1::2] = zs
    counts = Counter(memoryview(pairs).cast("H"))
    # a unit reads its two bytes in the host's byte order: the t byte, first
    # in memory, is the low byte of the key on a little-endian host and the
    # high byte on a big-endian one
    t_shift, z_shift = (0, 8) if sys.byteorder == "little" else (8, 0)
    return LaurentPoly2(
        {((key >> t_shift & 255) - t_bias, (key >> z_shift & 255) - z_bias): c for key, c in counts.items()}
    )


def _monomial_counts(ts: int, sizes: bytes, n: int, spread: int, t_bias: int, z_bias: int) -> LaurentPoly2:
    """The sum over the masks A over n bits of
    t**(T[A] - t_bias) * z**(T[A] + sizes[A] - z_bias), for the bytes T[A]
    of the int ``ts``, each in 0..spread, and the bytes ``sizes``, |A| for
    every A, with n >= 1.

    Every A other than the empty set (byte 0) and S (the last byte) has
    1 <= |A| <= n - 1, so its monomial is fixed by the key
    T[A] + (spread + 1) * (|A| - 1), at most (spread + 1) * (n - 1) - 1.
    When that fits one byte, the sizes, translated to
    (|A| - 1) * (spread + 1), and to 0 for the sizes 0 and n, are added to
    ``ts`` as one int, so no byte carries into the next; one Counter counts
    the keys of the inner masks, at most 256 distinct ones are decoded, and
    the monomials of the two ends are added by hand. Wider keys take the
    (t, z) byte pairs of _pair_counts, the z bytes T[A] + |A| made by one
    more int pass: each at most 127 + 24 = 151, so none carries either."""
    width, size = spread + 1, len(sizes)
    if width * (n - 1) > 256:
        zs = ts + int.from_bytes(sizes, "little")
        return _pair_counts(ts.to_bytes(size, "little"), zs.to_bytes(size, "little"), t_bias, z_bias)
    scale = b"\0" + bytes(range(0, (n - 1) * width, width)) + bytes(256 - n)
    keys = (ts + int.from_bytes(sizes.translate(scale), "little")).to_bytes(size, "little")
    terms = {}
    for key, count in Counter(keys[1:-1]).items():
        above, t = divmod(key, width)
        terms[(t - t_bias, t + above + 1 - z_bias)] = count
    # the ends keep their t bytes as keys
    for end in (0, size - 1):
        term = (keys[end] - t_bias, keys[end] + sizes[end] - z_bias)
        terms[term] = terms.get(term, 0) + 1
    return LaurentPoly2(terms)


def tutte_subset(g: RankTable) -> LaurentPoly2:
    """Subset expansion: one monomial t**corank * z**nullity per subset.

    A packed table of at least PACKED_PASS_SIZE subsets gives its coranks
    as biased bytes, from one int pass over its offsets r(A) - low: byte A
    is corank + high - r(S) = spread - offset, in 0..spread, and the biased
    nullity nullity + high is |A| plus that byte, so the coranks and the
    cached popcounts give the monomials (_monomial_counts)."""
    view = _packed_view(g)
    if view is None:
        values = g.values
        coranks = map(sub, repeat(g.full_rank), values)
        nullities = map(sub, popcounts(g.n), values)
        return LaurentPoly2(Counter(zip(coranks, nullities)))
    spread = view.high - view.low
    corank = int.from_bytes(bytes([spread]) * len(view.offsets), "little") - int.from_bytes(view.offsets, "little")
    return _monomial_counts(corank, popcounts(g.n), g.n, spread, view.high - g.full_rank, view.high)


def _pivot_lowest(remaining: int) -> int:
    return (remaining & -remaining).bit_length() - 1


def _pivot_highest(remaining: int) -> int:
    return remaining.bit_length() - 1


#: Pivot strategies pick a bit position from the mask of remaining elements.
PIVOT_STRATEGIES: dict[str, Callable[[int], int]] = {
    "lowest": _pivot_lowest,
    "highest": _pivot_highest,
}


def _pivot_order(choose, n: int) -> list[int]:
    """The pivot of every level: the element chosen from the remaining set
    left by the pivots before it."""
    order = []
    remaining = (1 << n) - 1
    for _ in range(n):
        pos = choose(remaining)
        if not isinstance(pos, int) or not 0 <= pos < n or not remaining >> pos & 1:
            raise RankFunctionError("pivot strategy chose an element outside the ground set")
        order.append(pos)
        remaining ^= 1 << pos
    return order


def _renumbered(offsets: bytes, order: list[int]) -> bytes:
    """The offsets with old address bit order[k] moved to bit k, as
    bytes(map(offsets.__getitem__, _expansion(...))) gives them: one delta
    swap of the whole int per transposition of address bits, at most n - 1
    (Knuth, TAOCP Vol. 4A, 7.1.3). The swap of bits k < p trades the byte
    of each address with bit k set and bit p clear for the byte at that
    address plus 2**p - 2**k."""
    size = len(offsets)
    x = int.from_bytes(offsets, "little")
    at = list(range(len(order)))  # at[k]: the old address bit now at bit k
    for k, want in enumerate(order):
        p = at.index(want, k)
        if p == k:
            continue
        lo, hi = 1 << k, 1 << p
        # 0xff at the addresses with bit k set and bit p clear
        period = (bytes(lo) + b"\xff" * lo) * (hi // (2 * lo)) + bytes(hi)
        mask = int.from_bytes(period * (size // (2 * hi)), "little")
        delta = 8 * (hi - lo)
        t = (x ^ x >> delta) & mask
        x ^= t | t << delta
        at[k], at[p] = want, at[k]
    return x.to_bytes(size, "little")


def _packed_paths(offsets: bytes, n: int, t_root: int, z_root: int) -> tuple[int, int]:
    """The biased t and z exponents of the paths to the 2**n leaves of the
    recursion on a renumbered table's offsets O[A] = r(A) - low, as two ints
    of one byte per leaf each, leaf C at byte C (see tutte_recursive).

    Each level is one whole-int add and subtract over contiguous slices of
    the offsets. Every byte of a result lies in 0..255, so the int's bytes
    are the exponents themselves: no byte borrows from or carries into the
    next."""
    full = (1 << n) - 1
    ts, zs = t_root, z_root
    for k in range(n):
        nodes = 1 << k
        remaining = full ^ (nodes - 1)  # R_k = {b_k, ..., b_n-1}
        # delete child C: t += O[R_k + C] - O[R_k+1 + C]
        t_delete = (ts + int.from_bytes(offsets[remaining : remaining + nodes], "little")
                    - int.from_bytes(offsets[remaining - nodes : remaining], "little"))
        # contract child C | b_k: z += 1 - (O[nodes + C] - O[C])
        z_contract = (zs + int.from_bytes(b"\1" * nodes, "little") + int.from_bytes(offsets[:nodes], "little")
                      - int.from_bytes(offsets[nodes : 2 * nodes], "little"))
        # the delete children are the nodes C, the contract children C | b_k
        ts = t_delete | ts << 8 * nodes
        zs = zs | z_contract << 8 * nodes
    return ts, zs


def tutte_recursive(g: RankTable, pivot: str | Callable[[int], int] = "lowest") -> LaurentPoly2:
    """Deletion-contraction evaluation, level by level; the result is the sum
    of the path monomials of the recursion tree.

    A node with remaining ground R and contracted set C uses the rank
    rk(A) = r(A | C) - r(C) and splits on a pivot p:

        f = t**(rk(R) - rk(R - p)) * f(delete p) + z**(1 - rk(p)) * f(contract p)

    The base case is the empty ground set (value 1). Requires r(empty) = 0;
    the result equals tutte_subset(g) for every pivot strategy.

    The pivot depends on R alone, so every node at depth k splits on the same
    element b_k: ``pivot`` (a strategy name, or a callable from the mask of
    remaining elements to a bit position) is called n times, once per level,
    and each choice must be an int naming an element of R. The table is
    renumbered so that b_k is bit k; the nodes at depth k are then the
    contracted sets C = 0 .. 2**k - 1, and each level reads four contiguous
    runs of the table. Along a path, t = r(S) - r(C | R_k) and
    z = |C| - r(C); the levels add up those exponents step by step and the
    leaves' monomials are counted at the end.

    A packed table of at least PACKED_PASS_SIZE subsets keeps the exponents
    of each level as one byte per node, biased into 0..255: t + high - r(S),
    in 0..spread, and z + high, in 0..n + spread <= 151 (_packed_paths). At
    leaf C the z byte exceeds the t byte by |C|: z + high = |C| - r(C) + high
    and t + high - r(S) = high - r(C). So the leaves' own z bytes less their
    t bytes are the sizes that _monomial_counts reads, and the count still
    reads both exponents of the recursion. Any other table keeps the
    exponents as two int lists.
    """
    if g.values[0] != 0:
        raise NormalizationError("deletion-contraction recursion requires r(empty) = 0")
    if isinstance(pivot, str):
        try:
            choose = PIVOT_STRATEGIES[pivot]
        except KeyError:
            raise RankFunctionError(f"unknown pivot strategy {pivot!r}") from None
    else:
        choose = pivot
    n = g.n
    order = _pivot_order(choose, n)
    identity = order == list(range(n))

    view = _packed_view(g)
    if view is not None:
        offsets = view.offsets if identity else _renumbered(view.offsets, order)
        t_bias = view.high - g.full_rank
        ts, zs = _packed_paths(offsets, n, t_bias, view.high)
        sizes = (zs - ts).to_bytes(len(offsets), "little")
        return _monomial_counts(ts, sizes, n, view.high - view.low, t_bias, view.high)

    values = g.values
    if not identity:
        values = list(map(values.__getitem__, _expansion([1 << pos for pos in order])))
    full = (1 << n) - 1
    ts, zs = [0], [0]
    for k in range(n):
        nodes = 1 << k
        remaining = full ^ (nodes - 1)  # R_k = {b_k, ..., b_n-1}
        # delete child C: t += r(C | R_k) - r(C | R_k+1)
        deltas = map(sub, islice(values, remaining, None), islice(values, remaining ^ nodes, None))
        t_delete = map(add, ts, deltas)
        # contract child C | b_k: z += 1 - (r(C | b_k) - r(C))
        z_contract = map((1).__add__, map(add, zs, map(sub, values, islice(values, nodes, None))))
        if k == n - 1:
            # the children are the leaves: count their path monomials unstored
            return LaurentPoly2(Counter(chain(zip(t_delete, zs), zip(ts, z_contract))))
        ts = [*t_delete, *ts]
        zs += list(z_contract)
    return LaurentPoly2.one()  # the empty ground set


def swap_vars(p: LaurentPoly2) -> LaurentPoly2:
    """Exchange the two exponents of every term (t and z swap roles)."""
    return LaurentPoly2({(j, i): c for (i, j), c in p.terms.items()})
