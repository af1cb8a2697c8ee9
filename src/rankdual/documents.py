"""JSON document formats for rank tables, rooted graphs, trees, and uniform
matroids.

One object per file, UTF-8. Subsets are written as arrays of labels so the
fixtures stay human-writable; a rank-table document must list every one of
the 2**n subsets exactly once.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import accumulate, chain, repeat
from math import comb
from operator import itemgetter

from .core import GroundSet, RankFunctionError, RankTable, build_rank_table, by_cardinality
from .structures import RootedGraph, Tree, uniform_matroid

KINDS = ("rank-table", "rooted-graph", "tree", "uniform")


class DocumentError(RankFunctionError):
    """Malformed input document."""


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def _string_list(raw, what: str) -> tuple:
    _require(isinstance(raw, list), f"{what} must be an array")
    for item in raw:
        _require(isinstance(item, str), f"{what} entries must be strings, got {item!r}")
    return tuple(raw)


def parse_document(text: str):
    """Parse a JSON document into ('rank-table' | 'rooted-graph' | 'tree' |
    'uniform', object). Parse errors carry line and column positions.

    A rank-table document in the writer's own layout is read without
    json.loads (_read_layout); any other text goes through json."""
    table = _read_layout(text)
    if table is not None:
        return "rank-table", table
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:
        # the decoder's only other ValueError is int's limit on digit strings
        raise DocumentError(
            f"invalid JSON: a number has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    _require(isinstance(raw, dict), "document must be a JSON object")
    kind = raw.get("kind")
    _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "rank-table":
        return kind, _parse_rank_table(raw)
    if kind == "rooted-graph":
        return kind, _parse_rooted_graph(raw)
    if kind == "tree":
        return kind, _parse_tree(raw)
    return kind, _parse_uniform(raw)


def load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DocumentError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
    try:
        return parse_document(text)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _parse_rank_table(raw: dict) -> RankTable:
    ground = GroundSet(_string_list(raw.get("ground"), "ground"))
    ranks = raw.get("ranks")
    values = _rank_values(ground, ranks)
    if values is None:
        return build_rank_table(ground, _rank_entries(ranks))
    return RankTable(ground, values)


def _rank_values(ground: GroundSet, ranks):
    """The values in mask order of a well-formed, complete ``ranks`` array,
    or None when any entry is malformed, missing or repeated.

    Every check is a C-level pass over the whole array, so a valid document
    runs no Python code per entry: the entry, subset and rank types are
    checked as sets of types, and each subset's mask is the sum of its
    labels' bits, looked up by label; a label that is not a string is never
    a ground label. A label listed twice in one subset carries into a higher
    bit, so that mask has fewer bits set than the subset has labels. Masks
    that are all in range and distinct, as many as there are subsets, cover
    each subset exactly once.
    """
    if type(ranks) is not list or not set(map(type, ranks)) <= {dict}:
        return None
    try:
        subsets = list(map(itemgetter("subset"), ranks))
        values = list(map(itemgetter("rank"), ranks))
    except KeyError:
        return None
    if not (set(map(type, subsets)) <= {list} and set(map(type, values)) <= {int}):
        return None
    bits = {label: 1 << pos for pos, label in enumerate(ground.labels)}
    try:
        masks = list(map(sum, map(map, repeat(bits.__getitem__), subsets)))
    except (KeyError, TypeError):  # an unknown label, or one that is not hashable
        return None
    if len(masks) != ground.size or any(
        map(int.__ne__, map(int.bit_count, masks), map(len, subsets))
    ):
        return None
    lookup = dict(zip(masks, values))
    if len(lookup) != ground.size:
        return None
    return tuple(map(lookup.__getitem__, range(ground.size)))


def _rank_entries(ranks) -> list:
    """(labels, rank) pairs of a ``ranks`` array, checked entry by entry so
    that the error names the first malformed entry."""
    _require(isinstance(ranks, list), "ranks must be an array of {subset, rank} objects")
    entries = []
    for pos, item in enumerate(ranks):
        _require(isinstance(item, dict), f"ranks[{pos}] must be an object")
        _require("subset" in item and "rank" in item, f"ranks[{pos}] needs 'subset' and 'rank'")
        labels = _string_list(item["subset"], f"ranks[{pos}].subset")
        _require(len(set(labels)) == len(labels), f"ranks[{pos}].subset has duplicate labels")
        rank = item["rank"]
        _require(
            isinstance(rank, int) and not isinstance(rank, bool),
            f"ranks[{pos}].rank must be an integer, got {rank!r}",
        )
        entries.append((labels, rank))
    return entries


def _parse_edges(raw, what: str) -> tuple:
    _require(isinstance(raw, list), f"{what} must be an array")
    edges = []
    for pos, item in enumerate(raw):
        _require(isinstance(item, dict), f"{what}[{pos}] must be an object")
        _require(
            "label" in item and "ends" in item,
            f"{what}[{pos}] needs 'label' and 'ends'",
        )
        label = item["label"]
        _require(isinstance(label, str), f"{what}[{pos}].label must be a string")
        ends = _string_list(item["ends"], f"{what}[{pos}].ends")
        _require(len(ends) == 2, f"{what}[{pos}].ends must list exactly two vertices")
        edges.append((label, ends[0], ends[1]))
    return tuple(edges)


def _parse_rooted_graph(raw: dict) -> RootedGraph:
    vertices = _string_list(raw.get("vertices"), "vertices")
    root = raw.get("root")
    _require(isinstance(root, str), "root must be a string")
    return RootedGraph(vertices, root, _parse_edges(raw.get("edges"), "edges"))


def _parse_tree(raw: dict) -> Tree:
    vertices = _string_list(raw.get("vertices"), "vertices")
    return Tree(vertices, _parse_edges(raw.get("edges"), "edges"))


def _parse_uniform(raw: dict) -> RankTable:
    labels = _string_list(raw.get("labels"), "labels")
    k = raw.get("k")
    _require(isinstance(k, int) and not isinstance(k, bool), "k must be an integer")
    return uniform_matroid(labels, k)


# The writer's layout is that of json.dumps(document, indent=2) for the
# document {"kind", "ground", "ranks": [{"subset", "rank"}, ...]} with the
# subsets in (cardinality, mask) order; it is produced here as text, because
# json.dumps with an indent runs its pure-Python encoder once per value.
# Each mask is split into a low half of low_n bits and a high half h: in
# (cardinality, mask) order the masks of one cardinality come in runs that
# share h, and each run lists its low halves in (cardinality, mask) order
# over low_n bits (_runs). So every subset's text is the text of its low
# half, read from a table of 2**low_n bodies, and that of its high half,
# which the run's fixed piece after the body carries.
_HEAD = '{\n  "kind": "rank-table",\n  "ground": '
_FIRST = ',\n  "ranks": [\n    {\n      "subset": [],\n      "rank": '
_NEXT = '\n    },\n    {\n      "subset": ['
_RANK = '\n      ],\n      "rank": '
_TAIL = '\n    }\n  ]\n}'


def _runs(n: int):
    """(low_n, low, runs): the low halves over low_n bits in (cardinality,
    mask) order, and the runs (h, a, b) of all masks over n bits in that
    order, each the masks h << low_n | l for l in low[a:b]."""
    low_n = (n + 1) // 2
    low = by_cardinality(range(1 << low_n))
    starts = [0, *accumulate(map(comb, repeat(low_n), range(low_n + 1)))]
    high_counts = [h.bit_count() for h in range(1 << (n - low_n))]
    runs = [(h, starts[k - c], starts[k - c + 1])
            for k in range(n + 1) for h, c in enumerate(high_counts) if 0 <= k - c <= low_n]
    return low_n, low, runs


def _items(labels) -> list[str]:
    """Entry m is ',\\n        label' for each label of mask m, in order."""
    items = [""]
    for label in labels:
        item = ",\n        " + label
        items += list(map(str.__add__, items, repeat(item)))
    return items


def _rank_texts(g: RankTable) -> list[str]:
    """The rank strings of g in mask order; a packed table reads them from
    the strings of its low..high."""
    view = g._kernel_view()
    if view.offsets is None:
        return list(map(int.__repr__, g.values))
    return list(map(list(map(str, range(view.low, view.high + 1))).__getitem__, view.offsets))


def _chunks(g: RankTable):
    """The writer's text of g as lists of pieces, one list per run of
    subsets (see _runs) after the head: a run of c subsets is the
    interleaving of c bodies and c rank strings with fixed pieces."""
    n = g.n
    labels = list(map(json.dumps, g.ground.labels))
    texts = _rank_texts(g)
    ground = "[\n    " + ",\n    ".join(labels) + "\n  ]" if labels else "[]"
    yield [_HEAD, ground, _FIRST, texts[0]]
    low_n, low, runs = _runs(n)
    bodies = [items[1:] for items in map(_items(labels[:low_n]).__getitem__, low)]
    # with an empty low half the high half's items open the body
    highs = [(items[1:] + _RANK, items + _RANK) for items in _items(labels[low_n:])]
    for h, a, b in runs[1:]:  # the first run is mask 0, in the head
        block = texts[h << low_n : (h + 1) << low_n]
        pieces = [_NEXT, None, highs[h][a > 0], None] * (b - a)
        pieces[1::4] = bodies[a:b]
        pieces[3::4] = map(block.__getitem__, low[a:b])
        yield pieces
    yield [_TAIL]


def dump_rank_table(g: RankTable) -> str:
    """The table as an indent-2 rank-table document, subsets listed in
    (cardinality, mask) order and labels escaped as json.dumps does."""
    return "".join(chain.from_iterable(_chunks(g)))


def _read_layout(text: str):
    """The table of a document in the writer's layout, or None.

    Only the ground array is parsed with json; the 2**n ranks are taken by
    one regex scan in (cardinality, mask) order and the table is built with
    the checked constructor. It is returned only if the writer's text of
    that table equals the input, chunk by chunk, up to trailing JSON
    whitespace: equal text parses to equal data, so json.loads would give
    the same table. Any failure returns None, and the caller's json path
    reads the text again, with its own errors."""
    if not text.startswith(_HEAD):
        return None
    end = text.find(_FIRST, len(_HEAD))
    if end < 0:
        return None
    try:
        ground = GroundSet(_string_list(json.loads(text[len(_HEAD) : end]), "ground"))
        values = list(map(int, re.compile(r'"rank": (-?[0-9]+)\n').findall(text, end)))
    except (ValueError, RecursionError, RankFunctionError):  # ValueError: bad JSON, int's digit limit
        return None
    if len(values) != ground.size:
        return None
    # values[i] is the rank of the i-th mask in (cardinality, mask) order;
    # gather each high half's ranks in the low halves' order, then mask order
    low_n, low, runs = _runs(ground.n)
    blocks = [[] for _ in range(1 << (ground.n - low_n))]
    pos = 0
    for h, a, b in runs:
        blocks[h] += values[pos : pos + b - a]
        pos += b - a
    inverse = sorted(range(len(low)), key=low.__getitem__)
    values = tuple(chain.from_iterable(map(block.__getitem__, inverse) for block in blocks))
    try:
        table = RankTable(ground, values)
    except RankFunctionError:
        return None
    pos = 0
    for pieces in _chunks(table):
        chunk = "".join(pieces)
        if not text.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return table if not text[pos:].strip(" \t\n\r") else None
