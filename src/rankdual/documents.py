"""JSON document formats for rank tables, rooted graphs, trees, and uniform
matroids.

One object per file, UTF-8. Subsets are written as arrays of labels so the
fixtures stay human-writable; a rank-table document must list every one of
the 2**n subsets exactly once.
"""

from __future__ import annotations

import json
import sys
from itertools import repeat
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
    'uniform', object). Parse errors carry line and column positions."""
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
_ENTRY = '    {{\n      "subset": [{}\n      ],\n      "rank": {}\n    }}'
_EMPTY_ENTRY = '    {{\n      "subset": [],\n      "rank": {}\n    }}'


def dump_rank_table(g: RankTable) -> str:
    """The table as an indent-2 rank-table document, subsets listed in
    (cardinality, mask) order and labels escaped as json.dumps does."""
    n, values = g.n, g.values
    order = by_cardinality(range(1 << n))
    labels = list(map(json.dumps, g.ground.labels))
    # bodies[m] lists the labels of mask m, one per line; doubling over the
    # labels appends label p to every mask below 1 << p
    bodies = [""]
    for label in labels:
        item = "\n        " + label
        bodies += [item, *map(str.__add__, bodies[1:], repeat("," + item))]
    ranks = map(int.__repr__, map(values.__getitem__, order))
    entries = list(map(_ENTRY.format, map(bodies.__getitem__, order), ranks))
    del bodies  # not needed for the join, which holds a second copy of the text
    ground = "[\n    " + ",\n    ".join(labels) + "\n  ]" if labels else "[]"
    # mask 0 comes first and is the only empty subset; the document's head
    # and tail go into the first and last entries, so one join builds it
    entries[0] = (
        '{\n  "kind": "rank-table",\n  "ground": ' + ground + ',\n  "ranks": [\n'
        + _EMPTY_ENTRY.format(int.__repr__(values[0]))
    )
    entries[-1] += "\n  ]\n}"
    return ",\n".join(entries)
