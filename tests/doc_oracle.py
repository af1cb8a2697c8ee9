"""Per-entry reference reader and writer of rank-table documents.

``oracle_parse_rank_table`` checks a ``ranks`` array entry by entry and
fills a list of 2**n slots; ``oracle_dump_rank_table`` builds the document
as Python objects and encodes it with ``json.dumps(..., indent=2)``. The
library reads and writes the same documents in whole-array passes; the
tests require the same tables, the same errors and byte-identical text.
"""

import json

from rankdual import DocumentError, GroundSet, RankTable, SubsetRef, TableBuildError


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def _string_list(raw, what: str) -> tuple:
    _require(isinstance(raw, list), f"{what} must be an array")
    for item in raw:
        _require(isinstance(item, str), f"{what} entries must be strings, got {item!r}")
    return tuple(raw)


def oracle_parse_rank_table(text: str) -> RankTable:
    """The table of a rank-table document, or the first error in entry order:
    malformed entries, then unknown labels and repeated subsets, then the
    first missing subset in mask order, then out-of-range ranks."""
    raw = json.loads(text)
    ground = GroundSet(_string_list(raw.get("ground"), "ground"))
    ranks = raw.get("ranks")
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
    values = [None] * ground.size
    for labels, rank in entries:
        mask = ground.subset(labels).bits
        if values[mask] is not None:
            raise TableBuildError(f"duplicate subset entry {SubsetRef(ground, mask)}")
        values[mask] = rank
    for mask, v in enumerate(values):
        if v is None:
            raise TableBuildError(f"missing subset entry {SubsetRef(ground, mask)}")
    return RankTable(ground, tuple(values))


def oracle_dump_rank_table(g: RankTable) -> str:
    """``json.dumps(indent=2)`` of the document with subsets in
    (cardinality, mask) order."""
    order = sorted(range(g.ground.size), key=lambda m: (m.bit_count(), m))
    document = {
        "kind": "rank-table",
        "ground": list(g.ground.labels),
        "ranks": [
            {
                "subset": list(g.ground.subset_from_mask(m).labels()),
                "rank": g.values[m],
            }
            for m in order
        ],
    }
    return json.dumps(document, indent=2)
