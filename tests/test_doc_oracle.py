"""The readers and the text writer of rank-table documents against the
per-entry reader and the ``json.dumps`` writer of ``doc_oracle``, and the
layout reader against the ``json`` path."""

import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    GroundSet,
    RankFunctionError,
    RootedGraph,
    branching_greedoid,
    demo_pruning_tree,
    demo_rooted_tree,
    documents,
    dual,
    dump_rank_table,
    parse_document,
    pruning_antimatroid,
    table_from_values,
    uniform_matroid,
)
from rankdual.core import MAX_RANK_MAGNITUDE

from doc_oracle import oracle_dump_rank_table, oracle_parse_rank_table


def outcome(parse, text):
    """The parsed table, or the type and message of the error."""
    try:
        return parse(text)
    except RankFunctionError as exc:
        return type(exc), str(exc)


def library_parse(text):
    kind, table = parse_document(text)
    assert kind == "rank-table"
    return table


def assert_parse_matches(text):
    expected = outcome(oracle_parse_rank_table, text)
    assert outcome(library_parse, text) == expected
    return expected


def random_table(rng, n, lo=-MAX_RANK_MAGNITUDE, hi=MAX_RANK_MAGNITUDE):
    labels = tuple(f"e{i}" for i in range(n))
    return table_from_values(GroundSet(labels), [rng.randint(lo, hi) for _ in range(1 << n)])


@pytest.mark.parametrize("n", range(11))
def test_dump_matches_json_dumps(n):
    rng = random.Random(n)
    for table in (random_table(rng, n), random_table(rng, n, -3, 8)):
        text = dump_rank_table(table)
        assert text == oracle_dump_rank_table(table)
        assert assert_parse_matches(text) == table


def path_graph(n):
    vertices = tuple(f"v{i}" for i in range(n + 1))
    return RootedGraph(vertices, "v0", tuple((f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n)))


@pytest.mark.parametrize(
    "table",
    [
        branching_greedoid(demo_rooted_tree()),
        dual(branching_greedoid(demo_rooted_tree())),
        pruning_antimatroid(demo_pruning_tree()),
        uniform_matroid(tuple("abcdef"), 3),
        branching_greedoid(path_graph(9)),
    ],
)
def test_dump_matches_json_dumps_on_structure_tables(table):
    text = dump_rank_table(table)
    assert text == oracle_dump_rank_table(table)
    assert assert_parse_matches(text) == table


ESCAPED_LABELS = (
    'say "hi"',
    "back\\slash",
    "\x00\x01\x1f\t\n\r\x7f",
    "é, 中文, 🙂",
    "\ud800",
    "x\udfffy",
    " /",
)


def test_dump_escapes_labels_as_json_dumps():
    table = table_from_values(GroundSet(ESCAPED_LABELS), range(1 << len(ESCAPED_LABELS)))
    text = dump_rank_table(table)
    assert text == oracle_dump_rank_table(table)
    assert assert_parse_matches(text) == table


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(st.characters(exclude_categories=()), min_size=1), max_size=4, unique=True),
    st.data(),
)
def test_dump_matches_json_dumps_on_any_labels(labels, data):
    values = data.draw(st.lists(st.integers(-MAX_RANK_MAGNITUDE, MAX_RANK_MAGNITUDE),
                                min_size=1 << len(labels), max_size=1 << len(labels)))
    table = table_from_values(GroundSet(tuple(labels)), values)
    text = dump_rank_table(table)
    assert text == oracle_dump_rank_table(table)
    assert assert_parse_matches(text) == table


# --- the layout reader against the json path -------------------------------


def json_path(text):
    """parse_document with the layout reader bypassed."""
    with mock.patch.object(documents, "_read_layout", lambda text: None):
        return parse_document(text)


EDITS = '0123456789- \t\n\r",:[]{}\\e\x00\u00e9\ud800'


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(ESCAPED_LABELS), st.text(st.characters(exclude_categories=()), min_size=1)),
        max_size=5,
        unique=True,
    ),
    st.data(),
)
def test_one_changed_character_parses_as_through_json(labels, data):
    ranks = st.one_of(st.integers(-3, 12), st.integers(-MAX_RANK_MAGNITUDE, MAX_RANK_MAGNITUDE))
    values = data.draw(st.lists(ranks, min_size=1 << len(labels), max_size=1 << len(labels)))
    text = dump_rank_table(table_from_values(GroundSet(tuple(labels)), values))
    edit = data.draw(st.sampled_from(("replace", "insert", "delete", "trailing")))
    if edit == "trailing":
        text += data.draw(st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u3000x"), min_size=1))
    else:
        pos = data.draw(st.integers(0, len(text) - (edit != "insert")))
        char = data.draw(st.one_of(st.sampled_from(EDITS), st.characters(exclude_categories=())))
        text = text[:pos] + ("" if edit == "delete" else char) + text[pos + (edit != "insert"):]
    assert outcome(parse_document, text) == outcome(json_path, text)


def test_the_writers_layout_is_read_without_decoding_the_ranks(monkeypatch):
    table = random_table(random.Random(10), 10, -3, 8)
    text = dump_rank_table(table)
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(documents.json, "loads", lambda s, **kw: decoded.append(len(s)) or loads(s, **kw))
    assert parse_document(text) == ("rank-table", table)
    assert decoded and max(decoded) < 1024  # the ground array alone
    decoded.clear()
    assert parse_document(compact) == ("rank-table", table)
    assert decoded == [len(compact)]


def test_a_cut_layout_falls_back_to_json():
    text = dump_rank_table(table_from_values(GroundSet(("a", "b")), [0, 1, 1, 2]))
    # before the ground, before the first rank, and with every rank but no
    # closing brace
    for end in (0, len(documents._HEAD), text.index('"rank"'), len(text) - 1):
        assert documents._read_layout(text[:end]) is None
        assert outcome(parse_document, text[:end]) == outcome(json_path, text[:end])


def document(table) -> dict:
    return json.loads(dump_rank_table(table))


@pytest.mark.parametrize("seed", range(6))
def test_parse_matches_oracle_on_rearranged_documents(seed):
    rng = random.Random(seed)
    table = random_table(rng, rng.randint(0, 6), -4, 9)
    doc = document(table)
    rng.shuffle(doc["ranks"])
    for entry in doc["ranks"]:
        rng.shuffle(entry["subset"])
        if rng.random() < 0.3:
            entry["note"] = [1, {"x": None}]
    doc["comment"] = "extra keys are ignored"
    doc = dict(reversed(list(doc.items())))
    for text in (
        json.dumps(doc),
        json.dumps(doc, separators=(",", ":")),
        json.dumps(doc, indent="\t"),
        json.dumps(doc, indent=1, ensure_ascii=False).replace("\n", "\r\n "),
    ):
        assert assert_parse_matches(text) == table


def replace_subset(doc: dict, labels: list, subset: list) -> dict:
    for entry in doc["ranks"]:
        if entry["subset"] == labels:
            entry["subset"] = subset
    return doc


@pytest.mark.parametrize(
    "labels, subset",
    [
        (["e1"], ["e0", "e0"]),  # the repeated label's bits sum to the missing mask
        (["e1"], ["e0"]),
        (["e0", "e1"], ["e1", "e2"]),
        (["e0"], ["e3"]),
        (["e0"], ["E0"]),
    ],
)
def test_parse_matches_oracle_when_one_subset_stands_in_for_another(labels, subset):
    doc = replace_subset(document(random_table(random.Random(7), 3, 0, 5)), labels, subset)
    assert isinstance(assert_parse_matches(json.dumps(doc)), tuple)  # an error, not a table


def test_sparse_document_reports_missing_subset_in_little_memory():
    text = json.dumps({"kind": "rank-table", "ground": [f"e{i}" for i in range(24)],
                       "ranks": [{"subset": [], "rank": 0}]})
    tracemalloc.start()
    try:
        result = outcome(library_parse, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1] == "missing subset entry {e0}"
    assert peak < 5 * 2**20


# --- fuzz: mutations of a valid document ------------------------------------

NOT_AN_INTEGER = (True, False, 1.0, -0.5, "1", None, [1], {"rank": 1})
HUGE = (MAX_RANK_MAGNITUDE + 1, -MAX_RANK_MAGNITUDE - 1, 10**30)
NOT_A_LIST = ("a", {"a": 1}, 3, None, True)
NOT_A_DICT = (["subset", "rank"], "entry", 7, None, 2.5)


def mutate(doc: dict, data) -> None:
    ranks = doc["ranks"]
    labels = doc["ground"]
    kind = data.draw(st.sampled_from((
        "drop", "duplicate", "bad-rank", "huge-rank", "unknown-label", "repeat-label",
        "drop-key", "bad-subset", "bad-entry", "bad-ranks", "swap-ranks", "extra-key",
    )))
    if kind == "bad-ranks":
        doc["ranks"] = data.draw(st.sampled_from(NOT_A_LIST))
        return
    if not isinstance(ranks, list) or not ranks:
        return
    pos = data.draw(st.integers(0, len(ranks) - 1))
    entry = ranks[pos]
    if kind == "drop":
        del ranks[pos]
    elif kind == "duplicate":
        ranks.insert(data.draw(st.integers(0, len(ranks))), json.loads(json.dumps(entry)))
    elif kind == "bad-entry":
        ranks[pos] = data.draw(st.sampled_from(NOT_A_DICT))
    elif not isinstance(entry, dict):
        return
    elif kind == "bad-rank":
        entry["rank"] = data.draw(st.sampled_from(NOT_AN_INTEGER))
    elif kind == "huge-rank":
        entry["rank"] = data.draw(st.sampled_from(HUGE))
    elif kind == "drop-key":
        entry.pop(data.draw(st.sampled_from(("subset", "rank"))), None)
    elif kind == "bad-subset":
        entry["subset"] = data.draw(st.sampled_from(NOT_A_LIST))
    elif kind == "swap-ranks":
        other = ranks[data.draw(st.integers(0, len(ranks) - 1))]
        if isinstance(other, dict) and "rank" in other and "rank" in entry:
            entry["rank"], other["rank"] = other["rank"], entry["rank"]
    elif kind == "extra-key":
        entry[data.draw(st.sampled_from(("x", "subsets", "Rank")))] = 1
    elif not isinstance(entry.get("subset"), list):
        return
    elif kind == "unknown-label":
        label = data.draw(st.sampled_from(("z", "", "e", 5, None)))
        entry["subset"].insert(data.draw(st.integers(0, len(entry["subset"]))), label)
    elif labels:  # repeat-label: one already in the subset, when it has one
        entry["subset"].append(data.draw(st.sampled_from(entry["subset"] or labels)))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3), st.data())
def test_fuzzed_documents_parse_as_the_oracle_does(n, data):
    values = data.draw(st.lists(st.integers(-4, 9), min_size=1 << n, max_size=1 << n))
    doc = document(table_from_values(GroundSet(tuple(f"e{i}" for i in range(n))), values))
    if data.draw(st.booleans()):
        data.draw(st.randoms()).shuffle(doc["ranks"])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(doc, data)
    assert_parse_matches(json.dumps(doc))
