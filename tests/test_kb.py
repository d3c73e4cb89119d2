import random

import pytest
from hypothesis import given, strategies as st

from reljoint.kb import (
    DataFileError,
    KbIndex,
    Triple,
    TripleFileError,
    load_triples,
    read_triples,
    write_triples,
)

from conftest import write_lines


def test_duplicate_facts_collapse(tmp_path):
    path = write_lines(
        tmp_path / "t.tsv",
        ["USA\tcapital\tWashington", "USA\tcapital\tWashington"],
    )
    kb = load_triples(path)
    assert len(kb) == 1
    assert kb.subject_fanout("capital") == {"USA": 1}


def test_two_line_hand_count(tmp_path):
    path = write_lines(
        tmp_path / "t.tsv",
        ["USA\tcapital\tWashington", "France\tcapital\tParis"],
    )
    kb = load_triples(path)
    assert kb.subjects("capital") == {"USA", "France"}
    assert kb.objects("capital") == {"Washington", "Paris"}
    assert kb.subject_fanout("capital") == {"USA": 1, "France": 1}
    assert kb.object_fanin("capital") == {"Washington": 1, "Paris": 1}


def test_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    kb = load_triples(path)
    assert kb.relations == ()
    assert len(kb) == 0


def test_comments_and_blank_lines_skipped(tmp_path):
    path = write_lines(
        tmp_path / "t.tsv",
        ["# a comment", "", "a\tr1\tb", "   ", "# another", "c\tr1\td"],
    )
    kb = load_triples(path)
    assert (len(kb), kb.relations) == (2, ("r1",))


def test_unseen_relation_empty_sets(tmp_path):
    path = write_lines(tmp_path / "t.tsv", ["a\tr1\tb"])
    kb = load_triples(path)
    assert (kb.subjects("nope"), kb.objects("nope")) == (frozenset(), frozenset())


def test_subject_equals_object():
    kb = KbIndex([Triple("a", "r1", "a")])
    assert (kb.subjects("r1"), kb.objects("r1")) == ({"a"}, {"a"})


@pytest.mark.parametrize(
    "line",
    ["a\tb", "a\tb\tc\td", "a\t\tc", " \tr\to"],
)
def test_malformed_line_carries_line_number(tmp_path, line):
    path = write_lines(tmp_path / "t.tsv", ["ok\tr\tv", line])
    with pytest.raises(TripleFileError) as err:
        load_triples(path)
    assert isinstance(err.value, DataFileError)
    assert (err.value.path, err.value.line) == (str(path), 2)


@pytest.mark.parametrize(
    "path, line, text",
    [("t.tsv", 3, "t.tsv:3: bad"), ("t.tsv", None, "t.tsv: bad"), (None, 3, "<input>:3: bad"),
     (None, None, "bad")],
)
def test_data_file_error_names_what_it_knows(path, line, text):
    assert str(DataFileError("bad", path, line)) == text


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_triples(tmp_path / "missing.tsv")


def test_fields_are_trimmed(tmp_path):
    path = write_lines(tmp_path / "t.tsv", [" a \tr1\t b "])
    kb = load_triples(path)
    assert kb.subjects("r1") == {"a"}
    assert kb.objects("r1") == {"b"}


triple_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=4
)


def index_view(kb: KbIndex):
    """Everything the index answers, per relation."""
    return len(kb), {
        rel: (kb.subjects(rel), kb.objects(rel), kb.subject_fanout(rel), kb.object_fanin(rel))
        for rel in kb.relations
    }


@given(
    rows=st.lists(
        st.tuples(triple_text, triple_text, triple_text), min_size=0, max_size=30
    ),
    seed=st.integers(0, 2**16),
)
def test_line_order_is_irrelevant(rows, seed):
    triples = [Triple(*row) for row in rows]
    shuffled = list(triples)
    random.Random(seed).shuffle(shuffled)
    assert index_view(KbIndex(triples)) == index_view(KbIndex(shuffled))


@given(
    rows=st.lists(st.tuples(triple_text, triple_text, triple_text), min_size=0, max_size=30)
)
def test_counts_bound_set_sizes(rows):
    triples = {Triple(*row) for row in rows}
    kb = KbIndex(triples)
    assert len(kb) == len(triples)
    for rel in kb.relations:
        count = sum(1 for t in triples if t.relation == rel)
        assert len(kb.subjects(rel)) <= count
        assert len(kb.objects(rel)) <= count
        assert sum(kb.subject_fanout(rel).values()) == count
        assert sum(kb.object_fanin(rel).values()) == count


def test_round_trip(tmp_path):
    triples = [Triple("x", "r2", "y"), Triple("a", "r1", "b"), Triple("a", "r1", "c")]
    out = tmp_path / "dump.tsv"
    write_triples(out, triples)
    assert read_triples(out) == triples
    assert index_view(load_triples(out)) == index_view(KbIndex(triples))
