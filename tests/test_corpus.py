from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.corpus import (
    CitationWindow,
    CorpusError,
    Journal,
    Paper,
    ParseError,
    build_corpus,
    load_corpus,
    parse_journals,
    parse_papers,
    read_hashed,
)

from conftest import CARDIOLOGY_JOURNALS_CSV


def test_parse_papers_maps_fields_directly() -> None:
    papers = parse_papers(['{"id":"p1","year":2005,"journal":"j1","references":["p2"]}'])
    assert papers == [Paper("p1", 2005, "j1", ("p2",))]


def test_parse_papers_reads_optional_citation_override() -> None:
    papers = parse_papers(
        ['{"id":"p1","year":2005,"journal":"j1","references":[],"citations":17}']
    )
    assert papers[0].raw_citation_count == 17


def test_parse_papers_duplicate_id_names_second_line() -> None:
    lines = [
        '{"id":"p1","year":2005,"journal":"j1","references":[]}',
        '{"id":"p1","year":2006,"journal":"j1","references":[]}',
    ]
    with pytest.raises(ParseError, match="line 2.*duplicate") as exc_info:
        parse_papers(lines)
    assert exc_info.value.line_no == 2


def test_parse_papers_rejects_self_reference() -> None:
    with pytest.raises(ParseError, match="references itself"):
        parse_papers(['{"id":"p3","year":2005,"journal":"j1","references":["p3"]}'])


@pytest.mark.parametrize(
    "line,match",
    [
        ("{not json", "malformed JSON"),
        ('{"id":"p1","year":2005,"journal":"j1"}', "missing required field 'references'"),
        ('{"year":2005,"journal":"j1","references":[]}', "missing required field 'id'"),
        ('{"id":"p1","year":1899,"journal":"j1","references":[]}', "outside"),
        ('{"id":"p1","year":2101,"journal":"j1","references":[]}', "outside"),
        ('{"id":"p1","year":"2005","journal":"j1","references":[]}', "must be an integer"),
        ('{"id":"","year":2005,"journal":"j1","references":[]}', "non-empty string"),
        ('{"id":"p1","year":2005,"journal":"j1","references":[3]}', "list of strings"),
        ('{"id":"p1","year":2005,"journal":"j1","references":[],"citations":-1}', "non-negative"),
        ("[1,2]", "expected a JSON object"),
    ],
)
def test_parse_papers_aborts_on_bad_records(line: str, match: str) -> None:
    with pytest.raises(ParseError, match=match):
        parse_papers([line])


def test_parse_journals_cardiology_fixture() -> None:
    journals = parse_journals(CARDIOLOGY_JOURNALS_CSV.splitlines())
    by_id = {journal.id: journal for journal in journals}
    assert by_id["jvr"].categories == ("peripheral vascular disease", "physiology")
    assert by_id["circ"].categories == (
        "cardiac and cardiovascular systems",
        "hematology",
        "peripheral vascular diseases",
    )
    assert by_id["ajc"].categories == ("cardiac and cardiovascular systems",)
    assert by_id["circ"].primary_category == "cardiac and cardiovascular systems"


@pytest.mark.parametrize(
    "rows,match",
    [
        (["id,title,categories", "j1,Journal One,"], "empty categories"),
        (["id,title,categories", "j1,A,x", "j1,B,y"], "duplicate journal id"),
        (["id,title,categories", "j1,A,x|x"], "repeats a category"),
        (["id,title,categories", "j1,A,x||y"], "empty categories"),
        (["wrong,header,here", "j1,A,x"], "expected header"),
        (["id,title,categories", "j1,A"], "expected 3 fields"),
    ],
)
def test_parse_journals_rejects_bad_rows(rows: list[str], match: str) -> None:
    with pytest.raises(ParseError, match=match):
        parse_journals(rows)


def _two_paper_corpus(citing_year: int, window: CitationWindow):
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", citing_year, "j1", ("p1",)),
    ]
    journals = [Journal("j1", "Journal One", ("cat",))]
    return build_corpus(papers, journals, window)


def test_build_corpus_single_edge() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    assert corpus.cited_by["p1"] == ("p2",)
    assert corpus.citation_count("p1") == 1


def test_build_corpus_window_excludes_late_citation() -> None:
    corpus = _two_paper_corpus(2010, CitationWindow.fixed_years(5))
    assert corpus.cited_by["p1"] == ()
    assert corpus.citation_count("p1") == 0


def test_window_includes_publication_year_span() -> None:
    window = CitationWindow.fixed_years(5)
    assert window.admits(2000, 2000)
    assert window.admits(2000, 2004)
    assert not window.admits(2000, 2005)
    assert not window.admits(2000, 1999)


def test_external_reference_counts_toward_reference_length() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j1", ("doi:x",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert corpus.cited_by["p1"] == ()
    assert corpus.reference_count("p2") == 1
    assert corpus.n_edges == 0


def test_duplicate_reference_keys_make_one_edge_but_count_twice() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j1", ("p1", "p1")),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert corpus.cited_by["p1"] == ("p2",)
    assert corpus.reference_count("p2") == 2


def test_citation_count_override_beats_edges() -> None:
    papers = [
        Paper("p1", 2000, "j1", (), raw_citation_count=17),
        Paper("q1", 2001, "j1", ("p1",)),
        Paper("q2", 2001, "j1", ("p1",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert len(corpus.cited_by["p1"]) == 2
    assert corpus.citation_count("p1") == 17
    assert corpus.citation_count("q1") == 0


def test_citation_count_unknown_paper() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    with pytest.raises(KeyError):
        corpus.citation_count("nope")


def test_build_corpus_rejects_unresolved_journal() -> None:
    with pytest.raises(CorpusError, match="unresolved journal"):
        build_corpus([Paper("p1", 2000, "nope", ())], [Journal("j1", "J", ("cat",))])


def test_build_corpus_rejects_empty_papers() -> None:
    with pytest.raises(CorpusError, match="no papers"):
        build_corpus([], [Journal("j1", "J", ("cat",))])


def test_with_journals_requires_full_coverage() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    with pytest.raises(CorpusError, match="scheme missing journal"):
        corpus.with_journals([Journal("other", "O", ("cat",))])


def test_with_journals_keeps_graph() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    swapped = corpus.with_journals([Journal("j1", "J", ("newcat",))])
    assert swapped.cited_by is corpus.cited_by
    assert swapped.categories_of("p1") == ("newcat",)


def test_window_parse_round_trip() -> None:
    assert str(CitationWindow.parse("all")) == "all"
    assert str(CitationWindow.parse("years5")) == "years5"
    assert CitationWindow.parse("years1").years == 1
    with pytest.raises(ValueError):
        CitationWindow.parse("years0")
    with pytest.raises(ValueError):
        CitationWindow.parse("sometimes")


def test_load_corpus_reads_files(tmp_path) -> None:
    papers_path = tmp_path / "papers.jsonl"
    journals_path = tmp_path / "journals.csv"
    # CRLF line ends: universal newlines for JSONL, newline="" for the CSV,
    # so a quoted CRLF inside a CSV field survives as written
    papers_path.write_bytes(
        b'{"id":"p1","year":2005,"journal":"jvr","references":[]}\r\n'
        b'{"id":"p2","year":2006,"journal":"circ","references":["p1"]}\r\n'
    )
    journals_path.write_bytes(
        CARDIOLOGY_JOURNALS_CSV.replace("\n", "\r\n").encode("utf-8")
        + b'jx,"Two\r\nLines",physiology\r\n'
    )
    digests: dict[str, str] = {}
    corpus = load_corpus(papers_path, journals_path, digests=digests)
    assert corpus.citation_count("p1") == 1
    assert len(corpus.journals) == 4
    assert corpus.journals["jx"].title == "Two\r\nLines"
    assert digests == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (papers_path, journals_path)
    }


def test_read_hashed_covers_bytes_the_parser_left_unread(tmp_path) -> None:
    path = tmp_path / "big.txt"
    path.write_bytes(b"first line\n" + b"x" * 200_000 + b"\nlast\n")
    first, digest = read_hashed(path, lambda handle: handle.readline())
    assert first == "first line\n"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@st.composite
def corpus_and_window(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    ids = [f"p{i}" for i in range(n)]
    papers = []
    for pid in ids:
        year = draw(st.integers(min_value=2000, max_value=2006))
        refs = draw(
            st.lists(st.sampled_from(ids + ["ext:a", "ext:b"]), max_size=6)
        )
        papers.append(Paper(pid, year, "j1", tuple(r for r in refs if r != pid)))
    years = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    return papers, CitationWindow(years)


@given(corpus_and_window())
@settings(max_examples=200)
def test_edge_symmetry(case) -> None:
    papers, window = case
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))], window)
    by_id = {paper.id: paper for paper in papers}
    for cited_id, citers in corpus.cited_by.items():
        assert len(set(citers)) == len(citers)
        for citing_id in citers:
            assert cited_id in by_id[citing_id].references
            assert window.admits(by_id[cited_id].year, by_id[citing_id].year)
    # and the other direction: every admitted resolvable reference is an edge
    for paper in papers:
        for ref in paper.references:
            target = by_id.get(ref)
            if target is not None and window.admits(target.year, paper.year):
                assert paper.id in corpus.cited_by[ref]


@given(corpus_and_window())
@settings(max_examples=200)
def test_citation_total_equals_resolvable_pairs(case) -> None:
    papers, _ = case
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))], CitationWindow.all())
    ids = {paper.id for paper in papers}
    pairs = {
        (paper.id, ref)
        for paper in papers
        for ref in paper.references
        if ref in ids
    }
    assert sum(corpus.citation_count(pid) for pid in ids) == len(pairs)


@given(corpus_and_window())
@settings(max_examples=50)
def test_build_is_deterministic(case) -> None:
    papers, window = case
    journals = [Journal("j1", "J", ("cat",))]
    first = build_corpus(papers, journals, window)
    second = build_corpus(list(papers), journals, window)
    assert first.cited_by == second.cited_by
    assert list(first.papers) == list(second.papers)
