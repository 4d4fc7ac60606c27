from __future__ import annotations

import gc
import hashlib
import json
import math
import pickle
import re
import sys
import tracemalloc
import unittest.mock

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from crown.baselines import Weighting, compute_baselines
from crown.corpus import (
    LINE_BREAKS,
    YEAR_MAX,
    YEAR_MIN,
    CitationWindow,
    CorpusError,
    GroupSelection,
    Journal,
    Paper,
    ParseError,
    build_corpus,
    check_echoed,
    group_name,
    listed_id,
    load_corpus,
    parse_journals,
    parse_papers,
    read_hashed,
)
from crown.diagnostics import primary_only_scheme
from crown.indicators import fractional_scores, score_papers
from crown.synth import FieldSpec, SynthConfig, generate_corpus

import conftest
from conftest import (CARDIOLOGY_JOURNALS_CSV, SMALL_JOURNALS, categories_of, jsonl_lines,
                      reference_cited_by, small_corpus)


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
    papers = parse_papers(lines)  # the build owns the cross-record checks
    with pytest.raises(ParseError, match="^line 2: duplicate paper id 'p1'$") as exc_info:
        build_corpus(papers, [Journal("j1", "J", ("cat",))])
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
        ('{"id":1,"year":2005,"journal":"j1","references":[]}',
         "^line 1: field 'id' must be a string$"),
        ('{"id":"p1","year":2005,"journal":"","references":[]}',
         "^line 1: field 'journal' must be a non-empty string$"),
        ('{"id":"p1","year":2005,"journal":"j1","references":[],"citations":"3"}',
         "^line 1: field 'citations' must be an integer$"),
        pytest.param("[" * 100_000, r"^line 1: malformed JSON \(nested too deeply\)$",
                     id="nested-too-deeply"),
        pytest.param(
            '{"id":"p1","year":' + "1" * 5000 + ',"journal":"j1","references":[]}',
            r"^line 1: unreadable JSON value \(",
            id="5000-digit-year",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this interpreter has no integer digit limit",
            ),
        ),
        ('{"id":"p\\t2","year":2005,"journal":"j1","references":[]}',
         r"^line 1: paper id 'p\\t2' holds a tab or a line break$"),
        ('{"id":"#x","year":2005,"journal":"j1","references":[]}',
         "^line 1: paper id '#x' has surrounding whitespace or starts with '#'"),
        ('{"id":"p1 ","year":2005,"journal":"j1","references":[]}',
         "^line 1: paper id 'p1 ' has surrounding whitespace"),
        ('{"id":"p1","id":"p9","year":2005,"journal":"j1","references":[]}',
         "^line 1: duplicate key 'id'$"),
        ('{"id":"p1","year":2005,"journal":"j1","references":[],"x":{"a":1,"a":2}}',
         "^line 1: duplicate key 'a'$"),
    ],
)
def test_parse_papers_aborts_on_bad_records(line: str, match: str) -> None:
    with pytest.raises(ParseError, match=match):
        parse_papers([line])


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: Paper("", 2005, "j1"), "non-empty string"),
        (lambda: Paper("p1", 1899, "j1"), "outside"),
        (lambda: Paper("p1", 2005, "j1", ("p1",)), "references itself"),
        (lambda: Paper("p1", 2005, "j1", (), raw_citation_count=-1), "non-negative"),
        (lambda: Paper(5, 2005, "j1"), "^paper id must be a non-empty string$"),
        (lambda: Paper("p\r1", 2005, "j1"), "holds a tab or a line break"),
        (lambda: Paper("\u3000p1", 2005, "j1"), "no group file can list it"),
        (lambda: Paper("p1", "2005", "j1"), "^paper 'p1': year must be an integer$"),
        (lambda: Paper("p1", 2005.5, "j1"), "^paper 'p1': year must be an integer$"),
        (lambda: Paper("p1", True, "j1"), "^paper 'p1': year must be an integer$"),
        (lambda: Paper("p1", 2005, 5), "^paper 'p1': journal id must be a non-empty string$"),
        (lambda: Paper("p1", 2005, ""), "^paper 'p1': journal id must be a non-empty string$"),
        (lambda: Paper("p1", 2005, "j1", "ab"), "^paper 'p1': references must be a tuple$"),
        (lambda: Paper("p1", 2005, "j1", ["x"]), "^paper 'p1': references must be a tuple$"),
        (lambda: Paper("p1", 2005, "j1", (), "5"),
         "^paper 'p1': citation override must be an integer$"),
        (lambda: Paper("p1", 2005, "j1", (), True),
         "^paper 'p1': citation override must be an integer$"),
        (lambda: Journal("", "J", ("cat",)), "empty journal id"),
        (lambda: Journal("j1", "J", ()), "empty categories"),
        (lambda: Journal("j1", "J", ("x", "")), "empty categories"),
        (lambda: Journal("j1", "J", ("x", "x")), "repeats a category"),
        (lambda: Journal("j1", "J", ("x", "a\tb")), r"category 'a\\tb' holds a tab"),
        (lambda: Paper(" p1", 2005, "j1"), "^paper id ' p1' has surrounding whitespace"),
    ],
)
def test_records_check_their_invariants_on_construction(make, match: str) -> None:
    with pytest.raises(CorpusError, match=match) as exc_info:
        make()
    assert not isinstance(exc_info.value, ParseError)


def test_record_invariant_errors_carry_the_line_number() -> None:
    good = '{"id":"p1","year":2005,"journal":"j1","references":[]}'
    with pytest.raises(ParseError, match="^line 2: .*outside") as exc_info:
        parse_papers([good, '{"id":"p2","year":1800,"journal":"j1","references":[]}'])
    assert exc_info.value.line_no == 2
    with pytest.raises(ParseError, match="^line 3: .*repeats a category") as exc_info:
        parse_journals(["id,title,categories", "j1,A,x", "j2,B,y|y"])
    assert exc_info.value.line_no == 3


def test_line_breaks_are_those_splitlines_honours() -> None:
    assert LINE_BREAKS == frozenset(conftest.LINE_BREAKS)
    assert len(conftest.LINE_BREAKS) == 10


def _echo_fault(text: str, tab: bool) -> str | None:
    """What ``check_echoed(text, "x", tab)`` says ``text`` does, or None when
    it returns ``text``."""
    try:
        echoed = check_echoed(text, "x", tab)
    except CorpusError as exc:
        message = str(exc)
        assert message.startswith(f"x {text!r} ")
        return message.removeprefix(f"x {text!r} ")
    assert echoed is text
    return None


@given(st.text(st.one_of(st.sampled_from(("\t", "#", *conftest.LINE_BREAKS)), st.characters())))
@settings(max_examples=300)
def test_echo_rules_match_splitlines(text) -> None:
    # The first fault is named: a lone surrogate, a line break or a tab, then,
    # in a field, a leading '#'.
    one_line = len(f"x{text}x".splitlines()) == 1
    if any("\ud800" <= char <= "\udfff" for char in text):
        header = field = f"holds {_SURROGATE}"
    else:
        header = None if one_line else "holds a line break"
        if not one_line or "\t" in text:
            field = "holds a tab or a line break"
        elif text.startswith("#"):
            field = "starts with '#', which marks a comment line"
        else:
            field = None
    assert _echo_fault(text, tab=False) == header
    assert _echo_fault(text, tab=True) == field


# Each flaw breaks one of the ``Paper`` invariants, with its message.
PAPER_FLAWS = {
    None: None,
    "empty id": "^paper id must be a non-empty string$",
    "unlisted id": "^paper id .+ has surrounding whitespace or starts with '#', "
                   "so no group file can list it$",
    "tsv break in id": "^paper id .+ holds a tab or a line break$",
    "year type": "^paper .+: year must be an integer$",
    "year": r"^paper .+: year -?\d+ outside \[1900, 2100\]$",
    "journal id": "^paper .+: journal id must be a non-empty string$",
    "references type": "^paper .+: references must be a tuple$",
    "self reference": "^paper .+ references itself$",
    "override type": "^paper .+: citation override must be an integer$",
    "negative override": "^paper .+: citation override must be non-negative$",
}


@st.composite
def paper_fields(draw):
    """Five field values, valid or with one flaw; returns (fields, flaw)."""
    paper_id = draw(
        st.text(min_size=1, max_size=6).filter(
            lambda text: listed_id(text) == text and _echo_fault(text, tab=True) is None
        )
    )
    year = draw(st.integers(min_value=YEAR_MIN, max_value=YEAR_MAX))
    journal_id = draw(st.text(min_size=1, max_size=4))
    references = [
        ref for ref in draw(st.lists(st.text(max_size=4), max_size=4)) if ref != paper_id
    ]
    override = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50)))
    flaw = draw(st.sampled_from(list(PAPER_FLAWS)))
    if flaw == "empty id":
        paper_id = ""
    elif flaw == "unlisted id":
        # what a group file line would lose: surrounding whitespace or a
        # leading '#', which makes the line a comment
        space = draw(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"))
        paper_id = draw(st.sampled_from([f"#{paper_id}", space + paper_id, paper_id + space]))
    elif flaw == "tsv break in id":
        paper_id = paper_id + draw(st.sampled_from(("\t", *conftest.LINE_BREAKS))) + paper_id
    elif flaw == "year type":
        # a float, a bool or a string, even one equal to a valid year
        year = draw(st.one_of(st.floats(YEAR_MIN, YEAR_MAX), st.booleans(),
                              st.just(str(year))))
    elif flaw == "journal id":
        journal_id = draw(st.one_of(st.just(""), st.integers(), st.none(),
                                    st.just(journal_id.encode())))
    elif flaw == "references type":
        # a list would be a mutable part of an immutable record, and a string
        # would read as one reference per character
        not_a_tuple = draw(st.sampled_from([references, "".join(references)]))
        return (paper_id, year, journal_id, not_a_tuple, override), flaw
    elif flaw == "year":
        year = draw(
            st.one_of(
                st.integers(max_value=YEAR_MIN - 1), st.integers(min_value=YEAR_MAX + 1)
            )
        )
    elif flaw == "self reference":
        references.insert(draw(st.integers(0, len(references))), paper_id)
    elif flaw == "override type":
        override = draw(st.one_of(st.floats(0, 50), st.booleans(), st.just(str(override))))
    elif flaw == "negative override":
        override = draw(st.integers(max_value=-1))
    return (paper_id, year, journal_id, tuple(references), override), flaw


def _unchecked_paper(fields) -> Paper:
    """A ``Paper`` built without its checks, as a stale pickle might hold."""
    return tuple.__new__(Paper, fields)


PAPER_BUILDERS = {
    "call": lambda fields: Paper(*fields),
    "keywords": lambda fields: Paper(**dict(zip(Paper._fields, fields))),
    "_make": Paper._make,
    "_replace": lambda fields: Paper("v", 2000, "jv")._replace(
        **dict(zip(Paper._fields, fields))
    ),
    **{
        f"pickle protocol {protocol}": (
            lambda fields, protocol=protocol: pickle.loads(
                pickle.dumps(_unchecked_paper(fields), protocol)
            )
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@given(paper_fields())
@settings(max_examples=200)
def test_every_way_of_building_a_paper_runs_its_checks(case) -> None:
    fields, flaw = case
    messages = set()
    for builder in PAPER_BUILDERS.values():
        if flaw is None:
            paper = builder(fields)
            assert type(paper) is Paper
            assert paper == fields
        else:
            with pytest.raises(CorpusError, match=PAPER_FLAWS[flaw]) as exc_info:
                builder(fields)
            messages.add(str(exc_info.value))
    assert len(messages) == (flaw is not None)


# The flaws a papers record can carry past the parse's JSON shape checks:
# the values have the right types, and only ``Paper``'s own checks are left.
VALUE_FLAWS = {
    None, "empty id", "unlisted id", "tsv break in id", "year", "self reference",
    "negative override",
}


@given(paper_fields().filter(lambda case: case[1] in VALUE_FLAWS), st.booleans())
@example((("p\ud800", 2005, "j", (), None), "lone surrogate"), False)
@example((("\x00", 2005, "j", (), None), "unprintable but echoable"), False)
@example(((" p", 2005, "j", (), None), "unlisted id"), False)
@example((("p ", 2005, "j", (), None), "unlisted id"), False)
@example((("#p", 2005, "j", (), None), "unlisted id"), False)
@settings(max_examples=300)
def test_parse_builds_the_paper_a_call_builds(case, spell_none) -> None:
    from crown.corpus import _paper_from_record  # its fast path skips the call

    (paper_id, year, journal_id, references, override), _ = case
    record = {"id": paper_id, "year": year, "journal": journal_id,
              "references": list(references)}
    if override is not None or spell_none:
        record["citations"] = override
    try:
        expected = Paper(paper_id, year, journal_id, references, override)
    except CorpusError as exc:
        with pytest.raises(ParseError) as exc_info:
            _paper_from_record(record, 7, {})
        assert str(exc_info.value) == f"line 7: {exc}"
    else:
        paper = _paper_from_record(record, 7, {})
        assert type(paper) is Paper
        assert paper == Paper(*paper) == expected


def test_paper_is_immutable_and_keeps_the_dataclass_repr() -> None:
    paper = Paper("p1", 2005, "j1", ("p2",))
    with pytest.raises(AttributeError):
        paper.year = 2006  # type: ignore[misc]
    assert repr(paper) == (
        "Paper(id='p1', year=2005, journal_id='j1', references=('p2',), "
        "raw_citation_count=None)"
    )


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
        (["id,title,categories", 'j1,A,"x|a\n', 'fake\t1999\t5\t9.0"'],
         r"^line 3: journal 'j1': category 'a\\nfake\\t1999\\t5\\t9.0' holds a tab"),
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
    assert fractional_scores(corpus, ["p1"]) == [1.0]
    assert corpus.citation_counts == (1, 0)


def test_build_corpus_window_excludes_late_citation() -> None:
    corpus = _two_paper_corpus(2010, CitationWindow.fixed_years(5))
    assert fractional_scores(corpus, ["p1"]) == [0.0]
    assert corpus.citation_counts == (0, 0)


def test_window_includes_publication_year_span() -> None:
    window = CitationWindow.fixed_years(5)
    # the publication year and the four after it
    assert window.citing_years(2000) == range(2000, 2005)
    # ``all`` spans every year a paper may carry, before and after its own
    assert CitationWindow.all().citing_years(2000) == range(YEAR_MIN, YEAR_MAX + 1)


def test_a_window_past_the_year_range_allocates_nothing_per_year() -> None:
    # Years lie in 1900-2100, so a 201-year span holds every citing year from
    # the cited one on, and a longer one adds none. A build that held a set
    # of each span's years peaked near 6 MB at 10^5 years and ran out of
    # memory long before 10^9; the shorter window runs first, so such a
    # build fails before it reaches the longer.
    papers = [
        Paper("p1", 1900, "j1", ()),
        Paper("p2", 2000, "j1", ("p1",)),
        Paper("p3", 2100, "j1", ("p1", "p2")),
    ]
    journals = [Journal("j1", "J", ("cat",))]
    longest = build_corpus(papers, journals, CitationWindow.fixed_years(201))
    assert longest.citation_counts == (2, 1, 0)
    for years in (10**5, 10**9):
        tracemalloc.start()
        try:
            corpus = build_corpus(papers, journals, CitationWindow.fixed_years(years))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000
        assert corpus._replace(window=longest.window) == longest
        assert fractional_scores(corpus, ["p1", "p2"]) == fractional_scores(longest, ["p1", "p2"])


def test_external_reference_counts_toward_reference_length() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j1", ("doi:x",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert fractional_scores(corpus, ["p1"]) == [0.0]
    assert len(corpus.papers["p2"].references) == 1
    assert corpus.n_edges == 0
    assert corpus.n_external == 1


def test_duplicate_reference_keys_make_one_edge_but_count_twice() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j1", ("p1", "p1")),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    # one citing paper, whose 1/R counts both keys in R
    assert fractional_scores(corpus, ["p1"]) == [0.5]
    assert corpus.citation_counts == (1, 0)
    assert len(corpus.papers["p2"].references) == 2


def test_a_reference_list_past_the_exact_bound_is_refused(monkeypatch) -> None:
    import crown.corpus as corpus_module

    monkeypatch.setattr(corpus_module, "MAX_REFERENCES", 2)
    lines = [
        '{"id":"p1","year":2005,"journal":"j1","references":["a","b"]}',
        '{"id":"p2","year":2005,"journal":"j1","references":["a","b","a"]}',
    ]
    assert parse_papers(lines[:1])[0].references == ("a", "b")
    message = "paper 'p2' has 3 references, more than the 2 fractional counting sums exactly"
    with pytest.raises(ParseError, match=f"^line 2: {message}$") as exc_info:
        parse_papers(lines)
    assert exc_info.value.line_no == 2
    with pytest.raises(CorpusError, match=f"^{message}$"):
        Paper("p2", 2005, "j1", ("a", "b", "a"))


def test_citation_count_override_beats_edges() -> None:
    papers = [
        Paper("p1", 2000, "j1", (), raw_citation_count=17),
        Paper("q1", 2001, "j1", ("p1",)),
        Paper("q2", 2001, "j1", ("p1",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    # the column holds the override, and the edges count the graph
    assert corpus.citation_counts == (17, 0, 0)
    assert corpus.n_edges == 2
    table = compute_baselines(corpus)
    scored = score_papers(corpus, ["q1", "p1"], Weighting.HARMONIC)
    assert scored.citations == [17, 0]
    assert table.cell("cat", 2000).sorted_citations == (17,)
    assert table.cell("cat", 2001).sorted_citations == (0, 0)


def test_build_corpus_rejects_unresolved_journal() -> None:
    with pytest.raises(CorpusError, match="unresolved journal"):
        build_corpus([Paper("p1", 2000, "nope", ())], [Journal("j1", "J", ("cat",))])


def test_build_corpus_errors_name_the_position_of_the_paper() -> None:
    journals = [Journal("j1", "J", ("cat",))]
    first = Paper("p1", 2000, "j1", ())
    with pytest.raises(ParseError, match="^line 2: paper 'p2' has unresolved journal 'nope'$"):
        build_corpus([first, Paper("p2", 2000, "nope", ())], journals)
    with pytest.raises(ParseError, match="^line 2: duplicate paper id 'p1'$"):
        build_corpus([first, first], journals)
    # two ids repeat: the first repeat is named, not the first id that repeats
    second = Paper("p2", 2000, "j1", ())
    with pytest.raises(ParseError, match="^line 3: duplicate paper id 'p2'$"):
        build_corpus([first, second, second, first], journals)
    with pytest.raises(ParseError, match="^line 3: duplicate paper id 'p1'$"):
        build_corpus([first, second, first, second], journals)


def test_a_space_is_the_only_printable_whitespace() -> None:
    # ``Paper`` takes an id that is printable and neither starts nor ends with
    # a space as free of surrounding whitespace, which rests on this.
    both = [chr(code) for code in range(sys.maxunicode + 1)
            if chr(code).isprintable() and chr(code).isspace()]
    assert both == [" "]


def test_repeated_journal_id_names_the_position_of_the_journal() -> None:
    papers = [Paper("p1", 2000, "j", ())]
    journal = Journal("j", "J", ("a",))
    message = "^line 2: duplicate journal id 'j'$"
    with pytest.raises(ParseError, match=message) as exc_info:
        build_corpus(papers, [journal] * 2)
    assert exc_info.value.line_no == 2
    corpus = build_corpus(papers, [journal])
    with pytest.raises(ParseError, match="^line 3: duplicate journal id 'j'$"):
        corpus.with_journals([journal, Journal("k", "K", ("b",)), journal])


def test_build_corpus_rejects_empty_papers() -> None:
    with pytest.raises(CorpusError, match="no papers"):
        build_corpus([], [Journal("j1", "J", ("cat",))])


def test_with_journals_requires_full_coverage() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    with pytest.raises(ParseError, match="^line 1: paper 'p1' has unresolved journal 'j1'$"):
        corpus.with_journals([Journal("other", "O", ("cat",))])


def test_with_journals_names_the_position_of_the_first_uncovered_paper() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j2", ("p1",)),
        Paper("p3", 2001, "j2", ()),
    ]
    journals = [Journal("j1", "J", ("a",)), Journal("j2", "K", ("b",))]
    corpus = build_corpus(papers, journals)
    message = "^line 2: paper 'p2' has unresolved journal 'j2'$"
    with pytest.raises(ParseError, match=message) as exc_info:
        corpus.with_journals(journals[:1])
    assert exc_info.value.line_no == 2
    assert isinstance(exc_info.value, CorpusError)


def test_with_journals_keeps_graph() -> None:
    corpus = _two_paper_corpus(2001, CitationWindow.all())
    swapped = corpus.with_journals([Journal("j1", "J", ("newcat",))])
    assert swapped.citation_counts is corpus.citation_counts
    assert fractional_scores(swapped, ["p1"]) == fractional_scores(corpus, ["p1"]) == [1.0]
    assert categories_of(swapped, "p1") == ("newcat",)


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
    # CRLF line ends: every line keeps its CRLF, which JSON reads as
    # whitespace, and a quoted CRLF inside a CSV field survives as written
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
    assert corpus.citation_counts == (1, 0)
    assert len(corpus.journals) == 4
    assert corpus.journals["jx"].title == "Two\r\nLines"
    assert digests == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (papers_path, journals_path)
    }


def test_bare_cr_does_not_end_a_line(tmp_path) -> None:
    # JSON Lines ends records with LF (CRLF is read as LF plus whitespace);
    # a file whose records end in a bare CR is one line holding them all
    papers_path = tmp_path / "papers.jsonl"
    journals_path = tmp_path / "journals.csv"
    papers_path.write_bytes(
        b'{"id":"p1","year":2005,"journal":"jvr","references":[]}\r'
        b'{"id":"p2","year":2006,"journal":"circ","references":["p1"]}\r'
    )
    journals_path.write_text(CARDIOLOGY_JOURNALS_CSV, encoding="utf-8")
    with pytest.raises(ParseError) as exc_info:
        load_corpus(papers_path, journals_path)
    assert str(exc_info.value) == "line 1: malformed JSON (Extra data)"


def test_read_hashed_covers_bytes_the_parser_left_unread(tmp_path) -> None:
    path = tmp_path / "big.txt"
    path.write_bytes(b"first line\n" + b"x" * 200_000 + b"\nlast\n")
    first, digest = read_hashed(path, next)
    assert first == "first line\n"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def _record_line(number: int, year: int = 2001) -> bytes:
    return b'{"id":"p%d","year":%d,"journal":"j1","references":[]}\n' % (number, year)


@pytest.mark.parametrize("bad, not_utf8", [(2, 4), (256, 257)])
def test_a_papers_fault_before_a_line_that_is_not_utf8_comes_first(tmp_path, bad, not_utf8):
    # The second case puts the bad value on the last line of one 256-line
    # block and the undecodable byte on the first line of the next.
    lines = [_record_line(number, 1800 if number == bad else 2001)
             for number in range(1, not_utf8 + 3)]
    lines[not_utf8 - 1] = b"\xff\n"
    path = tmp_path / "papers.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=(
        rf"^line {bad}: paper 'p{bad}': year 1800 outside \[{YEAR_MIN}, {YEAR_MAX}\]$"
    )):
        read_hashed(path, parse_papers)
    lines[bad - 1] = _record_line(bad)
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=rf"^line {not_utf8}: not UTF-8"):
        read_hashed(path, parse_papers)


def test_each_item_parse_papers_is_given_is_one_line() -> None:
    record = '{"id":"p1","year":2001,"journal":"j1","references":[]}'
    with pytest.raises(ParseError, match=r"^line 1: malformed JSON \(Extra data\)$"):
        parse_papers([record + "\n" + record, "\n"])
    with pytest.raises(ParseError, match=r"^line 1: malformed JSON \(Extra data\)$"):
        parse_papers([record + "\x00" + record, "{}"])
    # An item without a line end is still one line.
    assert len(parse_papers([record, record.replace("p1", "p2") + "\n"])) == 2


def test_the_parse_holds_a_block_not_the_file(tmp_path) -> None:
    # Past the papers it returns, a parse holds one block of lines and its
    # columns at a time (about 0.4 MB), and its table of shared values
    # (``canon``), which grows with the distinct values. A block of a whole
    # 2,000-line file costs about 2 MB here, and of a 20,000-line one 20 MB.
    excess = {}
    for per_year in (100, 1000):
        config = SynthConfig((FieldSpec("sparse", 3.0, per_year), FieldSpec("dense", 8.0, per_year)),
                             (2000, 2009), seed=42)
        path = tmp_path / f"papers-{per_year}.jsonl"
        path.write_bytes(generate_corpus(config)[0])
        gc.collect()
        tracemalloc.start()
        try:
            papers = read_hashed(path, parse_papers)[0]
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = {value for paper in papers
                    for value in (paper.id, paper.year, paper.journal_id, *paper.references)}
        excess[len(papers)] = (peak - retained, sys.getsizeof(dict.fromkeys(distinct)))
    (small, _), (large, canon) = excess[2000], excess[20000]
    assert small < 1_000_000
    assert large - small < 2 * canon


@pytest.mark.parametrize("spelling", [
    pytest.param(lambda text: text[:-1], id="unterminated-last-line"),
    pytest.param(lambda text: text.replace("\n", "\r\n"), id="crlf"),
    pytest.param(lambda text: text[:-1] + "\r", id="cr-after-the-last-line"),
])
def test_line_ends_read_to_the_same_papers(tmp_path, spelling) -> None:
    text = b"".join(map(_record_line, range(1, 301))).decode("utf-8")
    path = tmp_path / "papers.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    expected = read_hashed(path, parse_papers)[0]
    path.write_text(spelling(text), encoding="utf-8", newline="")
    papers, digest = read_hashed(path, parse_papers)
    assert papers == expected and len(papers) == 300
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


_SMALL_CATEGORIES = {journal.id: journal.categories for journal in SMALL_JOURNALS}

# What ``small_corpus`` must keep drawing, as predicates on (papers, window),
# so that narrowing it fails here and not quietly in every property.
SMALL_CORPUS_FEATURES = {
    "an override": lambda ps, w: any(p.raw_citation_count is not None for p in ps),
    "an external key": lambda ps, w: any(r.startswith("ext:") for p in ps for r in p.references),
    "a repeated key": lambda ps, w: any(len(set(p.references)) < len(p.references) for p in ps),
    # ids are p00, p01, ..., so a later line has a greater id
    "a forward reference": lambda ps, w: any(p.id < r and not r.startswith("ext:")
                                             for p in ps for r in p.references),
    "a zero-mean cell with n > 1": lambda ps, w: any(
        cell.n > 1 and cell.mean_citations == 0
        for cell in compute_baselines(build_corpus(ps, SMALL_JOURNALS, w)).cells.values()
    ),
    "journals with 1 and with 3 categories": lambda ps, w: (
        {1, 3} <= {len(_SMALL_CATEGORIES[p.journal_id]) for p in ps}
    ),
    # more (journal, year) pairs than (categories, year) keys
    "two journals sharing a cell key in one year": lambda ps, w: (
        len({(p.journal_id, p.year) for p in ps})
        > len({(_SMALL_CATEGORIES[p.journal_id], p.year) for p in ps})
    ),
    "a window that drops an edge": lambda ps, w: (
        build_corpus(ps, SMALL_JOURNALS, w).n_edges < build_corpus(ps, SMALL_JOURNALS).n_edges
    ),
    "an 8-year span": lambda ps, w: max(p.year for p in ps) - min(p.year for p in ps) == 7,
}


def test_small_corpus_draws_every_feature() -> None:
    # Generation only: shrinking the examples found would take minutes. The
    # rarest feature, the 8-year span, took up to 437 draws over 60 random
    # seeds, so the search may take 2000.
    search = settings(max_examples=2000, phases=[Phase.generate], derandomize=True, database=None)
    for feature, holds in SMALL_CORPUS_FEATURES.items():
        papers, window = find(small_corpus(), lambda case: holds(*case), settings=search)
        assert holds(papers, window), feature


@given(small_corpus())
@settings(max_examples=200)
def test_edge_symmetry(case) -> None:
    # A paper's count and fractional value stand on exactly the distinct
    # papers whose list names it and whose year its window admits: no citer
    # missed, none counted twice, none from outside the window. A paper
    # with an override holds it instead, and the edges count every citer.
    papers, window = case
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    fractional = fractional_scores(corpus, list(corpus.papers))
    edges = 0
    for cited, count, value in zip(papers, corpus.citation_counts, fractional):
        citing = [
            paper for paper in papers
            if cited.id in paper.references and paper.year in window.citing_years(cited.year)
        ]
        edges += len(citing)
        if cited.raw_citation_count is None:
            assert count == len(citing)
            assert value == math.fsum(1.0 / len(paper.references) for paper in citing)
        else:
            assert count == cited.raw_citation_count
    assert corpus.n_edges == edges


@given(small_corpus())
@settings(max_examples=200)
def test_citation_total_equals_resolvable_pairs(case) -> None:
    papers, _ = case
    corpus = build_corpus(papers, SMALL_JOURNALS, CitationWindow.all())
    ids = {paper.id for paper in papers}
    pairs = {
        (paper.id, ref)
        for paper in papers
        for ref in paper.references
        if ref in ids
    }
    assert corpus.n_edges == len(pairs)
    # each citing paper spreads its 1/R once over each resolvable key
    by_id = {paper.id: paper for paper in papers}
    fractional = fractional_scores(corpus, list(corpus.papers))
    spread = [1.0 / len(by_id[citing].references)
              for citing, ref in pairs if by_id[ref].raw_citation_count is None]
    assert math.fsum(filter(None, fractional)) == pytest.approx(math.fsum(spread), abs=1e-12)


@given(small_corpus())
@settings(max_examples=50)
def test_build_is_deterministic(case) -> None:
    papers, window = case
    first = build_corpus(papers, SMALL_JOURNALS, window)
    second = build_corpus(list(papers), SMALL_JOURNALS, window)
    assert first.citation_counts == second.citation_counts
    ids = list(first.papers)
    assert fractional_scores(first, ids) == fractional_scores(second, ids)
    assert list(first.papers) == list(second.papers)


def _bits(values) -> list:
    return [None if value is None else value.hex() for value in values]


@given(small_corpus(), st.data())
@settings(max_examples=300)
def test_build_matches_the_reference_build(case, data) -> None:
    papers, window = case
    expected = reference_cited_by(papers, window)
    by_id = {paper.id: paper for paper in papers}
    fractional = {
        paper_id: None if by_id[paper_id].raw_citation_count is not None
        else math.fsum(1.0 / len(by_id[citing_id].references) for citing_id in citers)
        for paper_id, citers in expected.items()
    }
    ids = [paper.id for paper in papers]
    subset = data.draw(st.lists(st.sampled_from(ids), unique=True), label="subset")
    for source in (papers, parse_papers(jsonl_lines(papers))):
        corpus = build_corpus(source, SMALL_JOURNALS, window)
        # ``compute_baselines`` walks the counts and the papers in step
        assert type(corpus.citation_counts) is tuple
        assert len(corpus.citation_counts) == len(corpus.papers)
        for paper_id, count in zip(corpus.papers, corpus.citation_counts):
            override = by_id[paper_id].raw_citation_count
            assert count == (len(expected[paper_id]) if override is None else override)
        # a pass's fractional column, bit for bit, whichever papers it lists
        for listed in (subset, ids):
            scored = score_papers(corpus, listed, Weighting.HARMONIC)
            assert _bits(scored.fractional) == _bits(
                map(fractional.__getitem__, sorted(listed))
            )
        assert corpus.n_edges == sum(len(citers) for citers in expected.values())
        rescheme = corpus.with_journals(SMALL_JOURNALS[::-1])
        assert rescheme.citation_counts is corpus.citation_counts
        assert rescheme.n_external == corpus.n_external


def test_the_build_holds_no_per_paper_citer_container() -> None:
    # 2x10^4 papers with about 5 references each. Measured on CPython
    # 3.11: a build that kept a citer tuple and a 1/R weight per paper
    # allocated 133 B net and peaked at 173 B per paper; the count column
    # allocates 29 B net, its paper map and the column, and peaks at 61 B,
    # with the tally. The bounds leave room for the larger dict entries of
    # 3.10.
    config = SynthConfig(
        (FieldSpec("sparse", 3.0, 1000), FieldSpec("dense", 8.0, 1000)), (2000, 2009),
        multi_category_journal_fraction=1.0, seed=42)
    papers_bytes, journals_bytes = generate_corpus(config)
    papers = parse_papers(papers_bytes.decode("utf-8").splitlines())
    journals = parse_journals(journals_bytes.decode("utf-8").splitlines())
    del papers_bytes
    tracemalloc.start()
    try:
        corpus = build_corpus(papers, journals)
        net, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus.papers) == 20_000 and corpus.n_edges > 90_000
    assert net / len(papers) < 64
    assert peak / len(papers) < 112


@given(small_corpus())
@settings(max_examples=100)
def test_parse_shares_one_string_per_key(case) -> None:
    papers, _ = case
    parsed = parse_papers(jsonl_lines(papers))
    assert parsed == papers
    corpus = build_corpus(parsed, SMALL_JOURNALS)
    first_seen: dict[str, str] = {}
    for paper in parsed:
        for key in (paper.id, *paper.references):
            assert key is first_seen.setdefault(key, key)
            if key in corpus.papers:
                assert key is corpus.papers[key].id
    first_journal: dict[str, str] = {}
    first_year: dict[int, int] = {}
    for paper in parsed:
        assert paper.journal_id is first_journal.setdefault(paper.journal_id, paper.journal_id)
        assert paper.year is first_year.setdefault(paper.year, paper.year)


@given(small_corpus(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_baselines_do_not_depend_on_paper_order(case, rng) -> None:
    papers, window = case
    shuffled = list(papers)
    rng.shuffle(shuffled)
    first = compute_baselines(build_corpus(papers, SMALL_JOURNALS, window))
    second = compute_baselines(build_corpus(shuffled, SMALL_JOURNALS, window))
    assert first.cells == second.cells


def test_with_journals_builds_the_baseline_table_of_its_own_scheme() -> None:
    papers = parse_papers([
        '{"id":"p1","year":2005,"journal":"circ","references":[]}',
        '{"id":"p2","year":2005,"journal":"jvr","references":["p1"]}',
        '{"id":"p3","year":2006,"journal":"ajc","references":["p1","p2"]}',
    ])
    corpus = build_corpus(papers, parse_journals(CARDIOLOGY_JOURNALS_CSV.splitlines()))
    primary = corpus.with_journals(primary_only_scheme(list(corpus.journals.values())))
    table, primary_table = compute_baselines(corpus), compute_baselines(primary)
    assert primary_table != table
    assert set(primary_table.cells) < set(table.cells)


def _set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever the test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    _set_gc(was_enabled)


def _write_inputs(tmp_path, lines: list[str]):
    papers_path = tmp_path / "papers.jsonl"
    journals_path = tmp_path / "journals.csv"
    papers_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    journals_path.write_text(CARDIOLOGY_JOURNALS_CSV, encoding="utf-8")
    return papers_path, journals_path


GOOD_LINES = [
    '{"id":"p1","year":2005,"journal":"jvr","references":["p2","doi:x"]}',
    '{"id":"p2","year":2006,"journal":"circ","references":["p1","p1"]}',
]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_corpus_restores_the_collector_state(tmp_path, gc_state, enabled) -> None:
    papers_path, journals_path = _write_inputs(tmp_path, GOOD_LINES)
    _set_gc(enabled)
    corpus = load_corpus(papers_path, journals_path)
    assert gc.isenabled() is enabled
    assert corpus.citation_counts == (1, 1)
    assert fractional_scores(corpus, ["p1", "p2"]) == [0.5, 0.5]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_corpus_restores_the_collector_state_after_an_error(
    tmp_path, gc_state, enabled
) -> None:
    papers_path, journals_path = _write_inputs(tmp_path, [*GOOD_LINES, "{not json"])
    _set_gc(enabled)
    with pytest.raises(ParseError, match="^line 3: malformed JSON"):
        load_corpus(papers_path, journals_path)
    assert gc.isenabled() is enabled


def test_load_corpus_parses_and_builds_with_the_collector_paused(
    tmp_path, gc_state, monkeypatch
) -> None:
    import crown.corpus as corpus_module

    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("parse_papers", "parse_journals", "build_corpus"):
        monkeypatch.setattr(corpus_module, name, spy(name, getattr(corpus_module, name)))
    papers_path, journals_path = _write_inputs(tmp_path, GOOD_LINES)
    gc.enable()
    load_corpus(papers_path, journals_path)
    assert seen == [
        ("parse_papers", False), ("parse_journals", False), ("build_corpus", False)
    ]
    assert gc.isenabled()


def test_external_keys_count_every_occurrence_whatever_the_window() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2005, "j1", ("p1", "doi:x", "doi:y", "doi:x")),
        Paper("p3", 2005, "j1", ("doi:x", "p2")),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))], CitationWindow.fixed_years(1))
    assert fractional_scores(corpus, ["p1", "p2", "p3"]) == [0.0, 0.5, 0.0]
    assert corpus.citation_counts == (0, 1, 0)
    assert corpus.n_external == 4


@given(small_corpus())
@settings(max_examples=200)
def test_external_count_matches_a_rescan(case) -> None:
    papers, window = case
    ids = {paper.id for paper in papers}
    rescan = sum(ref not in ids for paper in papers for ref in paper.references)
    assert build_corpus(papers, SMALL_JOURNALS, window).n_external == rescan


@pytest.mark.parametrize("window", ["all", None, 5])
def test_a_window_that_is_not_a_citation_window_is_refused(tmp_path, window) -> None:
    message = f"^window must be a CitationWindow, got {re.escape(repr(window))}$"
    with pytest.raises(ValueError, match=message):
        build_corpus([Paper("p1", 2000, "j1", ())], [Journal("j1", "J", ("cat",))], window)
    # refused before either file is read: neither exists
    with pytest.raises(ValueError, match=message):
        load_corpus(tmp_path / "papers.jsonl", tmp_path / "journals.csv", window)


_SURROGATE = "a lone surrogate, which UTF-8 cannot encode"


@given(st.text(), st.integers(0xD800, 0xDFFF).map(chr), st.text())
@settings(max_examples=100)
def test_echo_rules_refuse_a_lone_surrogate(head, surrogate, tail) -> None:
    text = head + surrogate + tail
    for tab in (True, False):
        with pytest.raises(CorpusError, match=f"^x {re.escape(repr(text))} holds {_SURROGATE}$"):
            check_echoed(text, "x", tab)
        assert _echo_fault(head + tail, tab) != f"holds {_SURROGATE}"


def test_a_leading_hash_is_rejected_where_a_report_row_starts() -> None:
    # A baselines row starts with a category and a score row with a group
    # name; a reader that skips '#' lines would skip that row.
    comment = "starts with '#', which marks a comment line$"
    with pytest.raises(ParseError, match="^line 3: journal 'k': category '#b' " + comment):
        parse_journals(["id,title,categories", "j,J,a", "k,K,a|#b"])
    with pytest.raises(CorpusError, match="^group name '#g' " + comment):
        group_name("dir/#g.txt")
    # elsewhere in a field, and in a header value, a '#' is plain text
    assert Journal("j", "J", ("a#b",)).categories == ("a#b",)
    assert group_name("#dir/g#.txt") == "g#"
    assert check_echoed("#x", "path", tab=False) == "#x"


def test_a_lone_surrogate_is_rejected_at_every_echo_site() -> None:
    message = f"holds {_SURROGATE}$"
    with pytest.raises(CorpusError, match=r"^paper id 'p\\ud800' " + message):
        Paper("p\ud800", 2000, "j1")
    with pytest.raises(CorpusError, match=r"^journal 'j': category 'a\\udcff' " + message):
        Journal("j", "J", ("a\udcff",))
    with pytest.raises(CorpusError, match=r"^group name 'g\\udcff' " + message):
        group_name("dir/g\udcff.txt")
    assert group_name("dir/g \u00e9.txt") == "g \u00e9"
    # a JSON escape decodes to a lone surrogate; the record's line is named
    good = '{"id":"p1","year":2005,"journal":"j1","references":[]}'
    bad = '{"id":"p\\ud800","year":2005,"journal":"j1","references":[]}'
    with pytest.raises(ParseError, match=r"^line 2: paper id 'p\\ud800' " + message):
        parse_papers([good, bad])
    # an escaped surrogate pair is one code point, which UTF-8 encodes
    pair = '{"id":"p\\ud83d\\ude00","year":2005,"journal":"j1","references":[]}'
    (paper,) = parse_papers([pair])
    assert paper.id == "p\U0001f600"


GROUP_IDS = ("p0", "p1", "p2", "a b", "\u00e9", "x#y")
GROUP_CORPUS = build_corpus(
    [Paper(paper_id, 2000, "j1") for paper_id in GROUP_IDS], [Journal("j1", "J", ("cat",))]
)


@st.composite
def group_file(draw):
    """Group-file text listing distinct corpus ids, with blank, comment and
    padded lines, and, for some files, one unknown or repeated id; returns
    (text, listed ids, (line, message) of the expected error or None)."""
    ids = draw(st.lists(st.sampled_from(GROUP_IDS), unique=True, max_size=len(GROUP_IDS)))
    filler = st.sampled_from(["", "  ", "\t", "#", "# p1", "  #p2", "#\tcomment"])
    pad = st.sampled_from(["", " ", "\t", "\u3000"])
    lines, first_line = [], {}
    for paper_id in ids:
        lines.extend(draw(st.lists(filler, max_size=2)))
        lines.append(draw(pad) + paper_id + draw(pad))
        first_line[paper_id] = len(lines)
    lines.extend(draw(st.lists(filler, max_size=2)))
    error = None
    fault = draw(st.sampled_from([None, "unknown", "repeated"]))
    if fault == "unknown" or (fault == "repeated" and ids):
        position = draw(st.integers(0, len(lines)))
        earlier = [paper_id for paper_id in ids if first_line[paper_id] <= position]
        if fault == "unknown":
            bad, message = "ghost", "group 'g': unknown paper 'ghost'"
        elif earlier:
            bad = draw(st.sampled_from(earlier))
            message = (f"group 'g' lists paper {bad!r} twice "
                       f"(first on line {first_line[bad]})")
        if fault == "unknown" or earlier:
            lines.insert(position, draw(pad) + bad)
            error = (position + 1, message)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + ending.join(lines)
    text += draw(st.sampled_from(["", ending]))
    if error is None and not ids:
        # a last line is one that holds a byte; a file with none is line 1
        last_line = text.count("\n") + (not text.endswith("\n") and text != "")
        error = (max(last_line, 1), "group 'g' is empty")
    return text, ids, error


@given(group_file())
@settings(max_examples=300)
def test_reading_a_group_file_resolves_the_ids_it_lists(tmp_path_factory, case) -> None:
    text, ids, error = case
    path = tmp_path_factory.mktemp("group") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    digests: dict[str, str] = {}
    if error is None:
        group = GroupSelection.read(path, GROUP_CORPUS, digests)
        assert group == GroupSelection.resolve("g", ids, GROUP_CORPUS)
        assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    else:
        line_no, message = error
        with pytest.raises(ParseError) as exc_info:
            GroupSelection.read(path, GROUP_CORPUS, digests)
        assert exc_info.value.line_no == line_no
        assert str(exc_info.value) == f"line {line_no}: {message}"


def test_a_group_file_without_bytes_is_empty_at_line_one(tmp_path) -> None:
    path = tmp_path / "none.txt"
    path.write_bytes(b"")
    with pytest.raises(ParseError, match="^line 1: group 'none' is empty$"):
        GroupSelection.read(path, GROUP_CORPUS)


def test_resolve_lists_every_item_it_is_given() -> None:
    # only a group-file line can list nothing; None is no paper id
    with pytest.raises(ParseError, match="^line 2: group 'g': unknown paper None$"):
        GroupSelection.resolve("g", ["p0", None, "p1"], GROUP_CORPUS)
    # an unhashable item too, not a raw TypeError from the lookup
    with pytest.raises(ParseError, match=r"^line 1: group 'g': unknown paper \['p1'\]$"):
        GroupSelection.resolve("g", [["p1"]], GROUP_CORPUS)


def test_a_group_holds_the_corpus_id_objects(tmp_path) -> None:
    # A score pass matches a group's ids against reference keys, which are
    # the corpus's own objects, so the group holds those, not equal copies.
    ids = list(GROUP_CORPUS.papers)[::-1]
    copies = [(paper_id + "\n")[:-1] for paper_id in ids]
    assert copies == ids and copies[0] is not ids[0]
    path = tmp_path / "g.txt"
    path.write_text("".join(f" {paper_id}\n" for paper_id in ids), encoding="utf-8")
    for group in (
        GroupSelection.resolve("g", copies, GROUP_CORPUS),
        GroupSelection.read(path, GROUP_CORPUS),
    ):
        assert group.paper_ids == tuple(ids)
        for i, paper_id in enumerate(ids):
            assert group.paper_ids[i] is GROUP_CORPUS.papers[paper_id].id


def test_a_group_file_fault_before_a_line_that_is_not_utf8_comes_first(tmp_path) -> None:
    path = tmp_path / "g.txt"
    path.write_bytes(b"p0\nghost\np1\n\xff\n")
    with pytest.raises(ParseError, match="^line 2: group 'g': unknown paper 'ghost'$"):
        GroupSelection.read(path, GROUP_CORPUS)
    path.write_bytes(b"p0\n\np1\n\xff\n")
    with pytest.raises(ParseError, match="^line 4: not UTF-8"):
        GroupSelection.read(path, GROUP_CORPUS)


def test_a_synth_corpus_and_a_clean_group_file_take_the_fast_paths(
    tmp_path, monkeypatch
) -> None:
    # Every ``crown synth`` line is a record in the documented key order, so
    # the decode's hook builds each paper and no line reaches the worded
    # record checks; a group file that breaks no rule is resolved without
    # the numbered walk. Either fallback would only be slower, so it is
    # pinned here.
    import crown.corpus as corpus_module

    def refuse(*args):
        raise AssertionError("a fast path fell back")

    config = SynthConfig(
        (FieldSpec("sparse", 3.0, 30), FieldSpec("dense", 8.0, 30)), (2000, 2004),
        multi_category_journal_fraction=1.0, seed=42)
    papers_bytes, journals_bytes = generate_corpus(config)
    monkeypatch.setattr(corpus_module, "_paper_from_record", refuse)
    monkeypatch.setattr(corpus_module, "_check_listed", refuse)
    papers = parse_papers(papers_bytes.decode("utf-8").splitlines(keepends=True))
    assert len(papers) == 300 and all(type(paper) is Paper for paper in papers)
    corpus = build_corpus(papers, parse_journals(journals_bytes.decode("utf-8").splitlines()))
    ids = list(corpus.papers)
    path = tmp_path / "all.txt"
    path.write_text("# every paper\n\n" + "".join(f" {paper_id}\n" for paper_id in ids),
                    encoding="utf-8")
    assert GroupSelection.read(path, corpus).paper_ids == tuple(ids)
    assert GroupSelection.resolve("all", ids, corpus).paper_ids == tuple(ids)


def test_group_selection_keeps_its_import_paths() -> None:
    import crown
    import crown.indicators

    assert crown.GroupSelection is GroupSelection is crown.indicators.GroupSelection
    assert not hasattr(GroupSelection, "resolve_numbered")


# ``parse_papers`` against the plain per-line decode: every line through
# ``JSONDecoder.decode`` with its own duplicate-key hook and error wording,
# and every record through its own statement of the record checks, so that
# no check the parse runs is its own oracle.
class _RepeatedKey(Exception):
    pass


def _reference_object(pairs: list) -> dict:
    keys = [key for key, _ in pairs]
    for index, key in enumerate(keys):
        if key in keys[:index]:
            raise _RepeatedKey(key)
    return dict(pairs)


_REFERENCE_JSON = json.JSONDecoder(object_pairs_hook=_reference_object)


def _reference_paper(record: dict, line_no: int) -> Paper:
    """The record checks as plainly stated: the JSON shape, then the call."""
    for key in ("id", "year", "journal", "references"):
        if key not in record:
            raise ParseError(line_no, f"missing required field {key!r}")
    paper_id, year, journal_id, references = (
        record["id"], record["year"], record["journal"], record["references"])
    citations = record.get("citations")
    if type(paper_id) is not str:
        raise ParseError(line_no, "field 'id' must be a string")
    if type(year) is not int:
        raise ParseError(line_no, "field 'year' must be an integer")
    if type(journal_id) is not str or not journal_id:
        raise ParseError(line_no, "field 'journal' must be a non-empty string")
    if type(references) is not list or any(type(key) is not str for key in references):
        raise ParseError(line_no, "field 'references' must be a list of strings")
    if citations is not None and type(citations) is not int:
        raise ParseError(line_no, "field 'citations' must be an integer")
    try:
        return Paper(paper_id, year, journal_id, tuple(references), citations)
    except CorpusError as exc:
        raise ParseError(line_no, str(exc)) from exc


def _reference_parse(lines) -> list[Paper]:
    papers: list[Paper] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            record = _REFERENCE_JSON.decode(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"malformed JSON ({exc.msg})") from exc
        except _RepeatedKey as exc:
            raise ParseError(line_no, f"duplicate key {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(line_no, f"unreadable JSON value ({exc})") from exc
        except RecursionError as exc:
            raise ParseError(line_no, "malformed JSON (nested too deeply)") from exc
        if not isinstance(record, dict):
            raise ParseError(line_no, "expected a JSON object")
        papers.append(_reference_paper(record, line_no))
    return papers


@st.composite
def _paper_object(draw) -> dict:
    """A paper-shaped JSON object, keys in the documented order, its values
    valid or not, to nest inside a record."""
    record = {
        "id": draw(st.sampled_from(["n1", "#n", ""])),
        "year": draw(st.sampled_from([2001, YEAR_MIN - 1])),
        "journal": "j1",
        "references": draw(st.lists(st.sampled_from(["q1", "n1"]), max_size=2)),
    }
    if draw(st.booleans()):
        record["citations"] = draw(st.sampled_from([0, 3, -1]))
    return record


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
) | _paper_object()
_SEPARATORS = st.sampled_from([(",", ":"), (", ", ": "), (",\r", ":\r"), (" ,\t", " : ")])
_PADDING = st.sampled_from(["", " ", "\t", "  \t", "\r", " \r"])


def _spell(draw, items: list, compact: bool = False) -> str:
    """One JSON object of ``items`` as one line's text, without a line end:
    unless ``compact``, some keys spelled with ``\\u`` escapes, and JSON
    whitespace (a bare CR included) between tokens."""
    comma, colon = (",", ":") if compact else draw(_SEPARATORS)
    ascii_only = draw(st.booleans())
    members = []
    for key, value in items:
        if not compact and draw(st.booleans()):
            name = '"' + "".join(f"\\u{ord(char):04x}" for char in key) + '"'
        else:
            name = json.dumps(key, ensure_ascii=ascii_only)
        text = json.dumps(value, separators=(comma, colon), ensure_ascii=ascii_only)
        members.append(name + colon + text)
    return "{" + comma.join(members) + "}"


@st.composite
def _spelled_record(draw, compact: bool = False) -> str:
    """One valid papers record as one line's text: for about half the
    records the keys come in the documented order, ``citations`` fifth when
    present, else permuted; an unknown key, which may hold a paper-shaped
    object, comes last in the documented order. A ``compact`` record is in
    the documented order and spelled as ``crown synth`` writes, but for the
    escapes that ``json.dumps`` may write in its values."""
    record: dict = {
        "id": draw(st.sampled_from(["p1", "p2", "a b", "é", "x#y", "doi:10.1/x", "\x00"])),
        "year": draw(st.integers(2000, 2003)),
        "journal": draw(st.sampled_from(["j1", "j2"])),
        "references": draw(st.lists(st.sampled_from(["q1", "q2", "ext:a"]), max_size=3)),
    }
    if draw(st.booleans()):
        record["citations"] = draw(st.integers(0, 9) if compact else st.none() | st.integers(0, 9))
    if compact:
        return _spell(draw, list(record.items()), compact)
    if draw(st.booleans()):
        record[draw(st.sampled_from(["extra", "x", "ü"]))] = draw(_JSON_VALUES)
    items = list(record.items())
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    return _spell(draw, items)


# One flaw each, set into a record in the documented key order, so that the
# parse's fast path meets it: a value the record checks refuse, a documented
# key renamed in place, or a fifth key that is not ``citations``. The test
# lowers ``MAX_REFERENCES`` to 3 for the long list.
_FLAWS = [
    *(("id", value) for value in (5, "", "#p", " p", "p ", "\tp", "p\u2028", "\u3000p")),
    *(("year", value) for value in (2001.0, YEAR_MIN - 1, YEAR_MAX + 1)),
    *(("journal", value) for value in (5, "")),
    *(("references", value) for value in (
        "q1", [1], [{"id": "n1", "year": 2001, "journal": "j1", "references": []}],
        ["q1", "q2", "ext:a", "ext:b"], ["q1", "f1"])),
    *(("citations", value) for value in (-1, 2.5)),
    *(("rename", key) for key in ("id", "year", "journal", "references")),
    ("fifth", "extra"), ("fifth", "year"),  # the second repeats a key at the end
]


def _flawed_items(kind: str, value: object, citations: bool) -> list:
    """A record's (key, value) pairs in the documented order, with one flaw."""
    items = [("id", "f1"), ("year", 2001), ("journal", "j1"), ("references", ["q1"])]
    if citations:
        items.append(("citations", 2))
    if kind == "rename":
        return [(key.upper() if key == value else key, item) for key, item in items]
    if kind == "fifth":
        return items[:4] + [(value, 7)]
    if kind in dict(items):
        return [(key, value if key == kind else item) for key, item in items]
    return items + [(kind, value)]


@st.composite
def _flawed_record(draw, compact: bool = False) -> str:
    flaw = draw(st.sampled_from(_FLAWS))
    return _spell(draw, _flawed_items(*flaw, draw(st.booleans())), compact)


# Compact lines, each in the documented key order or nearly, that the
# compact pattern must refuse, or read as the decode does: string values
# with escapes, a raw control character (which JSON refuses in a string),
# an unknown key between two documented ones, an empty reference key,
# reference keys that hold commas, and numbers the pattern does not take.
_COMPACT_EDGES = [
    '{"id":"p\\u0031","year":2001,"journal":"j\\u0031","references":["q\\u0031"]}',
    '{"id":"p\\"1","year":2001,"journal":"j1","references":[]}',
    '{"id":"p1","year":2001,"journal":"j\\\\","references":["q\\"1"]}',
    '{"id":"p\t1","year":2001,"journal":"j1","references":[]}',
    '{"id":"p1","year":2001,"journal":"j\x01","references":[]}',
    '{"id":"p1","year":2001,"journal":"j1","references":["q1","\x1f"]}',
    '{"id":"p1","x":"y","year":2001,"journal":"j1","references":[]}',
    '{"id":"p1","year":2001,"journal":"j1","references":["q1",""]}',
    '{"id":"p1","year":2001,"journal":"j1","references":[",","a,",",b",","]}',
    '{"id":"p1","year":2001,"journal":"j1","references":["a",",","b"]}',
    '{"id":"p1","year":2001,"journal":"j1","references":[""]}',
    '{"id":"p1","year":2001,"journal":"j1","references":[],"citations":00}',
    '{"id":"p1","year":2001,"journal":"j1","references":[],"citations":-0}',
    '{"id":"p1","year":02001,"journal":"j1","references":[]}',
    '{"id":"p1","year":2001,"journal":"j1","references":[],"citations":12345678901234567890}',
]


def _with_every_flaw(test):
    """Run ``test`` on each flaw, with and without ``citations``, right
    after a valid line, spelled compactly (so that the flaw meets the
    compact pattern and the column checks) and spaced (so that it meets the
    worded record checks), and on each compact edge case, as well as on the
    files it draws."""
    valid = '{"id":"p1","year":2000,"journal":"j1","references":[]}\n'
    for flaw in _FLAWS:
        for citations in (False, True):
            items = _flawed_items(*flaw, citations)
            for comma, colon in ((",", ":"), (", ", ": ")):
                record = comma.join(
                    json.dumps(key) + colon
                    + json.dumps(value, separators=(comma, colon), ensure_ascii=False)
                    for key, value in items)
                test = example(data=f"{valid}{{{record}}}\n".encode("utf-8"))(test)
    for line in _COMPACT_EDGES:
        test = example(data=f"{valid}{line}\n{valid}".encode("utf-8"))(test)
    return test


def _faulty_lines(record: str) -> list[str]:
    """Lines that break the decode, each built around a valid record's text."""
    body = record[:-1] + ","
    return [
        record + record,  # two objects
        record + " " + record,
        record + "x",  # trailing garbage
        record + ",",
        "[" + record + "]",  # not an object
        "3", '"p1"', "null", "[]",
        "", "  \t",  # blank
        body + '"year":2001}',  # a top-level key repeated
        '{"\\u0069d":"z",' + record[1:],  # spelled two ways
        body + '"x2":{"a":1,"\\u0061":2}}',  # repeated inside a nested object
        body + '"big":' + "1" * 5000 + "}",  # past the integer digit limit
        body + '"deep":' + "[" * 100_000 + "}",  # nested too deeply
        record[:-1],  # unterminated
    ]


@st.composite
def papers_file(draw) -> bytes:
    """A papers file in any spelling ``parse_papers`` reads, and for most
    files one faulty line, often right after a valid one: a line the decode
    refuses, or a record with one flaw in the documented key order. In a
    compact file every line but the faulty one is spelled as ``crown
    synth`` writes, and so is a flawed record, so that it meets the checks
    the compact lines take."""
    compact = draw(st.booleans())
    records = draw(st.lists(_spelled_record(compact), min_size=1, max_size=4))
    lines = records if compact else [draw(_PADDING) + record + draw(_PADDING)
                                     for record in records]
    fault = draw(st.integers(0, 3))
    if fault == 1:
        fault_line = draw(st.sampled_from(_faulty_lines(draw(st.sampled_from(records)))))
    elif fault:
        fault_line = draw(_flawed_record(compact))
    if fault:
        lines.insert(draw(st.integers(1, len(lines))), fault_line)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["", "\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + "".join(map(str.__add__, lines, ends))).encode("utf-8")


def _parsed_or_error(path, parse):
    try:
        return read_hashed(path, parse)[0]
    except ParseError as exc:
        return exc.line_no, str(exc)


@given(papers_file())
@_with_every_flaw
@settings(max_examples=400, deadline=None)
def test_parse_papers_reads_every_line_as_the_plain_decode_does(tmp_path_factory, data) -> None:
    path = tmp_path_factory.mktemp("papers") / "papers.jsonl"
    path.write_bytes(data)
    with unittest.mock.patch("crown.corpus.MAX_REFERENCES", 3):
        assert _parsed_or_error(path, parse_papers) == _parsed_or_error(path, _reference_parse)
