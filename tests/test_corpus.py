from __future__ import annotations

import gc
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.baselines import Weighting, compute_baselines
from crown.corpus import (
    YEAR_MAX,
    YEAR_MIN,
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
from crown.diagnostics import primary_only_scheme
from crown.indicators import score_papers

from conftest import CARDIOLOGY_JOURNALS_CSV, categories_of


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
        (lambda: Journal("", "J", ("cat",)), "empty journal id"),
        (lambda: Journal("j1", "J", ()), "empty categories"),
        (lambda: Journal("j1", "J", ("x", "")), "empty categories"),
        (lambda: Journal("j1", "J", ("x", "x")), "repeats a category"),
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


# Each flaw breaks one of the four ``Paper`` invariants, with its message.
PAPER_FLAWS = {
    None: None,
    "empty id": "^paper id must be a non-empty string$",
    "year": r"^paper .+: year -?\d+ outside \[1900, 2100\]$",
    "self reference": "^paper .+ references itself$",
    "negative override": "^paper .+: citation override must be non-negative$",
}


@st.composite
def paper_fields(draw):
    """Five field values, valid or with one flaw; returns (fields, flaw)."""
    paper_id = draw(st.text(min_size=1, max_size=6))
    year = draw(st.integers(min_value=YEAR_MIN, max_value=YEAR_MAX))
    journal_id = draw(st.text(min_size=1, max_size=4))
    references = [
        ref for ref in draw(st.lists(st.text(max_size=4), max_size=4)) if ref != paper_id
    ]
    override = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50)))
    flaw = draw(st.sampled_from(list(PAPER_FLAWS)))
    if flaw == "empty id":
        paper_id = ""
    elif flaw == "year":
        year = draw(
            st.one_of(
                st.integers(max_value=YEAR_MIN - 1), st.integers(min_value=YEAR_MAX + 1)
            )
        )
    elif flaw == "self reference":
        references.insert(draw(st.integers(0, len(references))), paper_id)
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
    assert len(corpus.cited_by["p1"]) == 1


def test_build_corpus_window_excludes_late_citation() -> None:
    corpus = _two_paper_corpus(2010, CitationWindow.fixed_years(5))
    assert corpus.cited_by["p1"] == ()
    assert len(corpus.cited_by["p1"]) == 0


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
    assert len(corpus.papers["p2"].references) == 1
    assert corpus.n_edges == 0


def test_duplicate_reference_keys_make_one_edge_but_count_twice() -> None:
    papers = [
        Paper("p1", 2000, "j1", ()),
        Paper("p2", 2001, "j1", ("p1", "p1")),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert corpus.cited_by["p1"] == ("p2",)
    assert len(corpus.papers["p2"].references) == 2


def test_citation_count_override_beats_edges() -> None:
    papers = [
        Paper("p1", 2000, "j1", (), raw_citation_count=17),
        Paper("q1", 2001, "j1", ("p1",)),
        Paper("q2", 2001, "j1", ("p1",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("cat",))])
    assert len(corpus.cited_by["p1"]) == 2
    table = compute_baselines(corpus)
    scored = score_papers(corpus, ["q1", "p1"], Weighting.HARMONIC)
    assert scored[0].citations == 17
    assert scored[1].citations == 0
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
    assert swapped.cited_by is corpus.cited_by
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
    assert len(corpus.cited_by["p1"]) == 1
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
    assert sum(len(corpus.cited_by[pid]) for pid in ids) == len(pairs)


@given(corpus_and_window())
@settings(max_examples=50)
def test_build_is_deterministic(case) -> None:
    papers, window = case
    journals = [Journal("j1", "J", ("cat",))]
    first = build_corpus(papers, journals, window)
    second = build_corpus(list(papers), journals, window)
    assert first.cited_by == second.cited_by
    assert list(first.papers) == list(second.papers)


# Three windows, three journals (one of them in two categories), and papers
# whose reference lists repeat keys, name external keys, point forward to
# later lines, and sometimes carry a citation override.
GRAPH_WINDOWS = tuple(map(CitationWindow.parse, ("all", "years1", "years5")))
GRAPH_JOURNALS = [
    Journal("j1", "One", ("a",)),
    Journal("j2", "Two", ("b", "a")),
    Journal("j3", "Three", ("c",)),
]


@st.composite
def graph_case(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ids = [f"p{i}" for i in range(n)]
    keys = ids + ["ext:a", "ext:b"]
    papers = []
    for pid in ids:
        refs = draw(st.lists(st.sampled_from(keys), max_size=8))
        papers.append(
            Paper(
                pid,
                draw(st.integers(min_value=2000, max_value=2007)),
                draw(st.sampled_from(["j1", "j2", "j3"])),
                tuple(ref for ref in refs if ref != pid),
                draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5))),
            )
        )
    return papers, draw(st.sampled_from(GRAPH_WINDOWS))


def _jsonl(papers: list[Paper]) -> list[str]:
    lines = []
    for paper in papers:
        record = {
            "id": paper.id,
            "year": paper.year,
            "journal": paper.journal_id,
            "references": list(paper.references),
        }
        if paper.raw_citation_count is not None:
            record["citations"] = paper.raw_citation_count
        lines.append(json.dumps(record))
    return lines


def _reference_cited_by(papers: list[Paper], window: CitationWindow) -> dict:
    """The plain graph build: a set of resolved keys per citing paper."""
    paper_map = {paper.id: paper for paper in papers}
    cited_by: dict[str, list[str]] = {pid: [] for pid in paper_map}
    for citing in paper_map.values():
        resolved: set[str] = set()
        for ref in citing.references:
            cited = paper_map.get(ref)
            if cited is None or ref in resolved:
                continue
            resolved.add(ref)
            if window.admits(cited.year, citing.year):
                cited_by[ref].append(citing.id)
    return {pid: tuple(citers) for pid, citers in cited_by.items()}


@given(graph_case())
@settings(max_examples=300)
def test_build_matches_the_reference_build(case) -> None:
    papers, window = case
    expected = _reference_cited_by(papers, window)
    weights = {paper.id: 1 / len(paper.references) for paper in papers if paper.references}
    for source in (papers, parse_papers(_jsonl(papers))):
        corpus = build_corpus(source, GRAPH_JOURNALS, window)
        assert list(corpus.cited_by.items()) == list(expected.items())
        assert all(type(citers) is tuple for citers in corpus.cited_by.values())
        assert corpus.n_edges == sum(len(citers) for citers in expected.values())
        assert corpus.citing_weight == weights
        rescheme = corpus.with_journals(GRAPH_JOURNALS[::-1])
        assert rescheme.cited_by is corpus.cited_by
        assert rescheme.citing_weight is corpus.citing_weight


@given(graph_case())
@settings(max_examples=100)
def test_parse_shares_one_string_per_key(case) -> None:
    papers, _ = case
    parsed = parse_papers(_jsonl(papers))
    assert parsed == papers
    corpus = build_corpus(parsed, GRAPH_JOURNALS)
    first_seen: dict[str, str] = {}
    for paper in parsed:
        for key in (paper.id, *paper.references):
            assert key is first_seen.setdefault(key, key)
            if key in corpus.papers:
                assert key is corpus.papers[key].id
    for cited_id, citers in corpus.cited_by.items():
        for citing_id in citers:
            assert citing_id is corpus.papers[citing_id].id
    first_journal: dict[str, str] = {}
    first_year: dict[int, int] = {}
    for paper in parsed:
        assert paper.journal_id is first_journal.setdefault(paper.journal_id, paper.journal_id)
        assert paper.year is first_year.setdefault(paper.year, paper.year)


@given(graph_case(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_baselines_do_not_depend_on_paper_order(case, rng) -> None:
    papers, window = case
    shuffled = list(papers)
    rng.shuffle(shuffled)
    first = compute_baselines(build_corpus(papers, GRAPH_JOURNALS, window))
    second = compute_baselines(build_corpus(shuffled, GRAPH_JOURNALS, window))
    assert first.cells == second.cells


def test_corpus_keeps_its_own_baseline_table_per_scheme() -> None:
    papers = parse_papers([
        '{"id":"p1","year":2005,"journal":"circ","references":[]}',
        '{"id":"p2","year":2005,"journal":"jvr","references":["p1"]}',
        '{"id":"p3","year":2006,"journal":"ajc","references":["p1","p2"]}',
    ])
    corpus = build_corpus(papers, parse_journals(CARDIOLOGY_JOURNALS_CSV.splitlines()))
    assert corpus.baselines is corpus.baselines
    assert corpus.baselines == compute_baselines(corpus)
    primary = corpus.with_journals(primary_only_scheme(list(corpus.journals.values())))
    assert primary.baselines != corpus.baselines
    assert primary.baselines == compute_baselines(primary)
    assert set(primary.baselines.cells) < set(corpus.baselines.cells)


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
    assert corpus.cited_by == {"p1": ("p2",), "p2": ("p1",)}


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
