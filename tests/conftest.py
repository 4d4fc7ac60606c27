from __future__ import annotations

import json
import math
from collections.abc import Iterable
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from crown.corpus import (
    CitationWindow,
    Corpus,
    Journal,
    Paper,
    build_corpus,
    parse_journals,
    parse_papers,
)
from crown.diagnostics import (
    MEAN_OF_RATIOS,
    RATIO_OF_SUMS,
    Counterexample,
    SearchBounds,
    build_counterexample,
)
from crown.synth import SynthConfig, generate_corpus

# Every character ``str.splitlines()`` ends a line at, found by splitting the
# text of all code points rather than read from ``crown.corpus``. Each piece
# but the last ends in one break: CR LF, the one two-character break, does
# not occur in code-point order.
_ALL_CODE_POINTS = "".join(map(chr, range(0x110000)))
LINE_BREAKS = tuple(
    piece[-1] for piece in _ALL_CODE_POINTS.splitlines(keepends=True)[:-1]
)

# The three cardiology-adjacent journals whose category assignments motivate
# the indexer diagnostic: two, three, and one subject categories.
CARDIOLOGY_JOURNALS_CSV = (
    "id,title,categories\n"
    "jvr,Journal of Vascular Research,peripheral vascular disease|physiology\n"
    "circ,Circulation,cardiac and cardiovascular systems|hematology|peripheral vascular diseases\n"
    "ajc,American Journal of Cardiology,cardiac and cardiovascular systems\n"
)


# The journals of every small corpus: 1, 2, 1, 3 and 2 categories, and j2
# and j5 carry the same ones, so they share every cell key.
SMALL_JOURNALS = (
    Journal("j1", "One", ("a",)),
    Journal("j2", "Two", ("b", "a")),
    Journal("j3", "Three", ("c",)),
    Journal("j4", "Four", ("a", "b", "c")),
    Journal("j5", "Five", ("b", "a")),
)
_SMALL_WINDOWS = (CitationWindow.all(), *map(CitationWindow.fixed_years, range(1, 6)))


@st.composite
def small_corpus(draw) -> tuple[list[Paper], CitationWindow]:
    """Papers over ``SMALL_JOURNALS`` and a window to build them with: 1-12
    papers over a span of 1-8 years from 2000, each with up to 6 reference
    keys drawn from the ids and two external keys. Repeated keys and forward
    references are kept and self-references dropped; some papers carry a
    citation override. Short lists over few years leave many cells at zero
    mean, and the short windows drop edges."""
    ids = [f"p{i:02d}" for i in range(draw(st.integers(min_value=1, max_value=12)))]
    years = st.integers(min_value=2000, max_value=draw(st.integers(2000, 2007)))
    journal_ids = st.sampled_from([journal.id for journal in SMALL_JOURNALS])
    references = st.lists(st.sampled_from([*ids, "ext:a", "ext:b"]), max_size=6)
    overrides = st.one_of(st.none(), st.none(), st.integers(0, 5))
    papers = [
        Paper(pid, draw(years), draw(journal_ids),
              tuple(ref for ref in draw(references) if ref != pid), draw(overrides))
        for pid in ids
    ]
    return papers, draw(st.sampled_from(_SMALL_WINDOWS))


def jsonl_lines(papers: Iterable[Paper]) -> list[str]:
    """The papers-file line of each paper, without its line end."""
    lines = []
    for paper in papers:
        record = {"id": paper.id, "year": paper.year, "journal": paper.journal_id,
                  "references": list(paper.references)}
        if paper.raw_citation_count is not None:
            record["citations"] = paper.raw_citation_count
        lines.append(json.dumps(record))
    return lines


def corpus_from_text(
    papers_jsonl: str,
    journals_csv: str,
    window: CitationWindow = CitationWindow.all(),
) -> Corpus:
    papers = parse_papers(papers_jsonl.splitlines())
    journals = parse_journals(journals_csv.splitlines())
    return build_corpus(papers, journals, window)


def corpus_from_synth(
    config: SynthConfig, window: CitationWindow = CitationWindow.all()
) -> Corpus:
    papers_bytes, journals_bytes = generate_corpus(config)
    return corpus_from_text(
        papers_bytes.decode("utf-8"), journals_bytes.decode("utf-8"), window
    )


def reference_cited_by(papers: Iterable[Paper], window: CitationWindow) -> dict:
    """The plain graph build: per paper id, the ids of the distinct papers
    citing it inside ``window``, in papers order; a key repeated within one
    list resolves once."""
    paper_map = {paper.id: paper for paper in papers}
    cited_by: dict[str, list[str]] = {pid: [] for pid in paper_map}
    for citing in paper_map.values():
        resolved: set[str] = set()
        for ref in citing.references:
            cited = paper_map.get(ref)
            if cited is None or ref in resolved:
                continue
            resolved.add(ref)
            if window.years is None or 0 <= citing.year - cited.year < window.years:
                cited_by[ref].append(citing.id)
    return {pid: tuple(citers) for pid, citers in cited_by.items()}


def citation_count(corpus: Corpus, paper_id: str) -> int:
    """Oracle for the count rule: citations received within the window, a
    stored override winning. It counts ``reference_cited_by``, not the count
    column that the baseline table and the score pass read."""
    paper = corpus.papers[paper_id]
    if paper.raw_citation_count is not None:
        return paper.raw_citation_count
    return len(reference_cited_by(corpus.papers.values(), corpus.window)[paper_id])


def journal_of(corpus: Corpus, paper_id: str) -> Journal:
    return corpus.journals[corpus.papers[paper_id].journal_id]


def categories_of(corpus: Corpus, paper_id: str) -> tuple[str, ...]:
    return journal_of(corpus, paper_id).categories


def is_strict_flip(example: Counterexample) -> bool:
    """A ranks strictly above B before the addition and strictly below after."""
    return example.before_a > example.before_b and example.after_a < example.after_b


def brute_force_counterexample(
    indicator: str, bounds: SearchBounds
) -> Counterexample | None:
    """Oracle for the consistency search: try every (A, B, added paper)
    instance in lexicographic order and return the first flip, comparing by
    integer cross-multiplication (ratio of sums) or by ratio sums over a
    common denominator (mean of ratios, equal sizes)."""
    papers = [
        (c, e)
        for c in range(bounds.max_citations + 1)
        for e in range(1, bounds.max_expected + 1)
    ]
    scale = math.lcm(*(e for _, e in papers))

    def ahead(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> bool:
        if indicator == RATIO_OF_SUMS:
            return sum(c for c, _ in a) * sum(e for _, e in b) > sum(
                c for c, _ in b
            ) * sum(e for _, e in a)
        assert indicator == MEAN_OF_RATIOS
        return sum(c * scale // e for c, e in a) > sum(c * scale // e for c, e in b)

    for size in range(1, bounds.max_group_size + 1):
        groups = list(combinations_with_replacement(papers, size))
        for group_a in groups:
            for group_b in groups:
                if not ahead(group_a, group_b):
                    continue
                for added in papers:
                    if ahead([*group_b, added], [*group_a, added]):
                        return build_counterexample(indicator, group_a, group_b, added)
    return None
