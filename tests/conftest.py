from __future__ import annotations

from crown.corpus import (
    CitationWindow,
    Corpus,
    Journal,
    build_corpus,
    parse_journals,
    parse_papers,
)
from crown.diagnostics import Counterexample
from crown.synth import SynthConfig, generate_corpus

# The three cardiology-adjacent journals whose category assignments motivate
# the indexer diagnostic: two, three, and one subject categories.
CARDIOLOGY_JOURNALS_CSV = (
    "id,title,categories\n"
    "jvr,Journal of Vascular Research,peripheral vascular disease|physiology\n"
    "circ,Circulation,cardiac and cardiovascular systems|hematology|peripheral vascular diseases\n"
    "ajc,American Journal of Cardiology,cardiac and cardiovascular systems\n"
)


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


def citation_count(corpus: Corpus, paper_id: str) -> int:
    """Oracle for the count rule: citations received within the window, a
    stored override winning."""
    paper = corpus.papers[paper_id]
    if paper.raw_citation_count is not None:
        return paper.raw_citation_count
    return len(corpus.cited_by[paper_id])


def journal_of(corpus: Corpus, paper_id: str) -> Journal:
    return corpus.journals[corpus.papers[paper_id].journal_id]


def categories_of(corpus: Corpus, paper_id: str) -> tuple[str, ...]:
    return journal_of(corpus, paper_id).categories


def is_strict_flip(example: Counterexample) -> bool:
    """A ranks strictly above B before the addition and strictly below after."""
    return example.before_a > example.before_b and example.after_a < example.after_b
