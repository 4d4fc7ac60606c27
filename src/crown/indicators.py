"""Group-level citation-impact indicators.

Two families of field-normalized group statistics are kept deliberately side
by side: the ratio-of-sums (total citations over total expected citations,
the classic CPP/FCSm) and the mean-of-ratios (average of per-paper normalized
scores, MNCS), together with the median variant (MdNCS), percentile ranks,
top-x% shares, and citing-side fractional counting. Keeping both families in
one report makes their disagreements observable instead of hidden.

All group statistics run over scorable papers only, with the scorable and
total counts reported side by side; papers are accumulated in ascending
paper-id order so results are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
import statistics
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from .baselines import BaselineTable, FieldYearCell, Weighting, expected_citations_with_reason
from .corpus import CitationWindow, Corpus, CorpusError


class DegenerateGroupError(RuntimeError):
    """A group statistic has no papers to stand on (nothing scorable)."""

    def __init__(
        self,
        message: str,
        group: str = "",
        n_total: int = 0,
        unscorable: Sequence[tuple[str, str]] = (),
    ):
        super().__init__(message)
        self.group = group
        self.n_total = n_total
        self.unscorable = tuple(unscorable)


@dataclass(frozen=True)
class GroupSelection:
    """The set of corpus papers being evaluated as one unit."""

    name: str
    paper_ids: tuple[str, ...]

    @classmethod
    def resolve(cls, name: str, paper_ids: Iterable[str], corpus: Corpus) -> GroupSelection:
        ids = tuple(paper_ids)
        if not ids:
            raise CorpusError(f"group {name!r} is empty")
        if len(set(ids)) != len(ids):
            raise CorpusError(f"group {name!r} lists a paper twice")
        for paper_id in ids:
            if paper_id not in corpus.papers:
                raise CorpusError(f"group {name!r}: unknown paper {paper_id!r}")
        return cls(name, ids)


@dataclass(frozen=True)
class ScoredPaper:
    paper_id: str
    citations: int
    expected: float | None
    ncs: float | None
    percentile: float
    fractional: float | None
    scorable: bool
    unscorable_reason: str | None = None


@dataclass(frozen=True)
class IndicatorReport:
    group: str
    n_total: int
    n_scorable: int
    cpp_fcsm: float
    mncs: float
    mdncs: float
    pp_top: float
    mean_fractional: float
    weighting: str
    window: str
    top_x: float
    unscorable: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> str:
        """Sorted-key JSON; the top-x share is keyed ``top_label(top_x)``."""
        payload = asdict(self)
        payload[top_label(self.top_x)] = payload.pop("pp_top")
        payload["unscorable"] = [list(item) for item in self.unscorable]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> IndicatorReport:
        payload = json.loads(text)
        payload["pp_top"] = payload.pop(top_label(payload["top_x"]))
        payload["unscorable"] = tuple(
            (paper_id, reason) for paper_id, reason in payload["unscorable"]
        )
        return cls(**payload)


def cpp_fcsm(scored: Iterable[ScoredPaper]) -> float:
    """Ratio of sums: total citations over total expected citations."""
    papers = _scorable(scored)
    total_citations = sum(paper.citations for paper in papers)
    total_expected = math.fsum(paper.expected for paper in papers)
    return total_citations / total_expected


def mncs(scored: Iterable[ScoredPaper]) -> float:
    """Mean of ratios: arithmetic mean of the per-paper normalized scores."""
    papers = _scorable(scored)
    return math.fsum(paper.ncs for paper in papers) / len(papers)


def mdncs(scored: Iterable[ScoredPaper]) -> float:
    """Median normalized score; even counts take the central-pair midpoint."""
    papers = _scorable(scored)
    return statistics.median(paper.ncs for paper in papers)


def top_label(x: float) -> str:
    """Name of the top-x% share: ``pp_top1``, ``pp_top10``, ``pp_top0.5``."""
    return "pp_top" + repr(float(x)).removesuffix(".0")


def pp_top(scored: Iterable[ScoredPaper], x: float = 1.0) -> float:
    """Share of scorable papers at or above the (100 - x)th percentile."""
    if not 0.0 < x < 100.0:
        raise ValueError(f"top-x share needs 0 < x < 100, got {x}")
    papers = _scorable(scored)
    threshold = 100.0 - x
    return sum(paper.percentile >= threshold for paper in papers) / len(papers)


def percentile_rank(cell: FieldYearCell, citations: int) -> float:
    """Position of a citation count within its cell, in (0, 100].

    Ties split evenly: with L cell papers strictly below and T papers tied
    (the paper itself included), the rank is 100 * (L + T/2) / n. A tie-free
    odd cell therefore puts its median paper at exactly 50.
    """
    counts = cell.sorted_citations
    below = bisect_left(counts, citations)
    tied = bisect_right(counts, citations) - below
    if tied == 0:
        raise ValueError(
            f"citation count {citations} not in cell ({cell.category!r}, {cell.year})"
        )
    return 100.0 * (below + 0.5 * tied) / cell.n


def combined_percentile(corpus: Corpus, table: BaselineTable, paper_id: str) -> float:
    """Equal-weight mean of the paper's per-category percentile ranks."""
    paper = corpus.papers[paper_id]
    count = corpus.citation_count(paper_id)
    ranks = [
        percentile_rank(table.cell(category, paper.year), count)
        for category in corpus.categories_of(paper_id)
    ]
    return math.fsum(ranks) / len(ranks)


def fractional_score(corpus: Corpus, paper_id: str) -> float | None:
    """Citing-side fractional citation count: sum of 1/R over citing papers.

    R is each citing paper's full reference-list length, so a citation from a
    6-reference paper weighs 1/6 and one from a 40-reference paper 1/40. The
    value depends only on the citation graph, never on any category scheme.
    Papers whose citation count is a stored override have no trustworthy
    citing-side records, so they are excluded (None) with a warning.
    """
    paper = corpus.papers[paper_id]
    if paper.raw_citation_count is not None:
        warnings.warn(
            f"paper {paper_id!r} carries a precomputed citation count; "
            "fractional counting needs citing-side reference lists, skipping it",
            stacklevel=2,
        )
        return None
    papers = corpus.papers
    return math.fsum(
        1.0 / len(papers[citer].references) for citer in corpus.cited_by[paper_id]
    )


def score_papers(
    corpus: Corpus,
    table: BaselineTable,
    paper_ids: Iterable[str],
    weighting: Weighting,
) -> list[ScoredPaper]:
    """Per-paper scores in ascending paper-id order.

    Papers with a citation override get ``fractional=None`` silently; the
    group report counts them and warns once.
    """
    scored = []
    for paper_id in sorted(paper_ids):
        citations = corpus.citation_count(paper_id)
        expected, reason = expected_citations_with_reason(
            corpus, table, paper_id, weighting
        )
        if corpus.papers[paper_id].raw_citation_count is None:
            fractional = fractional_score(corpus, paper_id)
        else:
            fractional = None
        scored.append(
            ScoredPaper(
                paper_id=paper_id,
                citations=citations,
                expected=expected,
                ncs=None if expected is None else citations / expected,
                percentile=combined_percentile(corpus, table, paper_id),
                fractional=fractional,
                scorable=expected is not None,
                unscorable_reason=reason,
            )
        )
    return scored


def score_group(
    corpus: Corpus,
    table: BaselineTable,
    group: GroupSelection,
    weighting: Weighting,
    top_x: float = 1.0,
) -> IndicatorReport:
    """All group indicators in one report; raises when nothing is scorable."""
    scored = score_papers(corpus, table, group.paper_ids, weighting)
    return group_report(group.name, scored, weighting, corpus.window, top_x)


def scorable_papers(
    name: str, scored: Sequence[ScoredPaper]
) -> tuple[list[ScoredPaper], tuple[tuple[str, str], ...]]:
    """Split a score pass into its scorable papers and (id, reason) pairs for
    the rest; raises when nothing is scorable."""
    unscorable = tuple(
        (paper.paper_id, paper.unscorable_reason or "unscorable")
        for paper in scored
        if not paper.scorable
    )
    scorable = [paper for paper in scored if paper.scorable]
    if not scorable:
        raise DegenerateGroupError(
            f"group {name!r}: no scorable papers",
            group=name,
            n_total=len(scored),
            unscorable=unscorable,
        )
    return scorable, unscorable


def group_report(
    name: str,
    scored: Sequence[ScoredPaper],
    weighting: Weighting,
    window: CitationWindow,
    top_x: float = 1.0,
) -> IndicatorReport:
    """Aggregate an existing score pass into the group report.

    Warns once when override papers were left out of fractional counting;
    raises when nothing is scorable.
    """
    scorable, unscorable = scorable_papers(name, scored)
    overridden = [p.paper_id for p in scored if p.fractional is None]
    if overridden:
        warnings.warn(
            f"group {name!r}: {len(overridden)} paper(s) with citation "
            "overrides excluded from fractional counting",
            stacklevel=3,
        )
    fractional_values = [p.fractional for p in scored if p.fractional is not None]
    if not fractional_values:
        raise DegenerateGroupError(
            f"group {name!r}: no papers with citing-side reference data",
            group=name,
            n_total=len(scored),
            unscorable=unscorable,
        )
    fractional_mean = math.fsum(fractional_values) / len(fractional_values)
    return IndicatorReport(
        group=name,
        n_total=len(scored),
        n_scorable=len(scorable),
        cpp_fcsm=cpp_fcsm(scorable),
        mncs=mncs(scorable),
        mdncs=mdncs(scorable),
        pp_top=pp_top(scorable, top_x),
        mean_fractional=fractional_mean,
        weighting=str(weighting),
        window=str(window),
        top_x=top_x,
        unscorable=unscorable,
    )


def scored_from_pairs(pairs: Iterable[tuple[float, float]]) -> list[ScoredPaper]:
    """Wrap bare (citations, expected) pairs for the group indicators.

    Convenience for fixtures and the consistency diagnostics, where groups
    are abstract score pairs rather than corpus papers.
    """
    scored = []
    for index, (citations, expected) in enumerate(pairs):
        if expected <= 0:
            raise ValueError(f"pair {index}: expected value must be positive")
        scored.append(
            ScoredPaper(
                paper_id=f"pair{index}",
                citations=citations,
                expected=expected,
                ncs=citations / expected,
                percentile=0.0,
                fractional=None,
                scorable=True,
            )
        )
    return scored


def _scorable(scored: Iterable[ScoredPaper]) -> list[ScoredPaper]:
    papers = [paper for paper in scored if paper.scorable]
    if not papers:
        raise DegenerateGroupError("no scorable papers in group")
    return papers
