"""Group-level citation-impact indicators.

Two families of field-normalized group statistics are kept deliberately side
by side: the ratio-of-sums (total citations over total expected citations,
the classic CPP/FCSm) and the mean-of-ratios (average of per-paper normalized
scores, MNCS), together with the median variant (MdNCS), percentile ranks,
top-x% shares, and citing-side fractional counting. Keeping both families in
one report makes their disagreements observable instead of hidden.

The group statistics (``cpp_fcsm``, ``mncs``, ``mdncs``, ``pp_top``) are
functions of plain, non-empty columns: citations and expected values, ncs
values, or percentiles. Each raises a ValueError that names it for an empty
column, and ``cpp_fcsm`` for two columns of unequal length.
``scorable_papers`` is the one filter that picks the scorable papers of a
score pass, and the one place that finds a group with none;
``group_report`` builds each column once from its result. The scorable
and total counts are reported side by side, and papers are accumulated in
ascending paper-id order so results are reproducible bit for bit.

A score pass reads the corpus's own table, ``Corpus.baselines``, and takes a
paper's expected value and combined percentile from ``crown.baselines``,
which owns the multi-category rule, once per distinct argument tuple.
``fractional_score`` runs per paper and alone withholds a score from papers
with a citation override. The caches are local to one pass, and
two corpora, for example under two category schemes, share no table.
Each paper's scores are a ``ScoredPaper`` named tuple and a group's an
``IndicatorReport`` named tuple: each compares equal to the tuple of its
fields and unpacks like one.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .baselines import Weighting, combined_percentile, expected_citations_with_reason
from .corpus import CitationWindow, Corpus, GroupSelection


class DegenerateGroupError(RuntimeError):
    """A group statistic has no papers to stand on (nothing scorable, or no
    citing-side data)."""

    def __init__(
        self,
        message: str,
        group: str,
        n_total: int,
        unscorable: Sequence[tuple[str, str]],
        n_scorable: int = 0,
    ):
        super().__init__(message)
        self.group = group
        self.n_total = n_total
        self.unscorable = tuple(unscorable)
        self.n_scorable = n_scorable


class ScoredPaper(NamedTuple):
    """One paper's scores from a score pass; a named tuple, so it compares
    equal to the tuple of its fields and unpacks like one."""

    paper_id: str
    citations: int
    expected: float | None
    ncs: float | None
    percentile: float
    fractional: float | None
    scorable: bool
    unscorable_reason: str | None = None


class IndicatorReport(NamedTuple):
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

    @property
    def statistics(self) -> dict[str, float]:
        """Group statistics by output name, in report order: ``pp_top`` is
        named ``top_label(top_x)``. The score row, ``payload()`` and the
        indexer's group deltas all read it."""
        return {
            "cpp_fcsm": self.cpp_fcsm,
            "mncs": self.mncs,
            "mdncs": self.mdncs,
            top_label(self.top_x): self.pp_top,
            "mean_fractional": self.mean_fractional,
        }

    def payload(self) -> dict:
        """The report as a JSON-ready dict: its fields, with the statistics
        under their output names and each unscorable pair as a list."""
        payload = self._asdict()
        del payload["pp_top"]
        payload.update(self.statistics)
        payload["unscorable"] = [list(item) for item in self.unscorable]
        return payload

    def to_json(self) -> str:
        """Sorted-key compact JSON of ``payload()``."""
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))


def _check_column(name: str, column: Sequence[float]) -> None:
    """ValueError, naming the statistic, for an empty column."""
    if not column:
        raise ValueError(f"{name} needs a non-empty column")


def cpp_fcsm(citations: Sequence[int], expected: Sequence[float]) -> float:
    """Ratio of sums: total citations over total expected citations, from
    two non-empty columns of equal length; ValueError otherwise."""
    if not citations or len(citations) != len(expected):
        raise ValueError(
            "cpp_fcsm needs two non-empty columns of equal length, "
            f"got {len(citations)} and {len(expected)}"
        )
    return sum(citations) / math.fsum(expected)


def mncs(ncs: Sequence[float]) -> float:
    """Mean of ratios: arithmetic mean of the per-paper normalized scores."""
    _check_column("mncs", ncs)
    return math.fsum(ncs) / len(ncs)


def mdncs(ncs: Sequence[float]) -> float:
    """Median normalized score; even counts take the central-pair midpoint,
    computed as ``statistics.median`` computes it, so the value is the same to
    the bit."""
    ordered = sorted(ncs)
    _check_column("mdncs", ordered)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def top_label(x: float) -> str:
    """Name of the top-x% share: ``pp_top1``, ``pp_top10``, ``pp_top0.5``."""
    return "pp_top" + repr(float(x)).removesuffix(".0")


def check_top_x(x: float) -> float:
    """``x`` itself if it names a top-x% share, an ``int`` or ``float`` with
    0 < x < 100; ValueError otherwise, for a ``bool`` too."""
    if type(x) not in (int, float):
        raise ValueError(f"top-x share must be a number, got {x!r}")
    if not 0.0 < x < 100.0:
        raise ValueError(f"top-x share needs 0 < x < 100, got {x}")
    return x


def pp_top(percentiles: Sequence[float], x: float) -> float:
    """Share of papers at or above the (100 - x)th percentile."""
    threshold = 100.0 - check_top_x(x)
    _check_column("pp_top", percentiles)
    return sum(percentile >= threshold for percentile in percentiles) / len(percentiles)


def fractional_score(corpus: Corpus, paper_id: str) -> float | None:
    """Citing-side fractional citation count: sum of 1/R over citing papers.

    R is each citing paper's full reference-list length, so a citation from a
    6-reference paper weighs 1/6 and one from a 40-reference paper 1/40. The
    weights are ``corpus.citing_weight``, built once per corpus, and
    ``math.fsum`` is correctly rounded, so the sum does not depend on the
    order of the citers. The value depends only on the citation graph, never
    on any category scheme. Papers whose citation count is a stored override
    have no trustworthy citing-side records, so they get None;
    ``group_report`` counts them and warns once per group.
    """
    if corpus.papers[paper_id].raw_citation_count is not None:
        return None
    return math.fsum(map(corpus.citing_weight.__getitem__, corpus.cited_by[paper_id]))


def score_papers(
    corpus: Corpus, paper_ids: Iterable[str], weighting: Weighting
) -> list[ScoredPaper]:
    """Per-paper scores in ascending paper-id order, against ``corpus.baselines``.

    The expected value and the combined percentile come from caches that
    live for this one pass and are keyed on their helper's own arguments
    (the table and ``weighting`` are fixed for the pass); ``fractional_score``
    runs once per paper.
    """
    table = corpus.baselines
    papers = corpus.papers
    journals = corpus.journals
    cited_by = corpus.cited_by
    expected_of = functools.cache(
        lambda categories, year: expected_citations_with_reason(table, categories, year, weighting)
    )
    percentile_of = functools.cache(
        lambda categories, year, count: combined_percentile(table, categories, year, count)
    )
    scored = []
    for paper_id in sorted(paper_ids):
        _, year, journal_id, _, override = papers[paper_id]
        citations = len(cited_by[paper_id]) if override is None else override
        categories = journals[journal_id].categories
        expected, reason = expected_of(categories, year)
        scored.append(
            ScoredPaper(
                paper_id,
                citations,
                expected,
                None if expected is None else citations / expected,
                percentile_of(categories, year, citations),
                fractional_score(corpus, paper_id),
                expected is not None,
                reason,
            )
        )
    return scored


def score_group(
    corpus: Corpus,
    group: GroupSelection,
    weighting: Weighting,
    top_x: float = 1.0,
) -> IndicatorReport:
    """All group indicators in one report; raises when nothing is scorable."""
    scored = score_papers(corpus, group.paper_ids, weighting)
    return group_report(group.name, scored, weighting, corpus.window, top_x)


def scorable_papers(
    name: str, scored: Sequence[ScoredPaper]
) -> tuple[list[ScoredPaper], tuple[tuple[str, str], ...]]:
    """Split a score pass into its scorable papers and (id, reason) pairs for
    the rest; the one filter the group statistics run behind. Raises
    ``DegenerateGroupError`` when nothing is scorable."""
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

    Checks ``top_x`` first, so a bad share is a ValueError even for a
    degenerate group. Warns once when override papers were left out of
    fractional counting; raises when nothing is scorable.
    """
    check_top_x(top_x)
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
            n_scorable=len(scorable),
        )
    fractional_mean = math.fsum(fractional_values) / len(fractional_values)
    ncs = [p.ncs for p in scorable]
    return IndicatorReport(
        group=name,
        n_total=len(scored),
        n_scorable=len(scorable),
        cpp_fcsm=cpp_fcsm([p.citations for p in scorable], [p.expected for p in scorable]),
        mncs=mncs(ncs),
        mdncs=mdncs(ncs),
        pp_top=pp_top([p.percentile for p in scorable], top_x),
        mean_fractional=fractional_mean,
        weighting=str(weighting),
        window=str(window),
        top_x=top_x,
        unscorable=unscorable,
    )

