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
column, and ``cpp_fcsm`` for two columns of unequal length or an expected
total that is not positive.

A score pass is a stream. ``score_papers`` checks its arguments and builds
the pass's baseline table and fractional tally when it is called, then
yields one ``ScoredPaper`` per paper in ascending paper-id order and keeps
none. ``scorable_papers`` folds any iterable of them, read once, into the
``ScoredColumns`` the group statistics read, and is the one place that
finds a group with nothing scorable; ``group_report``, and through it
``score_group``, reads its pass through it. The scorable and total counts
are reported side by side, and the id order makes results reproducible bit
for bit.

A pass keys its papers with one id-ordered dict: its member test, count
lookup and output order. It takes a paper's expected value and combined
percentile from ``crown.baselines``, which owns the multi-category rule,
once per distinct argument tuple, and its count from the corpus's count
column, which the table is built from. ``fractional_scores`` runs once per
pass, in one exact tally over the reference lists that name one of its
papers, and alone withholds a score from papers with a citation override.
The table and the caches live for one pass, so two corpora, for example
under two category schemes, share no table. To score many groups against
one corpus, list one pass over their union and fold each group's papers
from it, as ``diagnose ranksum`` does. Each paper's scores are a
``ScoredPaper`` named tuple and a group's an ``IndicatorReport`` named
tuple: each compares equal to the tuple of its fields and unpacks like one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from collections.abc import Collection, Iterable, Iterator, Sequence
from typing import NamedTuple

from .baselines import (
    Weighting,
    check_weighting,
    combined_percentile,
    compute_baselines,
    expected_citations_with_reason,
)
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
    two non-empty columns of equal length whose expected total is positive;
    ValueError otherwise."""
    if not citations or len(citations) != len(expected):
        raise ValueError(
            "cpp_fcsm needs two non-empty columns of equal length, "
            f"got {len(citations)} and {len(expected)}"
        )
    total = math.fsum(expected)
    if not total > 0.0:  # also true for NaN
        raise ValueError(f"cpp_fcsm needs a positive expected total, got {total!r}")
    return sum(citations) / total


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


def fractional_scores(corpus: Corpus, paper_ids: Collection[str]) -> list[float | None]:
    """Citing-side fractional citation count of each of ``paper_ids``, in
    order: the sum of 1/R over the papers citing it inside the window;
    KeyError for an id that names no paper.

    R is each citing paper's full reference-list length, so a citation from a
    6-reference paper weighs 1/6 and one from a 40-reference paper 1/40. One
    pass walks the reference lists that name a listed id, found at C level,
    and no other list, and adds the citing paper's 1/R once to each distinct
    listed key. The window is tested per key only for a citing year that
    some listed paper's span leaves out. For R up to ``MAX_REFERENCES``
    (2^27) the double 1/R is an integer multiple of 2^-80, so the sums are
    exact integers in that unit, and each is rounded once to a float: the
    correctly rounded sum of the doubles 1/R, as ``math.fsum`` of them gives
    it. So a value depends neither on the order of the citers nor on the
    other papers listed. A value depends only on the citation graph, never
    on any category scheme. Papers whose citation count is a stored override
    have no trustworthy citing-side records, so they get None;
    ``group_report`` counts them and warns once per group.
    """
    papers = corpus.papers
    totals = dict.fromkeys(paper_ids, 0)
    listed = totals.keys()
    citing_years = corpus.window.citing_years
    spans = {year: citing_years(year) for year in {papers[key].year for key in listed}}
    every_span_holds: dict[int, bool] = {}  # by citing year
    names_one = map(operator.not_, map(listed.isdisjoint, map(_REFERENCES, papers.values())))
    for _, citing_year, _, references, _ in itertools.compress(papers.values(), names_one):
        units = int(_UNITS_PER_ONE / len(references))  # exact: 1/R times 2^80
        admitted = every_span_holds.get(citing_year)
        if admitted is None:
            admitted = all(citing_year in span for span in spans.values())
            every_span_holds[citing_year] = admitted
        for key in listed & references:
            if admitted or citing_year in spans[papers[key].year]:
                totals[key] += units
    return [
        None
        if papers[paper_id].raw_citation_count is not None
        else totals[paper_id] / _UNITS_PER_ONE
        for paper_id in paper_ids
    ]


_UNITS_PER_ONE = 2.0**80
_REFERENCES = operator.itemgetter(3)


def score_papers(
    corpus: Corpus, paper_ids: Iterable[str], weighting: Weighting
) -> Iterator[ScoredPaper]:
    """Per-paper scores in ascending paper-id order, against the baseline
    table of ``corpus``, built once for this pass, as a stream that keeps
    none of them.

    The checks run, and the table and the fractional tally are built, when
    this is called: ValueError for a ``weighting`` that is not a
    ``Weighting`` or an id listed twice, KeyError for an id that names no
    paper. The expected value and the combined percentile come from caches
    that live for this one pass and are keyed on their helper's own
    arguments (the table and ``weighting`` are fixed for the pass). Each
    paper's count is read from ``corpus.citation_counts``, the column its
    cells hold.
    """
    check_weighting(weighting)
    ordered = sorted(paper_ids)
    counts = dict.fromkeys(ordered)
    if len(counts) < len(ordered):
        repeated = next(a for a, b in itertools.pairwise(ordered) if a == b)
        raise ValueError(f"paper {repeated!r} is listed twice")
    fractional = fractional_scores(corpus, counts)
    table = compute_baselines(corpus)
    papers = corpus.papers
    counts.update(
        itertools.compress(zip(papers, corpus.citation_counts), map(counts.__contains__, papers))
    )
    expected_of = functools.cache(
        lambda categories, year: expected_citations_with_reason(table, categories, year, weighting)
    )
    percentile_of = functools.cache(
        lambda categories, year, count: combined_percentile(table, categories, year, count)
    )
    return _scored(papers, corpus.journals, counts, fractional, expected_of, percentile_of)


def _scored(papers, journals, counts, fractional, expected_of, percentile_of):
    """The per-paper loop of ``score_papers``; each record is built without
    the named tuple's ``__new__``, as the papers parse builds a ``Paper``."""
    for (paper_id, count), fraction in zip(counts.items(), fractional):
        _, year, journal_id, _, override = papers[paper_id]
        citations = count if override is None else override
        categories = journals[journal_id].categories
        expected, reason = expected_of(categories, year)
        yield tuple.__new__(ScoredPaper, (
            paper_id,
            citations,
            expected,
            None if expected is None else citations / expected,
            percentile_of(categories, year, citations),
            fraction,
            expected is not None,
            reason,
        ))


def score_group(
    corpus: Corpus,
    group: GroupSelection,
    weighting: Weighting,
    top_x: float = 1.0,
) -> IndicatorReport:
    """All group indicators in one report; raises when nothing is scorable."""
    scored = score_papers(corpus, group.paper_ids, weighting)
    return group_report(group.name, scored, weighting, corpus.window, top_x)


class ScoredColumns(NamedTuple):
    """A score pass folded into the columns the group statistics read: the
    citations, expected values, ncs values and percentiles of its scorable
    papers, the fractional scores of its papers without an override, and
    (id, reason) pairs for its unscorable papers."""

    citations: list[int]
    expected: list[float]
    ncs: list[float]
    percentiles: list[float]
    fractional: list[float]
    unscorable: tuple[tuple[str, str], ...]

    @property
    def n_total(self) -> int:
        return len(self.ncs) + len(self.unscorable)


def scorable_papers(name: str, scored: Iterable[ScoredPaper]) -> ScoredColumns:
    """Fold a score pass, read once, into its columns; the one filter the
    group statistics run behind. Raises ``DegenerateGroupError`` when
    nothing is scorable."""
    citations, expected, ncs, percentiles, fractional, unscorable = [], [], [], [], [], []
    for paper_id, count, value, ratio, percentile, fraction, scorable, reason in scored:
        if scorable:
            citations.append(count)
            expected.append(value)
            ncs.append(ratio)
            percentiles.append(percentile)
        else:
            unscorable.append((paper_id, reason or "unscorable"))
        if fraction is not None:
            fractional.append(fraction)
    columns = ScoredColumns(citations, expected, ncs, percentiles, fractional, tuple(unscorable))
    if not ncs:
        raise DegenerateGroupError(
            f"group {name!r}: no scorable papers",
            group=name,
            n_total=columns.n_total,
            unscorable=columns.unscorable,
        )
    return columns


def group_report(
    name: str,
    scored: Iterable[ScoredPaper],
    weighting: Weighting,
    window: CitationWindow,
    top_x: float = 1.0,
) -> IndicatorReport:
    """Aggregate a score pass, read once, into the group report.

    Checks ``weighting`` and ``top_x`` first, so a bad one is a ValueError
    even for a degenerate group. Warns once when override papers were left
    out of fractional counting; raises when nothing is scorable.
    """
    check_weighting(weighting)
    check_top_x(top_x)
    columns = scorable_papers(name, scored)
    n_total = columns.n_total
    n_overridden = n_total - len(columns.fractional)
    if n_overridden:
        warnings.warn(
            f"group {name!r}: {n_overridden} paper(s) with citation "
            "overrides excluded from fractional counting",
            stacklevel=3,
        )
    if not columns.fractional:
        raise DegenerateGroupError(
            f"group {name!r}: no papers with citing-side reference data",
            group=name,
            n_total=n_total,
            unscorable=columns.unscorable,
            n_scorable=len(columns.ncs),
        )
    return IndicatorReport(
        group=name,
        n_total=n_total,
        n_scorable=len(columns.ncs),
        cpp_fcsm=cpp_fcsm(columns.citations, columns.expected),
        mncs=mncs(columns.ncs),
        mdncs=mdncs(columns.ncs),
        pp_top=pp_top(columns.percentiles, top_x),
        mean_fractional=math.fsum(columns.fractional) / len(columns.fractional),
        weighting=str(weighting),
        window=str(window),
        top_x=top_x,
        unscorable=columns.unscorable,
    )
