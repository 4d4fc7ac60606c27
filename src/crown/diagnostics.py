"""Executable checks for the known failure modes of group citation indicators.

Three diagnostics:

* consistency: exhaustive search for instances where adding one identical
  paper to two groups flips their ranking. The ratio-of-sums indicator admits
  such flips at tiny sizes; the mean-of-ratios indicator admits none at equal
  group sizes, by an identity, so it needs no search. A group here is a list
  of bare (citations, expected) pairs; its value comes from the same column
  statistics (``cpp_fcsm``, ``mncs``) that score a corpus group.
* indexer sensitivity: rescore the same papers under two category schemes and
  report every per-paper and group-level shift. Fractional counting is
  classification-free, so its deltas are asserted to be identically zero.
* rank-sum test: Mann-Whitney U, ties counting half as in a percentile rank,
  with the tie-corrected normal approximation, for comparing two groups'
  score distributions without assuming anything about their shape.

Every result is a named tuple; ``SearchBounds`` and ``SensitivityReport``
check their fields however they are built (``corpus.CheckedRecord``).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence
from itertools import combinations_with_replacement
from typing import NamedTuple

from .baselines import Weighting, below_and_tied
from .corpus import CheckedRecord, Corpus, GroupSelection, Journal
from .indicators import IndicatorReport, cpp_fcsm, group_report, mncs, score_papers

Pair = tuple[int, int]

RATIO_OF_SUMS = "cpp_fcsm"
MEAN_OF_RATIOS = "mncs"
# The group statistics the consistency diagnostics take, by name, each a
# function of a group's (citations, expected) pairs.
INDICATORS: dict[str, Callable[[Sequence[Pair]], float]] = {
    RATIO_OF_SUMS: lambda pairs: cpp_fcsm([c for c, _ in pairs], [e for _, e in pairs]),
    MEAN_OF_RATIOS: lambda pairs: mncs([c / e for c, e in pairs]),
}

# Largest consistency search accepted, counted in (A, B, added paper)
# instances. The ratio-of-sums search keeps every multiset of pairs of one
# size in memory and settles the added paper in closed form, one check per
# (A, B) pair. Larger bounds are rejected before anything is built.
MAX_INSTANCES = 10**8


class _BoundsFields(NamedTuple):
    max_group_size: int
    max_citations: int
    max_expected: int


class SearchBounds(CheckedRecord, _BoundsFields):
    """Instance space for the consistency search: equal-size groups of
    integer (citations, expected) pairs with citations in [0, max_citations]
    and expected in [1, max_expected]. Each bound is an ``int``, never a
    ``bool``; any other type is a ``ValueError``."""

    __slots__ = ()

    def _check(self) -> None:
        if not all(type(bound) is int for bound in self):
            raise ValueError(f"search bounds must be integers, got {self}")
        if self.max_group_size < 1 or self.max_citations < 0 or self.max_expected < 1:
            raise ValueError(f"degenerate search bounds {self}")
        if self.instance_count() > MAX_INSTANCES:
            raise ValueError(
                f"search bounds {self} exceed the limit of {MAX_INSTANCES} instances"
            )

    def instance_count(self) -> int:
        """Number of (A, B, added) instances the bounds span. The search
        settles each (A, B) pair at once and visits none of them one by one.

        Exact up to MAX_INSTANCES. Past it, the result is only some value
        above the limit: counting stops early, so that huge bounds are
        rejected at once.
        """
        papers = (self.max_citations + 1) * self.max_expected
        if papers == 1:  # one group, and so one instance, per size
            return self.max_group_size
        # With two papers or more, size s spans more than 2 s^2 instances, so
        # the total passes the limit within a few hundred sizes.
        total = 0
        for size in range(1, self.max_group_size + 1):
            groups = math.comb(papers + size - 1, size)
            total += groups * groups * papers
            if total > MAX_INSTANCES:
                break
        return total


class Counterexample(NamedTuple):
    """A ranking flip: A beats B, yet after adding the same paper to both,
    B beats A."""

    indicator: str
    group_a: tuple[Pair, ...]
    group_b: tuple[Pair, ...]
    added_paper: Pair
    before_a: float
    before_b: float
    after_a: float
    after_b: float


def evaluate_pairs(pairs: Sequence[Pair], indicator: str) -> float:
    """Group indicator value for bare (citations, expected) pairs; ValueError
    for an unknown indicator, no pairs, a citation count that is negative or
    not finite, or an expected value that is not positive and finite."""
    statistic = _indicator(indicator)
    if not pairs:
        raise ValueError("no pairs to evaluate")
    for index, (citations, expected) in enumerate(pairs):
        if not 0 <= citations < math.inf:  # also false for NaN
            raise ValueError(f"pair {index}: citation count must be non-negative and finite")
        if not 0 < expected < math.inf:
            raise ValueError(f"pair {index}: expected value must be positive and finite")
    return statistic(pairs)


def _indicator(name: str) -> Callable[[Sequence[Pair]], float]:
    """The group statistic ``INDICATORS`` names ``name``; ValueError otherwise."""
    if name not in INDICATORS:
        raise ValueError(f"unknown indicator {name!r}")
    return INDICATORS[name]


def build_counterexample(
    indicator: str,
    group_a: Sequence[Pair],
    group_b: Sequence[Pair],
    added_paper: Pair,
) -> Counterexample:
    return Counterexample(
        indicator=indicator,
        group_a=tuple(group_a),
        group_b=tuple(group_b),
        added_paper=added_paper,
        before_a=evaluate_pairs(group_a, indicator),
        before_b=evaluate_pairs(group_b, indicator),
        after_a=evaluate_pairs([*group_a, added_paper], indicator),
        after_b=evaluate_pairs([*group_b, added_paper], indicator),
    )


def consistency_counterexample(
    indicator: str, bounds: SearchBounds
) -> Counterexample | None:
    """The first ranking flip between equal-size groups within ``bounds``, or
    None.

    For ratio of sums, each ordered pair of groups (A, B) is checked once, in
    lexicographic order (group size ascending, then A and B, each over pairs
    ordered by (citations, expected)), with the added paper settled exactly,
    so the result is deterministic. Comparisons use exact integer arithmetic;
    the reported values come from the real indicator implementations. A flip
    exists even at group size 1, and the first one, if any, by size 3, so
    larger groups are never built.

    For mean of ratios, equal-size groups admit no flip, by the identity in
    the body, so the answer is None and no group is built.
    """
    _indicator(indicator)  # an unknown name fails before anything else
    if indicator == MEAN_OF_RATIOS:
        # Adding x = (c, e) to equal-size groups puts the same c/e on both
        # ratio sums, so A's margin over B after the addition is its margin
        # before: no added paper reverses a strict order.
        return None
    papers = [
        (c, e)
        for c in range(bounds.max_citations + 1)
        for e in range(1, bounds.max_expected + 1)
    ]
    # Sizes past 3 are never needed. With max_c = 0 every group scores 0, so
    # none leads. With max_e = 1, equal-size groups have equal expected sums
    # n, so A leads only with more citations and keeps the lead after any
    # addition. Every other box holds the size-3 flip A = (0,1)(1,1)(1,1),
    # B = (1,1)(1,2)(1,2), x = (0,2): 2/3 > 3/5, then 2/5 < 3/7.
    for size in range(1, min(bounds.max_group_size, 3) + 1):
        groups = list(combinations_with_replacement(papers, size))
        found = _search_ratio_of_sums(groups, papers)
        if found is not None:
            index_a, index_b, added = found
            return build_counterexample(
                indicator, groups[index_a], groups[index_b], added
            )
    return None


def _search_ratio_of_sums(
    groups: list[tuple[Pair, ...]], papers: list[Pair]
) -> tuple[int, int, Pair] | None:
    # After adding x = (xc, xe), A is ahead by the margin
    # (ca + xc)(eb + xe) - (cb + xc)(ea + xe)
    #     = lead + xc * (eb - ea) + xe * (ca - cb),   lead = ca * eb - cb * ea:
    # the xc * xe terms cancel, so the margin is affine in x and its least
    # value over the box of added papers is at a corner. Only a pair whose
    # least margin is negative has a flipping x, and only then are the
    # papers scanned, in order, for the first one.
    max_c, max_e = papers[-1]
    sums_c = [sum(c for c, _ in group) for group in groups]
    sums_e = [sum(e for _, e in group) for group in groups]
    n = len(groups)
    for ia in range(n):
        ca, ea = sums_c[ia], sums_e[ia]
        for ib in range(n):
            cb, eb = sums_c[ib], sums_e[ib]
            lead = ca * eb - cb * ea
            if lead <= 0:  # need A strictly ahead before the addition
                continue
            slope_c, slope_e = eb - ea, ca - cb
            if lead + min(0, max_c * slope_c) + min(slope_e, max_e * slope_e) >= 0:
                continue
            for xc, xe in papers:
                if lead + xc * slope_c + xe * slope_e < 0:
                    return ia, ib, (xc, xe)
    return None


class PaperSensitivity(NamedTuple):
    paper_id: str
    ncs_a: float | None
    ncs_b: float | None
    percentile_a: float
    percentile_b: float
    fractional_delta: float

    @property
    def ncs_delta(self) -> float | None:
        if self.ncs_a is None or self.ncs_b is None:
            return None
        return self.ncs_b - self.ncs_a


class _SensitivityFields(NamedTuple):
    group: str
    weighting: str
    papers: tuple[PaperSensitivity, ...]
    report_a: IndicatorReport
    report_b: IndicatorReport


class SensitivityReport(CheckedRecord, _SensitivityFields):
    """Per-paper and group-level shifts between two category schemes.

    Deltas are scheme B minus scheme A. Fractional deltas are asserted to be
    identically zero at construction time: fractional counting never sees the
    category scheme, so any nonzero delta is a bug, not a finding.
    """

    __slots__ = ()

    def _check(self) -> None:
        bad = [p.paper_id for p in self.papers if p.fractional_delta != 0.0]
        if bad:
            raise AssertionError(
                f"fractional scores moved with the category scheme: {bad}"
            )

    @property
    def group_deltas(self) -> dict[str, float]:
        """Scheme B minus scheme A for each group statistic, by output name."""
        a, b = self.report_a.statistics, self.report_b.statistics
        return {name: b[name] - a[name] for name in a}


def primary_only_scheme(journals: Sequence[Journal]) -> list[Journal]:
    """Derive the scheme that keeps only each journal's primary category."""
    return [
        Journal(journal.id, journal.title, (journal.primary_category,))
        for journal in journals
    ]


def indexer_sensitivity(
    corpus: Corpus,
    group: GroupSelection,
    scheme_b: Sequence[Journal],
    weighting: Weighting,
    top_x: float = 1.0,
) -> SensitivityReport:
    """Score the group under the corpus's own scheme (A) and under ``scheme_b``,
    which must cover every paper's journal, over the same citation graph.

    One score pass per scheme feeds both the per-paper rows, its columns
    zipped row by row, and the group reports. The two corpora share the
    papers and the window, and each pass tallies its own fractional scores,
    so the zero fractional-delta check in ``SensitivityReport`` compares two
    computations and tests that fractional scoring reads nothing from the
    category scheme.
    """
    corpus_b = corpus.with_journals(scheme_b)
    scored_a = score_papers(corpus, group.paper_ids, weighting)
    scored_b = score_papers(corpus_b, group.paper_ids, weighting)
    papers = tuple(
        PaperSensitivity(paper_id, ncs_a, ncs_b, percentile_a, percentile_b,
                         (fractional_b or 0.0) - (fractional_a or 0.0))
        for paper_id, ncs_a, ncs_b, percentile_a, percentile_b, fractional_a, fractional_b
        in zip(scored_a.paper_ids, scored_a.ncs, scored_b.ncs, scored_a.percentiles,
               scored_b.percentiles, scored_a.fractional, scored_b.fractional)
    )
    return SensitivityReport(
        group=group.name,
        weighting=str(weighting),
        papers=papers,
        report_a=group_report(group.name, scored_a, weighting, corpus.window, top_x),
        report_b=group_report(group.name, scored_b, weighting, corpus.window, top_x),
    )


class RankSumResult(NamedTuple):
    """Mann-Whitney U for the first sample, with tie-corrected normal z.

    ``degenerate`` marks the all-tied case, where the rank variance is zero
    and no standardized statistic exists; z and p are then reported as 0 and
    1 (the samples are indistinguishable by rank).
    """

    u_statistic: float
    z: float
    p_two_sided: float
    n_a: int
    n_b: int
    degenerate: bool = False


def rank_sum_test(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> RankSumResult:
    """Two-sided Mann-Whitney rank-sum test via the normal approximation.

    U counts the (a, b) pairs, a from ``scores_a`` and b from ``scores_b``,
    in which a is above b, a tie counting half: the percentile's tie rule
    (``baselines.below_and_tied``). Every term is a half-integer, so U is
    exact. The variance carries the usual tie correction
    n_a n_b / 12 * (N + 1 - sum(t^3 - t) / (N (N - 1))), t running over how
    often each value occurs in both samples together. The approximation is
    poor at small sizes (3 against 3 with no overlap gives p = 0.0495, where
    the exact p is 0.1); no exact test is offered. ValueError for an empty
    sample, fewer than 3 observations overall, or a NaN score, which has no
    rank.
    """
    n_a, n_b = len(scores_a), len(scores_b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    if n_a + n_b < 3:
        raise ValueError("need at least 3 observations overall")
    for label, scores in (("a", scores_a), ("b", scores_b)):
        if any(map(math.isnan, scores)):
            raise ValueError(f"sample {label} holds a NaN score, which has no rank")
    ordered_b = sorted(scores_b)
    splits = (below_and_tied(ordered_b, value) for value in scores_a)
    u = sum(below + 0.5 * tied for below, tied in splits)
    total = n_a + n_b
    tie_term = sum(t**3 - t for t in Counter([*scores_a, *scores_b]).values())
    mean_u = n_a * n_b / 2
    variance = n_a * n_b / 12 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return RankSumResult(u, 0.0, 1.0, n_a, n_b, degenerate=True)
    z = (u - mean_u) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2))
    return RankSumResult(u, z, p, n_a, n_b)
