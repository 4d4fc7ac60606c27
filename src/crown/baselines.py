"""Per-(category, year) citation baselines and the multi-category rule.

Every paper contributes its citation count to the cell of each category its
journal carries, keyed by publication year, so a paper in a journal with m
categories sits in m cells. The reference universe is the corpus itself: cell
means are the "expected citations" a paper is normalized against, fixed when
the cell is built. A multi-category paper weighs its cells equally: its
expected value is the arithmetic or harmonic mean of the cell means (the
harmonic one makes c / e the plain average of the per-category ratios, which
keeps mean-of-ratios group statistics consistent), and its percentile the
mean of its cell ranks. Both depend only on what their functions take (the
categories, the year and, for the percentile, the count), so a score pass
caches them on those arguments.

``FieldYearCell`` and ``BaselineTable`` are named tuples, like every record
of the package; a cell checks and sorts its counts however it is built.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .corpus import _JOURNAL, _YEAR, CheckedRecord, Corpus


class Weighting(enum.Enum):
    """How a multi-category paper's per-category expected values combine."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"

    def __str__(self) -> str:
        return self.value


def check_weighting(weighting: Weighting) -> None:
    """ValueError for a ``weighting`` that is not a ``Weighting``, its value
    spelled as a string included: the combination tests for
    ``Weighting.HARMONIC`` by identity."""
    if type(weighting) is not Weighting:
        raise ValueError(f"weighting must be a Weighting, got {weighting!r}")


class _CellFields(NamedTuple):
    category: str
    year: int
    sorted_citations: tuple[int, ...]


class FieldYearCell(CheckedRecord, _CellFields):
    """All citation counts of one category-year population, sorted on
    construction. ``mean_citations`` is a function of ``sorted_citations``,
    computed on each read, so it is not a field and not in the repr.

    The category is a ``str``, the year and every count an ``int``, never a
    ``bool``; any other type is a ``ValueError``, raised before the sort.
    """

    __slots__ = ()

    def __new__(cls, category: str, year: int, sorted_citations: Iterable[int]) -> FieldYearCell:
        if type(category) is not str or type(year) is not int:
            raise ValueError(
                f"bad cell ({category!r}, {year!r}): "
                "the category must be a string and the year an integer"
            )
        counts = list(sorted_citations)
        if not counts:
            raise ValueError(f"empty cell ({category!r}, {year})")
        # one C-level pass, stopping at the first type that is not ``int``
        if not {int}.issuperset(map(type, counts)):
            raise ValueError(f"citation counts in cell ({category!r}, {year}) must be integers")
        counts.sort()
        if counts[0] < 0:
            raise ValueError(f"negative citation count {counts[0]} in cell ({category!r}, {year})")
        return tuple.__new__(cls, (category, year, tuple(counts)))

    @property
    def mean_citations(self) -> float:
        counts = self.sorted_citations
        return sum(counts) / len(counts)

    @property
    def n(self) -> int:
        return len(self.sorted_citations)


class BaselineTable(NamedTuple):
    """Cells for every (category, year) pair occurring in the corpus."""

    cells: dict[tuple[str, int], FieldYearCell]

    def cell(self, category: str, year: int) -> FieldYearCell:
        return self.cells[(category, year)]


def compute_baselines(corpus: Corpus) -> BaselineTable:
    """Build the cell table from one C-level tally over the corpus columns.

    Every paper is counted once under its (journal, year, count) triple, its
    count read from ``corpus.citation_counts``, overrides included. Each
    triple's papers are added to each of the journal's categories, so a cell
    holds one count per paper of its journals in its year. A cell sorts its
    counts and its mean is an exact integer sum over n, so the order in which
    papers are tallied cannot change a cell; cells are keyed in the order
    their (journal, year) pairs first occur in the corpus.
    """
    papers = corpus.papers.values()
    tally = Counter(zip(map(_JOURNAL, papers), map(_YEAR, papers), corpus.citation_counts))
    per_cell: dict[tuple[str, int], list[int]] = {}
    journals = corpus.journals
    for (journal_id, year, count), n in tally.items():
        for category in journals[journal_id].categories:
            per_cell.setdefault((category, year), []).extend([count] * n)
    return BaselineTable({key: FieldYearCell(*key, counts) for key, counts in per_cell.items()})


def expected_citations_with_reason(
    table: BaselineTable,
    categories: Sequence[str],
    year: int,
    weighting: Weighting,
) -> tuple[float | None, str | None]:
    """Combined expected value e over the ``year`` cells of ``categories``,
    with the reason when undefined.

    Returns ``(e, None)``, or ``(None, reason)`` for the zero-baseline
    degeneracies: a zero cell mean under the harmonic weighting, or every
    cell mean zero (which would make c / e undefined). Callers must exclude
    such papers from group statistics and report them, never score them as
    zero or infinity. ValueError for a ``weighting`` that is not a
    ``Weighting``. For one category e is the cell mean under either
    weighting.
    """
    check_weighting(weighting)
    means = [table.cell(category, year).mean_citations for category in categories]
    if 0.0 in means and (weighting is Weighting.HARMONIC or not any(means)):
        cells = ", ".join(
            f"({category}, {year})" for category, mean in zip(categories, means) if mean == 0.0
        )
        return None, f"zero baseline in cell {cells}"
    if len(means) == 1:  # both weightings give the mean; 1 / (1 / mean) may not
        return means[0], None
    if weighting is Weighting.HARMONIC:
        return len(means) / math.fsum(1.0 / mean for mean in means), None
    return math.fsum(means) / len(means), None


def below_and_tied(ordered: Sequence[float], value: float) -> tuple[int, int]:
    """How many items of the ascending ``ordered`` lie below ``value``, and
    how many equal it: the tie rule of every rank in the package, where an
    item counts 1 when below and 1/2 when tied."""
    below = bisect_left(ordered, value)
    return below, bisect_right(ordered, value, below) - below


def percentile_rank(cell: FieldYearCell, citations: int) -> float:
    """Position of a citation count within its cell, in (0, 100].

    Ties split evenly: with L cell papers strictly below and T papers tied
    (the paper itself included), the rank is 100 * (L + T/2) / n. A tie-free
    odd cell therefore puts its median paper at exactly 50.
    """
    below, tied = below_and_tied(cell.sorted_citations, citations)
    if tied == 0:
        raise ValueError(
            f"citation count {citations} not in cell ({cell.category!r}, {cell.year})"
        )
    return 100.0 * (below + 0.5 * tied) / cell.n


def combined_percentile(
    table: BaselineTable, categories: Sequence[str], year: int, count: int
) -> float:
    """Equal-weight mean of the percentile ranks of a citation count in the
    ``(category, year)`` cell of each of ``categories``."""
    ranks = [percentile_rank(table.cell(category, year), count) for category in categories]
    return math.fsum(ranks) / len(ranks)

