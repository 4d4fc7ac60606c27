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
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .corpus import CheckedRecord, Corpus, refuse_assignment


class Weighting(enum.Enum):
    """How a multi-category paper's per-category expected values combine."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"

    def __str__(self) -> str:
        return self.value


class _CellFields(NamedTuple):
    category: str
    year: int
    sorted_citations: tuple[int, ...]


class FieldYearCell(CheckedRecord, _CellFields):
    """All citation counts of one category-year population, sorted on
    construction. ``mean_citations`` is computed on first use and kept in the
    instance ``__dict__``; it is a function of ``sorted_citations``, so it
    takes no part in equality and is not in the repr.
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __new__(cls, category: str, year: int, sorted_citations: Sequence[int]) -> FieldYearCell:
        if not sorted_citations:
            raise ValueError(f"empty cell ({category!r}, {year})")
        return tuple.__new__(cls, (category, year, tuple(sorted(sorted_citations))))

    @cached_property
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
    """Build the cell table in one pass over the papers, in corpus order.

    Counts are collected per (journal, year) first, then added to each of the
    journal's categories once per key. A cell sorts its counts and its mean
    is an exact integer sum over n, so the order in which papers are visited
    cannot change a cell.
    """
    per_key: dict[tuple[str, int], list[int]] = {}
    # ``cited_by`` has the key order of ``papers``, so they walk together.
    for (_, year, journal_id, _, override), citers in zip(
        corpus.papers.values(), corpus.cited_by.values()
    ):
        count = len(citers) if override is None else override
        counts = per_key.get((journal_id, year))
        if counts is None:
            per_key[(journal_id, year)] = [count]
        else:
            counts.append(count)
    per_cell: dict[tuple[str, int], list[int]] = {}
    journals = corpus.journals
    for (journal_id, year), counts in per_key.items():
        for category in journals[journal_id].categories:
            per_cell.setdefault((category, year), []).extend(counts)
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
    degeneracies: a zero cell mean under the harmonic weighting, or a
    combined value of zero (which would make c / e undefined). Callers must
    exclude such papers from group statistics and report them, never score
    them as zero or infinity.
    """
    means = [table.cell(category, year).mean_citations for category in categories]
    m = len(means)
    zero_cells = [
        category for category, mean in zip(categories, means) if mean == 0.0
    ]
    if weighting is Weighting.HARMONIC:
        if zero_cells:
            return None, _zero_baseline_reason(zero_cells, year)
        return m / math.fsum(1.0 / mean for mean in means), None
    value = math.fsum(means) / m
    if value == 0.0:  # possible only when every cell mean is zero
        return None, _zero_baseline_reason(zero_cells, year)
    return value, None


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


def combined_percentile(
    table: BaselineTable, categories: Sequence[str], year: int, count: int
) -> float:
    """Equal-weight mean of the percentile ranks of a citation count in the
    ``(category, year)`` cell of each of ``categories``."""
    ranks = [percentile_rank(table.cell(category, year), count) for category in categories]
    return math.fsum(ranks) / len(ranks)


def _zero_baseline_reason(zero_cells: list[str], year: int) -> str:
    cells = ", ".join(f"({category}, {year})" for category in zero_cells)
    return f"zero baseline in cell {cells}"

