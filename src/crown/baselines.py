"""Per-(category, year) citation baselines and expected citation values.

Every paper contributes its citation count to the cell of each category its
journal carries, keyed by publication year, so a paper in a journal with m
categories sits in m cells. The reference universe is the corpus itself: cell
means are the "expected citations" a paper is normalized against; each cell's
mean is fixed when the cell is built, so a lookup costs O(1). Papers in
several categories combine their cell means with equal category weights,
either arithmetically or harmonically; the harmonic combination makes the
citations-to-expectation ratio equal the plain average of the per-category
ratios, which is what keeps mean-of-ratios group statistics consistent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .corpus import Corpus


class Weighting(enum.Enum):
    """How a multi-category paper's per-category expected values combine."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FieldYearCell:
    """All citation counts of one category-year population, kept sorted.

    ``mean_citations`` is computed once, at construction, and takes no part
    in equality: it is a function of ``sorted_citations``.
    """

    category: str
    year: int
    sorted_citations: tuple[int, ...]
    mean_citations: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sorted_citations:
            raise ValueError(f"empty cell ({self.category!r}, {self.year})")
        if any(
            a > b
            for a, b in zip(self.sorted_citations, self.sorted_citations[1:])
        ):
            raise ValueError(f"cell ({self.category!r}, {self.year}) not sorted")
        object.__setattr__(
            self, "mean_citations", sum(self.sorted_citations) / self.n
        )

    @property
    def n(self) -> int:
        return len(self.sorted_citations)


@dataclass(frozen=True)
class BaselineTable:
    """Cells for every (category, year) pair occurring in the corpus."""

    cells: dict[tuple[str, int], FieldYearCell]

    def cell(self, category: str, year: int) -> FieldYearCell:
        return self.cells[(category, year)]


def compute_baselines(corpus: Corpus) -> BaselineTable:
    """Build the cell table; counts accumulate in ascending paper-id order."""
    per_cell: dict[tuple[str, int], list[int]] = {}
    for paper_id in sorted(corpus.papers):
        paper = corpus.papers[paper_id]
        count = corpus.citation_count(paper_id)
        for category in corpus.categories_of(paper_id):
            per_cell.setdefault((category, paper.year), []).append(count)
    cells = {
        (category, year): FieldYearCell(category, year, tuple(sorted(counts)))
        for (category, year), counts in per_cell.items()
    }
    return BaselineTable(cells)


def expected_citations_with_reason(
    corpus: Corpus,
    table: BaselineTable,
    paper_id: str,
    weighting: Weighting,
) -> tuple[float | None, str | None]:
    """Combined expected value e for one paper, with the reason when undefined.

    Returns ``(e, None)``, or ``(None, reason)`` for the zero-baseline
    degeneracies: a zero cell mean under the harmonic weighting, or a
    combined value of zero (which would make c / e undefined). Callers must
    exclude such papers from group statistics and report them, never score
    them as zero or infinity.
    """
    paper = corpus.papers[paper_id]
    categories = corpus.categories_of(paper_id)
    means = [
        table.cell(category, paper.year).mean_citations for category in categories
    ]
    m = len(means)
    zero_cells = [
        category for category, mean in zip(categories, means) if mean == 0.0
    ]
    if weighting is Weighting.HARMONIC:
        if zero_cells:
            return None, _zero_baseline_reason(zero_cells, paper.year)
        return m / math.fsum(1.0 / mean for mean in means), None
    value = math.fsum(means) / m
    if value == 0.0:  # possible only when every cell mean is zero
        return None, _zero_baseline_reason(zero_cells, paper.year)
    return value, None


def _zero_baseline_reason(zero_cells: list[str], year: int) -> str:
    cells = ", ".join(f"({category}, {year})" for category in zero_cells)
    return f"zero baseline in cell {cells}"

