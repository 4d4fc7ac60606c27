from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.baselines import (
    BaselineTable,
    FieldYearCell,
    Weighting,
    compute_baselines,
    expected_citations_with_reason,
)
from crown.cli import main
from crown.corpus import Journal, Paper, build_corpus
from crown.indicators import score_papers

from conftest import (SMALL_JOURNALS, categories_of, citation_count, corpus_from_text,
                      jsonl_lines, small_corpus)


def _cell_corpus():
    """Three 2005 papers in one single-category field, cited 0, 2, 4 times."""
    papers = [
        Paper("a", 2005, "j1", ()),
        Paper("b", 2005, "j1", ()),
        Paper("c", 2005, "j1", ()),
        Paper("x", 2006, "j1", ("b",)),
        Paper("y", 2006, "j1", ("b", "c")),
        Paper("z", 2007, "j1", ("c",)),
        Paper("w", 2007, "j1", ("c",)),
        Paper("v", 2007, "j1", ("c",)),
    ]
    return build_corpus(papers, [Journal("j1", "J", ("F",))])


def test_cell_statistics_direct_mean() -> None:
    table = compute_baselines(_cell_corpus())
    cell = table.cell("F", 2005)
    assert cell.n == 3
    assert cell.mean_citations == 2.0
    assert cell.sorted_citations == (0, 2, 4)
    # the mean is fixed at construction and is exactly the integer sum over n
    odd = FieldYearCell("F", 2005, (1, 2, 2, 7, 11, 13, 40))
    assert odd.mean_citations == sum(odd.sorted_citations) / odd.n
    # ... and it is not a field, so it takes no part in equality or hashing
    twin = FieldYearCell("F", 2005, (4, 2, 0))
    assert twin == cell
    assert hash(twin) == hash(cell)
    assert "mean_citations" not in cell._fields
    assert "mean_citations" not in repr(cell)


def test_cell_sorts_the_counts_it_is_given() -> None:
    assert FieldYearCell("F", 2005, (3, 1, 2)) == FieldYearCell("F", 2005, (1, 2, 3))
    assert FieldYearCell("F", 2005, [2, 0, 2]).sorted_citations == (0, 2, 2)
    with pytest.raises(ValueError, match=r"^empty cell \('F', 2005\)$"):
        FieldYearCell("F", 2005, ())


def test_multi_category_paper_lands_in_each_cell() -> None:
    papers = [Paper("p1", 2005, "jboth", ())]
    journals = [Journal("jboth", "J", ("F", "G"))]
    table = compute_baselines(build_corpus(papers, journals))
    assert table.cell("F", 2005).n == 1
    assert table.cell("G", 2005).n == 1


def test_single_uncited_paper_gives_zero_mean_cell() -> None:
    papers = [Paper("p1", 2005, "j1", ())]
    table = compute_baselines(build_corpus(papers, [Journal("j1", "J", ("F",))]))
    assert table.cell("F", 2005).mean_citations == 0.0


def _table_with_means(means: list[float], year: int = 2005) -> BaselineTable:
    cells = {}
    for index, mean in enumerate(means):
        category = f"F{index}"
        # one-paper cells carry integer counts; scale to hit the wanted mean
        count = int(mean)
        assert count == mean, "test helper needs integer means"
        cells[(category, year)] = FieldYearCell(category, year, (count,))
    return BaselineTable(cells)


def _expected_for_means(means: list[int], weighting: Weighting):
    """Expected value for a 2005 paper in len(means) categories with those
    cell means."""
    categories = [f"F{i}" for i in range(len(means))]
    table = _table_with_means(means)
    return expected_citations_with_reason(table, categories, 2005, weighting)[0]


def test_expected_arithmetic_two_fields() -> None:
    assert _expected_for_means([5, 20], Weighting.ARITHMETIC) == 12.5


def test_expected_harmonic_two_fields() -> None:
    assert _expected_for_means([5, 20], Weighting.HARMONIC) == 8.0


def test_expected_single_field_identity() -> None:
    assert _expected_for_means([7], Weighting.ARITHMETIC) == 7.0
    assert _expected_for_means([7], Weighting.HARMONIC) == 7.0


def test_zero_baseline_unscorable_under_harmonic() -> None:
    table = _table_with_means([0, 20])
    value, reason = expected_citations_with_reason(
        table, ["F0", "F1"], 2005, Weighting.HARMONIC
    )
    assert value is None
    assert "zero baseline" in reason


def test_zero_baseline_arithmetic_survives_one_zero_cell() -> None:
    assert _expected_for_means([0, 20], Weighting.ARITHMETIC) == 10.0


def test_all_zero_arithmetic_is_unscorable() -> None:
    value, reason = expected_citations_with_reason(
        _table_with_means([0, 0]), ["F0", "F1"], 2005, Weighting.ARITHMETIC
    )
    assert value is None
    assert "zero" in reason


def _ncs_corpus(citations: int, means: list[int]):
    categories = [f"F{i}" for i in range(len(means))]
    papers = [Paper("p", 2005, "jm", (), raw_citation_count=citations)]
    journals = [Journal("jm", "J", tuple(categories))]
    corpus = build_corpus(papers, journals)
    cells = {
        (category, 2005): FieldYearCell(category, 2005, (mean,))
        for category, mean in zip(categories, means)
    }
    return corpus, BaselineTable(cells)


def _ncs(corpus, table, paper_id: str, weighting: Weighting) -> float:
    """c / e exactly as the score pass computes a paper's ``ncs``."""
    year = corpus.papers[paper_id].year
    categories = categories_of(corpus, paper_id)
    expected = expected_citations_with_reason(table, categories, year, weighting)[0]
    return citation_count(corpus, paper_id) / expected


def test_normalized_score_matches_mean_of_per_field_ratios() -> None:
    corpus, table = _ncs_corpus(10, [5, 20])
    ncs = _ncs(corpus, table, "p", Weighting.HARMONIC)
    assert ncs == 1.25
    oracle = (10 / 5 + 10 / 20) / 2
    assert ncs == pytest.approx(oracle, rel=1e-15)


def test_normalized_score_zero_citations() -> None:
    corpus, table = _ncs_corpus(0, [5, 20])
    assert _ncs(corpus, table, "p", Weighting.HARMONIC) == 0.0


def test_normalized_score_at_expectation_is_one() -> None:
    corpus, table = _ncs_corpus(7, [7])
    assert _ncs(corpus, table, "p", Weighting.ARITHMETIC) == 1.0


positive_means = st.lists(
    st.integers(min_value=1, max_value=500), min_size=1, max_size=6
)


@given(citations=st.integers(min_value=0, max_value=200), means=positive_means)
@settings(max_examples=300)
def test_harmonic_identity(citations: int, means: list[int]) -> None:
    """c / e_harmonic equals the plain mean of the per-field ratios c / e_j."""
    corpus, table = _ncs_corpus(citations, means)
    ncs = _ncs(corpus, table, "p", Weighting.HARMONIC)
    per_field_mean = math.fsum(citations / mean for mean in means) / len(means)
    assert ncs == pytest.approx(per_field_mean, rel=1e-12, abs=0.0) or (
        ncs == 0.0 and per_field_mean == 0.0
    )


@given(means=positive_means)
@settings(max_examples=300)
def test_harmonic_never_exceeds_arithmetic(means: list[int]) -> None:
    exact_arithmetic = Fraction(sum(means), len(means))
    exact_harmonic = len(means) / sum(Fraction(1, mean) for mean in means)
    assert exact_harmonic <= exact_arithmetic
    if len(set(means)) == 1:
        assert exact_harmonic == exact_arithmetic
    else:
        assert exact_harmonic < exact_arithmetic
    arithmetic = _expected_for_means(means, Weighting.ARITHMETIC)
    harmonic = _expected_for_means(means, Weighting.HARMONIC)
    assert arithmetic == pytest.approx(float(exact_arithmetic), rel=1e-12)
    assert harmonic == pytest.approx(float(exact_harmonic), rel=1e-12)


def test_single_category_corpus_weighting_is_irrelevant() -> None:
    papers_jsonl = "\n".join(
        [
            '{"id":"p1","year":2005,"journal":"j1","references":[]}',
            '{"id":"p2","year":2006,"journal":"j1","references":["p1"]}',
            '{"id":"p3","year":2006,"journal":"j1","references":["p1","p2"]}',
        ]
    )
    corpus = corpus_from_text(papers_jsonl, "id,title,categories\nj1,J,solo\n")
    arithmetic = score_papers(corpus, corpus.papers, Weighting.ARITHMETIC)
    harmonic = score_papers(corpus, corpus.papers, Weighting.HARMONIC)
    assert arithmetic.paper_ids == sorted(corpus.papers)
    assert arithmetic.ncs == harmonic.ncs


def test_baseline_table_covers_every_category_year_pair() -> None:
    corpus = _cell_corpus()
    table = compute_baselines(corpus)
    wanted = {
        (category, paper.year)
        for paper in corpus.papers.values()
        for category in categories_of(corpus, paper.id)
    }
    assert set(table.cells) == wanted
    # overlap partition: the multi-membership total matches cell populations
    assert sum(cell.n for cell in table.cells.values()) == sum(
        len(categories_of(corpus, pid)) for pid in corpus.papers
    )


def test_tsv_export_shape(tmp_path) -> None:
    corpus = _cell_corpus()
    table = compute_baselines(corpus)
    papers = tmp_path / "papers.jsonl"
    journals = tmp_path / "journals.csv"
    out = tmp_path / "baselines.tsv"
    papers.write_text(
        "".join(line + "\n" for line in jsonl_lines(corpus.papers.values())), encoding="utf-8"
    )
    journals.write_text("id,title,categories\nj1,J,F\n", encoding="utf-8")
    assert main(["baselines", "--papers", str(papers), "--journals", str(journals),
                 "--out", str(out)]) == 0
    lines = [
        line for line in out.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    assert lines[0] == "category\tyear\tn\tmean_citations"
    assert lines[1] == "F\t2005\t3\t2.0"
    assert len(lines) == 1 + len(table.cells)


# --- the cell table against a per-paper reference build -------------------


def _reference_cells(corpus) -> dict:
    """The plain build: each paper's count added to each of its cells."""
    per_cell: dict = {}
    for paper_id, paper in corpus.papers.items():
        for category in categories_of(corpus, paper_id):
            per_cell.setdefault((category, paper.year), []).append(
                citation_count(corpus, paper_id)
            )
    return {
        (category, year): FieldYearCell(category, year, tuple(sorted(counts)))
        for (category, year), counts in per_cell.items()
    }


@given(small_corpus())
@settings(max_examples=300)
def test_compute_baselines_matches_the_per_paper_reference_build(case) -> None:
    papers, window = case
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    cells = compute_baselines(corpus).cells
    expected = _reference_cells(corpus)
    assert list(cells.items()) == list(expected.items())
    for key, cell in cells.items():
        assert cell.mean_citations == expected[key].mean_citations
