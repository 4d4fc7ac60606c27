from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import statistics
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crown import indicators
from crown.baselines import (
    BaselineTable,
    FieldYearCell,
    Weighting,
    below_and_tied,
    combined_percentile,
    compute_baselines,
    expected_citations_with_reason,
    percentile_rank,
)
from crown.corpus import MAX_REFERENCES, CitationWindow, Journal, Paper, build_corpus
from crown.indicators import (
    DegenerateGroupError,
    GroupSelection,
    ScoredColumns,
    cpp_fcsm,
    fractional_scores,
    mdncs,
    mncs,
    pp_top,
    score_group,
    scorable_papers,
    score_papers,
    top_label,
)
from crown.diagnostics import indexer_sensitivity
from crown.synth import FieldSpec, SynthConfig

from conftest import (SMALL_JOURNALS, categories_of, citation_count, corpus_from_synth,
                      corpus_from_text, reference_cited_by, small_corpus)


# --- ratio-of-sums vs mean-of-ratios -------------------------------------


def _columns(pairs):
    """The citations, expected and ncs columns of (citations, expected) pairs."""
    return [c for c, _ in pairs], [e for _, e in pairs], [c / e for c, e in pairs]


def test_crown_contrast_on_same_pairs() -> None:
    citations, expected, ncs = _columns([(2, 1), (8, 8)])
    assert cpp_fcsm(citations, expected) == pytest.approx(10 / 9, rel=1e-15)
    assert mncs(ncs) == 1.5


def test_ratio_of_sums_is_one_when_every_paper_hits_expectation() -> None:
    citations, expected, ncs = _columns([(3, 3), (7, 7), (1, 1)])
    assert cpp_fcsm(citations, expected) == 1.0
    assert mncs(ncs) == 1.0


def test_single_paper_group_collapses_all_three() -> None:
    citations, expected, ncs = _columns([(3, 2)])
    assert cpp_fcsm(citations, expected) == mncs(ncs) == mdncs(ncs) == 1.5


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=10),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200)
def test_group_statistics_match_exact_oracles(pairs) -> None:
    citations, expected, ncs = _columns(pairs)
    exact_ratio_of_sums = Fraction(sum(c for c, _ in pairs), sum(e for _, e in pairs))
    exact_mean = sum(Fraction(c, e) for c, e in pairs) / len(pairs)
    assert cpp_fcsm(citations, expected) == pytest.approx(float(exact_ratio_of_sums), rel=1e-12)
    assert mncs(ncs) == pytest.approx(float(exact_mean), rel=1e-12)
    ratios = sorted(Fraction(c, e) for c, e in pairs)
    middle = len(ratios) // 2
    exact_median = (
        ratios[middle]
        if len(ratios) % 2
        else (ratios[middle - 1] + ratios[middle]) / 2
    )
    assert mdncs(ncs) == pytest.approx(float(exact_median), rel=1e-12)


def test_they_agree_when_expected_values_are_equal() -> None:
    citations, expected, ncs = _columns([(2, 5), (9, 5), (4, 5)])
    assert cpp_fcsm(citations, expected) == pytest.approx(mncs(ncs), rel=1e-12)


def test_median_resists_skew_that_drags_the_mean() -> None:
    _, _, ncs = _columns([(1, 2), (1, 1), (10, 1)])  # ncs 0.5, 1.0, 10.0
    assert mdncs(ncs) == 1.0
    assert mncs(ncs) == pytest.approx(11.5 / 3, rel=1e-12)
    assert mncs(ncs) > mdncs(ncs)


def test_even_count_median_is_central_midpoint() -> None:
    _, _, ncs = _columns([(1, 1), (2, 1), (3, 1), (4, 1)])
    assert mdncs(ncs) == 2.5


# A few shared values make ties common; the rest are any finite floats.
_NCS_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
                        st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(_NCS_VALUES, min_size=1, max_size=40))
@example([2.0])
@example([2.0, 2.0])
@example([0.1, 0.7, 0.2, 0.4])
@example([1e308, 1.7e308])
@settings(max_examples=300)
def test_mdncs_is_statistics_median_to_the_bit(ncs) -> None:
    assert mdncs(ncs).hex() == statistics.median(ncs).hex()


def _dead_pass(n: int) -> ScoredColumns:
    """A pass over ``n`` papers, none of them scorable."""
    return ScoredColumns([f"p{i}" for i in range(n)], [0] * n, [None] * n, [None] * n,
                         [50.0] * n, [0.0] * n, ["zero baseline"] * n)


def test_empty_scorable_set_is_degenerate() -> None:
    dead = _dead_pass(3)
    unscorable = tuple((paper_id, "zero baseline") for paper_id in dead.paper_ids)
    for split in (
        lambda: scorable_papers("dead", dead),
        lambda: indicators.group_report(
            "dead", dead, Weighting.HARMONIC, CitationWindow.all()
        ),
    ):
        with pytest.raises(
            DegenerateGroupError, match="^group 'dead': no scorable papers$"
        ) as exc_info:
            split()
        error = exc_info.value
        assert (error.group, error.n_total, error.n_scorable) == ("dead", 3, 0)
        assert error.unscorable == unscorable


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=4,
    ),
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=6)),
)
@settings(max_examples=300)
def test_mean_of_ratios_is_consistent_at_equal_sizes(pairs_a, pairs_b, added) -> None:
    """Adding the same paper to equal-size groups never flips their order."""
    size = min(len(pairs_a), len(pairs_b))
    pairs_a, pairs_b = pairs_a[:size], pairs_b[:size]
    mean = lambda pairs: sum(Fraction(c, e) for c, e in pairs) / len(pairs)
    if mean(pairs_a) >= mean(pairs_b):
        assert mean([*pairs_a, added]) >= mean([*pairs_b, added])
    # float implementation tracks the exact value closely enough to agree
    assert mncs(_columns([*pairs_a, added])[2]) == pytest.approx(
        float(mean([*pairs_a, added])), rel=1e-12
    )


# --- percentile ranks ------------------------------------------------------


def _cell(values) -> FieldYearCell:
    return FieldYearCell("F", 2005, tuple(sorted(values)))


def brute_percentile(values, citations) -> float:
    below = sum(v < citations for v in values)
    tied = sum(v == citations for v in values)
    return 100.0 * (below + 0.5 * tied) / len(values)


def test_percentile_tie_rule_examples() -> None:
    cell = _cell([0, 1, 2, 3, 4])
    assert percentile_rank(cell, 2) == 50.0
    assert percentile_rank(cell, 4) == 90.0
    assert percentile_rank(cell, 0) == 10.0


def test_percentile_full_tie_cell_gives_fifty_to_everyone() -> None:
    assert percentile_rank(_cell([3, 3, 3, 3]), 3) == 50.0


def test_percentile_requires_membership() -> None:
    with pytest.raises(ValueError, match="not in cell"):
        percentile_rank(_cell([0, 1, 2]), 7)


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40), st.data())
@settings(max_examples=300)
def test_percentile_matches_brute_force_and_bounds(values, data) -> None:
    member = data.draw(st.sampled_from(values))
    rank = percentile_rank(_cell(values), member)
    assert rank == brute_percentile(values, member)
    assert 0.0 < rank <= 100.0


tie_prone_floats = st.sampled_from([-0.0, 0.0, 1.0, 2.0, -math.inf, math.inf]) | st.floats(
    allow_nan=False
)


@given(st.lists(tie_prone_floats, min_size=1, max_size=30), st.data())
@settings(max_examples=300)
def test_below_and_tied_matches_counting(values, data) -> None:
    # the value is one of the sequence's or any other, absent ones included
    value = data.draw(tie_prone_floats | st.sampled_from(values))
    below = sum(item < value for item in values)
    tied = sum(item == value for item in values)
    assert below_and_tied(sorted(values), value) == (below, tied)


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=50)
def test_minimum_tie_free_percentile(n: int) -> None:
    values = list(range(n))  # tie-free
    assert percentile_rank(_cell(values), 0) == 100.0 * 0.5 / n


def test_combined_percentile_averages_cells_with_equal_weights() -> None:
    papers_jsonl = "\n".join(
        [
            '{"id":"m1","year":2005,"journal":"jm","references":[],"citations":5}',
            '{"id":"a1","year":2005,"journal":"ja","references":[],"citations":0}',
            '{"id":"a2","year":2005,"journal":"ja","references":[],"citations":9}',
            '{"id":"b1","year":2005,"journal":"jb","references":[],"citations":1}',
        ]
    )
    journals_csv = "id,title,categories\njm,Multi,A|B\nja,OnlyA,A\njb,OnlyB,B\n"
    corpus = corpus_from_text(papers_jsonl, journals_csv)
    table = compute_baselines(corpus)
    # cell A: [0, 5, 9]; cell B: [1, 5]; paper m1 has 5 citations
    rank_a = percentile_rank(table.cell("A", 2005), 5)
    rank_b = percentile_rank(table.cell("B", 2005), 5)
    assert combined_percentile(table, categories_of(corpus, "m1"), 2005, 5) == (
        (rank_a + rank_b) / 2
    )


# --- top-x% share ----------------------------------------------------------


def test_pp_top_counts_threshold_inclusive() -> None:
    percentiles = [99.0, 99.5] + [50.0] * 198
    assert pp_top(percentiles, 1.0) == pytest.approx(0.01)


def test_pp_top_zero_when_no_paper_reaches_threshold() -> None:
    assert pp_top([10.0, 20.0], 1.0) == 0.0


def test_pp_top_half_on_tie_free_uniform_cell() -> None:
    # whole tie-free cell of even size: percentiles (i + 0.5)/n, exactly half >= 50
    n = 30
    values = list(range(n))
    percentiles = [brute_percentile(values, v) for v in values]
    share = pp_top(percentiles, 50.0)
    oracle = sum(p >= 50.0 for p in percentiles) / n
    assert share == oracle == 0.5


def test_pp_top_rejects_silly_thresholds() -> None:
    for x in (0.0, 100.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^top-x share needs 0 < x < 100, got "):
            pp_top([50.0], x)
    for x in (True, "5", None):
        with pytest.raises(ValueError, match=r"^top-x share must be a number, got "):
            pp_top([50.0], x)


CPP_FCSM_FAULT = "cpp_fcsm needs two non-empty columns of equal length, got"


@pytest.mark.parametrize("statistic, columns, message", [
    (cpp_fcsm, ([], []), f"{CPP_FCSM_FAULT} 0 and 0"),
    (cpp_fcsm, ([1, 2], [1.0]), f"{CPP_FCSM_FAULT} 2 and 1"),
    (mncs, ([],), "mncs needs a non-empty column"),
    (mdncs, ([],), "mdncs needs a non-empty column"),
    (pp_top, ([], 1.0), "pp_top needs a non-empty column"),
    (cpp_fcsm, ([1], [0.0]), "cpp_fcsm needs a positive expected total, got 0.0"),
], ids=["cpp_fcsm-empty", "cpp_fcsm-unequal", "mncs-empty", "mdncs-empty", "pp_top-empty",
        "cpp_fcsm-zero-expected"])
def test_column_statistics_refuse_empty_and_unequal_columns(statistic, columns, message) -> None:
    with pytest.raises(ValueError) as exc_info:
        statistic(*columns)
    assert str(exc_info.value) == message


# --- fractional counting ---------------------------------------------------


def _fractional_fixture():
    """One target cited by a 6-reference paper and a 40-reference paper."""
    refs_sparse = ["t"] + [f"s{i}" for i in range(5)]
    refs_dense = ["t"] + [f"d{i}" for i in range(39)]
    papers = [
        Paper("t", 2000, "j1", ()),
        Paper("u", 2000, "j1", ()),
        Paper("sparse", 2001, "j1", tuple(refs_sparse)),
        Paper("dense", 2001, "j1", tuple(refs_dense)),
    ]
    return build_corpus(papers, [Journal("j1", "J", ("F",))])


def test_fractional_contrasting_densities() -> None:
    corpus = _fractional_fixture()
    assert len(corpus.papers["sparse"].references) == 6
    assert len(corpus.papers["dense"].references) == 40
    assert fractional_scores(corpus, ["t"]) == [pytest.approx(1 / 6 + 1 / 40, abs=1e-15)]


def test_fractional_uncited_paper_is_zero() -> None:
    assert fractional_scores(_fractional_fixture(), ["u"]) == [0.0]


def test_fractional_single_reference_citer_gives_full_weight() -> None:
    papers = [Paper("t", 2000, "j1", ()), Paper("q", 2001, "j1", ("t",))]
    corpus = build_corpus(papers, [Journal("j1", "J", ("F",))])
    assert fractional_scores(corpus, ["t"]) == [1.0]


def test_fractional_excludes_override_papers_with_warning() -> None:
    papers = [
        Paper("t", 2000, "j1", (), raw_citation_count=3),
        Paper("q", 2001, "j1", ("t",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("F",))])
    # neither fractional_scores nor the score pass warns per paper ...
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fractional_scores(corpus, ["t", "q"]) == [None, 0.0]
        scored = score_papers(corpus, ["t", "q"], Weighting.ARITHMETIC)
    assert dict(zip(scored.paper_ids, scored.fractional)) == {"q": 0.0, "t": None}
    # ... and the group report warns exactly once for the whole group
    group = GroupSelection.resolve("g", ["t", "q"], corpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = score_group(corpus, group, Weighting.ARITHMETIC)
    assert [str(w.message) for w in caught] == [
        "group 'g': 1 paper(s) with citation overrides excluded from fractional counting"
    ]
    assert report.mean_fractional == 0.0


def _mean_fractional(corpus, paper_ids: list[str]) -> float:
    group = GroupSelection.resolve("g", paper_ids, corpus)
    return score_group(corpus, group, Weighting.HARMONIC).mean_fractional


def test_mean_fractional_group() -> None:
    corpus = _fractional_fixture()
    assert _mean_fractional(corpus, ["t", "u"]) == pytest.approx(
        (1 / 6 + 1 / 40) / 2, abs=1e-15
    )


def test_mean_fractional_single_uncited_paper() -> None:
    assert _mean_fractional(_fractional_fixture(), ["u"]) == 0.0


def test_mean_fractional_conservation_on_internal_corpus() -> None:
    """With only internal references, total weight = number of citing papers."""
    papers = [
        Paper("a", 2000, "j1", ()),
        Paper("b", 2000, "j1", ()),
        Paper("c", 2001, "j1", ("a", "b")),
        Paper("d", 2002, "j1", ("a", "c")),
        Paper("e", 2002, "j1", ("b",)),
    ]
    corpus = build_corpus(papers, [Journal("j1", "J", ("F",))])
    total = math.fsum(fractional_scores(corpus, list(corpus.papers)))
    citing = sum(1 for paper in papers if paper.references)
    assert total == pytest.approx(citing, abs=1e-12)
    # oracle: accumulate the exact weights by hand
    exact = sum(
        Fraction(1, len(corpus.papers[q].references))
        for pid in corpus.papers
        for q in reference_cited_by(papers, corpus.window)[pid]
    )
    assert exact == citing


@given(st.integers(1, MAX_REFERENCES))
@example(MAX_REFERENCES)
@example(MAX_REFERENCES - 1)
@example(3)
def test_every_admitted_weight_lies_on_the_exact_grid(n) -> None:
    # The tally sums 1/R in units of 2^-80: for every R up to the parse
    # bound, the double 1/R is a whole number of units, so no weight is
    # rounded on the way in, and the units give it back unchanged.
    weight = 1.0 / n
    units = int(weight * 2**80)
    assert Fraction(weight) * 2**80 == units
    assert units / 2.0**80 == weight


def test_fractional_ignores_category_scheme() -> None:
    corpus = _fractional_fixture()
    relabeled = corpus.with_journals([Journal("j1", "J", ("ZZZ",))])
    ids = list(corpus.papers)
    assert fractional_scores(corpus, ids) == fractional_scores(relabeled, ids)


# --- score_group and the report --------------------------------------------


def _scored_corpus():
    papers_jsonl = "\n".join(
        [
            '{"id":"p1","year":2005,"journal":"j1","references":[]}',
            '{"id":"p2","year":2005,"journal":"j1","references":[]}',
            '{"id":"p3","year":2005,"journal":"j1","references":[]}',
            '{"id":"q1","year":2006,"journal":"j1","references":["p1","p2"]}',
            '{"id":"q2","year":2006,"journal":"j1","references":["p1"]}',
            '{"id":"q3","year":2007,"journal":"j1","references":["p1","q1"]}',
        ]
    )
    return corpus_from_text(papers_jsonl, "id,title,categories\nj1,J,solo\n")


def test_score_group_composes_all_indicators() -> None:
    corpus = _scored_corpus()
    group = GroupSelection.resolve("g", ["p1", "p2", "p3"], corpus)
    report = score_group(corpus, group, Weighting.HARMONIC)
    assert report.n_total == 3
    assert report.n_scorable == 3
    # cell (solo, 2005) holds citations [0, 1, 3]: e = 4/3 for each paper
    assert report.cpp_fcsm == pytest.approx((3 + 1 + 0) / 4.0, rel=1e-12)
    assert report.mncs == pytest.approx((3 / (4 / 3) + 1 / (4 / 3) + 0) / 3, rel=1e-12)
    assert report.mdncs == pytest.approx(1 / (4 / 3), rel=1e-12)
    assert report.weighting == "harmonic"
    assert report.window == "all"


def test_score_group_weighting_is_irrelevant_on_single_category_corpus() -> None:
    corpus = _scored_corpus()
    group = GroupSelection.resolve("g", list(corpus.papers), corpus)
    harmonic = score_group(corpus, group, Weighting.HARMONIC)
    arithmetic = score_group(corpus, group, Weighting.ARITHMETIC)
    assert harmonic == arithmetic._replace(weighting="harmonic")


# Each library entry point that takes a weighting, called with one.
WEIGHTED_CALLS = {
    "score_group": lambda corpus, group, weighting: score_group(corpus, group, weighting),
    "score_papers": lambda corpus, group, weighting: score_papers(
        corpus, group.paper_ids, weighting),
    "group_report": lambda corpus, group, weighting: indicators.group_report(
        group.name, score_papers(corpus, group.paper_ids, Weighting.HARMONIC), weighting,
        corpus.window),
    "indexer_sensitivity": lambda corpus, group, weighting: indexer_sensitivity(
        corpus, group, list(corpus.journals.values()), weighting),
    # cells of means 1 and 3, where "harmonic" would read 2.0, not 1.5
    "expected_citations_with_reason": lambda corpus, group, weighting:
        expected_citations_with_reason(
            BaselineTable({(category, 2005): FieldYearCell(category, 2005, (count,))
                           for category, count in (("a", 1), ("b", 3))}),
            ("a", "b"), 2005, weighting),
}


@pytest.mark.parametrize("weighting", ["harmonic", "bogus", None])
@pytest.mark.parametrize("call", WEIGHTED_CALLS)
def test_a_weighting_that_is_not_a_weighting_is_refused(call, weighting) -> None:
    # "harmonic" would score as arithmetic under the harmonic label
    corpus = _scored_corpus()
    group = GroupSelection.resolve("g", ["p1", "q1"], corpus)
    with pytest.raises(ValueError) as exc_info:
        WEIGHTED_CALLS[call](corpus, group, weighting)
    assert str(exc_info.value) == f"weighting must be a Weighting, got {weighting!r}"


def test_whole_cell_group_normalizes_to_one() -> None:
    corpus = _scored_corpus()
    group = GroupSelection.resolve("cell", ["p1", "p2", "p3"], corpus)
    report = score_group(corpus, group, Weighting.ARITHMETIC)
    assert report.mncs == pytest.approx(1.0, abs=1e-9)


def test_report_json_round_trip_is_bit_identical() -> None:
    corpus = _scored_corpus()
    group = GroupSelection.resolve("g", ["p1", "q1"], corpus)
    report = score_group(corpus, group, Weighting.HARMONIC)
    text = report.to_json()
    assert json.loads(text) == report.payload()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text


def test_report_json_keys_the_top_share_after_x() -> None:
    corpus = _scored_corpus()
    group = GroupSelection.resolve("g", ["p1", "q1"], corpus)
    report = score_group(corpus, group, Weighting.HARMONIC, top_x=0.5)
    text = report.to_json()
    payload = json.loads(text)
    assert payload["pp_top0.5"] == report.pp_top
    assert "pp_top1" not in payload
    assert payload == report.payload()


def test_top_label_names_the_share_after_x() -> None:
    assert top_label(1) == "pp_top1"
    assert top_label(10.0) == "pp_top10"
    assert top_label(0.5) == "pp_top0.5"
    assert top_label(25.5) == "pp_top25.5"


def test_score_group_all_unscorable_raises_with_coverage() -> None:
    papers_jsonl = "\n".join(
        [
            '{"id":"p1","year":2005,"journal":"j1","references":[]}',
            '{"id":"p2","year":2005,"journal":"j1","references":[]}',
        ]
    )
    corpus = corpus_from_text(papers_jsonl, "id,title,categories\nj1,J,solo\n")
    group = GroupSelection.resolve("dead", ["p1", "p2"], corpus)
    with pytest.raises(DegenerateGroupError) as exc_info:
        score_group(corpus, group, Weighting.HARMONIC)
    error = exc_info.value
    assert error.group == "dead"
    assert error.n_total == 2
    assert len(error.unscorable) == 2
    assert all("zero baseline" in reason for _, reason in error.unscorable)


def test_group_report_checks_top_x_before_the_degenerate_raise() -> None:
    dead = _dead_pass(1)
    for x in (math.nan, 0.0, 150.0):
        with pytest.raises(ValueError, match=r"^top-x share needs 0 < x < 100, got "):
            indicators.group_report("dead", dead, Weighting.HARMONIC, CitationWindow.all(), x)


def test_group_selection_validates_membership_and_duplicates() -> None:
    corpus = _scored_corpus()
    from crown.corpus import CorpusError

    with pytest.raises(CorpusError, match="unknown paper"):
        GroupSelection.resolve("g", ["p1", "ghost"], corpus)
    with pytest.raises(CorpusError, match="twice"):
        GroupSelection.resolve("g", ["p1", "p1"], corpus)
    with pytest.raises(CorpusError, match="^group 'g' is empty$"):
        GroupSelection.resolve("g", [], corpus)


def test_group_selection_errors_name_the_position_of_the_id(tmp_path) -> None:
    corpus = _scored_corpus()
    from crown.corpus import ParseError

    with pytest.raises(ParseError, match="^line 3: group 'g': unknown paper 'ghost'$"):
        GroupSelection.resolve("g", ["p1", "q1", "ghost", "p2"], corpus)
    with pytest.raises(
        ParseError, match=r"^line 4: group 'g' lists paper 'p1' twice \(first on line 2\)$"
    ):
        GroupSelection.resolve("g", ["q1", "p1", "p2", "p1"], corpus)
    group = GroupSelection.resolve("g", ["q1", "p1", "p2"], corpus)
    assert group.paper_ids == ("q1", "p1", "p2")
    # a blank or comment line of a group file lists no paper but is numbered
    group_file = tmp_path / "g.txt"
    group_file.write_text("\n# p1\n")
    with pytest.raises(ParseError, match="^line 2: group 'g' is empty$"):
        GroupSelection.read(group_file, corpus)
    group_file.write_text("\np1\n")
    group = GroupSelection.read(group_file, corpus)
    assert group.paper_ids == ("p1",)


def test_score_papers_orders_by_paper_id() -> None:
    corpus = _scored_corpus()
    scored = score_papers(corpus, ["q1", "p1", "p3"], Weighting.HARMONIC)
    assert scored.paper_ids == ["p1", "p3", "q1"]


def test_score_papers_refuses_a_repeated_id_at_the_call() -> None:
    # a pass keyed by id would otherwise drop the repeat, and a listed pass
    # would count it twice in every group statistic
    corpus = _scored_corpus()
    with pytest.raises(ValueError, match="^paper 'p2' is listed twice$"):
        score_papers(corpus, ["p2", "p1", "p2"], Weighting.HARMONIC)


def test_score_papers_refuses_an_unknown_id_at_the_call() -> None:
    corpus = _scored_corpus()
    with pytest.raises(KeyError, match="ghost"):
        score_papers(corpus, ["p1", "ghost"], Weighting.HARMONIC)


@pytest.mark.parametrize("paper_ids, item", [
    (["p1", 3], 3),  # does not sort with the ids
    (["p1", ["x"]], ["x"]),  # neither sorts nor hashes
    ([["x"], ["y"]], ["x"]),  # sorts, but does not hash
    ([3], 3),
])
def test_score_papers_refuses_an_item_that_is_no_id_with_a_key_error(paper_ids, item) -> None:
    corpus = _scored_corpus()
    for score in (lambda: score_papers(corpus, paper_ids, Weighting.HARMONIC),
                  lambda: fractional_scores(corpus, paper_ids)):
        with pytest.raises(KeyError) as exc_info:
            score()
        assert exc_info.value.args == (item,)


def _outcome(report):
    """What one group report call gives: the report or the degenerate
    error's fields, and the text of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = report()
        except DegenerateGroupError as exc:
            result = (str(exc), exc.group, exc.n_total, exc.n_scorable, exc.unscorable)
    return result, [str(warning.message) for warning in caught]


@given(small_corpus(), st.sampled_from(list(Weighting)), st.data())
@settings(max_examples=200)
def test_a_group_report_of_a_pass_matches_score_group(case, weighting, data) -> None:
    papers, window = case
    group = data.draw(
        st.lists(st.sampled_from([paper.id for paper in papers]), min_size=1, unique=True)
    )
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    scored = score_papers(corpus, group, weighting)

    def report():
        return indicators.group_report("g", scored, weighting, window)

    expected = _outcome(report)
    assert _outcome(report) == expected  # a report leaves its pass whole
    selection = GroupSelection.resolve("g", group, corpus)
    assert _outcome(lambda: score_group(corpus, selection, weighting)) == expected


def test_a_whole_corpus_score_group_holds_no_list_of_papers() -> None:
    corpus = corpus_from_synth(
        SynthConfig(
            fields=(FieldSpec("math", 4.0, 150), FieldSpec("bio", 12.0, 150)),
            years=(2000, 2004),
            cross_field_fraction=0.2,
            multi_category_journal_fraction=1.0,
            seed=3,
        )
    )
    group = GroupSelection.resolve("all", list(corpus.papers), corpus)

    def peak(call) -> int:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        grown = tracemalloc.get_traced_memory()[1] - before
        del result
        return grown

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        listed = peak(
            lambda: list(zip(*score_papers(corpus, group.paper_ids, Weighting.HARMONIC)))
        )
        folded = peak(lambda: score_group(corpus, group, Weighting.HARMONIC))
    finally:
        if not tracing:
            tracemalloc.stop()
    assert folded < listed


# Seven override papers in one one-category journal: the cell mean is 51/7.
_ONE_CATEGORY_CELL = [
    Paper(f"p{i}", 2005, "j1", (), raw_citation_count=count)
    for i, count in enumerate((7, 7, 7, 7, 7, 8, 8))
]


# ``1 / (1 / (51/7))`` is one ulp below the mean: a one-category paper's
# harmonic value must be its cell mean itself.
def test_one_category_per_journal_makes_the_weightings_agree() -> None:
    corpus = build_corpus(_ONE_CATEGORY_CELL, [Journal("j1", "J", ("solo",))])
    ids = list(corpus.papers)

    def values(weighting):
        columns, _ = scorable_papers("g", score_papers(corpus, ids, weighting))
        return (columns.expected, mncs(columns.ncs),
                cpp_fcsm(columns.citations, columns.expected))

    assert values(Weighting.HARMONIC) == values(Weighting.ARITHMETIC)


def test_scored_columns_are_immutable_and_keep_the_named_tuple_repr() -> None:
    scored = ScoredColumns(["pair0"], [3], [2], [1.5], [0.0], [None], [None])
    with pytest.raises(AttributeError):
        scored.ncs = [2.0]  # type: ignore[misc]
    assert repr(scored) == (
        "ScoredColumns(paper_ids=['pair0'], citations=[3], expected=[2], ncs=[1.5], "
        "percentiles=[0.0], fractional=[None], reasons=[None])"
    )


# --- the score pass against a per-paper reference pass ----------------------


def _reference_score_papers(corpus, paper_ids, weighting) -> list:
    """The plain score pass, one row per paper in the order of the columns of
    ``ScoredColumns``: every value recomputed for every paper, against a
    table built here, not the one the corpus keeps."""
    table = compute_baselines(corpus)
    scored = []
    for paper_id in sorted(paper_ids):
        citations = citation_count(corpus, paper_id)
        year = corpus.papers[paper_id].year
        categories = categories_of(corpus, paper_id)
        expected, reason = expected_citations_with_reason(
            table, categories, year, weighting
        )
        if corpus.papers[paper_id].raw_citation_count is None:
            fractional = fractional_scores(corpus, [paper_id])[0]
        else:
            fractional = None
        scored.append((
            paper_id,
            citations,
            expected,
            None if expected is None else citations / expected,
            combined_percentile(table, categories, year, citations),
            fractional,
            reason,
        ))
    return scored


@given(small_corpus(), st.sampled_from(list(Weighting)), st.data())
@settings(max_examples=300)
def test_score_papers_matches_the_per_paper_reference_pass(case, weighting, data) -> None:
    papers, window = case
    group = data.draw(
        st.lists(st.sampled_from([paper.id for paper in papers]), min_size=1, unique=True)
    )
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    rows = list(zip(*score_papers(corpus, group, weighting)))
    expected = _reference_score_papers(corpus, group, weighting)
    assert rows == expected
    assert repr(rows) == repr(expected)


@given(small_corpus(), st.sampled_from(list(Weighting)), st.data())
@settings(max_examples=300)
def test_a_pass_is_one_table_of_columns(case, weighting, data) -> None:
    papers, window = case
    group = data.draw(
        st.lists(st.sampled_from([paper.id for paper in papers]), min_size=1, unique=True)
    )
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    scored = score_papers(corpus, group, weighting)
    assert {len(column) for column in scored} == {len(group)}
    assert all(a < b for a, b in itertools.pairwise(scored.paper_ids))
    for expected, ncs, reason in zip(scored.expected, scored.ncs, scored.reasons):
        assert (expected is None) == (ncs is None) == (reason is not None)
    assert [fractional is None for fractional in scored.fractional] == [
        corpus.papers[paper_id].raw_citation_count is not None for paper_id in scored.paper_ids
    ]
    # selecting papers from a pass, as ranksum does from its union, gives
    # the pass over just those papers
    keep = data.draw(st.lists(st.booleans(), min_size=len(group), max_size=len(group)))
    alone = score_papers(corpus, itertools.compress(scored.paper_ids, keep), weighting)
    assert scored.select(keep) == alone
    assert repr(scored.select(iter(keep))) == repr(alone)


@given(small_corpus(), st.data())
@settings(max_examples=200)
def test_an_override_equal_to_its_count_moves_only_the_fractional_column(case, data) -> None:
    # The override is the count the cells and the pass read, so pinning a
    # paper at its own count changes neither; only fractional counting
    # leaves an override paper out.
    papers, window = case
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    pinned = {
        paper.id for paper in papers
        if paper.raw_citation_count is None and data.draw(st.booleans(), label=paper.id)
    }
    overridden = build_corpus(
        [paper._replace(raw_citation_count=citation_count(corpus, paper.id))
         if paper.id in pinned else paper for paper in papers],
        SMALL_JOURNALS, window,
    )
    assert overridden.citation_counts == corpus.citation_counts
    assert overridden.n_edges == corpus.n_edges
    table = compute_baselines(corpus)
    assert list(compute_baselines(overridden).cells.items()) == list(table.cells.items())
    for weighting in Weighting:
        before = score_papers(corpus, list(corpus.papers), weighting)
        after = score_papers(overridden, list(corpus.papers), weighting)
        assert repr(after._replace(fractional=None)) == repr(before._replace(fractional=None))
        assert after.fractional == [
            None if paper_id in pinned else value
            for paper_id, value in zip(before.paper_ids, before.fractional)
        ]


@given(small_corpus())
@settings(max_examples=200)
def test_a_disjoint_renamed_copy_moves_no_score_and_doubles_every_cell(case) -> None:
    # A copy under new ids and reference keys, with the same years,
    # journals and overrides, cites only itself: each cell holds every
    # count twice, so its mean and every midrank percentile stay the same
    # rational, and no fractional sum moves.
    papers, window = case
    copy = [
        paper._replace(id="copy-" + paper.id,
                       references=tuple("copy-" + key for key in paper.references))
        for paper in papers
    ]
    corpus = build_corpus(papers, SMALL_JOURNALS, window)
    doubled = build_corpus([*papers, *copy], SMALL_JOURNALS, window)
    table, doubled_table = compute_baselines(corpus), compute_baselines(doubled)
    assert doubled_table.cells.keys() == table.cells.keys()
    for key, cell in table.cells.items():
        twice = doubled_table.cells[key]
        assert twice.n == 2 * cell.n
        assert twice.mean_citations == cell.mean_citations
    ids = list(corpus.papers)
    for weighting in Weighting:
        assert repr(score_papers(doubled, ids, weighting)) == repr(
            score_papers(corpus, ids, weighting)
        )


def test_score_pass_computes_each_value_once_per_key(monkeypatch) -> None:
    corpus = corpus_from_synth(
        SynthConfig(
            fields=(FieldSpec("math", 4.0, 40), FieldSpec("bio", 12.0, 40)),
            years=(2000, 2003),
            cross_field_fraction=0.2,
            multi_category_journal_fraction=1.0,
            seed=5,
        )
    )
    group = sorted(corpus.papers)[::2]
    calls = {"expected": 0, "percentile": 0, "fractional": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        indicators,
        "expected_citations_with_reason",
        counting("expected", expected_citations_with_reason),
    )
    monkeypatch.setattr(
        indicators, "combined_percentile", counting("percentile", combined_percentile)
    )
    monkeypatch.setattr(
        indicators, "fractional_scores", counting("fractional", fractional_scores)
    )
    scored = score_papers(corpus, group, Weighting.HARMONIC)
    papers = [corpus.papers[pid] for pid in group]
    year_keys = {(categories_of(corpus, paper.id), paper.year) for paper in papers}
    count_keys = {
        (categories_of(corpus, paper.id), paper.year, citation_count(corpus, paper.id))
        for paper in papers
    }
    assert len(year_keys) < len(count_keys) < len(group)
    assert calls["expected"] == len(year_keys)
    assert calls["percentile"] == len(count_keys)
    # one fractional call for the whole pass, which decides the overrides itself
    assert calls["fractional"] == 1
    monkeypatch.undo()
    assert list(zip(*scored)) == _reference_score_papers(corpus, group, Weighting.HARMONIC)


# --- metamorphic checks on real corpus groups --------------------------------


# One journal per field; the seed gives some of them several categories.
METAMORPHIC_CONFIG = SynthConfig(
    fields=(FieldSpec("math", 4.0, 20), FieldSpec("bio", 15.0, 20), FieldSpec("chem", 8.0, 20)),
    years=(2000, 2004),
    cross_field_fraction=0.2,
    multi_category_journal_fraction=0.5,
    seed=11,
)


@functools.cache
def _metamorphic_corpus(window: str):
    return corpus_from_synth(METAMORPHIC_CONFIG, CitationWindow.parse(window))


@functools.cache
def _scorable_ids(weighting: Weighting) -> tuple[str, ...]:
    corpus = _metamorphic_corpus("all")
    scored = score_papers(corpus, corpus.papers, weighting)
    return tuple(
        paper_id for paper_id, expected in zip(scored.paper_ids, scored.expected)
        if expected is not None
    )


@given(
    st.sampled_from(list(Weighting)),
    st.integers(min_value=1, max_value=20),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_adding_one_paper_to_two_equal_groups_never_reverses_their_mncs(
    weighting, size, rng
) -> None:
    corpus = _metamorphic_corpus("all")
    drawn = rng.sample(_scorable_ids(weighting), 2 * size + 1)
    group_a, group_b, added = drawn[:size], drawn[size:-1], drawn[-1]

    def value(ids) -> float:
        group = GroupSelection.resolve("g", ids, corpus)
        return score_group(corpus, group, weighting).mncs

    def exact_sum(ids) -> Fraction:
        return sum(map(Fraction, score_papers(corpus, ids, weighting).ncs))

    before_a, before_b = value(group_a), value(group_b)
    after_a, after_b = value([*group_a, added]), value([*group_b, added])
    # A strict order may collapse into a tie under rounding, never reverse.
    if before_a > before_b:
        assert after_a >= after_b
    if before_a < before_b:
        assert after_a <= after_b
    # Equal floats need not mean equal sums; only an exact tie stays a tie.
    if exact_sum(group_a) == exact_sum(group_b):
        assert after_a == after_b


@given(
    st.sampled_from(("all", "years1", "years5")),
    st.lists(
        st.lists(st.sampled_from("xyzw"), min_size=1, max_size=3, unique=True),
        min_size=len(METAMORPHIC_CONFIG.fields),
        max_size=len(METAMORPHIC_CONFIG.fields),
    ),
)
@settings(max_examples=60, deadline=None)
def test_relabelling_categories_leaves_fractional_scores_bit_identical(
    window, labels
) -> None:
    corpus = _metamorphic_corpus(window)
    journals = list(corpus.journals.values())
    assert len(journals) == len(labels)
    relabelled = corpus.with_journals(
        [
            Journal(journal.id, journal.title, tuple(categories))
            for journal, categories in zip(journals, labels)
        ]
    )
    ids = list(corpus.papers)
    assert [score.hex() for score in fractional_scores(corpus, ids)] == [
        score.hex() for score in fractional_scores(relabelled, ids)
    ]
    passes = [
        score_papers(scheme, ids, Weighting.ARITHMETIC)
        for scheme in (corpus, relabelled)
    ]
    assert [score.hex() for score in passes[0].fractional] == [
        score.hex() for score in passes[1].fractional
    ]
