from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown import diagnostics, indicators
from crown.baselines import Weighting
from crown.cli import main
from crown.corpus import Journal
from crown.diagnostics import (
    MAX_INSTANCES,
    MEAN_OF_RATIOS,
    RATIO_OF_SUMS,
    SearchBounds,
    build_counterexample,
    consistency_counterexample,
    evaluate_pairs,
    indexer_sensitivity,
    primary_only_scheme,
    rank_sum_test,
)
from crown.indicators import GroupSelection, score_group, score_papers

from conftest import brute_force_counterexample, corpus_from_text, is_strict_flip

# --- consistency -----------------------------------------------------------


def test_shipped_counterexample_evaluates_exactly() -> None:
    example = build_counterexample(RATIO_OF_SUMS, [(1, 1)], [(9, 10)], (0, 10))
    assert example.group_a == ((1, 1),)
    assert example.group_b == ((9, 10),)
    assert example.added_paper == (0, 10)
    assert example.before_a == 1.0
    assert example.before_b == 0.9
    assert example.after_a == 1 / 11
    assert example.after_b == 0.45
    assert is_strict_flip(example)


def test_same_instance_under_mean_of_ratios_keeps_order() -> None:
    example = build_counterexample(
        MEAN_OF_RATIOS, [(1, 1)], [(9, 10)], (0, 10)
    )
    assert example.before_a == 1.0
    assert example.before_b == 0.9
    assert example.after_a == 0.5
    assert example.after_b == 0.45
    assert not is_strict_flip(example)


def test_search_finds_ratio_of_sums_flip_within_small_bounds() -> None:
    found = consistency_counterexample(RATIO_OF_SUMS, SearchBounds(2, 4, 4))
    assert found is not None
    assert is_strict_flip(found)
    # re-evaluate through the indicators to confirm the reported values
    assert found.before_a == evaluate_pairs(found.group_a, RATIO_OF_SUMS)
    assert found.after_a == evaluate_pairs(
        [*found.group_a, found.added_paper], RATIO_OF_SUMS
    )


def test_unknown_indicator_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown indicator 'bogus'"):
        evaluate_pairs([(1, 1)], "bogus")
    with pytest.raises(ValueError, match="unknown indicator 'bogus'"):
        consistency_counterexample("bogus", SearchBounds(1, 0, 1))
    assert main(["diagnose", "consistency", "--indicator", "bogus"]) == 1


@pytest.mark.parametrize("indicator", [RATIO_OF_SUMS, MEAN_OF_RATIOS])
def test_evaluate_pairs_rejects_bad_pairs(indicator) -> None:
    for pairs in ([(1, 0)], [(3, 2), (1, -1)], [(1, math.nan)], [(3, 2), (1, math.inf)]):
        index = len(pairs) - 1
        with pytest.raises(ValueError, match=f"^pair {index}: expected value must be positive"):
            evaluate_pairs(pairs, indicator)
    for pairs in ([(-1, 1)], [(math.nan, 1)], [(3, 2), (math.inf, 1)]):
        index = len(pairs) - 1
        with pytest.raises(ValueError, match=f"^pair {index}: citation count must be non-negative"):
            evaluate_pairs(pairs, indicator)
    with pytest.raises(ValueError, match="^no pairs to evaluate$"):
        evaluate_pairs([], indicator)


def test_search_finds_nothing_for_mean_of_ratios_at_equal_sizes() -> None:
    assert consistency_counterexample(MEAN_OF_RATIOS, SearchBounds(2, 4, 4)) is None


def test_search_finds_nothing_below_flip_threshold() -> None:
    # with citations and expectations capped at 1 no ratio-of-sums flip exists
    assert consistency_counterexample(RATIO_OF_SUMS, SearchBounds(1, 1, 1)) is None


def test_search_is_deterministic_first_found() -> None:
    bounds = SearchBounds(2, 4, 4)
    first = consistency_counterexample(RATIO_OF_SUMS, bounds)
    second = consistency_counterexample(RATIO_OF_SUMS, bounds)
    assert first == second


def test_search_result_verified_by_brute_oracle() -> None:
    """The found instance must flip under exact rational arithmetic too."""
    found = consistency_counterexample(RATIO_OF_SUMS, SearchBounds(2, 4, 4))
    ratio = lambda pairs: Fraction(sum(c for c, _ in pairs), sum(e for _, e in pairs))
    assert ratio(found.group_a) > ratio(found.group_b)
    assert ratio([*found.group_a, found.added_paper]) < ratio(
        [*found.group_b, found.added_paper]
    )


# Each bound with the group size of its first ratio-of-sums flip (None: no
# flip); mean of ratios has none at any of them.
@pytest.mark.parametrize("indicator", [RATIO_OF_SUMS, MEAN_OF_RATIOS])
@pytest.mark.parametrize("bounds, flip_size", [
    ((1, 0, 3), None), ((1, 1, 1), None), ((1, 2, 2), None), ((2, 1, 2), None),
    ((1, 4, 4), 1), ((2, 2, 3), 1), ((3, 2, 3), 1),
    ((2, 1, 3), 2), ((2, 2, 2), 2), ((3, 1, 2), 3),
    ((6, 0, 2), None), ((6, 1, 1), None), ((4, 2, 2), 2), ((5, 1, 2), 3),
])
def test_search_matches_the_brute_force_oracle(indicator, bounds, flip_size) -> None:
    bounds = SearchBounds(*bounds)
    found = consistency_counterexample(indicator, bounds)
    assert found == brute_force_counterexample(indicator, bounds)
    if indicator == MEAN_OF_RATIOS or flip_size is None:
        assert found is None
    else:
        assert len(found.group_a) == flip_size


def test_search_rejects_unknown_indicator_and_bad_bounds() -> None:
    with pytest.raises(ValueError):
        consistency_counterexample("h_index", SearchBounds(2, 4, 4))
    with pytest.raises(ValueError):
        SearchBounds(0, 4, 4)


@pytest.mark.parametrize("bounds", [
    (3, 6, 6),  # 7.4e9 instances
    (2, 4, 10**11),  # far past the limit at group size 1
    (10**12, 0, 1),  # one instance per size: only the size bound is large
])
def test_search_bounds_above_the_instance_limit_are_rejected(bounds) -> None:
    with pytest.raises(ValueError, match="limit"):
        SearchBounds(*bounds)


def test_instance_count_is_exact_under_the_limit() -> None:
    # 20 pairs; 20, 210 and 1540 multisets of sizes 1, 2 and 3
    count = 20**2 * 20 + 210**2 * 20 + 1540**2 * 20
    assert count <= MAX_INSTANCES
    assert SearchBounds(3, 4, 4).instance_count() == count


def test_one_paper_box_is_counted_and_settled_at_once() -> None:
    # one (citations, expected) pair: one group, and one instance, per size
    bounds = SearchBounds(MAX_INSTANCES, 0, 1)
    started = time.perf_counter()
    assert bounds.instance_count() == MAX_INSTANCES
    assert consistency_counterexample(RATIO_OF_SUMS, bounds) is None
    assert time.perf_counter() - started < 1.0


def test_instance_count_matches_enumeration() -> None:
    bounds = SearchBounds(2, 4, 4)
    papers = (4 + 1) * 4
    groups_1, groups_2 = papers, papers * (papers + 1) // 2
    expected = groups_1 * groups_1 * papers + groups_2 * groups_2 * papers
    assert bounds.instance_count() == expected


# --- indexer sensitivity ----------------------------------------------------


def _multi_scheme_corpus():
    # cells (A, 2005) and (B, 2005) have different means, so dropping the
    # multi-category journal's secondary category genuinely moves scores
    papers_jsonl = "\n".join(
        [
            '{"id":"m1","year":2005,"journal":"jm","references":[]}',
            '{"id":"m2","year":2005,"journal":"jm","references":[]}',
            '{"id":"a1","year":2005,"journal":"ja","references":[]}',
            '{"id":"b1","year":2005,"journal":"jb","references":[]}',
            '{"id":"b2","year":2005,"journal":"jb","references":[]}',
            '{"id":"c1","year":2006,"journal":"ja","references":["m1","b1"]}',
            '{"id":"c2","year":2006,"journal":"jb","references":["m1","a1","m2"]}',
            '{"id":"c3","year":2007,"journal":"jm","references":["m1","c1"]}',
        ]
    )
    journals_csv = "id,title,categories\njm,Multi,A|B\nja,OnlyA,A\njb,OnlyB,B\n"
    return corpus_from_text(papers_jsonl, journals_csv)


def test_identical_schemes_are_a_fixed_point() -> None:
    corpus = _multi_scheme_corpus()
    group = GroupSelection.resolve("g", ["m1", "a1", "b1"], corpus)
    scheme = list(corpus.journals.values())
    report = indexer_sensitivity(corpus, group, scheme, Weighting.HARMONIC)
    for paper in report.papers:
        assert paper.ncs_delta == 0.0
        assert paper.percentile_a == paper.percentile_b
        assert paper.fractional_delta == 0.0
    assert all(delta == 0.0 for delta in report.group_deltas.values())


def test_primary_only_scheme_moves_scores_of_multi_category_papers(monkeypatch) -> None:
    corpus = _multi_scheme_corpus()
    group = GroupSelection.resolve("g", ["m1", "m2"], corpus)
    scheme_a = list(corpus.journals.values())
    scheme_b = primary_only_scheme(scheme_a)
    assert all(len(journal.categories) == 1 for journal in scheme_b)
    passes = []

    def counting_score_papers(*args, **kwargs):
        passes.append(args[0])  # the corpus of the scheme being scored
        return score_papers(*args, **kwargs)

    for module in (diagnostics, indicators):
        monkeypatch.setattr(module, "score_papers", counting_score_papers)
    report = indexer_sensitivity(corpus, group, scheme_b, Weighting.HARMONIC)
    assert len(passes) == 2  # one score pass per scheme, reused for the reports
    assert any(paper.ncs_delta not in (None, 0.0) for paper in report.papers)
    assert all(paper.fractional_delta == 0.0 for paper in report.papers)
    assert report.group_deltas["mean_fractional"] == 0.0
    for scheme, expected in ((scheme_a, report.report_a), (scheme_b, report.report_b)):
        rescheme = corpus.with_journals(scheme)
        assert score_group(rescheme, group, Weighting.HARMONIC) == expected


def test_fractional_invariance_holds_for_any_scheme_pair() -> None:
    corpus = _multi_scheme_corpus()
    group = GroupSelection.resolve("g", list(corpus.papers), corpus)
    scheme_a = list(corpus.journals.values())
    relabeled = [
        Journal(journal.id, journal.title, tuple(reversed(journal.categories)))
        for journal in scheme_a
    ]
    report = indexer_sensitivity(corpus, group, relabeled, Weighting.ARITHMETIC)
    assert all(paper.fractional_delta == 0.0 for paper in report.papers)


def test_fractional_scoring_that_reads_the_scheme_fails_the_check(monkeypatch) -> None:
    corpus = _multi_scheme_corpus()
    group = GroupSelection.resolve("g", ["m1", "a1"], corpus)
    scheme_b = primary_only_scheme(list(corpus.journals.values()))
    honest = indicators.fractional_score

    def scheme_dependent(corpus, paper_id):
        journal = corpus.journals[corpus.papers[paper_id].journal_id]
        return honest(corpus, paper_id) + len(journal.categories)

    monkeypatch.setattr(indicators, "fractional_score", scheme_dependent)
    # m1's journal has categories A|B under scheme A and A alone under B
    with pytest.raises(AssertionError, match=r"moved with the category scheme: \['m1'\]"):
        indexer_sensitivity(corpus, group, scheme_b, Weighting.HARMONIC)


def test_scheme_missing_a_journal_is_an_error() -> None:
    corpus = _multi_scheme_corpus()
    group = GroupSelection.resolve("g", ["m1"], corpus)
    scheme_a = list(corpus.journals.values())
    from crown.corpus import ParseError

    # jb, the last journal, is first used by b1, the fourth paper
    with pytest.raises(ParseError, match="^line 4: paper 'b1' has unresolved journal 'jb'$"):
        indexer_sensitivity(corpus, group, scheme_a[:-1], Weighting.HARMONIC)


# --- rank-sum test -----------------------------------------------------------


def test_identical_samples_give_zero_z_and_unit_p() -> None:
    result = rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.z == 0.0
    assert result.p_two_sided == 1.0
    assert not result.degenerate


def test_complete_separation_gives_zero_u_for_low_sample() -> None:
    result = rank_sum_test([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert result.u_statistic == 0.0
    assert result.z < 0


def test_all_tied_samples_are_degenerate() -> None:
    result = rank_sum_test([1.0, 1.0], [1.0, 1.0, 1.0])
    assert result.degenerate
    assert result.z == 0.0
    assert result.p_two_sided == 1.0


def test_rejects_empty_or_tiny_samples() -> None:
    with pytest.raises(ValueError):
        rank_sum_test([], [1.0])
    with pytest.raises(ValueError):
        rank_sum_test([1.0], [2.0])


def _exact_two_sided_p(sample_a: list[float], sample_b: list[float]) -> float:
    """Permutation oracle: enumerate every assignment of pooled ranks."""
    n_a = len(sample_a)
    pooled = sorted(sample_a + sample_b)
    # midranks for the pooled multiset
    ranks = []
    index = 0
    while index < len(pooled):
        run_end = index
        while run_end + 1 < len(pooled) and pooled[run_end + 1] == pooled[index]:
            run_end += 1
        midrank = (index + run_end) / 2 + 1
        ranks.extend([midrank] * (run_end - index + 1))
        index = run_end + 1
    mean_u = n_a * (len(pooled) - n_a) / 2

    def u_of(positions) -> float:
        rank_sum = sum(ranks[p] for p in positions)
        return rank_sum - n_a * (n_a + 1) / 2

    # the observed statistic: sample_a occupies its sorted positions
    position_of = {}
    used = set()
    observed_positions = []
    for value in sorted(sample_a):
        for position, pooled_value in enumerate(pooled):
            if position not in used and pooled_value == value:
                used.add(position)
                observed_positions.append(position)
                break
    observed = abs(u_of(observed_positions) - mean_u)
    hits = 0
    total = 0
    for positions in combinations(range(len(pooled)), n_a):
        total += 1
        if abs(u_of(positions) - mean_u) >= observed - 1e-12:
            hits += 1
    return hits / total


def test_small_sample_matches_exact_enumeration_ordering() -> None:
    """At n = (2, 3) there are 10 rank configurations; the normal p must rank
    instances exactly as the enumeration oracle does."""
    sample_b = [3.0, 4.0, 5.0]
    complete = rank_sum_test([1.0, 2.0], sample_b)
    assert complete.u_statistic == 0.0
    instances = [
        [1.0, 2.0],   # both below: U = 0
        [1.0, 3.5],   # one interleaved
        [3.2, 3.8],
        [3.5, 4.5],   # central
    ]
    exact = [_exact_two_sided_p(sample, sample_b) for sample in instances]
    approx = [rank_sum_test(sample, sample_b).p_two_sided for sample in instances]
    assert sorted(range(4), key=exact.__getitem__) == sorted(
        range(4), key=approx.__getitem__
    )
    # the most extreme configuration has exact two-sided p = 2/10
    assert exact[0] == pytest.approx(0.2)


def test_u_statistic_for_first_sample_counts_wins() -> None:
    # U equals the number of (a, b) pairs with a > b, ties counting half
    sample_a = [1.0, 5.0, 5.0]
    sample_b = [2.0, 5.0]
    result = rank_sum_test(sample_a, sample_b)
    wins = sum(
        1.0 if a > b else 0.5 if a == b else 0.0
        for a in sample_a
        for b in sample_b
    )
    assert result.u_statistic == wins


floats_for_ranks = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda value: round(value, 1)
    ),
    min_size=2,
    max_size=12,
)


@given(floats_for_ranks, floats_for_ranks)
@settings(max_examples=200)
def test_rank_sum_antisymmetry(sample_a, sample_b) -> None:
    forward = rank_sum_test(sample_a, sample_b)
    backward = rank_sum_test(sample_b, sample_a)
    assert forward.z == -backward.z
    assert forward.p_two_sided == backward.p_two_sided
    assert 0.0 <= forward.u_statistic <= len(sample_a) * len(sample_b)
    assert 0.0 < forward.p_two_sided <= 1.0


try:
    from scipy import stats as scipy_stats
except ImportError:
    scipy_stats = None


@pytest.mark.skipif(scipy_stats is None, reason="scipy not installed")
@given(floats_for_ranks, floats_for_ranks)
@settings(max_examples=200, deadline=None)
def test_rank_sum_matches_scipy(sample_a, sample_b) -> None:
    ours = rank_sum_test(sample_a, sample_b)
    if ours.degenerate:
        return
    reference = scipy_stats.mannwhitneyu(
        sample_a, sample_b, alternative="two-sided", use_continuity=False,
        method="asymptotic",
    )
    assert ours.u_statistic == pytest.approx(reference.statistic, abs=1e-9)
    assert ours.p_two_sided == pytest.approx(reference.pvalue, rel=1e-9)
