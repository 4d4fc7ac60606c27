"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances and runtime budgets are pinned in the assertions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from itertools import combinations

from crown.baselines import Weighting, compute_baselines, percentile_rank
from crown.cli import main
from crown.corpus import Journal, Paper, build_corpus
from crown.diagnostics import (
    MEAN_OF_RATIOS,
    RATIO_OF_SUMS,
    SearchBounds,
    build_counterexample,
    consistency_counterexample,
    rank_sum_test,
)
from crown.indicators import (
    cpp_fcsm,
    fractional_scores,
    mdncs,
    mncs,
    score_papers,
)
from crown.synth import FieldSpec, SynthConfig

from conftest import (
    brute_force_counterexample,
    categories_of,
    corpus_from_synth,
    is_strict_flip,
)

MULTI_CATEGORY_10K = SynthConfig(
    fields=(
        FieldSpec("algebra", 4.0, 100),
        FieldSpec("ecology", 7.0, 100),
        FieldSpec("neurology", 10.0, 100),
        FieldSpec("oncology", 15.0, 100),
        FieldSpec("immunology", 25.0, 100),
    ),
    years=(2000, 2019),
    cross_field_fraction=0.15,
    multi_category_journal_fraction=0.8,
    seed=42,
)

MULTI_CATEGORY_2K = SynthConfig(
    fields=(
        FieldSpec("algebra", 4.0, 50),
        FieldSpec("ecology", 7.0, 50),
        FieldSpec("neurology", 10.0, 50),
        FieldSpec("oncology", 15.0, 50),
    ),
    years=(2000, 2009),
    cross_field_fraction=0.15,
    multi_category_journal_fraction=0.8,
    seed=42,
)

INTERNAL_100K = SynthConfig(
    fields=(FieldSpec("sparse", 3.0, 5000), FieldSpec("dense", 8.0, 5000)),
    years=(2000, 2009),
    cross_field_fraction=0.2,
    seed=42,
)

RIGHT_SKEW = SynthConfig(
    fields=(FieldSpec("onefield", 8.0, 60),),
    years=(2000, 2014),
    skew_fraction=0.6,
    seed=42,
)


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_harmonic_identity() -> None:
    corpus = corpus_from_synth(MULTI_CATEGORY_10K)
    multi = [j for j in corpus.journals.values() if len(j.categories) >= 2]
    started = time.perf_counter()
    table = compute_baselines(corpus)
    scored = score_papers(corpus, list(corpus.papers), Weighting.HARMONIC)
    worst = 0.0
    zero_mismatch = 0
    for paper_id, citations, ncs in zip(scored.paper_ids, scored.citations, scored.ncs):
        if ncs is None:
            continue
        year = corpus.papers[paper_id].year
        per_field = [
            citations / table.cell(category, year).mean_citations
            for category in categories_of(corpus, paper_id)
        ]
        mean = math.fsum(per_field) / len(per_field)
        if mean == 0.0:
            zero_mismatch += ncs != 0.0
        else:
            worst = max(worst, abs(ncs - mean) / abs(mean))
    elapsed = time.perf_counter() - started
    ok = (
        len(corpus.papers) == 10_000
        and len(multi) >= 3
        and worst <= 1e-12
        and zero_mismatch == 0
        and elapsed < 1.0
    )
    _verdict(
        1,
        "harmonic identity: c/e_harmonic == mean of per-field ratios",
        ok,
        f"worst rel err {worst:.2e}, {len(multi)} multi-category journals, {elapsed:.2f}s",
    )


def test_criterion_02_crown_contrast() -> None:
    # pairs (2, 1) and (8, 8): citations, expected values and their ratios
    ratio_of_sums = cpp_fcsm([2, 8], [1, 8])
    mean_of_ratios = mncs([2 / 1, 8 / 8])
    singles_ok = True
    for c, e in [(3, 2), (0, 5), (7, 7), (13, 4)]:
        singles_ok &= cpp_fcsm([c], [e]) == mncs([c / e]) == mdncs([c / e])
    ok = (
        abs(ratio_of_sums - 10 / 9) <= 1e-12
        and mean_of_ratios == 1.5
        and singles_ok
    )
    _verdict(
        2,
        "crown contrast: ratio-of-sums 10/9 vs mean-of-ratios 1.5; single-paper groups collapse",
        ok,
        f"cpp_fcsm={ratio_of_sums!r}, mncs={mean_of_ratios!r}",
    )


def test_criterion_03_inconsistency_counterexample() -> None:
    started = time.perf_counter()
    # Desk-scale instance: a one-paper group at exactly its expectation versus
    # one slightly below, plus an uncited paper with a large expectation.
    # Ratio-of-sums flips the ranking (1.0 > 0.9 becomes 1/11 < 0.45); the
    # mean-of-ratios keeps it (0.5 > 0.45).
    shipped = build_counterexample(RATIO_OF_SUMS, [(1, 1)], [(9, 10)], (0, 10))
    shipped_ok = (
        shipped.before_a == 1.0
        and shipped.before_b == 0.9
        and shipped.after_a == 1 / 11
        and shipped.after_b == 0.45
        and is_strict_flip(shipped)
    )
    same_under_mean = build_counterexample(
        MEAN_OF_RATIOS, [(1, 1)], [(9, 10)], (0, 10)
    )
    mean_keeps_order = (
        same_under_mean.after_a == 0.5
        and same_under_mean.after_b == 0.45
        and not is_strict_flip(same_under_mean)
    )
    bounds = SearchBounds(max_group_size=2, max_citations=4, max_expected=4)
    ratio_flip = consistency_counterexample(RATIO_OF_SUMS, bounds)
    mean_flip = consistency_counterexample(MEAN_OF_RATIOS, bounds)
    # The search settles mean of ratios by its margin identity; the oracle
    # tries every (A, B, added paper) instance.
    oracle_flip = brute_force_counterexample(MEAN_OF_RATIOS, bounds)
    elapsed = time.perf_counter() - started
    ok = (
        shipped_ok
        and mean_keeps_order
        and ratio_flip is not None
        and is_strict_flip(ratio_flip)
        and mean_flip is None
        and oracle_flip is None
        and elapsed < 10.0
    )
    _verdict(
        3,
        "inconsistency: shipped flip exact; brute force finds no equal-size mean-of-ratios flip",
        ok,
        f"{bounds.instance_count()} instances per indicator, {elapsed:.2f}s",
    )


def test_criterion_04_fractional_anchor_and_conservation() -> None:
    refs_sparse = ("t",) + tuple(f"s{i}" for i in range(5))
    refs_dense = ("t",) + tuple(f"d{i}" for i in range(39))
    anchor_corpus = build_corpus(
        [
            Paper("t", 2000, "j1", ()),
            Paper("sparse", 2001, "j1", refs_sparse),
            Paper("dense", 2001, "j1", refs_dense),
        ],
        [Journal("j1", "J", ("F",))],
    )
    anchor = fractional_scores(anchor_corpus, ["t"])[0]
    anchor_ok = abs(anchor - (1 / 6 + 1 / 40)) <= 1e-15

    started = time.perf_counter()
    corpus = corpus_from_synth(INTERNAL_100K)
    # one call over every paper: each call walks every reference list once
    total = math.fsum(fractional_scores(corpus, list(corpus.papers)))
    citing = sum(1 for paper in corpus.papers.values() if paper.references)
    elapsed = time.perf_counter() - started
    conservation_error = abs(total - citing)
    ok = (
        anchor_ok
        and len(corpus.papers) == 100_000
        and conservation_error <= 1e-9
        and elapsed < 10.0
    )
    _verdict(
        4,
        "fractional: 1/6 + 1/40 anchor; conservation over a fully-internal 1e5-paper corpus",
        ok,
        f"anchor={anchor!r}, |sum-citing|={conservation_error:.1e}, {elapsed:.2f}s",
    )


def test_criterion_05_classification_independence() -> None:
    corpus = corpus_from_synth(MULTI_CATEGORY_2K)
    journals = list(corpus.journals.values())
    shuffled = [
        Journal(journal.id, journal.title, journals[(i + 1) % len(journals)].categories)
        for i, journal in enumerate(journals)
    ]
    relabeled = corpus.with_journals(shuffled)

    def fractional_blob(which) -> bytes:
        ids = sorted(which.papers)
        rows = [f"{pid}\t{score!r}" for pid, score in zip(ids, fractional_scores(which, ids))]
        return ("\n".join(rows) + "\n").encode("utf-8")

    bytes_a = fractional_blob(corpus)
    bytes_b = fractional_blob(relabeled)

    scored_a = score_papers(corpus, list(corpus.papers), Weighting.HARMONIC)
    scored_b = score_papers(relabeled, list(corpus.papers), Weighting.HARMONIC)
    ncs_changed = sum(
        1
        for a, b in zip(scored_a.ncs, scored_b.ncs)
        if a is not None and b is not None and a != b
    )
    multi = [j for j in journals if len(j.categories) >= 2]
    ok = bytes_a == bytes_b and ncs_changed >= 1 and len(multi) >= 1
    _verdict(
        5,
        "classification independence: shuffled categories leave fractional bytes identical, move normalized scores",
        ok,
        f"ncs changed on {ncs_changed} papers, fractional identical={bytes_a == bytes_b}",
    )


def test_criterion_06_median_percentile_correspondence() -> None:
    from crown.baselines import FieldYearCell

    tie_free_ok = True
    for n in range(1, 42, 2):
        # distinct citation counts in scrambled magnitudes, then the cell sorts
        values = sorted((i * 7919) % 10007 for i in range(n))
        cell = FieldYearCell("F", 2005, tuple(values))
        median_value = values[n // 2]
        tie_free_ok &= percentile_rank(cell, median_value) == 50.0
    full_tie_ok = True
    for n in range(1, 30):
        cell = FieldYearCell("F", 2005, tuple([4] * n))
        full_tie_ok &= percentile_rank(cell, 4) == 50.0
    ok = tie_free_ok and full_tie_ok
    _verdict(
        6,
        "median/percentile: tie-free odd cells put the median paper at exactly 50.0; full ties give 50.0",
        ok,
    )


def test_criterion_07_skew_separation() -> None:
    fixture = [1 / 2, 1 / 1, 10 / 1]  # ncs of the pairs (1, 2), (1, 1), (10, 1)
    fixture_ok = (
        mdncs(fixture) == 1.0 and abs(mncs(fixture) - 11.5 / 3) <= 1e-12
    )
    corpus = corpus_from_synth(RIGHT_SKEW)
    ncs = [
        ncs
        for ncs in score_papers(corpus, list(corpus.papers), Weighting.HARMONIC).ncs
        if ncs is not None
    ]
    corpus_mean, corpus_median = mncs(ncs), mdncs(ncs)
    ok = fixture_ok and corpus_mean > corpus_median
    _verdict(
        7,
        "skew separation: mean-of-ratios exceeds the median on right-skewed scores",
        ok,
        f"fixture mncs={mncs(fixture)!r} mdncs=1.0; corpus mncs={corpus_mean:.4f} > mdncs={corpus_median:.4f}",
    )


def test_criterion_08_field_unit_normalization() -> None:
    corpus = corpus_from_synth(RIGHT_SKEW)  # single-category corpus
    cell_ids = [pid for pid, paper in corpus.papers.items() if paper.year == 2005]
    scored = score_papers(corpus, cell_ids, Weighting.ARITHMETIC)
    value = mncs([ncs for ncs in scored.ncs if ncs is not None])
    ok = len(cell_ids) == 60 and abs(value - 1.0) <= 1e-9
    _verdict(
        8,
        "field-unit normalization: a whole field-year cell scores mncs = 1.0",
        ok,
        f"mncs={value!r} over {len(cell_ids)} papers",
    )


def test_criterion_09_rank_sum_sanity() -> None:
    identical = rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    identical_ok = identical.z == 0.0 and identical.p_two_sided == 1.0

    # all 10 rank configurations at sizes (2, 3), tie-free
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    mean_u = 2 * 3 / 2
    configurations = list(combinations(range(5), 2))
    u_values = []
    approx_p = []
    for positions in configurations:
        sample_a = [values[p] for p in positions]
        sample_b = [values[p] for p in range(5) if p not in positions]
        result = rank_sum_test(sample_a, sample_b)
        u_values.append(result.u_statistic)
        approx_p.append(result.p_two_sided)
    exact_p = [
        sum(
            abs(other - mean_u) >= abs(u - mean_u) for other in u_values
        ) / len(u_values)
        for u in u_values
    ]
    ordering_ok = True
    for i in range(len(configurations)):
        for j in range(len(configurations)):
            if exact_p[i] < exact_p[j]:
                ordering_ok &= approx_p[i] < approx_p[j]
            elif exact_p[i] == exact_p[j]:
                ordering_ok &= approx_p[i] == approx_p[j]
    separated = rank_sum_test([1.0, 2.0], [3.0, 4.0, 5.0])
    ok = identical_ok and separated.u_statistic == 0.0 and ordering_ok
    _verdict(
        9,
        "rank-sum sanity: identical samples give z=0, p=1; normal ordering matches exact enumeration at n=(2,3)",
        ok,
        f"u([1,2] vs [3,4,5])={separated.u_statistic!r}",
    )


def test_criterion_10_determinism_end_to_end(tmp_path) -> None:
    synth_args = [
        "synth",
        "--fields", "math:6:30,biomed:40:30",
        "--years", "2000-2009",
        "--seed", "42",
        "--cross-field", "0.1",
        "--multi-cat", "1.0",
    ]
    paths = {}
    for tag in ("one", "two"):
        directory = tmp_path / tag
        directory.mkdir()
        papers = directory / "papers.jsonl"
        journals = directory / "journals.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(synth_args + ["--papers", str(papers), "--journals", str(journals)])
        assert code == 0
        paths[tag] = (papers, journals)
    synth_stable = (
        paths["one"][0].read_bytes() == paths["two"][0].read_bytes()
        and paths["one"][1].read_bytes() == paths["two"][1].read_bytes()
    )

    papers, journals = paths["one"]
    ids = [json.loads(line)["id"] for line in papers.read_text().splitlines()[:25]]
    group = tmp_path / "g.txt"
    group.write_text("\n".join(ids) + "\n", encoding="utf-8")
    reports = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.tsv"
        code = main(
            ["score", "--papers", str(papers), "--journals", str(journals),
             "--group", str(group), "--out", str(out)]
        )
        assert code == 0
        reports.append(out.read_bytes())
    score_stable = reports[0] == reports[1]
    ok = synth_stable and score_stable
    _verdict(
        10,
        "determinism: repeated synth --seed 42 and repeated score runs are byte-identical",
        ok,
    )
