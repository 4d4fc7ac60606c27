from __future__ import annotations

import json
import math
import statistics

import pytest

from crown.corpus import parse_journals, parse_papers
from crown.synth import FieldSpec, SynthConfig, generate_corpus

from conftest import corpus_from_synth, journal_of

DENSITY_CONFIG = SynthConfig(
    fields=(FieldSpec("math", 6.0, 50), FieldSpec("biomed", 40.0, 50)),
    years=(2000, 2019),
    cross_field_fraction=0.1,
    seed=42,
)


def test_same_seed_same_bytes() -> None:
    first = generate_corpus(DENSITY_CONFIG)
    second = generate_corpus(DENSITY_CONFIG)
    assert first == second


def test_different_seed_different_bytes() -> None:
    other = SynthConfig(
        fields=DENSITY_CONFIG.fields,
        years=DENSITY_CONFIG.years,
        cross_field_fraction=DENSITY_CONFIG.cross_field_fraction,
        seed=43,
    )
    assert generate_corpus(other) != generate_corpus(DENSITY_CONFIG)


def test_output_round_trips_through_corpus_parsing() -> None:
    papers_bytes, journals_bytes = generate_corpus(DENSITY_CONFIG)
    papers = parse_papers(papers_bytes.decode("utf-8").splitlines())
    journals = parse_journals(journals_bytes.decode("utf-8").splitlines())
    assert len(papers) == 2000
    assert len(journals) == 2
    corpus = corpus_from_synth(DENSITY_CONFIG)
    assert len(corpus.papers) == 2000


def test_references_point_strictly_backward_in_time() -> None:
    corpus = corpus_from_synth(DENSITY_CONFIG)
    for paper in corpus.papers.values():
        for ref in paper.references:
            assert corpus.papers[ref].year < paper.year


def test_all_references_resolve_internally() -> None:
    corpus = corpus_from_synth(DENSITY_CONFIG)
    for paper in corpus.papers.values():
        for ref in paper.references:
            assert ref in corpus.papers


def test_field_density_contrast_within_ten_percent() -> None:
    papers_bytes, _ = generate_corpus(DENSITY_CONFIG)
    counts: dict[str, list[int]] = {"j-math": [], "j-biomed": []}
    for line in papers_bytes.decode("utf-8").splitlines():
        record = json.loads(line)
        counts[record["journal"]].append(len(record["references"]))
    mean_math = statistics.mean(counts["j-math"])
    mean_biomed = statistics.mean(counts["j-biomed"])
    assert len(counts["j-math"]) == len(counts["j-biomed"]) == 1000
    assert abs(mean_math - 6.0) <= 0.6
    assert abs(mean_biomed - 40.0) <= 4.0


def test_dense_field_collects_more_citations_per_paper() -> None:
    corpus = corpus_from_synth(DENSITY_CONFIG)
    per_field: dict[str, list[int]] = {"math": [], "biomed": []}
    for pid, paper in corpus.papers.items():
        field = journal_of(corpus, pid).primary_category
        per_field[field].append(len(corpus.cited_by[pid]))
    assert statistics.mean(per_field["biomed"]) > statistics.mean(per_field["math"])


def test_zero_cross_field_fraction_keeps_every_edge_in_field() -> None:
    config = SynthConfig(
        fields=(FieldSpec("a", 4.0, 40), FieldSpec("b", 4.0, 40)),
        years=(2000, 2009),
        cross_field_fraction=0.0,
        seed=7,
    )
    corpus = corpus_from_synth(config)
    assert corpus.n_edges > 0
    for pid, citers in corpus.cited_by.items():
        cited_field = journal_of(corpus, pid).primary_category
        for citer in citers:
            assert journal_of(corpus, citer).primary_category == cited_field


def test_full_cross_field_fraction_sends_every_edge_out_of_field() -> None:
    config = SynthConfig(
        fields=(FieldSpec("a", 4.0, 40), FieldSpec("b", 4.0, 40)),
        years=(2000, 2009),
        cross_field_fraction=1.0,
        seed=7,
    )
    corpus = corpus_from_synth(config)
    assert corpus.n_edges > 0
    for pid, citers in corpus.cited_by.items():
        cited_field = journal_of(corpus, pid).primary_category
        for citer in citers:
            assert journal_of(corpus, citer).primary_category != cited_field


def test_multi_category_journal_share() -> None:
    config = SynthConfig(
        fields=tuple(FieldSpec(f"f{i}", 5.0, 10) for i in range(6)),
        years=(2000, 2004),
        multi_category_journal_fraction=1.0,
        seed=11,
    )
    _, journals_bytes = generate_corpus(config)
    journals = parse_journals(journals_bytes.decode("utf-8").splitlines())
    assert all(2 <= len(journal.categories) <= 3 for journal in journals)
    assert all(
        journal.primary_category == journal.id.removeprefix("j-")
        for journal in journals
    )


def test_skew_produces_right_skewed_citation_counts() -> None:
    config = SynthConfig(
        fields=(FieldSpec("f", 8.0, 60),),
        years=(2000, 2014),
        skew_fraction=0.6,
        seed=5,
    )
    corpus = corpus_from_synth(config)
    counts = [len(corpus.cited_by[pid]) for pid in corpus.papers]
    assert statistics.mean(counts) > statistics.median(counts)
    assert max(counts) > 4 * statistics.mean(counts)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fields": ()},
        {"fields": (FieldSpec("a", 0.0, 5),)},
        {"fields": (FieldSpec("a", 800.0, 5),)},
        {"fields": (FieldSpec("a", math.nan, 5),)},
        {"fields": (FieldSpec("a", 5.0, 0),)},
        {"fields": (FieldSpec("a", 5.0, 5), FieldSpec("a", 3.0, 5))},
        {"fields": (FieldSpec("a,b", 5.0, 5),)},
        {"years": (2005, 2000)},
        {"years": (1850, 1851)},
        {"years": (1899, 2000)},
        {"years": (2000, 2101)},
        {"years": (2101, 2101)},
        {"cross_field_fraction": 1.5},
        {"multi_category_journal_fraction": -0.1},
        {"skew_fraction": 2.0},
        {"skew_fraction": math.nan},
        {"seed": -1},
    ],
)
def test_degenerate_configs_are_rejected(kwargs) -> None:
    base = {
        "fields": (FieldSpec("a", 5.0, 5),),
        "years": (2000, 2005),
    }
    with pytest.raises(ValueError):
        SynthConfig(**{**base, **kwargs})
