from __future__ import annotations

import json
import math
import statistics
import tracemalloc

import pytest

from crown.cli import main
from crown.corpus import parse_journals, parse_papers
from crown.synth import MAX_PAPERS, MAX_REFERENCES, FieldSpec, SynthConfig, generate_corpus

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


def _generation_peak(n_fields: int) -> int:
    """Peak traced bytes of one generation of 4,000 papers over ten years,
    split evenly over ``n_fields`` fields."""
    config = SynthConfig(
        fields=tuple(FieldSpec(f"f{i}", 2.0, 400 // n_fields) for i in range(n_fields)),
        years=(2000, 2009),
        cross_field_fraction=0.2,
        seed=3,
    )
    tracemalloc.start()
    try:
        generate_corpus(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_does_not_grow_with_the_field_count() -> None:
    # Only the drawing field's pool of the other fields' earlier papers is
    # held. One such pool per field grows with fields x papers: here, 40
    # fields would peak at about 1.75 times the 2-field peak.
    assert _generation_peak(40) <= 1.5 * _generation_peak(2)


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
        {"fields": (FieldSpec("a\tb", 5.0, 5),)},  # a tab would split a baselines field
    ],
)
def test_degenerate_configs_are_rejected(kwargs) -> None:
    base = {
        "fields": (FieldSpec("a", 5.0, 5),),
        "years": (2000, 2005),
    }
    with pytest.raises(ValueError):
        SynthConfig(**{**base, **kwargs})


# Configs at and just over each cap, over ten years, and the 10^6-paper
# corpus. They are only built, never generated.
@pytest.mark.parametrize("fields, message", [
    ((FieldSpec("a", 1.0, MAX_PAPERS // 10),), None),
    ((FieldSpec("a", 1.0, MAX_PAPERS // 10 + 1),),
     f"^{MAX_PAPERS + 10} papers exceed the limit of {MAX_PAPERS}$"),
    ((FieldSpec("a", 10.0, MAX_REFERENCES // 100),), None),
    ((FieldSpec("a", 10.5, MAX_REFERENCES // 100),),
     f"^{MAX_REFERENCES * 21 // 20} expected references exceed the limit of {MAX_REFERENCES}$"),
    ((FieldSpec("a", 700.0, 10**9),), "papers exceed the limit"),
    ((FieldSpec("sparse", 3.0, 50_000), FieldSpec("dense", 8.0, 50_000)), None),
])
def test_size_caps(fields, message) -> None:
    if message is None:
        SynthConfig(fields=fields, years=(2000, 2009))
    else:
        with pytest.raises(ValueError, match=message):
            SynthConfig(fields=fields, years=(2000, 2009))


def test_synth_over_the_cap_is_one_error_line(tmp_path, capsys) -> None:
    papers, journals = tmp_path / "papers.jsonl", tmp_path / "journals.csv"
    argv = ["synth", "--fields", "a:700:1000000000", "--years", "1900-2100",
            "--papers", str(papers), "--journals", str(journals)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"crown: error: 201000000000 papers exceed the limit of {MAX_PAPERS}\n"
    )
    assert not papers.exists() and not journals.exists()
