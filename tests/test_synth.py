from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.cli import main
from crown.corpus import CorpusError, Journal, parse_journals, parse_papers
from crown.synth import (
    MAX_PAPERS,
    MAX_REFERENCES,
    FieldSpec,
    SynthConfig,
    _Joined,
    generate_corpus,
)

from conftest import LINE_BREAKS, corpus_from_synth, journal_of, reference_cited_by

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


def _two_fields(per_year: int) -> tuple[FieldSpec, ...]:
    return (FieldSpec("sparse", 3.0, per_year), FieldSpec("dense", 8.0, per_year))


# sha256 of (papers.jsonl, journals.csv) for each config. The three benchmark
# shapes at small scale, then one config per branch of the generator: skew,
# one field (no other-field pool), many fields, a field name that JSON must
# escape, each end of the cross-field range and the largest seed.
PINNED_CONFIGS = {
    "load-shape": SynthConfig(_two_fields(300), (2000, 2009), 0.2, 1.0, seed=42),
    "score-all-shape": SynthConfig(_two_fields(60), (2000, 2009), 0.2, 1.0, seed=7),
    "diagnose-shape": SynthConfig(
        tuple(FieldSpec(name, float(refs), 20) for name, refs in (
            ("algebra", 4), ("ecology", 7), ("neurology", 10),
            ("oncology", 15), ("immunology", 25))),
        (2000, 2019), 0.15, 0.8, seed=42),
    "skew-0.4": SynthConfig(_two_fields(80), (2000, 2009), 0.2, 0.5, 0.4, seed=5),
    "skew-1.0": SynthConfig(_two_fields(80), (2000, 2009), 0.3, 0.0, 1.0, seed=6),
    "one-field": SynthConfig(
        (FieldSpec("f", 12.0, 150),), (2000, 2011), 0.5, 1.0, 0.2, seed=9),
    "forty-fields": SynthConfig(
        tuple(FieldSpec(f"f{i}", 2.0 + i % 5, 10) for i in range(40)),
        (2000, 2006), 0.3, 0.6, seed=11),
    "non-ascii-and-backslash": SynthConfig(
        (FieldSpec("bio\\m\u00e9d", 5.0, 40), FieldSpec("\u6570\u5b66", 2.5, 40)),
        (2000, 2009), 0.25, 1.0, seed=13),
    "cross-0": SynthConfig(_two_fields(80), (2000, 2009), 0.0, 0.0, seed=17),
    "cross-1": SynthConfig(_two_fields(80), (2000, 2009), 1.0, 1.0, seed=19),
    "seed-max": SynthConfig(_two_fields(80), (2000, 2009), 0.2, 1.0, seed=2**64 - 1),
    # a one-paper pool on which every retry after the first target collides
    "one-paper-pool": SynthConfig((FieldSpec("f", 5.0, 1),), (2000, 2009), seed=23),
    # every reference goes to the empty other-field pool and is dropped
    "cross-1-one-field": SynthConfig((FieldSpec("f", 4.0, 30),), (2000, 2009), 1.0, seed=29),
    # the other-field top decile is ranked over a joined pool of three fields
    "skew-1.0-four-fields": SynthConfig(
        tuple(FieldSpec(f"f{i}", 3.0 + 2 * i, 25) for i in range(4)),
        (2000, 2009), 0.3, 0.5, 1.0, seed=31),
    # no earlier year, so every pool is empty
    "one-year": SynthConfig(_two_fields(50), (2005, 2005), 0.2, 1.0, 0.3, seed=37),
}
PINNED_SHA256 = {
    "load-shape": (
        "698adaa415bd64e17064bfa5466d22fe00cd3c5f86e500fef07d1ea23bf81c4b",
        "665503a59233b9faa6a9b2eca11e1ac8cf34d05ed0b8363a676579c6cbc771e2",
    ),
    "score-all-shape": (
        "ec62815f2f1509ecf0a9f4cba210cbe351d7dad046dcf0fe7702ddfc63d41944",
        "665503a59233b9faa6a9b2eca11e1ac8cf34d05ed0b8363a676579c6cbc771e2",
    ),
    "diagnose-shape": (
        "646f3ea4f317151e86426e0f483120433e3109fcaef8a070a86bc4b421ef4af6",
        "f7ae27b95a8878f90bf34f0772740a00211cfd1d4b5332a2ba808aefa4188967",
    ),
    "skew-0.4": (
        "401595570d25b70075d78bee2a674e687526042c8a6d8dc51d70dcebd1aa0f34",
        "3856da4791d0cb6ee0c7098f5a71a86676df3f3ff7236d77007cf8ad9288812f",
    ),
    "skew-1.0": (
        "d8e219c9e9ecb11c5dcbd5ea2241ae1cb5458425f2f890cd502eac5b94a82ecd",
        "3856da4791d0cb6ee0c7098f5a71a86676df3f3ff7236d77007cf8ad9288812f",
    ),
    "one-field": (
        "16db778695790b5c95be999dae5cf5f745ffe9acdca366ef2c4f8044cb822720",
        "ff35b6c6e9b97a22fa5c2f7d120fd1ab1b6d8450b780b05723d3d3caa151dd2e",
    ),
    "forty-fields": (
        "992daeeb2acf7357fe43a360c3799321021925ffba45837dab1679776ec305cf",
        "58f8b81284ed89e616f9430ace9db55cf5e99c30f9519029e78a5c992a7795d3",
    ),
    "non-ascii-and-backslash": (
        "77aeee351d29cc0b1c9254d7e7b2f169732747c67f74a0bf97011c944ed639ba",
        "c97654f4ddf49992d338eff64bbf9e24966793f692808a34dc086dafe0905439",
    ),
    "cross-0": (
        "4df948d490c6123e4dc258b30c93fc6b99c2906395d4a021a0433629c37244c9",
        "3856da4791d0cb6ee0c7098f5a71a86676df3f3ff7236d77007cf8ad9288812f",
    ),
    "cross-1": (
        "1d88c9a06e1baee821eb8f386491aea60663ddd4cb7c3c7613efc6a36e3ac0b6",
        "665503a59233b9faa6a9b2eca11e1ac8cf34d05ed0b8363a676579c6cbc771e2",
    ),
    "seed-max": (
        "e1e1b34215d251cad78c69a16aa3896f35fe30587011f3eb0e121c25bd9dd443",
        "665503a59233b9faa6a9b2eca11e1ac8cf34d05ed0b8363a676579c6cbc771e2",
    ),
    "one-paper-pool": (
        "07a5fb630bfda3d3fe79afc14893ebc1e1c6ab06b7c0fe774305ead3fba68116",
        "ff35b6c6e9b97a22fa5c2f7d120fd1ab1b6d8450b780b05723d3d3caa151dd2e",
    ),
    "cross-1-one-field": (
        "1e28b30c4b7d734c7029183ca97875d1fbc74438278a4d7c373d43a854a10ed7",
        "ff35b6c6e9b97a22fa5c2f7d120fd1ab1b6d8450b780b05723d3d3caa151dd2e",
    ),
    "skew-1.0-four-fields": (
        "cb7fa17abb4ef5c6844186ee4cc42ec904a5f448f7fbf550361f1494219c3e05",
        "5cb4e433062ac863596f595ad1d47bdb1bf91aa71ee33b769c9060292e4b63ac",
    ),
    "one-year": (
        "3b5c1ecd1f5400e50533d06a020e9abe2a993884afe7dec77122ff0c7f151df8",
        "665503a59233b9faa6a9b2eca11e1ac8cf34d05ed0b8363a676579c6cbc771e2",
    ),
}


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_generated_bytes_are_pinned(name) -> None:
    papers, journals = generate_corpus(PINNED_CONFIGS[name])
    digests = (hashlib.sha256(papers).hexdigest(), hashlib.sha256(journals).hexdigest())
    assert digests == PINNED_SHA256[name]


@pytest.mark.parametrize("name", ["skew-0.4", "forty-fields"])
def test_synth_header_hashes_the_file_it_streams(tmp_path, capsys, name) -> None:
    config = PINNED_CONFIGS[name]
    papers, journals = tmp_path / "p.jsonl", tmp_path / "j.csv"
    papers.write_bytes(b"x" * 10**6)  # a longer older file is replaced whole
    argv = [
        "synth",
        "--fields", ",".join(
            f"{field.name}:{field.mean_references}:{field.papers_per_year}"
            for field in config.fields),
        "--years", "-".join(map(str, config.years)),
        "--cross-field", str(config.cross_field_fraction),
        "--multi-cat", str(config.multi_category_journal_fraction),
        "--skew", str(config.skew_fraction),
        "--seed", str(config.seed),
        "--papers", str(papers), "--journals", str(journals),
    ]
    assert main(argv) == 0
    header = capsys.readouterr().out
    for path, generated, pinned in zip(
        (papers, journals), generate_corpus(config), PINNED_SHA256[name]
    ):
        assert hashlib.sha256(generated).hexdigest() == pinned
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned
        assert f" {path} sha256={pinned}\n" in header


def test_streamed_generation_holds_under_half_its_text() -> None:
    # 2x10^4 papers of 20 references; holding the whole text, as a join
    # does, peaks at about twice its size.
    config = SynthConfig(
        (FieldSpec("a", 20.0, 500), FieldSpec("b", 20.0, 500)), (2000, 2019), 0.2, seed=3)
    papers, journals = generate_corpus(config)
    tracemalloc.start()
    try:
        written, streamed_journals = generate_corpus(config, lambda block: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(papers) / 2
    assert written == (hashlib.sha256(papers).hexdigest(), 20_000)
    assert written.count(b"\n") == papers.count(b"\n")
    assert streamed_journals == journals
    with pytest.raises(ValueError, match="^only line breaks are counted"):
        written.count(b"p")


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
    for pid, count in zip(corpus.papers, corpus.citation_counts):
        field = journal_of(corpus, pid).primary_category
        per_field[field].append(count)
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
    for pid, citers in reference_cited_by(corpus.papers.values(), corpus.window).items():
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
    for pid, citers in reference_cited_by(corpus.papers.values(), corpus.window).items():
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
    counts = list(corpus.citation_counts)
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


@pytest.mark.parametrize("sizes", [(), (0,), (3,), (0, 2, 0, 0, 3, 0), (1, 1, 1), (4, 0)])
def test_joined_pool_reads_like_the_concatenation(sizes) -> None:
    parts = [[f"{i}-{j}" for j in range(size)] for i, size in enumerate(sizes)]
    flat = [pid for part in parts for pid in part]
    pool = _Joined(parts)
    assert len(pool) == len(flat)
    assert list(pool) == flat
    assert [pool[index] for index in range(len(flat))] == flat


def test_generation_memory_does_not_grow_with_the_field_count() -> None:
    # The other fields' earlier papers are read in place, never copied. One
    # copied pool per field grows with fields x papers: here, 40 fields
    # would peak at about 1.75 times the 2-field peak.
    assert _generation_peak(40) <= 1.5 * _generation_peak(2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fields": ()},
        {"fields": (("a", 0.0, 5),)},
        {"fields": (("a", 800.0, 5),)},
        {"fields": (("a", math.nan, 5),)},
        {"fields": (("a", 5.0, 0),)},
        {"fields": (("a", 5.0, 5), ("a", 3.0, 5))},
        {"fields": (("a,b", 5.0, 5),)},
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
        {"fields": (("a\tb", 5.0, 5),)},  # a tab would split a baselines field
        {"fields": (("a\0b", 5.0, 5),)},  # the csv module of CPython 3.10 refuses NUL
        {"fields": (("#a", 5.0, 5),)},  # a baselines row would read as a comment line
        # a wrong type is a ValueError too, not a TypeError from a later check
        {"fields": (("a", "5", 5),)},
        {"fields": (("a", True, 5),)},
        {"years": (2000.0, 2005)},
        {"years": 2000},
        {"cross_field_fraction": "0.1"},
        {"skew_fraction": False},
        {"seed": True},
    ],
)
def test_degenerate_configs_are_rejected(kwargs) -> None:
    # Fields are given as (name, mean, per year): a bad one raises when its
    # FieldSpec is built, so each is built inside the check.
    config = {"fields": (("a", 5.0, 5),), "years": (2000, 2005), **kwargs}
    with pytest.raises(ValueError):
        fields = tuple(FieldSpec(*field) for field in config.pop("fields"))
        SynthConfig(fields, **config)


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


# Field names from all of Unicode but the surrogates, which UTF-8 cannot
# encode, with tabs, line breaks, '#' and the CSV characters drawn often.
FIELD_NAMES = st.lists(
    st.text(st.one_of(st.sampled_from(("\t", "#", ",", "|", '"', "\0", *LINE_BREAKS)),
                      st.characters(blacklist_categories=("Cs",))),
            max_size=6),
    min_size=1, max_size=3, unique=True,
)


@settings(max_examples=300, deadline=None)
@given(names=FIELD_NAMES)
def test_synth_and_corpus_agree_on_field_names(names) -> None:
    try:
        config = SynthConfig(
            fields=tuple(FieldSpec(name, 1.0, 1) for name in names),
            years=(2000, 2000),
            multi_category_journal_fraction=1.0,
        )
    except ValueError:
        config = None
    if config is not None:
        # read as ``crown`` reads a file: split at LF only
        _, journals_bytes = generate_corpus(config)
        journals = parse_journals(line.decode("utf-8") for line in io.BytesIO(journals_bytes))
        assert [journal.categories[0] for journal in journals] == names
        assert all(set(journal.categories) <= set(names) for journal in journals)
    for name in names:
        if "\t" in name or any(line_break in name for line_break in LINE_BREAKS):
            assert config is None
            with pytest.raises(CorpusError, match=" holds a tab or a line break$"):
                Journal("j", "J", (name,))
