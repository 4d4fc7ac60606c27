"""Seeded synthetic corpora with field-dependent citation densities.

The generator exists so that density-sensitive behavior is testable without
licensed citation data: a sparse field citing ~6 references per paper and a
dense one citing ~40 reproduce the classic mathematics-versus-biomedicine
contrast. Output is byte-deterministic for a fixed seed.

Determinism contract: one ``random.Random(seed)`` stream (Mersenne Twister,
stable across CPython releases) drives everything, consumed in a fixed order:
journal category assignments first (one journal per field, in field order),
then papers year by year, fields in configuration order, papers in index
order; per paper one Poisson draw (Knuth multiplication method, one uniform
per iteration) for the reference count, then per reference a cross-field
uniform, a skew uniform (only when skew_fraction > 0), and up to 8 target
draws to find an unused target. Reference targets always have strictly
earlier publication years, so generated graphs are cycle-free, and all
references resolve inside the corpus.

The skew knob redirects a share of references to the top-decile
most-cited-so-far papers of the eligible pool; the decile is snapshotted once
per (year, field, pool) rather than per reference.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .corpus import YEAR_MAX, YEAR_MIN

_SAMPLE_RETRIES = 8
_FORBIDDEN_NAME_CHARS = set(',|"\n\r')

# Largest corpus generated. The generator holds every paper line in memory.
# Two generations of 10^5 papers (two fields, 2000-2009) with 5.5e5 and 5.5e6
# expected references took 2.4 s and 14.6 s and peaked 50 MB and 180 MB above
# the interpreter under CPython 3.11 on a 2-vCPU x86 host: about 11 us and
# 340 B per paper plus 2.5 us and 29 B per reference. By those rates a config
# at both caps takes about 70 s and 1.3 GB. Larger configs are rejected before
# anything is built.
MAX_PAPERS = 2 * 10**6
MAX_REFERENCES = 2 * 10**7


@dataclass(frozen=True)
class FieldSpec:
    name: str
    mean_references: float
    papers_per_year: int


@dataclass(frozen=True)
class SynthConfig:
    fields: tuple[FieldSpec, ...]
    years: tuple[int, int]
    cross_field_fraction: float = 0.0
    multi_category_journal_fraction: float = 0.0
    skew_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("need at least one field")
        for field in self.fields:
            if not field.name or _FORBIDDEN_NAME_CHARS & set(field.name):
                raise ValueError(f"bad field name {field.name!r}")
            if not math.isfinite(field.mean_references) or field.mean_references <= 0:
                # NaN would pass both range checks and never end the Poisson loop
                raise ValueError(
                    f"field {field.name!r}: mean references must be positive and finite"
                )
            if field.mean_references > 700:
                # exp(-mean) underflows past this, breaking the Poisson sampler
                raise ValueError(f"field {field.name!r}: mean references above 700")
            if field.papers_per_year < 1:
                raise ValueError(f"field {field.name!r}: papers per year must be >= 1")
        if len({field.name for field in self.fields}) != len(self.fields):
            raise ValueError("field names must be unique")
        first, last = self.years
        if last < first:
            raise ValueError(f"empty year range {self.years}")
        if first < YEAR_MIN or last > YEAR_MAX:
            # the corpus reader rejects such papers, so refuse to write them
            raise ValueError(
                f"year range {self.years} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        papers = (last - first + 1) * sum(field.papers_per_year for field in self.fields)
        if papers > MAX_PAPERS:
            raise ValueError(f"{papers} papers exceed the limit of {MAX_PAPERS}")
        references = (last - first + 1) * sum(
            field.papers_per_year * field.mean_references for field in self.fields
        )
        if references > MAX_REFERENCES:
            raise ValueError(
                f"{references:.0f} expected references exceed the limit of {MAX_REFERENCES}"
            )
        for name, fraction in (
            ("cross_field_fraction", self.cross_field_fraction),
            ("multi_category_journal_fraction", self.multi_category_journal_fraction),
            ("skew_fraction", self.skew_fraction),
        ):
            if not math.isfinite(fraction) or not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def generate_corpus(config: SynthConfig) -> tuple[bytes, bytes]:
    """Generate (papers.jsonl bytes, journals.csv bytes) for the config."""
    rng = random.Random(config.seed)
    field_names = [field.name for field in config.fields]

    journal_rows = ["id,title,categories"]
    journal_ids = {}
    for field in config.fields:
        journal_id = f"j-{field.name}"
        journal_ids[field.name] = journal_id
        categories = [field.name]
        if (
            len(field_names) > 1
            and rng.random() < config.multi_category_journal_fraction
        ):
            extra = rng.randint(1, min(2, len(field_names) - 1))
            others = [name for name in field_names if name != field.name]
            categories.extend(rng.sample(others, extra))
        journal_rows.append(
            f"{journal_id},Journal of {field.name},{'|'.join(categories)}"
        )
    journals_csv = ("\n".join(journal_rows) + "\n").encode("utf-8")

    total = (config.years[1] - config.years[0] + 1) * sum(
        field.papers_per_year for field in config.fields
    )
    id_width = max(6, len(str(total)))

    # Papers cite only earlier years: by_field holds each field's papers of
    # the years before the current one, which is its same-field pool. A
    # year's papers, and the citations they make, which rank the skew
    # deciles, are added when the year ends.
    by_field: dict[str, list[str]] = {name: [] for name in field_names}
    tallies: dict[str, int] = {}
    paper_lines: list[str] = []
    serial = 0

    for year in range(config.years[0], config.years[1] + 1):
        year_ids: dict[str, list[str]] = {name: [] for name in field_names}
        year_tallies: dict[str, int] = {}
        for field in config.fields:
            same_pool = by_field[field.name]
            # Built while this field's papers are drawn, so only one field's
            # other-field pool is held at a time.
            other_pool = [
                pid
                for other in field_names
                if other != field.name
                for pid in by_field[other]
            ]
            top_pools: dict[bool, list[str]] = {}
            if config.skew_fraction > 0.0:
                top_pools[False] = _top_decile(same_pool, tallies)
                top_pools[True] = _top_decile(other_pool, tallies)
            for _ in range(field.papers_per_year):
                paper_id = f"p{serial:0{id_width}d}"
                serial += 1
                references = _draw_references(
                    rng, config, field, same_pool, other_pool, top_pools
                )
                for ref in references:
                    year_tallies[ref] = year_tallies.get(ref, 0) + 1
                year_ids[field.name].append(paper_id)
                paper_lines.append(
                    json.dumps(
                        {
                            "id": paper_id,
                            "year": year,
                            "journal": journal_ids[field.name],
                            "references": references,
                        },
                        separators=(",", ":"),
                    )
                )
        for name, ids in year_ids.items():
            by_field[name].extend(ids)
        for ref, count in year_tallies.items():
            tallies[ref] = tallies.get(ref, 0) + count
    papers_jsonl = ("\n".join(paper_lines) + "\n").encode("utf-8")
    return papers_jsonl, journals_csv


def _draw_references(
    rng: random.Random,
    config: SynthConfig,
    field: FieldSpec,
    same_pool: list[str],
    other_pool: list[str],
    top_pools: dict[bool, list[str]],
) -> list[str]:
    wanted = _poisson(rng, field.mean_references)
    references: list[str] = []
    chosen: set[str] = set()
    for _ in range(wanted):
        cross = rng.random() < config.cross_field_fraction
        pool = other_pool if cross else same_pool
        if config.skew_fraction > 0.0 and rng.random() < config.skew_fraction:
            top = top_pools[cross]
            if top:
                pool = top
        if not pool:
            continue
        for _ in range(_SAMPLE_RETRIES):
            candidate = pool[rng.randrange(len(pool))]
            if candidate not in chosen:
                chosen.add(candidate)
                references.append(candidate)
                break
    return references


def _poisson(rng: random.Random, mean: float) -> int:
    limit = math.exp(-mean)
    count = 0
    product = 1.0
    while True:
        product *= rng.random()
        if product < limit:
            return count
        count += 1


def _top_decile(pool: list[str], tallies: dict[str, int]) -> list[str]:
    if not pool:
        return []
    size = max(1, len(pool) // 10)
    ranked = sorted(pool, key=lambda pid: (-tallies.get(pid, 0), pid))
    return ranked[:size]
