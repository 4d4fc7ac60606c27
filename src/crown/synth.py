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
draws to find an unused target. A target draw from a pool of n papers takes
``getrandbits(n.bit_length())`` until the value is below n, and the value
indexes the pool. A field's same-field pool is its papers of earlier years in
id order; its other-field pool is the other fields' papers of earlier years,
fields in configuration order, each in id order. Reference targets always
have strictly earlier publication years, so generated graphs are cycle-free,
and all references resolve inside the corpus.

Each field's name is its journal's category, written unquoted into
journals.csv, so it may hold none of ``,|"`` or NUL, and, like every category,
no tab, line break, lone surrogate or leading ``#`` (``corpus.check_echoed``).

The skew knob redirects a share of references to the top-decile
most-cited-so-far papers of the eligible pool; the decile is snapshotted once
per (year, field, pool) rather than per reference.

``FieldSpec`` and ``SynthConfig`` are named tuples, like every record of the
package, and run their checks however they are built.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .corpus import YEAR_MAX, YEAR_MIN, CheckedRecord, check_echoed

_SAMPLE_RETRIES = 8
# The csv module before CPython 3.11 refuses a NUL.
_CSV_NAME_CHARS = frozenset(',|"\0')

# Largest corpus generated. The generator holds every paper line in memory.
# Two generations of 10^5 papers (two fields, 2000-2009) with 4.9e5 and 4.9e6
# references took 1.2 s and 7.8 s and peaked 45 MB and 173 MB above the
# interpreter under CPython 3.11 on a 2-vCPU x86 host: about 4.4 us and 320 B
# per paper plus 1.5 us and 30 B per reference. By those rates a config at
# both caps takes about 40 s and 1.3 GB. Larger configs are rejected before
# anything is built.
MAX_PAPERS = 2 * 10**6
MAX_REFERENCES = 2 * 10**7


class _FieldSpecFields(NamedTuple):
    name: str
    mean_references: float
    papers_per_year: int


class FieldSpec(CheckedRecord, _FieldSpecFields):
    """One field of a synthetic corpus, checked as it is built; ``SynthConfig``
    checks what spans fields."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.name or not _CSV_NAME_CHARS.isdisjoint(self.name):
            raise ValueError(f"bad field name {self.name!r}")
        check_echoed(self.name, "field name")  # it is a category of the corpus
        if not math.isfinite(self.mean_references) or self.mean_references <= 0:
            # NaN would pass both range checks and never end the Poisson loop
            raise ValueError(
                f"field {self.name!r}: mean references must be positive and finite"
            )
        if self.mean_references > 700:
            # exp(-mean) underflows past this, breaking the Poisson sampler
            raise ValueError(f"field {self.name!r}: mean references above 700")
        if self.papers_per_year < 1:
            raise ValueError(f"field {self.name!r}: papers per year must be >= 1")


def unique_fields(fields: Sequence[FieldSpec]) -> tuple[FieldSpec, ...]:
    """``fields`` as a tuple, or ValueError when two share a name: each name
    is a category of the corpus. ``SynthConfig`` and ``--fields`` check it."""
    if len({field.name for field in fields}) != len(fields):
        raise ValueError("field names must be unique")
    return tuple(fields)


class _SynthConfigFields(NamedTuple):
    fields: tuple[FieldSpec, ...]
    years: tuple[int, int]
    cross_field_fraction: float = 0.0
    multi_category_journal_fraction: float = 0.0
    skew_fraction: float = 0.0
    seed: int = 0


class SynthConfig(CheckedRecord, _SynthConfigFields):
    """A whole synthetic corpus: its fields, years, knobs and seed, checked
    as it is built."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.fields:
            raise ValueError("need at least one field")
        unique_fields(self.fields)
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
    skewed = config.skew_fraction > 0.0

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
            # Read in place: copying the other fields' papers every year
            # would cost fields x papers.
            others = [by_field[other] for other in field_names if other != field.name]
            other_pool = others[0] if len(others) == 1 else _Joined(others)
            top_pools: dict[bool, list[str]] = {}
            if skewed:
                top_pools[False] = _top_decile(same_pool, tallies)
                top_pools[True] = _top_decile(other_pool, tallies)
            # Each line is the record json.dumps would write, compact. Ids
            # are "p" plus digits and need no escaping; the journal id is
            # encoded once per field and year.
            journal = json.dumps(journal_ids[field.name])
            middle = f'","year":{year},"journal":{journal},"references":['
            new_ids = year_ids[field.name]
            for _ in range(field.papers_per_year):
                paper_id = f"p{serial:0{id_width}d}"
                serial += 1
                references = _draw_references(
                    rng, config, field, same_pool, other_pool, top_pools
                )
                if skewed:
                    for ref in references:
                        year_tallies[ref] = year_tallies.get(ref, 0) + 1
                new_ids.append(paper_id)
                cited = '"' + '","'.join(references) + '"' if references else ""
                paper_lines.append('{"id":"' + paper_id + middle + cited + "]}")
        for name, ids in year_ids.items():
            by_field[name].extend(ids)
        for ref, count in year_tallies.items():
            tallies[ref] = tallies.get(ref, 0) + count
    # The empty last line gives the text its final newline, so the text is
    # built once; the lines are released before it is encoded.
    paper_lines.append("")
    papers_text = "\n".join(paper_lines)
    del paper_lines
    return papers_text.encode("utf-8"), journals_csv


class _Joined(Sequence[str]):
    """Read-only concatenation of lists that are not extended while it is read."""

    def __init__(self, parts: list[list[str]]) -> None:
        self._parts = parts
        self._starts = list(itertools.accumulate((len(part) for part in parts), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index: int) -> str:
        part = bisect.bisect_right(self._starts, index) - 1
        return self._parts[part][index - self._starts[part]]

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(self._parts)


def _draw_references(
    rng: random.Random,
    config: SynthConfig,
    field: FieldSpec,
    same_pool: Sequence[str],
    other_pool: Sequence[str],
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
        size = len(pool)
        if not size:
            continue
        bits = size.bit_length()
        for _ in range(_SAMPLE_RETRIES):
            # randrange(size) as CPython 3.10-3.13 compute it
            index = rng.getrandbits(bits)
            while index >= size:
                index = rng.getrandbits(bits)
            candidate = pool[index]
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


def _top_decile(pool: Sequence[str], tallies: dict[str, int]) -> list[str]:
    if not pool:
        return []
    size = max(1, len(pool) // 10)
    ranked = sorted(pool, key=lambda pid: (-tallies.get(pid, 0), pid))
    return ranked[:size]
