"""Seeded synthetic corpora with field-dependent citation densities.

The generator exists so that density-sensitive behavior is testable without
licensed citation data: a sparse field citing ~6 references per paper and a
dense one citing ~40 reproduce the classic mathematics-versus-biomedicine
contrast. Output is byte-deterministic for a fixed seed.

The papers text is drawn and emitted one (year, field) block at a time.
``generate_corpus`` joins the blocks into one ``bytes``, or passes each to a
writer as it is drawn, as ``crown synth`` does, so the text is never held
whole; the bytes are the same either way.

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

``FieldSpec``, ``SynthConfig`` and ``Written`` are named tuples, like every
record of the package; the first two run their checks however they are built.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

from .corpus import YEAR_MAX, YEAR_MIN, CheckedRecord, check_echoed

_SAMPLE_RETRIES = 8
# The csv module before CPython 3.11 refuses a NUL.
_CSV_NAME_CHARS = frozenset(',|"\0')
# A mean or a fraction; exact types, so a bool is refused.
_NUMBER_TYPES = (int, float)

# Largest corpus generated. The generator holds every paper id, for the
# citation pools, and one (year, field) block of text. Two ``crown synth``
# runs of 10^5 papers (two fields, 2000-2009) with 4.9e5 and 4.9e6 references
# took 0.58 s and 3.9 s and peaked 10 MB and 25 MB above the interpreter
# under CPython 3.11 on a 2-vCPU x86 host: about 2.1 us and 85 B per paper,
# 0.75 us per reference and 35 B per reference of the largest block. By
# those rates a config at both caps (one field over ten years) takes about
# 19 s and 240 MB. Larger configs are rejected before anything is built.
MAX_PAPERS = 2 * 10**6
MAX_REFERENCES = 2 * 10**7


class _FieldSpecFields(NamedTuple):
    name: str
    mean_references: float
    papers_per_year: int


class FieldSpec(CheckedRecord, _FieldSpecFields):
    """One field of a synthetic corpus, checked as it is built; ``SynthConfig``
    checks what spans fields. The name is a ``str``, the mean an ``int`` or a
    ``float`` and the per-year count an ``int``, never a ``bool``: any other
    type is a ``ValueError``, not a raw ``TypeError`` from a later check."""

    __slots__ = ()

    def _check(self) -> None:
        if (
            type(self.name) is not str
            or not self.name
            or not _CSV_NAME_CHARS.isdisjoint(self.name)
        ):
            raise ValueError(f"bad field name {self.name!r}")
        check_echoed(self.name, "field name")  # it is a category of the corpus
        if type(self.mean_references) not in _NUMBER_TYPES:
            raise ValueError(f"field {self.name!r}: mean references must be a number")
        if not math.isfinite(self.mean_references) or self.mean_references <= 0:
            # NaN would pass both range checks and never end the Poisson loop
            raise ValueError(
                f"field {self.name!r}: mean references must be positive and finite"
            )
        if self.mean_references > 700:
            # exp(-mean) underflows past this, breaking the Poisson sampler
            raise ValueError(f"field {self.name!r}: mean references above 700")
        if type(self.papers_per_year) is not int:
            raise ValueError(f"field {self.name!r}: papers per year must be an integer")
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
    as it is built. ``fields`` is a tuple of ``FieldSpec``, ``years`` a tuple
    of two ``int``, the seed an ``int`` and each fraction an ``int`` or a
    ``float``, never a ``bool``; any other type is a ``ValueError``."""

    __slots__ = ()

    def _check(self) -> None:
        if type(self.fields) is not tuple or not all(
            isinstance(field, FieldSpec) for field in self.fields
        ):
            raise ValueError("fields must be a tuple of FieldSpec")
        if not self.fields:
            raise ValueError("need at least one field")
        unique_fields(self.fields)
        if type(self.years) is not tuple or len(self.years) != 2 or not all(
            type(year) is int for year in self.years
        ):
            raise ValueError(f"years must be a pair of integers, got {self.years!r}")
        first, last = self.years
        if last < first:
            raise ValueError(f"empty year range {self.years}")
        if first < YEAR_MIN or last > YEAR_MAX:
            # the corpus reader rejects such papers, so refuse to write them
            raise ValueError(
                f"year range {self.years} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        papers = _paper_count(self)
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
            if type(fraction) not in _NUMBER_TYPES:
                raise ValueError(f"{name} must be a number")
            if not math.isfinite(fraction) or not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if type(self.seed) is not int:
            raise ValueError("seed must be an integer")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


class Written(NamedTuple):
    """What ``generate_corpus`` wrote when given ``write``: the sha256 (hex)
    of the papers text and its line count, one line per paper."""

    sha256: str
    papers: int

    def count(self, sub: bytes) -> int:  # type: ignore[override]
        """``bytes.count`` over the written text, for ``b"\\n"`` alone: a
        caller that counts papers as lines, as perfbench/tracer.py does,
        reads either result of ``generate_corpus`` alike. ValueError for
        any other ``sub``."""
        if sub != b"\n":
            raise ValueError(f"only line breaks are counted, not {sub!r}")
        return self.papers


def generate_corpus(
    config: SynthConfig, write: Callable[[bytes], object] | None = None
) -> tuple[bytes | Written, bytes]:
    """Generate (papers.jsonl bytes, journals.csv bytes) for the config.

    With ``write``, each block of the papers text goes to ``write`` as it is
    drawn and is then released, so the text is never held whole; the first
    item is then its ``Written`` summary. The bytes are the same either way.
    """
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

    blocks = _paper_blocks(config, rng, journal_ids)
    if write is None:
        return b"".join(blocks), journals_csv
    digest = hashlib.sha256()
    for block in blocks:
        write(block)
        digest.update(block)
    return Written(digest.hexdigest(), _paper_count(config)), journals_csv


def _paper_count(config: SynthConfig) -> int:
    first, last = config.years
    return (last - first + 1) * sum(field.papers_per_year for field in config.fields)


def _paper_blocks(
    config: SynthConfig, rng: random.Random, journal_ids: dict[str, str]
) -> Iterator[bytes]:
    """The papers text, one encoded block per (year, field), drawn from
    ``rng`` after the journals in the order the module docstring states."""
    field_names = [field.name for field in config.fields]
    id_format = f"p%0{max(6, len(str(_paper_count(config))))}d"
    cross_fraction = config.cross_field_fraction
    skew_fraction = config.skew_fraction
    skewed = skew_fraction > 0.0
    random_ = rng.random
    getrandbits = rng.getrandbits
    sep = '","'

    # Papers cite only earlier years: by_field holds each field's papers of
    # the years before the current one, which is its same-field pool. A
    # year's papers, and the citations they make, which rank the skew
    # deciles, are added when the year ends.
    by_field: dict[str, list[str]] = {name: [] for name in field_names}
    tallies: Counter[str] = Counter()
    serial = 0

    for year in range(config.years[0], config.years[1] + 1):
        year_ids: dict[str, list[str]] = {}
        year_citations: list[str] = []
        for field in config.fields:
            same_pool = by_field[field.name]
            # Read in place: copying the other fields' papers every year
            # would cost fields x papers.
            others = [by_field[other] for other in field_names if other != field.name]
            other_pool = others[0] if len(others) == 1 else _Joined(others)
            # Indexed by the cross-field flag, plain and skewed: the skewed
            # pool is the top decile, empty only when its pool is.
            pools = (_sized(same_pool), _sized(other_pool))
            top_pools = pools
            if skewed:
                top_pools = tuple(_sized(_top_decile(pool, tallies)) for pool, _, _ in pools)
            limit = math.exp(-field.mean_references)
            # Each line is the record json.dumps would write, compact. Ids
            # are "p" plus digits and need no escaping; the journal id is
            # encoded once per block.
            journal = json.dumps(journal_ids[field.name])
            middle = f'","year":{year},"journal":{journal},"references":['
            ids = [id_format % number for number in range(serial, serial + field.papers_per_year)]
            serial += field.papers_per_year
            lines = []
            for paper_id in ids:
                # Poisson reference count, Knuth's multiplication method
                product = random_()
                wanted = 0
                while product >= limit:
                    wanted += 1
                    product *= random_()
                # a dict keeps the draw order and refuses a repeated target
                chosen: dict[str, None] = {}
                for _ in range(wanted):
                    cross = random_() < cross_fraction
                    pool, size, bits = (
                        top_pools if skewed and random_() < skew_fraction else pools
                    )[cross]
                    if not size:
                        continue
                    tries = _SAMPLE_RETRIES
                    while tries:
                        # randrange(size) as CPython 3.10-3.13 compute it
                        index = getrandbits(bits)
                        while index >= size:
                            index = getrandbits(bits)
                        candidate = pool[index]
                        if candidate not in chosen:
                            chosen[candidate] = None
                            break
                        tries -= 1
                if chosen:
                    if skewed:
                        year_citations.extend(chosen)
                    lines.append(f'{{"id":"{paper_id}{middle}"{sep.join(chosen)}"]}}\n')
                else:
                    lines.append(f'{{"id":"{paper_id}{middle}]}}\n')
            year_ids[field.name] = ids
            yield "".join(lines).encode("utf-8")
        for name, ids in year_ids.items():
            by_field[name].extend(ids)
        tallies.update(year_citations)


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


def _sized(pool: Sequence[str]) -> tuple[Sequence[str], int, int]:
    """``pool`` with its size and the bit count a draw from it takes."""
    return pool, len(pool), len(pool).bit_length()


def _top_decile(pool: Sequence[str], tallies: dict[str, int]) -> list[str]:
    if not pool:
        return []
    size = max(1, len(pool) // 10)
    ranked = sorted(pool, key=lambda pid: (-tallies.get(pid, 0), pid))
    return ranked[:size]
