"""Bibliographic corpus: file parsing, citation-graph resolution, citation counts.

Input formats:
    papers.jsonl   one JSON object per line:
                   {"id": str, "year": int, "journal": str,
                    "references": [str], "citations": int (optional)}
    journals.csv   header ``id,title,categories``; categories pipe-separated,
                   first category is the journal's primary category.

Reference keys that match a paper id become citation edges, subject to the
citation window. Keys that do not resolve stay external: they produce no edge
but still count toward the citing paper's reference-list length, which is the
denominator used by fractional counting. Parse errors abort the run rather
than skipping records, so an evaluation never silently drops input.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO, TypeVar

_T = TypeVar("_T")

YEAR_MIN = 1900
YEAR_MAX = 2100


class CorpusError(ValueError):
    """Invalid bibliographic input (bad record, unresolved journal, ...)."""


class ParseError(CorpusError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Paper:
    """One paper record; its own invariants are checked on construction."""

    id: str
    year: int
    journal_id: str
    references: tuple[str, ...] = ()
    raw_citation_count: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("paper id must be a non-empty string")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise CorpusError(
                f"paper {self.id!r}: year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if self.id in self.references:
            raise CorpusError(f"paper {self.id!r} references itself")
        if self.raw_citation_count is not None and self.raw_citation_count < 0:
            raise CorpusError(
                f"paper {self.id!r}: citation override must be non-negative"
            )


@dataclass(frozen=True)
class Journal:
    """One journal record; its own invariants are checked on construction."""

    id: str
    title: str
    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("empty journal id")
        if not self.categories or not all(self.categories):
            raise CorpusError(f"journal {self.id!r} has an empty categories field")
        if len(set(self.categories)) != len(self.categories):
            raise CorpusError(f"journal {self.id!r} repeats a category")

    @property
    def primary_category(self) -> str:
        return self.categories[0]


@dataclass(frozen=True)
class CitationWindow:
    """Which citing papers count toward a paper's citation total.

    ``all`` admits every citing paper. ``fixed_years(n)`` admits only citing
    papers published inside the n-year span that starts at the cited paper's
    publication year (publication year included, so n=1 keeps same-year
    citations only).
    """

    years: int | None = None

    def __post_init__(self) -> None:
        if self.years is not None and self.years < 1:
            raise ValueError("fixed-years window requires n >= 1")

    @classmethod
    def all(cls) -> CitationWindow:
        return cls(None)

    @classmethod
    def fixed_years(cls, n: int) -> CitationWindow:
        return cls(n)

    @classmethod
    def parse(cls, text: str) -> CitationWindow:
        """Parse the CLI spelling: ``all`` or ``yearsN`` (e.g. ``years5``)."""
        if text == "all":
            return cls.all()
        if text.startswith("years"):
            try:
                return cls.fixed_years(int(text[len("years"):]))
            except ValueError:
                pass
        raise ValueError(f"bad window {text!r}: expected 'all' or 'yearsN'")

    def admits(self, cited_year: int, citing_year: int) -> bool:
        if self.years is None:
            return True
        return 0 <= citing_year - cited_year < self.years

    def __str__(self) -> str:
        return "all" if self.years is None else f"years{self.years}"


@dataclass(frozen=True)
class Corpus:
    """Resolved, immutable collection of papers, journals and citation edges.

    Dict insertion order matches input order everywhere, so two corpora built
    from identical input bytes are identical including all list orderings.
    Safe to share across readers; never mutated after construction.
    """

    papers: dict[str, Paper]
    journals: dict[str, Journal]
    cited_by: dict[str, tuple[str, ...]]
    window: CitationWindow

    def citation_count(self, paper_id: str) -> int:
        """Citations received within the window; a stored override wins."""
        paper = self.papers[paper_id]
        if paper.raw_citation_count is not None:
            return paper.raw_citation_count
        return len(self.cited_by[paper_id])

    def reference_count(self, paper_id: str) -> int:
        """Full reference-list length, duplicates and external keys included."""
        return len(self.papers[paper_id].references)

    def journal_of(self, paper_id: str) -> Journal:
        return self.journals[self.papers[paper_id].journal_id]

    def categories_of(self, paper_id: str) -> tuple[str, ...]:
        return self.journal_of(paper_id).categories

    @property
    def n_edges(self) -> int:
        return sum(len(citers) for citers in self.cited_by.values())

    def with_journals(self, journals: Sequence[Journal]) -> Corpus:
        """Same papers and citation graph under a different category scheme."""
        new_journals = _journal_map(journals)
        for paper in self.papers.values():
            if paper.journal_id not in new_journals:
                raise CorpusError(
                    f"scheme missing journal {paper.journal_id!r} "
                    f"(used by paper {paper.id!r})"
                )
        return Corpus(self.papers, new_journals, self.cited_by, self.window)


def parse_papers(lines: Iterable[str]) -> list[Paper]:
    """Parse JSONL paper records, aborting with a line number on any error."""
    papers: list[Paper] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"malformed JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(line_no, "expected a JSON object")
        paper = _paper_from_record(record, line_no)
        if paper.id in seen:
            raise ParseError(line_no, f"duplicate paper id {paper.id!r}")
        seen.add(paper.id)
        papers.append(paper)
    return papers


def _paper_from_record(record: dict, line_no: int) -> Paper:
    """Check the JSON shape of one record; ``Paper`` checks the values."""
    for field_name in ("id", "year", "journal", "references"):
        if field_name not in record:
            raise ParseError(line_no, f"missing required field {field_name!r}")
    paper_id = record["id"]
    if not isinstance(paper_id, str):
        raise ParseError(line_no, "field 'id' must be a string")
    year = record["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise ParseError(line_no, "field 'year' must be an integer")
    journal_id = record["journal"]
    if not isinstance(journal_id, str) or not journal_id:
        raise ParseError(line_no, "field 'journal' must be a non-empty string")
    references = record["references"]
    if not isinstance(references, list) or any(
        not isinstance(ref, str) for ref in references
    ):
        raise ParseError(line_no, "field 'references' must be a list of strings")
    citations = record.get("citations")
    if citations is not None and (
        isinstance(citations, bool) or not isinstance(citations, int)
    ):
        raise ParseError(line_no, "field 'citations' must be an integer")
    try:
        return Paper(paper_id, year, journal_id, tuple(references), citations)
    except CorpusError as exc:
        raise ParseError(line_no, str(exc)) from exc


def parse_journals(lines: Iterable[str]) -> list[Journal]:
    """Parse the journals CSV (header ``id,title,categories``)."""
    reader = csv.reader(lines)
    journals: list[Journal] = []
    seen: set[str] = set()
    header = next(reader, None)
    if header != ["id", "title", "categories"]:
        raise ParseError(1, "expected header 'id,title,categories'")
    for row in reader:
        line_no = reader.line_num
        if not row:  # blank line, carries no record
            continue
        if len(row) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
        journal_id, title, categories_field = row
        if journal_id in seen:
            raise ParseError(line_no, f"duplicate journal id {journal_id!r}")
        seen.add(journal_id)
        categories = tuple(categories_field.split("|")) if categories_field else ()
        try:
            journals.append(Journal(journal_id, title, categories))
        except CorpusError as exc:
            raise ParseError(line_no, str(exc)) from exc
    return journals


def build_corpus(
    papers: Sequence[Paper],
    journals: Sequence[Journal],
    window: CitationWindow = CitationWindow.all(),
) -> Corpus:
    """Resolve references into citation edges and index who cites whom.

    A reference key equal to a paper id becomes an edge if the window admits
    the (cited year, citing year) pair; repeated keys within one reference
    list yield at most one edge per citing paper. Unresolved keys are kept
    only implicitly, through the citing paper's reference-list length.
    """
    if not papers:
        raise CorpusError("corpus has no papers")
    journal_map = _journal_map(journals)
    paper_map: dict[str, Paper] = {}
    for paper in papers:
        if paper.id in paper_map:
            raise CorpusError(f"duplicate paper id {paper.id!r}")
        if paper.journal_id not in journal_map:
            raise CorpusError(
                f"paper {paper.id!r} has unresolved journal {paper.journal_id!r}"
            )
        paper_map[paper.id] = paper
    cited_by_lists: dict[str, list[str]] = {pid: [] for pid in paper_map}
    for citing in paper_map.values():
        resolved: set[str] = set()
        for ref in citing.references:
            cited = paper_map.get(ref)
            if cited is None or ref in resolved:
                continue
            resolved.add(ref)
            if window.admits(cited.year, citing.year):
                cited_by_lists[ref].append(citing.id)
    cited_by = {pid: tuple(citers) for pid, citers in cited_by_lists.items()}
    return Corpus(paper_map, journal_map, cited_by, window)


def load_corpus(
    papers_path: str | Path,
    journals_path: str | Path,
    window: CitationWindow = CitationWindow.all(),
    digests: dict[str, str] | None = None,
) -> Corpus:
    """Read, parse and build a corpus, reading each file once.

    When ``digests`` is given, it receives the hex SHA-256 of the bytes each
    file was parsed from, keyed by ``str(path)``.
    """
    papers, papers_digest = read_hashed(papers_path, parse_papers)
    journals, journals_digest = read_hashed(journals_path, parse_journals, newline="")
    if digests is not None:
        digests[str(papers_path)] = papers_digest
        digests[str(journals_path)] = journals_digest
    return build_corpus(papers, journals, window)


def read_hashed(
    path: str | Path,
    parse: Callable[[TextIO], _T],
    newline: str | None = None,
) -> tuple[_T, str]:
    """Parse a UTF-8 text file and return the SHA-256 of the bytes parsed.

    The file is streamed once: every chunk the text layer reads is hashed on
    its way to the parser, and whatever the parser leaves unread is hashed at
    the end, so the digest covers the whole file. A leading byte-order mark
    is dropped before parsing but hashed like every other byte. ``newline``
    has the meaning it has for ``open``.
    """
    hashing = _HashingReader(open(path, "rb", buffering=0))
    with io.TextIOWrapper(
        io.BufferedReader(hashing), encoding="utf-8-sig", newline=newline
    ) as handle:
        result = parse(handle)
        while hashing.read(io.DEFAULT_BUFFER_SIZE):
            pass
        return result, hashing.sha256.hexdigest()


class _HashingReader(io.RawIOBase):
    """Raw binary reader that feeds every byte it returns into a SHA-256."""

    def __init__(self, raw: io.FileIO):
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        if count:
            self.sha256.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


def _journal_map(journals: Sequence[Journal]) -> dict[str, Journal]:
    journal_map: dict[str, Journal] = {}
    for journal in journals:
        if journal.id in journal_map:
            raise CorpusError(f"duplicate journal id {journal.id!r}")
        journal_map[journal.id] = journal
    return journal_map
