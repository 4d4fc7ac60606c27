"""Bibliographic corpus: file parsing, citation-graph resolution, citation counts.

Input formats:
    papers.jsonl   one JSON object per line:
                   {"id": str, "year": int, "journal": str,
                    "references": [str], "citations": int (optional)}
    journals.csv   header ``id,title,categories``; categories pipe-separated,
                   first category is the journal's primary category.

Every input file is UTF-8 and is read by ``read_hashed``, one line at a time.
Lines end in LF or CRLF; a bare CR does not end a line. A line that is not
UTF-8, a JSON key repeated within one object and malformed CSV are rejected
with the line number, like any other malformed line.

Reference keys that match a paper id become citation edges, subject to the
citation window. Keys that do not resolve stay external: they produce no edge
but still count toward the citing paper's reference-list length, which is the
denominator used by fractional counting. Parse errors abort the run rather
than skipping records, so an evaluation never silently drops input.

Loading allocates a few objects per record and per reference and frees
almost none of them, and the finished graph holds no reference cycles, so
the cyclic garbage collector has nothing to find in it. ``load_corpus``
therefore pauses the collector while it reads and builds, instead of letting
it rescan the growing corpus every few hundred allocations, and restores the
caller's setting afterwards. Within one parse, every occurrence of a paper id
(as an id or as a reference key) is the same string object, which saves
memory and lets the graph build match keys by identity. Every record of one
journal shares one journal-id string, and every record of one year one year
int, so a corpus holds one such object per distinct value, not one per record.

The build also computes 1/R once per citing paper, R being the length of its
reference list, and keeps it as ``Corpus.citing_weight``: the weight of each
citation that paper makes under fractional counting, read on every
fractional score instead of measuring R again per edge.

``Paper`` is a named tuple, the cheapest immutable record to build once per
input line: it compares equal to the tuple of its fields and unpacks like
one, and ``_replace`` checks the new record like a call does.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, NamedTuple, TypeVar

if TYPE_CHECKING:
    from .baselines import BaselineTable

_T = TypeVar("_T")

YEAR_MIN = 1900
YEAR_MAX = 2100


class CorpusError(ValueError):
    """Invalid bibliographic input (bad record, unknown journal, ...)."""


class ParseError(CorpusError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _PaperFields(NamedTuple):
    id: str
    year: int
    journal_id: str
    references: tuple[str, ...] = ()
    raw_citation_count: int | None = None


class Paper(_PaperFields):
    """One paper record; its own invariants are checked on construction.

    A named tuple: it compares equal to the tuple of its fields and unpacks
    like one. Every way of building one (a call, ``_make``, ``_replace``,
    unpickling) goes through ``__new__`` and so runs the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        year: int,
        journal_id: str,
        references: tuple[str, ...] = (),
        raw_citation_count: int | None = None,
    ) -> Paper:
        if not id:
            raise CorpusError("paper id must be a non-empty string")
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise CorpusError(
                f"paper {id!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if id in references:
            raise CorpusError(f"paper {id!r} references itself")
        if raw_citation_count is not None and raw_citation_count < 0:
            raise CorpusError(f"paper {id!r}: citation override must be non-negative")
        return tuple.__new__(cls, (id, year, journal_id, references, raw_citation_count))

    @classmethod
    def _make(cls, iterable: Iterable) -> Paper:
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


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
        """Parse the CLI spelling: ``all`` or ``yearsN`` (e.g. ``years5``),
        N one or more ASCII digits."""
        if text == "all":
            return cls.all()
        digits = text.removeprefix("years")
        if text.startswith("years") and digits.isascii() and digits.isdigit():
            try:
                return cls.fixed_years(int(digits))
            except ValueError:  # n < 1, or more digits than int() reads
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

    ``cited_by`` maps every paper id to the ids of the papers that cite it
    inside the window, in input order. ``citing_weight`` maps every paper
    with a non-empty reference list to ``1.0 / len(references)``, so it
    covers every citer. Both are graph data: they do not depend on
    ``journals``. Within one parse, equal ids, journal ids and years are
    each one shared object.

    Dict insertion order matches input order everywhere, so two corpora built
    from identical input bytes are identical including all list orderings.
    Safe to share across readers; the one value set after construction is
    ``baselines``, the corpus's own baseline table, built on first use.
    """

    papers: dict[str, Paper]
    journals: dict[str, Journal]
    cited_by: dict[str, tuple[str, ...]]
    citing_weight: dict[str, float]
    window: CitationWindow

    @property
    def n_edges(self) -> int:
        return sum(len(citers) for citers in self.cited_by.values())

    @functools.cached_property
    def baselines(self) -> BaselineTable:
        """This corpus's (category, year) baseline table, built on first use."""
        from .baselines import compute_baselines  # baselines imports corpus
        return compute_baselines(self)

    def with_journals(self, journals: Sequence[Journal]) -> Corpus:
        """Same papers and citation graph, ``citing_weight`` included, under a
        different category scheme, which must cover every paper's journal,
        checked as in ``build_corpus``."""
        return replace(self, journals=_journal_map(journals, self.papers.values()))


def parse_papers(lines: Iterable[str]) -> list[Paper]:
    """Parse JSONL paper records, aborting with a line number on any error;
    the checks across records are ``build_corpus``'s."""
    papers: list[Paper] = []
    canon: dict = {}  # one object per distinct id, key, journal id or year
    for line_no, line in enumerate(lines, start=1):
        try:
            record = _JSON.decode(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"malformed JSON ({exc.msg})") from exc
        except _DuplicateKeyError as exc:
            raise ParseError(line_no, f"duplicate key {exc.args[0]!r}") from exc
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise ParseError(line_no, f"unreadable JSON value ({exc})") from exc
        except RecursionError as exc:
            raise ParseError(line_no, "malformed JSON (nested too deeply)") from exc
        if not isinstance(record, dict):
            raise ParseError(line_no, "expected a JSON object")
        papers.append(_paper_from_record(record, line_no, canon))
    return papers


class _DuplicateKeyError(ValueError):
    """A JSON object names one key twice; ``args[0]`` is the key."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """Build a JSON object, refusing a key that appears twice in it."""
    record = dict(pairs)
    if len(record) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKeyError(key)
            seen.add(key)
    return record


_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _paper_from_record(record: dict, line_no: int, canon: dict) -> Paper:
    """Check the JSON shape of one record; ``Paper`` checks the values.

    The id, the journal id, the year and the reference keys are replaced by
    their first-seen equal value in ``canon``, so that each distinct value is
    stored once. The dict is local to one parse rather than ``sys.intern``,
    whose strings are immortal on CPython 3.12, so the objects die with the
    corpus.
    """
    try:
        paper_id = record["id"]
        year = record["year"]
        journal_id = record["journal"]
        references = record["references"]
    except KeyError as exc:
        raise ParseError(line_no, f"missing required field {exc.args[0]!r}") from exc
    # A decoded JSON value has an exact type, so ``type(x) is int`` also
    # rejects a bool.
    if type(paper_id) is not str:
        raise ParseError(line_no, "field 'id' must be a string")
    if type(year) is not int:
        raise ParseError(line_no, "field 'year' must be an integer")
    if type(journal_id) is not str or not journal_id:
        raise ParseError(line_no, "field 'journal' must be a non-empty string")
    if type(references) is not list or not all(
        map(str.__instancecheck__, references)
    ):
        raise ParseError(line_no, "field 'references' must be a list of strings")
    citations = record.get("citations")
    if citations is not None and type(citations) is not int:
        raise ParseError(line_no, "field 'citations' must be an integer")
    paper_id = canon.setdefault(paper_id, paper_id)
    year = canon.setdefault(year, year)
    journal_id = canon.setdefault(journal_id, journal_id)
    references = tuple(map(canon.setdefault, references, references))
    try:
        return Paper(paper_id, year, journal_id, references, citations)
    except CorpusError as exc:
        raise ParseError(line_no, str(exc)) from exc


def parse_journals(lines: Iterable[str]) -> list[Journal]:
    """Parse the journals CSV (header ``id,title,categories``)."""
    reader = csv.reader(lines)
    try:
        return _journals_from_rows(reader)
    except csv.Error as exc:
        message = str(exc)
        if message.startswith("new-line character seen in unquoted field"):
            # Lines are split at LF only, so the new-line is a bare CR; the
            # csv module's own hint names an open() mode crown does not expose.
            message = (
                "unquoted carriage return: quote the field or end lines in LF or CRLF"
            )
        raise ParseError(reader.line_num, f"malformed CSV ({message})") from exc


def _journals_from_rows(reader) -> list[Journal]:
    """Journals from a ``csv.reader``, whose ``line_num`` numbers the errors."""
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
    only implicitly, through the citing paper's reference-list length R,
    whose inverse ``citing_weight`` holds for every paper with R > 0.

    The first repeated paper id, else the first repeated journal id, else the
    first paper whose journal is not in ``journals``, raises ``ParseError``
    numbered by the item's 1-based position in its list; a paper's is its
    papers-file line when ``papers`` came from ``parse_papers``.
    """
    if not papers:
        raise CorpusError("corpus has no papers")
    paper_map: dict[str, Paper] = {}
    for line_no, paper in enumerate(papers, start=1):
        if paper.id in paper_map:
            raise ParseError(line_no, f"duplicate paper id {paper.id!r}")
        paper_map[paper.id] = paper
    journal_map = _journal_map(journals, paper_map.values())
    # Each citer list becomes a tuple in place once the edges are in.
    cited_by: dict = {pid: [] for pid in paper_map}
    citing_weight: dict[str, float] = {}
    every_year = window.years is None
    for citing_id, citing_year, _, references, _ in paper_map.values():
        if references:
            citing_weight[citing_id] = 1.0 / len(references)
        for ref in references:
            citers = cited_by.get(ref)
            # A repeated key finds this paper already last in its citer list.
            if (
                citers is not None
                and (not citers or citers[-1] is not citing_id)
                and (every_year or window.admits(paper_map[ref].year, citing_year))
            ):
                citers.append(citing_id)
    for pid, citers in cited_by.items():
        cited_by[pid] = tuple(citers)
    return Corpus(paper_map, journal_map, cited_by, citing_weight, window)


def load_corpus(
    papers_path: str | Path,
    journals_path: str | Path,
    window: CitationWindow = CitationWindow.all(),
    digests: dict[str, str] | None = None,
) -> Corpus:
    """Read, parse and build a corpus, reading each file once.

    When ``digests`` is given, it receives the hex SHA-256 of the bytes each
    file was parsed from, keyed by ``str(path)``.

    The cyclic garbage collector is paused for the whole load, because the
    corpus holds no reference cycles and scanning it while it grows finds
    nothing to free; whether the collector was on is restored on return and
    on error. Once the collector is back on, its first collections still scan
    every object the load allocated. A process that keeps the corpus to the
    end, like the ``crown`` CLI (``cli._load``), skips that by calling
    ``gc.freeze()`` right after this call. This function does not freeze:
    frozen objects are left out of every later collection, so a long-lived
    process that loads many corpora would never free cyclic garbage
    allocated before each freeze.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        papers, papers_digest = read_hashed(papers_path, parse_papers)
        journals, journals_digest = read_hashed(journals_path, parse_journals)
        if digests is not None:
            digests[str(papers_path)] = papers_digest
            digests[str(journals_path)] = journals_digest
        return build_corpus(papers, journals, window)
    finally:
        if was_enabled:
            gc.enable()


def read_hashed(
    path: str | Path, parse: Callable[[Iterator[str]], _T]
) -> tuple[_T, str]:
    """Parse a UTF-8 text file and return the SHA-256 of its bytes.

    ``parse`` receives the file's lines, each decoded on its own and ending
    in the LF or CRLF it was written with; a bare CR does not end a line.
    Every line is hashed as it is read, and whatever ``parse`` leaves unread
    is hashed at the end, so the digest covers the whole file. A leading
    byte-order mark is dropped before parsing but hashed like every other
    byte. A line that is not UTF-8 raises ``ParseError`` with its number.
    """
    sha256 = hashlib.sha256()
    with open(path, "rb") as handle:
        result = parse(_decoded_lines(handle, sha256.update))
        for raw_line in handle:
            sha256.update(raw_line)
    return result, sha256.hexdigest()


def _decoded_lines(
    handle: BinaryIO, update: Callable[[bytes], object]
) -> Iterator[str]:
    encoding = "utf-8-sig"  # line 1 only: drop a byte-order mark
    for line_no, raw_line in enumerate(handle, start=1):
        update(raw_line)
        try:
            line = raw_line.decode(encoding)
        except UnicodeDecodeError as exc:
            raise ParseError(line_no, f"not UTF-8 ({exc})") from exc
        encoding = "utf-8"
        yield line


def _journal_map(journals: Sequence[Journal], papers: Iterable[Paper]) -> dict[str, Journal]:
    """Journals by id; the first repeated journal, else the first of ``papers``
    whose journal is missing, raises ``ParseError`` with its 1-based position."""
    journal_map: dict[str, Journal] = {}
    for position, journal in enumerate(journals, start=1):
        if journal.id in journal_map:
            raise ParseError(position, f"duplicate journal id {journal.id!r}")
        journal_map[journal.id] = journal
    for line_no, (paper_id, _, journal_id, _, _) in enumerate(papers, start=1):
        if journal_id not in journal_map:
            raise ParseError(
                line_no, f"paper {paper_id!r} has unresolved journal {journal_id!r}"
            )
    return journal_map
