"""Bibliographic corpus: file parsing, citation-graph resolution, citation counts.

Input formats:
    papers.jsonl   one JSON object per line:
                   {"id": str, "year": int, "journal": str,
                    "references": [str], "citations": int (optional)}
    journals.csv   header ``id,title,categories``; categories pipe-separated,
                   first category is the journal's primary category.
    group file     one paper id per line (``listed_id``), blank lines and
                   ``#`` comments ignored, named after its stem
                   (``group_name``); read by ``GroupSelection.read``.

Every input file is UTF-8 and is read by ``read_hashed``, one line at a time.
Lines end in LF or CRLF; a bare CR does not end a line. A line that is not
UTF-8, a JSON key repeated within one object and malformed CSV are rejected
with the line number, like any other malformed line.

A papers line is read with one ``raw_decode`` from its first character, and
the record is kept when nothing but the line end (LF, CRLF or none) follows
it. Every other line takes the full ``decode``, which skips whitespace
around the value and words every error: a padded line, two values on one
line, and any line ``raw_decode`` refuses. So each line is decoded on its
own, and no record or error can carry over from one line to the next.

Reference keys that match a paper id become citation edges, subject to the
citation window. Keys that do not resolve stay external: they produce no edge
but still count toward the citing paper's reference-list length, which is the
denominator used by fractional counting. Parse errors abort the run rather
than skipping records, so an evaluation never silently drops input.

A report echoes paper ids, categories and group names as fields, so they
hold no tab and no line break, and start with no ``#``, which would make a row
read as a comment line; ``LINE_BREAKS`` are the characters that
``str.splitlines()`` ends a line at. No echoed text holds a lone surrogate,
which UTF-8 cannot encode: a command-line byte that is not UTF-8 reads as one,
and so does a JSON ``\\ud800`` escape. ``check_echoed`` is the one test of
echoed text; it names what a refused text holds.

Loading allocates a few objects per record and per reference and frees
almost none of them, and the finished graph holds no reference cycles, so
the cyclic garbage collector has nothing to find in it. ``load_corpus``
therefore reads and builds inside ``collector_paused()``, instead of letting
the collector rescan the growing corpus every few hundred allocations.
Within one parse, every occurrence of a paper id
(as an id or as a reference key) is the same string object, which saves
memory and lets the graph build match keys by identity. Every record of one
journal shares one journal-id string, and every record of one year one year
int, so a corpus holds one such object per distinct value, not one per record.

The build also computes 1/R once per distinct reference-list length R, and
keeps it per citing paper as ``Corpus.citing_weight``: the weight of each
citation that paper makes under fractional counting, read on every
fractional score instead of measuring R again per edge. Papers with equal R
share one float object.

Every record of the package (``Paper``, ``Journal``, ``CitationWindow``,
``Corpus``, ``GroupSelection`` here, and those of the other modules) is a
named tuple: immutable, and the cheapest record to build and to import. It
compares equal to the tuple of its fields and unpacks like one;
``_replace``, ``_fields`` and ``_asdict`` stand where ``dataclasses``
would offer ``replace``, ``fields`` and ``asdict``. A record with checks is a
``CheckedRecord``, so ``_replace``, ``_make`` and unpickling run them like a
call does.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import hashlib
import json
import operator
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
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


def listed_id(line: str) -> str | None:
    """The paper id a group-file line lists: the line without surrounding
    whitespace, or None when that is empty or a ``#`` comment. ``Paper``
    takes only ids that this returns unchanged, so any paper can be listed."""
    paper_id = line.strip()
    return paper_id if paper_id and not paper_id.startswith("#") else None


def group_name(path: str | Path) -> str:
    """The name of the group a group file lists: the file's stem, which a
    report echoes as a row field (``check_echoed``)."""
    return check_echoed(Path(path).stem, "group name")


# Every character ``str.splitlines()`` ends a line at. A report that echoes
# one would split a line for any reader that splits that way.
LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_SURROGATE = re.compile("[\ud800-\udfff]")


def check_echoed(text: str, label: str, tab: bool = True) -> str:
    """``text`` itself when a report can echo it as a TSV field, or, when not
    ``tab``, as a header value; else ``CorpusError`` "<label> <text!r> ..."
    naming its first fault: a lone surrogate, a line break or a tab, then, in
    a field, a leading ``#``, which would make a row read as a comment."""
    # ``str.isprintable()`` is False for a tab, a line break and a surrogate,
    # so it settles the common case at C speed; ``Paper`` runs this on every record.
    if text.isprintable() and text[:1] != "#":
        return text
    if _SURROGATE.search(text):
        fault = "holds a lone surrogate, which UTF-8 cannot encode"
    elif not LINE_BREAKS.isdisjoint(text) or (tab and "\t" in text):
        fault = "holds a tab or a line break" if tab else "holds a line break"
    elif tab and text[:1] == "#":
        fault = "starts with '#', which marks a comment line"
    else:
        return text
    raise CorpusError(f"{label} {text!r} {fault}")


class CheckedRecord:
    """Mixin for a named tuple with invariants, listed before it among the
    bases: ``_check`` runs on every record built, through a call, ``_make``
    (and so ``_replace``, which goes through it) or unpickling under every
    protocol. A record that normalises a field, or that is built too often
    to afford the extra calls (``Paper``), checks in its own ``__new__``
    instead, which builds through ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


def refuse_assignment(self: object, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of a record that keeps values in
    an instance ``__dict__`` (a ``functools.cached_property``): the record
    stays immutable, while the property still fills its ``__dict__``."""
    raise AttributeError(f"cannot assign to or delete {name!r}: "
                         f"{type(self).__name__} is immutable")


class _PaperFields(NamedTuple):
    id: str
    year: int
    journal_id: str
    references: tuple[str, ...] = ()
    raw_citation_count: int | None = None


class Paper(CheckedRecord, _PaperFields):
    """One paper record; its own invariants are checked on construction.

    The id is what a report row and a group file line carry: it has no
    surrounding whitespace, does not start with ``#`` and holds no tab or
    line break. The year is an ``int``, the journal id a non-empty ``str``,
    the references a ``tuple`` and the citation override ``None`` or an
    ``int``; a ``bool`` is not an ``int`` here.

    A named tuple: it compares equal to the tuple of its fields and unpacks
    like one. Every way of building one (a call, ``_make``, ``_replace``,
    unpickling) goes through ``__new__`` and so runs the checks; the papers
    parse builds a record that it has seen pass them without the call.
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
        if type(id) is not str or not id:
            raise CorpusError("paper id must be a non-empty string")
        # A space is the only printable whitespace, so a printable id that
        # neither starts with '#' or a space nor ends in one passes both
        # checks below; this settles the common case at C speed.
        if not (id.isprintable() and id[0] not in "# " and id[-1] != " "):
            if listed_id(id) != id:
                raise CorpusError(f"paper id {id!r} has surrounding whitespace or "
                                  "starts with '#', so no group file can list it")
            check_echoed(id, "paper id")
        if type(year) is not int:
            raise CorpusError(f"paper {id!r}: year must be an integer")
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise CorpusError(
                f"paper {id!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if type(journal_id) is not str or not journal_id:
            raise CorpusError(f"paper {id!r}: journal id must be a non-empty string")
        if type(references) is not tuple:
            raise CorpusError(f"paper {id!r}: references must be a tuple")
        if id in references:
            raise CorpusError(f"paper {id!r} references itself")
        if raw_citation_count is not None:
            if type(raw_citation_count) is not int:
                raise CorpusError(f"paper {id!r}: citation override must be an integer")
            if raw_citation_count < 0:
                raise CorpusError(f"paper {id!r}: citation override must be non-negative")
        return tuple.__new__(cls, (id, year, journal_id, references, raw_citation_count))


class _JournalFields(NamedTuple):
    id: str
    title: str
    categories: tuple[str, ...]


class Journal(CheckedRecord, _JournalFields):
    """One journal record; its own invariants are checked on construction."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.id:
            raise CorpusError("empty journal id")
        if not self.categories or not all(self.categories):
            raise CorpusError(f"journal {self.id!r} has an empty categories field")
        if len(set(self.categories)) != len(self.categories):
            raise CorpusError(f"journal {self.id!r} repeats a category")
        for category in self.categories:  # each is a field of a baselines row
            check_echoed(category, f"journal {self.id!r}: category")

    @property
    def primary_category(self) -> str:
        return self.categories[0]


class _WindowFields(NamedTuple):
    years: int | None = None


class CitationWindow(CheckedRecord, _WindowFields):
    """Which citing papers count toward a paper's citation total.

    ``all`` admits every citing paper. ``fixed_years(n)`` admits only citing
    papers published inside the n-year span that starts at the cited paper's
    publication year (publication year included, so n=1 keeps same-year
    citations only).
    """

    __slots__ = ()

    def _check(self) -> None:
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


class _CorpusFields(NamedTuple):
    papers: dict[str, Paper]
    journals: dict[str, Journal]
    cited_by: dict[str, tuple[str, ...]]
    citing_weight: dict[str, float]
    window: CitationWindow


class Corpus(_CorpusFields):
    """Resolved, immutable collection of papers, journals and citation edges.

    ``cited_by`` maps every paper id to the ids of the papers that cite it
    inside the window, in input order, and has the key order of ``papers``,
    so the two can be walked in step. ``citing_weight`` maps every paper
    with a non-empty reference list to ``1.0 / len(references)``, so it
    covers every citer; papers with equal lengths share one float. Both are
    graph data: they do not depend on ``journals``. Within one parse, equal
    ids, journal ids and years are each one shared object.

    Dict insertion order matches input order everywhere, so two corpora built
    from identical input bytes are identical including all list orderings.
    Safe to share across readers; the one value set after construction is
    ``baselines``, the corpus's own baseline table, built on first use and
    kept in the instance ``__dict__``, which is why a corpus, unlike the
    other records, has one.
    """

    __setattr__ = __delattr__ = refuse_assignment

    @property
    def n_edges(self) -> int:
        return sum(len(citers) for citers in self.cited_by.values())

    @property
    def n_external(self) -> int:
        """Reference keys that name no corpus paper, every occurrence counted,
        whatever the window."""
        papers = self.papers
        return sum(ref not in papers for paper in papers.values() for ref in paper.references)

    @functools.cached_property
    def baselines(self) -> BaselineTable:
        """This corpus's (category, year) baseline table, built on first use."""
        from .baselines import compute_baselines  # baselines imports corpus
        return compute_baselines(self)

    def with_journals(self, journals: Sequence[Journal]) -> Corpus:
        """Same papers and citation graph, ``citing_weight`` included, under a
        different category scheme, which must cover every paper's journal,
        checked as in ``build_corpus``."""
        return self._replace(journals=_journal_map(journals, self.papers.values()))


def parse_papers(lines: Iterable[str]) -> list[Paper]:
    """Parse JSONL paper records, aborting with a line number on any error;
    the checks across records are ``build_corpus``'s."""
    papers: list[Paper] = []
    canon: dict = {}  # one object per distinct id, key, journal id or year
    raw_decode = _JSON.raw_decode
    for line_no, line in enumerate(lines, start=1):
        try:
            record, end = raw_decode(line)
        except (ValueError, RecursionError):  # the full decode words the error
            end = -1
        if end < 0 or line[end:] not in _LINE_ENDS:
            record = _decode(line, line_no)
        if not isinstance(record, dict):
            raise ParseError(line_no, "expected a JSON object")
        papers.append(_paper_from_record(record, line_no, canon))
    return papers


# What may follow a value that ``raw_decode`` read from the start of a line
# for the line to be that value alone.
_LINE_ENDS = ("\n", "", "\r\n")


def _decode(line: str, line_no: int) -> object:
    """The JSON value a whole line holds, between optional whitespace, or
    ``ParseError`` numbered ``line_no``."""
    try:
        return _JSON.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"malformed JSON ({exc.msg})") from exc
    except _DuplicateKeyError as exc:
        raise ParseError(line_no, f"duplicate key {exc.args[0]!r}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(line_no, f"unreadable JSON value ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(line_no, "malformed JSON (nested too deeply)") from exc


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
    """Check the JSON shape of one record; ``Paper``'s checks judge the values.

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
    # ``Paper`` checks these types too, but they must be checked here,
    # before ``canon`` replaces a value by its first-seen equal: a 2005.0
    # year would collapse onto a shared int 2005. A decoded JSON value has
    # an exact type, so ``type(x) is int`` also rejects a bool.
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
    # The types are checked above; when the values pass the rest of
    # ``Paper.__new__``'s checks (the id test is its fast one), the record is
    # built without them. Any other record takes the call, which words its
    # first fault.
    if (
        paper_id.isprintable()
        and paper_id[:1] not in ("", "#", " ")
        and paper_id[-1] != " "
        and YEAR_MIN <= year <= YEAR_MAX
        and paper_id not in references
        and (citations is None or citations >= 0)
    ):
        return tuple.__new__(Paper, (paper_id, year, journal_id, references, citations))
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


class GroupSelection(NamedTuple):
    """The set of corpus papers being evaluated as one unit."""

    name: str
    paper_ids: tuple[str, ...]

    @classmethod
    def resolve(cls, name: str, paper_ids: Iterable[str], corpus: Corpus) -> GroupSelection:
        """The group of ``paper_ids``, in order. The first id not in the
        corpus, or listed twice, raises ``ParseError`` numbered by its 1-based
        position; no ids at all raise ``CorpusError``."""
        return cls._select(name, corpus, False, paper_ids)

    @classmethod
    def read(
        cls, path: str | Path, corpus: Corpus, digests: dict[str, str] | None = None
    ) -> GroupSelection:
        """The group a group file lists, named ``group_name(path)``: each line
        lists ``listed_id(line)``. Errors are ``resolve``'s, numbered by file
        line, an empty group by the last (1 for no bytes). ``digests``, when
        given, receives the file's SHA-256 under ``str(path)``."""
        digests = {} if digests is None else digests
        select = functools.partial(cls._select, group_name(path), corpus, True)
        group, digests[str(path)] = read_hashed(path, select)
        return group

    @classmethod
    def _select(
        cls, name: str, corpus: Corpus, lines: bool, items: Iterable[str]
    ) -> GroupSelection:
        """The unknown, repeated and empty rules over ``items``: paper ids, or
        group-file lines when ``lines``, numbered from 1; a line that lists
        no id (``listed_id`` gives None) is skipped."""
        first_line: dict[str, int] = {}
        line_no = 0
        for line_no, paper_id in enumerate(map(listed_id, items) if lines else items, 1):
            if paper_id is None and lines:
                continue
            if paper_id not in corpus.papers:
                raise ParseError(line_no, f"group {name!r}: unknown paper {paper_id!r}")
            if paper_id in first_line:
                raise ParseError(line_no, f"group {name!r} lists paper {paper_id!r} "
                                          f"twice (first on line {first_line[paper_id]})")
            first_line[paper_id] = line_no
        if not first_line:
            if lines:
                raise ParseError(line_no or 1, f"group {name!r} is empty")
            raise CorpusError(f"group {name!r} is empty")
        return cls(name, tuple(first_line))


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
    paper_map = dict(zip(map(operator.itemgetter(0), papers), papers))
    if len(paper_map) != len(papers):
        seen: set[str] = set()
        for line_no, paper in enumerate(papers, start=1):
            if paper.id in seen:
                raise ParseError(line_no, f"duplicate paper id {paper.id!r}")
            seen.add(paper.id)
    journal_map = _journal_map(journals, paper_map.values())
    # Each citer list becomes a tuple in place once the edges are in.
    cited_by: dict = {pid: [] for pid in paper_map}
    citing_weight: dict[str, float] = {}
    inverse = _Inverses()
    # ``window.admits``, inline: a call per resolved reference costs more
    # than the test.
    n_years = window.years
    every_year = n_years is None
    for citing_id, citing_year, _, references, _ in paper_map.values():
        if references:
            citing_weight[citing_id] = inverse[len(references)]
        for ref in references:
            citers = cited_by.get(ref)
            # A repeated key finds this paper already last in its citer list.
            if (
                citers is not None
                and (not citers or citers[-1] is not citing_id)
                and (every_year or 0 <= citing_year - paper_map[ref].year < n_years)
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

    The load runs inside ``collector_paused()``: the corpus holds no
    reference cycles, so scanning it while it grows finds nothing to free.
    """
    digests = {} if digests is None else digests
    with collector_paused():
        papers, digests[str(papers_path)] = read_hashed(papers_path, parse_papers)
        journals, digests[str(journals_path)] = read_hashed(journals_path, parse_journals)
        return build_corpus(papers, journals, window)


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block; whether it was on is
    restored on exit and on error, so a caller gets it back as it left it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
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


def _journal_map(journals: Sequence[Journal], papers: Collection[Paper]) -> dict[str, Journal]:
    """Journals by id; the first repeated journal, else the first of ``papers``
    whose journal is missing, raises ``ParseError`` with its 1-based position."""
    journal_map: dict[str, Journal] = {}
    for position, journal in enumerate(journals, start=1):
        if journal.id in journal_map:
            raise ParseError(position, f"duplicate journal id {journal.id!r}")
        journal_map[journal.id] = journal
    if not journal_map.keys() >= set(map(operator.itemgetter(2), papers)):
        for line_no, (paper_id, _, journal_id, _, _) in enumerate(papers, start=1):
            if journal_id not in journal_map:
                raise ParseError(
                    line_no, f"paper {paper_id!r} has unresolved journal {journal_id!r}"
                )
    return journal_map


class _Inverses(dict):
    """``1.0 / n`` by ``n``, each computed on first use and then shared, so a
    corpus holds one weight object per distinct reference-list length."""

    def __missing__(self, n: int) -> float:
        self[n] = weight = 1.0 / n
        return weight
