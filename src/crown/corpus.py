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

A papers line is read with one call of the decoder's ``scan_once`` from its
first character, and the record is kept when nothing but the line end (LF,
CRLF or none) follows it. Every other line takes the full ``decode``, which
skips whitespace around the value and words every error: a padded line, two
values on one line, and any line ``scan_once`` refuses. So each line is
decoded on its own, and no record or error can carry over from one line to
the next. The decode builds each record in its ``object_pairs_hook``: an
object whose keys come in the documented order (``id, year, journal,
references``, then ``citations`` when present) and whose values pass the
fast checks becomes its ``Paper`` right there, with no dict built. Any other
object becomes a dict, refused when it repeats a key, whose fields
``_paper_from_record`` checks and words one by one, so no line is decoded
twice. Both paths take the value checks from one helper, ``_fast_paper``,
and only a record it refuses takes ``Paper``'s own checks. Any key order
reads to the same records; the documented one, which ``crown synth``
writes, reads fastest.

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

The build keeps one count column, ``Corpus.citation_counts``: per paper,
the distinct papers citing it inside the window, taken by a C-level tally
over the reference lists. It builds no per-paper container of citers; a
score pass tallies the fractional counts of its own papers
(``crown.indicators.fractional_scores``) in one walk over the reference
lists that name one of them. A reference list holds at most
``MAX_REFERENCES`` keys, so that tally is exact.

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
import itertools
import json
import operator
import re
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from pathlib import Path
from typing import BinaryIO, NamedTuple, TypeVar

_T = TypeVar("_T")

YEAR_MIN = 1900
YEAR_MAX = 2100
# The longest reference list: for R up to 2^27, 1/R as a double is an
# integer multiple of 2^-80, which fractional counting sums exactly.
MAX_REFERENCES = 2**27


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
    protocol. Only ``FieldYearCell``, which sorts its counts, checks in its
    own ``__new__`` instead, which builds through ``tuple.__new__``.
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
    the references a ``tuple`` of at most ``MAX_REFERENCES`` keys and the
    citation override ``None`` or an ``int``; a ``bool`` is not an ``int``
    here.

    A named tuple: it compares equal to the tuple of its fields and unpacks
    like one. Every way of building one (a call, ``_make``, ``_replace``,
    unpickling) runs the checks; the papers parse builds a record that it
    has seen pass them without the call.
    """

    __slots__ = ()

    def _check(self) -> None:
        paper_id, year, journal_id, references, override = self
        if type(paper_id) is not str or not paper_id:
            raise CorpusError("paper id must be a non-empty string")
        if listed_id(paper_id) != paper_id:
            raise CorpusError(f"paper id {paper_id!r} has surrounding whitespace or "
                              "starts with '#', so no group file can list it")
        check_echoed(paper_id, "paper id")
        if type(year) is not int:
            raise CorpusError(f"paper {paper_id!r}: year must be an integer")
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise CorpusError(
                f"paper {paper_id!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if type(journal_id) is not str or not journal_id:
            raise CorpusError(f"paper {paper_id!r}: journal id must be a non-empty string")
        if type(references) is not tuple:
            raise CorpusError(f"paper {paper_id!r}: references must be a tuple")
        if paper_id in references:
            raise CorpusError(f"paper {paper_id!r} references itself")
        if len(references) > MAX_REFERENCES:
            raise CorpusError(f"paper {paper_id!r} has {len(references)} references, "
                              f"more than the {MAX_REFERENCES} fractional counting sums exactly")
        if override is not None:
            if type(override) is not int:
                raise CorpusError(f"paper {paper_id!r}: citation override must be an integer")
            if override < 0:
                raise CorpusError(f"paper {paper_id!r}: citation override must be non-negative")


class _JournalFields(NamedTuple):
    id: str
    title: str
    categories: tuple[str, ...]


class Journal(CheckedRecord, _JournalFields):
    """One journal record; its own invariants are checked on construction.

    The id and title are ``str`` and the categories a ``tuple`` of distinct,
    non-empty ``str``, each one a report can echo as a field.
    """

    __slots__ = ()

    def _check(self) -> None:
        if type(self.id) is not str:
            raise CorpusError(f"journal id must be a string, got {self.id!r}")
        if not self.id:
            raise CorpusError("empty journal id")
        if type(self.title) is not str:
            raise CorpusError(f"journal {self.id!r}: title must be a string")
        if type(self.categories) is not tuple:
            raise CorpusError(f"journal {self.id!r}: categories must be a tuple")
        if not all(type(category) is str for category in self.categories):
            raise CorpusError(f"journal {self.id!r}: categories must be strings")
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
        if self.years is None:
            return
        if type(self.years) is not int:  # a bool is not an int here
            raise ValueError(f"fixed-years window requires an integer n, got {self.years!r}")
        if self.years < 1:
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

    def citing_years(self, cited_year: int) -> range:
        """The publication years of the citing papers that count toward a
        paper published in ``cited_year``: ``YEAR_MIN..YEAR_MAX`` for
        ``all``, else the n years from ``cited_year``. The one statement of
        the window rule; the count tally and the fractional tally
        (``crown.indicators.fractional_scores``) both read it."""
        if self.years is None:
            return range(YEAR_MIN, YEAR_MAX + 1)
        return range(cited_year, cited_year + self.years)

    def __str__(self) -> str:
        return "all" if self.years is None else f"years{self.years}"


class _CorpusFields(NamedTuple):
    papers: dict[str, Paper]
    journals: dict[str, Journal]
    citation_counts: tuple[int, ...]
    n_external: int
    window: CitationWindow


class Corpus(CheckedRecord, _CorpusFields):
    """Resolved, immutable collection of papers, journals and citation counts.

    ``citation_counts`` holds, per paper in the key order of ``papers``, how
    many distinct papers cite it inside the window, so the two can be walked
    in step. ``n_external`` counts the reference keys that name no corpus
    paper, every occurrence, whatever the window. Both are graph data: they
    do not depend on ``journals``. Who cites a paper is not stored: a score
    pass tallies what it needs from the reference lists. Within one parse,
    equal ids, journal ids and years are each one shared object.

    Every way of building one checks that the window is a ``CitationWindow``,
    the count column a tuple of ``len(papers)`` non-negative ints and
    ``n_external`` a non-negative int; ValueError otherwise.

    Dict insertion order matches input order everywhere, so two corpora built
    from identical input bytes are identical including all list orderings.
    Nothing is set after construction, so a corpus is safe to share across
    readers. It keeps no baseline table: each score pass builds the table of
    the corpus it scores (``crown.indicators.score_papers``).
    """

    __slots__ = ()

    def _check(self) -> None:
        check_window(self.window)
        counts = self.citation_counts
        if (
            type(counts) is not tuple
            or len(counts) != len(self.papers)
            or not set(map(type, counts)) <= {int}
            or min(counts, default=0) < 0
        ):
            raise ValueError(
                f"citation counts must be a tuple of {len(self.papers)} non-negative ints"
            )
        if type(self.n_external) is not int or self.n_external < 0:
            raise ValueError(f"n_external must be a non-negative int, got {self.n_external!r}")

    @property
    def n_edges(self) -> int:
        return sum(self.citation_counts)

    def with_journals(self, journals: Sequence[Journal]) -> Corpus:
        """Same papers and citation counts, the one column shared, under a
        different category scheme, which must cover every paper's journal,
        checked as in ``build_corpus``."""
        return self._replace(journals=_journal_map(journals, self.papers.values()))


_ID = operator.itemgetter(0)
_YEAR = operator.itemgetter(1)
_REFERENCES = operator.itemgetter(3)


def parse_papers(lines: Iterable[str]) -> list[Paper]:
    """Parse JSONL paper records, aborting with a line number on any error;
    the checks across records are ``build_corpus``'s."""
    papers: list[Paper] = []
    canon: dict = {}  # one object per distinct id, key, journal id or year
    decoder = json.JSONDecoder(object_pairs_hook=functools.partial(_paper_or_object, canon))
    scan_once = decoder.scan_once
    for line_no, line in enumerate(lines, start=1):
        try:
            record, end = scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):  # the full decode words it
            end = -1
        if end < 0 or line[end:] not in _LINE_ENDS:
            record = _decode(decoder, line, line_no)
        if type(record) is not Paper:
            if not isinstance(record, dict):
                raise ParseError(line_no, "expected a JSON object")
            record = _paper_from_record(record, line_no, canon)
        papers.append(record)
    return papers


# What may follow a value that ``scan_once`` read from the start of a line
# for the line to be that value alone.
_LINE_ENDS = ("\n", "", "\r\n")


def _decode(decoder: json.JSONDecoder, line: str, line_no: int) -> object:
    """The JSON value a whole line holds, between optional whitespace, or
    ``ParseError`` numbered ``line_no``."""
    try:
        return decoder.decode(line)
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


def _paper_or_object(canon: dict, pairs: list[tuple[str, object]]) -> Paper | dict:
    """The decode's ``object_pairs_hook``, one ``canon`` per parse.

    A JSON object whose keys are ``id, year, journal, references[,
    citations]`` in that order and whose values have the JSON types
    ``_paper_from_record`` asks for becomes ``_fast_paper`` of those values
    when that is a ``Paper``; any other object is ``_unique_keys(pairs)``.
    A nested object is built here too, and a ``Paper`` is no value any
    record field takes.
    """
    if len(pairs) == 4:
        (id_key, paper_id), (year_key, year), (journal_key, journal_id), (
            references_key, references) = pairs
        citations = None
    elif len(pairs) == 5 and pairs[4][0] == "citations":
        (id_key, paper_id), (year_key, year), (journal_key, journal_id), (
            references_key, references), (_, citations) = pairs
    else:
        return _unique_keys(pairs)
    # A decoded JSON value has an exact type, so ``type(x) is int`` also
    # rejects a bool.
    if (
        id_key == "id"
        and year_key == "year"
        and journal_key == "journal"
        and references_key == "references"
        and type(paper_id) is str
        and type(year) is int
        and type(journal_id) is str
        and journal_id
        and type(references) is list
        and all(map(str.__instancecheck__, references))
        and (citations is None or type(citations) is int)
    ):
        paper = _fast_paper(canon, paper_id, year, journal_id, references, citations)
        if paper is not None:
            return paper
    return _unique_keys(pairs)


def _fast_paper(
    canon: dict, paper_id: str, year: int, journal_id: str, references: list[str],
    citations: int | None,
) -> Paper | None:
    """The ``Paper`` of values of the checked JSON types, built without the
    call and its values replaced by their first-seen equal in ``canon``, or
    None when a value needs ``Paper``'s own checks.

    A space is the only printable whitespace, so a printable id that
    neither starts with '#' or a space nor ends in one is an id ``Paper``
    takes.
    """
    if (
        paper_id.isprintable()
        and paper_id[:1] not in ("", "#", " ")
        and paper_id[-1] != " "
        and YEAR_MIN <= year <= YEAR_MAX
        and len(references) <= MAX_REFERENCES
        and paper_id not in references
        and (citations is None or citations >= 0)
    ):
        setdefault = canon.setdefault
        return tuple.__new__(Paper, (
            setdefault(paper_id, paper_id),
            setdefault(year, year),
            setdefault(journal_id, journal_id),
            tuple(map(setdefault, references, references)),
            citations,
        ))
    return None


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
    # year would collapse onto a shared int 2005.
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
    paper = _fast_paper(canon, paper_id, year, journal_id, references, citations)
    if paper is not None:
        return paper
    # Values the fast checks do not take: the call words the first fault,
    # or builds a record that only its full checks admit.
    setdefault = canon.setdefault
    try:
        return Paper(
            setdefault(paper_id, paper_id),
            setdefault(year, year),
            setdefault(journal_id, journal_id),
            tuple(map(setdefault, references, references)),
            citations,
        )
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
        corpus (an item that is not a ``str`` included), or listed twice,
        raises ``ParseError`` numbered by its 1-based position; no ids at all
        raise ``CorpusError``."""
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
        no id (``listed_id`` gives None) is skipped. The group holds the
        corpus's own id objects, which the reference keys share, so a score
        pass finds each id by identity.

        The items are listed once and resolved at C level; only a group
        that breaks a rule is walked in number order, to word its first
        fault."""
        papers = corpus.papers
        listed: list = []
        try:
            listed.extend(map(listed_id, items) if lines else items)
        except ParseError:  # a line that is not UTF-8; a fault above it is worded first
            _check_listed(name, listed, papers, lines)
            raise
        n_ids = len(listed) - listed.count(None) if lines else len(listed)
        try:
            unique = dict.fromkeys(filter(None, listed) if lines else listed)
        except TypeError:  # an item that does not hash names no paper
            unique = {}
        if unique and len(unique) == n_ids and papers.keys() >= unique.keys():
            return cls(name, tuple(map(_ID, map(papers.__getitem__, unique))))
        _check_listed(name, listed, papers, lines)
        if lines:
            raise ParseError(len(listed) or 1, f"group {name!r} is empty")
        raise CorpusError(f"group {name!r} is empty")


def _check_listed(name: str, listed: list, papers: dict[str, Paper], lines: bool) -> None:
    """``ParseError`` for the first item of ``listed`` that names no paper
    (one that is not a ``str`` included) or repeats an earlier one, numbered
    by its 1-based position; a None line, which lists no id, is skipped."""
    first_line: dict[str, int] = {}
    for line_no, paper_id in enumerate(listed, 1):
        if paper_id is None and lines:
            continue
        # an item that is not a ``str`` names no paper, and may not hash
        if not isinstance(paper_id, str) or paper_id not in papers:
            raise ParseError(line_no, f"group {name!r}: unknown paper {paper_id!r}")
        if paper_id in first_line:
            raise ParseError(line_no, f"group {name!r} lists paper {paper_id!r} "
                                      f"twice (first on line {first_line[paper_id]})")
        first_line[paper_id] = line_no


def build_corpus(
    papers: Sequence[Paper],
    journals: Sequence[Journal],
    window: CitationWindow = CitationWindow.all(),
) -> Corpus:
    """Resolve references into citation counts.

    A reference key equal to a paper id is a citation if the window admits
    the citing paper's year (``CitationWindow.citing_years``); a key
    repeated within one reference list counts one citing paper. Unresolved
    keys are counted in ``n_external`` and still count toward the citing
    paper's reference-list length R, the denominator of fractional counting.

    ValueError for a ``window`` that is not a ``CitationWindow``. The first
    repeated paper id, else the first repeated journal id, else the first
    paper whose journal is not in ``journals``, raises ``ParseError``
    numbered by the item's 1-based position in its list; a paper's is its
    papers-file line when ``papers`` came from ``parse_papers``.
    """
    check_window(window)
    if not papers:
        raise CorpusError("corpus has no papers")
    paper_map = dict(zip(map(_ID, papers), papers))
    if len(paper_map) != len(papers):
        seen: set[str] = set()
        for line_no, paper in enumerate(papers, start=1):
            if paper.id in seen:
                raise ParseError(line_no, f"duplicate paper id {paper.id!r}")
            seen.add(paper.id)
    journal_map = _journal_map(journals, paper_map.values())
    counts, n_external = _citation_counts(paper_map, window)
    return Corpus(paper_map, journal_map, counts, n_external, window)


def check_window(window: CitationWindow) -> None:
    """ValueError for a ``window`` that is not a ``CitationWindow``, its CLI
    spelling as a string included."""
    if type(window) is not CitationWindow:
        raise ValueError(f"window must be a CitationWindow, got {window!r}")


def _citation_counts(
    papers: dict[str, Paper], window: CitationWindow
) -> tuple[tuple[int, ...], int]:
    """``Corpus.citation_counts`` and ``Corpus.n_external`` of ``papers``.

    When every paper admits citing papers of every corpus year (``all``),
    one tally over all reference lists is read in key order. Otherwise the
    lists are tallied per citing year, and each tally is added to the counts
    of the cited years whose span holds that year.
    """
    spans = {year: window.citing_years(year) for year in set(map(_YEAR, papers.values()))}
    if all(spans.keys() <= set(span) for span in spans.values()):
        tally, n_external = _tally(list(map(_REFERENCES, papers.values())), papers)
        return tuple(map(tally.get, papers, itertools.repeat(0))), n_external
    ids_by_year: dict[int, list[str]] = {year: [] for year in spans}
    lists_by_year: dict[int, list[tuple[str, ...]]] = {year: [] for year in spans}
    for paper_id, year, _, references, _ in papers.values():
        ids_by_year[year].append(paper_id)
        lists_by_year[year].append(references)
    counts = {year: [0] * len(ids) for year, ids in ids_by_year.items()}
    n_external = 0
    for citing_year, lists in lists_by_year.items():
        tally, external = _tally(lists, papers)
        n_external += external
        for year, ids in ids_by_year.items():
            if citing_year in spans[year]:
                counts[year] = list(
                    map(operator.add, counts[year], map(tally.get, ids, itertools.repeat(0)))
                )
    # Each year's counts are in key order, so taking the next count of each
    # paper's year, in key order, gives the column.
    by_year = {year: iter(year_counts) for year, year_counts in counts.items()}
    column = map(next, map(by_year.__getitem__, map(_YEAR, papers.values())))
    return tuple(column), n_external


def _tally(
    reference_lists: list[tuple[str, ...]], papers: dict[str, Paper]
) -> tuple[Counter, int]:
    """How many of ``reference_lists`` name each key, and how many keys,
    every occurrence counted, name no paper in ``papers``."""
    tally = Counter(itertools.chain.from_iterable(reference_lists))
    n_external = sum(map(tally.__getitem__, itertools.filterfalse(papers.__contains__, tally)))
    # A list that repeats a key is the rare one: a C-level test finds them,
    # and each counts its keys once.
    repeats = map(operator.ne, map(len, reference_lists), map(len, map(set, reference_lists)))
    for references in itertools.compress(reference_lists, repeats):
        tally.subtract(references)
        tally.update(set(references))
    return tally, n_external


def load_corpus(
    papers_path: str | Path,
    journals_path: str | Path,
    window: CitationWindow = CitationWindow.all(),
    digests: dict[str, str] | None = None,
) -> Corpus:
    """Read, parse and build a corpus, reading each file once; ValueError,
    before any file is read, for a ``window`` that is not a
    ``CitationWindow``.

    When ``digests`` is given, it receives the hex SHA-256 of the bytes each
    file was parsed from, keyed by ``str(path)``.

    The load runs inside ``collector_paused()``: the corpus holds no
    reference cycles, so scanning it while it grows finds nothing to free.
    """
    check_window(window)
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
