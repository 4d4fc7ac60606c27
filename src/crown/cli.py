"""Command-line entry point wiring ingestion, scoring, synthesis and diagnostics.

Subcommand grammar::

    crown ingest    --papers P --journals J [--window W]
    crown baselines --papers P --journals J [--window W]
    crown score     --papers P --journals J --group G
                    [--weighting arithmetic|harmonic] [--window all|yearsN]
                    [--top-x X]
    crown synth     --fields NAME:MEAN:PER_YEAR[,...] --years A-B --seed N
                    [--cross-field F] [--multi-cat F] [--skew F]
                    --papers OUT --journals OUT
    crown diagnose  consistency | indexer | ranksum [flags]

All report-producing subcommands take ``--format tsv|json`` and ``--out PATH``;
an ``--out`` that resolves to one of the run's input files is rejected before
anything is read.
Every report starts with the full effective configuration, including a SHA-256
content hash of each input file, taken from the single read that was parsed,
so a result is always traceable to its exact inputs; identical inputs and
flags produce byte-identical output. Exit codes: 0 success, 1 input error, 2
computation degeneracy (for example a group whose every paper is unscorable).
An input error, a flag the parser rejects included, is one ``crown: error:``
line on stderr.
A degenerate run still emits a coverage report under the same configuration
header, input hashes included.

The input formats, the group file's included, are stated in the
``crown.corpus`` docstring. Every text a report echoes passes
``corpus.check_echoed``; a path, group or ``--fields`` name that fails it
is rejected while the flags are parsed, before any file is read or written.

The score report TSV carries the columns group, n_total, n_scorable,
cpp_fcsm, mncs, mdncs, pp_top<x> (``pp_top1`` at the default ``--top-x 1``),
mean_fractional after the ``#`` header block, followed by one
``# unscorable:`` line per excluded paper; the JSON format nests the same
report under ``report`` next to ``config``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, NamedTuple, TypeVar

from .baselines import Weighting, compute_baselines
from .corpus import (
    CitationWindow,
    Corpus,
    GroupSelection,
    check_echoed,
    collector_paused,
    group_name,
    load_corpus,
    parse_journals,
    read_hashed,
)
from .diagnostics import (
    INDICATORS,
    RATIO_OF_SUMS,
    SearchBounds,
    consistency_counterexample,
    indexer_sensitivity,
    primary_only_scheme,
    rank_sum_test,
)
from .indicators import (
    DegenerateGroupError,
    check_top_x,
    scorable_papers,
    score_group,
    score_papers,
)

if TYPE_CHECKING:
    from .synth import FieldSpec

T = TypeVar("T")

# The columns a score row and a degenerate run's coverage row both start with.
_COVERAGE = ("group", "n_total", "n_scorable")
# Input-file flags, in the order a report header lists them; ``--journals-b``
# comes last, as ``scheme_b``.
_INPUTS = ("papers", "journals", "group", "group_a", "group_b")


class Report(NamedTuple):
    """One run's output: its configuration, one table and the JSON body.

    TSV is the ``# crown <command>`` line, one ``# key: value`` line per
    setting, the column line, one tab-joined line per row and one ``# `` line
    per note. JSON is ``{"config": ..., **body}`` with sorted keys. A named
    tuple, like every record of the package.
    """

    command: str
    settings: Sequence[tuple[str, str]]
    columns: Sequence[str] = ()
    rows: Sequence[Sequence[object]] = ()
    notes: Sequence[str] = ()
    body: dict = {}  # shared by every report built without one, and only read

    def render(self, fmt: str) -> str:
        if fmt == "json":
            config = {"command": self.command, "settings": dict(self.settings)}
            payload = {"config": config, **self.body}
            return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        lines = [f"# crown {self.command}"]
        lines.extend(f"# {key}: {value}" for key, value in self.settings)
        if self.columns:
            lines.append("\t".join(self.columns))
        lines.extend("\t".join(_fmt(value) for value in row) for row in self.rows)
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser, subparsers included, that reports a bad command
    line as one ``crown: error:`` line, like any input error, instead of its
    usage block, and exits 1."""

    def error(self, message: str):
        self.exit(1, f"crown: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="crown",
        description="Citation-impact indicators and their diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a corpus and print a summary")
    _add_corpus_flags(ingest)
    _add_output_flags(ingest)
    ingest.set_defaults(handler=_cmd_ingest)

    baselines = sub.add_parser("baselines", help="export the (category, year) baseline table")
    _add_corpus_flags(baselines)
    _add_output_flags(baselines)
    baselines.set_defaults(handler=_cmd_baselines)

    score = sub.add_parser("score", help="score a group file into an indicator report")
    _add_corpus_flags(score)
    score.add_argument("--group", required=True, type=_group_file,
                       help="group file, one paper id per line")
    _add_scoring_flags(score)
    _add_output_flags(score)
    score.set_defaults(handler=_cmd_score)

    synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    synth.add_argument(
        "--fields",
        required=True,
        type=_fields,
        help="comma-separated NAME:MEAN_REFS:PAPERS_PER_YEAR triplets",
    )
    synth.add_argument("--years", required=True, type=_years,
                       help="inclusive year range, e.g. 2000-2019")
    synth.add_argument("--seed", type=_number("seed", int), default=0,
                       help="RNG seed (default 0)")
    synth.add_argument("--cross-field", type=_number("cross-field", float), default=0.0,
                       metavar="F",
                       help="probability a reference targets another field (default 0)")
    synth.add_argument("--multi-cat", type=_number("multi-cat", float), default=0.0, metavar="F",
                       help="share of journals given 2-3 categories (default 0)")
    synth.add_argument("--skew", type=_number("skew", float), default=0.0, metavar="F",
                       help="share of references redirected to the most-cited decile (default 0)")
    synth.add_argument("--papers", required=True, type=_echoed_path,
                       help="output path for papers.jsonl")
    synth.add_argument("--journals", required=True, type=_echoed_path,
                       help="output path for journals.csv")
    synth.set_defaults(handler=_cmd_synth)

    diagnose = sub.add_parser("diagnose", help="run one of the indicator diagnostics")
    diag = diagnose.add_subparsers(dest="diagnostic", required=True)

    consistency = diag.add_parser(
        "consistency", help="search for ranking flips when both groups gain the same paper"
    )
    consistency.add_argument(
        "--indicator", choices=tuple(INDICATORS), default=RATIO_OF_SUMS
    )
    consistency.add_argument("--max-size", type=_number("max-size", int), default=2,
                             help="max group size (default 2)")
    consistency.add_argument("--max-c", type=_number("max-c", int), default=4,
                             help="max citation count (default 4)")
    consistency.add_argument("--max-e", type=_number("max-e", int), default=4,
                             help="max expected value (default 4)")
    _add_output_flags(consistency)
    consistency.set_defaults(handler=_cmd_consistency)

    indexer = diag.add_parser(
        "indexer", help="rescore a group under two category schemes and report the shifts"
    )
    _add_corpus_flags(indexer)
    indexer.add_argument("--group", required=True, type=_group_file,
                         help="group file, one paper id per line")
    indexer.add_argument(
        "--journals-b",
        default=None,
        type=_echoed_path,
        help="second category scheme (default: primary-category-only derivation of --journals)",
    )
    _add_scoring_flags(indexer)
    _add_output_flags(indexer)
    indexer.set_defaults(handler=_cmd_indexer)

    ranksum = diag.add_parser(
        "ranksum", help="Mann-Whitney rank-sum test between two groups' normalized scores"
    )
    _add_corpus_flags(ranksum)
    ranksum.add_argument("--group-a", required=True, type=_group_file, help="first group file")
    ranksum.add_argument("--group-b", required=True, type=_group_file, help="second group file")
    _add_scoring_flags(ranksum, top_x=False)
    _add_output_flags(ranksum)
    ranksum.set_defaults(handler=_cmd_ranksum)

    return parser


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--papers", required=True, type=_echoed_path, help="papers.jsonl path")
    parser.add_argument("--journals", required=True, type=_echoed_path,
                        help="journals.csv path")
    parser.add_argument("--window", type=_window, default="all",
                        help="citation window: all or yearsN (default all)")


def _add_scoring_flags(parser: argparse.ArgumentParser, top_x: bool = True) -> None:
    parser.add_argument(
        "--weighting",
        choices=[str(weighting) for weighting in Weighting],
        default=str(Weighting.HARMONIC),
        help="multi-category combination (default harmonic)",
    )
    if top_x:
        parser.add_argument("--top-x", type=_top_x, default=1.0, metavar="X",
                            help="top-x%% membership threshold, 0 < X < 100 (default 1.0)")


def _flag(check: Callable[[str], T]) -> Callable[[str], T]:
    """argparse ``type=`` that runs ``check`` while the flags are parsed;
    its ValueError, a ``CorpusError`` included, is the flag's error."""

    def parse(text: str) -> T:
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _number(
    name: str, convert: Callable[[str], T], check: Callable[[T], T] | None = None
) -> Callable[[str], T]:
    """argparse ``type=`` that reads one number with ``convert``, then, when
    given, runs ``check`` on it.

    Every number on the command line is written in ASCII, without ``_`` and
    without surrounding whitespace. ``int()`` and ``float()`` also read
    ``1_0``, non-ASCII digits and padded text, which a header would echo as a
    different spelling; those, and any text ``convert`` cannot read, are
    rejected as a bad ``name``, in words of the flag's own, not Python's."""

    def parse(text: str) -> T:
        try:
            if not text.isascii() or "_" in text or text != text.strip():
                raise ValueError
            number = convert(text)
        except ValueError:
            raise ValueError(
                f"bad {name} {text!r}: expected an ASCII number without '_' or spaces"
            ) from None
        return number if check is None else check(number)

    return _flag(parse)


# A path that a report header echoes, after its ``# key: ``.
_echoed_path = _flag(lambda path: check_echoed(path, "path", tab=False))
_window = _flag(CitationWindow.parse)


@_flag
def _group_file(path: str) -> str:
    """argparse ``type=`` for a group file: an echoed path whose stem names
    the group (``corpus.group_name``)."""
    group_name(path)
    return _echoed_path(path)


_top_x = _number("top-x", float, check_top_x)
_mean = _number("mean", float)
_per_year = _number("per-year count", int)
_year = _number("year", int)


@_flag
def _fields(text: str) -> tuple[str, tuple[FieldSpec, ...]]:
    """``--fields`` as its text, which the synth header echoes, and its
    fields, one ``FieldSpec`` per NAME:MEAN:PER_YEAR triplet, so that a bad
    or repeated name or a bad number is this flag's error."""
    from .synth import FieldSpec, unique_fields  # ``import crown.cli`` does not load synth

    specs = []
    for triplet in text.split(","):
        parts = triplet.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad field spec {triplet!r}: expected NAME:MEAN:PER_YEAR")
        specs.append(FieldSpec(parts[0], _mean(parts[1]), _per_year(parts[2])))
    return text, unique_fields(specs)


def _years(text: str) -> tuple[str, tuple[int, int]]:
    """``--years`` as its text, which the synth header echoes, and its
    inclusive range: ``A-B``, or ``A`` for one year."""
    first, dash, last = text.partition("-")
    return text, (_year(first), _year(last if dash else first))


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--out", default=None, help="output path (default: standard output)")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors
        return 0 if exc.code == 0 else 1
    digests: dict[str, str] = {}
    code = 0
    with warnings.catch_warnings():
        # Each distinct library warning is one stderr line, printed once.
        warnings.simplefilter("always")
        shown: set[str] = set()
        warnings.showwarning = lambda message, *_: _warn_once(str(message), shown)
        try:
            _check_out(args)
            # The corpus lives for the whole run and holds no cycles.
            with collector_paused():
                try:
                    report = args.handler(args, digests)
                except DegenerateGroupError as exc:
                    print(f"crown: degenerate: {exc}", file=sys.stderr)
                    report, code = _coverage_report(args, digests, exc), 2
                text = report.render(getattr(args, "format", "tsv"))
                out = getattr(args, "out", None)
                if out is None:
                    sys.stdout.write(text)
                else:
                    Path(out).write_bytes(text.encode("utf-8"))
        except (ValueError, OSError) as exc:  # a CorpusError is a ValueError
            print(f"crown: error: {exc}", file=sys.stderr)
            return 1
    return code


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an ``--out`` that resolves to an input file, which writing the
    report would overwrite, before anything is read."""
    out = getattr(args, "out", None)
    if out is None:
        return
    for key in (*_INPUTS, "journals_b"):
        path = getattr(args, key, None)
        if path is not None and Path(path).resolve() == Path(out).resolve():
            flag = key.replace("_", "-")
            raise ValueError(f"--out and --{flag} are the same file {out!r}")


def _warn_once(message: str, shown: set[str]) -> None:
    if message not in shown:
        shown.add(message)
        print(f"crown: warning: {message}", file=sys.stderr)


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


def _cmd_ingest(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    corpus = _load(args, digests)
    years = [paper.year for paper in corpus.papers.values()]
    rows = [
        ("papers", len(corpus.papers)),
        ("journals", len(corpus.journals)),
        ("citation_edges", corpus.n_edges),
        ("external_references", corpus.n_external),
        ("year_min", min(years)),
        ("year_max", max(years)),
    ]
    return Report(
        "ingest", _settings(args, digests), ("metric", "value"), rows,
        body={"summary": dict(rows)},
    )


def _cmd_baselines(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    corpus = _load(args, digests)
    columns = ("category", "year", "n", "mean_citations")
    rows = [
        (cell.category, cell.year, cell.n, cell.mean_citations)
        for _, cell in sorted(compute_baselines(corpus).cells.items())
    ]
    return Report(
        "baselines", _settings(args, digests), columns, rows,
        body={"baselines": _records(columns, rows)},
    )


def _cmd_score(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    corpus = _load(args, digests)
    group = GroupSelection.read(args.group, corpus, digests)
    report = score_group(corpus, group, Weighting(args.weighting), top_x=args.top_x)
    statistics = report.statistics
    row = (*(getattr(report, column) for column in _COVERAGE), *statistics.values())
    return Report(
        "score", _settings(args, digests), (*_COVERAGE, *statistics), [row],
        _unscorable_notes(report.unscorable),
        {"report": report.payload()},
    )


def _cmd_synth(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    from .synth import SynthConfig, generate_corpus

    (fields_text, fields), (years_text, years) = args.fields, args.years
    if Path(args.papers).resolve() == Path(args.journals).resolve():
        raise ValueError(f"--papers and --journals are the same file {args.journals!r}")
    config = SynthConfig(
        fields=fields,
        years=years,
        cross_field_fraction=args.cross_field,
        multi_category_journal_fraction=args.multi_cat,
        skew_fraction=args.skew,
        seed=args.seed,
    )
    with _output_files(args.papers, args.journals) as (papers, journals):
        written, journals_bytes = generate_corpus(config, papers.write)
        journals.write(journals_bytes)
    return Report(
        "synth",
        (
            ("fields", fields_text),
            ("years", years_text),
            ("cross_field", _fmt(args.cross_field)),
            ("multi_cat", _fmt(args.multi_cat)),
            ("skew", _fmt(args.skew)),
            ("seed", str(args.seed)),
            ("papers", f"{args.papers} sha256={written.sha256}"),
            ("journals", f"{args.journals} sha256={hashlib.sha256(journals_bytes).hexdigest()}"),
        ),
    )


@contextlib.contextmanager
def _output_files(*paths: str) -> Iterator[list[BinaryIO]]:
    """Binary files at ``paths``, each open for writing before the body runs.

    A file that exists is truncated only once every path has opened. When a
    path cannot be opened, or the body fails, the files this call created
    are removed, so a failed run leaves no partial output behind."""
    created = [path for path in paths if not os.path.lexists(path)]
    try:
        with contextlib.ExitStack() as stack:
            # append mode opens without truncating
            files = [stack.enter_context(open(path, "ab")) for path in paths]
            for file in files:
                file.truncate(0)
            yield files
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


def _cmd_consistency(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    bounds = SearchBounds(args.max_size, args.max_c, args.max_e)
    found = consistency_counterexample(args.indicator, bounds)
    columns = ("found", "group_a", "group_b", "added_paper",
               "before_a", "before_b", "after_a", "after_b")
    if found is None:
        row = (False, None, None, None, None, None, None, None)
    else:
        row = (True, _pairs_text(found.group_a), _pairs_text(found.group_b),
               _pairs_text([found.added_paper]), found.before_a, found.before_b,
               found.after_a, found.after_b)
    return Report(
        "diagnose consistency",
        (
            ("indicator", args.indicator),
            ("max_size", str(args.max_size)),
            ("max_c", str(args.max_c)),
            ("max_e", str(args.max_e)),
            ("instances", str(bounds.instance_count())),
        ),
        columns,
        [row],
        body={"counterexample": None if found is None else found._asdict()},
    )


def _cmd_indexer(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    corpus = _load(args, digests)
    group = GroupSelection.read(args.group, corpus, digests)
    if args.journals_b is None:
        scheme_b = primary_only_scheme(list(corpus.journals.values()))
    else:
        scheme_b, digests[args.journals_b] = read_hashed(args.journals_b, parse_journals)
    report = indexer_sensitivity(
        corpus, group, scheme_b, Weighting(args.weighting), top_x=args.top_x
    )
    columns = ("paper_id", "ncs_a", "ncs_b", "delta",
               "percentile_a", "percentile_b", "fractional_delta")
    rows = [
        (paper.paper_id, paper.ncs_a, paper.ncs_b, paper.ncs_delta,
         paper.percentile_a, paper.percentile_b, paper.fractional_delta)
        for paper in report.papers
    ]
    deltas = report.group_deltas
    sensitivity = {
        "group": report.group,
        "weighting": report.weighting,
        "papers": _records(columns, rows),
        "report_a": report.report_a.payload(),
        "report_b": report.report_b.payload(),
        "group_deltas": deltas,
    }
    return Report(
        "diagnose indexer", _settings(args, digests), columns, rows,
        [f"group_delta {name}: {_fmt(delta)}" for name, delta in deltas.items()],
        {"sensitivity": sensitivity},
    )


def _cmd_ranksum(args: argparse.Namespace, digests: dict[str, str]) -> Report:
    corpus = _load(args, digests)
    weighting = Weighting(args.weighting)
    group_a, group_b = (
        GroupSelection.read(path, corpus, digests) for path in (args.group_a, args.group_b)
    )
    # One score pass over the union, listed so each group can fold its own
    # papers from it, in the ascending id order a pass of its own gives them.
    union = list(
        score_papers(corpus, dict.fromkeys(group_a.paper_ids + group_b.paper_ids), weighting)
    )
    samples = []
    for group in (group_a, group_b):
        members = set(group.paper_ids)
        folded = scorable_papers(group.name, (p for p in union if p.paper_id in members))
        samples.append(folded.ncs)
    if sum(map(len, samples)) < 3:
        # scorable_papers found one scorable paper in each group; the
        # coverage row is that of group B, the last one scored.
        raise DegenerateGroupError(
            f"groups {group_a.name!r} and {group_b.name!r}: one scorable paper each, "
            "fewer than the 3 observations a rank-sum test needs",
            group=group_b.name,
            n_total=folded.n_total,
            unscorable=folded.unscorable,
            n_scorable=len(folded.ncs),
        )
    result = rank_sum_test(*samples)
    columns = ("n_a", "n_b", "u_statistic", "z", "p_two_sided", "degenerate")
    row = (result.n_a, result.n_b, result.u_statistic, result.z,
           result.p_two_sided, result.degenerate)
    return Report(
        "diagnose ranksum", _settings(args, digests), columns, [row],
        body={"ranksum": dict(zip(columns, row))},
    )


def _coverage_report(
    args: argparse.Namespace, digests: dict[str, str], exc: DegenerateGroupError
) -> Report:
    """Coverage report for a run that had nothing to compute on."""
    command = " ".join(filter(None, (args.command, getattr(args, "diagnostic", None))))
    row = tuple(getattr(exc, column) for column in _COVERAGE)
    coverage = dict(zip(_COVERAGE, row))
    coverage["unscorable"] = [list(item) for item in exc.unscorable]
    return Report(
        command, _settings(args, digests), _COVERAGE, [row],
        [f"degenerate: {exc}", *_unscorable_notes(exc.unscorable)],
        {"degenerate": str(exc), "coverage": coverage},
    )


def _settings(
    args: argparse.Namespace, digests: dict[str, str]
) -> tuple[tuple[str, str], ...]:
    """Header settings of a corpus run in one fixed order; each key appears
    only when the subcommand has that flag."""
    flags = vars(args)
    settings = [
        (key, _input(flags[key], digests))
        for key in _INPUTS
        if key in flags
    ]
    if "weighting" in flags:
        settings.append(("weighting", args.weighting))
    settings.append(("window", str(args.window)))
    if "top_x" in flags:
        settings.append(("top_x", _fmt(args.top_x)))
    if "journals_b" in flags:
        if args.journals_b is None:
            settings.append(("scheme_b", "primary-only derivation of --journals"))
        else:
            settings.append(("scheme_b", _input(args.journals_b, digests)))
    return tuple(settings)


def _input(path: str, digests: dict[str, str]) -> str:
    """Header value of an input file: its path and the digest of its bytes."""
    return f"{path} sha256={digests[path]}"


def _unscorable_notes(unscorable: Iterable[tuple[str, str]]) -> list[str]:
    return [f"unscorable: {paper_id}\t{reason}" for paper_id, reason in unscorable]


def _records(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


def _load(args: argparse.Namespace, digests: dict[str, str]) -> Corpus:
    return load_corpus(args.papers, args.journals, args.window, digests)


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pairs_text(pairs: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{citations}:{expected}" for citations, expected in pairs)
