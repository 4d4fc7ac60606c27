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

All report-producing subcommands take ``--format tsv|json`` and ``--out PATH``.
Every report starts with the full effective configuration, including a SHA-256
content hash of each input file, taken from the single read that was parsed,
so a result is always traceable to its exact inputs; identical inputs and
flags produce byte-identical output. Exit codes: 0 success, 1 input error, 2
computation degeneracy (for example a group whose every paper is unscorable,
which still emits a coverage report).

Group files list one paper id per line; blank lines and ``#`` comments are
ignored; the group is named after the file stem.

The score report TSV carries the columns group, n_total, n_scorable,
cpp_fcsm, mncs, mdncs, pp_top1, mean_fractional after the ``#`` header block,
followed by one ``# unscorable:`` line per excluded paper; the JSON format
nests the same report under ``report`` next to ``config``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .baselines import Weighting, compute_baselines
from .corpus import (
    CitationWindow,
    Corpus,
    CorpusError,
    load_corpus,
    parse_journals,
    read_hashed,
)
from .diagnostics import (
    MEAN_OF_RATIOS,
    RATIO_OF_SUMS,
    Counterexample,
    SearchBounds,
    SensitivityReport,
    consistency_counterexample,
    indexer_sensitivity,
    primary_only_scheme,
    rank_sum_test,
)
from .indicators import (
    DegenerateGroupError,
    GroupSelection,
    score_group,
    score_papers,
)

SCORE_COLUMNS = (
    "group",
    "n_total",
    "n_scorable",
    "cpp_fcsm",
    "mncs",
    "mdncs",
    "pp_top1",
    "mean_fractional",
)


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one run, echoed into every report header."""

    command: str
    settings: tuple[tuple[str, str], ...]

    def header_lines(self) -> list[str]:
        lines = [f"# crown {self.command}"]
        lines.extend(f"# {key}: {value}" for key, value in self.settings)
        return lines

    def as_dict(self) -> dict:
        return {"command": self.command, "settings": dict(self.settings)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crown",
        description="Citation-impact indicators and their diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a corpus and print a summary")
    _add_corpus_flags(ingest)
    _add_output_flags(ingest)

    baselines = sub.add_parser("baselines", help="export the (category, year) baseline table")
    _add_corpus_flags(baselines)
    _add_output_flags(baselines)

    score = sub.add_parser("score", help="score a group file into an indicator report")
    _add_corpus_flags(score)
    score.add_argument("--group", required=True, help="group file, one paper id per line")
    _add_scoring_flags(score)
    _add_output_flags(score)

    synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    synth.add_argument(
        "--fields",
        required=True,
        help="comma-separated NAME:MEAN_REFS:PAPERS_PER_YEAR triplets",
    )
    synth.add_argument("--years", required=True, help="inclusive year range, e.g. 2000-2019")
    synth.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    synth.add_argument("--cross-field", type=float, default=0.0, metavar="F",
                       help="probability a reference targets another field (default 0)")
    synth.add_argument("--multi-cat", type=float, default=0.0, metavar="F",
                       help="share of journals given 2-3 categories (default 0)")
    synth.add_argument("--skew", type=float, default=0.0, metavar="F",
                       help="share of references redirected to the most-cited decile (default 0)")
    synth.add_argument("--papers", required=True, help="output path for papers.jsonl")
    synth.add_argument("--journals", required=True, help="output path for journals.csv")

    diagnose = sub.add_parser("diagnose", help="run one of the indicator diagnostics")
    diag = diagnose.add_subparsers(dest="diagnostic", required=True)

    consistency = diag.add_parser(
        "consistency", help="search for ranking flips when both groups gain the same paper"
    )
    consistency.add_argument(
        "--indicator", choices=(RATIO_OF_SUMS, MEAN_OF_RATIOS), default=RATIO_OF_SUMS
    )
    consistency.add_argument("--max-size", type=int, default=2, help="max group size (default 2)")
    consistency.add_argument("--max-c", type=int, default=4, help="max citation count (default 4)")
    consistency.add_argument("--max-e", type=int, default=4, help="max expected value (default 4)")
    _add_output_flags(consistency)

    indexer = diag.add_parser(
        "indexer", help="rescore a group under two category schemes and report the shifts"
    )
    _add_corpus_flags(indexer)
    indexer.add_argument("--group", required=True, help="group file, one paper id per line")
    indexer.add_argument(
        "--journals-b",
        default=None,
        help="second category scheme (default: primary-category-only derivation of --journals)",
    )
    _add_scoring_flags(indexer)
    _add_output_flags(indexer)

    ranksum = diag.add_parser(
        "ranksum", help="Mann-Whitney rank-sum test between two groups' normalized scores"
    )
    _add_corpus_flags(ranksum)
    ranksum.add_argument("--group-a", required=True, help="first group file")
    ranksum.add_argument("--group-b", required=True, help="second group file")
    _add_scoring_flags(ranksum, top_x=False)
    _add_output_flags(ranksum)

    return parser


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--papers", required=True, help="papers.jsonl path")
    parser.add_argument("--journals", required=True, help="journals.csv path")
    parser.add_argument("--window", default="all", help="citation window: all or yearsN (default all)")


def _add_scoring_flags(parser: argparse.ArgumentParser, top_x: bool = True) -> None:
    parser.add_argument(
        "--weighting",
        choices=("arithmetic", "harmonic"),
        default="harmonic",
        help="multi-category combination (default harmonic)",
    )
    if top_x:
        parser.add_argument("--top-x", type=float, default=1.0, metavar="X",
                            help="top-x%% membership threshold (default 1.0)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--out", default=None, help="output path (default: standard output)")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors
        return 0 if exc.code == 0 else 1
    handler = {
        "ingest": _cmd_ingest,
        "baselines": _cmd_baselines,
        "score": _cmd_score,
        "synth": _cmd_synth,
        "diagnose": _cmd_diagnose,
    }[args.command]
    try:
        return handler(args)
    except DegenerateGroupError as exc:
        _emit_degenerate(args, exc)
        return 2
    except (CorpusError, ValueError, OSError) as exc:
        print(f"crown: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


def _cmd_ingest(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    corpus = _load(args, digests)
    config = _corpus_config("ingest", args, digests)
    years = [paper.year for paper in corpus.papers.values()]
    external = sum(
        1
        for paper in corpus.papers.values()
        for ref in paper.references
        if ref not in corpus.papers
    )
    metrics = [
        ("papers", len(corpus.papers)),
        ("journals", len(corpus.journals)),
        ("citation_edges", corpus.n_edges),
        ("external_references", external),
        ("year_min", min(years)),
        ("year_max", max(years)),
    ]
    if args.format == "json":
        _emit(_json_payload(config, {"summary": dict(metrics)}), args.out)
    else:
        lines = config.header_lines() + ["metric\tvalue"]
        lines.extend(f"{key}\t{value}" for key, value in metrics)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    corpus = _load(args, digests)
    table = compute_baselines(corpus)
    config = _corpus_config("baselines", args, digests)
    if args.format == "json":
        cells = [
            {
                "category": cell.category,
                "year": cell.year,
                "n": cell.n,
                "mean_citations": cell.mean_citations,
            }
            for key, cell in sorted(table.cells.items())
        ]
        _emit(_json_payload(config, {"baselines": cells}), args.out)
    else:
        text = "\n".join(config.header_lines()) + "\n" + table.to_tsv()
        _emit(text, args.out)
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    corpus = _load(args, digests)
    table = compute_baselines(corpus)
    group = _read_group(args.group, corpus, digests)
    report = score_group(
        corpus, table, group, Weighting(args.weighting), top_x=args.top_x
    )
    config = RunConfig("score", _score_settings(args, digests))
    if args.format == "json":
        _emit(_json_payload(config, {"report": json.loads(report.to_json())}), args.out)
    else:
        row = [
            report.group,
            str(report.n_total),
            str(report.n_scorable),
            _fmt(report.cpp_fcsm),
            _fmt(report.mncs),
            _fmt(report.mdncs),
            _fmt(report.pp_top1),
            _fmt(report.mean_fractional),
        ]
        lines = config.header_lines()
        lines.append("\t".join(SCORE_COLUMNS))
        lines.append("\t".join(row))
        lines.extend(
            f"# unscorable: {paper_id}\t{reason}"
            for paper_id, reason in report.unscorable
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import FieldSpec, SynthConfig, generate_corpus

    fields = []
    for triplet in args.fields.split(","):
        parts = triplet.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad field spec {triplet!r}: expected NAME:MEAN:PER_YEAR")
        fields.append(FieldSpec(parts[0], float(parts[1]), int(parts[2])))
    years = _parse_years(args.years)
    config = SynthConfig(
        fields=tuple(fields),
        years=years,
        cross_field_fraction=args.cross_field,
        multi_category_journal_fraction=args.multi_cat,
        skew_fraction=args.skew,
        seed=args.seed,
    )
    papers_bytes, journals_bytes = generate_corpus(config)
    Path(args.papers).write_bytes(papers_bytes)
    Path(args.journals).write_bytes(journals_bytes)
    run_config = RunConfig(
        "synth",
        (
            ("fields", args.fields),
            ("years", args.years),
            ("cross_field", _fmt(args.cross_field)),
            ("multi_cat", _fmt(args.multi_cat)),
            ("skew", _fmt(args.skew)),
            ("seed", str(args.seed)),
            ("papers", f"{args.papers} sha256={_sha256_bytes(papers_bytes)}"),
            ("journals", f"{args.journals} sha256={_sha256_bytes(journals_bytes)}"),
        ),
    )
    sys.stdout.write("\n".join(run_config.header_lines()) + "\n")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    return {
        "consistency": _cmd_consistency,
        "indexer": _cmd_indexer,
        "ranksum": _cmd_ranksum,
    }[args.diagnostic](args)


def _cmd_consistency(args: argparse.Namespace) -> int:
    bounds = SearchBounds(args.max_size, args.max_c, args.max_e)
    found = consistency_counterexample(args.indicator, bounds)
    config = RunConfig(
        "diagnose consistency",
        (
            ("indicator", args.indicator),
            ("max_size", str(args.max_size)),
            ("max_c", str(args.max_c)),
            ("max_e", str(args.max_e)),
            ("instances", str(bounds.instance_count())),
        ),
    )
    if args.format == "json":
        payload = {"counterexample": _counterexample_dict(found)}
        _emit(_json_payload(config, payload), args.out)
    else:
        lines = config.header_lines()
        lines.append(
            "found\tgroup_a\tgroup_b\tadded_paper\tbefore_a\tbefore_b\tafter_a\tafter_b"
        )
        if found is None:
            lines.append("false\tNA\tNA\tNA\tNA\tNA\tNA\tNA")
        else:
            lines.append(
                "\t".join(
                    (
                        "true",
                        _pairs_text(found.group_a),
                        _pairs_text(found.group_b),
                        _pairs_text([found.added_paper]),
                        _fmt(found.before_a),
                        _fmt(found.before_b),
                        _fmt(found.after_a),
                        _fmt(found.after_b),
                    )
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_indexer(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    corpus = _load(args, digests)
    group = _read_group(args.group, corpus, digests)
    scheme_a = list(corpus.journals.values())
    if args.journals_b is None:
        scheme_b = primary_only_scheme(scheme_a)
        scheme_b_label = "primary-only derivation of --journals"
    else:
        scheme_b, digest = read_hashed(args.journals_b, parse_journals, newline="")
        scheme_b_label = f"{args.journals_b} sha256={digest}"
    report = indexer_sensitivity(
        corpus, group, scheme_a, scheme_b, Weighting(args.weighting), top_x=args.top_x
    )
    config = RunConfig(
        "diagnose indexer",
        _score_settings(args, digests) + (("scheme_b", scheme_b_label),),
    )
    if args.format == "json":
        _emit(_json_payload(config, {"sensitivity": _sensitivity_dict(report)}), args.out)
    else:
        lines = config.header_lines()
        lines.append(
            "paper_id\tncs_a\tncs_b\tdelta\tpercentile_a\tpercentile_b\tfractional_delta"
        )
        for paper in report.papers:
            lines.append(
                "\t".join(
                    (
                        paper.paper_id,
                        _fmt(paper.ncs_a),
                        _fmt(paper.ncs_b),
                        _fmt(paper.ncs_delta),
                        _fmt(paper.percentile_a),
                        _fmt(paper.percentile_b),
                        _fmt(paper.fractional_delta),
                    )
                )
            )
        for name, delta in report.group_deltas.items():
            lines.append(f"# group_delta {name}: {_fmt(delta)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_ranksum(args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    corpus = _load(args, digests)
    table = compute_baselines(corpus)
    weighting = Weighting(args.weighting)
    samples = {}
    for label, path in (("a", args.group_a), ("b", args.group_b)):
        group = _read_group(path, corpus, digests)
        scored = score_papers(corpus, table, group.paper_ids, weighting)
        values = [paper.ncs for paper in scored if paper.scorable]
        if not values:
            raise DegenerateGroupError(
                f"group {group.name!r}: no scorable papers",
                group=group.name,
                n_total=len(scored),
                unscorable=tuple(
                    (p.paper_id, p.unscorable_reason or "unscorable")
                    for p in scored
                    if not p.scorable
                ),
            )
        samples[label] = values
    result = rank_sum_test(samples["a"], samples["b"])
    config = RunConfig(
        "diagnose ranksum",
        (
            ("papers", _input(args.papers, digests)),
            ("journals", _input(args.journals, digests)),
            ("group_a", _input(args.group_a, digests)),
            ("group_b", _input(args.group_b, digests)),
            ("weighting", args.weighting),
            ("window", str(CitationWindow.parse(args.window))),
        ),
    )
    if args.format == "json":
        payload = {
            "ranksum": {
                "u_statistic": result.u_statistic,
                "z": result.z,
                "p_two_sided": result.p_two_sided,
                "n_a": result.n_a,
                "n_b": result.n_b,
                "degenerate": result.degenerate,
            }
        }
        _emit(_json_payload(config, payload), args.out)
    else:
        lines = config.header_lines()
        lines.append("n_a\tn_b\tu_statistic\tz\tp_two_sided\tdegenerate")
        lines.append(
            "\t".join(
                (
                    str(result.n_a),
                    str(result.n_b),
                    _fmt(result.u_statistic),
                    _fmt(result.z),
                    _fmt(result.p_two_sided),
                    "true" if result.degenerate else "false",
                )
            )
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load(args: argparse.Namespace, digests: dict[str, str]) -> Corpus:
    window = CitationWindow.parse(args.window)
    return load_corpus(args.papers, args.journals, window, digests)


def _read_group(path: str, corpus: Corpus, digests: dict[str, str]) -> GroupSelection:
    ids, digest = read_hashed(path, _group_ids)
    digests[path] = digest
    return GroupSelection.resolve(Path(path).stem, ids, corpus)


def _group_ids(handle: Iterable[str]) -> list[str]:
    ids = []
    for raw_line in handle:
        line = raw_line.strip()
        if line and not line.startswith("#"):
            ids.append(line)
    return ids


def _input(path: str, digests: dict[str, str]) -> str:
    """Header value of an input file: its path and the digest of its bytes."""
    return f"{path} sha256={digests[path]}"


def _corpus_config(
    command: str, args: argparse.Namespace, digests: dict[str, str]
) -> RunConfig:
    return RunConfig(
        command,
        (
            ("papers", _input(args.papers, digests)),
            ("journals", _input(args.journals, digests)),
            ("window", str(CitationWindow.parse(args.window))),
        ),
    )


def _score_settings(
    args: argparse.Namespace, digests: dict[str, str]
) -> tuple[tuple[str, str], ...]:
    return (
        ("papers", _input(args.papers, digests)),
        ("journals", _input(args.journals, digests)),
        ("group", _input(args.group, digests)),
        ("weighting", args.weighting),
        ("window", str(CitationWindow.parse(args.window))),
        ("top_x", _fmt(args.top_x)),
    )


def _emit_degenerate(args: argparse.Namespace, exc: DegenerateGroupError) -> None:
    """Coverage report for a run that had nothing to compute on."""
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "tsv")
    coverage = {
        "group": exc.group,
        "n_total": exc.n_total,
        "n_scorable": 0,
        "unscorable": [list(item) for item in exc.unscorable],
    }
    if fmt == "json":
        payload = {"degenerate": str(exc), "coverage": coverage}
        _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", out)
    else:
        lines = [
            f"# crown {args.command}: degenerate: {exc}",
            "group\tn_total\tn_scorable",
            f"{exc.group}\t{exc.n_total}\t0",
        ]
        lines.extend(
            f"# unscorable: {paper_id}\t{reason}" for paper_id, reason in exc.unscorable
        )
        _emit("\n".join(lines) + "\n", out)
    print(f"crown: degenerate: {exc}", file=sys.stderr)


def _counterexample_dict(found: Counterexample | None) -> dict | None:
    if found is None:
        return None
    return {
        "indicator": found.indicator,
        "group_a": [list(pair) for pair in found.group_a],
        "group_b": [list(pair) for pair in found.group_b],
        "added_paper": list(found.added_paper),
        "before_a": found.before_a,
        "before_b": found.before_b,
        "after_a": found.after_a,
        "after_b": found.after_b,
    }


def _sensitivity_dict(report: SensitivityReport) -> dict:
    return {
        "group": report.group,
        "weighting": report.weighting,
        "papers": [
            {
                "paper_id": paper.paper_id,
                "ncs_a": paper.ncs_a,
                "ncs_b": paper.ncs_b,
                "delta": paper.ncs_delta,
                "percentile_a": paper.percentile_a,
                "percentile_b": paper.percentile_b,
                "fractional_delta": paper.fractional_delta,
            }
            for paper in report.papers
        ],
        "report_a": json.loads(report.report_a.to_json()),
        "report_b": json.loads(report.report_b.to_json()),
        "group_deltas": report.group_deltas,
    }


def _json_payload(config: RunConfig, payload: dict) -> str:
    body = {"config": config.as_dict(), **payload}
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pairs_text(pairs: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{citations}:{expected}" for citations, expected in pairs)


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse_years(text: str) -> tuple[int, int]:
    if "-" in text:
        first, _, last = text.partition("-")
        return int(first), int(last)
    year = int(text)
    return year, year
