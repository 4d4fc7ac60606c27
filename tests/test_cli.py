from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown import cli, indicators
from crown.baselines import Weighting, compute_baselines
from crown.cli import main
from crown.corpus import CitationWindow, GroupSelection, listed_id, load_corpus
from crown.diagnostics import rank_sum_test
from crown.indicators import score_papers

from conftest import CARDIOLOGY_JOURNALS_CSV, LINE_BREAKS

SYNTH_ARGS = [
    "synth",
    "--fields", "math:6:20,biomed:40:20",
    "--years", "2000-2009",
    "--seed", "42",
    "--cross-field", "0.1",
    "--multi-cat", "1.0",
]


def _synth(tmp_path: Path, seed: str = "42") -> tuple[Path, Path]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    papers = tmp_path / "papers.jsonl"
    journals = tmp_path / "journals.csv"
    args = SYNTH_ARGS + ["--papers", str(papers), "--journals", str(journals)]
    args[args.index("--seed") + 1] = seed
    assert main(args) == 0
    return papers, journals


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _group_file(tmp_path: Path, papers: Path, count: int = 15) -> Path:
    ids = [json.loads(line)["id"] for line in papers.read_text().splitlines()[:count]]
    group = tmp_path / "g.txt"
    group.write_text("# demo group\n\n" + "\n".join(ids) + "\n", encoding="utf-8")
    return group


def test_synth_is_byte_stable(tmp_path, capsys) -> None:
    papers_1, journals_1 = _synth(tmp_path / "one")
    papers_2, journals_2 = _synth(tmp_path / "two")
    assert papers_1.read_bytes() == papers_2.read_bytes()
    assert journals_1.read_bytes() == journals_2.read_bytes()
    header = capsys.readouterr().out
    assert "# seed: 42" in header
    assert "sha256=" in header


def test_synth_seed_changes_output(tmp_path) -> None:
    papers_1, _ = _synth(tmp_path / "one", seed="42")
    papers_2, _ = _synth(tmp_path / "two", seed="43")
    assert papers_1.read_bytes() != papers_2.read_bytes()


@pytest.fixture
def demo(tmp_path):
    papers, journals = _synth(tmp_path / "one")
    group = _group_file(tmp_path, papers)
    return papers, journals, group


def test_score_happy_path_tsv(demo, capsys) -> None:
    papers, journals, group = demo
    code = main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--weighting", "harmonic"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "group\tn_total\tn_scorable\tcpp_fcsm\tmncs\tmdncs\tpp_top1\tmean_fractional"
    row = lines[1].split("\t")
    assert row[0] == "g"
    assert row[1] == "15"
    float(row[3]), float(row[4]), float(row[5])  # parseable numbers
    # effective configuration is echoed, no hidden defaults
    assert "# weighting: harmonic" in out
    assert "# window: all" in out
    assert "# top_x: 1.0" in out
    # each header hash is of the exact bytes that were parsed
    assert f"# papers: {papers} sha256={_sha256(papers)}" in out
    assert f"# journals: {journals} sha256={_sha256(journals)}" in out
    assert f"# group: {group} sha256={_sha256(group)}" in out


def test_score_runs_are_byte_identical(demo, tmp_path) -> None:
    papers, journals, group = demo
    out_1 = tmp_path / "r1.tsv"
    out_2 = tmp_path / "r2.tsv"
    for out in (out_1, out_2):
        assert main(
            ["score", "--papers", str(papers), "--journals", str(journals),
             "--group", str(group), "--out", str(out)]
        ) == 0
    assert out_1.read_bytes() == out_2.read_bytes()


def test_score_json_format(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["command"] == "score"
    assert payload["report"]["n_total"] == 15
    assert payload["report"]["weighting"] == "harmonic"
    assert "sha256=" in payload["config"]["settings"]["papers"]


def test_score_exit_two_with_coverage_when_group_unscorable(tmp_path, capsys) -> None:
    papers = tmp_path / "p.jsonl"
    journals = tmp_path / "j.csv"
    group = tmp_path / "g.txt"
    # a lone cell with zero citations everywhere: nothing is scorable
    papers.write_text(
        '{"id":"p1","year":2005,"journal":"ajc","references":[]}\n'
        '{"id":"p2","year":2005,"journal":"ajc","references":[]}\n',
        encoding="utf-8",
    )
    journals.write_text(CARDIOLOGY_JOURNALS_CSV, encoding="utf-8")
    group.write_text("p1\np2\n", encoding="utf-8")
    code = main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "degenerate" in captured.err
    assert "g\t2\t0" in captured.out
    assert "# unscorable: p1" in captured.out


def test_score_exit_two_with_coverage_when_no_paper_has_citing_side_data(
    tmp_path, capsys
) -> None:
    papers = tmp_path / "p.jsonl"
    journals = tmp_path / "j.csv"
    group = tmp_path / "g.txt"
    # both papers are scorable in a non-zero cell, but carry citation overrides
    papers.write_text(
        '{"id":"p1","year":2005,"journal":"ajc","references":[],"citations":3}\n'
        '{"id":"p2","year":2005,"journal":"ajc","references":[],"citations":1}\n',
        encoding="utf-8",
    )
    journals.write_text(CARDIOLOGY_JOURNALS_CSV, encoding="utf-8")
    group.write_text("p1\np2\n", encoding="utf-8")
    argv = ["score", "--papers", str(papers), "--journals", str(journals),
            "--group", str(group)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "crown: warning: group 'g': 2 paper(s) with citation overrides excluded "
        "from fractional counting\n"
        "crown: degenerate: group 'g': no papers with citing-side reference data\n"
    )
    assert captured.out.splitlines()[-3:] == [
        "group\tn_total\tn_scorable",
        "g\t2\t2",
        "# degenerate: group 'g': no papers with citing-side reference data",
    ]
    assert main([*argv, "--format", "json"]) == 2
    out = capsys.readouterr().out
    assert '"n_scorable":2' in out
    assert json.loads(out)["coverage"] == {
        "group": "g", "n_total": 2, "n_scorable": 2, "unscorable": [],
    }


def test_missing_file_is_input_error(tmp_path, capsys) -> None:
    code = main(
        ["score", "--papers", str(tmp_path / "absent.jsonl"),
         "--journals", str(tmp_path / "absent.csv"), "--group", str(tmp_path / "g")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_group_member_is_input_error(demo, tmp_path, capsys) -> None:
    papers, journals, _ = demo
    bad_group = tmp_path / "bad.txt"
    bad_group.write_text("ghost-paper\n", encoding="utf-8")
    code = main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(bad_group)]
    )
    assert code == 1
    assert "unknown paper" in capsys.readouterr().err


def test_a_reference_list_past_the_exact_bound_is_input_error(
    tmp_path, capsys, monkeypatch
) -> None:
    import crown.corpus

    monkeypatch.setattr(crown.corpus, "MAX_REFERENCES", 1)
    papers, journals, group = tmp_path / "p.jsonl", tmp_path / "j.csv", tmp_path / "g.txt"
    papers.write_text(
        '{"id":"p1","year":2005,"journal":"ajc","references":["x"]}\n'
        '{"id":"p2","year":2005,"journal":"ajc","references":["p1","x"]}\n',
        encoding="utf-8",
    )
    journals.write_text(CARDIOLOGY_JOURNALS_CSV, encoding="utf-8")
    group.write_text("p1\n", encoding="utf-8")
    code = main(["score", "--papers", str(papers), "--journals", str(journals),
                 "--group", str(group)])
    assert code == 1
    captured = capsys.readouterr()
    assert "line 2: paper 'p2' has 2 references, more than the 1" in captured.err
    assert captured.out == ""


def test_unknown_flag_is_nonzero(capsys) -> None:
    assert main(["score", "--nope"]) == 1


def test_bad_window_is_input_error(demo, capsys) -> None:
    papers, journals, group = demo
    code = main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--window", "fortnight"]
    )
    assert code == 1
    assert "bad window" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["years1_0", "years+5", "years 5", "years\u0663"])
def test_window_count_takes_ascii_digits_only(demo, capsys, window) -> None:
    papers, journals, group = demo
    argv = ["score", "--papers", str(papers), "--journals", str(journals),
            "--group", str(group)]
    assert main([*argv, "--window", window]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"crown: error: argument --window: bad window {window!r}: expected 'all' or 'yearsN'\n"
    )
    assert main([*argv, "--window", "years05"]) == 0
    assert "# window: years5\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["score"], ["diagnose", "indexer"]])
@pytest.mark.parametrize("x", ["nan", "0", "100", "-3", "inf"])
def test_bad_top_x_is_rejected_before_any_file_is_read(tmp_path, capsys, command, x) -> None:
    missing = str(tmp_path / "missing")
    argv = [*command, "--papers", missing, "--journals", missing, "--group", missing]
    assert main([*argv, "--top-x", x]) == 1
    err = capsys.readouterr().err
    assert f"argument --top-x: top-x share needs 0 < x < 100, got {float(x)}\n" in err
    assert "No such file" not in err


MISSING_CORPUS = ["--papers", "missing", "--journals", "missing", "--group", "missing"]
SYNTH_OUTPUTS = ["synth", "--fields", "a:3:2", "--years", "2000-2001",
                 "--papers", "missing", "--journals", "missing"]


# (argv before the flag, flag, the number's name in the message, the flag
# value with {} where the number goes)
@pytest.mark.parametrize("command", [
    (["score", *MISSING_CORPUS], "--top-x", "top-x", "{}"),
    (["diagnose", "indexer", *MISSING_CORPUS], "--top-x", "top-x", "{}"),
    (SYNTH_OUTPUTS, "--seed", "seed", "{}"),
    (SYNTH_OUTPUTS, "--cross-field", "cross-field", "{}"),
    (SYNTH_OUTPUTS, "--multi-cat", "multi-cat", "{}"),
    (SYNTH_OUTPUTS, "--skew", "skew", "{}"),
    (SYNTH_OUTPUTS, "--fields", "mean", "a:{}:2"),
    (SYNTH_OUTPUTS, "--fields", "per-year count", "a:3:{}"),
    (SYNTH_OUTPUTS, "--years", "year", "{}-2001"),
    (SYNTH_OUTPUTS, "--years", "year", "2000-{}"),
    (["diagnose", "consistency"], "--max-size", "max-size", "{}"),
    (["diagnose", "consistency"], "--max-c", "max-c", "{}"),
    (["diagnose", "consistency"], "--max-e", "max-e", "{}"),
])
@pytest.mark.parametrize("x", ["1_0", "\u0661\u0660", " 10", "10 ", "10\n"])
def test_top_x_takes_ascii_numbers_only(tmp_path, capsys, command, x) -> None:
    # int() and float() read each of these as 10: '1_0', Arabic-Indic '10',
    # and '10' with surrounding whitespace. Every numeric flag, and every
    # number inside --fields and --years, takes the --top-x spelling rule.
    prefix, flag, name, value = command
    argv = [str(tmp_path / arg) if arg == "missing" else arg for arg in prefix]
    assert main([*argv, flag, value.format(x)]) == 1
    err = capsys.readouterr().err
    assert err == (f"crown: error: argument {flag}: bad {name} {x!r}: "
                   "expected an ASCII number without '_' or spaces\n")
    assert not any(tmp_path.iterdir())  # nothing read, nothing written


@pytest.mark.parametrize("x, echoed", [("10", "10.0"), ("0.5", "0.5"), ("1e-1", "0.1")])
def test_top_x_reads_plain_numbers(demo, capsys, x, echoed) -> None:
    papers, journals, group = demo
    argv = ["score", "--papers", str(papers), "--journals", str(journals),
            "--group", str(group), "--top-x", x]
    assert main(argv) == 0
    assert f"# top_x: {echoed}\n" in capsys.readouterr().out


SCORE_MISSING = ["score", "--papers", "missing", "--journals", "missing"]
COMMENT_FAULT = "starts with '#', which marks a comment line"
NUMBER_FAULT = "expected an ASCII number without '_' or spaces\n"


@pytest.mark.parametrize("argv, message", [
    ([*SCORE_MISSING, "--group", "g", "--weighting", "bogus"],
     "argument --weighting: invalid choice: 'bogus'"),
    ([*SCORE_MISSING, "--group", "g", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (SCORE_MISSING, "the following arguments are required: --group"),
    ([*SCORE_MISSING, "--group", "g", "--nope"], "unrecognized arguments: --nope"),
    ([*SYNTH_OUTPUTS, "--fields", "a:3"],
     "argument --fields: bad field spec 'a:3': expected NAME:MEAN:PER_YEAR\n"),
    # the stem is the report's group column: a tab or line break would forge fields
    ([*SCORE_MISSING, "--group", "a\tb.txt"],
     "argument --group: group name 'a\\tb' holds a tab or a line break\n"),
    (["diagnose", "ranksum", "--papers", "missing", "--journals", "missing",
      "--group-a", "g", "--group-b", "x\ny.txt"],
     "argument --group-b: group name 'x\\ny' holds a tab or a line break\n"),
    ([*SCORE_MISSING, "--group", "g", "--out", "missing"],
     "--out and --papers are the same file "),
    # a group name leads its score row, which would then read as a comment
    ([*SCORE_MISSING, "--group", "#g.txt"],
     f"argument --group: group name '#g' {COMMENT_FAULT}\n"),
    # a year range with its last year left out
    ([*SYNTH_OUTPUTS, "--years", "2000-"], f"argument --years: bad year '': {NUMBER_FAULT}"),
    # a number int() or float() cannot read is worded like a misspelled one
    ([*SYNTH_OUTPUTS, "--seed", "abc"], f"argument --seed: bad seed 'abc': {NUMBER_FAULT}"),
    ([*SCORE_MISSING, "--group", "g", "--top-x", "abc"],
     f"argument --top-x: bad top-x 'abc': {NUMBER_FAULT}"),
    ([*SYNTH_OUTPUTS, "--fields", "a:x:2"], f"argument --fields: bad mean 'x': {NUMBER_FAULT}"),
], ids=["bad-choice", "bad-format", "missing-flag", "unknown-flag", "bad-field-spec",
        "tab-in-group-name", "line-break-in-group-name", "out-names-an-input",
        "leading-hash-in-group-name", "empty-year", "word-seed", "word-top-x",
        "word-in-fields"])
def test_rejected_flag_is_one_error_line(tmp_path, capsys, argv, message) -> None:
    argv = [str(tmp_path / arg) if arg == "missing" else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"crown: error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())  # nothing read, nothing written


@pytest.mark.parametrize("field, message", [
    (":3:2", "bad field name ''"),
    ("a|b:3:2", "bad field name 'a|b'"),
    ('a"b:3:2', "bad field name 'a\"b'"),
    ("#a:3:2", f"field name '#a' {COMMENT_FAULT}"),
    ("a\u2028b:3:2", "field name 'a\\u2028b' holds a tab or a line break"),
    ("a\udcffb:3:2", "field name 'a\\udcffb' holds a lone surrogate, which UTF-8 cannot encode"),
    ("a:0:2", "field 'a': mean references must be positive and finite"),
    ("a:701:2", "field 'a': mean references above 700"),
    ("a:3:0", "field 'a': papers per year must be >= 1"),
    ("ok:4:5", "field names must be unique"),
], ids=["empty-name", "pipe", "quote", "leading-hash", "u2028", "surrogate", "mean-0",
        "mean-701", "per-year-0", "repeated-name"])
def test_bad_field_is_a_fields_flag_error(tmp_path, capsys, field, message) -> None:
    # The bad field follows a good one; nothing is generated or written.
    argv = ["synth", "--fields", f"ok:3:2,{field}", "--years", "2000-2001",
            "--papers", str(tmp_path / "papers.jsonl"),
            "--journals", str(tmp_path / "journals.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: argument --fields: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--papers"),
    ("baselines", "--journals"),
    ("score", "--group"),
    ("diagnose indexer", "--journals-b"),
    ("diagnose ranksum", "--group-a"),
    ("diagnose ranksum", "--group-b"),
    ("synth", "--papers"),
    ("synth", "--journals"),
])
@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_line_break_in_an_echoed_path_is_rejected(tmp_path, capsys, command, flag,
                                                  line_break) -> None:
    # The header echoes each of these paths after '# key: '; a line break in
    # one would start a report line of its own. The bad path names a real
    # file, or a directory for a group, so only the check can refuse it.
    paths = _write_small_inputs(tmp_path)
    other = tmp_path / "other"
    other.write_bytes(b"p3\n")
    if command == "synth":
        inputs = {"--fields": "a:3:2", "--years": "2000-2001",
                  "--papers": tmp_path / "papers.out", "--journals": tmp_path / "journals.out"}
    else:
        inputs = {"--papers": paths["papers"], "--journals": paths["journals"]}
    if command in ("score", "diagnose indexer"):
        inputs["--group"] = paths["group"]
    if command == "diagnose indexer":
        inputs["--journals-b"] = paths["journals-b"]
    if command == "diagnose ranksum":
        inputs.update({"--group-a": paths["group"], "--group-b": other})
    bad = tmp_path / f"fake{line_break}row"
    if flag.startswith("--group"):
        bad.mkdir()
        bad = bad / "g.txt"
        bad.write_bytes(Path(inputs[flag]).read_bytes())
    elif command != "synth":
        bad.write_bytes(Path(inputs[flag]).read_bytes())
    inputs[flag] = bad
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv = [*command.split(), *(arg for pair in inputs.items() for arg in map(str, pair))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: argument {flag}: path {str(bad)!r} holds a line break\n"
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("site", ["paper-id", "category", "--group", "--group-a", "--group-b",
                                  "synth-field"])
@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_line_break_at_an_echo_site_is_rejected(tmp_path, capsys, site, line_break) -> None:
    # Each site is outside text that a report row echoes; without the line
    # break, every run below exits 0.
    paths = _write_small_inputs(tmp_path)
    corpus = ["--papers", str(paths["papers"]), "--journals", str(paths["journals"])]
    if site == "paper-id":
        paper_id = f"p{line_break}2"
        papers = paths["papers"].read_bytes()
        paths["papers"].write_bytes(papers.replace(b'"p2"', json.dumps(paper_id).encode(), 1))
        argv = ["ingest", *corpus]
        message = f"line 2: paper id {paper_id!r} holds a tab or a line break"
    elif site == "category":
        category = f"a{line_break}b"
        paths["journals"].write_bytes(
            f'id,title,categories\nj,J,"{category}"\nk,K,b\n'.encode("utf-8")
        )
        argv = ["baselines", *corpus]
        line_no = 3 if line_break == "\n" else 2  # the record's last line
        message = (f"line {line_no}: journal 'j': category {category!r} "
                   "holds a tab or a line break")
    elif site == "synth-field":
        name = f"a{line_break}b"
        argv = ["synth", "--fields", f"{name}:3:2", "--years", "2000-2001",
                "--papers", str(tmp_path / "sp"), "--journals", str(tmp_path / "sj")]
        message = f"argument --fields: field name {name!r} holds a tab or a line break"
    else:
        stem = f"g{line_break}x"
        groups = {"--group-a": paths["group"], "--group-b": paths["group"],
                  site: tmp_path / f"{stem}.txt"}
        groups[site].write_bytes(paths["group"].read_bytes())
        if site == "--group":
            argv = ["score", *corpus, "--group", str(groups[site])]
        else:
            argv = ["diagnose", "ranksum", *corpus,
                    "--group-a", str(groups["--group-a"]), "--group-b", str(groups["--group-b"])]
        message = f"argument {site}: group name {stem!r} holds a tab or a line break"
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: {message}\n"
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--papers"),
    ("baselines", "--journals"),
    ("score", "--papers"),
    ("score", "--group"),
    ("diagnose indexer", "--journals-b"),
    ("diagnose ranksum", "--group-a"),
    ("diagnose ranksum", "--group-b"),
])
@pytest.mark.parametrize("spelling", ["dot", "symlink"])
def test_out_never_overwrites_an_input(tmp_path, capsys, command, flag, spelling) -> None:
    paths = _write_small_inputs(tmp_path)
    other = tmp_path / "other"
    other.write_bytes(b"p3\n")
    inputs = {"--papers": paths["papers"], "--journals": paths["journals"]}
    if command in ("score", "diagnose indexer"):
        inputs["--group"] = paths["group"]
    if command == "diagnose indexer":
        inputs["--journals-b"] = paths["journals-b"]
    if command == "diagnose ranksum":
        inputs.update({"--group-a": paths["group"], "--group-b": other})
    if spelling == "dot":
        out = f"{tmp_path}/./{inputs[flag].name}"
    else:
        out = str(tmp_path / "link")
        (tmp_path / "link").symlink_to(inputs[flag])
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [*command.split(), *(arg for pair in inputs.items() for arg in map(str, pair))]
    assert main([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: --out and {flag} are the same file {out!r}\n"
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_window_flag_reaches_the_graph(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["ingest", "--papers", str(papers), "--journals", str(journals),
         "--window", "years1"]
    ) == 0
    narrow = capsys.readouterr().out
    assert main(
        ["ingest", "--papers", str(papers), "--journals", str(journals)]
    ) == 0
    wide = capsys.readouterr().out
    edges = lambda text: int(
        next(line for line in text.splitlines() if line.startswith("citation_edges")).split("\t")[1]
    )
    assert edges(narrow) == 0  # references never target the same year
    assert edges(wide) > 0
    assert "# window: years1" in narrow


def test_ingest_summary(demo, capsys) -> None:
    papers, journals, _ = demo
    assert main(["ingest", "--papers", str(papers), "--journals", str(journals)]) == 0
    out = capsys.readouterr().out
    assert "papers\t400" in out
    assert "journals\t2" in out
    assert "year_min\t2000" in out
    assert "year_max\t2009" in out


def test_baselines_export(demo, capsys) -> None:
    papers, journals, _ = demo
    assert main(["baselines", "--papers", str(papers), "--journals", str(journals)]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "category\tyear\tn\tmean_citations"
    # 2 categories x 10 years, multi-cat journals put papers in both cells
    assert len(lines) == 1 + 20


def test_baselines_json(demo, capsys) -> None:
    papers, journals, _ = demo
    assert main(
        ["baselines", "--papers", str(papers), "--journals", str(journals),
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["baselines"]) == 20
    assert {"category", "year", "n", "mean_citations"} == set(payload["baselines"][0])


def test_diagnose_consistency_tsv(capsys) -> None:
    assert main(["diagnose", "consistency", "--indicator", "cpp_fcsm"]) == 0
    out = capsys.readouterr().out
    data = [line for line in out.splitlines() if not line.startswith("#")]
    assert data[0].startswith("found\t")
    assert data[1].startswith("true\t")


def test_diagnose_consistency_mncs_finds_nothing(capsys) -> None:
    assert main(
        ["diagnose", "consistency", "--indicator", "mncs", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexample"] is None
    assert payload["config"]["settings"]["indicator"] == "mncs"


def test_diagnose_indexer_default_scheme(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["diagnose", "indexer", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group)]
    ) == 0
    out = capsys.readouterr().out
    assert "# scheme_b: primary-only derivation of --journals" in out
    data = [line for line in out.splitlines() if not line.startswith("#")]
    assert data[0].split("\t") == [
        "paper_id", "ncs_a", "ncs_b", "delta",
        "percentile_a", "percentile_b", "fractional_delta",
    ]
    for line in data[1:]:
        assert line.split("\t")[6] == "0.0"
    assert "# group_delta mean_fractional: 0.0" in out


def test_diagnose_indexer_identity_scheme(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["diagnose", "indexer", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--journals-b", str(journals), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    settings = payload["config"]["settings"]
    assert settings["scheme_b"] == f"{journals} sha256={_sha256(journals)}"
    for paper in payload["sensitivity"]["papers"]:
        assert paper["delta"] == 0.0
        assert paper["fractional_delta"] == 0.0
    assert all(delta == 0.0 for delta in payload["sensitivity"]["group_deltas"].values())


def test_diagnose_ranksum(demo, tmp_path, capsys) -> None:
    papers, journals, group = demo
    lines = papers.read_text().splitlines()
    other_ids = [json.loads(line)["id"] for line in lines[20:40]]
    group_b = tmp_path / "gb.txt"
    group_b.write_text("\n".join(other_ids) + "\n", encoding="utf-8")
    assert main(
        ["diagnose", "ranksum", "--papers", str(papers), "--journals", str(journals),
         "--group-a", str(group), "--group-b", str(group_b), "--format", "json"]
    ) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["config"]["settings"]["group_b"] == f"{group_b} sha256={_sha256(group_b)}"
    payload = output["ranksum"]
    assert payload["n_a"] == 15
    assert 0.0 < payload["p_two_sided"] <= 1.0
    assert payload["u_statistic"] <= payload["n_a"] * payload["n_b"]


def test_ranksum_identical_groups(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["diagnose", "ranksum", "--papers", str(papers), "--journals", str(journals),
         "--group-a", str(group), "--group-b", str(group), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)["ranksum"]
    assert payload["z"] == 0.0
    assert payload["p_two_sided"] == 1.0


@pytest.mark.parametrize("command, tables", [
    (["score", "--group", "{group}"], 1),
    (["diagnose", "ranksum", "--group-a", "{group}", "--group-b", "{group}"], 1),
    (["diagnose", "indexer", "--group", "{group}"], 2),
], ids=["score", "ranksum", "indexer"])
def test_each_corpus_builds_its_baseline_table_once(
    demo, monkeypatch, capsys, command, tables
) -> None:
    papers, journals, group = demo
    built = []

    def counting_compute_baselines(corpus):
        built.append(corpus)
        return compute_baselines(corpus)

    monkeypatch.setattr(indicators, "compute_baselines", counting_compute_baselines)
    argv = [arg.format(group=group) for arg in command]
    assert main([*argv, "--papers", str(papers), "--journals", str(journals)]) == 0
    capsys.readouterr()
    # each score pass builds one table: ranksum scores both groups in one
    # pass over their union; indexer scores one group on two corpora, one
    # per category scheme
    assert len(built) == tables


@pytest.mark.parametrize("count_b", [30, 15], ids=["a-within-b", "a-equals-b"])
def test_ranksum_of_overlapping_groups_matches_one_pass_per_group(
    demo, tmp_path, capsys, count_b
) -> None:
    # group A is the first 15 papers; B lists the first count_b in reverse
    papers, journals, group_a = demo
    ids_b = [json.loads(line)["id"] for line in papers.read_text().splitlines()[:count_b]]
    group_b = tmp_path / "gb.txt"
    group_b.write_text("\n".join(reversed(ids_b)) + "\n", encoding="utf-8")
    assert main(
        ["diagnose", "ranksum", "--papers", str(papers), "--journals", str(journals),
         "--group-a", str(group_a), "--group-b", str(group_b), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)["ranksum"]
    corpus = load_corpus(papers, journals)
    samples = [
        [ncs
         for ncs in score_papers(corpus, GroupSelection.read(path, corpus).paper_ids,
                                 Weighting.HARMONIC).ncs
         if ncs is not None]
        for path in (group_a, group_b)
    ]
    assert payload == rank_sum_test(*samples)._asdict()


def test_group_file_comments_and_blanks_are_ignored(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["n_total"] == 15  # comment and blank line skipped


def _body(out: str) -> str:
    """A report below its ``#`` header lines."""
    lines = out.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[start:])


def test_papers_key_order_leaves_the_report_body_as_it_is(demo, tmp_path, capsys,
                                                          monkeypatch) -> None:
    # Every line with its keys reversed takes the worded record checks
    # instead of the decode's hook; the reports below the header, which
    # hashes the papers file, must not change.
    import crown.corpus as corpus_module

    papers, journals, group = demo
    lines = papers.read_text(encoding="utf-8").splitlines()
    reversed_papers = tmp_path / "reversed.jsonl"
    reversed_papers.write_text("".join(
        json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")) + "\n"
        for line in lines
    ), encoding="utf-8")
    worded = []
    paper_from_record = corpus_module._paper_from_record
    monkeypatch.setattr(corpus_module, "_paper_from_record",
                        lambda *args: worded.append(args[1]) or paper_from_record(*args))
    bodies = []
    for path in (papers, reversed_papers):
        worded.clear()
        for argv in (["score", "--group", str(group)],
                     ["diagnose", "indexer", "--group", str(group)]):
            assert main([*argv, "--papers", str(path), "--journals", str(journals)]) == 0
            bodies.append(_body(capsys.readouterr().out))
        assert len(worded) == (0 if path == papers else 2 * len(lines))
    assert bodies[:2] == bodies[2:]


def test_a_disjoint_renamed_copy_leaves_the_report_bodies_as_they_are(tmp_path,
                                                                       capsys) -> None:
    # A copy of every paper under new ids and reference keys, with the same
    # years and journals, doubles every cell without moving its mean or any
    # midrank percentile, and leaves every fractional sum as it is.
    papers, journals = tmp_path / "papers.jsonl", tmp_path / "journals.csv"
    assert main(["synth", "--fields", "a:3:40,b:8:40,c:5:30", "--years", "2000-2006",
                 "--seed", "7", "--cross-field", "0.3", "--multi-cat", "0.5",
                 "--papers", str(papers), "--journals", str(journals)]) == 0
    group = _group_file(tmp_path, papers, count=60)
    text = papers.read_text(encoding="utf-8")
    copies = []
    for line in text.splitlines():
        record = json.loads(line)
        record["id"] = "copy-" + record["id"]
        record["references"] = ["copy-" + key for key in record["references"]]
        copies.append(json.dumps(record, separators=(",", ":")) + "\n")
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text(text + "".join(copies), encoding="utf-8")
    bodies = []
    for path in (papers, doubled):
        for argv in (["score", "--weighting", "harmonic"],
                     ["diagnose", "indexer", "--weighting", "arithmetic", "--window", "years3"]):
            assert main([*argv, "--papers", str(path), "--journals", str(journals),
                         "--group", str(group)]) == 0
            bodies.append(_body(capsys.readouterr().out))
    assert bodies[:2] == bodies[2:]


def test_a_window_past_the_year_range_reads_as_the_longest_span(demo, tmp_path,
                                                                capsys) -> None:
    # Every year lies in 1900-2100, so a 201-year span holds every citing
    # year from the cited one on, and a longer one holds no more.
    papers, journals, _ = demo
    group = _group_file(tmp_path, papers, count=400)
    # A load that held each span's years would run out of memory at 10^9
    # years; at 10^5 it already peaked near 9 MB, so it fails here first.
    tracemalloc.start()
    try:
        load_corpus(papers, journals, CitationWindow.fixed_years(10**5))
        assert tracemalloc.get_traced_memory()[1] < 2_000_000
    finally:
        tracemalloc.stop()
    outs = []
    for window in ("years201", "years1000000000"):
        for command in (["score"], ["diagnose", "indexer"]):
            assert main([*command, "--papers", str(papers), "--journals", str(journals),
                         "--group", str(group), "--window", window]) == 0
            outs.append(capsys.readouterr().out)
    assert "# window: years1000000000\n" in outs[2]
    assert [_body(out) for out in outs[:2]] == [_body(out) for out in outs[2:]]


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert main(["score", "--help"]) == 0


def _crown_subprocess(*argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "crown", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_synth_nan_mean_is_input_error_not_hang(tmp_path) -> None:
    result = _crown_subprocess(
        "synth", "--fields", "a:nan:5", "--years", "2000-2001",
        "--papers", str(tmp_path / "p.jsonl"), "--journals", str(tmp_path / "j.csv"),
        timeout=10,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: ")
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("line", [
    "[" * 200_000,  # nested past the JSON decoder's recursion limit
    '{"id":"p","year":' + "1" * 5000 + ',"journal":"j","references":[]}',
], ids=["deep-nesting", "5000-digit-year"])
def test_undecodable_papers_line_is_input_error_with_line_number(tmp_path, line) -> None:
    papers, journals = tmp_path / "p.jsonl", tmp_path / "j.csv"
    papers.write_text(line + "\n", encoding="utf-8")
    journals.write_text("id,title,categories\nj,J,a\n", encoding="utf-8")
    result = _crown_subprocess("ingest", "--papers", str(papers), "--journals", str(journals))
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: line 1: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


# A small valid corpus, one bytes object per line, named like the files the
# tests write: LF and CRLF line ends, a quoted CRLF inside a CSV field, an
# external key, a citation override, a group comment and a blank line.
SMALL_INPUT_LINES = {
    "papers": (
        b'{"id":"p1","year":2005,"journal":"j","references":[]}\n',
        b'{"id":"p2","year":2005,"journal":"k","references":["p1","x:1"]}\r\n',
        b'{"id":"p3","year":2006,"journal":"j","references":["p1","p2"]}\n',
        b'{"id":"p4","year":2006,"journal":"k","references":["p3"],"citations":3}\n',
    ),
    "journals": (b"id,title,categories\n", b"j,J,a|b\n", b'k,"K, the\r\nsecond",b\n'),
    "journals-b": (b"id,title,categories\r\n", b"j,J,a\r\n", b"k,K,a\r\n"),
    "group": (b"# group\n", b"p1\n", b"\n", b"p3\n"),
}


def _write_small_inputs(
    directory: Path, replaced: dict[str, bytes] | None = None
) -> dict[str, Path]:
    """Write the small corpus; ``replaced`` maps a file name to other bytes."""
    paths = {}
    for name, lines in SMALL_INPUT_LINES.items():
        paths[name] = directory / name
        paths[name].write_bytes((replaced or {}).get(name, b"".join(lines)))
    return paths


@pytest.mark.parametrize("which", ["papers", "journals", "group", "journals-b"])
def test_non_utf8_byte_is_input_error_with_line_number(tmp_path, which) -> None:
    lines = list(SMALL_INPUT_LINES[which])
    lines[1] = lines[1].replace(b"\n", b"\xff\n")
    paths = _write_small_inputs(tmp_path, {which: b"".join(lines)})
    result = _crown_subprocess(
        "diagnose", "indexer", "--papers", str(paths["papers"]),
        "--journals", str(paths["journals"]), "--group", str(paths["group"]),
        "--journals-b", str(paths["journals-b"]),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: line 2: not UTF-8 ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("row,message", [
    # past the csv module's field size limit
    (b"j," + b"x" * 131_073 + b",a\n", "malformed CSV ("),
    # a bare CR does not end a line, and is not allowed unquoted
    (b"j,J\rK,a\n", "malformed CSV (unquoted carriage return: "
                     "quote the field or end lines in LF or CRLF)\n"),
], ids=["field-over-limit", "unquoted-bare-cr"])
def test_malformed_csv_is_input_error_with_line_number(tmp_path, row, message) -> None:
    paths = _write_small_inputs(tmp_path, {"journals": b"id,title,categories\n" + row})
    result = _crown_subprocess(
        "ingest", "--papers", str(paths["papers"]), "--journals", str(paths["journals"])
    )
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: line 2: " + message)
    assert "universal-newline" not in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


# Line 2's id, p2, holds a tab, or starts with '#' and so reads as a comment
# in a group file.
_TAB_ID_PAPERS = b"".join(SMALL_INPUT_LINES["papers"]).replace(b'"p2"', b'"p\\t2"', 1)
_COMMENT_ID_PAPERS = b"".join(SMALL_INPUT_LINES["papers"]).replace(b'"p2"', b'"#x"', 1)
_UNRESOLVED_JOURNAL_PAPERS = b"".join(
    line.replace(b'"journal":"j"', b'"journal":"zz"') if line.startswith(b'{"id":"p3"')
    else line
    for line in SMALL_INPUT_LINES["papers"]
)


@pytest.mark.parametrize("command,replaced,message", [
    ("ingest", {"papers": _UNRESOLVED_JOURNAL_PAPERS},
     "line 3: paper 'p3' has unresolved journal 'zz'"),
    ("score", {"papers": _UNRESOLVED_JOURNAL_PAPERS},
     "line 3: paper 'p3' has unresolved journal 'zz'"),
    ("score", {"group": b"# group\np1\n\nghost\n"},
     "line 4: group 'group': unknown paper 'ghost'"),
    ("score", {"group": b"# group\np3\np1\np3\n"},
     "line 4: group 'group' lists paper 'p3' twice (first on line 2)"),
    ("score", {"group": b""}, "line 1: group 'group' is empty"),
    ("score", {"group": b"# only a comment\n\n"}, "line 2: group 'group' is empty"),
    # journal k is first used by p2, on line 2 of the papers file
    ("diagnose indexer", {"journals-b": b"id,title,categories\nj,J,a\n"},
     "line 2: paper 'p2' has unresolved journal 'k'"),
    # values that would forge a report field, or that a group file cannot list
    ("diagnose indexer", {"papers": _TAB_ID_PAPERS},
     "line 2: paper id 'p\\t2' holds a tab or a line break"),
    ("score", {"papers": _COMMENT_ID_PAPERS, "group": b"p1\n#x\n"},
     "line 2: paper id '#x' has surrounding whitespace or starts with '#', "
     "so no group file can list it"),
    ("baselines", {"journals": b'id,title,categories\nj,J,"a\nfake\t1999\t5\t9.0"\nk,K,b\n'},
     "line 3: journal 'j': category 'a\\nfake\\t1999\\t5\\t9.0' holds a tab or a line break"),
    # a category leads its baselines rows, which would then read as comments
    ("baselines", {"journals": b"id,title,categories\nj,J,#x\nk,K,b\n"},
     f"line 2: journal 'j': category '#x' {COMMENT_FAULT}"),
], ids=["ingest-unresolved-journal", "score-unresolved-journal",
        "score-unknown-group-id", "score-repeated-group-id",
        "score-zero-byte-group", "score-comments-only-group",
        "indexer-journals-b-missing-a-journal", "indexer-tab-in-paper-id",
        "score-comment-paper-id", "baselines-line-break-in-category",
        "baselines-leading-hash-in-category"])
def test_cross_record_error_names_its_line(tmp_path, command, replaced, message) -> None:
    paths = _write_small_inputs(tmp_path, replaced)
    argv = [*command.split(), "--papers", str(paths["papers"]),
            "--journals", str(paths["journals"])]
    if command not in ("ingest", "baselines"):
        argv += ["--group", str(paths["group"])]
    if command == "diagnose indexer":
        argv += ["--journals-b", str(paths["journals-b"])]
    result = _crown_subprocess(*argv)
    assert result.returncode == 1
    assert result.stderr == f"crown: error: {message}\n"
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", [("score",), ("diagnose", "indexer")])
def test_library_warning_is_one_stderr_line(tmp_path, command) -> None:
    # p4 carries a citation override; the indexer's two group reports both
    # warn about it, and the message is printed once
    paths = _write_small_inputs(tmp_path, {"group": b"p1\np4\n"})
    result = _crown_subprocess(
        *command, "--papers", str(paths["papers"]), "--journals", str(paths["journals"]),
        "--group", str(paths["group"]),
    )
    assert result.returncode == 0
    assert result.stderr == (
        "crown: warning: group 'group': 1 paper(s) with citation overrides "
        "excluded from fractional counting\n"
    )
    assert result.stdout.startswith(f"# crown {' '.join(command)}\n")


@pytest.mark.parametrize("years", ["1850-1851", "2100-2101"])
def test_synth_years_outside_the_corpus_range_are_input_error(
    tmp_path, capsys, years
) -> None:
    papers, journals = tmp_path / "p.jsonl", tmp_path / "j.csv"
    code = main(
        ["synth", "--fields", "a:3:2", "--years", years, "--seed", "1",
         "--papers", str(papers), "--journals", str(journals)]
    )
    assert code == 1
    assert "outside [1900, 2100]" in capsys.readouterr().err
    assert not papers.exists()


@pytest.mark.parametrize("journals", ["same.out", "./same.out", "link.out"])
def test_synth_refuses_one_path_for_both_outputs(tmp_path, capsys, journals) -> None:
    (tmp_path / "link.out").symlink_to("same.out")
    argv = ["synth", "--fields", "a:3:2", "--years", "2000-2001",
            "--papers", f"{tmp_path}/same.out", "--journals", f"{tmp_path}/{journals}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"crown: error: --papers and --journals are the same file '{tmp_path}/{journals}'\n"
    )
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.out"]
    assert not (tmp_path / "same.out").exists()


@pytest.mark.parametrize("flag", ["--papers", "--journals"])
def test_synth_to_a_path_it_cannot_write_leaves_no_file(tmp_path, capsys, flag) -> None:
    outputs = {"--papers": tmp_path / "p.jsonl", "--journals": tmp_path / "j.csv"}
    outputs[flag] = tmp_path / "nodir" / outputs[flag].name
    argv = ["synth", "--fields", "a:3:20", "--years", "2000-2001", "--seed", "1"]
    for name, path in outputs.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"crown: error: [Errno 2] No such file or directory: '{outputs[flag]}'\n"
    )
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_synth_that_fails_leaves_an_existing_output_as_it_was(tmp_path) -> None:
    papers = tmp_path / "p.jsonl"
    papers.write_bytes(b"older\n")
    argv = ["synth", "--fields", "a:3:20", "--years", "2000-2001", "--seed", "1",
            "--papers", str(papers), "--journals", str(tmp_path / "nodir" / "j.csv")]
    assert main(argv) == 1
    assert papers.read_bytes() == b"older\n"
    assert list(tmp_path.iterdir()) == [papers]


def test_synth_that_fails_while_writing_removes_its_outputs(tmp_path, capsys, monkeypatch) -> None:
    def full_disk(config, write):
        write(b"{}\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("crown.synth.generate_corpus", full_disk)
    argv = ["synth", "--fields", "a:3:20", "--years", "2000-2001", "--seed", "1",
            "--papers", str(tmp_path / "p.jsonl"), "--journals", str(tmp_path / "j.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "crown: error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_years_at_the_corpus_range_edges_ingest(tmp_path) -> None:
    papers, journals = tmp_path / "p.jsonl", tmp_path / "j.csv"
    for years in ("1900-1901", "2099-2100"):
        assert main(
            ["synth", "--fields", "a:3:2", "--years", years, "--seed", "1",
             "--papers", str(papers), "--journals", str(journals)]
        ) == 0
        assert main(["ingest", "--papers", str(papers), "--journals", str(journals)]) == 0


# Fixed inputs for the byte-pinned reports below. The 2008 papers are never
# cited, so their cells have zero means and they are unscorable; the 2000
# papers lose their 2006 and 2008 citations under --window years5.
PINNED_PAPERS = "".join(
    json.dumps({"id": pid, "year": year, "journal": journal, "references": refs}) + "\n"
    for pid, year, journal, refs in (
        ("a1", 2000, "jvr", ["doi:x1"]),
        ("a2", 2000, "circ", []),
        ("a3", 2000, "ajc", []),
        ("a4", 2000, "phy", []),
        ("b1", 2003, "jvr", ["a1", "a2"]),
        ("b2", 2003, "circ", ["a1", "a3", "doi:x2"]),
        ("b3", 2003, "ajc", ["a2", "a3", "a4"]),
        ("b4", 2003, "phy", ["a1", "a4"]),
        ("c1", 2006, "jvr", ["b1", "b2", "a1"]),
        ("c2", 2006, "circ", ["b1", "b2", "b3", "a2", "a3"]),
        ("c3", 2006, "ajc", ["b2", "b3", "b4"]),
        ("c4", 2006, "phy", ["b4", "a4", "doi:x3"]),
        ("d1", 2008, "jvr", ["c1", "c2", "b1", "a1"]),
        ("d2", 2008, "circ", ["c3", "b2", "a2"]),
        ("d3", 2008, "ajc", ["c1", "c4", "b3", "a3"]),
        ("d4", 2008, "phy", ["c2", "c3", "c4", "b4", "a4"]),
    )
)
# The same corpus with citation overrides that differ from the graph
# counts: five papers cite a1 and three cite b3, and d2, an uncited final-year
# paper, makes its three cells' means non-zero.
OVERRIDES = {"a1": 9, "b3": 0, "d2": 2}
PINNED_OVERRIDE_PAPERS = "".join(
    json.dumps({**record, "citations": OVERRIDES[record["id"]]}
               if record["id"] in OVERRIDES else record) + "\n"
    for record in map(json.loads, PINNED_PAPERS.splitlines())
)
PINNED_JOURNALS = (
    "id,title,categories\n"
    "jvr,Journal of Vascular Research,vascular|physiology\n"
    "circ,Circulation,cardiac|hematology|vascular\n"
    "ajc,American Journal of Cardiology,cardiac\n"
    "phy,Physiology Reports,physiology\n"
)
PINNED_JOURNALS_B = (
    "id,title,categories\n"
    "jvr,Journal of Vascular Research,physiology\n"
    "circ,Circulation,cardiac|hematology\n"
    "ajc,American Journal of Cardiology,cardiac|physiology\n"
    "phy,Physiology Reports,physiology\n"
)
PINNED_FILES = {
    "papers.jsonl": PINNED_PAPERS,
    "overrides.jsonl": PINNED_OVERRIDE_PAPERS,
    "journals.csv": PINNED_JOURNALS,
    "journals_b.csv": PINNED_JOURNALS_B,
    "unit.txt": "# unit under evaluation\n\na1\nb2\nc3\nd4\nb4\nc1\n",
    "other.txt": "a2\na3\nb1\nb3\nc2\nc4\nd1\n",
    "dead.txt": "d1\nd2\n",  # uncited final-year papers: nothing scorable
}
CORPUS = ("--papers", "papers.jsonl", "--journals", "journals.csv")
NON_DEFAULT = ("--weighting", "arithmetic", "--window", "years5")
PINNED_CASES = {
    "ingest": ("ingest", *CORPUS),
    "ingest-years5": ("ingest", *CORPUS, "--window", "years5"),
    "baselines": ("baselines", *CORPUS),
    "baselines-years5": ("baselines", *CORPUS, "--window", "years5"),
    "score": ("score", *CORPUS, "--group", "unit.txt"),
    "score-arithmetic-years5": ("score", *CORPUS, "--group", "unit.txt", *NON_DEFAULT),
    "score-top10": ("score", *CORPUS, "--group", "unit.txt", "--top-x", "10"),
    "consistency": ("diagnose", "consistency"),
    "consistency-mncs": ("diagnose", "consistency", "--indicator", "mncs"),
    "indexer": ("diagnose", "indexer", *CORPUS, "--group", "unit.txt"),
    "indexer-journals-b": ("diagnose", "indexer", *CORPUS, "--group", "unit.txt",
                           "--journals-b", "journals_b.csv", *NON_DEFAULT),
    "indexer-top25.5": ("diagnose", "indexer", *CORPUS, "--group", "unit.txt",
                        "--top-x", "25.5"),
    "ranksum": ("diagnose", "ranksum", *CORPUS, "--group-a", "unit.txt",
                "--group-b", "other.txt"),
    "ranksum-arithmetic-years5": ("diagnose", "ranksum", *CORPUS, "--group-a", "unit.txt",
                                  "--group-b", "other.txt", *NON_DEFAULT),
    "ranksum-identical": ("diagnose", "ranksum", *CORPUS, "--group-a", "unit.txt",
                          "--group-b", "unit.txt"),
}
# sha256 of each report's stdout: a change to any byte of any report must be
# deliberate, never a side effect of reworking the code that writes it.
PINNED_SHA256 = {
    "baselines-tsv": "b51caf6b41df4df72ef743011c3f4d1ad506c50a4dfe140f4f423b2e5350c8a7",
    "baselines-json": "07fe98c9b8ba1b54eb6907c46a32d8bee01feaf6127895ac52ad6c4a380d969d",
    "baselines-years5-tsv": "a702a784318a9f28c325a49d541a392a9c9b8fd9f8859b044491815a5773911f",
    "baselines-years5-json": "c0a2243e27cc62822516a3f4d0f68c4984a419153de0bb884f9f1feb878186f0",
    "consistency-tsv": "5c0043430cd9f84efba166edf70dfda5d81a584144c7874cc50024a279a5663f",
    "consistency-json": "07d6640ca2893e6c135da8f12c7b89db9a893ebc4bf26b4ecad4c6b44c44c807",
    "consistency-mncs-tsv": "902ad1acb1b97d64ffdd8a68166220872d1a15ba8ede236fda3b81b76bc55f4e",
    "consistency-mncs-json": "2421470f4009c35849f5ecc2efb6b499f962e977cff245da94ddff424673e3f6",
    "indexer-tsv": "a01368a77e5f0c8944361e3217aee9b61d764aac68d0458ee8b71bc52f3be765",
    "indexer-json": "356c991f95eed4151f45a0fc19e6494792eaf9085e786baff722596e718d9a57",
    "indexer-journals-b-tsv": "e18001c45eec8480d8d74d30b038b5a8faff95984229c4c66cdd325d6dff8d16",
    "indexer-journals-b-json": "070ec604fc3d573c7fc2c1e69aacca9559623e576b1745e36c322a81446988e2",
    "indexer-top25.5-tsv": "9946d6fc157fefd46ebf45f2000d47ec3755f36539539103777f9ac5822f6fd7",
    "indexer-top25.5-json": "1785f2ce3ef79f310803fed833b6e7729bed78a0568f1c63a7f7b57d10e8a6ed",
    "ingest-tsv": "465ed5b81c6361f2afad223ca2033cd52f59d4ac7098977145890d7bb831645e",
    "ingest-json": "1de23faf9dc51db75f844b502e65e10fc6d30349a7a7147b4723f69933f50c29",
    "ingest-years5-tsv": "e8adbd57bcb4b80df841cc65f2281ee5e71966a0f3a4d0aced426e925be0b22a",
    "ingest-years5-json": "83d9a0996e63accc6f9936794e624aac0981c37be149714e76a38be94e9b5b8a",
    "ranksum-tsv": "c7fb19e188d51f0f0d9b4f185f2946dbc136b5874f94733b2f0b55c72043ed80",
    "ranksum-json": "94151259002a290b79baf6886e65b6c18f3e71f982ce5d9b0c5257b51af4b617",
    "ranksum-arithmetic-years5-tsv": "1187e8273804d1be725d88a335ff930bb20bded4be69ecb3209abaf7a96a1f51",
    "ranksum-arithmetic-years5-json": "650a7d3ec76f3c9ad70c1d6678fdb9b3c316061a85222d0e4c5392f40c0607c2",
    "ranksum-identical-tsv": "a83be40cdd508713a0531e8ee0b0c17ddf5531de8a61a40ed9498a58cd1f30b0",
    "ranksum-identical-json": "02205056822a34d19ca11dbdcc9656f068e9043069238414c7b75ee890f7c60d",
    "score-tsv": "e7e2ff4c229fb16f749a1e27fc62b45a0463d59fec24ba45855877d2d8f420d0",
    "score-json": "b39cbc9074530d77fa48755cc99aa3eb5526e165e89785050b47f85ec604951a",
    "score-arithmetic-years5-tsv": "44c8641f2ab73df2eacc1f5390faa877283ab6cde601048020451db0ca04daf9",
    "score-arithmetic-years5-json": "d61e74b961e92ab3fadf3e79c3b692a5a754cd9f988c11085ca8b0fe3af25af2",
    "score-top10-tsv": "96413791dd9fe5c10fe5adf87f7caf117eda026eccf8819bbc9fb8d9d45ae5ac",
    "score-top10-json": "b38b86c6370d7d069c467b57b312d612d937885bdd39283dd33796436643f539",
}


@pytest.fixture
def pinned_inputs(tmp_path, monkeypatch):
    for name, text in PINNED_FILES.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_report_bytes_are_pinned(case, fmt, pinned_inputs, capsys) -> None:
    assert main([*PINNED_CASES[case], "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_SHA256[f"{case}-{fmt}"]


# Every pinned case that reads the papers, run on the override papers.
OVERRIDE_CASES = {
    case: tuple("overrides.jsonl" if arg == "papers.jsonl" else arg for arg in argv)
    for case, argv in PINNED_CASES.items() if "papers.jsonl" in argv
}
OVERRIDE_SHA256 = {
    "baselines-tsv": "6933181ba45987192483cc1dd38399b7d4885ff65d4ddd3254f329d68f275011",
    "baselines-json": "51b6a29e6c4f45ad268d478f1046d775aa9358b22eb5e82a02502e60fec06bd7",
    "baselines-years5-tsv": "34e6840b6e76706125f845d8f95573b279710c24ffc252c2f946db610967fe74",
    "baselines-years5-json": "e8d18bbb451847e2d1225dd1e5870dc70ec473fab485c18c8d166d71405b79e5",
    "indexer-tsv": "6f9dc0a32991eca39a8f8c0ef764748f5a908507bdaad327de860ce095d5c372",
    "indexer-json": "a5dfd1efbfdec04cc815e0ad43906382b0d7e749ecdd0ec33437891aa05fb3fc",
    "indexer-journals-b-tsv": "68467a00f18a238269051f9096204aee5fa21ae44de601f6c6381f6c382e0149",
    "indexer-journals-b-json": "b22857e474db993a16151569ddbc6025dbccc7bc0176da335f1438361c7c67a7",
    "indexer-top25.5-tsv": "341bc6d74c2420d49de1d505ab84a46f2413db56a71108138bb4f7b272cea5b0",
    "indexer-top25.5-json": "10a00448175471a17163dce91d9a739a35e568d41ef6f062258fb4f49df5fa7b",
    "ingest-tsv": "080d32943f40b586b02d58af279c3b7dfd2688339458a9773f4e6a23af7bc272",
    "ingest-json": "ac93a2b119eac06efe6b4dbcc963c0cd1de382139d159f90086b962ac8bf8fbe",
    "ingest-years5-tsv": "dc68daada7a44114a1cd5064a32c110d84158e79f6b538b61b6a09aeaf8a67bb",
    "ingest-years5-json": "44ed8dfce1200d73ce24731caa65416f1b634b198c543a7b9736a326d7008299",
    "ranksum-tsv": "ad006bb50ddf08dc4194eedd96925842c79e166ed30d6108f5765a886f5cb43c",
    "ranksum-json": "2fcac61d5423652efa96c45603d71b7e0402a0c75d7901176ab800cff3b40401",
    "ranksum-arithmetic-years5-tsv": "4cd84805ee114f7dff49c69d07b70725fb1d9368f9eb4c8c4284940a0c2b9724",
    "ranksum-arithmetic-years5-json": "59e59ba24aa33a5ebacab9c9a146e645d1ad507d8e6a7c271c2dd6af8dfa527c",
    "ranksum-identical-tsv": "206fdd16980b11f6a2855441dd25f3759699f151da6e8b46407fcd6eeb172d19",
    "ranksum-identical-json": "64e97a8eb96feb6e8508a5b38a4c41e82e317f543901bc63ebd42d9b0466cf00",
    "score-tsv": "787c379711cdd73bb69eb480c6335c2cec7b12f20f4d147a72e0c1593084d486",
    "score-json": "b1f846b4fae97b2b76dfd0e2142f17a5f312142d316d2e846ccf3518ffe88c62",
    "score-arithmetic-years5-tsv": "764a7b9006f76f4b267aa58bf6bcd498994dcc04c3a42b7cd2bba2ec8ee74824",
    "score-arithmetic-years5-json": "8ecccda2c1abb449565b21f80b9e37b48aae6f74d4ac8a3b365d381d9ce79c23",
    "score-top10-tsv": "12a5b038bfc32f2191e81dbd0f5055901ddb41d3bc4ca60a6c0837498f297740",
    "score-top10-json": "643f93423cf0975bcdfcd98652e265546d72c1d41eb835a90f7575fcbfdbf76c",
}


def test_the_override_papers_differ_from_the_graph_counts(pinned_inputs) -> None:
    corpus = load_corpus("papers.jsonl", "journals.csv")
    counts = dict(zip(corpus.papers, corpus.citation_counts))
    assert {paper_id: counts[paper_id] for paper_id in OVERRIDES} == {"a1": 5, "b3": 3, "d2": 0}
    overridden = load_corpus("overrides.jsonl", "journals.csv")
    assert dict(zip(overridden.papers, overridden.citation_counts)) == {**counts, **OVERRIDES}
    assert overridden.n_edges == corpus.n_edges


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("case", sorted(OVERRIDE_CASES))
def test_override_report_bytes_are_pinned(case, fmt, pinned_inputs, capsys) -> None:
    assert main([*OVERRIDE_CASES[case], "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == OVERRIDE_SHA256[f"{case}-{fmt}"]


DEGENERATE_CASES = {
    "score": (("score", *CORPUS, "--group", "dead.txt"),
              ("papers.jsonl", "journals.csv", "dead.txt")),
    "diagnose indexer": (("diagnose", "indexer", *CORPUS, "--group", "dead.txt",
                          "--journals-b", "journals_b.csv"),
                         ("papers.jsonl", "journals.csv", "dead.txt", "journals_b.csv")),
    # the degenerate group comes first, so the second file must be read anyway
    "diagnose ranksum": (("diagnose", "ranksum", *CORPUS, "--group-a", "dead.txt",
                          "--group-b", "unit.txt"),
                         ("papers.jsonl", "journals.csv", "dead.txt", "unit.txt")),
}


@pytest.mark.parametrize("command", sorted(DEGENERATE_CASES))
def test_degenerate_report_carries_the_full_header(command, pinned_inputs, capsys) -> None:
    argv, inputs = DEGENERATE_CASES[command]
    hashes = [f"{name} sha256={_sha256(Path(name))}" for name in inputs]
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.err == "crown: degenerate: group 'dead': no scorable papers\n"
    lines = captured.out.splitlines()
    assert lines[0] == f"# crown {command}"
    for value in hashes:
        assert any(line.endswith(f": {value}") for line in lines)
    assert "# window: all" in lines
    assert lines[-4:] == [
        "dead\t2\t0",
        "# degenerate: group 'dead': no scorable papers",
        "# unscorable: d1\tzero baseline in cell (vascular, 2008), (physiology, 2008)",
        "# unscorable: d2\tzero baseline in cell (cardiac, 2008), (hematology, 2008), "
        "(vascular, 2008)",
    ]
    assert lines[-5] == "group\tn_total\tn_scorable"

    assert main([*argv, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["command"] == command
    header = dict(line[2:].split(": ", 1) for line in lines[1:-5])
    assert payload["config"]["settings"] == header
    assert payload["coverage"] == {
        "group": "dead", "n_total": 2, "n_scorable": 0,
        "unscorable": [["d1", "zero baseline in cell (vascular, 2008), (physiology, 2008)"],
                       ["d2", "zero baseline in cell (cardiac, 2008), (hematology, 2008), "
                              "(vascular, 2008)"]],
    }
    assert payload["degenerate"] == "group 'dead': no scorable papers"


def test_ranksum_with_one_scorable_paper_each_is_degenerate(pinned_inputs, capsys) -> None:
    # Two observations, where the rank-sum test needs three; each group file
    # is read, so each is hashed, and the coverage row is group B's.
    Path("one.txt").write_text("a1\n", encoding="utf-8")
    Path("two.txt").write_text("d1\nb2\n", encoding="utf-8")
    argv = ["diagnose", "ranksum", *CORPUS, "--group-a", "one.txt", "--group-b", "two.txt"]
    message = ("groups 'one' and 'two': one scorable paper each, "
               "fewer than the 3 observations a rank-sum test needs")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"crown: degenerate: {message}\n"
    lines = captured.out.splitlines()
    assert lines[0] == "# crown diagnose ranksum"
    for key, name in (("group_a", "one.txt"), ("group_b", "two.txt")):
        assert f"# {key}: {name} sha256={_sha256(Path(name))}" in lines
    assert lines[-4:] == [
        "group\tn_total\tn_scorable",
        "two\t2\t1",
        f"# degenerate: {message}",
        "# unscorable: d1\tzero baseline in cell (vascular, 2008), (physiology, 2008)",
    ]
    assert main([*argv, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] == message
    assert payload["coverage"] == {
        "group": "two", "n_total": 2, "n_scorable": 1,
        "unscorable": [["d1", "zero baseline in cell (vascular, 2008), (physiology, 2008)"]],
    }


def test_top_x_share_is_named_after_x(pinned_inputs, capsys) -> None:
    argv = ["score", *CORPUS, "--group", "unit.txt", "--top-x", "10"]
    assert main(argv) == 0
    columns = capsys.readouterr().out.splitlines()[7].split("\t")
    assert columns[6] == "pp_top10"
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert "pp_top10" in report and "pp_top1" not in report


@pytest.mark.parametrize("bounds", [
    ("--max-size", "3", "--max-c", "6", "--max-e", "6"),
    ("--indicator", "mncs", "--max-size", "3", "--max-c", "6", "--max-e", "6"),
    ("--max-e", "100000000000"),
    ("--max-size", "1000000000000", "--max-c", "0", "--max-e", "1"),
])
def test_consistency_search_over_the_limit_is_input_error(bounds) -> None:
    result = _crown_subprocess("diagnose", "consistency", *bounds, timeout=10)
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("which", ["papers", "journals", "group"])
def test_utf8_bom_input_is_read_and_hashed_as_written(which, demo, capsys) -> None:
    papers, journals, group = demo
    argv = ["score", "--papers", str(papers), "--journals", str(journals),
            "--group", str(group)]
    assert main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    path = {"papers": papers, "journals": journals, "group": group}[which]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 0
    with_bom = capsys.readouterr().out.splitlines()
    # the BOM is not data, but the header hash is of the raw bytes, BOM included
    assert len(with_bom) == len(plain)
    assert [new for old, new in zip(plain, with_bom) if new != old] == [
        f"# {which}: {path} sha256={_sha256(path)}"
    ]


def _shuffle_lines(path: Path, rng: random.Random, keep_header: bool) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head, body = (lines[:1], lines[1:]) if keep_header else ([], lines)
    rng.shuffle(body)
    path.write_text("".join(head + body), encoding="utf-8")


def test_reports_do_not_depend_on_input_line_order(demo, tmp_path, capsys) -> None:
    papers, journals, group = demo
    other_ids = [json.loads(line)["id"] for line in papers.read_text().splitlines()[20:40]]
    group_b = tmp_path / "gb.txt"
    group_b.write_text("\n".join(other_ids) + "\n", encoding="utf-8")
    corpus = ["--papers", str(papers), "--journals", str(journals)]
    commands = [
        ["score", *corpus, "--group", str(group)],
        ["diagnose", "indexer", *corpus, "--group", str(group)],
        ["diagnose", "ranksum", *corpus, "--group-a", str(group), "--group-b", str(group_b)],
    ]

    def reports() -> list[list[str]]:
        outputs = []
        for argv in commands:
            assert main(argv) == 0
            outputs.append([
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith(("# papers:", "# journals:"))
            ])
        return outputs

    before = reports()
    rng = random.Random(2010)
    original = papers.read_bytes(), journals.read_bytes()
    _shuffle_lines(papers, rng, keep_header=False)
    _shuffle_lines(journals, rng, keep_header=True)
    assert (papers.read_bytes(), journals.read_bytes()) != original
    assert reports() == before


FUZZ_COMMANDS = (
    ("ingest",),
    ("score", "--group", "group"),
    ("diagnose", "indexer", "--group", "group", "--journals-b", "journals-b"),
)
# Bytes that occur nowhere in UTF-8 text.
NEVER_UTF8 = st.sampled_from([bytes([b]) for b in (0xC0, 0xC1, *range(0xF5, 0x100))])


def _any_bytes(max_size: int) -> st.SearchStrategy[bytes]:
    return st.one_of(
        st.binary(max_size=max_size),
        st.text(max_size=max_size).map(lambda text: text.encode("utf-8")),
    )


@st.composite
def fuzzed_file(draw, lines: tuple[bytes, ...]) -> bytes:
    """Arbitrary bytes, or a valid file with one line replaced by arbitrary bytes."""
    if draw(st.booleans()):
        return draw(_any_bytes(200))
    replaced = list(lines)
    replaced[draw(st.integers(0, len(lines) - 1))] = draw(_any_bytes(60))
    return b"".join(replaced)


def _main_in_process(
    paths: dict[str, Path], command: Sequence[str], corpus: bool = True
) -> tuple[int, str]:
    """Run main() with each name in ``paths`` replaced by its path; return its
    exit code and stderr. With ``corpus``, the command reads the small-corpus
    files and writes its report next to them."""
    if corpus:
        command = (*command, "--papers", "papers", "--journals", "journals")
    argv = [str(paths.get(arg, arg)) for arg in command]
    if corpus:
        argv += ["--out", str(paths["papers"].with_name("out"))]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _assert_clean_outcome(code: int, stderr: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        assert stderr.startswith("crown: error: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")


def test_small_corpus_runs_cleanly_in_process(tmp_path) -> None:
    paths = _write_small_inputs(tmp_path)
    for command in FUZZ_COMMANDS:
        assert _main_in_process(paths, command) == (0, "")


def test_main_gives_the_collector_back_as_it_found_it(tmp_path, monkeypatch) -> None:
    # The run scores with the collector paused, and freezes nothing.
    paths = _write_small_inputs(tmp_path)
    paused = []
    score_group = cli.score_group

    def spy(*args, **kwargs):
        paused.append(not gc.isenabled())
        return score_group(*args, **kwargs)

    monkeypatch.setattr(cli, "score_group", spy)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            frozen = gc.get_freeze_count()
            for command in FUZZ_COMMANDS:
                assert _main_in_process(paths, command) == (0, "")
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == frozen
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert paused == [True, True]


def _echo_text(exclude: str = "") -> st.SearchStrategy[str]:
    """Short text from all of Unicode, half the time with tabs and line breaks
    drawn often, led by a '#' a third of the time."""
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters=exclude)
    text = st.one_of(
        st.text(chars, min_size=1, max_size=6),
        st.text(st.one_of(st.sampled_from(("\t", *LINE_BREAKS)), chars), min_size=1, max_size=6),
    )
    return st.tuples(st.sampled_from(("", "", "#")), text).map("".join)


def _one_field(text: str) -> bool:
    """Whether ``text`` holds no tab and no line break."""
    return "\t" not in text and len(f"x{text}x".splitlines()) == 1


def _leading_hash_error(command: Sequence[str], paper_id: str, category: str,
                        group_name: str) -> str | None:
    """The error a run of ``command`` in ``test_report_rows_are_never_split``
    names when the first drawn text it refuses starts with '#' and is refused
    for that; None when no text is, or when the '#' may hide another fault."""
    # The sites in the order a run reads them: the group name while the flags
    # are parsed, then p2's line, then j's line. Each is (text, the error for
    # a leading '#' or None, whether the text is clean).
    sites = [
        # a paper id is checked for a leading '#' before anything else; p2
        # lists p1 and x:1 as references
        (paper_id,
         f"line 2: paper id {paper_id!r} has surrounding whitespace or starts with '#', "
         "so no group file can list it",
         listed_id(paper_id) == paper_id and _one_field(paper_id)
         and paper_id not in ("p1", "x:1")),
        # a categories field with no '|' holds one category
        (category,
         f"line 2: journal 'j': category {category!r} {COMMENT_FAULT}"
         if "|" not in category and _one_field(category) else None,
         True),
    ]
    if "--group" in command:
        sites.insert(0, (
            group_name,
            f"argument --group: group name {group_name!r} {COMMENT_FAULT}"
            if _one_field(group_name) else None,
            _one_field(group_name),
        ))
    for text, error, clean in sites:
        if text.startswith("#"):
            return error
        if not clean:
            return None
    return None


ECHO_COMMANDS = (
    ("baselines",),
    ("score", "--group", "group"),
    ("diagnose", "indexer", "--group", "group", "--journals-b", "journals-b"),
)


@settings(max_examples=100, deadline=None)
@given(paper_id=_echo_text(), category=_echo_text(), group_name=_echo_text("/\0"))
def test_report_rows_are_never_split(paper_id, category, group_name, tmp_path_factory) -> None:
    # p2's id, journal j's category and the group name are drawn; the group
    # lists p1 and p2.
    directory = tmp_path_factory.mktemp("echo")
    journals = io.StringIO()
    csv.writer(journals, lineterminator="\n").writerows(
        [("id", "title", "categories"), ("j", "J", category), ("k", "K", "b")]
    )
    papers = b"".join(SMALL_INPUT_LINES["papers"])
    paths = _write_small_inputs(directory, {
        "papers": papers.replace(b'"p2"', json.dumps(paper_id).encode(), 1),
        "journals": journals.getvalue().encode("utf-8"),
    })
    paths["group"] = directory / f"{group_name}.txt"
    paths["group"].write_text(f"p1\n{paper_id}\n", encoding="utf-8")
    out = directory / "out"
    # rows of a run that exits 0: a cell per category of j or k, and year
    rows = {"baselines": 2 * len({*category.split("|"), "b"}), "score": 1, "diagnose": 2}
    for command in ECHO_COMMANDS:
        out.unlink(missing_ok=True)
        code, stderr = _main_in_process(paths, command)
        _assert_clean_outcome(code, stderr)
        error = _leading_hash_error(command, paper_id, category, group_name)
        if error is not None:
            assert (code, stderr) == (1, f"crown: error: {error}\n")
        if code == 1:
            continue
        # A report line that does not start with '#' is the column line or a
        # row; a degenerate run (exit 2) has one coverage row.
        lines = out.read_bytes().decode("utf-8").splitlines()
        table = [line for line in lines if not line.startswith("#")]
        assert len(table) == 1 + (1 if code == 2 else rows[command[0]]), lines
        for line in table:
            assert line.count("\t") == table[0].count("\t"), line


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(sorted(SMALL_INPUT_LINES)), data=st.data())
def test_main_survives_arbitrary_input_bytes(which, data, tmp_path_factory) -> None:
    fuzzed = data.draw(fuzzed_file(SMALL_INPUT_LINES[which]))
    paths = _write_small_inputs(tmp_path_factory.mktemp("fuzz"), {which: fuzzed})
    for command in FUZZ_COMMANDS:
        _assert_clean_outcome(*_main_in_process(paths, command))


@settings(max_examples=100, deadline=None)
@given(
    line_index=st.integers(0, len(SMALL_INPUT_LINES["papers"]) - 1),
    garbage=st.tuples(st.binary(max_size=30), NEVER_UTF8, st.binary(max_size=30)),
    command=st.sampled_from(FUZZ_COMMANDS),
)
def test_main_names_the_papers_line_that_is_not_utf8(
    line_index, garbage, command, tmp_path_factory
) -> None:
    papers = list(SMALL_INPUT_LINES["papers"])
    papers[line_index] = b"".join(garbage).replace(b"\n", b"") + b"\n"
    paths = _write_small_inputs(tmp_path_factory.mktemp("fuzz"), {"papers": b"".join(papers)})
    code, stderr = _main_in_process(paths, command)
    assert code == 1
    assert stderr.startswith(f"crown: error: line {line_index + 1}: not UTF-8 ")


# Flag values at the edges of what int() and float() read. The last three
# break the spelling rule that every number on the command line follows.
EDGE_VALUES = ("nan", "inf", "-inf", "0", "-0", "-3", "1e30", "",
               "\u0661\u0660", "1_0", " 10")
MISSPELLED = EDGE_VALUES[-3:]
# (argv, whether it reads the small corpus, flags); each flag is (flag, value
# template, one valid value per {} slot). The valid synth run writes 5 years
# of 7 papers.
ARGV_FUZZ = (
    (("score", "--group", "group"), True, (
        ("--top-x", "{}", ("10",)),
        ("--window", "years{}", ("5",)),
    )),
    (("diagnose", "indexer", "--group", "group"), True, (
        ("--top-x", "{}", ("0.5",)),
        ("--window", "years{}", ("3",)),
    )),
    (("diagnose", "consistency", "--out", "out"), False, (
        ("--indicator", "{}", ("cpp_fcsm",)),
        ("--max-size", "{}", ("2",)),
        ("--max-c", "{}", ("3",)),
        ("--max-e", "{}", ("3",)),
    )),
    (("synth", "--papers", "synth-papers", "--journals", "synth-journals"), False, (
        ("--fields", "a:{}:{},b:3:2", ("3", "5")),
        ("--years", "{}-{}", ("2000", "2004")),
        ("--seed", "{}", ("7",)),
        ("--cross-field", "{}", ("0.2",)),
        ("--multi-cat", "{}", ("0.5",)),
        ("--skew", "{}", ("0.1",)),
    )),
)


@st.composite
def fuzzed_argv(draw) -> tuple[tuple[str, ...], bool, bool]:
    """A subcommand's argv with up to three of its flag values (or numbers
    inside one) drawn from EDGE_VALUES and the rest valid; whether it reads
    the corpus; whether a drawn value is misspelled."""
    command, corpus, flags = draw(st.sampled_from(ARGV_FUZZ))
    slots = [(flag, index) for flag, _, valid in flags for index in range(len(valid))]
    edged = draw(st.dictionaries(st.sampled_from(slots), st.sampled_from(EDGE_VALUES),
                                 max_size=3))
    argv = list(command)
    for flag, template, valid in flags:
        values = [edged.get((flag, index), value) for index, value in enumerate(valid)]
        argv.append(f"{flag}={template.format(*values)}")
    return tuple(argv), corpus, any(value in MISSPELLED for value in edged.values())


def _argv_fuzz_paths(directory: Path) -> dict[str, Path]:
    """The small corpus, and the output files ARGV_FUZZ names."""
    return {**_write_small_inputs(directory), "out": directory / "out",
            "synth-papers": directory / "sp", "synth-journals": directory / "sj"}


def test_fuzzed_argv_is_valid_without_edge_values(tmp_path) -> None:
    # Every rejection the fuzz below sees comes from a drawn edge value.
    paths = _argv_fuzz_paths(tmp_path)
    for command, corpus, flags in ARGV_FUZZ:
        argv = [*command, *(f"{flag}={template.format(*valid)}"
                            for flag, template, valid in flags)]
        assert _main_in_process(paths, argv, corpus) == (0, "")
    assert len((tmp_path / "sp").read_bytes().splitlines()) == 35


@settings(max_examples=200, deadline=None)
@given(drawn=fuzzed_argv())
def test_main_survives_arbitrary_flag_values(drawn, tmp_path_factory) -> None:
    argv, corpus, misspelled = drawn
    directory = tmp_path_factory.mktemp("argv")
    paths = _argv_fuzz_paths(directory)
    code, stderr = _main_in_process(paths, argv, corpus)
    _assert_clean_outcome(code, stderr)
    if misspelled:
        assert code == 1, stderr


SURROGATE_FAULT = "holds a lone surrogate, which UTF-8 cannot encode"


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--papers"),
    ("baselines", "--journals"),
    ("diagnose indexer", "--journals-b"),
    ("score", "--group"),
    ("diagnose ranksum", "--group-a"),
    ("diagnose ranksum", "--group-b"),
    ("synth", "--papers"),
    ("synth", "--journals"),
    ("synth", "--fields"),
])
def test_lone_surrogate_in_a_flag_is_rejected_before_any_file_is_read(
    tmp_path, capsys, command, flag
) -> None:
    # Python reads a command-line byte that is not UTF-8 as a lone surrogate,
    # which no report written as UTF-8 can echo. The bad path names a real
    # file, so only the check can refuse it.
    paths = _write_small_inputs(tmp_path)
    if command == "synth":
        inputs = {"--fields": "a:3:2", "--years": "2000-2001",
                  "--papers": tmp_path / "papers.out", "--journals": tmp_path / "journals.out"}
    else:
        inputs = {"--papers": paths["papers"], "--journals": paths["journals"],
                  "--out": tmp_path / "report.out"}
    if command in ("score", "diagnose indexer"):
        inputs["--group"] = paths["group"]
    if command == "diagnose indexer":
        inputs["--journals-b"] = paths["journals-b"]
    if command == "diagnose ranksum":
        inputs.update({"--group-a": paths["group"], "--group-b": paths["group"]})
    if flag == "--fields":
        inputs[flag] = "\udcff:3:2"
        echoed = "field name '\\udcff'"
    else:
        bad = tmp_path / "x\udcff.txt"
        if command != "synth":
            bad.write_bytes(Path(inputs[flag]).read_bytes())
        inputs[flag] = bad
        echoed = "group name 'x\\udcff'" if flag.startswith("--group") else f"path {str(bad)!r}"
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv = [*command.split(), *(arg for pair in inputs.items() for arg in map(str, pair))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: argument {flag}: {echoed} {SURROGATE_FAULT}\n"
    assert captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_non_utf8_argv_byte_is_one_flag_error(tmp_path) -> None:
    paths = _write_small_inputs(tmp_path)
    papers = tmp_path / "x\udcff.jsonl"  # the file name's byte 0xff
    papers.write_bytes(paths["papers"].read_bytes())
    before = sorted(tmp_path.iterdir())
    for argv, flag in [
        (("ingest", "--papers", str(papers), "--journals", str(paths["journals"]),
          "--out", str(tmp_path / "report.tsv")), "--papers"),
        (("synth", "--fields", "\udcff:3:2", "--years", "2000-2001",
          "--papers", str(tmp_path / "o.jsonl"), "--journals", str(tmp_path / "o.csv")),
         "--fields"),
    ]:
        result = _crown_subprocess(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith(f"crown: error: argument {flag}: ")
        assert result.stderr.endswith(f" {SURROGATE_FAULT}\n")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""
    assert sorted(tmp_path.iterdir()) == before


def test_json_escaped_surrogate_id_is_rejected_at_its_line(tmp_path, capsys) -> None:
    replaced = b'{"id":"p\\ud800","year":2005,"journal":"k","references":["p1","x:1"]}\r\n'
    papers = list(SMALL_INPUT_LINES["papers"])
    papers[1] = replaced
    paths = _write_small_inputs(tmp_path, {"papers": b"".join(papers)})
    assert main(["ingest", "--papers", str(paths["papers"]),
                 "--journals", str(paths["journals"])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"crown: error: line 2: paper id 'p\\ud800' {SURROGATE_FAULT}\n"
    assert captured.out == ""


@pytest.mark.parametrize("window, edges", [("all", 2), ("years1", 1)])
def test_ingest_counts_every_external_key_whatever_the_window(
    tmp_path, capsys, window, edges
) -> None:
    papers = tmp_path / "papers.jsonl"
    papers.write_text(
        '{"id":"p1","year":2000,"journal":"j","references":[]}\n'
        '{"id":"p2","year":2005,"journal":"j","references":["p1","doi:x","doi:y","doi:x"]}\n'
        '{"id":"p3","year":2005,"journal":"j","references":["doi:x","p2"]}\n'
    )
    journals = tmp_path / "journals.csv"
    journals.write_text("id,title,categories\nj,J,a\n")
    argv = ["ingest", "--papers", str(papers), "--journals", str(journals), "--window", window]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[-6:]
    assert rows == ["papers\t3", "journals\t1", f"citation_edges\t{edges}",
                    "external_references\t4", "year_min\t2000", "year_max\t2005"]
