from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crown.cli import main

from conftest import CARDIOLOGY_JOURNALS_CSV

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


def test_group_file_comments_and_blanks_are_ignored(demo, capsys) -> None:
    papers, journals, group = demo
    assert main(
        ["score", "--papers", str(papers), "--journals", str(journals),
         "--group", str(group), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["n_total"] == 15  # comment and blank line skipped


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert main(["score", "--help"]) == 0


def test_synth_nan_mean_is_input_error_not_hang(tmp_path) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "crown", "synth", "--fields", "a:nan:5",
         "--years", "2000-2001", "--papers", str(tmp_path / "p.jsonl"),
         "--journals", str(tmp_path / "j.csv")],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("crown: error: ")
    assert not (tmp_path / "p.jsonl").exists()
