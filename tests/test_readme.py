"""The README's library example runs as written against the public API."""

from __future__ import annotations

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crown
from crown.corpus import Corpus, Paper
from crown.indicators import IndicatorReport, ScoredColumns

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys) -> None:
    (tmp_path / "papers.jsonl").write_text(
        '{"id":"p1","year":2005,"journal":"j1","references":[]}\n'
        '{"id":"p2","year":2006,"journal":"j1","references":["p1"]}\n'
        '{"id":"p3","year":2006,"journal":"j2","references":["p1","p2","doi:x"]}\n',
        encoding="utf-8",
    )
    (tmp_path / "journals.csv").write_text(
        "id,title,categories\nj1,Journal One,F|G\nj2,Journal Two,G\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    source = _library_example()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    mncs, mdncs, report_json = capsys.readouterr().out.split(" ", 2)
    report = namespace["report"]
    assert isinstance(report, crown.IndicatorReport)
    assert json.loads(report_json) == report.payload()
    assert report.group == "unit-a"
    assert (report.n_total, report.n_scorable) == (3, 3)
    assert (float(mncs), float(mdncs)) == (report.mncs, report.mdncs)

    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "crown"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(crown.__all__)


def test_public_api_is_the_documented_surface() -> None:
    assert sorted(crown.__all__) == [
        "CitationWindow",
        "CorpusError",
        "DegenerateGroupError",
        "GroupSelection",
        "IndicatorReport",
        "ParseError",
        "Weighting",
        "load_corpus",
        "score_group",
    ]
    for name in crown.__all__:
        assert hasattr(crown, name)


def _resolve(dotted: str) -> object:
    """The module or attribute a dotted ``crown`` name names: its longest
    importable prefix, then an attribute for each part after it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            found = getattr(found, part)
        return found
    raise ModuleNotFoundError(dotted)


def test_every_crown_name_the_readme_gives_exists() -> None:
    names = set(re.findall(r"`(crown(?:\.[A-Za-z_]\w*)+)", README.read_text(encoding="utf-8")))
    assert len(names) >= 19
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError):
            missing.append(name)
    assert missing == []


# The record each instance name of the README's prose reads from.
_INSTANCES = {"corpus": Corpus, "paper": Paper, "report": IndicatorReport,
              "scored": ScoredColumns}


def test_every_instance_name_the_readme_gives_exists() -> None:
    names = set(re.findall(r"`((corpus|paper|report|scored)\.([A-Za-z_]\w*))",
                           README.read_text(encoding="utf-8")))
    assert len(names) >= 10
    missing = [name for name, instance, attribute in sorted(names)
               if not hasattr(_INSTANCES[instance], attribute)]
    assert missing == []


# Standard modules no crown import needs, each costly at interpreter start:
# ``dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis`` and
# ``tokenize``), and ``statistics`` loads ``fractions``, ``decimal`` and
# ``random``.
_START_COSTS = ("dataclasses", "inspect", "statistics")


def _fresh_modules(statement: str, *argv: str) -> list[str]:
    """The sorted ``sys.modules`` names of a new interpreter that has run
    ``statement``, with this checkout's ``src`` first on ``sys.path`` and
    ``argv`` as ``sys.argv[2:]``."""
    src = str(Path(crown.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
        "print(sorted(sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, src, *argv],
        capture_output=True, text=True, timeout=30, check=True,
    )
    return ast.literal_eval(result.stdout)


def test_import_crown_loads_only_the_scoring_layers() -> None:
    assert [name for name in _fresh_modules("import crown") if name.startswith("crown")] == [
        "crown", "crown.baselines", "crown.corpus", "crown.indicators",
    ]
    for module in ("crown", "crown.cli", "crown.synth"):
        loaded = _fresh_modules(f"import {module}")
        assert module in loaded
        assert not set(_START_COSTS) & set(loaded), module


@pytest.mark.parametrize("command", [
    "diagnose consistency",
    "score --papers p.jsonl --journals j.csv --group g.txt",
    "diagnose ranksum --papers p.jsonl --journals j.csv --group-a g.txt --group-b g.txt",
], ids=["consistency", "score", "ranksum"])
def test_a_run_loads_none_of_the_start_costs(tmp_path, monkeypatch, command) -> None:
    # A module imported inside a function is loaded only when a run calls
    # it, so importing crown.cli alone cannot show it.
    (tmp_path / "p.jsonl").write_text(
        '{"id":"p1","year":2005,"journal":"j","references":[]}\n'
        '{"id":"p2","year":2005,"journal":"j","references":["p1"]}\n'
        '{"id":"p3","year":2006,"journal":"j","references":["p1","p2"]}\n',
        encoding="utf-8",
    )
    (tmp_path / "j.csv").write_text("id,title,categories\nj,J,a\n", encoding="utf-8")
    (tmp_path / "g.txt").write_text("p1\np2\np3\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    loaded = _fresh_modules(
        "from crown.cli import main; assert main(sys.argv[2:]) == 0",
        *command.split(), "--out", "report.tsv",
    )
    report = (tmp_path / "report.tsv").read_text(encoding="utf-8")
    assert report.startswith(f"# crown {command.split(' --')[0]}\n")
    assert not set(_START_COSTS) & set(loaded)
