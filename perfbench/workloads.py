"""The benchmark's workloads: corpus shape, group files, commands and checks.

Every workload builds its corpus with ``crown synth`` from the benchmark seed
and draws its group files from the generated ids with a ``random.Random``
seeded the same way, so one seed always gives the same input bytes. Commands
name their inputs by bare file name and run with the corpus directory as the
working directory, so report headers (which echo input paths) do not depend
on where the checkout lives; that is what lets ``golden.json`` pin them.

Two scales exist: ``full`` is what the benchmark measures, ``small`` is the
same shape at a fraction of the size, used by ``selfcheck.py``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

PAPERS = "papers.jsonl"
JOURNALS = "journals.csv"
CORPUS_ARGS = ("--papers", PAPERS, "--journals", JOURNALS)


@dataclass(frozen=True)
class Facts:
    """What the benchmark itself knows about a generated corpus."""

    papers: int
    with_references: int
    group_sizes: dict[str, int]


# Draws the group files, file name -> ids, from the corpus ids in file order.
Groups = Callable[[list[str], random.Random], dict[str, list[str]]]
# A check takes the stdout of every command of one op, keyed by command label,
# and returns None when the invariants hold or a one-line reason when not.
Check = Callable[[dict[str, bytes], Facts], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    fields: str
    years: str
    cross_field: str
    multi_cat: str
    groups: Groups
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    loads_per_op: int
    check: Check

    def synth_argv(self, seed: int) -> list[str]:
        return [
            "synth", "--fields", self.fields, "--years", self.years,
            "--cross-field", self.cross_field, "--multi-cat", self.multi_cat,
            "--seed", str(seed), "--papers", PAPERS, "--journals", JOURNALS,
        ]


def write_groups(workload: Workload, papers_jsonl: bytes, seed: int, directory) -> Facts:
    """Draw the group files from the generated ids and write them."""
    ids = []
    with_references = 0
    for line in papers_jsonl.splitlines():
        record = json.loads(line)
        ids.append(record["id"])
        with_references += bool(record["references"])
    groups = workload.groups(ids, random.Random(seed))
    for file_name, members in groups.items():
        (directory / file_name).write_text("\n".join(members) + "\n", encoding="utf-8")
    return Facts(len(ids), with_references,
                 {file_name: len(members) for file_name, members in groups.items()})


def _score_row(stdout: bytes) -> dict[str, str]:
    lines = [line for line in stdout.decode("utf-8").splitlines() if not line.startswith("#")]
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split("\t"), lines[1].split("\t")))


def _check_load(outputs: dict[str, bytes], facts: Facts) -> str | None:
    row = _score_row(outputs["score"])
    if int(row["n_total"]) != facts.group_sizes["group.txt"]:
        return f"n_total {row['n_total']} != {facts.group_sizes['group.txt']}"
    return None


def _check_score_all(outputs: dict[str, bytes], facts: Facts) -> str | None:
    row = _score_row(outputs["score"])
    # Whole-corpus harmonic normalisation: both crown indicators equal 1.
    for column in ("mncs", "cpp_fcsm"):
        if not math.isclose(float(row[column]), 1.0, rel_tol=1e-9):
            return f"{column} {row[column]} != 1.0"
    # Fractional conservation: every citing paper hands out exactly one
    # citation in total, and every reference resolves inside the corpus.
    conserved = float(row["mean_fractional"]) * int(row["n_total"])
    if int(row["n_total"]) != facts.papers or not math.isclose(
        conserved, facts.with_references, rel_tol=1e-9
    ):
        return f"mean_fractional*n_total {conserved!r} != {facts.with_references}"
    return None


def _check_diagnose(outputs: dict[str, bytes], facts: Facts) -> str | None:
    papers = json.loads(outputs["indexer"])["sensitivity"]["papers"]
    if len(papers) != facts.group_sizes["indexer.txt"]:
        return f"indexer reported {len(papers)} papers"
    moved = [paper["paper_id"] for paper in papers if paper["fractional_delta"] != 0.0]
    if moved:
        return f"fractional_delta != 0 for {moved[:3]}"
    ranksum = [line for line in outputs["ranksum"].decode("utf-8").splitlines()
               if not line.startswith("#")]
    if len(ranksum) != 2 or len(ranksum[1].split("\t")) != 6:
        return "ranksum report is not one header and one row"
    rows = [line for line in outputs["consistency"].decode("utf-8").splitlines()
            if not line.startswith("#")]
    if len(rows) != 2 or not rows[1].startswith("false\t"):
        return "consistency search reported a flip for mncs"
    return None


def _diagnose_groups(ids, rng, indexer_size, ranksum_size) -> dict[str, list[str]]:
    indexer = rng.sample(ids, indexer_size)
    pair = rng.sample(ids, 2 * ranksum_size)  # one draw, so the two are disjoint
    return {
        "indexer.txt": indexer,
        "group_a.txt": pair[:ranksum_size],
        "group_b.txt": pair[ranksum_size:],
    }


def _workloads(scale: str) -> dict[str, Workload]:
    small = scale == "small"
    score = ("--weighting", "harmonic", "--window", "all", "--format", "tsv")
    per_100k = 200 if small else 5000
    per_30k = 60 if small else 1500
    per_10k = 20 if small else 100
    load_group = 100 if small else 1000
    indexer_group = 200 if small else 2000
    ranksum_group = 50 if small else 1000
    consistency_max = "3" if small else "5"
    return {
        "load-100k": Workload(
            name="load-100k",
            fields=f"sparse:3:{per_100k},dense:8:{per_100k}",
            years="2000-2009",
            cross_field="0.2",
            multi_cat="1.0",
            groups=lambda ids, rng: {"group.txt": rng.sample(ids, load_group)},
            commands=(("score", ("score", *CORPUS_ARGS, "--group", "group.txt", *score)),),
            loads_per_op=1,
            check=_check_load,
        ),
        "score-all-30k": Workload(
            name="score-all-30k",
            fields=f"sparse:3:{per_30k},dense:8:{per_30k}",
            years="2000-2009",
            cross_field="0.2",
            multi_cat="1.0",
            groups=lambda ids, rng: {"all.txt": ids},
            commands=(("score", ("score", *CORPUS_ARGS, "--group", "all.txt", *score)),),
            loads_per_op=1,
            check=_check_score_all,
        ),
        "diagnose-10k": Workload(
            name="diagnose-10k",
            fields=",".join(
                f"{name}:{refs}:{per_10k}"
                for name, refs in (("algebra", 4), ("ecology", 7), ("neurology", 10),
                                   ("oncology", 15), ("immunology", 25))
            ),
            years="2000-2019",
            cross_field="0.15",
            multi_cat="0.8",
            groups=lambda ids, rng: _diagnose_groups(ids, rng, indexer_group, ranksum_group),
            commands=(
                ("indexer", ("diagnose", "indexer", *CORPUS_ARGS, "--group", "indexer.txt",
                             "--weighting", "arithmetic", "--window", "years5",
                             "--format", "json")),
                ("ranksum", ("diagnose", "ranksum", *CORPUS_ARGS,
                             "--group-a", "group_a.txt", "--group-b", "group_b.txt")),
                ("consistency", ("diagnose", "consistency", "--indicator", "mncs",
                                 "--max-size", "2", "--max-c", consistency_max,
                                 "--max-e", consistency_max)),
            ),
            loads_per_op=2,
            check=_check_diagnose,
        ),
    }


WORKLOADS = _workloads("full")
SMALL_WORKLOADS = _workloads("small")
