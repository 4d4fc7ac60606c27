"""Closed-loop benchmark of the ``crown`` CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. One client runs one op at a time, each op
being the workload's ``crown`` commands, each in its own child process
(``python -m crown`` with ``src/`` on ``PYTHONPATH``), until ``--seconds``
have passed. ``reference.py`` runs before the first op and after each one;
the gated times are op times relative to it (see README.md). Every op is
checked: exit code 0, stdout byte-identical to the run's first op, the
workload's invariants, and at the default seed the sha256 pinned in
``golden.json``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the same loop runs, then one traced op in a separate process
(``tracer.py``), and the last line holds the per-layer metrics. The metric
names and units come from ``BENCHMARK.json``. Spans and a result record are
kept under ``.perfbench_out/``; generated inputs live under
``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from workloads import JOURNALS, PAPERS, WORKLOADS, Facts, Workload, write_groups

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 42
SETUP_REPS = 3
STARTUP_REPS = 5
MIN_OPS = 3
CHILD_TIMEOUT_S = 120.0
# Raw host-time figures: printed and recorded, but not gated on, because
# they drift with the host (see reference.py).
RAW_UNITS = {"op_s_p50": "s", "op_cpu_s_p50": "s", "papers_per_s": "1/s", "ref_s_p50": "s"}


class SetupError(RuntimeError):
    """The workload's inputs could not be generated or are not the pinned ones."""


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass(frozen=True)
class Op:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None
    # Mean wall and CPU seconds of the reference ops run just before and after.
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Decides whether one op's outputs are correct."""

    def __init__(self, workload: Workload, facts: Facts, golden: dict[str, str] | None):
        self.workload = workload
        self.facts = facts
        self.golden = golden
        self.reference: dict[str, str] | None = None
        self._verdicts: dict[tuple, str | None] = {}

    def check(self, codes: dict[str, int], outputs: dict[str, bytes]) -> str | None:
        shas = {label: sha256(data) for label, data in outputs.items()}
        if self.reference is None:
            self.reference = shas
        bad_codes = {label: code for label, code in codes.items() if code != 0}
        if bad_codes:
            return f"exit codes {bad_codes}"
        return self.check_shas(shas, outputs)

    def check_shas(self, shas: dict[str, str], outputs: dict[str, bytes] | None) -> str | None:
        if shas != self.reference:
            return "stdout differs from the run's first op"
        if self.golden is not None and shas != self.golden:
            return "stdout differs from the sha256 pinned in golden.json"
        key = tuple(sorted(shas.items()))
        if key not in self._verdicts:
            if outputs is None:
                return "no output to check"
            try:
                self._verdicts[key] = self.workload.check(outputs, self.facts)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._verdicts[key] = f"unreadable report: {exc!r}"
        return self._verdicts[key]


class Bench:
    """One benchmark run: set-up, the timed loop and the optional trace."""

    def __init__(self, root: Path, workload: Workload, seed: int, golden: dict | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.workdir = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.corpus_dir = self.workdir / "corpus"
        self.out_dir = self.workdir / "out"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        self.facts: Facts | None = None
        self.corpus_sha: dict[str, str] = {}
        self.setup_times: list[float] = []
        self.ops: list[Op] = []
        self.checker: Checker | None = None
        self.last_reference: Child | None = None

    def spawn(self, argv: list[str], cwd: Path, stdout: Path) -> Child:
        """Run one child to completion; wall from spawn to exit, rusage of that child."""
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def crown(self, argv, cwd: Path, label: str) -> tuple[Child, bytes]:
        stdout = self.out_dir / f"{label}.out"
        child = self.spawn([sys.executable, "-m", "crown", *argv], cwd, stdout)
        return child, stdout.read_bytes()

    def setup(self) -> None:
        """Generate the corpus and group files SETUP_REPS times, timing each."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPS):
            shutil.rmtree(self.corpus_dir, ignore_errors=True)
            self.corpus_dir.mkdir(parents=True)
            start = time.perf_counter()
            child, _ = self.crown(self.workload.synth_argv(self.seed), self.corpus_dir, "synth")
            if child.code != 0:
                raise SetupError(f"crown synth exited {child.code}")
            papers = (self.corpus_dir / PAPERS).read_bytes()
            facts = write_groups(self.workload, papers, self.seed, self.corpus_dir)
            self.setup_times.append(time.perf_counter() - start)
            shas = {PAPERS: sha256(papers), JOURNALS: sha256((self.corpus_dir / JOURNALS).read_bytes())}
            if self.corpus_sha and shas != self.corpus_sha:
                raise SetupError("crown synth gave different bytes for the same seed")
            self.corpus_sha, self.facts = shas, facts
        if self.golden is not None and self.corpus_sha != self.golden["corpus"]:
            raise SetupError(f"corpus sha256 {self.corpus_sha} != golden.json {self.golden['corpus']}")
        self.checker = Checker(self.workload, self.facts,
                               None if self.golden is None else self.golden["stdout"])

    def reference(self) -> Child:
        child = self.spawn([sys.executable, str(BENCH_DIR / "reference.py")], self.workdir,
                           self.out_dir / "reference.out")
        if child.code != 0:
            raise SetupError(f"reference op exited {child.code}")
        return child

    def run_op(self) -> Op:
        wall = cpu = rss = 0.0
        codes, outputs = {}, {}
        for label, argv in self.workload.commands:
            child, outputs[label] = self.crown(argv, self.corpus_dir, label)
            codes[label] = child.code
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        return Op(wall, cpu, rss, self.checker.check(codes, outputs))

    def bracketed(self, op) -> Op:
        """Run op() between two reference ops and attach their mean times."""
        before = self.last_reference or self.reference()
        result = op()
        after = self.last_reference = self.reference()
        return replace(
            result,
            ref_wall_s=(before.wall_s + after.wall_s) / 2,
            ref_cpu_s=(before.cpu_s + after.cpu_s) / 2,
        )

    def loop(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.ops) < MIN_OPS or time.perf_counter() < deadline:
            self.ops.append(self.bracketed(self.run_op))

    def end_to_end(self) -> dict[str, float]:
        ops = self.ops
        walls = [op.wall_s for op in ops]
        relative = [op.wall_s / op.ref_wall_s for op in ops]
        failed = sum(op.failure is not None for op in ops)
        papers = self.facts.papers * self.workload.loads_per_op * len(ops)
        return {
            "op_rel_p50": statistics.median(relative),
            "op_cpu_rel_p50": statistics.median(op.cpu_s / op.ref_cpu_s for op in ops),
            # Throughput at the median op: the sum of relative times moves
            # with every slow outlier, the median does not.
            "papers_per_ref": papers / len(ops) / statistics.median(relative),
            "peak_rss_mb": max(op.rss_mb for op in ops),
            "ok_ops_frac": 1.0 - failed / len(ops),
            "setup_s": statistics.median(self.setup_times),
            "op_s_p50": statistics.median(walls),
            "op_cpu_s_p50": statistics.median(op.cpu_s for op in ops),
            "papers_per_s": papers / sum(walls),
            "ref_s_p50": statistics.median(op.ref_wall_s for op in ops),
        }

    def traced(self, op: str, commands, cwd: Path) -> tuple[dict, float]:
        request = self.workdir / f"trace-{op}.request.json"
        out = self.workdir / f"trace-{op}.json"
        request.write_text(json.dumps({
            "root": str(self.root), "cwd": str(cwd), "op": op, "out": str(out),
            "commands": [[label, list(argv)] for label, argv in commands],
        }), encoding="utf-8")
        child = self.spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(request)],
                           cwd, self.out_dir / f"trace-{op}.out")
        if child.code != 0:
            raise SetupError(f"traced {op} exited {child.code}: "
                             + (self.out_dir / f"trace-{op}.err").read_text()[-2000:])
        return json.loads(out.read_text(encoding="utf-8")), child.wall_s

    def trace(self) -> tuple[dict[str, float], dict]:
        """One traced op and one traced set-up, each in a fresh process."""
        startup = [
            self.spawn([sys.executable, "-c", "import crown.cli"], self.corpus_dir,
                       self.out_dir / "startup.out").wall_s
            for _ in range(STARTUP_REPS)
        ]
        traces = {}

        def traced_op() -> Op:
            traces["op"], wall = self.traced("op", self.workload.commands, self.corpus_dir)
            results = traces["op"]["results"]
            bad = {result["label"]: result["code"] for result in results if result["code"] != 0}
            shas = {result["label"]: result["sha256"] for result in results}
            return Op(wall, 0.0, 0.0,
                      f"exit codes {bad}" if bad else self.checker.check_shas(shas, None))

        traced = self.bracketed(traced_op)
        self.ops.append(traced)
        op_trace = traces["op"]

        synth_dir = self.workdir / "trace-synth"
        synth_dir.mkdir()
        setup_trace, _ = self.traced(
            "setup", [("synth", self.workload.synth_argv(self.seed))], synth_dir)
        if sha256((synth_dir / PAPERS).read_bytes()) != self.corpus_sha[PAPERS]:
            raise SetupError("traced crown synth gave different bytes")

        startup_s = statistics.median(startup)
        untraced = statistics.median(op.wall_s / op.ref_wall_s for op in self.ops[:-1])
        # The traced op runs every command in one process, so add back the
        # interpreter starts the untraced op pays for its other commands.
        traced_op_s = traced.wall_s + (len(self.workload.commands) - 1) * startup_s
        metrics = layer_metrics(op_trace, setup_trace)
        metrics["cli.startup_s"] = startup_s
        metrics["trace.overhead_frac"] = traced_op_s / traced.ref_wall_s / untraced - 1.0
        spans = {"op": op_trace, "setup": setup_trace}
        return metrics, spans


def self_times(trace: dict) -> dict[str, float]:
    """Seconds each layer spent outside the spans and tallies it called."""
    spans = trace["spans"]
    inner = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            inner[span["parent"]] += span["end"] - span["start"]
    for tally in trace["tallies"]:
        if tally["parent"] is not None:
            inner[tally["parent"]] += tally["seconds"]
    own: dict[str, float] = {}
    for index, span in enumerate(spans):
        layer = span["name"].split(".")[0]
        own[layer] = own.get(layer, 0.0) + span["end"] - span["start"] - inner[index]
    for tally in trace["tallies"]:
        layer = tally["name"].split(".")[0]
        own[layer] = own.get(layer, 0.0) + tally["seconds"]
    return own


def layer_metrics(op: dict, setup: dict) -> dict[str, float]:
    """Per-layer metrics from the traced op and the traced set-up."""

    def seconds(trace, *names):
        return sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] in names)

    def calls(trace, name):
        return (sum(1 for s in trace["spans"] if s["name"] == name)
                + sum(t["calls"] for t in trace["tallies"] if t["name"] == name))

    def tallied(trace, name):
        return sum(t["seconds"] for t in trace["tallies"] if t["name"] == name)

    def under(trace, index, ancestor):
        spans = trace["spans"]
        parent = spans[index]["parent"]
        while parent is not None:
            if spans[parent]["name"] == ancestor:
                return True
            parent = spans[parent]["parent"]
        return False

    counts = op["counts"]
    own = self_times(op)
    references = counts.get("corpus.references", 0)
    scored = counts.get("indicators.papers_scored", 0)
    return {
        "cli.main_s": seconds(op, "cli.main"),
        "cli.self_s": own.get("cli", 0.0),
        "cli.output_bytes": sum(result["bytes"] for result in op["results"]),
        "corpus.parse_s": seconds(op, "corpus.parse_papers", "corpus.parse_journals"),
        "corpus.build_s": seconds(op, "corpus.build_corpus"),
        "corpus.with_journals_s": seconds(op, "corpus.Corpus.with_journals"),
        "corpus.self_s": own.get("corpus", 0.0),
        "corpus.papers": counts.get("corpus.papers", 0),
        "corpus.references": references,
        "corpus.edges": counts.get("corpus.edges", 0),
        "corpus.edge_yield": counts.get("corpus.edges", 0) / references if references else 0.0,
        "corpus.peak_rss_mb": op["peak_rss_mb"].get("corpus", 0.0),
        "baselines.compute_s": seconds(op, "baselines.compute_baselines"),
        "baselines.compute.calls": calls(op, "baselines.compute_baselines"),
        "baselines.cells": counts.get("baselines.cells", 0),
        "baselines.expected_s": tallied(op, "baselines.expected_citations_with_reason"),
        "baselines.expected.calls": calls(op, "baselines.expected_citations_with_reason"),
        "baselines.self_s": own.get("baselines", 0.0),
        "indicators.score_group_s": seconds(op, "indicators.score_group"),
        "indicators.score_papers_s": seconds(op, "indicators.score_papers"),
        "indicators.score_papers.calls": calls(op, "indicators.score_papers"),
        "indicators.papers_scored": scored,
        "indicators.fractional_s": tallied(op, "indicators.fractional_score"),
        "indicators.fractional.calls": calls(op, "indicators.fractional_score"),
        "indicators.percentile_s": tallied(op, "indicators.combined_percentile"),
        "indicators.scorable_ratio":
            counts.get("indicators.papers_scorable", 0) / scored if scored else 0.0,
        "indicators.peak_rss_mb": op["peak_rss_mb"].get("indicators", 0.0),
        "indicators.self_s": own.get("indicators", 0.0),
        "diagnostics.indexer_s": seconds(op, "diagnostics.indexer_sensitivity"),
        "diagnostics.indexer.score_passes": sum(
            1 for index, span in enumerate(op["spans"])
            if span["name"] == "indicators.score_papers"
            and under(op, index, "diagnostics.indexer_sensitivity")
        ),
        "diagnostics.ranksum_s": seconds(op, "diagnostics.rank_sum_test"),
        "diagnostics.ranksum.observations": counts.get("diagnostics.ranksum.observations", 0),
        "diagnostics.consistency_s": seconds(op, "diagnostics.consistency_counterexample"),
        "diagnostics.consistency.instances":
            counts.get("diagnostics.consistency.instances", 0),
        "diagnostics.self_s": own.get("diagnostics", 0.0),
        "synth.generate_s": seconds(setup, "synth.generate_corpus"),
        "synth.papers": setup["counts"].get("synth.papers", 0),
        "synth.self_s": self_times(setup).get("synth", 0.0),
    }


def load_golden(workload: str, seed: int) -> dict | None:
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    if seed != golden["seed"]:
        return None
    return golden["workloads"][workload]


def declared_units(root: Path) -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
        golden: dict | None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    bench = Bench(root, workload, seed, golden)
    try:
        bench.setup()
        bench.loop(seconds)
        end_to_end = bench.end_to_end()
        layers, spans = bench.trace() if trace else ({}, None)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    failures = [op.failure for op in bench.ops if op.failure is not None]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus_sha256": bench.corpus_sha,
        "stdout_sha256": bench.checker.reference,
        "golden_checked": golden is not None,
        "ops": len(bench.ops),
        "timed_ops": len(bench.ops) - (1 if trace else 0),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "op_wall_s": [op.wall_s for op in bench.ops],
        "ref_wall_s": [op.ref_wall_s for op in bench.ops],
        "setup_wall_s": bench.setup_times,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "spans": spans,
    }


def report(result: dict, units: dict[str, dict[str, str]]) -> dict:
    """Print the human summary and return the machine-readable result line."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    metrics = {name: {"value": result[kind][name], "unit": unit}
               for name, unit in units[kind].items()}
    walls = sorted(result["op_wall_s"][:result["timed_ops"]])
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={int(result['trace'])} python={result['python']} nproc={result['nproc']}")
    for name, digest in result["corpus_sha256"].items():
        print(f"  corpus {name} sha256={digest}")
    for label, digest in (result["stdout_sha256"] or {}).items():
        print(f"  stdout {label} sha256={digest}")
    print(f"  ops: {result['ops']} attempted, {result['failed']} failed "
          f"(failed_ops_frac={result['failed'] / result['ops']!r}); timed ops n={len(walls)}, "
          f"min {walls[0]:.3f} s, max {walls[-1]:.3f} s; "
          f"golden {'checked' if result['golden_checked'] else 'not checked (seed)'}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    all_units = {**RAW_UNITS, **units["end_to_end"], **units["per_layer"]}
    for name, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"  {name:<36} {value!r} {all_units[name]}"
              f"{'  (host time, not gated)' if name in RAW_UNITS else ''}")
    if result["trace"]:
        for kind, trace in result["spans"].items():
            for problem in ("missing", "hook_errors"):
                if trace[problem]:
                    print(f"  trace {kind} {problem}: {trace[problem]}")
        layers = result["per_layer"]
        main_s = layers["cli.main_s"]
        print(f"  split: parse+build {(layers['corpus.parse_s'] + layers['corpus.build_s']) / main_s:.1%}"
              f", score_group {layers['indicators.score_group_s'] / main_s:.1%} of cli.main_s")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "crown" / "cli.py").is_file():
        print(f"perfbench: no crown sources at {root / 'src' / 'crown'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**64  # crown synth takes unsigned 64-bit seeds
    units = declared_units(root)
    try:
        result = run(root, WORKLOADS[args.workload], seed, args.seconds, bool(args.trace),
                     load_golden(args.workload, seed))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    line = report(result, units)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
