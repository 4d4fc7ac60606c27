"""In-process tracing of one benchmark op, from outside the program.

Run as ``python3 perfbench/tracer.py REQUEST.json``. The request names the
checkout root, a working directory, the ``crown`` argv of each command to run
and where to write the trace. The script imports ``crown`` from the
checkout's ``src/``, replaces the module attributes through which the layers
call each other with recording wrappers, then calls ``crown.cli.main(argv)``
for each command with stdout captured. Nothing under ``src/`` changes: the
wrappers live here and exist only in this process.

Coarse calls (one per command or per pass) become spans with a name, start,
end, parent span and op id. Per-paper calls would make one span each, so they
are tallied instead: a call count and summed seconds per (function, enclosing
span). Spans and tallies stay in memory and are written once, at exit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

# (layer, attribute path in crown.<layer>) of calls recorded as spans.
SPANS = (
    ("cli", "main"),
    ("corpus", "load_corpus"),
    ("corpus", "parse_papers"),
    ("corpus", "parse_journals"),
    ("corpus", "build_corpus"),
    ("corpus", "Corpus.with_journals"),
    ("baselines", "compute_baselines"),
    ("indicators", "score_group"),
    ("indicators", "score_papers"),
    ("diagnostics", "indexer_sensitivity"),
    ("diagnostics", "rank_sum_test"),
    ("diagnostics", "consistency_counterexample"),
    ("synth", "generate_corpus"),
)
# Calls made once per paper, recorded as tallies.
TALLIES = (
    ("baselines", "expected_citations_with_reason"),
    ("indicators", "fractional_score"),
    ("indicators", "combined_percentile"),
)


class Tracer:
    """Spans, tallies, counts and peak RSS of the calls it wraps."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.tallies: dict[tuple[str, int | None], list] = {}
        self.counts: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self.hook_errors: list[str] = []
        self._open: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def mark_rss(self, layer: str) -> None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.peak_rss_mb[layer] = max(self.peak_rss_mb.get(layer, 0.0), rss_mb)

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._open[-1] if self._open else None,
                "op": self.op,
            }
            self._open.append(len(self.spans))
            self.spans.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, ValueError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def tally(self, name: str, fn):
        tallies = self.tallies
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (name, open_spans[-1] if open_spans else None)
                entry = tallies.get(key)
                if entry is None:
                    tallies[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "tallies": [
                {"name": name, "parent": parent, "op": self.op, "calls": calls, "seconds": seconds}
                for (name, parent), (calls, seconds) in self.tallies.items()
            ],
            "counts": self.counts,
            "peak_rss_mb": self.peak_rss_mb,
            "hook_errors": self.hook_errors,
        }


def _after_parse(tracer, args, papers):
    tracer.add("corpus.papers", len(papers))
    tracer.add("corpus.references", sum(len(paper.references) for paper in papers))


def _after_build(tracer, args, corpus):
    tracer.add("corpus.edges", corpus.n_edges)
    tracer.mark_rss("corpus")


def _after_baselines(tracer, args, table):
    tracer.add("baselines.cells", len(table.cells))


def _after_score_papers(tracer, args, scored):
    tracer.add("indicators.papers_scored", len(scored))
    tracer.add("indicators.papers_scorable", sum(1 for paper in scored if paper.scorable))
    tracer.mark_rss("indicators")


def _after_score_group(tracer, args, report):
    tracer.mark_rss("indicators")


def _after_ranksum(tracer, args, result):
    tracer.add("diagnostics.ranksum.observations", result.n_a + result.n_b)


def _after_consistency(tracer, args, found):
    tracer.add("diagnostics.consistency.instances", args[1].instance_count())


def _after_generate(tracer, args, result):
    tracer.add("synth.papers", result[0].count(b"\n"))


AFTER = {
    "corpus.parse_papers": _after_parse,
    "corpus.build_corpus": _after_build,
    "baselines.compute_baselines": _after_baselines,
    "indicators.score_papers": _after_score_papers,
    "indicators.score_group": _after_score_group,
    "diagnostics.rank_sum_test": _after_ranksum,
    "diagnostics.consistency_counterexample": _after_consistency,
    "synth.generate_corpus": _after_generate,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed call wherever a crown module binds it.

    A function imported by name into another module (``from .corpus import
    load_corpus``) is rebound there too, so the wrapper sees calls across
    layers. Returns the names that no longer exist, which are skipped.
    """
    modules = [module for name, module in sys.modules.items()
               if name == "crown" or name.startswith("crown.")]
    missing = []
    for kind, table in (("span", SPANS), ("tally", TALLIES)):
        for layer, path in table:
            name = f"{layer}.{path}"
            owner = sys.modules.get(f"crown.{layer}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            if kind == "span":
                wrapper = tracer.span(name, original, AFTER.get(name))
            else:
                wrapper = tracer.tally(name, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return missing


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    src = Path(request["root"]) / "src"
    sys.path.insert(0, str(src))
    import crown
    import crown.cli  # noqa: F401  (imports every layer)
    import crown.synth  # noqa: F401  (cli imports it lazily)

    if not Path(crown.__file__).resolve().is_relative_to(src.resolve()):
        print(f"tracer: crown imported from {crown.__file__}, not {src}", file=sys.stderr)
        return 1
    tracer = Tracer(request["op"])
    missing = install(tracer)
    os.chdir(request["cwd"])
    results = []
    for label, argv in request["commands"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = crown.cli.main(argv)
        data = captured.getvalue().encode("utf-8")
        results.append({
            "label": label,
            "code": code,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    trace = tracer.as_dict()
    trace.update(results=results, missing=missing)
    Path(request["out"]).write_text(json.dumps(trace), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
