"""Self-check of the benchmark, at a small scale, in well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload at the ``small`` scale with the traced run, and fails
unless every op passes, every metric ``BENCHMARK.json`` declares is
produced, and no end-to-end metric is 0. It then confirms that the checks
bite: one altered stdout byte, or a stdout that differs from the pinned
sha256, counts as a failed op. Last, it runs the benchmark in a directory
holding only ``BENCHMARK.json`` and the benchmark's files, where it must exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import SMALL_WORKLOADS

SEED = 42


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: FAILED: {message}")


def check_workloads(root, declared: dict[str, set[str]]) -> None:
    for name, workload in SMALL_WORKLOADS.items():
        result = run.run(root, workload, SEED, 0.5, True, None)
        if result["failed"]:
            fail(f"{name}: {result['failures']}")
        for kind, names in declared.items():
            produced = set(result[kind]) - set(run.RAW_UNITS)
            if produced != names:
                fail(f"{name}: {kind} metrics {sorted(produced ^ names)} "
                     "are produced or declared, not both")
        zero = [metric for metric, value in result["end_to_end"].items() if value == 0]
        if zero:
            fail(f"{name}: end-to-end metrics read 0: {zero}")
        if result["per_layer"]["cli.main_s"] <= 0 or result["per_layer"]["synth.papers"] <= 0:
            fail(f"{name}: the traced run recorded no spans")
        print(f"selfcheck: {name}: {result['ops']} ops ok, "
              f"op_s_p50={result['end_to_end']['op_s_p50']:.3f} s")


def check_mutation(root) -> None:
    """An altered output byte, or a golden mismatch, is a failed op."""
    for name, workload in SMALL_WORKLOADS.items():
        bench = run.Bench(root, workload, SEED, None)
        try:
            bench.setup()
            if bench.run_op().failure is not None:
                fail(f"{name}: clean op failed")
            outputs = {label: (bench.out_dir / f"{label}.out").read_bytes()
                       for label, _ in workload.commands}
            codes = {label: 0 for label in outputs}
            if bench.checker.check(codes, outputs) is not None:
                fail(f"{name}: re-checking the clean outputs failed")
            for label, data in outputs.items():
                altered = bytearray(data)
                altered[len(altered) // 2] ^= 0x01
                if bench.checker.check(codes, {**outputs, label: bytes(altered)}) is None:
                    fail(f"{name}: an altered byte in {label!r} stdout passed")
            pinned = {label: "0" * 64 for label in outputs}
            golden_checker = run.Checker(workload, bench.facts, pinned)
            if golden_checker.check(codes, outputs) is None:
                fail(f"{name}: stdout that differs from the pinned sha256 passed")
        finally:
            shutil.rmtree(bench.workdir, ignore_errors=True)
    print("selfcheck: altered bytes and golden mismatches count as failed ops")


def check_bare_directory(root) -> None:
    """Without the program's sources the benchmark exits non-zero, silently."""
    bare = root / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        argv = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
        done = subprocess.run(
            [*argv, "--workload", next(iter(SMALL_WORKLOADS)), "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    print(f"selfcheck: bare directory exits {done.returncode} without a result")


def main() -> int:
    root = run.BENCH_DIR.parent
    declared = {kind: set(units) for kind, units in run.declared_units(root).items()}
    check_workloads(root, declared)
    check_mutation(root)
    check_bare_directory(root)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
