"""Self-test of the benchmark. Run from the root of a bellbet checkout:

    python3 perfbench/selftest.py

It checks, at tiny input sizes, that
  * every workload, untraced and traced, emits exactly the metrics that
    BENCHMARK.json declares, each with its declared unit and a finite value,
    and every end-to-end figure of the workload by name with a unit;
  * every per-layer metric is measured by some workload;
  * a log with one outcome bit flipped between ``run`` and ``analyze`` is
    counted as a failure by both the settle and the audit checks;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits with a nonzero status and prints no result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import benchlib

NAMED = {
    "bet-lifecycle": ("bet_s", "audit_s"),
    "montecarlo-validation": ("mc_short_trials_per_s", "mc_long_trials_per_s"),
    "network-bet": ("net_seq_ms_per_trial", "net_cloned_ms_per_trial"),
}
COMMON_NAMED = ("setup_s", "peak_rss_mb", "failed_frac")


def tiny_sizes() -> dict:
    import montecarlo_validation

    return {
        "bet-lifecycle": {"n": 2000},
        "montecarlo-validation": {
            "sizes": montecarlo_validation.Sizes(
                short_n=200, long_n=5000, seeds_per_sweep=20, results_per_side=2,
                traced_runs_per_side=2,
            )
        },
        "network-bet": {"n": 10},
    }


def check_emitted(problems: list[str]) -> None:
    import run

    measured_layers: set[str] = set()
    for trace in (0, 1):
        declared = run.declared_metrics(trace)
        for name, sizes in tiny_sizes().items():
            with contextlib.redirect_stdout(io.StringIO()):
                doc, result = run.measure(name, 0, 0.0, trace, **sizes)
            where = f"{name} trace={trace}"
            if not doc["correct"]:
                problems.append(f"{where}: outputs judged wrong: {result.failures[:3]}")
            if set(doc["metrics"]) != set(declared):
                problems.append(f"{where}: emitted {sorted(doc['metrics'])}")
            for key, metric in doc["metrics"].items():
                if metric.get("unit") != declared.get(key) or not math.isfinite(metric["value"]):
                    problems.append(f"{where}: bad metric {key}: {metric}")
            for key in NAMED[name] + COMMON_NAMED:
                value = result.named.get(key)
                if value is None or not value[1] or not math.isfinite(value[0]):
                    problems.append(f"{where}: named figure {key} missing or without unit")
            if trace:
                measured_layers |= set(result.metrics)
    unmeasured = set(run.declared_metrics(1)) - measured_layers
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")


def check_flipped_bit(problems: list[str]) -> None:
    import bet_lifecycle

    workdir = benchlib.work_dir("selftest")
    try:
        bet = bet_lifecycle.make_bets(random.Random(0), workdir, 2000)[1]
        run_rc = bet_lifecycle.settle(bet)
        lines = bet.log_path.read_text(encoding="ascii").splitlines()
        record = json.loads(lines[7])
        record["x"] ^= 1
        lines[7] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        bet.log_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with contextlib.redirect_stderr(io.StringIO()):
            analyze_rc, output = bet_lifecycle.audit(bet)
        result = benchlib.Result()
        result.count("run", bet_lifecycle.check_settle(bet, run_rc))
        result.count("analyze", bet_lifecycle.check_audit(analyze_rc, output))
        if result.failed != 2:
            problems.append(f"flipped outcome bit counted as {result.failed} of 2 failures")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = benchlib.work_dir("selftest-bare")
    try:
        shutil.copy(benchlib.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bet-lifecycle", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if child.returncode == 0 or child.stdout.strip():
            problems.append(f"bare directory: exit {child.returncode}, stdout {child.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    benchlib.require_program()
    problems: list[str] = []
    check_emitted(problems)
    check_flipped_bit(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
