"""The bellbet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a bellbet checkout: the benchmark measures the sources
in ./src and exits with status 2 when there are none. One workload runs in
this process, one operation at a time; ``all`` runs each workload in a
process of its own, one after the other.

The run checks the program's outputs, prints every end-to-end figure of the
workload by name and unit, and prints as the last line of stdout one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, the run keeps spans in
memory and writes them to ``.perfbench/trace-<workload>-<seed>.jsonl`` at the
end. A per-layer metric of a layer the workload does not use reads 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys

import benchlib

WORKLOADS = ("bet-lifecycle", "montecarlo-validation", "network-bet")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(name: str, seed: int, seconds: float, trace: int, **sizes) -> tuple[dict, benchlib.Result]:
    """Run one workload; returns the result document and the raw Result.
    ``sizes`` overrides the workload's input sizes (the self-test shrinks
    them)."""
    runner = importlib.import_module(name.replace("-", "_")).run
    declared = declared_metrics(trace)
    tracer = benchlib.Tracer() if trace else None
    workdir = benchlib.work_dir(name)
    try:
        result = runner(seed, seconds, tracer, workdir, **sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss = benchlib.peak_rss_mb()
    result.named["peak_rss_mb"] = (rss, "MB", "this process")
    result.named["failed_frac"] = (
        result.failed / result.attempted,
        "1",
        f"{result.failed} of {result.attempted} operations",
    )
    if tracer is None:
        values = dict(result.metrics, peak_rss_mb=rss)
        if set(values) != set(declared):
            raise RuntimeError(f"{name} measured {sorted(values)}, BENCHMARK.json declares {sorted(declared)}")
    else:
        unknown = set(result.metrics) - set(declared)
        if unknown:
            raise RuntimeError(f"{name} measured undeclared layer metrics {sorted(unknown)}")
        values = dict.fromkeys(declared, 0.0)
        values.update(result.metrics)
        tracer.write(benchlib.OUT_DIR / f"trace-{name}-{seed}.jsonl")
    doc = {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()},
    }
    return doc, result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    doc, result = measure(name, seed, seconds, trace)
    for key, (value, unit, note) in result.named.items():
        print(f"{name}  {key} = {value:.6g} {unit}  ({note})")
    for failure in result.failures[:20]:
        print(f"{name}  FAILED {failure}")
    return doc


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=benchlib.ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, metric in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchlib.require_program()
    except benchlib.ProgramMissing as exc:
        print(f"perfbench: {exc}; run from the root of a bellbet checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        doc = run_all(args)
    else:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
