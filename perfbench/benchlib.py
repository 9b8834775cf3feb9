"""Shared pieces of the bellbet benchmark: locating the program, the result
record, sample statistics, peak memory, the timed pass loop and the span
tracer used by traced runs.

The benchmark imports ``bellbet`` from ``src/`` of the checkout it runs in
(the current directory) and from nowhere else, so it always measures the
code beside it.

The host this was written on changes speed by about 1.5x, in phases that
last from seconds to several whole runs. So the in-process workloads report
their times, and ``network-bet`` its set-up time, at a reference speed: a
fixed probe that uses no bellbet code runs between operations, and each
operation's time is scaled by the probe's reference time over the probes
just before and after it (``SpeedGauge``). The summary lines print the
wall-clock figures beside the scaled ones.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# The fixed roster, by the short label used in metric names (metric names
# are limited to 64 characters) and the side it stands for.
ROSTER = {
    "quantum": None,
    "constant": "constant",
    "coin": "independent-coin",
    "polarizer": "classical-polarizer",
    "det-opt": "deterministic-optimal",
    "adaptive": "adaptive-frequency-tracker",
}
LOCAL_SIDES = tuple(label for label, name in ROSTER.items() if name is not None)


def config_doc(label: str, n: int, seed: int, mode: str = "sequential") -> dict:
    """A bet config at the default optimal angles with C = "auto"."""
    name = ROSTER[label]
    side = (
        {"kind": "quantum", "correlation_sense": "equal-polarization"}
        if name is None
        else {"kind": "strategy", "strategy": name, "params": {}}
    )
    return {
        "mode": mode,
        "angles": [math.pi / 8.0, 3.0 * math.pi / 8.0, -math.pi / 4.0, 0.0],
        "side": side,
        "n": n,
        "critical_value": "auto",
        "seed": seed,
        "target_error": 1e-6,
    }


class ProgramMissing(RuntimeError):
    """The directory the benchmark runs in holds no bellbet sources."""


def require_program() -> None:
    """Put ``./src`` first on the import path and check that ``bellbet``
    resolves there; raise ProgramMissing otherwise."""
    if not (SRC / "bellbet" / "__init__.py").is_file():
        raise ProgramMissing(f"no bellbet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellbet

    if Path(bellbet.__file__).resolve().parent != (SRC / "bellbet").resolve():
        raise ProgramMissing(f"bellbet resolved to {bellbet.__file__}, not {SRC}")


@dataclass
class Result:
    """What one workload run measured.

    ``metrics`` holds the values of the metrics BENCHMARK.json declares
    (end-to-end with tracing off, per-layer with tracing on); their units
    come from BENCHMARK.json. ``named`` holds the workload's end-to-end
    figures under their descriptive names, as value, unit and a note on the
    samples, for the human-readable summary.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)

    def count(self, what: str, problems: list[str]) -> None:
        """Record one attempted operation and whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)

    def name(self, key: str, samples: list[float], unit: str, scale: float = 1.0, best: bool = False) -> float:
        """A named figure from ``samples`` (times ``scale``): their minimum
        when ``best``, else their median."""
        value = (min(samples) if best else statistics.median(samples)) * scale
        self.named[key] = (value, unit, describe(samples, scale, best))
        return value


def describe(samples: list[float], scale: float = 1.0, best: bool = False) -> str:
    """Sample count and median, plus p90 or p75 when at least ten samples
    lie above it."""
    n = len(samples)
    mid = statistics.median(samples) * scale
    note = f"best of {n}, median {mid:.6g}" if best else f"median of {n}"
    for pct in (90, 75):
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1] * scale
            note += f", p{pct} {cut:.6g}"
            break
    return note


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def passes(seconds: float, at_least: int = 1):
    """Yield pass numbers 0, 1, ... until ``seconds`` have elapsed and at
    least ``at_least`` passes have run; a pass that starts runs to its end."""
    start = time.perf_counter()
    k = 0
    while k < at_least or time.perf_counter() - start < seconds:
        yield k
        k += 1


# Median seconds of ``probe()`` on the machine the benchmark was written on
# (2 vCPUs of a 2.1 GHz Xeon, shared host) in its fast phase. Scaled times are
# wall times as that machine measures them in that phase.
PROBE_REFERENCE_S = 0.0092


def probe() -> float:
    """Seconds of a fixed piece of work like the program's own and using none
    of its code: a Python loop over dict lookups, integer arithmetic and list
    appends, like the engine's, then NumPy passes over arrays of the two bet
    lengths, like the kernels'."""
    t0 = time.perf_counter()
    for _ in range(2):
        acc, table, bits = 0, {}, []
        for i in range(12_000):
            key = (i * 2654435761) & 1023
            acc = (acc + table.get(key, i)) & 0xFFFFFFFF
            table[key] = acc ^ i
            bits.append(acc & 1)
        gen = np.random.Generator(np.random.Philox(7))
        for size in (2000,) * 10 + (25_000,) * 2:
            u = gen.random(size)
            np.maximum.accumulate(np.cumsum(np.where(u < 0.5, 1, -1)))
            np.bincount((u * 4.0).astype(np.int64), minlength=4)
    return time.perf_counter() - t0


class SpeedGauge:
    """Scales operation times to the reference speed of ``PROBE_REFERENCE_S``.

    Call ``factor()`` right after each timed operation (or group of short
    ones): it runs the probe and returns the reference time over the mean of
    this probe and the one before, the machine's speed around the operation.
    A slow phase of the host stretches the operation and the probes alike, so
    the product of the two stays put while the program's own speed shows.
    """

    def __init__(self):
        self._last = probe()

    def factor(self) -> float:
        before, self._last = self._last, probe()
        return PROBE_REFERENCE_S / ((before + self._last) / 2.0)


def work_dir(workload: str) -> Path:
    path = OUT_DIR / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written when the
    run ends.

    Calls made once per trial are too many to keep as spans; ``add`` folds
    their time into the innermost open span, per name, as a count and a
    total. A span's self time is its duration minus its child spans and its
    folded calls.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "root": parent["root"] if parent else len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
            "calls": {},
            "child_s": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    def add(self, name: str, seconds: float) -> None:
        calls = self._open[-1]["calls"]
        slot = calls.get(name)
        if slot is None:
            calls[name] = [1, seconds]
        else:
            slot[0] += 1
            slot[1] += seconds

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    @staticmethod
    def self_time(rec: dict) -> float:
        folded = sum(total for _, total in rec["calls"].values())
        return rec["end"] - rec["start"] - rec["child_s"] - folded

    def find(self, name: str, **attrs) -> list[dict]:
        return [
            rec
            for rec in self.spans
            if rec["name"] == name and all(rec["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                doc = {k: rec[k] for k in ("id", "root", "parent", "name", "attrs", "start", "end")}
                doc["self_s"] = self.self_time(rec)
                doc["calls"] = rec["calls"]
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def span(tracer: Tracer | None, name: str, **attrs):
    """``tracer.span(...)``, or nothing when the run is not traced."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def time_calls(fn, *args, repeat: int) -> float:
    """Median seconds per call of ``fn(*args)`` over ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
