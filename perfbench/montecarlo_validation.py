"""Workload ``montecarlo-validation``: the Monte-Carlo checks of the bounds
(acceptance criteria 5 and 6), through the vectorized kernels.

Per pass: ``simulate_many`` over a block of fresh seeds at n = 2000 for each
local side (the criterion-5 shape), then ``simulate_result`` at n = 25 000
for the quantum, polarizer and deterministic sides (the criterion-6 shape).
Short runs are dominated by fixed per-run cost, long runs by vector work, so
the two shapes are timed apart.

Correctness: the criterion-5 drift and Bernstein-tail inequalities over all
seeds swept in the run, the criterion-6 verdicts, and, outside the timed
region, one seed per side cross-checked byte for byte against the engine.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from bellbet.bounds import bernstein_sup_bound, design_for
from bellbet.config import config_from_dict
from bellbet.montecarlo import simulate_many, simulate_result, simulate_run
from bellbet.quantum import OracleSampler, QuantumModel
from bellbet.referee import build_report, run_experiment
from bellbet.rng import ROLE_ORACLE, TrialUniforms, settings_cells
from bellbet.strategies import build_strategy

from benchlib import LOCAL_SIDES, Result, SpeedGauge, Tracer, config_doc, describe, passes, time_calls

LONG_SIDES = ("quantum", "polarizer", "det-opt")
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Sizes:
    short_n: int = 2000
    long_n: int = 25_000
    seeds_per_sweep: int = 400
    results_per_side: int = 20
    traced_runs_per_side: int = 40


def cross_check(label: str, n: int, seed: int) -> list[str]:
    """The kernels against the engine for one config."""
    config = config_from_dict(config_doc(label, n, seed))
    engine = run_experiment(config)
    kernel = simulate_result(config)
    problems = []
    if kernel.log.to_bytes() != engine.log.to_bytes():
        problems.append("simulate_result log differs from the engine's")
    if build_report(kernel) != build_report(engine):
        problems.append("simulate_result report differs from the engine's")
    finals, sups = simulate_many(config.side, config.angles, n, [seed])
    if (int(finals[0]), int(sups[0])) != (engine.trace.statistic, engine.trace.sup):
        problems.append("simulate_many statistic or supremum differs from the engine's")
    return problems


def criterion5(n: int, finals: np.ndarray, sups: np.ndarray) -> list[str]:
    """Drift within four standard deviations of the variance budget, and the
    supremum's tail frequency under the Bernstein bound at k = 2 and 3."""
    problems = []
    drift_limit = 4.0 * math.sqrt(0.75 * n / len(finals))
    if finals.mean() > drift_limit:
        problems.append(f"mean S_n {finals.mean():.3f} exceeds drift limit {drift_limit:.3f}")
    for k in (2.0, 3.0):
        threshold = (math.sqrt(3.0) / 2.0) * k * math.sqrt(n)
        freq = float((sups >= threshold).mean())
        bound = bernstein_sup_bound(n, threshold)
        if freq > bound:
            problems.append(f"tail frequency {freq} at k={k} exceeds bound {bound}")
    return problems


def setup_seconds(docs: list[dict]) -> float:
    """Mean per simulated bet of the work before the first trial: parse the
    config, then build the settings and draw buffers and the design."""
    t0 = time.perf_counter()
    for doc in docs:
        config = config_from_dict(doc)
        settings_cells(config.seed, config.n)
        if config.side.kind == "quantum":
            OracleSampler(QuantumModel(config.angles), config.seed, config.n)
        else:
            build_strategy(config.side.strategy).prepare(
                seed=config.seed, n=config.n, angles=config.angles, mode=config.mode
            )
        design_for(config.n, config.critical_value, config.qm_mean_per_trial)
    return (time.perf_counter() - t0) / len(docs)


def short_sweep(sizes: Sizes, seeds: range, result: Result, gauge: SpeedGauge, swept: dict) -> tuple[float, float]:
    """Seconds for ``simulate_many`` over ``seeds`` for every local side, as
    measured and at the reference speed."""
    elapsed = scaled = 0.0
    for label in LOCAL_SIDES:
        config = config_from_dict(config_doc(label, sizes.short_n, 0))
        t0 = time.perf_counter()
        finals, sups = simulate_many(config.side, config.angles, sizes.short_n, seeds)
        took = time.perf_counter() - t0
        elapsed += took
        scaled += took * gauge.factor()
        swept[label].append((finals, sups))
        result.count(
            f"simulate_many {label}",
            [] if len(finals) == len(sups) == len(seeds) else ["missing runs"],
        )
    return elapsed, scaled


def long_set(sizes: Sizes, rng: random.Random, result: Result, gauge: SpeedGauge) -> tuple[float, float]:
    """Seconds for ``simulate_result`` on fresh seeds for the long sides, as
    measured and at the reference speed."""
    elapsed = scaled = 0.0
    for label in LONG_SIDES:
        promised = "quantum-claimant" if label == "quantum" else "local-realist"
        took = 0.0
        for _ in range(sizes.results_per_side):
            config = config_from_dict(config_doc(label, sizes.long_n, rng.randrange(2**32)))
            t0 = time.perf_counter()
            run = simulate_result(config)
            took += time.perf_counter() - t0
            winner = run.verdict.winner if run.verdict else None
            result.count(
                f"simulate_result {label}",
                [] if winner == promised else [f"verdict {winner!r}, design promises {promised!r}"],
            )
        elapsed += took
        scaled += took * gauge.factor()
    return elapsed, scaled


def traced_pass(sizes: Sizes, rng: random.Random, tracer: Tracer, samples: dict) -> None:
    """Single kernel calls, each in a span, and the draw buffers."""
    for label in LOCAL_SIDES:
        config = config_from_dict(config_doc(label, sizes.short_n, 0))
        for _ in range(sizes.traced_runs_per_side):
            seed = rng.randrange(2**32)
            with tracer.span("montecarlo.simulate_run", side=label, n="short"):
                simulate_run(config.side, config.angles, sizes.short_n, seed)
    for label in LONG_SIDES:
        for _ in range(max(1, sizes.results_per_side // 4)):
            config = config_from_dict(config_doc(label, sizes.long_n, rng.randrange(2**32)))
            with tracer.span("montecarlo.simulate_run", side=label, n="long"):
                simulate_run(config.side, config.angles, sizes.long_n, config.seed)
            with tracer.span("montecarlo.simulate_result", side=label):
                simulate_result(config)
    seed = rng.randrange(2**32)
    for key, n in (("n2000", sizes.short_n), ("n25000", sizes.long_n)):
        samples[f"rng.settings_cells_us.{key}"].append(
            time_calls(settings_cells, seed, n, repeat=50) * 1e6
        )
        samples[f"rng.trial_uniforms_us.{key}"].append(
            time_calls(TrialUniforms, seed, ROLE_ORACLE, n, repeat=50) * 1e6
        )


def layer_metrics(tracer: Tracer, samples: dict) -> dict[str, float]:
    def med_ms(name, **attrs):
        return median([Tracer.duration(r) for r in tracer.find(name, **attrs)]) * 1e3

    metrics = {key: median(values) for key, values in samples.items()}
    for label in LOCAL_SIDES:
        metrics[f"montecarlo.simulate_run_ms.{label}.n2000"] = med_ms(
            "montecarlo.simulate_run", side=label, n="short"
        )
    for label in LONG_SIDES:
        metrics[f"montecarlo.simulate_run_ms.{label}.n25000"] = med_ms(
            "montecarlo.simulate_run", side=label, n="long"
        )
        metrics[f"montecarlo.simulate_result_ms.{label}"] = med_ms(
            "montecarlo.simulate_result", side=label
        )
    return metrics


def run(seed: int, seconds: float, tracer: Tracer | None, workdir: Path, sizes: Sizes = Sizes()) -> Result:
    result = Result()
    rng = random.Random(f"montecarlo-validation:{seed}")
    for label in LOCAL_SIDES:
        result.count(f"cross-check {label}", cross_check(label, sizes.short_n, rng.randrange(2**32)))
    for label in LONG_SIDES:
        result.count(f"cross-check {label}", cross_check(label, sizes.long_n, rng.randrange(2**32)))

    base = rng.randrange(2**40)
    gauge = SpeedGauge()
    swept = {label: [] for label in LOCAL_SIDES}
    times = {key: [] for key in ("short", "long", "setup")}
    scaled = {key: [] for key in times}
    samples = {
        f"rng.{fn}_us.{key}": []
        for fn in ("settings_cells", "trial_uniforms")
        for key in ("n2000", "n25000")
    }
    for k in passes(seconds, at_least=1 if tracer is None else 2):
        docs = [config_doc(label, sizes.long_n, rng.randrange(2**32)) for label in LONG_SIDES]
        setups = [setup_seconds(docs) for _ in range(SETUP_REPEATS)]
        factor = gauge.factor()
        times["setup"].extend(setups)
        scaled["setup"].extend(t * factor for t in setups)
        if tracer is not None and k % 2 == 1:
            traced_pass(sizes, rng, tracer, samples)
            continue
        seeds = range(base + k * sizes.seeds_per_sweep, base + (k + 1) * sizes.seeds_per_sweep)
        short_trials = len(LOCAL_SIDES) * len(seeds) * sizes.short_n
        long_trials = len(LONG_SIDES) * sizes.results_per_side * sizes.long_n
        for key, (took, at_ref), trials in (
            ("short", short_sweep(sizes, seeds, result, gauge, swept), short_trials),
            ("long", long_set(sizes, rng, result, gauge), long_trials),
        ):
            times[key].append(took / trials)
            scaled[key].append(at_ref / trials)

    for label, parts in swept.items():
        finals = np.concatenate([f for f, _ in parts])
        sups = np.concatenate([s for _, s in parts])
        result.count(f"criterion 5 {label}", criterion5(sizes.short_n, finals, sups))

    for name, key in (("mc_short_trials_per_s", "short"), ("mc_long_trials_per_s", "long")):
        note = (
            f"median of {len(times[key])} passes; "
            f"{1.0 / median(scaled[key]):.6g} at the reference speed"
        )
        result.named[name] = (1.0 / median(times[key]), "1/s", note)
    note = f"{describe(times['setup'])}; {median(scaled['setup']):.6g} at the reference speed"
    result.named["setup_s"] = (median(times["setup"]), "s", note)
    if tracer is None:
        result.metrics = {
            "a_us_per_trial": median(scaled["short"]) * 1e6,
            "b_us_per_trial": median(scaled["long"]) * 1e6,
            "setup_s": median(scaled["setup"]),
        }
    else:
        result.metrics = layer_metrics(tracer, samples)
    return result
