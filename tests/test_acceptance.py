"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The multi-thousand-run Monte-Carlo criteria execute on the vectorized
kernels, whose bit-exact agreement with the referee engine is itself pinned
inside the criteria (and exhaustively in test_montecarlo.py).
"""

import functools
import itertools
import json
import math
import subprocess
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from bellbet.bounds import bernstein_sup_bound, quantum_side_error_bound
from bellbet.cli import EXIT_OK, EXIT_VALIDATION, main as cli_main
from bellbet.config import SideSpec, config_from_dict
from bellbet.core import (
    OPTIMAL_ANGLES,
    PI_THIRD_ANGLES,
    JointBitDistribution,
    Setting,
    bell_inequality_slack,
    deterministic_implication_holds,
)
from bellbet.logfile import TrialLog
from bellbet.montecarlo import simulate_many, simulate_result
from bellbet.net import audit_transcript, referee_serve
from bellbet.quantum import QuantumModel, cell_coincidence_probability, sample_pair
from bellbet.referee import build_report, replay_verify, run_experiment
from bellbet.rng import ROLE_ORACLE, TrialUniforms, settings_cells

MU_OPTIMAL = (math.sqrt(2.0) - 1.0) / 4.0
MU_PI_THIRD = 1.0 / 16.0


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            elapsed = time.perf_counter() - start
            suffix = f" ({detail})" if detail else ""
            print(f"ACCEPTANCE {number}: PASS - {title}{suffix} [{elapsed:.2f} s]")

        return wrapper

    return decorate


# --- shared artifacts --------------------------------------------------------


def _bet_config(side, seed):
    return config_from_dict(
        {
            "mode": "sequential",
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": side,
            "n": 25_000,
            "critical_value": 1250,
            "seed": seed,
            "target_error": 1e-6,
        }
    )


BET_SIDES = {
    "quantum": ({"kind": "quantum", "correlation_sense": "equal-polarization"}, 1001),
    "classical-polarizer": (
        {"kind": "strategy", "strategy": "classical-polarizer", "params": {}},
        2001,
    ),
    "deterministic-optimal": (
        {"kind": "strategy", "strategy": "deterministic-optimal", "params": {}},
        3001,
    ),
}


@pytest.fixture(scope="module")
def bet_runs():
    """100 full-design runs per side, kernel-computed, engine-cross-checked."""
    runs = {}
    for name, (side, seed0) in BET_SIDES.items():
        results = [
            simulate_result(_bet_config(side, seed)) for seed in range(seed0, seed0 + 100)
        ]
        engine_result = run_experiment(_bet_config(side, seed0))
        assert engine_result.log.to_bytes() == results[0].log.to_bytes()
        assert build_report(engine_result) == build_report(results[0])
        runs[name] = results
    return runs


@pytest.fixture(scope="module")
def network_run(tmp_path_factory):
    """Loopback three-process run: referee (this process) + 2 station procs."""
    tmp = tmp_path_factory.mktemp("net")
    config = config_from_dict(
        {
            "mode": "sequential",
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": {"kind": "strategy", "strategy": "classical-polarizer", "params": {}},
            "n": 1000,
            "critical_value": 52,
            "seed": 4242,
            "target_error": 1e-6,
        }
    )
    in_process = run_experiment(config)

    box = {}
    ready = threading.Event()

    def on_ready(addr):
        box["endpoint"] = f"{addr[0]}:{addr[1]}"
        ready.set()

    def serve():
        try:
            box["result"] = referee_serve(
                config,
                "127.0.0.1:0",
                trial_timeout=20.0,
                transcript_path=tmp / "wire.jsonl",
                ready_callback=on_ready,
            )
        except Exception as exc:  # reported by the fixture after the join
            box["error"] = exc
            ready.set()

    referee_thread = threading.Thread(target=serve, daemon=True)
    referee_thread.start()
    assert ready.wait(10), "network referee did not come up"
    assert "error" not in box, f"network referee failed to start: {box['error']!r}"

    stations = [
        subprocess.Popen(
            [sys.executable, "-m", "bellbet", "station", "--role", role,
             "--endpoint", box["endpoint"]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for role in ("left", "right")
    ]
    problems = []
    station_rcs = []
    try:
        referee_thread.join(25)
        if referee_thread.is_alive():
            problems.append("network referee did not finish within 25 s")
        elif "error" in box:
            problems.append(f"network referee raised {box['error']!r}")
        for role, proc in zip(("left", "right"), stations):
            try:
                _, stderr = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                problems.append(f"{role} station did not exit within 10 s")
                continue
            station_rcs.append(proc.returncode)
            if proc.returncode != 0:
                problems.append(
                    f"{role} station exited {proc.returncode}: {stderr.decode(errors='replace')}"
                )
    finally:
        # Reap the stations so that a failed run leaves nothing running into
        # later tests; with both gone, the referee thread aborts at once.
        for proc in stations:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        referee_thread.join(5)
    if problems:
        pytest.fail("; ".join(problems))
    result, transcript = box["result"]
    return {
        "config": config,
        "in_process": in_process,
        "networked": result,
        "transcript": transcript,
        "station_rcs": station_rcs,
    }


# --- criteria ----------------------------------------------------------------


@criterion(1, "deterministic CHSH core")
def test_criterion_1_deterministic_core():
    for bits in itertools.product((0, 1), repeat=4):
        assert deterministic_implication_holds(*bits), bits
    slacks = [
        bell_inequality_slack(JointBitDistribution.point_mass(*bits))
        for bits in itertools.product((0, 1), repeat=4)
    ]
    assert max(slacks) == 0.0
    return "16/16 implications hold; max deterministic slack = 0 exactly"


@criterion(2, "quantum coincidence law at both canonical angle sets")
def test_criterion_2_coincidence_law():
    n = 1_000_000
    model = QuantumModel(PI_THIRD_ANGLES)
    expected = {(1, 1): 0.25, (1, 2): 1.0, (2, 1): 0.25, (2, 2): 0.25}
    for (i, j), p in expected.items():
        setting = Setting(i, j)
        assert cell_coincidence_probability(model, setting) == pytest.approx(p, abs=1e-12)
        u = TrialUniforms(52_000 + setting.cell, ROLE_ORACLE, n).values
        x, y = sample_pair(model, setting, u)
        freq = float((x == y).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 4.0 * se, (i, j, freq)
        if p == 1.0:
            assert freq == 1.0  # zero standard error: must be exact

    # Optimal angles: per-trial mean of the statistic over 10^6 full trials.
    opt = QuantumModel(OPTIMAL_ANGLES)
    cells = settings_cells(52_100, n)
    u = TrialUniforms(52_100, ROLE_ORACLE, n).values
    deltas = np.zeros(n, dtype=np.int8)
    for cell in range(4):
        mask = cells == cell
        x, y = sample_pair(opt, Setting.from_cell(cell), u[mask])
        sign = 1 if cell == 1 else -1
        deltas[mask] = np.where(x == y, sign, 0)
    probs = [cell_coincidence_probability(opt, Setting.from_cell(c)) for c in range(4)]
    variance = 0.25 * sum(probs) - MU_OPTIMAL**2
    se = math.sqrt(variance / n)
    mean = float(deltas.mean())
    assert abs(mean - MU_OPTIMAL) <= 4.0 * se
    return f"cell frequencies within 4 SE; mean delta {mean:.5f} vs {MU_OPTIMAL:.5f}"


@criterion(3, "design reproduction for both canonical angle sets")
def test_criterion_3_design(capsys):
    assert cli_main(["design", "--angles", "pi/8,3pi/8,-pi/4,0", "--target-error", "1e-6"]) == EXIT_OK
    optimal = json.loads(capsys.readouterr().out)
    assert cli_main(["design", "--angles", "0,pi/3,-pi/3,0", "--target-error", "1e-6"]) == EXIT_OK
    pi_third = json.loads(capsys.readouterr().out)

    assert optimal["n"] <= 25_000
    assert pi_third["n"] <= 65_000
    # Midpoint critical values: n*mu/2, i.e. the designs quoted as n/20 and
    # n/32 (mu = (sqrt(2)-1)/4 makes n/C = 19.3, rounded to 20 in the quoted
    # design; mu = 1/16 gives exactly n/32).
    assert optimal["critical_value"] == round(optimal["n"] * MU_OPTIMAL / 2)
    assert optimal["critical_value"] == pytest.approx(optimal["n"] / 20, rel=0.05)
    assert pi_third["critical_value"] == round(pi_third["n"] / 32)
    for doc, mu in ((optimal, MU_OPTIMAL), (pi_third, MU_PI_THIRD)):
        assert doc["local_realist_error_bound"] <= 1e-6
        assert doc["quantum_claimant_error_bound"] <= 1e-6
        assert bernstein_sup_bound(doc["n"], doc["critical_value"]) <= 1e-6
        assert quantum_side_error_bound(doc["n"], doc["critical_value"], mu) <= 1e-6
    return f"n={optimal['n']} (C={optimal['critical_value']}) and n={pi_third['n']} (C={pi_third['critical_value']})"


@criterion(4, "Bernstein bound matches high-precision oracle to 6 figures")
def test_criterion_4_bound_numeric_check():
    from bellbet.bounds import bernstein_sup_log_bound

    ours = bernstein_sup_log_bound(25_000, 1250)
    with mpmath.workdps(50):
        root_3n = mpmath.sqrt(3) * mpmath.sqrt(25_000)
        k = 2 * mpmath.mpf(1250) / root_3n
        oracle = float(-(k * k / 2) / (1 + k / root_3n))
    assert ours == pytest.approx(oracle, rel=1e-7)
    assert ours == pytest.approx(-40.3226, abs=5e-5)
    assert bernstein_sup_bound(25_000, 1250) == pytest.approx(math.exp(oracle), rel=1e-6)
    return f"log bound {ours:.6f} == oracle {oracle:.6f} (= -1250/31)"


LOCAL_STRATEGIES = (
    "constant",
    "independent-coin",
    "classical-polarizer",
    "deterministic-optimal",
    "adaptive-frequency-tracker",
)


@criterion(5, "supermartingale drift and tail domination, 10000 runs each")
def test_criterion_5_supermartingale_validity():
    n, runs = 2000, 10_000
    drift_limit = 4.0 * math.sqrt(0.75 * n / runs)
    details = []
    for name in LOCAL_STRATEGIES:
        side = SideSpec(kind="strategy", strategy=name)
        finals, sups = simulate_many(side, OPTIMAL_ANGLES, n, seeds=range(runs))
        mean = float(finals.mean())
        assert mean <= drift_limit, (name, mean)
        for k in (2.0, 3.0):
            threshold = (math.sqrt(3.0) / 2.0) * k * math.sqrt(n)
            freq = float((sups >= threshold).mean())
            bound = bernstein_sup_bound(n, threshold)
            assert freq <= bound, (name, k, freq, bound)
        details.append(f"{name}: mean {mean:+.3f}")
    return "; ".join(details) + f"; drift limit {drift_limit:.3f}"


@criterion(6, "full bet simulation: 100 runs per side at the 25000-trial design")
def test_criterion_6_full_bet(bet_runs):
    quantum_wins = sum(
        r.verdict.winner == "quantum-claimant" for r in bet_runs["quantum"]
    )
    assert quantum_wins == 100
    for name in ("classical-polarizer", "deterministic-optimal"):
        wins = sum(r.verdict.winner == "quantum-claimant" for r in bet_runs[name])
        assert wins == 0, name
    margins = [r.trace.statistic for r in bet_runs["quantum"]]
    return (
        f"quantum 100/100 (min S_n {min(margins)} > C=1250); "
        "classical-polarizer 0/100; deterministic-optimal 0/100"
    )


@criterion(7, "outcome-range validation and log validation")
def test_criterion_7_appendix_validation(tmp_path, capsys):
    config = config_from_dict(
        {
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": {"kind": "strategy", "strategy": "range-violator", "params": {}},
            "n": 100,
            "critical_value": 10,
            "seed": 99,
        }
    )
    result = run_experiment(config)
    assert result.abort is not None
    assert result.abort.kind == "validation-failure"
    assert result.abort.trial == 1
    assert len(result.log) == 0
    assert result.verdict is None
    violating_value = result.abort.value
    assert isinstance(violating_value, float)
    assert abs(violating_value) <= math.sqrt(2.0 * math.pi)

    # cmd_validate fails any log with a non-bit outcome or a missing trial.
    clean_config = config_from_dict(
        {
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": {"kind": "quantum", "correlation_sense": "equal-polarization"},
            "n": 200,
            "critical_value": 10,
            "seed": 98,
        }
    )
    log_path = tmp_path / "clean.log"
    run_experiment(clean_config).log.write(log_path)
    assert cli_main(["validate", "--log", str(log_path)]) == EXIT_OK

    lines = log_path.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["y"] = 2.3
    bad = tmp_path / "nonbit.log"
    bad.write_text("\n".join(lines[:3] + [json.dumps(doc, sort_keys=True)] + lines[4:]) + "\n")
    assert cli_main(["validate", "--log", str(bad)]) == EXIT_VALIDATION

    missing = tmp_path / "missing.log"
    missing.write_text("\n".join(lines[:17] + lines[18:]) + "\n")
    assert cli_main(["validate", "--log", str(missing)]) == EXIT_VALIDATION
    capsys.readouterr()
    return f"abort at trial 1 on value {violating_value:.4f}; both tampered logs rejected"


@criterion(8, "network equivalence: three processes, byte-identical log")
def test_criterion_8_network_equivalence(network_run):
    assert network_run["station_rcs"] == [0, 0]
    in_process = network_run["in_process"]
    networked = network_run["networked"]
    assert networked.log.to_bytes() == in_process.log.to_bytes()
    assert networked.verdict == in_process.verdict
    audit = audit_transcript(network_run["transcript"].entries)
    assert audit.ok, audit.failures
    return (
        f"1000-trial log of {len(networked.log.to_bytes())} bytes identical; "
        f"ordering audit over {len(network_run['transcript'].entries)} frames passed"
    )


@criterion(9, "replay integrity over every produced log")
def test_criterion_9_replay_integrity(bet_runs, network_run):
    verified = 0
    for results in bet_runs.values():
        for result in results:
            assert replay_verify(result.log, build_report(result)), result.header.seed
            verified += 1
    for key in ("in_process", "networked"):
        result = network_run[key]
        assert replay_verify(result.log, build_report(result))
        verified += 1

    # A single flipped outcome bit must be caught.
    target = bet_runs["quantum"][0]
    cells, x, y = target.log.columns()
    y = y.copy()
    y[12_345] ^= 1
    tampered = TrialLog.from_columns(target.header, cells, x, y)
    replay = replay_verify(tampered, build_report(target))
    assert not replay.ok
    return f"{verified} logs replay bit-exactly; flipped bit detected ({replay.failure})"
