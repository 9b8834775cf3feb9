"""Workload ``network-bet``: the referee serves over loopback TCP to two
station processes.

This process is the referee (``net.referee_serve``) and holds exactly two
connections; the stations are ``bellbet station`` child processes. Each pass
runs one ``sequential`` bet (8 frames per trial, BROADCAST included) and one
``cloned-source`` bet (6 frames per trial) with the classical-polarizer side,
the side of acceptance criterion 8.

Per-trial time runs from the moment both stations finished their imports to
the return of ``referee_serve``, so station start-up is left out; the rest of
each bet's wall time (spawn, imports, teardown) is its set-up time.

Correctness: both stations exit 0, the log and report equal those of the
in-process ``run_experiment`` for the same config, the ordering audit of the
wire transcript passes, and the verdicts are equal.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from bellbet.config import config_from_dict
from bellbet.net import KIND_SETTING, audit_transcript, encode_frame, recv_frame, referee_serve
from bellbet.referee import ProtocolAbort, build_report, run_experiment

from benchlib import ROOT, Result, SpeedGauge, Tracer, config_doc, describe, passes, span

N_TRIALS = 40
MODES = {"sequential": "seq", "cloned-source": "cloned"}
SIDE = "polarizer"
TRIAL_TIMEOUT = 20.0
CODEC_FRAMES = 200
STATION = Path(__file__).resolve().parent / "station.py"


@dataclass
class NetBet:
    mode: str
    trial_s: float
    setup_s: float
    referee_cpu_s: float
    station_cpu_s: float
    frames: int


def networked_bet(doc: dict, tracer: Tracer | None) -> tuple[NetBet | None, list[str]]:
    """Run one bet over loopback; returns its timings and any problems."""
    config = config_from_dict(doc)
    procs: list[subprocess.Popen] = []
    marks = {}

    def spawn(addr) -> None:
        endpoint = f"{addr[0]}:{addr[1]}"
        for role in ("left", "right"):
            procs.append(
                subprocess.Popen(
                    [sys.executable, str(STATION), "--role", role, "--endpoint", endpoint,
                     "--timeout", str(TRIAL_TIMEOUT)],
                    cwd=ROOT,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                )
            )
        marks["cpu"] = time.process_time()

    t0 = time.monotonic()
    try:
        with span(tracer, "net.referee_serve", mode=config.mode):
            run, transcript = referee_serve(
                config, "127.0.0.1:0", trial_timeout=TRIAL_TIMEOUT, ready_callback=spawn
            )
        t_end = time.monotonic()
        referee_cpu = time.process_time() - marks["cpu"]
        outputs = [p.communicate(timeout=TRIAL_TIMEOUT)[0] for p in procs]
        t_exit = time.monotonic()
    except (ProtocolAbort, OSError, subprocess.TimeoutExpired) as exc:
        return None, [f"networked bet did not finish: {exc}"]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()

    problems = []
    rcs = [p.returncode for p in procs]
    if rcs != [0, 0]:
        problems.append(f"station exit codes {rcs}")
    try:
        stations = [json.loads(out.decode().strip().splitlines()[-1]) for out in outputs]
    except (ValueError, IndexError):
        return None, problems + ["station printed no timing line"]

    with span(tracer, "referee.run_experiment", mode=config.mode):
        expected = run_experiment(config)
    if run.log.to_bytes() != expected.log.to_bytes():
        problems.append("log differs from the in-process run")
    if build_report(run) != build_report(expected):
        problems.append("report differs from the in-process run")
    if run.verdict is None or expected.verdict is None or run.verdict != expected.verdict:
        problems.append("verdict differs from the in-process run")
    with span(tracer, "net.audit_transcript", mode=config.mode):
        audit = audit_transcript(transcript.entries)
    if not audit.ok:
        problems.append(f"ordering audit failed: {audit.failures[:3]}")

    trial_s = t_end - max(s["ready"] for s in stations)
    bet = NetBet(
        mode=config.mode,
        trial_s=trial_s,
        setup_s=(t_exit - t0) - trial_s,
        referee_cpu_s=referee_cpu,
        station_cpu_s=sum(s["cpu_s"] for s in stations),
        frames=sum(1 for e in transcript.entries if e["trial"] is not None),
    )
    return bet, problems


def codec_seconds(frames: int = CODEC_FRAMES) -> tuple[float, float]:
    """Seconds per ``encode_frame`` and per ``recv_frame`` of SETTING frames,
    the second over a socketpair."""
    body = json.dumps({"index": 1}).encode("ascii")
    t0 = time.perf_counter()
    wire = [encode_frame(KIND_SETTING, m, "left", body) for m in range(1, frames + 1)]
    t1 = time.perf_counter()
    left, right = socket.socketpair()
    with left, right:
        left.sendall(b"".join(wire))
        t2 = time.perf_counter()
        for _ in range(frames):
            recv_frame(right)
        t3 = time.perf_counter()
    return (t1 - t0) / frames, (t3 - t2) / frames


def run(seed: int, seconds: float, tracer: Tracer | None, workdir: Path, n: int = N_TRIALS) -> Result:
    result = Result()
    rng = random.Random(f"network-bet:{seed}")
    gauge = SpeedGauge()
    bets: list[NetBet] = []
    scaled_setup = []
    codec = []
    for _ in passes(seconds):
        for mode in MODES:
            doc = config_doc(SIDE, n, rng.randrange(2**32), mode)
            with span(tracer, "net.bet", mode=mode):
                bet, problems = networked_bet(doc, tracer)
            factor = gauge.factor()
            result.count(f"networked bet {mode}", problems)
            if bet is not None:
                bets.append(bet)
                scaled_setup.append(bet.setup_s * factor)
        if tracer is not None:
            codec.append(codec_seconds())

    per_trial = {mode: [b.trial_s / n for b in bets if b.mode == mode] for mode in MODES}
    setup_s = [b.setup_s for b in bets]
    seq = result.name("net_seq_ms_per_trial", per_trial["sequential"], "ms", 1e3, best=True)
    cloned = result.name("net_cloned_ms_per_trial", per_trial["cloned-source"], "ms", 1e3, best=True)
    # Set-up (spawn, imports, teardown) is CPU work, so it is scaled like the
    # in-process workloads' times; the trials wait on the kernel's timers,
    # which a slow phase of the CPU does not stretch, so they are not.
    note = f"{describe(setup_s)}; {median(scaled_setup):.6g} at the reference speed"
    result.named["setup_s"] = (median(setup_s), "s", note)
    if tracer is None:
        result.metrics = {
            "a_us_per_trial": seq * 1e3,
            "b_us_per_trial": cloned * 1e3,
            "setup_s": median(scaled_setup),
        }
        return result

    metrics = {
        "net.encode_frame_us": median([e for e, _ in codec]) * 1e6,
        "net.recv_frame_us": median([r for _, r in codec]) * 1e6,
    }
    for mode, short in MODES.items():
        mine = [b for b in bets if b.mode == mode]
        metrics[f"net.frames_per_trial.{short}"] = median([b.frames / n for b in mine])
        metrics[f"net.referee_cpu_ms_per_trial.{short}"] = median(
            [b.referee_cpu_s / n for b in mine]
        ) * 1e3
        metrics[f"net.station_cpu_ms_per_trial.{short}"] = median(
            [b.station_cpu_s / n for b in mine]
        ) * 1e3
        metrics[f"net.wait_ms_per_trial.{short}"] = median(
            [(b.trial_s - b.referee_cpu_s) / n for b in mine]
        ) * 1e3
    result.metrics = metrics
    return result
