"""Network harness: the same protocol across OS processes.

The referee listens on a TCP endpoint; two station processes connect, one
per wing. Frames are length-prefixed (4-byte big-endian length) JSON
documents with fields {kind, trial, side, body}; ``body`` is opaque bytes,
base64-encoded in transit. Frame kinds: HELLO, CONFIG, LAMBDA, SETTING,
OUTCOME, BROADCAST, VERDICT, ABORT.

Physical enforcement of the one-way, commit-before-reveal structure:

* stations connect only to the referee (one socket per client, no listener),
  so there is no station-to-station channel in the provided topology;
* SETTING for trial m is sent only after both OUTCOME frames for trial m-1
  arrived;
* every SETTING carries a fresh referee nonce drawn from the OS (never from
  the seeded streams the stations also know), and the OUTCOME for that trial
  must echo it; an answer sent before its setting arrived cannot carry the
  nonce, so a station that answers early trips an ABORT however the frames
  happen to be timed;
* timeouts and malformed or out-of-order frames abort the run (outcomes are
  never substituted: the no-missing-data rule).

The referee writes an ordering transcript (one JSON line per frame, with a
global sequence number) that the post-hoc auditor checks for the per-trial
LAMBDA -> SETTING -> OUTCOME sequence.

This is protocol version 2. Every socket runs with ``TCP_NODELAY``: the
referee writes several small frames per trial while the station stays silent,
and Nagle's algorithm would hold each one back until the station's delayed
ACK, about 40 ms per trial on loopback.
"""

from __future__ import annotations

import base64
import json
import secrets
import socket
import struct
from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig, SIDE_STRATEGY, config_from_dict
from .referee import ProtocolAbort, RefereeEngine, RunResult
from .strategies import (
    LEFT,
    RIGHT,
    SIDES,
    SourceMessage,
    Strategy,
    TrialView,
    build_strategy,
)

PROTOCOL_VERSION = 2
DEFAULT_TRIAL_TIMEOUT = 30.0

KIND_HELLO = "HELLO"
KIND_CONFIG = "CONFIG"
KIND_LAMBDA = "LAMBDA"
KIND_SETTING = "SETTING"
KIND_OUTCOME = "OUTCOME"
KIND_BROADCAST = "BROADCAST"
KIND_VERDICT = "VERDICT"
KIND_ABORT = "ABORT"

_LEN = struct.Struct(">I")
MAX_FRAME_BYTES = 1 << 22


class FrameError(ProtocolAbort):
    """Malformed frame or broken transport."""


def encode_frame(kind: str, trial: int | None = None, side: str | None = None, body: bytes = b"") -> bytes:
    doc = {
        "kind": kind,
        "trial": trial,
        "side": side,
        "body": base64.b64encode(body).decode("ascii"),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    return _LEN.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(count - got)
        except socket.timeout as exc:
            raise ProtocolAbort("station timeout") from exc
        except OSError as exc:
            raise FrameError(f"transport error: {exc}") from exc
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    (length,) = _LEN.unpack(_recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length)
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame payload: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FrameError(f"frame without kind: {doc!r}")
    doc["body"] = base64.b64decode(doc.get("body") or "")
    return doc


def _json_body(doc_body: bytes) -> dict:
    try:
        body = json.loads(doc_body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame body: {exc}") from exc
    if not isinstance(body, dict):
        raise FrameError(f"frame body is not a JSON object: {body!r}")
    return body


def _no_delay(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    if int(port) > 65535:
        raise ValueError(f"endpoint port must be 0-65535, got {endpoint!r}")
    return host, int(port)


class Transcript:
    """Referee-side record of every frame, for the ordering audit."""

    def __init__(self):
        self.entries: list[dict] = []
        self._seq = 0

    def add(self, direction: str, doc_kind: str, trial, side) -> None:
        self._seq += 1
        self.entries.append(
            {"seq": self._seq, "dir": direction, "kind": doc_kind, "trial": trial, "side": side}
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

    @staticmethod
    def read(path) -> list[dict]:
        with open(path, "r", encoding="ascii") as fh:
            return [json.loads(line) for line in fh if line.strip()]


class RemoteStation:
    """Referee-side proxy for one station process; implements the same calls
    as the in-process LocalStation, over frames.

    Each SETTING it sends carries a fresh nonce, and ``get_outcome`` accepts
    only an OUTCOME that echoes the nonce of that trial's SETTING."""

    def __init__(self, sock: socket.socket, side: str, transcript: Transcript, mode: str):
        self.sock = sock
        self.side = side
        self.transcript = transcript
        self.mode = mode
        self._nonces: dict[int, str] = {}

    def _send(self, kind: str, trial: int | None, body: bytes = b"") -> None:
        try:
            self.sock.sendall(encode_frame(kind, trial, self.side, body))
        except OSError as exc:
            raise FrameError(f"cannot send to {self.side} station: {exc}") from exc
        self.transcript.add("send", kind, trial, self.side)

    def _recv(self, expect_kind: str, trial: int) -> dict:
        try:
            doc = recv_frame(self.sock)
        except ProtocolAbort as exc:
            # Attach context so partial logs reconcile with the abort report.
            if exc.trial is None:
                raise ProtocolAbort(exc.reason, trial=trial, side=self.side) from exc
            raise
        self.transcript.add("recv", doc.get("kind"), doc.get("trial"), doc.get("side"))
        if doc.get("kind") != expect_kind or doc.get("trial") != trial or doc.get("side") != self.side:
            raise ProtocolAbort(
                f"expected {expect_kind} for trial {trial} from {self.side}, got "
                f"{doc.get('kind')} trial {doc.get('trial')} side {doc.get('side')}",
                trial=trial,
                side=self.side,
            )
        return doc

    def _send_setting(self, m: int, index: int) -> None:
        nonce = secrets.token_hex(8)
        self._nonces[m] = nonce
        self._send(KIND_SETTING, m, json.dumps({"index": index, "nonce": nonce}).encode("ascii"))

    def deliver_lambda(self, m: int, payload: bytes) -> None:
        self._send(KIND_LAMBDA, m, payload)

    def post_setting(self, m: int, index: int) -> None:
        if self.mode == "batch":
            return  # already revealed up front via deliver_batch_settings
        self._send_setting(m, index)

    def get_outcome(self, m: int):
        doc = self._recv(KIND_OUTCOME, m)
        body = _json_body(doc["body"])
        if body.get("nonce") != self._nonces.pop(m, None):
            raise ProtocolAbort(
                f"{self.side} station answered trial {m} without the nonce of its "
                "setting, so before the setting arrived: within-trial communication "
                "is one way only",
                trial=m,
                side=self.side,
            )
        if "value" not in body:
            raise ProtocolAbort(f"OUTCOME frame without value from {self.side}", trial=m, side=self.side)
        self._blob = base64.b64decode(body.get("blob") or "")
        return body["value"]

    def collect_blob(self, m: int) -> bytes:
        return getattr(self, "_blob", b"")

    def deliver_broadcast(self, m: int, view: TrialView) -> None:
        if self.mode != "sequential":
            return  # stations update from their own wing's data
        body = json.dumps(
            {
                "m": view.m,
                "own_setting": view.own_setting,
                "own_outcome": view.own_outcome,
                "other_setting": view.other_setting,
                "other_outcome": view.other_outcome,
                "blobs": {
                    side: base64.b64encode(blob).decode("ascii")
                    for side, blob in view.blobs.items()
                },
            }
        ).encode("ascii")
        self._send(KIND_BROADCAST, m, body)

    def deliver_batch_settings(self, settings) -> None:
        for m, index in enumerate(settings, start=1):
            self._send_setting(m, index)

    def send_verdict(self, report: dict) -> None:
        self._send(KIND_VERDICT, None, json.dumps(report, sort_keys=True).encode("ascii"))

    def send_abort(self, reason: str) -> None:
        try:
            self._send(KIND_ABORT, None, json.dumps({"reason": reason}).encode("ascii"))
        except ProtocolAbort:
            pass  # already gone


def _handshake(sock: socket.socket, transcript: Transcript) -> str:
    doc = recv_frame(sock)
    transcript.add("recv", doc.get("kind"), doc.get("trial"), doc.get("side"))
    if doc.get("kind") != KIND_HELLO:
        raise ProtocolAbort(f"expected HELLO, got {doc.get('kind')}")
    body = _json_body(doc["body"])
    version = body.get("version")
    role = body.get("role")
    if version != PROTOCOL_VERSION:
        sock.sendall(
            encode_frame(
                KIND_ABORT,
                None,
                None,
                json.dumps({"reason": f"protocol version {version} unsupported"}).encode("ascii"),
            )
        )
        raise ProtocolAbort(f"station offered protocol version {version}")
    if role not in SIDES:
        raise ProtocolAbort(f"HELLO with unknown role {role!r}")
    return role


def referee_serve(
    config: ExperimentConfig,
    endpoint: str = "127.0.0.1:0",
    *,
    trial_timeout: float = DEFAULT_TRIAL_TIMEOUT,
    transcript_path=None,
    ready_callback=None,
) -> tuple[RunResult, Transcript]:
    """Run the whole protocol as the network referee.

    Listens on ``endpoint`` (port 0 picks a free port; ``ready_callback``
    receives the bound (host, port)), waits for both stations, then executes
    the same engine as the in-process run, so the trial log is byte-identical
    for equal configs. The source runs inside the referee process; stations
    receive the hidden message only via LAMBDA frames.
    """
    if config.side.kind != SIDE_STRATEGY:
        raise ConfigError("networked runs need a strategy side (the oracle runs in-referee only)")
    host, port = parse_endpoint(endpoint)
    transcript = Transcript()
    listener = socket.create_server((host, port))
    connections: dict[str, socket.socket] = {}
    try:
        listener.settimeout(trial_timeout)
        if ready_callback is not None:
            ready_callback(listener.getsockname()[:2])
        while set(connections) != set(SIDES):
            try:
                sock, _addr = listener.accept()
            except socket.timeout as exc:
                raise ProtocolAbort("stations did not connect in time") from exc
            _no_delay(sock).settimeout(trial_timeout)
            try:
                role = _handshake(sock, transcript)
            except ProtocolAbort:
                sock.close()
                continue
            if role in connections:
                sock.close()
                raise ProtocolAbort(f"duplicate HELLO for role {role}")
            connections[role] = sock

        config_body = config.canonical_json().encode("ascii")
        stations = {}
        for side in SIDES:
            stations[side] = RemoteStation(connections[side], side, transcript, config.mode)
            stations[side]._send(KIND_CONFIG, None, config_body)

        strategy = build_strategy(config.side.strategy, config.side.params)
        engine = RefereeEngine(
            config,
            strategy=strategy,
            stations=(stations[LEFT], stations[RIGHT]),
        )
        result = engine.run()

        report_stub = {
            "verdict": result.verdict.to_dict() if result.verdict else None,
            "abort": result.abort.to_dict() if result.abort else None,
        }
        for side in SIDES:
            if result.abort is None:
                stations[side].send_verdict(report_stub)
            else:
                stations[side].send_abort(result.abort.reason)
        if transcript_path is not None:
            transcript.write(transcript_path)
        return result, transcript
    finally:
        for sock in connections.values():
            sock.close()
        listener.close()


class StationClient:
    """One station process: connects to the referee, never to the other wing.

    Holds exactly one socket for its whole lifetime, with ``TCP_NODELAY``
    set. Loops on LAMBDA / SETTING / OUTCOME (plus BROADCAST in sequential
    mode) until VERDICT or ABORT; each OUTCOME echoes the nonce of the
    SETTING it answers.
    """

    def __init__(
        self,
        role: str,
        endpoint: str,
        *,
        strategy: Strategy | None = None,
        seed_override: int | None = None,
        timeout: float = DEFAULT_TRIAL_TIMEOUT,
    ):
        if role not in SIDES:
            raise ValueError(f"role must be one of {SIDES}, got {role!r}")
        self.role = role
        self.endpoint = endpoint
        self.timeout = timeout
        self._strategy = strategy
        self._seed_override = seed_override
        self.trials_completed = 0
        self.verdict: dict | None = None
        self.abort_reason: str | None = None
        self.sock: socket.socket | None = None

    def _send(self, kind: str, trial: int | None, body: bytes = b"") -> None:
        self.sock.sendall(encode_frame(kind, trial, self.role, body))

    def run(self) -> int:
        """Returns a process exit status: 0 on VERDICT, nonzero otherwise."""
        host, port = parse_endpoint(self.endpoint)
        self.sock = _no_delay(socket.create_connection((host, port), timeout=self.timeout))
        try:
            self._send(
                KIND_HELLO,
                None,
                json.dumps({"role": self.role, "version": PROTOCOL_VERSION}).encode("ascii"),
            )
            doc = recv_frame(self.sock)
            if doc.get("kind") == KIND_ABORT:
                self.abort_reason = _json_body(doc["body"]).get("reason")
                return 3
            if doc.get("kind") != KIND_CONFIG:
                raise FrameError(f"expected CONFIG, got {doc.get('kind')}")
            config = config_from_dict(json.loads(doc["body"].decode("utf-8")))

            strategy = self._strategy
            if strategy is None:
                strategy = build_strategy(config.side.strategy, config.side.params)
            seed = self._seed_override if self._seed_override is not None else config.seed
            strategy.prepare(seed=seed, n=config.n, angles=config.angles, mode=config.mode)
            memory = strategy.initial_memory(self.role)

            payload = b""
            batch_mode = config.mode == "batch"
            sequential = config.mode == "sequential"
            batch_settings: list[int] = []
            batch_nonces: list[str] = []
            while True:
                doc = recv_frame(self.sock)
                kind = doc.get("kind")
                if kind == KIND_SETTING and batch_mode:
                    # Up-front revelation phase: collect all n settings.
                    body = _json_body(doc["body"])
                    batch_settings.append(body["index"])
                    batch_nonces.append(body["nonce"])
                    if len(batch_settings) == config.n:
                        memory = strategy.receive_batch_settings(
                            self.role, tuple(batch_settings), memory
                        )
                elif kind == KIND_LAMBDA:
                    payload = doc["body"]
                    if batch_mode:
                        m = doc["trial"]
                        index = batch_settings[m - 1]
                        value = self._respond(
                            strategy, memory, m, index, batch_nonces[m - 1], payload
                        )
                        memory = self._self_update(strategy, memory, m, index, value)
                elif kind == KIND_SETTING:
                    m = doc["trial"]
                    body = _json_body(doc["body"])
                    index = body["index"]
                    value = self._respond(strategy, memory, m, index, body["nonce"], payload)
                    if not sequential:
                        memory = self._self_update(strategy, memory, m, index, value)
                elif kind == KIND_BROADCAST:
                    body = _json_body(doc["body"])
                    view = TrialView(
                        m=body["m"],
                        own_setting=body["own_setting"],
                        own_outcome=body["own_outcome"],
                        other_setting=body.get("other_setting"),
                        other_outcome=body.get("other_outcome"),
                        blobs={
                            side: base64.b64decode(blob)
                            for side, blob in (body.get("blobs") or {}).items()
                        },
                    )
                    memory = strategy.update_memory(self.role, memory, view)
                elif kind == KIND_VERDICT:
                    self.verdict = _json_body(doc["body"])
                    return 0
                elif kind == KIND_ABORT:
                    self.abort_reason = _json_body(doc["body"]).get("reason")
                    return 3
                else:
                    raise FrameError(f"unexpected frame kind {kind!r}")
        finally:
            self.sock.close()

    def _respond(self, strategy, memory, m, index, nonce, payload):
        value = strategy.station_respond(self.role, index, SourceMessage(payload), memory)
        blob = strategy.boundary_blob(self.role, m)
        body = {"value": value, "blob": base64.b64encode(blob).decode("ascii"), "nonce": nonce}
        self._send(KIND_OUTCOME, m, json.dumps(body).encode("ascii"))
        self.trials_completed = m
        return value

    def _self_update(self, strategy, memory, m, index, value):
        # Cloned/batch boundary: only this wing's data; non-bit raw values
        # cannot reach here usefully (the referee aborts that trial).
        own = value if value in (0, 1) else 0
        view = TrialView(m=m, own_setting=index, own_outcome=own)
        return strategy.update_memory(self.role, memory, view)


def station_client(
    role: str,
    endpoint: str,
    *,
    strategy: Strategy | None = None,
    seed_override: int | None = None,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
) -> int:
    """Convenience wrapper: run a station to completion, return exit status
    (0 verdict received, 2 config mismatch, 3 protocol abort)."""
    from .strategies import StrategyError

    client = StationClient(
        role, endpoint, strategy=strategy, seed_override=seed_override, timeout=timeout
    )
    try:
        return client.run()
    except (ConfigError, StrategyError):
        return 2
    except (ProtocolAbort, OSError):
        return 3


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    failures: tuple[str, ...]


def audit_transcript(entries: list[dict]) -> AuditReport:
    """Check the per-trial wire ordering: for every trial m and each side,
    LAMBDA(m) precedes SETTING(m) precedes OUTCOME(m), and SETTING(m+1) is
    sent only after both OUTCOME(m) frames arrived.

    Applies to sequential and cloned-source transcripts; a batch transcript
    reveals all settings up front and correctly fails the commit-before-
    reveal rule; that is the documented trade-off of batch mode."""
    failures: list[str] = []
    first: dict[tuple[str, str, int], int] = {}
    outcome_seq: dict[tuple[str, int], int] = {}
    for entry in entries:
        key = (entry["kind"], entry.get("side") or "", entry.get("trial") or 0)
        first.setdefault(key, entry["seq"])
        if entry["kind"] == KIND_OUTCOME and entry["dir"] == "recv":
            outcome_seq[(entry["side"], entry["trial"])] = entry["seq"]

    trials = sorted({t for (_, _, t) in first if t})
    for m in trials:
        for side in SIDES:
            lam = first.get((KIND_LAMBDA, side, m))
            setting = first.get((KIND_SETTING, side, m))
            outcome = outcome_seq.get((side, m))
            if setting is None or outcome is None:
                failures.append(f"trial {m} {side}: missing SETTING or OUTCOME")
                continue
            if lam is not None and not lam < setting:
                failures.append(f"trial {m} {side}: LAMBDA does not precede SETTING")
            if not setting < outcome:
                failures.append(f"trial {m} {side}: SETTING does not precede OUTCOME")
        if m > 1:
            prev = [outcome_seq.get((side, m - 1)) for side in SIDES]
            nxt = [first.get((KIND_SETTING, side, m)) for side in SIDES]
            if None not in prev and None not in nxt and not max(prev) < min(nxt):
                failures.append(f"trial {m}: settings revealed before trial {m-1} committed")
    return AuditReport(ok=not failures, failures=tuple(failures))
