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

This is protocol version 2. The referee writes once per station per trial:
frames are queued and go out in one ``sendall`` at the point where the
station must answer, so a sequential station gets BROADCAST(m), LAMBDA(m+1)
and SETTING(m+1) in one write, and a cloned-source station gets LAMBDA and
SETTING. The frames, their bytes and their order are unchanged; only the
write boundaries moved. Each side parses every whole frame one ``recv``
delivered. Every socket still runs with ``TCP_NODELAY``, so no write waits
for the peer's delayed ACK under Nagle's algorithm (about 40 ms on loopback),
whatever the write pattern.
"""

from __future__ import annotations

import base64
import json
import secrets
import socket
import struct
from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig, SIDE_STRATEGY, config_from_dict
from .core import parse_json
from .referee import LocalStation, ProtocolAbort, RefereeEngine, RunResult
from .strategies import (
    LEFT,
    RIGHT,
    SIDES,
    SourceMessage,
    Strategy,
    StrategyError,
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
# Bytes asked of one recv by a connection's FrameReader: room for a whole
# trial's frames with the built-in strategies, without a large buffer per call.
_RECV_BYTES = 4096


class FrameError(ProtocolAbort):
    """Malformed frame or broken transport."""


_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_field(value) -> str:
    """One envelope field, exactly as json.dumps(envelope, sort_keys=True,
    separators=(",", ":")) writes it inside the whole envelope; a trial
    number or a missing field skips the encoder's general path."""
    if value is None:
        return "null"
    if type(value) is int:  # not a bool
        return int.__repr__(value)
    return _json_encode(value)


def encode_frame(kind: str, trial: int | None = None, side: str | None = None, body: bytes = b"") -> bytes:
    # The envelope's keys in sorted order; base64 text needs no JSON escaping.
    payload = '{"body":"%s","kind":%s,"side":%s,"trial":%s}' % (
        base64.b64encode(body).decode("ascii"),
        _json_field(kind),
        _json_field(side),
        _json_field(trial),
    )
    payload = payload.encode("ascii")
    return _LEN.pack(len(payload)) + payload


def _read_frame(take) -> dict:
    """One frame from ``take(count)``, which returns exactly ``count`` bytes
    of the stream: the length prefix, refused before any payload byte is
    read if it exceeds MAX_FRAME_BYTES, then the payload, decoded."""
    (length,) = _LEN.unpack(take(4))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds limit")
    payload = take(length)
    doc = parse_json(payload, FrameError, "malformed frame payload")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FrameError(f"frame without kind: {doc!r}")
    doc["body"] = _b64decode(doc.get("body", ""))
    return doc


def _recv(sock: socket.socket, count: int) -> bytes:
    """At most ``count`` bytes from ``sock``; a timeout is a station timeout,
    and end of stream or a broken transport a FrameError."""
    try:
        chunk = sock.recv(count)
    except socket.timeout as exc:
        raise ProtocolAbort("station timeout") from exc
    except OSError as exc:
        raise FrameError(f"transport error: {exc}") from exc
    if not chunk:
        raise FrameError("connection closed mid-frame")
    return chunk


def recv_frame(sock: socket.socket) -> dict:
    """One frame from a bare socket, reading no byte past it."""

    def take(count: int) -> bytes:
        chunks = []
        while count:
            chunk = _recv(sock, count)
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    return _read_frame(take)


class FrameReader:
    """The frames of one connection. Each ``recv`` asks for a few KB, and
    the bytes past the frame being read are kept for the next ones, so every
    whole frame one ``recv`` delivered is parsed without another call."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()

    def _take(self, count: int) -> bytearray:
        buffer = self._buffer
        while len(buffer) < count:
            buffer += _recv(self.sock, max(_RECV_BYTES, count - len(buffer)))
        data = buffer[:count]
        del buffer[:count]  # cheap at the front of a bytearray
        return data

    def read_frame(self) -> dict:
        return _read_frame(self._take)


def _b64decode(text) -> bytes:
    """The bytes of one base64 field a peer sent: the frame body, an OUTCOME
    blob or a BROADCAST blob. Anything but valid base64 text is a FrameError."""
    if not isinstance(text, str):
        raise FrameError(f"base64 field is a {type(text).__name__}, not a string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise FrameError(f"malformed base64 field: {exc}") from exc


def _json_body(doc_body: bytes) -> dict:
    body = parse_json(doc_body, FrameError, "malformed frame body")
    if not isinstance(body, dict):
        raise FrameError(f"frame body is not a JSON object: {body!r}")
    return body


def _field(doc: dict, name: str, kind: type):
    """``doc[name]``, exactly of type ``kind`` (so a bool is no int)."""
    value = doc.get(name)
    if type(value) is not kind:
        raise FrameError(f"frame field {name!r} is not a {kind.__name__}: {value!r}")
    return value


def _setting(body: dict) -> tuple[int, str]:
    """The (index, nonce) a SETTING body carries."""
    index = _field(body, "index", int)
    if index not in (1, 2):
        raise FrameError(f"setting index {index} is not 1 or 2")
    return index, _field(body, "nonce", str)


def encode_view(view: TrialView) -> bytes:
    """The BROADCAST body: the view's fields in order, blobs in base64."""
    doc = view._asdict()
    doc["blobs"] = {side: base64.b64encode(blob).decode("ascii") for side, blob in view.blobs.items()}
    return json.dumps(doc).encode("ascii")


_VIEW_FIELDS = frozenset(TrialView._fields)


def decode_view(body: bytes) -> TrialView:
    """The inverse of ``encode_view``; a body of any other shape is a
    FrameError."""
    doc = _json_body(body)
    if doc.keys() != _VIEW_FIELDS or not isinstance(doc["blobs"], dict):
        raise FrameError(f"malformed BROADCAST body: {doc!r}")
    m, own_setting, own_outcome = doc["m"], doc["own_setting"], doc["own_outcome"]
    other_setting, other_outcome = doc["other_setting"], doc["other_outcome"]
    if not (
        type(m) is type(own_setting) is type(own_outcome) is int
        and (other_setting is None or type(other_setting) is int)
        and (other_outcome is None or type(other_outcome) is int)
    ):
        raise FrameError(f"BROADCAST field is not an integer: {doc!r}")
    blobs = {side: _b64decode(blob) for side, blob in doc["blobs"].items()}
    return TrialView(m, own_setting, own_outcome, other_setting, other_outcome, blobs)


def _no_delay(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    if int(port) > 65535:
        raise ValueError(f"endpoint port must be 0-65535, got {endpoint!r}")
    if not host.isascii():
        # The socket layer would IDNA-encode this host itself and fail with a
        # UnicodeError or TypeError; an ASCII host never loads the codec.
        try:
            host = host.encode("idna").decode("ascii")
        except UnicodeError as exc:
            raise ValueError(f"endpoint host is not a valid IDNA name, got {endpoint!r}") from exc
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

    Frames are queued and written together at the point where the station
    must answer: each SETTING, CONFIG, VERDICT and ABORT writes everything
    queued, and ``get_outcome`` writes anything still queued before it
    waits. Transcript entries are added as frames are queued, in the order
    they go on the wire.

    Each SETTING it sends carries a fresh nonce, and ``get_outcome`` accepts
    only an OUTCOME that echoes the nonce of that trial's SETTING, the one
    SETTING awaiting its OUTCOME."""

    def __init__(self, sock: socket.socket, side: str, transcript: Transcript, mode: str):
        self.sock = sock
        self.side = side
        self.transcript = transcript
        self.mode = mode
        self._reader = FrameReader(sock)
        self._queued: list[bytes] = []
        self._nonce: str | None = None
        self._blob = b""

    def _queue(self, kind: str, trial: int | None, body: bytes = b"") -> None:
        self._queued.append(encode_frame(kind, trial, self.side, body))
        self.transcript.add("send", kind, trial, self.side)

    def _flush(self) -> None:
        if not self._queued:
            return
        data = b"".join(self._queued)
        self._queued.clear()
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise FrameError(f"cannot send to {self.side} station: {exc}") from exc

    def _send(self, kind: str, trial: int | None, body: bytes = b"") -> None:
        """Queue one frame, then write everything queued."""
        self._queue(kind, trial, body)
        self._flush()

    def deliver_lambda(self, m: int, message: SourceMessage) -> None:
        self._queue(KIND_LAMBDA, m, message.payload)

    def post_setting(self, m: int, index: int) -> None:
        self._nonce = secrets.token_hex(8)
        body = json.dumps({"index": index, "nonce": self._nonce}).encode("ascii")
        self._send(KIND_SETTING, m, body)

    def get_outcome(self, m: int):
        try:
            self._flush()
            doc = self._reader.read_frame()
            self.transcript.add("recv", doc.get("kind"), doc.get("trial"), doc.get("side"))
            trial = doc.get("trial")
            # An exact int: a JSON 1.0 or true equals 1 but is no trial number.
            exact_trial = type(trial) is int and trial == m
            if doc.get("kind") != KIND_OUTCOME or not exact_trial or doc.get("side") != self.side:
                raise ProtocolAbort(
                    f"expected {KIND_OUTCOME} for trial {m} from {self.side}, got "
                    f"{doc.get('kind')} trial {trial!r} side {doc.get('side')}"
                )
            body = _json_body(doc["body"])
            nonce, self._nonce = self._nonce, None
            if body.get("nonce") != nonce:
                raise ProtocolAbort(
                    f"{self.side} station answered trial {m} without the nonce of its "
                    "setting, so before the setting arrived: within-trial communication "
                    "is one way only"
                )
            if "value" not in body:
                raise ProtocolAbort(f"OUTCOME frame without value from {self.side}")
            self._blob = _b64decode(body.get("blob", ""))
        except ProtocolAbort as exc:
            # Attach context so partial logs reconcile with the abort report.
            if exc.trial is None:
                raise ProtocolAbort(exc.reason, trial=m, side=self.side) from exc
            raise
        return body["value"]

    def collect_blob(self, m: int) -> bytes:
        return self._blob

    def deliver_broadcast(self, m: int, view: TrialView) -> None:
        if self.mode == "sequential":  # otherwise stations fold in their own wing
            self._queue(KIND_BROADCAST, m, encode_view(view))

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
    if type(version) is not int or version != PROTOCOL_VERSION:  # 2.0 is no version
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

        result = RefereeEngine(config, stations=(stations[LEFT], stations[RIGHT])).run()

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
    set, reads it through one ``FrameReader``, and turns each referee frame
    into the matching call on the engine's own ``LocalStation``, so a
    strategy takes the same steps as in-process.
    Each OUTCOME echoes the nonce of the SETTING it answers; a malformed or
    out-of-order referee frame is a ``FrameError``.
    """

    def __init__(
        self,
        role: str,
        endpoint: str,
        *,
        strategy: Strategy | None = None,
        timeout: float = DEFAULT_TRIAL_TIMEOUT,
    ):
        if role not in SIDES:
            raise ValueError(f"role must be one of {SIDES}, got {role!r}")
        self.role = role
        self.host, self.port = parse_endpoint(endpoint)
        self.timeout = timeout
        self._strategy = strategy
        self.trials_completed = 0
        self.verdict: dict | None = None
        self.abort_reason: str | None = None
        self.sock: socket.socket | None = None

    def _send(self, kind: str, trial: int | None, body: bytes = b"") -> None:
        self.sock.sendall(encode_frame(kind, trial, self.role, body))

    def run(self) -> int:
        """Returns a process exit status: 0 on VERDICT, nonzero otherwise."""
        # getaddrinfo IDNA-encodes a str host, and importing that codec costs
        # a station about 2 ms before its first frame; parse_endpoint gives an
        # ASCII name, which as bytes needs no encoding.
        address = (self.host.encode("ascii"), self.port)
        self.sock = _no_delay(socket.create_connection(address, timeout=self.timeout))
        try:
            self._send(
                KIND_HELLO,
                None,
                json.dumps({"role": self.role, "version": PROTOCOL_VERSION}).encode("ascii"),
            )
            reader = FrameReader(self.sock)
            doc = reader.read_frame()
            if doc.get("kind") == KIND_ABORT:
                self.abort_reason = _json_body(doc["body"]).get("reason")
                return 3
            if doc.get("kind") != KIND_CONFIG:
                raise FrameError(f"expected CONFIG, got {doc.get('kind')}")
            config = config_from_dict(_json_body(doc["body"]))

            strategy = self._strategy
            if strategy is None:
                strategy = build_strategy(config.side.strategy, config.side.params)
            strategy.prepare(seed=config.seed, n=config.n, angles=config.angles, mode=config.mode)
            station = LocalStation(strategy, self.role)
            own_wing = config.mode != "sequential"
            while True:
                doc = reader.read_frame()
                kind = doc.get("kind")
                if kind == KIND_LAMBDA:
                    station.deliver_lambda(_field(doc, "trial", int), SourceMessage(doc["body"]))
                elif kind == KIND_SETTING:
                    setting = _setting(_json_body(doc["body"]))
                    self._answer(station, _field(doc, "trial", int), *setting, own_wing)
                elif kind == KIND_BROADCAST:
                    view = decode_view(doc["body"])
                    station.deliver_broadcast(view.m, view)
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

    def _answer(self, station: LocalStation, m: int, index: int, nonce: str, own_wing: bool) -> None:
        station.post_setting(m, index)
        try:
            value = station.get_outcome(m)
        except StrategyError as exc:  # e.g. a LAMBDA payload it cannot read
            raise FrameError(f"trial {m}: {exc}") from exc
        blob = station.collect_blob(m)
        body = {"value": value, "blob": base64.b64encode(blob).decode("ascii"), "nonce": nonce}
        self._send(KIND_OUTCOME, m, json.dumps(body).encode("ascii"))
        self.trials_completed = m
        if own_wing:
            # A cloned-source referee broadcasts nothing: the station folds
            # in its own wing, as the engine does. A non-bit value cannot
            # get here usefully (the referee aborts that trial).
            station.deliver_broadcast(m, TrialView(m, index, value if value in (0, 1) else 0))


def station_client(
    role: str,
    endpoint: str,
    *,
    strategy: Strategy | None = None,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
) -> int:
    """Convenience wrapper: run a station to completion, return exit status
    (0 verdict received, 2 config error or mismatch, 3 protocol abort). A
    role or endpoint no station can take is a config error, found before any
    socket is opened."""
    try:
        client = StationClient(role, endpoint, strategy=strategy, timeout=timeout)
    except ValueError:
        return 2
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

    A station writes the kind, trial and side of the frames it sends, so a
    received frame whose kind is not a string, whose trial is not an exact
    int or whose side is not a side is named as a failure and left out of
    the ordering."""
    failures: list[str] = []
    first: dict[tuple[str, str, int], int] = {}
    outcome_seq: dict[tuple[str, int], int] = {}
    for entry in entries:
        kind, trial, side = entry["kind"], entry.get("trial"), entry.get("side")
        if (
            type(kind) is not str
            or not (trial is None or type(trial) is int)
            or not (side is None or side in SIDES)
        ):
            failures.append(
                f"frame {entry['seq']}: {kind!r} with trial {trial!r} and side {side!r} "
                "is no protocol frame"
            )
            continue
        key = (kind, side or "", trial or 0)
        first.setdefault(key, entry["seq"])
        if kind == KIND_OUTCOME and entry["dir"] == "recv":
            outcome_seq[(side, trial)] = entry["seq"]

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
