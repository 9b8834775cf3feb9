"""Wire protocol: framing, equivalence, ordering enforcement, failure modes."""

import base64
import inspect
import json
import socket
import threading
import time

import pytest

from bellbet.config import config_from_dict
from bellbet.core import OPTIMAL_ANGLES
from bellbet.net import (
    KIND_ABORT,
    KIND_BROADCAST,
    KIND_CONFIG,
    KIND_HELLO,
    KIND_LAMBDA,
    KIND_OUTCOME,
    KIND_SETTING,
    KIND_VERDICT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    FrameReader,
    RemoteStation,
    StationClient,
    Transcript,
    audit_transcript,
    decode_view,
    encode_frame,
    encode_view,
    parse_endpoint,
    recv_frame,
    referee_serve,
    station_client,
)
from bellbet.referee import ABORT_PROTOCOL, ProtocolAbort, build_report, run_experiment
from bellbet.strategies import Strategy, TrialView


# A JSON value nested 100 000 deep: json.loads raises RecursionError on it.
DEEP = b"[" * 100_000 + b"]" * 100_000


def make_config(name="classical-polarizer", n=200, seed=21, mode="sequential"):
    return config_from_dict(
        {
            "mode": mode,
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": {"kind": "strategy", "strategy": name, "params": {}},
            "n": n,
            "seed": seed,
            "critical_value": max(1, round(n * 0.05)),
        }
    )


def serve_in_thread(config, **kwargs):
    """Start referee_serve on a free port; returns (thread, endpoint, box)."""
    box = {}
    ready = threading.Event()

    def on_ready(addr):
        box["endpoint"] = f"{addr[0]}:{addr[1]}"
        ready.set()

    def target():
        try:
            box["result"] = referee_serve(
                config, "127.0.0.1:0", ready_callback=on_ready, **kwargs
            )
        except Exception as exc:  # surfaced by the test that joins
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert ready.wait(10), "referee did not come up"
    return thread, box


def run_stations(endpoint, roles=("left", "right"), **kwargs):
    statuses = {}
    threads = []
    for role in roles:
        def target(r=role):
            statuses[r] = station_client(r, endpoint, **kwargs)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(30)
    return statuses


class TestFraming:
    def test_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = bytes(range(256))
            left.sendall(encode_frame(KIND_LAMBDA, 7, "left", payload))
            doc = recv_frame(right)
            assert doc["kind"] == KIND_LAMBDA
            assert doc["trial"] == 7
            assert doc["side"] == "left"
            assert doc["body"] == payload
        finally:
            left.close()
            right.close()

    def test_length_prefix_is_big_endian(self):
        frame = encode_frame(KIND_HELLO, None, None, b"")
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    @pytest.mark.parametrize("body", [b"[1]", b'"value"', b"7"])
    def test_outcome_body_must_be_an_object(self, body):
        referee_end, station_end = socket.socketpair()
        try:
            station = RemoteStation(referee_end, "left", Transcript(), "sequential")
            station_end.sendall(encode_frame(KIND_OUTCOME, 1, "left", body))
            with pytest.raises(ProtocolAbort, match="not a JSON object"):
                station.get_outcome(1)
        finally:
            referee_end.close()
            station_end.close()

    @pytest.mark.parametrize("body", ["abc", 5, ["x"]])
    def test_malformed_base64_body_is_a_frame_error(self, body):
        left, right = socket.socketpair()
        try:
            payload = json.dumps({"kind": KIND_HELLO, "trial": None, "side": None, "body": body})
            left.sendall(len(payload).to_bytes(4, "big") + payload.encode())
            with pytest.raises(FrameError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("blob", ["abc", 5])
    def test_outcome_with_malformed_blob_aborts_its_trial(self, blob):
        referee_end, station_end = socket.socketpair()
        try:
            station = RemoteStation(referee_end, "left", Transcript(), "sequential")
            station.post_setting(1, 2)
            nonce = json.loads(recv_frame(station_end)["body"])["nonce"]
            body = json.dumps({"value": 1, "blob": blob, "nonce": nonce}).encode()
            station_end.sendall(encode_frame(KIND_OUTCOME, 1, "left", body))
            with pytest.raises(ProtocolAbort) as caught:
                station.get_outcome(1)
            assert (caught.value.trial, caught.value.side) == (1, "left")
        finally:
            referee_end.close()
            station_end.close()

    @pytest.mark.parametrize(
        "kind, trial, side, body",
        [
            (KIND_HELLO, None, None, b""),
            (KIND_SETTING, 7, "left", b'{"index": 1, "nonce": "00ff"}'),
            (KIND_OUTCOME, 2**64 + 1, "right", bytes(range(256))),
            ('R\u00e9f "quoted" \\ \u2603', -3, 'side "q"', b"\x00"),
            (KIND_LAMBDA, True, None, b"x" * 1000),
        ],
    )
    def test_envelope_bytes_match_the_json_reference(self, kind, trial, side, body):
        doc = {"kind": kind, "trial": trial, "side": side, "body": base64.b64encode(body).decode("ascii")}
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        assert encode_frame(kind, trial, side, body) == len(payload).to_bytes(4, "big") + payload

    @staticmethod
    def answer_trial_1(trial, side, transcript_path):
        """The left station's OUTCOME for trial 1 with this trial and side in
        its envelope: the abort it causes and the audit of the transcript."""
        referee_end, station_end = socket.socketpair()
        try:
            transcript = Transcript()
            station = RemoteStation(referee_end, "left", transcript, "sequential")
            station.post_setting(1, 2)
            nonce = json.loads(recv_frame(station_end)["body"])["nonce"]
            body = json.dumps({"value": 1, "blob": "", "nonce": nonce}).encode()
            station_end.sendall(encode_frame(KIND_OUTCOME, trial, side, body))
            with pytest.raises(ProtocolAbort, match="expected OUTCOME") as caught:
                station.get_outcome(1)
        finally:
            referee_end.close()
            station_end.close()
        transcript.write(transcript_path)
        return caught.value, audit_transcript(Transcript.read(transcript_path))

    @pytest.mark.parametrize("trial", [1.0, True, "1", [1]])
    def test_outcome_trial_must_be_an_exact_int(self, trial, tmp_path):
        # 1.0 == True == 1, but neither is the trial number the referee asked
        # for; the audit names the frame, whatever the type of its trial.
        abort, audit = self.answer_trial_1(trial, "left", tmp_path / "wire.jsonl")
        assert (abort.trial, abort.side) == (1, "left")
        assert not audit.ok
        assert audit.failures[0].startswith(f"frame 2: 'OUTCOME' with trial {trial!r} ")

    @pytest.mark.parametrize("side", ["middle", ["left"]])
    def test_audit_names_an_outcome_from_no_side(self, side, tmp_path):
        abort, audit = self.answer_trial_1(1, side, tmp_path / "wire.jsonl")
        assert (abort.trial, abort.side) == (1, "left")
        assert not audit.ok
        assert audit.failures[0].startswith(f"frame 2: 'OUTCOME' with trial 1 and side {side!r} ")

    def test_view_codec_round_trip_and_bytes(self):
        view = TrialView(3, 1, 0, 2, 1, {"left": b"a", "right": b""})
        body = encode_view(view)
        # The BROADCAST body of wire protocol 2, byte for byte.
        assert body == (
            b'{"m": 3, "own_setting": 1, "own_outcome": 0, "other_setting": 2, '
            b'"other_outcome": 1, "blobs": {"left": "YQ==", "right": ""}}'
        )
        assert decode_view(body) == view
        own_wing = TrialView(4, 2, 1)
        assert decode_view(encode_view(own_wing)) == own_wing

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:881") == ("127.0.0.1", 881)
        assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)
        # A non-ASCII host is IDNA-encoded; one the codec refuses is a ValueError.
        assert parse_endpoint("bücher.example:80") == ("xn--bcher-kva.example", 80)
        for bad in ("no-port", "127.0.0.1:65536", "127.0.0.1:70000", "ä..b:80", "ä" * 70 + ":80"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


class CountingSocket:
    """A socket whose ``recv`` calls are counted."""

    def __init__(self, sock):
        self.sock = sock
        self.recv_calls = 0

    def recv(self, count):
        self.recv_calls += 1
        return self.sock.recv(count)


READERS = {
    "recv_frame": lambda sock: lambda: recv_frame(sock),
    "FrameReader": lambda sock: FrameReader(sock).read_frame,
}


@pytest.fixture
def socket_pair():
    left, right = socket.socketpair()
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


class TestFrameBoundaries:
    """Both frame readers, the one-shot ``recv_frame`` and a connection's
    buffered ``FrameReader``, on every way the bytes of frames can arrive."""

    FRAMES = [
        encode_frame(KIND_LAMBDA, 1, "left", b"lambda"),
        encode_frame(KIND_SETTING, 1, "left", b'{"index": 2, "nonce": "ab"}'),
        encode_frame(KIND_BROADCAST, 1, "left", bytes(range(256)) * 20),
    ]

    @staticmethod
    def kinds(read, count):
        return [read()["kind"] for _ in range(count)]

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_one_byte_per_send(self, reader, socket_pair):
        left, right = socket_pair
        read = READERS[reader](right)
        wire = b"".join(self.FRAMES[:2])

        def dribble():
            for k in range(len(wire)):
                left.sendall(wire[k : k + 1])
                time.sleep(0.0005)

        sender = threading.Thread(target=dribble, daemon=True)
        sender.start()
        assert self.kinds(read, 2) == [KIND_LAMBDA, KIND_SETTING]
        sender.join(10)
        assert not sender.is_alive()

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_three_frames_in_one_send(self, reader, socket_pair):
        left, right = socket_pair
        left.sendall(b"".join(self.FRAMES))
        read = READERS[reader](right)
        assert self.kinds(read, 3) == [KIND_LAMBDA, KIND_SETTING, KIND_BROADCAST]

    def test_reader_parses_every_frame_one_recv_delivered(self, socket_pair):
        left, right = socket_pair
        left.sendall(b"".join(self.FRAMES[:2]))
        counting = CountingSocket(right)
        reader = FrameReader(counting)
        assert self.kinds(reader.read_frame, 2) == [KIND_LAMBDA, KIND_SETTING]
        assert counting.recv_calls == 1

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_frame_split_across_two_sends(self, reader, socket_pair):
        left, right = socket_pair
        wire = self.FRAMES[2] + self.FRAMES[0]
        cut = len(self.FRAMES[2]) // 2
        left.sendall(wire[:cut])
        sender = threading.Timer(0.2, left.sendall, args=(wire[cut:],))
        sender.start()
        read = READERS[reader](right)
        doc = read()
        assert (doc["kind"], doc["body"]) == (KIND_BROADCAST, bytes(range(256)) * 20)
        assert read()["kind"] == KIND_LAMBDA
        sender.join(10)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_over_limit_length_refused_before_the_payload(self, reader, socket_pair):
        # Only the length prefix is sent: a reader that went on to wait for
        # the payload would time out instead.
        left, right = socket_pair
        right.settimeout(1.0)
        left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(FrameError, match="exceeds limit"):
            READERS[reader](right)()
        left.sendall(b"payload")
        assert right.recv(16) == b"payload"

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_eof_mid_frame_is_a_frame_error(self, reader, socket_pair):
        left, right = socket_pair
        left.sendall(self.FRAMES[0] + self.FRAMES[1][:10])
        left.shutdown(socket.SHUT_WR)
        read = READERS[reader](right)
        assert read()["kind"] == KIND_LAMBDA
        with pytest.raises(FrameError, match="closed mid-frame"):
            read()

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_timeout_is_a_station_timeout(self, reader, socket_pair):
        left, right = socket_pair
        right.settimeout(0.2)
        left.sendall(self.FRAMES[0][:6])
        with pytest.raises(ProtocolAbort) as caught:
            READERS[reader](right)()
        assert not isinstance(caught.value, FrameError)
        assert caught.value.reason == "station timeout"


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_networked_log_matches_in_process(self, mode):
        config = make_config("adaptive-frequency-tracker", n=150, seed=33, mode=mode)
        in_process = run_experiment(config)
        thread, box = serve_in_thread(config, trial_timeout=15.0)
        statuses = run_stations(box["endpoint"], timeout=15.0)
        thread.join(30)
        assert "error" not in box, box.get("error")
        result, transcript = box["result"]
        assert statuses == {"left": 0, "right": 0}
        assert result.log.to_bytes() == in_process.log.to_bytes()
        assert result.verdict == in_process.verdict
        audit = audit_transcript(transcript.entries)
        assert audit.ok, audit.failures

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_networked_coin_bet_matches_in_process(self, mode):
        # The one honest side whose stations read their own seeded stream on
        # every trial.
        config = make_config("independent-coin", n=60, seed=17, mode=mode)
        in_process = run_experiment(config)
        thread, box = serve_in_thread(config, trial_timeout=15.0)
        statuses = run_stations(box["endpoint"], timeout=15.0)
        thread.join(30)
        assert "error" not in box, box.get("error")
        result, _ = box["result"]
        assert statuses == {"left": 0, "right": 0}
        assert result.log.to_bytes() == in_process.log.to_bytes()
        assert build_report(result) == build_report(in_process)

    def test_transcript_write_and_read(self, tmp_path):
        config = make_config(n=30, seed=4)
        path = tmp_path / "wire.jsonl"
        thread, box = serve_in_thread(config, trial_timeout=15.0, transcript_path=path)
        run_stations(box["endpoint"], timeout=15.0)
        thread.join(30)
        entries = Transcript.read(path)
        assert audit_transcript(entries).ok
        assert entries[0]["seq"] == 1

    def test_network_log_analyzes_identically(self, tmp_path, capsys):
        # cmd_analyze output for the networked log equals the in-process one.
        from bellbet.cli import main

        config = make_config(n=120, seed=44)
        in_process = run_experiment(config)
        thread, box = serve_in_thread(config, trial_timeout=15.0)
        run_stations(box["endpoint"], timeout=15.0)
        thread.join(30)
        networked, _ = box["result"]

        outputs = []
        for tag, result in (("local", in_process), ("net", networked)):
            path = tmp_path / f"{tag}.log"
            result.log.write(path)
            assert main(["analyze", "--log", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("log")
            outputs.append(doc)
        assert outputs[0] == outputs[1]


def assert_version_refused(version):
    """A HELLO offering ``version`` gets an ABORT back, and the bet still
    completes once well-behaved stations arrive."""
    config = make_config(n=20, seed=5)
    thread, box = serve_in_thread(config, trial_timeout=5.0)
    host, port = parse_endpoint(box["endpoint"])
    bad = socket.create_connection((host, port), timeout=5.0)
    try:
        bad.sendall(
            encode_frame(
                KIND_HELLO,
                None,
                "left",
                json.dumps({"role": "left", "version": version}).encode(),
            )
        )
        doc = recv_frame(bad)
        assert doc["kind"] == KIND_ABORT
    finally:
        bad.close()
    statuses = run_stations(box["endpoint"], timeout=10.0)
    thread.join(30)
    assert statuses == {"left": 0, "right": 0}
    result, _ = box["result"]
    assert result.verdict is not None


def assert_hello_dropped(payload):
    """A stray client whose HELLO frame has ``payload`` is hung up on, and the
    bet still completes once well-behaved stations arrive."""
    config = make_config(n=20, seed=5)
    thread, box = serve_in_thread(config, trial_timeout=5.0)
    host, port = parse_endpoint(box["endpoint"])
    with socket.create_connection((host, port), timeout=5.0) as bad:
        bad.sendall(len(payload).to_bytes(4, "big") + payload)
        assert bad.recv(1) == b""  # the referee hangs up
    statuses = run_stations(box["endpoint"], timeout=10.0)
    thread.join(30)
    assert "error" not in box, box.get("error")
    assert statuses == {"left": 0, "right": 0}
    assert box["result"][0].verdict is not None


class TestHandshake:
    def test_wrong_protocol_version_rejected(self):
        assert_version_refused(PROTOCOL_VERSION + 1)

    def test_float_protocol_version_rejected(self):
        # 2.0 == 2, but a version is an exact int.
        assert_version_refused(float(PROTOCOL_VERSION))

    def test_malformed_hello_is_dropped(self):
        assert_hello_dropped(b'{"kind":"HELLO","trial":null,"side":"left","body":"abc"}')

    def test_deeply_nested_hello_is_dropped(self):
        assert_hello_dropped(b'{"kind":"HELLO","trial":null,"side":"left","body":"","pad":' + DEEP + b"}")


FAKE_N = 40


def fake_config_doc(**overrides):
    """The config of a sequential bet at n=FAKE_N, with ``overrides``."""
    return {**make_config(n=FAKE_N, seed=3).to_dict(), **overrides}


def fake_referee(frames, config_doc=None):
    """Serve one station: ``config_doc`` as its CONFIG (by default
    ``fake_config_doc()``), then ``frames`` (raw bytes), then wait for the
    station to hang up. Returns the endpoint."""
    config_body = json.dumps(config_doc or fake_config_doc()).encode()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                recv_frame(conn)  # HELLO
                conn.sendall(encode_frame(KIND_CONFIG, None, None, config_body) + b"".join(frames))
                while conn.recv(4096):
                    pass

    threading.Thread(target=serve, daemon=True).start()
    host, port = listener.getsockname()[:2]
    return f"{host}:{port}"


def setting(trial, **body):
    return encode_frame(KIND_SETTING, trial, "left", json.dumps(body).encode())


def broadcast(body):
    return encode_frame(KIND_BROADCAST, 1, "left", json.dumps(body).encode())


GOOD_VIEW = {**TrialView(1, 1, 0, 2, 1)._asdict(), "blobs": {}}

MALFORMED_REFEREE_FRAMES = {
    "setting without index": [setting(1, nonce="ab")],
    "string index": [setting(1, index="1", nonce="ab")],
    "index out of range": [setting(1, index=3, nonce="ab")],
    "setting without nonce": [setting(1, index=1)],
    "integer nonce": [setting(1, index=1, nonce=7)],
    "string trial": [setting("1", index=1, nonce="ab")],
    "missing trial": [setting(None, index=1, nonce="ab")],
    "setting body not json": [encode_frame(KIND_SETTING, 1, "left", b"{")],
    "lambda without trial": [encode_frame(KIND_LAMBDA, None, "left", b"")],
    "broadcast not an object": [encode_frame(KIND_BROADCAST, 1, "left", b"[1]")],
    "broadcast missing field": [
        broadcast({k: v for k, v in GOOD_VIEW.items() if k != "own_outcome"})
    ],
    "broadcast string setting": [broadcast({**GOOD_VIEW, "own_setting": "1"})],
    "broadcast blobs not an object": [broadcast({**GOOD_VIEW, "blobs": [1]})],
    "broadcast bad blob": [broadcast({**GOOD_VIEW, "blobs": {"left": "abc"}})],
    "unknown kind": [encode_frame("GREETING", 1, "left", b"")],
}


class TestMalformedRefereeFrames:
    @pytest.mark.parametrize("case", sorted(MALFORMED_REFEREE_FRAMES))
    def test_station_exits_3(self, case):
        # A station ends a malformed referee frame with the protocol-abort
        # status, never a traceback.
        endpoint = fake_referee(MALFORMED_REFEREE_FRAMES[case])
        assert station_client("left", endpoint, timeout=10.0) == 3


class TestBadConfigFrame:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_error": 10**400},
            {"angles": [10**400, 0.0, 0.0, 0.0]},
            {"mode": "batch"},
        ],
        ids=["huge target_error", "huge angle", "batch mode"],
    )
    def test_station_exits_2(self, overrides):
        # A CONFIG the station cannot accept is a config mismatch, never a
        # traceback; a 401-digit integer has no float.
        endpoint = fake_referee([], fake_config_doc(**overrides))
        assert station_client("left", endpoint, timeout=10.0) == 2


class MisbehavingClient:
    """Sends OUTCOME for trial 1 immediately after HELLO/CONFIG, before its
    setting arrives: a within-trial ordering violation."""

    def __init__(self, endpoint, role="left"):
        self.endpoint = endpoint
        self.role = role

    def run(self):
        host, port = parse_endpoint(self.endpoint)
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(
                encode_frame(
                    KIND_HELLO,
                    None,
                    self.role,
                    json.dumps({"role": self.role, "version": PROTOCOL_VERSION}).encode(),
                )
            )
            doc = recv_frame(sock)
            assert doc["kind"] == KIND_CONFIG
            body = json.dumps({"value": 1, "blob": ""}).encode()
            sock.sendall(encode_frame(KIND_OUTCOME, 1, self.role, body))
            while True:
                doc = recv_frame(sock)
                if doc["kind"] == KIND_ABORT:
                    return 3
        except Exception:
            return 3
        finally:
            sock.close()


class EarlyAnswerClient:
    """Answers every trial as soon as its LAMBDA arrives, never waiting for
    the SETTING: its OUTCOME is in flight while the referee reveals the
    setting, the case a check for already-arrived bytes cannot see."""

    def __init__(self, endpoint, role="right"):
        self.endpoint = endpoint
        self.role = role

    def run(self):
        host, port = parse_endpoint(self.endpoint)
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(
                encode_frame(
                    KIND_HELLO,
                    None,
                    self.role,
                    json.dumps({"role": self.role, "version": PROTOCOL_VERSION}).encode(),
                )
            )
            body = json.dumps({"value": 1, "blob": ""}).encode()
            while True:
                doc = recv_frame(sock)
                if doc["kind"] == KIND_LAMBDA:
                    sock.sendall(encode_frame(KIND_OUTCOME, doc["trial"], self.role, body))
                elif doc["kind"] in (KIND_ABORT, KIND_VERDICT):
                    return
        except (OSError, ProtocolAbort):
            return
        finally:
            sock.close()


class GarbageClient:
    """Completes the handshake, then answers its first SETTING with a frame
    whose payload is ``payload``."""

    def __init__(self, endpoint, role, payload):
        self.endpoint = endpoint
        self.role = role
        self.payload = payload

    def run(self):
        host, port = parse_endpoint(self.endpoint)
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(
                encode_frame(
                    KIND_HELLO,
                    None,
                    self.role,
                    json.dumps({"role": self.role, "version": PROTOCOL_VERSION}).encode(),
                )
            )
            while True:
                doc = recv_frame(sock)
                if doc["kind"] == "SETTING":
                    sock.sendall(len(self.payload).to_bytes(4, "big") + self.payload)
                elif doc["kind"] == KIND_ABORT:
                    return 3
        except Exception:
            return 3
        finally:
            sock.close()


def assert_rogue_frame_aborts(payload):
    """A station that answers its first SETTING with a frame whose payload is
    ``payload`` ends the run as a protocol abort with an empty log."""
    config = make_config(n=20, seed=61)
    thread, box = serve_in_thread(config, trial_timeout=5.0)
    endpoint = box["endpoint"]
    rogue = threading.Thread(target=GarbageClient(endpoint, "left", payload).run, daemon=True)
    honest = threading.Thread(
        target=lambda: station_client("right", endpoint, timeout=10.0), daemon=True
    )
    rogue.start()
    honest.start()
    thread.join(30)
    assert "error" not in box, box.get("error")
    result, _ = box["result"]
    assert result.abort is not None
    assert result.abort.kind == ABORT_PROTOCOL
    assert len(result.log) == 0


class TestEnforcement:
    def test_malformed_frame_aborts(self):
        assert_rogue_frame_aborts(b"\x00garbage\xff")  # not JSON

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"kind":"OUTCOME","side":"left","trial":1,"body":"","pad":' + DEEP + b"}",
            b'{"kind":"OUTCOME","side":"left","trial":' + b"1" * 5000 + b',"body":""}',
            encode_frame(KIND_OUTCOME, 1, "left", DEEP)[4:],
        ],
        ids=["nested-too-deep", "5000-digit-trial", "body-nested-too-deep"],
    )
    def test_outcome_past_the_decoder_limits_aborts(self, payload):
        assert_rogue_frame_aborts(payload)

    def test_premature_outcome_aborts(self):
        config = make_config(n=20, seed=6)
        thread, box = serve_in_thread(config, trial_timeout=5.0)
        endpoint = box["endpoint"]
        rogue_status = {}

        def rogue():
            rogue_status["left"] = MisbehavingClient(endpoint, "left").run()

        rogue_thread = threading.Thread(target=rogue, daemon=True)
        rogue_thread.start()
        honest = threading.Thread(
            target=lambda: station_client("right", endpoint, timeout=10.0), daemon=True
        )
        honest.start()
        thread.join(30)
        rogue_thread.join(10)
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == ABORT_PROTOCOL
        assert "one way" in result.abort.reason
        assert result.abort.trial == 1
        assert len(result.log) == 0

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_in_flight_early_outcome_aborts(self, mode):
        config = make_config(n=50, seed=62, mode=mode)
        thread, box = serve_in_thread(config, trial_timeout=5.0)
        endpoint = box["endpoint"]
        rogue = threading.Thread(target=EarlyAnswerClient(endpoint, "right").run, daemon=True)
        honest = threading.Thread(
            target=lambda: station_client("left", endpoint, timeout=10.0), daemon=True
        )
        rogue.start()
        honest.start()
        thread.join(30)
        rogue.join(10)
        honest.join(10)
        assert "error" not in box, box.get("error")
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == ABORT_PROTOCOL
        assert result.abort.trial == 1
        assert "one way" in result.abort.reason
        assert len(result.log) == 0

    def test_station_disconnect_preserves_partial_log(self):
        class QuitsEarly(Strategy):
            name = "quits-early"

            def station_respond(self, side, setting_index, message, memory):
                if memory.next_trial >= 8:
                    raise SystemExit
                return 1

        config = make_config(n=20, seed=7)
        thread, box = serve_in_thread(config, trial_timeout=5.0)
        endpoint = box["endpoint"]

        def quitting_station():
            try:
                station_client("left", endpoint, strategy=QuitsEarly(), timeout=10.0)
            except SystemExit:
                pass

        left = threading.Thread(target=quitting_station, daemon=True)
        right = threading.Thread(
            target=lambda: station_client("right", endpoint, timeout=10.0), daemon=True
        )
        left.start()
        right.start()
        thread.join(30)
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == ABORT_PROTOCOL
        assert 0 < len(result.log) < 20
        assert result.verdict is None
        # The abort carries the failing trial, so the partial log replays.
        from bellbet.referee import build_report, replay_verify

        assert result.abort.trial == len(result.log) + 1
        assert replay_verify(result.log, build_report(result))

    def test_station_timeout_aborts(self):
        class Hangs(Strategy):
            name = "hangs"

            def station_respond(self, side, setting_index, message, memory):
                if memory.next_trial >= 3:
                    time.sleep(5.0)
                return 1

        config = make_config(n=10, seed=8)
        thread, box = serve_in_thread(config, trial_timeout=1.0)
        endpoint = box["endpoint"]
        left = threading.Thread(
            target=lambda: station_client("left", endpoint, strategy=Hangs(), timeout=10.0),
            daemon=True,
        )
        right = threading.Thread(
            target=lambda: station_client("right", endpoint, timeout=10.0), daemon=True
        )
        left.start()
        right.start()
        thread.join(30)
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == ABORT_PROTOCOL


class BlobCollector(Strategy):
    name = "blob-collector"

    def __init__(self):
        super().__init__()
        self.relayed = []

    def station_respond(self, side, setting_index, message, memory):
        return 1

    def boundary_blob(self, side, m):
        return f"{side}:{m}".encode()

    def update_memory(self, side, memory, view):
        self.relayed.append(dict(view.blobs))
        return super().update_memory(side, memory, view)


class TestSideChannelOverWire:
    def test_blobs_relayed_at_trial_boundaries(self):
        config = make_config("constant", n=24, seed=14)
        thread, box = serve_in_thread(config, trial_timeout=10.0)
        collectors = {"left": BlobCollector(), "right": BlobCollector()}
        statuses = {}
        threads = []
        for role, collector in collectors.items():
            def target(r=role, c=collector):
                statuses[r] = station_client(r, box["endpoint"], strategy=c, timeout=10.0)

            t = threading.Thread(target=target, daemon=True)
            t.start()
            threads.append(t)
        thread.join(30)
        for t in threads:
            t.join(10)
        assert statuses == {"left": 0, "right": 0}
        for collector in collectors.values():
            assert len(collector.relayed) == 24
            for m, blobs in enumerate(collector.relayed, start=1):
                assert blobs == {"left": f"left:{m}".encode(), "right": f"right:{m}".encode()}


def no_delay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestTransport:
    def test_sockets_run_with_no_delay(self, monkeypatch):
        # Without TCP_NODELAY every trial stalls on Nagle plus delayed ACK.
        referee_side = {}
        original_send = RemoteStation._send

        def recording_send(self, kind, trial, body=b""):
            if trial is not None:
                referee_side[self.side] = no_delay(self.sock)
            original_send(self, kind, trial, body)

        monkeypatch.setattr(RemoteStation, "_send", recording_send)

        station_side = {}

        class RecordingClient(StationClient):
            def _send(self, kind, trial, body=b""):
                if trial is not None:
                    station_side[self.role] = no_delay(self.sock)
                super()._send(kind, trial, body)

        config = make_config(n=10, seed=15)
        thread, box = serve_in_thread(config, trial_timeout=10.0)
        clients = [RecordingClient(role, box["endpoint"], timeout=10.0) for role in ("left", "right")]
        threads = [threading.Thread(target=c.run, daemon=True) for c in clients]
        for t in threads:
            t.start()
        thread.join(30)
        for t in threads:
            t.join(10)
        assert "error" not in box, box.get("error")
        result, _ = box["result"]
        assert result.verdict is not None
        assert referee_side == {"left": True, "right": True}
        assert station_side == {"left": True, "right": True}


class WriteRecorder:
    """A referee-side socket that records the frames of each ``sendall``
    as (kind, trial) pairs, one list per write."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.sock.sendall(data)
        frames = []
        start = 0
        while start < len(data):
            end = start + 4 + int.from_bytes(data[start : start + 4], "big")
            doc = json.loads(data[start + 4 : end])
            frames.append((doc["kind"], doc["trial"]))
            start = end
        self.writes.append(frames)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def expected_writes(mode, n):
    """Each write to one station, as its frames: one write per trial."""
    trials = [[(KIND_LAMBDA, m), (KIND_SETTING, m)] for m in range(1, n + 1)]
    verdict = [(KIND_VERDICT, None)]
    if mode == "sequential":
        for m in range(2, n + 1):
            trials[m - 1].insert(0, (KIND_BROADCAST, m - 1))
        verdict.insert(0, (KIND_BROADCAST, n))
    return [[(KIND_CONFIG, None)], *trials, verdict]


class TestWritePattern:
    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_one_write_per_station_per_trial(self, mode, monkeypatch):
        recorders = {}
        original_init = RemoteStation.__init__

        def recording_init(self, sock, side, transcript, mode):
            recorders[side] = WriteRecorder(sock)
            original_init(self, recorders[side], side, transcript, mode)

        monkeypatch.setattr(RemoteStation, "__init__", recording_init)
        n = 12
        config = make_config(n=n, seed=16, mode=mode)
        thread, box = serve_in_thread(config, trial_timeout=10.0)
        statuses = run_stations(box["endpoint"], timeout=10.0)
        thread.join(30)
        assert "error" not in box, box.get("error")
        assert statuses == {"left": 0, "right": 0}
        result, transcript = box["result"]
        assert result.log.to_bytes() == run_experiment(config).log.to_bytes()
        assert set(recorders) == {"left", "right"}
        for side, recorder in recorders.items():
            assert recorder.writes == expected_writes(mode, n)
            sent = [
                (e["kind"], e["trial"]) for e in transcript.entries
                if e["dir"] == "send" and e["side"] == side
            ]
            assert sent == [frame for write in recorder.writes for frame in write]


class TestStationStart:
    def test_bad_role_or_endpoint_exits_2_before_any_socket(self, monkeypatch):
        def no_connection(*args, **kwargs):
            raise AssertionError("station opened a connection")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        assert station_client("left", "nohost") == 2
        assert station_client("middle", "127.0.0.1:1") == 2

    def test_station_connects_without_the_idna_codec(self):
        # An ASCII host reaches getaddrinfo as bytes, so the station never
        # imports the IDNA codec (about 2 ms of its start-up).
        import subprocess
        import sys

        code = (
            "import socket, sys\n"
            "listener = socket.socket()\n"
            "listener.bind(('127.0.0.1', 0))\n"
            "listener.listen()\n"
            "from bellbet.net import station_client\n"
            "status = station_client('left', '127.0.0.1:%d' % listener.getsockname()[1], timeout=0.5)\n"
            "print(status, 'encodings.idna' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        assert done.stdout.split() == ["3", "False"]

    def test_polarizer_station_never_imports_numpy_random(self):
        # The polarizer's stations read only the source message; the seeded
        # source stream is the referee's, so a station never draws it.
        import subprocess
        import sys

        config = make_config(n=20, seed=6)
        thread, box = serve_in_thread(config, trial_timeout=15.0)
        code = (
            "import sys\n"
            "from bellbet.net import station_client\n"
            "status = station_client(sys.argv[1], sys.argv[2], timeout=15.0)\n"
            "print(status, 'numpy.random' in sys.modules)\n"
        )
        stations = [
            subprocess.Popen(
                [sys.executable, "-c", code, role, box["endpoint"]],
                stdout=subprocess.PIPE,
                text=True,
            )
            for role in ("left", "right")
        ]
        try:
            outputs = [station.communicate(timeout=60)[0] for station in stations]
        finally:
            for station in stations:
                station.kill()
                station.communicate()
        thread.join(30)
        assert "error" not in box, box.get("error")
        result, _ = box["result"]
        assert result.log.to_bytes() == run_experiment(config).log.to_bytes()
        assert [output.split() for output in outputs] == [["0", "False"]] * 2


class TestIsolation:
    def test_station_holds_exactly_one_socket(self):
        config = make_config(n=15, seed=9)
        thread, box = serve_in_thread(config, trial_timeout=10.0)
        clients = {}

        def run_client(role):
            client = StationClient(role, box["endpoint"], timeout=10.0)
            clients[role] = client
            client.run()

        threads = [
            threading.Thread(target=run_client, args=(role,), daemon=True)
            for role in ("left", "right")
        ]
        for t in threads:
            t.start()
        thread.join(30)
        for t in threads:
            t.join(10)
        for client in clients.values():
            sockets = [v for v in vars(client).values() if isinstance(v, socket.socket)]
            assert len(sockets) == 1
            assert client.trials_completed == 15
            assert client.verdict is not None

    def test_respond_signature_has_no_channel(self):
        params = inspect.signature(Strategy.station_respond).parameters
        assert "other_setting" not in params
        assert "other_outcome" not in params
        assert set(params) == {"self", "side", "setting_index", "message", "memory"}


class TestServeCli:
    def test_three_process_serve_via_cli(self, tmp_path):
        import subprocess
        import sys

        config = make_config(n=60, seed=55)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        log_path = tmp_path / "net.log"
        transcript_path = tmp_path / "wire.jsonl"

        serve = subprocess.Popen(
            [
                sys.executable, "-m", "bellbet", "serve",
                "--config", str(config_path),
                "--endpoint", "127.0.0.1:0",
                "--out", str(log_path),
                "--transcript", str(transcript_path),
                "--timeout", "15",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        procs = [serve]
        try:
            banner = serve.stdout.readline().strip()
            assert banner.startswith("listening on ")
            endpoint = banner.removeprefix("listening on ")
            procs += [
                subprocess.Popen(
                    [sys.executable, "-m", "bellbet", "station", "--role", role,
                     "--endpoint", endpoint],
                )
                for role in ("left", "right")
            ]
            out, err = serve.communicate(timeout=30)
            assert serve.returncode == 0, err
            assert [proc.wait(timeout=10) for proc in procs[1:]] == [0, 0]
        finally:
            for proc in procs:
                proc.kill()
                proc.communicate()
        in_process = run_experiment(config)
        assert log_path.read_bytes() == in_process.log.to_bytes()
        assert audit_transcript(Transcript.read(transcript_path)).ok
        # After the banner, stdout is the report file's text and a newline.
        assert out == (tmp_path / "net.log.report.json").read_text() + "\n"


class TestServeValidation:
    def test_quantum_side_refused(self):
        config = config_from_dict(
            {
                "angles": list(OPTIMAL_ANGLES.as_tuple()),
                "side": {"kind": "quantum", "correlation_sense": "equal-polarization"},
                "n": 10,
                "seed": 1,
                "critical_value": 1,
            }
        )
        with pytest.raises(ValueError):
            referee_serve(config, "127.0.0.1:0")

    def test_range_violator_aborts_networked_run(self):
        config = make_config("range-violator", n=10, seed=10)
        thread, box = serve_in_thread(config, trial_timeout=10.0)
        statuses = run_stations(box["endpoint"], timeout=10.0)
        thread.join(30)
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == "validation-failure"
        assert statuses == {"left": 3, "right": 3}
