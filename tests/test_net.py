"""Wire protocol: framing, equivalence, ordering enforcement, failure modes."""

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
    KIND_CONFIG,
    KIND_HELLO,
    KIND_LAMBDA,
    KIND_OUTCOME,
    KIND_VERDICT,
    PROTOCOL_VERSION,
    RemoteStation,
    StationClient,
    Transcript,
    audit_transcript,
    encode_frame,
    parse_endpoint,
    recv_frame,
    referee_serve,
    station_client,
)
from bellbet.referee import ABORT_PROTOCOL, ProtocolAbort, run_experiment
from bellbet.strategies import Strategy


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

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:881") == ("127.0.0.1", 881)
        assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for bad in ("no-port", "127.0.0.1:65536", "127.0.0.1:70000"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("mode", ["sequential", "cloned-source", "batch"])
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
        if mode != "batch":
            audit = audit_transcript(transcript.entries)
            assert audit.ok, audit.failures

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


class TestHandshake:
    def test_wrong_protocol_version_rejected(self):
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
                    json.dumps({"role": "left", "version": PROTOCOL_VERSION + 1}).encode(),
                )
            )
            doc = recv_frame(bad)
            assert doc["kind"] == KIND_ABORT
        finally:
            bad.close()
        # The experiment still completes once well-behaved stations arrive.
        statuses = run_stations(box["endpoint"], timeout=10.0)
        thread.join(30)
        assert statuses == {"left": 0, "right": 0}
        result, _ = box["result"]
        assert result.verdict is not None


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
    whose payload is not JSON."""

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
            while True:
                doc = recv_frame(sock)
                if doc["kind"] == "SETTING":
                    payload = b"\x00garbage\xff"
                    sock.sendall(len(payload).to_bytes(4, "big") + payload)
                elif doc["kind"] == KIND_ABORT:
                    return 3
        except Exception:
            return 3
        finally:
            sock.close()


class TestEnforcement:
    def test_malformed_frame_aborts(self):
        config = make_config(n=20, seed=61)
        thread, box = serve_in_thread(config, trial_timeout=5.0)
        endpoint = box["endpoint"]
        rogue = threading.Thread(target=GarbageClient(endpoint, "left").run, daemon=True)
        honest = threading.Thread(
            target=lambda: station_client("right", endpoint, timeout=10.0), daemon=True
        )
        rogue.start()
        honest.start()
        thread.join(30)
        result, _ = box["result"]
        assert result.abort is not None
        assert result.abort.kind == ABORT_PROTOCOL
        assert len(result.log) == 0

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
            _, err = serve.communicate(timeout=30)
            assert serve.returncode == 0, err
            assert [proc.wait(timeout=10) for proc in procs[1:]] == [0, 0]
        finally:
            for proc in procs:
                proc.kill()
                proc.communicate()
        in_process = run_experiment(config)
        assert log_path.read_bytes() == in_process.log.to_bytes()
        assert audit_transcript(Transcript.read(transcript_path)).ok


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
