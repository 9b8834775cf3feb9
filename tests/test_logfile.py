"""Trial log serialization, structural validation, canonical bytes."""

import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_texts import JSON_TEXTS

from bellbet import cli, logfile
from bellbet.core import SETTINGS_BY_CELL
from bellbet.logfile import (
    LogFormatError,
    LogHeader,
    TrialLog,
    load_log,
    read_log,
    read_raw_log,
    validate_raw_records,
)


# One trial's (cell, x, y).
TRIAL = st.tuples(st.integers(0, 3), st.sampled_from((0, 1)), st.sampled_from((0, 1)))


def make_header(n=4, seed=9):
    return LogHeader(
        config_hash="ab" * 32,
        seed=seed,
        mode="sequential",
        angles=(0.1, 0.2, 0.3, 0.4),
        n=n,
        critical_value=2,
    )


def small_log():
    # (i, j) = (1, 2), (2, 1), (1, 1) and (2, 2).
    log = TrialLog(make_header())
    for cell, x, y in [(1, 1, 1), (2, 0, 1), (0, 0, 0), (3, 1, 0)]:
        log.commit(cell, x, y)
    return log


def trial_doc(m, cell, x, y):
    """Trial m's record as a dict, with the setting indices of its cell."""
    setting = SETTINGS_BY_CELL[cell]
    return {"m": m, "i": setting.i, "j": setting.j, "x": x, "y": y}


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        log = small_log()
        path = tmp_path / "trial.log"
        log.write(path)
        loaded = load_log(path)
        assert loaded.to_bytes() == log.to_bytes()
        assert loaded.header == log.header
        assert [r for r in loaded.records()] == [r for r in log.records()]

    def test_canonical_bytes_are_stable(self):
        assert small_log().to_bytes() == small_log().to_bytes()
        first_line = small_log().to_bytes().decode().splitlines()[1]
        assert first_line == '{"i":1,"j":2,"m":1,"x":1,"y":1}'

    @given(
        st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(TRIAL, max_size=n)))
    )
    @settings(max_examples=200)
    def test_bytes_match_canonical_json(self, design):
        # Partial logs included: the committed count ranges over 0..n.
        n, trials = design
        log = TrialLog(make_header(n=n))
        for cell, x, y in trials:
            log.commit(cell, x, y)
        docs = [log.header.to_dict()] + [trial_doc(m, *trial) for m, trial in enumerate(trials, 1)]
        reference = "".join(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs
        )
        assert log.to_bytes() == reference.encode("ascii")

    def test_long_log_bytes_match_canonical_json(self):
        # 10 001 trials: m takes every width from one to five digits.
        n = 10_001
        columns = random_columns(np.random.default_rng(4), n)
        log = TrialLog.from_columns(make_header(n=n), *columns)
        assert log.to_bytes() == serialized(n, zip(*(col.tolist() for col in columns)))

    @pytest.mark.parametrize("partial", [False, True], ids=["complete", "partial"])
    @pytest.mark.parametrize("count", [7, 17, 123, 1_234, 12_345, 23_456])
    def test_bytes_match_canonical_json_inside_a_digit_group(self, count, partial):
        # Counts whose last width block ends inside a group of 10^p rows at
        # each level p, unlike BOUNDARY_COUNTS, which end one at a width's
        # edge. A partial log's header names ten times more trials.
        n = 10 * count + 1 if partial else count
        columns = [col.tolist() for col in random_columns(np.random.default_rng(count), count)]
        log = TrialLog(make_header(n=n))
        for trial in zip(*columns):
            log.commit(*trial)
        assert log.to_bytes() == serialized(n, zip(*columns))

    def test_load_gives_back_columns(self, tmp_path):
        log = small_log()
        path = tmp_path / "trial.log"
        log.write(path)
        loaded = load_log(path)
        for got, want in zip(loaded.columns(), log.columns()):
            assert got.dtype == want.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
        assert len(loaded) == len(log) == 4
        assert loaded.complete and log.complete

    def test_from_raw_partial_log(self):
        _, records = read_raw_records_from(small_log())
        partial = TrialLog.from_raw(make_header(), records[:3])
        assert len(partial) == 3
        assert not partial.complete
        assert list(partial.records()) == list(small_log().records())[:3]
        assert partial.to_bytes().decode().splitlines()[1:] == [
            json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in records[:3]
        ]
        empty = TrialLog.from_raw(make_header(), [])
        assert len(empty) == 0 and not empty.complete

    def test_from_raw_rejects_too_many_records(self):
        _, records = read_raw_records_from(small_log())
        with pytest.raises(ValueError):
            TrialLog.from_raw(make_header(n=3), records)

    def test_sequence_indexing(self):
        log = small_log()
        records = list(log.records())
        assert [log[k] for k in range(4)] == records
        assert [log[k] for k in range(-4, 0)] == records
        assert list(log) == records
        for index in (4, -5):
            with pytest.raises(IndexError):
                log[index]
        with pytest.raises(IndexError):
            TrialLog(make_header())[-1]

    def test_commit_on_a_full_log_raises(self):
        full = small_log()
        with pytest.raises(IndexError):
            full.commit(0, 0, 0)
        assert len(full) == 4

    def test_from_columns_validates(self):
        header = make_header(n=3)
        x, y = np.array([0, 1, 0]), np.array([0, 1, 1])
        good = TrialLog.from_columns(header, np.array([1, 2, 0]), x, y)
        assert len(good) == 3
        assert [col.tolist() for col in good.columns()] == [[1, 2, 0], [0, 1, 0], [0, 1, 1]]
        assert all(col.dtype == np.uint8 for col in good.columns())
        with pytest.raises(ValueError):
            TrialLog.from_columns(header, np.array([1, 2, 4]), x, y)

    # Each column's allowed values; np.isin is the reference membership test
    # that from_columns' check must agree with on integer and bool columns.
    ALLOWED = {"cells": (0, 1, 2, 3), "x": (0, 1), "y": (0, 1)}
    GOOD = {"cells": [1, 2, 0], "x": [0, 1, 0], "y": [0, 1, 1]}

    def _columns_with(self, name, column):
        return [column if key == name else np.array(self.GOOD[key]) for key in self.GOOD]

    @pytest.mark.parametrize(
        "name, value, dtype",
        [("cells", value, np.int64) for value in (4, 255, -1)]
        + [(name, value, np.int64) for name in "xy" for value in (2, -1)]
        + [(name, -1, np.int8) for name in ("cells", "x", "y")]
        + [(name, 4, ">i8") for name in ("cells", "x", "y")]
        + [(name, 2**16 + 1, np.uint32) for name in ("cells", "x", "y")],
    )
    def test_from_columns_rejects_what_isin_rejects(self, name, value, dtype):
        # A negative, past the top or, in a wider type, a valid uint8 value
        # plus a multiple of 256.
        column = np.array(self.GOOD[name], dtype=dtype)
        column[1] = value
        assert not np.isin(column, self.ALLOWED[name]).all()
        top = max(self.ALLOWED[name])
        with pytest.raises(ValueError, match=f"column {name} holds values outside 0..{top}"):
            TrialLog.from_columns(make_header(n=3), *self._columns_with(name, column))

    @pytest.mark.parametrize("name", ["cells", "x", "y"])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, ">i8", np.uint64])
    def test_from_columns_accepts_what_isin_accepts(self, name, dtype):
        if dtype is bool and name == "cells":
            column = np.ones(3, dtype=bool)  # True == 1, a valid cell code
        else:
            column = np.array(self.GOOD[name], dtype=dtype)
        assert np.isin(column, self.ALLOWED[name]).all()
        log = TrialLog.from_columns(make_header(n=3), *self._columns_with(name, column))
        held = log.columns()[list(self.GOOD).index(name)]
        assert held.dtype == np.uint8
        assert held.tolist() == column.astype(np.uint8).tolist()

    @pytest.mark.parametrize("name", ["cells", "x", "y"])
    @pytest.mark.parametrize("value", [None, 1.5, math.nan])
    def test_from_columns_refuses_float_columns(self, name, value):
        # Even one of allowed values, which np.isin accepts: a float is no
        # cell code or bit, and casting it would hide a caller's error.
        column = np.array(self.GOOD[name], dtype=np.float64)
        if value is not None:
            column[1] = value
        else:
            assert np.isin(column, self.ALLOWED[name]).all()
        with pytest.raises(ValueError, match=f"column {name} holds float64 values, not integers"):
            TrialLog.from_columns(make_header(n=3), *self._columns_with(name, column))

    def test_from_columns_of_no_trials(self):
        empty = np.array([], dtype=np.float64)
        no_bits = empty == 0
        log = TrialLog.from_columns(make_header(n=0), np.array([], dtype=np.int64), no_bits, no_bits)
        assert len(log) == 0 and log.complete and log.to_bytes().count(b"\n") == 1
        with pytest.raises(ValueError, match="column cells holds float64"):
            TrialLog.from_columns(make_header(n=0), empty, no_bits, no_bits)


class TestValidation:
    def _raw(self, log):
        lines = log.to_bytes().decode().splitlines()
        header = json.loads(lines[0])
        return header, [json.loads(line) for line in lines[1:]]

    def test_clean_log_passes(self):
        header, records = read_raw_records_from(small_log())
        result = validate_raw_records(small_log().header, records)
        assert result.ok

    def test_non_bit_outcome_fails(self):
        _, records = read_raw_records_from(small_log())
        records[2]["x"] = 2.3
        result = validate_raw_records(small_log().header, records)
        assert not result.ok
        assert any("not a bit" in v for v in result.violations)

    def test_missing_field_fails(self):
        _, records = read_raw_records_from(small_log())
        del records[1]["y"]
        result = validate_raw_records(small_log().header, records)
        assert not result.ok
        assert any("missing" in v for v in result.violations)

    def test_gap_in_sequence_fails(self):
        _, records = read_raw_records_from(small_log())
        records = [records[0], records[2], records[3]]
        result = validate_raw_records(small_log().header, records)
        assert not result.ok

    def test_incomplete_log_fails(self):
        _, records = read_raw_records_from(small_log())
        result = validate_raw_records(small_log().header, records[:2])
        assert not result.ok
        assert any("incomplete" in v for v in result.violations)
        assert result.incomplete
        assert result.corrupt == ()

    def test_short_log_keeps_its_record_violations(self):
        # Being short is said by a flag, not by a violation's text: a record
        # violation that quotes the short-log message still counts.
        _, records = read_raw_records_from(small_log())
        records[1]["m"] = "incomplete experiment"
        result = validate_raw_records(small_log().header, records[:3])
        assert result.incomplete
        assert result.corrupt == ("trial 'incomplete experiment': expected sequence number 2",)
        assert result.violations[:-1] == result.corrupt
        full = validate_raw_records(small_log().header, records)
        assert not full.incomplete
        assert full.corrupt == full.violations

    def test_over_long_log_fails_and_names_extra_trials(self):
        _, records = read_raw_records_from(small_log())
        result = validate_raw_records(make_header(n=3), records)
        assert result.violations == (
            "log holds 4 trials but the design allows only 3 (extra trials: 4)",
        )

    @pytest.mark.parametrize("field", ["m", "i", "j"])
    def test_boolean_index_fails(self, field):
        # JSON true is not the integer 1, although Python's bool is an int.
        _, records = read_raw_records_from(small_log())
        records[0][field] = True
        result = validate_raw_records(small_log().header, records)
        assert not result.ok
        assert any("True" in v for v in result.violations)

    def test_reordered_trials_fail(self):
        # Swapped records violate the strictly increasing sequence invariant.
        _, records = read_raw_records_from(small_log())
        records[1], records[2] = records[2], records[1]
        result = validate_raw_records(small_log().header, records)
        assert not result.ok
        assert any("sequence" in v for v in result.violations)

    def test_unknown_fields_flagged(self):
        _, records = read_raw_records_from(small_log())
        records[0]["note"] = "tampered"
        result = validate_raw_records(small_log().header, records)
        assert not result.ok


class TestFileErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        with pytest.raises(LogFormatError):
            read_raw_log(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "headless.log"
        path.write_text('{"m":1,"i":1,"j":1,"x":0,"y":0}\n')
        with pytest.raises(LogFormatError):
            read_raw_log(path)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("n", "4", "n '4' is not an integer"),
            ("n", None, "n None is not an integer"),
            ("n", -1, "n -1 is negative"),
            ("seed", True, "seed True is not an integer"),
            ("angles", [0, 0], "angles [0, 0] are not four finite numbers"),
            ("angles", [10**400, 0, 0, 0], "angles [100000000000000000...0000000000000000000, 0, 0, 0] are"),
            ("angles", [0.1, True, 0.3, 0.4], "angles [0.1, True, 0.3, 0.4] are not four finite numbers"),
            ("mode", [1], "mode [1] is not sequential, cloned-source or batch"),
            ("mode", "batch mode", "mode 'batch mode' is not sequential, cloned-source or batch"),
            ("config_hash", 5, "config_hash 5 is not a sha256 in lowercase hex"),
            ("config_hash", ["ab" * 32], "config_hash ['abababababab...babababababab'] is not a sha256"),
            ("stopping", "first-crossing", "unknown key 'stopping'"),
            ("kind", "trial", "kind 'trial' is not 'header'"),
        ],
    )
    def test_malformed_header(self, tmp_path, field, value, rule):
        # The first rule the header breaks, named by its field.
        doc = make_header().to_dict()
        doc[field] = value
        path = tmp_path / "bad-header.log"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(LogFormatError) as caught:
            read_raw_log(path)
        assert str(caught.value).startswith(f"malformed log header: {rule}")

    @pytest.mark.parametrize(
        "header, rule",
        [
            ([1, 2], "[1, 2] is not a JSON object"),
            ({key: 1 for key in ("kind", "version")}, "missing key 'config_hash'"),
        ],
    )
    def test_header_that_is_no_v1_header(self, tmp_path, header, rule):
        path = tmp_path / "bad-header.log"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(LogFormatError) as caught:
            read_raw_log(path)
        assert str(caught.value) == f"malformed log header: {rule}"

    @pytest.mark.parametrize(
        "field, rule", [("stopping", "unknown key 'stopping'"), ("mode", "mode [[[[[[[...]]]]]]] is not")]
    )
    def test_deeply_nested_header_value_gives_a_short_message(self, tmp_path, field, rule):
        # A list nested 980 deep: deep enough for a repr to take most of the
        # stack, shallow enough for the decoder, whose stack is the CLI's.
        doc = make_header().to_dict()
        doc[field] = "DEEP"
        path = tmp_path / "deep-header.log"
        path.write_text(json.dumps(doc).replace('"DEEP"', "[" * 980 + "]" * 980) + "\n")
        run = subprocess.run(
            [sys.executable, "-m", "bellbet", "validate", "--log", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 4, run.stderr
        assert run.stdout.startswith(f"FAIL: malformed log header: {rule}")
        assert len(run.stdout) < 200

    @pytest.mark.parametrize(
        "line, message", [(1, "unparseable header line"), (6, ":6: unparseable record")]
    )
    def test_too_deeply_nested_json(self, tmp_path, line, message):
        lines = small_log().to_bytes().splitlines(keepends=True)
        lines.insert(line - 1, b"[" * 100_000 + b"]" * 100_000 + b"\n")
        path = tmp_path / "deep.log"
        path.write_bytes(b"".join(lines))
        with pytest.raises(LogFormatError, match=message):
            read_log(path)

    def test_record_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list-record.log"
        path.write_text(small_log().to_bytes().decode() + "[1, 2]\n")
        with pytest.raises(LogFormatError, match=r":6: record is not a JSON object"):
            read_raw_log(path)

    def test_truncated_load_rejected(self, tmp_path):
        log = small_log()
        path = tmp_path / "truncated.log"
        lines = log.to_bytes().decode().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(LogFormatError):
            load_log(path)


def full_log(n, seed=0):
    return TrialLog.from_columns(make_header(n=n), *random_columns(np.random.default_rng(seed), n))


class TestReplaceFile:
    """Every output is written by ``replace_file``: a new file at the path."""

    def test_rewrite_makes_a_new_file(self, tmp_path):
        path = tmp_path / "trial.log"
        full_log(20, seed=1).write(path)
        with open(path, "rb") as old:
            # The open file keeps the old inode alive, so its number cannot
            # be reused by the new file.
            full_log(20, seed=2).write(path)
            assert os.fstat(old.fileno()).st_ino != path.stat().st_ino
            assert old.read() == full_log(20, seed=1).to_bytes()
        assert path.read_bytes() == full_log(20, seed=2).to_bytes()

    def test_shorter_log_over_a_longer_one(self, tmp_path):
        path = tmp_path / "trial.log"
        full_log(2000).write(path)
        full_log(1000).write(path)
        assert path.read_bytes() == full_log(1000).to_bytes()
        assert read_log(path)[2].last_valid == 1000

    def test_symlinked_out_stays_a_link(self, tmp_path, capsys):
        fresh, target, link = tmp_path / "fresh.log", tmp_path / "target.log", tmp_path / "link.log"
        link.symlink_to(target)
        for n in ("2000", "1000"):
            assert cli.main(["run", "--n", n, "--out", str(link)]) == cli.EXIT_OK
        assert cli.main(["run", "--n", "1000", "--out", str(fresh)]) == cli.EXIT_OK
        capsys.readouterr()
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_hard_link_keeps_the_old_bytes(self, tmp_path):
        path, other = tmp_path / "trial.log", tmp_path / "other.log"
        full_log(30, seed=1).write(path)
        os.link(path, other)
        full_log(20, seed=2).write(path)
        assert other.read_bytes() == full_log(30, seed=1).to_bytes()
        assert path.read_bytes() == full_log(20, seed=2).to_bytes()

    def test_fifo_is_written_not_replaced(self, tmp_path):
        # As for a device such as /dev/null: only a regular file is unlinked.
        path = tmp_path / "trial.fifo"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            small_log().write(path)
            assert stat.S_ISFIFO(path.stat().st_mode)
            assert os.read(reader, 1 << 16) == small_log().to_bytes()
        finally:
            os.close(reader)

    def test_file_this_process_may_not_write_is_opened_in_place(self, tmp_path, monkeypatch):
        # Unlinking it would get round its mode; opening it raises as it
        # always did. Here os.access is stubbed, so the open succeeds.
        path = tmp_path / "trial.log"
        full_log(30).write(path)
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        with open(path, "rb") as old:
            full_log(20).write(path)
            assert os.fstat(old.fileno()).st_ino == path.stat().st_ino
        assert path.read_bytes() == full_log(20).to_bytes()


def random_columns(rng, n):
    """Random (cells, x, y) columns of n valid trials."""
    return [rng.integers(0, top + 1, n) for top in (3, 1, 1)]


def per_line_read(path):
    """The reference reader: one ``json.loads`` and one check per record."""
    try:
        header, records = read_raw_log(path)
    except LogFormatError as exc:
        return str(exc)
    validation = validate_raw_records(header, records)
    log = None if validation.corrupt else TrialLog.from_raw(header, records)
    return header, log_columns(log), validation


def one_pass_read(path):
    try:
        header, log, validation = read_log(path)
    except LogFormatError as exc:
        return str(exc)
    return header, log_columns(log), validation


def log_columns(log):
    return None if log is None else [col.tolist() for col in log.columns()]


def serialized(n, trials):
    """A log file's bytes written with ``json.dumps``, not with the writer,
    from (cell, x, y) trials; ``trials`` may hold more than n."""
    docs = [make_header(n=n).to_dict()] + [trial_doc(m, *trial) for m, trial in enumerate(trials, 1)]
    lines = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs)
    return "".join(lines).encode()


def render_line(line):
    """A log line from a key -> JSON text map, keys sorted and no spaces, as
    the writer lays it out; a line already cut short as it is."""
    if isinstance(line, str):
        return line
    return "{" + ",".join(f"{json.dumps(key)}:{text}" for key, text in sorted(line.items())) + "}"


# Counts at each change of m's width, up to six digits.
BOUNDARY_COUNTS = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10_000, 10_001, 99_999, 100_000, 100_001]


@pytest.fixture(scope="module")
def boundary_trials():
    """Random columns of the largest boundary count; the bytes of their
    record lines from the record template, formatted one by one; and where
    the line of each count ends."""
    columns = random_columns(np.random.default_rng(18), BOUNDARY_COUNTS[-1])
    trials = zip(*(col.tolist() for col in columns))
    lines = [
        '{"i":%(i)d,"j":%(j)d,"m":%(m)d,"x":%(x)d,"y":%(y)d}\n' % trial_doc(m, *trial)
        for m, trial in enumerate(trials, 1)
    ]
    ends = np.cumsum([0] + [len(line) for line in lines])
    return columns, "".join(lines).encode("ascii"), ends


@pytest.fixture()
def per_line_calls(monkeypatch):
    # Counts the files that take the per-line path.
    calls = []

    def spy(header, records):
        calls.append(len(records))
        return validate_raw_records(header, records)

    monkeypatch.setattr(logfile, "validate_raw_records", spy)
    return calls


EDIT_BYTES = st.one_of(st.sampled_from(list(b'0123\n\r ,:{}"ijmxy.e-')), st.integers(0, 255))


# One edit of a log's lines, half of them in the header: a value set or a
# key deleted (a header key, a record key or another), or a line replaced by
# any JSON text, cut short, repeated or dropped.
LINE_EDITS = st.tuples(
    st.sampled_from(["set", "delete", "replace", "truncate", "duplicate", "drop"]),
    st.just(0) | st.integers(0, 10**6),
    st.sampled_from([*make_header().to_dict(), *"ijmxy", "extra"]),
    JSON_TEXTS,
)


class TestReadLog:
    """``read_log`` gives what the per-line path gives, on any file."""

    @given(
        st.integers(0, 120).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 2))),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["none", "set", "delete", "insert"]),
        st.integers(0, 10**6),
        EDIT_BYTES,
    )
    @settings(max_examples=400, deadline=None)
    def test_both_paths_agree(self, tmp_path_factory, design, trials_seed, edit, where, byte):
        # Complete, partial (aborted) and over-long logs of up to 122 trials,
        # so m has one to three digits, unedited or with one byte set,
        # deleted or inserted.
        n, count = design
        columns = random_columns(np.random.default_rng(trials_seed), count)
        data = serialized(n, zip(*(col.tolist() for col in columns)))
        pos = where % (len(data) + 1)
        if edit == "set" and pos < len(data):
            data = data[:pos] + bytes([byte]) + data[pos + 1 :]
        elif edit == "delete":
            data = data[:pos] + data[pos + 1 :]
        elif edit == "insert":
            data = data[:pos] + bytes([byte]) + data[pos:]
        path = tmp_path_factory.getbasetemp() / "property.log"
        path.write_bytes(data)
        assert one_pass_read(path) == per_line_read(path)

    @given(st.lists(LINE_EDITS, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_only_log_format_error_escapes(self, tmp_path_factory, edits):
        # A 12-trial log, so m has two widths, with up to three edits; each
        # line a key -> JSON text map until it is cut short. Lines left
        # whole stay canonical, so both paths are reached.
        data = serialized(12, [(1, 1, 0), (3, 0, 1), (2, 1, 1)] * 4).decode()
        lines = [
            {key: json.dumps(value, separators=(",", ":")) for key, value in json.loads(line).items()}
            for line in data.splitlines()
        ]
        for edit, where, key, text in edits:
            if not lines:
                break
            k = where % len(lines)
            if edit == "set" and isinstance(lines[k], dict):
                lines[k] = {**lines[k], key: text}
            elif edit == "delete" and isinstance(lines[k], dict):
                lines[k] = {name: value for name, value in lines[k].items() if name != key}
            elif edit == "replace":
                lines[k] = text
            elif edit == "truncate":
                line = render_line(lines[k])
                lines[k] = line[: where % (len(line) + 1)]
            elif edit == "duplicate":
                lines.insert(k, lines[k])
            elif edit == "drop":
                del lines[k]
        path = tmp_path_factory.getbasetemp() / "edited.log"
        path.write_text("".join(render_line(line) + "\n" for line in lines))
        try:
            header, log, validation = read_log(path)
        except LogFormatError:
            return
        assert log is None or len(log) == validation.last_valid

    @pytest.mark.parametrize("count", [105, 57], ids=["complete", "cut"])
    def test_one_pass_read_of_every_one_byte_edit(self, count):
        # A 105-trial design, complete or cut to 57 trials, so m has three
        # widths or two. Each byte after the header set to each of
        # "0123 \n": the one-pass read gives a log exactly when the edit
        # swaps a setting between 1 and 2, or a bit between 0 and 1, and
        # that log differs from the original in that one entry: the cell's
        # high bit for i, its low bit for j.
        columns = [col.tolist() for col in random_columns(np.random.default_rng(105), count)]
        data = serialized(105, zip(*columns))
        start = data.index(b"\n") + 1
        swaps = {}  # byte position -> (field, trial index, the other value)
        at = start
        for index, line in enumerate(data[start:].decode().splitlines(keepends=True)):
            doc = json.loads(line)
            for name in "ijxy":
                other = 3 - doc[name] if name in "ij" else 1 - doc[name]
                swaps[at + line.index(f'"{name}":') + 4] = name, index, other
            at += len(line)
        assert len(swaps) == 4 * count
        for pos in range(start, len(data)):
            for byte in b"0123 \n":
                if byte == data[pos]:
                    continue
                log = logfile._canonical_log(data[:pos] + bytes([byte]) + data[pos + 1 :])
                swap = swaps.get(pos)
                if swap is None or byte != ord(str(swap[2])):
                    assert log is None, (pos, chr(byte))
                    continue
                name, index, other = swap
                expected = [list(col) for col in columns]
                if name in "ij":
                    expected[0][index] ^= 2 if name == "i" else 1
                else:
                    expected[1 if name == "x" else 2][index] = other
                assert log is not None, (pos, chr(byte))
                assert log.header == make_header(n=105) and log_columns(log) == expected

    @pytest.mark.parametrize("kept", [1200, 1000, 9, 0])
    def test_canonical_log_takes_one_pass(self, tmp_path, per_line_calls, kept):
        rng = np.random.default_rng(kept)
        n = 1200
        columns = random_columns(rng, n)
        data = TrialLog.from_columns(make_header(n=n), *columns).to_bytes()
        path = tmp_path / "canonical.log"
        path.write_bytes(b"".join(data.splitlines(keepends=True)[: 1 + kept]))
        header, log, validation = read_log(path)
        assert per_line_calls == []
        assert log_columns(log) == [col[:kept].tolist() for col in columns]
        assert validation.last_valid == kept and validation.incomplete == (kept < n)
        assert one_pass_read(path) == per_line_read(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: text.replace(",", ", "),
            lambda text: text.replace(":", ": "),
            lambda text: text.replace('{"i":1,"j":2,"m":1,', '{"m":1,"j":2,"i":1,'),
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text + "\n",
        ],
        ids=["spaces", "colon-spaces", "reordered-keys", "crlf", "trailing-blank-line"],
    )
    def test_non_canonical_valid_log_passes_line_by_line(self, tmp_path, per_line_calls, rewrite):
        text = small_log().to_bytes().decode()
        path = tmp_path / "valid.log"
        path.write_text(rewrite(text), newline="")
        assert path.read_bytes() != text.encode()
        header, log, validation = read_log(path)
        assert per_line_calls == [4]
        assert validation.ok
        assert log_columns(log) == log_columns(small_log())

    @pytest.mark.parametrize(
        "old, new, violation",
        [
            ('"m":2,', '"m":true,', "trial True: expected sequence number 2"),
            ('"x":0,', '"x":2,', "trial 2: outcome x=2 is not a bit"),
        ],
    )
    def test_invalid_value_in_template_form(self, tmp_path, per_line_calls, old, new, violation):
        # The bytes keep the template's shape, so only equality refuses them.
        path = tmp_path / "invalid.log"
        path.write_bytes(small_log().to_bytes().replace(old.encode(), new.encode(), 1))
        header, log, validation = read_log(path)
        assert per_line_calls == [4]
        assert log is None and validation.last_valid == 1
        assert violation in validation.violations
        assert one_pass_read(path) == per_line_read(path)

    def test_zero_trial_design(self, tmp_path, per_line_calls):
        path = tmp_path / "empty-design.log"
        path.write_bytes(serialized(0, []))
        header, log, validation = read_log(path)
        assert per_line_calls == []
        assert header.n == 0 and len(log) == 0 and log.complete and validation.ok
        path.write_bytes(serialized(0, [(0, 0, 0)]))
        assert read_log(path)[1] is None
        assert per_line_calls == [1]
        assert one_pass_read(path) == per_line_read(path)

    @pytest.mark.parametrize(
        "edit, records",
        [("byte-moved", 0), ("record-padded", -1), ("extra-record", 1), ("one-byte-short", 0)],
    )
    @pytest.mark.parametrize("count", [5, 40, 120])
    def test_length_derived_count(self, tmp_path, per_line_calls, edit, records, count):
        # Valid JSON whose size gives the one-pass reader a count that is
        # not the records the file holds, or no count of at most n: the
        # per-line path reads it, and both readers give the same result.
        columns = random_columns(np.random.default_rng(count), count + 1)
        trials = list(zip(*(col.tolist() for col in columns)))
        lines = serialized(count, trials[:count]).splitlines(keepends=True)
        if edit == "byte-moved":
            # The last record's newline deleted and a space inserted in the
            # first: the size of `count` trials, but not their bytes.
            lines[1] = b"{ " + lines[1][1:]
            lines[-1] = lines[-1][:-1]
        elif edit == "record-padded":
            # The last record deleted and its length in spaces inserted in
            # the first: the size of `count` trials, holding one fewer.
            dropped = lines.pop()
            lines[1] = b"{" + b" " * len(dropped) + lines[1][1:]
        elif edit == "extra-record":
            lines = serialized(count, trials).splitlines(keepends=True)
        else:
            lines[-1] = lines[-1][:-1]
        path = tmp_path / "sized.log"
        path.write_bytes(b"".join(lines))
        assert one_pass_read(path) == per_line_read(path)
        assert per_line_calls == [count + records]

    @pytest.mark.parametrize("partial", [False, True], ids=["complete", "partial"])
    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    def test_width_boundaries(self, tmp_path, per_line_calls, boundary_trials, count, partial):
        # Every width of m, each cut at its first, second and last trial,
        # written and read back in one pass. A partial log's header names
        # ten times more trials, so its n has a wider m than its records.
        columns, body, ends = boundary_trials
        n = 10 * count + 1 if partial else count
        log = TrialLog(make_header(n=n))
        for trial in zip(*(col[:count].tolist() for col in columns)):
            log.commit(*trial)
        head = json.dumps(log.header.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        reference = head.encode() + body[: ends[count]]
        assert log.to_bytes() == reference
        path = tmp_path / "boundary.log"
        log.write(path)
        assert path.read_bytes() == reference
        header, read, validation = read_log(path)
        assert per_line_calls == []
        assert header == log.header and log_columns(read) == log_columns(log)
        assert validation.last_valid == count and validation.incomplete == partial


class TestCellOracle:
    """The bytes of a log of cell codes against a pure-Python writer that
    prints i and j from each code, at lengths on both sides of each width
    of m."""

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100, 999, 1000, 10_000, 10_001])
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.sampled_from("ij"))
    @settings(max_examples=8, deadline=None)
    def test_bytes_read_back_and_one_digit_swap(self, n, seed, where, name):
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 4, n, dtype=np.uint8)
        x, y = rng.integers(0, 2, (2, n), dtype=np.uint8)
        data = TrialLog.from_columns(make_header(n=n), cells, x, y).to_bytes()
        lines = [
            b'{"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}\n' % (1 + (c >> 1), 1 + (c & 1), m, xm, ym)
            for m, (c, xm, ym) in enumerate(zip(cells.tolist(), x.tolist(), y.tolist()), 1)
        ]
        head = data.index(b"\n") + 1
        assert data[head:] == b"".join(lines)
        columns = [cells.tolist(), x.tolist(), y.tolist()]
        assert log_columns(logfile._canonical_log(data)) == columns
        if not n:
            return
        # One i or j digit of one trial swapped between 1 and 2: a canonical
        # log whose columns differ in that trial's cell code alone.
        trial = where % n
        at = head + sum(map(len, lines[:trial])) + lines[trial].index(b'"%s":' % name.encode()) + 4
        swapped = data[:at] + (b"1" if data[at] == ord("2") else b"2") + data[at + 1 :]
        columns[0][trial] ^= 2 if name == "i" else 1
        assert log_columns(logfile._canonical_log(swapped)) == columns


def read_raw_records_from(log):
    lines = log.to_bytes().decode().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("bellbet.logfile", ["bellbet", "bellbet.core", "bellbet.logfile"]),
        ("bellbet.rng", ["bellbet", "bellbet.rng"]),
    ],
)
def test_importing_a_module_loads_only_its_own_imports(module, loaded):
    # The package root imports nothing, so a log reader or the settings
    # stream loads no referee, network or simulator module.
    code = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(name for name in sys.modules if name.split('.')[0] == 'bellbet')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == loaded
