"""Trial log serialization, structural validation, canonical bytes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbet import logfile
from bellbet.logfile import (
    LogFormatError,
    LogHeader,
    TrialLog,
    load_log,
    read_log,
    read_raw_log,
    validate_raw_records,
)


# One trial's (i, j, x, y).
TRIAL = st.tuples(
    st.sampled_from((1, 2)), st.sampled_from((1, 2)), st.sampled_from((0, 1)), st.sampled_from((0, 1))
)


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
    log = TrialLog(make_header())
    for i, j, x, y in [(1, 2, 1, 1), (2, 1, 0, 1), (1, 1, 0, 0), (2, 2, 1, 0)]:
        log.commit(i, j, x, y)
    return log


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
        for i, j, x, y in trials:
            log.commit(i, j, x, y)
        docs = [log.header.to_dict()] + [
            {"m": m, "i": i, "j": j, "x": x, "y": y}
            for m, (i, j, x, y) in enumerate(trials, 1)
        ]
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
            full.commit(1, 1, 0, 0)
        assert len(full) == 4

    def test_from_columns_validates(self):
        header = make_header(n=3)
        good = TrialLog.from_columns(
            header,
            np.array([1, 2, 1]),
            np.array([2, 1, 1]),
            np.array([0, 1, 0]),
            np.array([0, 1, 1]),
        )
        assert len(good) == 3
        assert [col.tolist() for col in good.columns()] == [[1, 2, 1], [2, 1, 1], [0, 1, 0], [0, 1, 1]]
        assert all(col.dtype == np.uint8 for col in good.columns())
        with pytest.raises(ValueError):
            TrialLog.from_columns(
                header,
                np.array([1, 2, 3]),
                np.array([2, 1, 1]),
                np.array([0, 1, 0]),
                np.array([0, 1, 1]),
            )

    # Each column's allowed values; np.isin is the reference membership test
    # that from_columns' equality check must agree with.
    ALLOWED = {"i": (1, 2), "j": (1, 2), "x": (0, 1), "y": (0, 1)}
    GOOD = {"i": [1, 2, 1], "j": [2, 1, 1], "x": [0, 1, 0], "y": [0, 1, 1]}

    def _columns_with(self, name, column):
        return [column if key == name else np.array(self.GOOD[key]) for key in "ijxy"]

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in "ij" for value in (0, 3)]
        + [(name, value) for name in "xy" for value in (2, -1)]
        + [(name, value) for name in "ijxy" for value in (1.5, math.nan)],
    )
    def test_from_columns_rejects_what_isin_rejects(self, name, value):
        column = np.array(self.GOOD[name], dtype=type(value))
        column[1] = value
        assert not np.isin(column, self.ALLOWED[name]).all()
        with pytest.raises(ValueError, match=f"column {name} "):
            TrialLog.from_columns(make_header(n=3), *self._columns_with(name, column))

    @pytest.mark.parametrize("name", "ijxy")
    @pytest.mark.parametrize("kind", ["float", "bool"])
    def test_from_columns_accepts_what_isin_accepts(self, name, kind):
        if kind == "float":
            column = np.array(self.GOOD[name], dtype=np.float64)
        elif name in "xy":
            column = np.array(self.GOOD[name], dtype=bool)
        else:
            column = np.ones(3, dtype=bool)  # True == 1, a valid setting
        assert np.isin(column, self.ALLOWED[name]).all()
        log = TrialLog.from_columns(make_header(n=3), *self._columns_with(name, column))
        held = log.columns()["ijxy".index(name)]
        assert held.dtype == np.uint8
        assert held.tolist() == column.astype(np.uint8).tolist()


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
        "field, value",
        [
            ("n", "4"),
            ("n", None),
            ("n", -1),
            ("seed", True),
            ("angles", [0, 0]),
            ("angles", [10**400, 0, 0, 0]),
        ],
    )
    def test_malformed_header(self, tmp_path, field, value):
        doc = make_header().to_dict()
        doc[field] = value
        path = tmp_path / "bad-header.log"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(LogFormatError, match="malformed log header"):
            read_raw_log(path)

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


def random_columns(rng, n):
    """Random (i, j, x, y) columns of n valid trials."""
    return [rng.integers(low, low + 2, n) for low in (1, 1, 0, 0)]


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
    """A log file's bytes written with ``json.dumps``, not with the writer;
    ``trials`` may hold more than n."""
    docs = [make_header(n=n).to_dict()] + [
        {"m": m, "i": i, "j": j, "x": x, "y": y} for m, (i, j, x, y) in enumerate(trials, 1)
    ]
    lines = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs)
    return "".join(lines).encode()


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
        '{"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}\n' % (i, j, m, x, y)
        for m, (i, j, x, y) in enumerate(trials, 1)
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
        path.write_bytes(serialized(0, [(1, 1, 0, 0)]))
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


def read_raw_records_from(log):
    lines = log.to_bytes().decode().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
