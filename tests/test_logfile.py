"""Trial log serialization, structural validation, canonical bytes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbet.core import Setting, TrialRecord
from bellbet.logfile import (
    LogFormatError,
    LogHeader,
    TrialLog,
    load_log,
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
    for m, (i, j, x, y) in enumerate([(1, 2, 1, 1), (2, 1, 0, 1), (1, 1, 0, 0), (2, 2, 1, 0)], 1):
        log.append(TrialRecord(m=m, setting=Setting(i, j), x=x, y=y))
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
        for m, (i, j, x, y) in enumerate(trials, 1):
            log.append(TrialRecord(m=m, setting=Setting(i, j), x=x, y=y))
        docs = [log.header.to_dict()] + [
            {"m": m, "i": i, "j": j, "x": x, "y": y}
            for m, (i, j, x, y) in enumerate(trials, 1)
        ]
        reference = "".join(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" for doc in docs
        )
        assert log.to_bytes() == reference.encode("ascii")

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

    def test_append_enforces_sequence(self):
        log = TrialLog(make_header())
        log.append(TrialRecord(m=1, setting=Setting(1, 1), x=0, y=0))
        with pytest.raises(ValueError):
            log.append(TrialRecord(m=3, setting=Setting(1, 1), x=0, y=0))
        full = small_log()
        with pytest.raises(ValueError):
            full.append(TrialRecord(m=5, setting=Setting(1, 1), x=0, y=0))
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
        "field, value", [("n", "4"), ("n", None), ("n", -1), ("seed", True), ("angles", [0, 0])]
    )
    def test_malformed_header(self, tmp_path, field, value):
        doc = make_header().to_dict()
        doc[field] = value
        path = tmp_path / "bad-header.log"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(LogFormatError, match="malformed log header"):
            read_raw_log(path)

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


def read_raw_records_from(log):
    lines = log.to_bytes().decode().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
