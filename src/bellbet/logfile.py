"""Trial log: append-only per-trial records with NDJSON (de)serialization.

File layout is one JSON object per line: a header record

    {"kind": "header", "version": 1, "config_hash": ..., "seed": ...,
     "mode": ..., "angles": [a1, a2, b1, b2], "n": ..., "critical_value": ...}

followed by one record per trial, in trial order, written straight from the
log's columns with the fixed template

    {"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}

For int fields that template is byte-identical to the canonical JSON
(sorted keys, no whitespace) that the header line gets from ``json.dumps``.
So two runs that commit the same trials produce byte-identical files; replay
verification relies on that.

Writer and reader share one layout, fixed by the trial count alone: after
the header line, one block per width of m, each a run of equal-length rows
(``_record_rows``). The writer fills one preallocated byte buffer through
it. ``read_log`` is the one reader. A file is canonical when it is
byte-equal to the serialization of the log it holds: the writer's output,
or any prefix of it cut after a record line (an aborted run's log). Such a
file is read in one vectorized pass: the header line with ``json``; the
count from the length of the rest, the one count of at most n whose record
lines fill it exactly, so there is no scan for newlines; then i, j, x and y
of every record through the same block views, mapped into their allowed
values. The result is accepted only if it serializes back to the file's
exact bytes. That equality proves what the per-record validator checks
(field set, integer types, bit and setting ranges, m = 1..count, count <=
n), so the fast path adds no rule of its own. Every other file, whether
valid JSON laid out differently or corrupt, is read line by line
(``read_raw_log``, ``validate_raw_records``, ``TrialLog.from_raw``), so each
message and ``last_valid`` comes from that path alone.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    JSON_ERRORS,
    MODES,
    SETTINGS_BY_CELL,
    AngleConfig,
    TrialRecord,
    cell_code,
    parse_json,
)

LOG_VERSION = 1
_HEX_DIGITS = frozenset("0123456789abcdef")


class LogFormatError(ValueError):
    """The log file cannot be parsed at all (I/O-level corruption)."""


@dataclass(frozen=True)
class LogHeader:
    config_hash: str
    seed: int
    mode: str
    angles: tuple[float, float, float, float]
    n: int
    critical_value: int
    version: int = LOG_VERSION

    def to_dict(self) -> dict:
        return {
            "kind": "header",
            "version": self.version,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "mode": self.mode,
            "angles": list(self.angles),
            "n": self.n,
            "critical_value": self.critical_value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LogHeader":
        try:
            header = cls(
                config_hash=doc["config_hash"],
                seed=doc["seed"],
                mode=doc["mode"],
                angles=tuple(doc["angles"]),
                n=doc["n"],
                critical_value=doc["critical_value"],
                version=doc["version"],
            )
            AngleConfig(*header.angles)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise LogFormatError(f"malformed log header: {doc!r}") from exc
        if type(header.version) is not int or header.version != LOG_VERSION:  # 1.0 is no version
            raise LogFormatError(f"log version {header.version!r} is not {LOG_VERSION}")
        integers = (header.seed, header.n, header.critical_value)
        digest = header.config_hash  # a sha256 in lowercase hex
        if (
            doc.keys() != header.to_dict().keys()  # after the version, which names a later layout
            or doc["kind"] != "header"
            or header.mode not in (*MODES, "batch")  # the deleted batch mode's logs stay readable
            or not (type(digest) is str and len(digest) == 64 and _HEX_DIGITS.issuperset(digest))
            or any(type(v) is not int for v in integers)
            or header.seed < 0  # unsigned, as in a config
            or header.n < 0
        ):
            raise LogFormatError(f"malformed log header: {doc!r}")
        return header

    @property
    def angle_config(self) -> AngleConfig:
        return AngleConfig(*self.angles)


_RECORD_LINE = '{"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}'
# Byte offsets in a record line: i and j from the line's start, where the
# digits of m start, and x and y back from the line's newline.
_I_AT, _J_AT, _M_AT = 5, 11, 17
_X_BEFORE_NL, _Y_BEFORE_NL = 8, 2
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _blocks(count: int) -> Iterator[tuple[int, int, bytes]]:
    """The layout of record lines 1..count: for each width of m, the trials
    lo..hi-1 that print m with it and their common line, with m = lo."""
    lo = 1
    while lo <= count:
        yield lo, min(10 * lo, count + 1), (_RECORD_LINE % (0, 0, lo, 0, 0) + "\n").encode("ascii")
        lo *= 10


def _body_size(count: int) -> int:
    """Bytes of record lines 1..count."""
    return sum((hi - lo) * len(line) for lo, hi, line in _blocks(count))


def _count_of(size: int, n: int) -> int | None:
    """The count of at most n whose record lines take exactly ``size``
    bytes, or None; the size grows with the count, so there is at most one."""
    for lo, hi, line in _blocks(n):
        if size <= (hi - lo) * len(line):
            rows, rest = divmod(size, len(line))
            return None if rest else lo - 1 + rows
        size -= (hi - lo) * len(line)
    return None if size else n


def _record_rows(body: np.ndarray, count: int) -> Iterator[tuple[slice, np.ndarray, bytes]]:
    """Record lines 1..count laid out from the start of the uint8 array
    ``body``, one block per width of m: the block's slice of trial indices,
    its (rows, line length) view into ``body`` and its line with m = lo."""
    start = 0
    for lo, hi, line in _blocks(count):
        stop = start + (hi - lo) * len(line)
        yield slice(lo - 1, hi - 1), body[start:stop].reshape(hi - lo, len(line)), line
        start = stop


class TrialLog(Sequence):
    """In-memory trial log backed by compact per-column arrays.

    As a ``Sequence[TrialRecord]`` it indexes from 0 (negative indices count
    from the end), so ``log[-1]`` is the last committed trial.
    """

    def __init__(self, header: LogHeader):
        self.header = header
        # One byte per trial in each column: ``commit`` is a plain store, and
        # ``columns`` views the committed prefix as uint8 arrays.
        self._i = bytearray(header.n)
        self._j = bytearray(header.n)
        self._x = bytearray(header.n)
        self._y = bytearray(header.n)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def complete(self) -> bool:
        return self._count == self.header.n

    def commit(self, i: int, j: int, x: int, y: int) -> None:
        """Append the next trial from its setting indices and outcome bits,
        which the caller has checked: the one way a trial enters a log. No
        record is built; ``record`` builds one when it is read. A full log
        raises IndexError."""
        idx = self._count
        self._i[idx] = i
        self._j[idx] = j
        self._x[idx] = x
        self._y[idx] = y
        self._count = idx + 1

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, x, y) arrays for the committed trials, in order."""
        c = self._count
        cols = self._i, self._j, self._x, self._y
        return tuple(np.frombuffer(col, dtype=np.uint8, count=c) for col in cols)

    def record(self, m: int) -> TrialRecord:
        """Trial m, built from the columns."""
        if not 1 <= m <= self._count:
            raise IndexError(f"trial {m} outside 1..{self._count}")
        idx = m - 1
        return TrialRecord(
            m, SETTINGS_BY_CELL[cell_code(self._i[idx], self._j[idx])], self._x[idx], self._y[idx]
        )

    def __getitem__(self, index: int) -> TrialRecord:
        return self.record(index + 1 if index >= 0 else self._count + index + 1)

    def records(self) -> Iterator[TrialRecord]:
        for m in range(1, self._count + 1):
            yield self.record(m)

    # --- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        return _serialize(self).tobytes()

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_serialize(self))

    @classmethod
    def from_raw(cls, header: LogHeader, raw_records: list[dict]) -> "TrialLog":
        """Build from already-validated raw record dicts: trials 1..len, in
        order, possibly fewer than ``header.n`` (an aborted run's log)."""
        count = len(raw_records)
        if count > header.n:
            raise ValueError(f"{count} records exceed the header's {header.n} trials")
        return cls._holding(header, *(bytes([doc[name] for doc in raw_records]) for name in "ijxy"))

    @classmethod
    def from_columns(
        cls,
        header: LogHeader,
        i: np.ndarray,
        j: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> "TrialLog":
        """Build a complete log directly from per-trial column arrays."""
        count = len(i)
        if not (len(j) == len(x) == len(y) == count) or count != header.n:
            raise ValueError("column lengths must all equal header.n")
        arrays = [np.asarray(col) for col in (i, j, x, y)]
        for name, arr, allowed in zip("ijxy", arrays, ((1, 2), (1, 2), (0, 1), (0, 1))):
            lo, hi = allowed
            if not ((arr == lo) | (arr == hi)).all():
                raise ValueError(f"column {name} holds values outside {allowed}")
        return cls._holding(header, *(arr.astype(np.uint8, copy=False) for arr in arrays))

    @classmethod
    def _holding(cls, header: LogHeader, i, j, x, y) -> "TrialLog":
        """A log of exactly the trials in four equal-length byte columns of
        checked values, sized by them rather than by ``header.n``: a log read
        from disk may name any n in its header."""
        log = cls.__new__(cls)
        log.header = header
        log._i, log._j, log._x, log._y = (bytearray(col) for col in (i, j, x, y))
        log._count = len(log._i)
        return log


def _serialize(log: TrialLog) -> np.ndarray:
    """The log's file bytes as one uint8 array: the header line, then
    ``_RECORD_LINE % (i, j, m, x, y)`` and a newline for m = 1..len(log),
    laid out by ``_record_rows``. Each value is one digit, as the columns of
    a log only hold settings and bits."""
    head = json.dumps(log.header.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    head = head.encode("ascii")
    i, j, x, y = log.columns()
    count = len(log)
    out = np.empty(len(head) + _body_size(count), dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    for trials, rows, line in _record_rows(out[len(head) :], count):
        # The line into every row, as doubling copies of the rows already
        # written: a few contiguous copies in place of one broadcast per row.
        rows[0] = np.frombuffer(line, dtype=np.uint8)
        done = 1
        while done < len(rows):
            step = min(done, len(rows) - done)
            rows[done : done + step] = rows[:step]
            done += step
        rows[:, _I_AT] += i[trials]
        rows[:, _J_AT] += j[trials]
        rows[:, -1 - _X_BEFORE_NL] += x[trials]
        rows[:, -1 - _Y_BEFORE_NL] += y[trials]
        # Row t prints m = lo + t with lo a power of ten, so the digit for
        # 10^p runs through 0-9 in runs of 10^p, the leading one through 1-9.
        width = len(str(trials.start + 1))
        for k in range(width):
            run = 10 ** (width - 1 - k)
            digits = _DIGITS[1:] if k == 0 else _DIGITS
            cycle = np.repeat(digits[: -(-len(rows) // run)], run)
            rows[:, _M_AT + k] = np.tile(cycle, -(-len(rows) // len(cycle)))[: len(rows)]
    return out


def read_raw_log(path) -> tuple[LogHeader, list[dict]]:
    """Parse a log file into its header and raw (uncoerced) trial records.

    Raw records keep whatever values the file holds, so validation can report
    non-bit outcomes instead of choking on them.
    """
    with open(path, "rb") as fh:
        return _parse_lines(path, fh.read())


def _parse_lines(path, data: bytes) -> tuple[LogHeader, list[dict]]:
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: log is not UTF-8 text: {exc}") from exc
    if not lines:
        raise LogFormatError(f"{path}: empty log file")
    header_doc = parse_json(lines[0], LogFormatError, "%s: unparseable header line", path)
    header = LogHeader.from_dict(header_doc)
    records = []
    # parse_json's rule around the whole loop, without its call per record.
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise LogFormatError(f"{path}:{lineno}: record is not a JSON object")
            records.append(doc)
    except LogFormatError:
        raise
    except JSON_ERRORS as exc:
        raise LogFormatError(f"{path}:{lineno}: unparseable record: {exc}") from exc
    return header, records


def _canonical_log(data: bytes) -> TrialLog | None:
    """The log whose serialization is exactly ``data``, or None if no log's is.

    The count is the one of at most the header's n whose record lines fill
    the rest of ``data`` exactly; each record's i, j, x and y are then read
    through ``_record_rows`` and mapped into their allowed values (a byte
    other than "2" reads as 1 for a setting, one other than "1" as 0 for a
    bit), so the columns hold a valid log whatever the file says; byte
    equality then decides.
    """
    end = data.find(b"\n")
    if end < 0:
        return None
    try:
        header = LogHeader.from_dict(parse_json(data[:end], LogFormatError, "header line"))
    except LogFormatError:  # the per-line path says why
        return None
    count = _count_of(len(data) - end - 1, header.n)
    if count is None:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
    columns = i, j, x, y = np.empty((4, count), dtype=np.uint8)
    for trials, rows, _ in _record_rows(body, count):
        i[trials] = rows[:, _I_AT] == ord("2")
        j[trials] = rows[:, _J_AT] == ord("2")
        x[trials] = rows[:, -1 - _X_BEFORE_NL] == ord("1")
        y[trials] = rows[:, -1 - _Y_BEFORE_NL] == ord("1")
    columns[:2] += 1
    log = TrialLog._holding(header, *columns)
    return log if log.to_bytes() == data else None


@dataclass(frozen=True)
class LogValidation:
    ok: bool
    violations: tuple[str, ...]
    last_valid: int  # leading records within header.n that have no violation
    incomplete: bool = False  # fewer records than header.n; the last violation says so

    @property
    def corrupt(self) -> tuple[str, ...]:
        """The violations other than a short log's: what no reader can go past."""
        return self.violations[:-1] if self.incomplete else self.violations


def validate_raw_records(header: LogHeader, records: list[dict]) -> LogValidation:
    """Structural validation: every outcome an exact bit, every trial complete
    and present, sequence numbers contiguous from 1 to header.n.

    Every field must be a JSON integer: ``type(v) is int`` also refuses
    ``true``/``false``, which ``isinstance(v, int)`` would let through."""
    violations: list[str] = []
    expected = 1
    last_valid = 0
    for doc in records:
        m = doc.get("m")
        label = f"trial {m!r}"
        for field in ("m", "i", "j", "x", "y"):
            if field not in doc:
                violations.append(f"{label}: missing field {field!r} (no missing data permitted)")
        if sorted(doc) != ["i", "j", "m", "x", "y"]:
            extras = sorted(set(doc) - {"i", "j", "m", "x", "y"})
            if extras:
                violations.append(f"{label}: unknown fields {extras}")
        if type(m) is not int or m != expected:
            violations.append(f"{label}: expected sequence number {expected}")
            if type(m) is int:
                expected = m
        expected += 1
        for field in ("i", "j"):
            v = doc.get(field)
            if field in doc and (type(v) is not int or v not in (1, 2)):
                violations.append(f"{label}: setting {field}={v!r} not in {{1,2}}")
        for field in ("x", "y"):
            v = doc.get(field)
            if field in doc and (type(v) is not int or v not in (0, 1)):
                violations.append(f"{label}: outcome {field}={v!r} is not a bit")
        if not violations:
            last_valid += 1
    if len(records) < header.n:
        violations.append(_short_log(len(records), header.n))
    elif len(records) > header.n:
        extra = [doc.get("m") for doc in records[header.n :]]
        named = ", ".join(repr(m) for m in extra[:5]) + (", ..." if len(extra) > 5 else "")
        violations.append(
            f"log holds {len(records)} trials but the design allows only {header.n} "
            f"(extra trials: {named})"
        )
    return LogValidation(
        ok=not violations,
        violations=tuple(violations),
        last_valid=min(last_valid, header.n),
        incomplete=len(records) < header.n,
    )


def _short_log(count: int, n: int) -> str:
    return f"log holds {count} trials but the design requires {n} (incomplete experiment)"


def read_log(path) -> tuple[LogHeader, TrialLog | None, LogValidation]:
    """Read a log file: its header, its trials as a ``TrialLog`` (None when a
    record is corrupt or there are more than n) and its structural validation.

    A canonical file is read in one vectorized pass; any other file line by
    line, as ``read_raw_log``, ``validate_raw_records`` and ``from_raw`` do.
    Raises ``LogFormatError`` for a file that cannot be parsed at all, and
    ``OSError`` for one that cannot be read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    log = _canonical_log(data)
    if log is not None:
        count, n = len(log), log.header.n
        violations = () if count == n else (_short_log(count, n),)
        validation = LogValidation(not violations, violations, count, incomplete=count < n)
        return log.header, log, validation
    header, records = _parse_lines(path, data)
    validation = validate_raw_records(header, records)
    log = None if validation.corrupt else TrialLog.from_raw(header, records)
    return header, log, validation


def load_log(path) -> TrialLog:
    """Read and structurally validate a complete log file."""
    _, log, validation = read_log(path)
    if not validation.ok:
        raise LogFormatError(
            f"{path}: invalid log: " + "; ".join(validation.violations[:5])
        )
    return log
