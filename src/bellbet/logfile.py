"""Trial log: append-only per-trial records with NDJSON (de)serialization.

File layout is one JSON object per line: a header record

    {"kind": "header", "version": 1, "config_hash": ..., "seed": ...,
     "mode": ..., "angles": [a1, a2, b1, b2], "n": ..., "critical_value": ...}

followed by one record per trial, in trial order, written straight from the
log's columns with the fixed template

    {"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}

For int fields that template is byte-identical to the canonical JSON
(sorted keys, no whitespace) that the header line gets from
``core.CANONICAL_JSON``.
So two runs that commit the same trials produce byte-identical files; replay
verification relies on that.

Writer and reader share one layout, fixed by the trial count alone: after
the header line, one block per width of m, each a run of equal-length rows
(``_layout``). The writer fills one byte buffer through it, each
block one digit group of m at a time (``_serialize``), and hands the buffer
to the file. ``read_log`` is the one reader. A file is canonical when it is
byte-equal to the serialization of the log it holds: the writer's output,
or any prefix of it cut after a record line (an aborted run's log). Such a
file is read in one vectorized pass: the header line with ``json``; the
count from the length of the rest, the one count of at most n whose record
lines fill it exactly, so there is no scan for newlines; then i, j, x and y
of every record through the same block views, mapped into their allowed
values and held as a log holds every trial: its cell code 2(i-1) + (j-1),
as drawn, and x and y. The result is accepted only if it serializes back to the file's
exact bytes: the serialization buffer and the file's bytes are compared in
one memcmp, and neither is copied. That equality proves what the
per-record validator checks (field set, integer types, bit and setting
ranges, m = 1..count, count <= n), so the fast path adds no rule of its
own. Every other file, whether
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
    CANONICAL_JSON,
    JSON_ERRORS,
    MODES,
    SETTINGS_BY_CELL,
    AngleConfig,
    TrialRecord,
    cell_code,
    parse_json,
    replace_file,
    shown,
)

LOG_VERSION = 1
_HEADER_KEYS = ("kind", "version", "config_hash", "seed", "mode", "angles", "n", "critical_value")
_HEX_DIGITS = frozenset("0123456789abcdef")


class LogFormatError(ValueError):
    """The log file cannot be parsed at all (I/O-level corruption)."""


def _malformed(rule: str) -> LogFormatError:
    return LogFormatError(f"malformed log header: {rule}")


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
        """The header a log's first line holds. One of another version is
        refused as such; any other bad one with the first rule it breaks,
        which names the field: ``malformed log header: <rule>``."""
        if not isinstance(doc, dict):
            raise _malformed(f"{shown(doc)} is not a JSON object")
        if "version" in doc and (type(doc["version"]) is not int or doc["version"] != LOG_VERSION):
            # 1.0 is no version. A later one names a later layout, so its
            # keys are not checked.
            raise LogFormatError(f"log version {shown(doc['version'])} is not {LOG_VERSION}")
        for key in _HEADER_KEYS:
            if key not in doc:
                raise _malformed(f"missing key {shown(key)}")
        for key in doc:
            if key not in _HEADER_KEYS:
                raise _malformed(f"unknown key {shown(key)}")
        if doc["kind"] != "header":
            raise _malformed(f"kind {shown(doc['kind'])} is not 'header'")
        if doc["mode"] not in (*MODES, "batch"):  # the deleted batch mode's logs stay readable
            raise _malformed(f"mode {shown(doc['mode'])} is not {', '.join(MODES)} or batch")
        digest = doc["config_hash"]
        if not (type(digest) is str and len(digest) == 64 and _HEX_DIGITS.issuperset(digest)):
            raise _malformed(f"config_hash {shown(digest)} is not a sha256 in lowercase hex")
        for key in ("seed", "n", "critical_value"):
            if type(doc[key]) is not int:
                raise _malformed(f"{key} {shown(doc[key])} is not an integer")
        for key in ("seed", "n"):  # a seed is unsigned, as in a config
            if doc[key] < 0:
                raise _malformed(f"{key} {shown(doc[key])} is negative")
        angles = doc["angles"]
        try:
            # Numbers first, so AngleConfig's message never formats a value
            # of any size or depth.
            if type(angles) is not list or not all(type(a) in (int, float) for a in angles):
                raise TypeError
            AngleConfig(*angles)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: past a float
            raise _malformed(f"angles {shown(angles)} are not four finite numbers") from exc
        return cls(
            config_hash=digest,
            seed=doc["seed"],
            mode=doc["mode"],
            angles=tuple(angles),
            n=doc["n"],
            critical_value=doc["critical_value"],
        )

    @property
    def angle_config(self) -> AngleConfig:
        return AngleConfig(*self.angles)


_RECORD_LINE = b'{"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}\n'
# Byte offsets in a record line: of i, j, x and y, the first two from the
# line's start and the last two back from its end (its newline is at -1),
# and where the digits of m start. ``_HIGH`` holds the byte of each field's
# higher value: "2" for a setting, "1" for a bit.
_FIELDS_AT = np.array([5, 11, -9, -3])
_M_AT = 17
_HIGH = np.frombuffer(b"2211", dtype=np.uint8)
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _layout(count: int) -> list[tuple[slice, slice, bytes]]:
    """The layout of record lines 1..count, one block per width of m: the
    trials lo..hi-1 that print m with it as a slice of trial indices, their
    span of bytes after the header line and their common line, with m = lo."""
    blocks, lo, start = [], 1, 0
    while lo <= count:
        hi = min(10 * lo, count + 1)
        line = _RECORD_LINE % (1, 1, lo, 0, 0)
        stop = start + (hi - lo) * len(line)
        blocks.append((slice(lo - 1, hi - 1), slice(start, stop), line))
        lo, start = 10 * lo, stop
    return blocks


def _count_of(size: int, n: int) -> int | None:
    """The count of at most n whose record lines take exactly ``size``
    bytes, or None; the size grows with the count, so there is at most one."""
    for trials, span, line in _layout(n):
        if size <= span.stop:
            rows, rest = divmod(size - span.start, len(line))
            return None if rest else trials.start + rows
    return None if size else 0


class TrialLog(Sequence):
    """In-memory trial log backed by compact per-column arrays.

    As a ``Sequence[TrialRecord]`` it indexes from 0 (negative indices count
    from the end), so ``log[-1]`` is the last committed trial.
    """

    def __init__(self, header: LogHeader):
        self.header = header
        # One byte per trial in each column: ``commit`` is a plain store, and
        # ``columns`` views the committed prefix as uint8 arrays.
        self._cells = bytearray(header.n)
        self._x = bytearray(header.n)
        self._y = bytearray(header.n)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def complete(self) -> bool:
        return self._count == self.header.n

    def commit(self, cell: int, x: int, y: int) -> None:
        """Append the next trial from its cell code and outcome bits, which
        the caller has checked: the one way a trial enters a log. No record
        is built; ``record`` builds one when it is read. A full log raises
        IndexError."""
        idx = self._count
        self._cells[idx] = cell
        self._x[idx] = x
        self._y[idx] = y
        self._count = idx + 1

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cells, x, y) arrays for the committed trials, in order."""
        c = self._count
        cols = self._cells, self._x, self._y
        return tuple(np.frombuffer(col, dtype=np.uint8, count=c) for col in cols)

    def record(self, m: int) -> TrialRecord:
        """Trial m, built from the columns, which hold only checked values."""
        if not 1 <= m <= self._count:
            raise IndexError(f"trial {m} outside 1..{self._count}")
        idx = m - 1
        return TrialRecord.checked(m, SETTINGS_BY_CELL[self._cells[idx]], self._x[idx], self._y[idx])

    def __getitem__(self, index: int) -> TrialRecord:
        return self.record(index + 1 if index >= 0 else self._count + index + 1)

    def records(self) -> Iterator[TrialRecord]:
        for m in range(1, self._count + 1):
            yield self.record(m)

    # --- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        return bytes(_serialize(self))

    def write(self, path) -> None:
        replace_file(path, _serialize(self))

    @classmethod
    def from_raw(cls, header: LogHeader, raw_records: list[dict]) -> "TrialLog":
        """Build from already-validated raw record dicts: trials 1..len, in
        order, possibly fewer than ``header.n`` (an aborted run's log)."""
        count = len(raw_records)
        if count > header.n:
            raise ValueError(f"{count} records exceed the header's {header.n} trials")
        cells = bytes([cell_code(doc["i"], doc["j"]) for doc in raw_records])
        x, y = (bytes([doc[name] for doc in raw_records]) for name in "xy")
        return cls._holding(header, cells, x, y)

    @classmethod
    def from_columns(
        cls, header: LogHeader, cells: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> "TrialLog":
        """A complete log of per-trial columns of cell codes 0..3 and bits, of
        integer or bool dtype; anything else is a ValueError naming the column."""
        count = len(cells)
        if not (len(x) == len(y) == count) or count != header.n:
            raise ValueError("column lengths must all equal header.n")
        arrays = []
        for name, col, top in zip(("cells", "x", "y"), (cells, x, y), (3, 1, 1)):
            arr = np.asarray(col)
            if arr.dtype.kind not in "biu":
                raise ValueError(f"column {name} holds {arr.dtype} values, not integers")
            if arr.dtype.kind == "i":  # one max: as unsigned, a negative is large
                arr = arr.view(arr.dtype.str.replace("i", "u"))
            if count and arr.max() > top:
                raise ValueError(f"column {name} holds values outside 0..{top}")
            arrays.append(arr.astype(np.uint8, copy=False))
        return cls._holding(header, *arrays)

    @classmethod
    def _holding(cls, header: LogHeader, cells, x, y) -> "TrialLog":
        """A log of exactly the trials in three equal-length byte columns of
        checked values, sized by them rather than by ``header.n``: a log read
        from disk may name any n in its header."""
        log = cls.__new__(cls)
        log.header = header
        log._cells, log._x, log._y = (bytearray(col) for col in (cells, x, y))
        log._count = len(log._cells)
        return log


def _serialize(log: TrialLog) -> bytearray:
    """The log's file bytes: the header line, then ``_RECORD_LINE % (i, j,
    m, x, y)`` for m = 1..len(log), laid out by ``_layout`` and filled
    through a uint8 view. Each value is one digit, its line's lower one plus
    a bit: the cell code's high bit for i, its low bit for j."""
    head = (CANONICAL_JSON.encode(log.header.to_dict()) + "\n").encode("ascii")
    cells, x, y = log.columns()
    columns = cells >> 1, cells & 1, x, y
    layout = _layout(len(log))
    out = bytearray(len(head) + (layout[-1][1].stop if layout else 0))
    out[: len(head)] = head
    body = np.frombuffer(out, dtype=np.uint8)[len(head) :]
    for trials, span, line in layout:
        rows = body[span].reshape(-1, len(line))
        # Row t prints m = lo + t with lo a power of ten. Once the first
        # 10^p rows are done, the next groups of 10^p rows, up to nine, are
        # one broadcast copy of them and differ in the digit for 10^p alone,
        # written once per group; from m's last digit to its first, so only
        # the last level can end inside a group.
        rows[0] = np.frombuffer(line, dtype=np.uint8)
        at = _M_AT + len(str(trials.start + 1))
        done = 1
        while done < len(rows):
            at -= 1
            stop = min(10 * done, len(rows))
            groups, part = divmod(stop - done, done)
            # Group g's digit is row 0's plus g: 0 + g, or a leading 1 + g.
            digits = _DIGITS[2:] if at == _M_AT else _DIGITS[1:]
            copies = rows[done : done + groups * done].reshape(groups, done, len(line))
            copies[:] = rows[:done]
            copies[:, :, at] = digits[:groups, None]
            if part:
                rows[stop - part : stop] = rows[:part]
                rows[stop - part : stop, at] = digits[groups]
            done = stop
        for offset, column in zip(_FIELDS_AT, columns):
            rows[:, offset] += column[trials]
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
    through ``_layout`` and mapped into their allowed values (a byte
    other than "2" reads as 1 for a setting, one other than "1" as 0 for a
    bit) and i and j folded into the cell code, so the columns hold a valid
    log whatever the file says. Then the writer's own output decides:
    ``_serialize``'s buffer must equal ``data``, one memcmp with no copy, so
    the reader adds no rule of its own.
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
    high = np.empty((4, count), dtype=np.uint8)  # i, j, x and y at their higher value
    for trials, span, line in _layout(count):
        rows = body[span].reshape(-1, len(line))
        high[:, trials] = (rows[:, _FIELDS_AT] == _HIGH).T
    high[0] <<= 1
    high[0] |= high[1]
    log = TrialLog._holding(header, high[0], high[2], high[3])
    return log if _serialize(log) == data else None


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
