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
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import AngleConfig, Setting, TrialRecord

LOG_VERSION = 1


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
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"malformed log header: {doc!r}") from exc
        integers = (header.seed, header.n, header.critical_value)
        if any(type(v) is not int for v in integers) or header.n < 0:
            raise LogFormatError(f"malformed log header: {doc!r}")
        return header

    @property
    def angle_config(self) -> AngleConfig:
        return AngleConfig(*self.angles)


_RECORD_LINE = '{"i":%d,"j":%d,"m":%d,"x":%d,"y":%d}'


def _dump_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TrialLog(Sequence):
    """In-memory trial log backed by compact per-column arrays.

    As a ``Sequence[TrialRecord]`` it indexes from 0 (negative indices count
    from the end), so ``log[-1]`` is the last committed trial.
    """

    def __init__(self, header: LogHeader):
        self.header = header
        self._i = np.zeros(header.n, dtype=np.uint8)
        self._j = np.zeros(header.n, dtype=np.uint8)
        self._x = np.zeros(header.n, dtype=np.uint8)
        self._y = np.zeros(header.n, dtype=np.uint8)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def complete(self) -> bool:
        return self._count == self.header.n

    def append(self, record: TrialRecord) -> None:
        if record.m != self._count + 1:
            raise ValueError(f"expected trial {self._count + 1}, got {record.m}")
        if self._count >= self.header.n:
            raise ValueError(f"log already holds all {self.header.n} trials")
        idx = self._count
        self._i[idx] = record.setting.i
        self._j[idx] = record.setting.j
        self._x[idx] = record.x
        self._y[idx] = record.y
        self._count += 1

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, x, y) arrays for the committed trials, in order."""
        c = self._count
        return self._i[:c], self._j[:c], self._x[:c], self._y[:c]

    def cells(self) -> np.ndarray:
        i, j, _, _ = self.columns()
        return (2 * i + j - 3).astype(np.int64)  # exact in uint8: 2*i + j is 3..6

    def record(self, m: int) -> TrialRecord:
        if not 1 <= m <= self._count:
            raise IndexError(f"trial {m} outside 1..{self._count}")
        idx = m - 1
        return TrialRecord(
            m=m,
            setting=Setting(int(self._i[idx]), int(self._j[idx])),
            x=int(self._x[idx]),
            y=int(self._y[idx]),
        )

    def __getitem__(self, index: int) -> TrialRecord:
        return self.record(index + 1 if index >= 0 else self._count + index + 1)

    def records(self) -> Iterator[TrialRecord]:
        for m in range(1, self._count + 1):
            yield self.record(m)

    # --- serialization ---------------------------------------------------

    def to_lines(self) -> Iterator[str]:
        yield _dump_line(self.header.to_dict())
        i, j, x, y = (col.tolist() for col in self.columns())
        yield from map(_RECORD_LINE.__mod__, zip(i, j, range(1, self._count + 1), x, y))

    def to_bytes(self) -> bytes:
        return ("\n".join(self.to_lines()) + "\n").encode("ascii")

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_raw(cls, header: LogHeader, raw_records: list[dict]) -> "TrialLog":
        """Build from already-validated raw record dicts: trials 1..len, in
        order, possibly fewer than ``header.n`` (an aborted run's log)."""
        count = len(raw_records)
        if count > header.n:
            raise ValueError(f"{count} records exceed the header's {header.n} trials")
        log = cls(header)
        for name, col in (("i", log._i), ("j", log._j), ("x", log._x), ("y", log._y)):
            col[:count] = [doc[name] for doc in raw_records]
        log._count = count
        return log

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
        for name, col, allowed in (("i", i, (1, 2)), ("j", j, (1, 2)), ("x", x, (0, 1)), ("y", y, (0, 1))):
            arr = np.asarray(col)
            if not np.isin(arr, allowed).all():
                raise ValueError(f"column {name} holds values outside {allowed}")
        log = cls(header)
        log._i[:] = i
        log._j[:] = j
        log._x[:] = x
        log._y[:] = y
        log._count = count
        return log


def read_raw_log(path) -> tuple[LogHeader, list[dict]]:
    """Parse a log file into its header and raw (uncoerced) trial records.

    Raw records keep whatever values the file holds, so validation can report
    non-bit outcomes instead of choking on them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: log is not UTF-8 text: {exc}") from exc
    if not lines:
        raise LogFormatError(f"{path}: empty log file")
    try:
        header_doc = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"{path}: unparseable header line") from exc
    if not isinstance(header_doc, dict) or header_doc.get("kind") != "header":
        raise LogFormatError(f"{path}: first line is not a log header")
    header = LogHeader.from_dict(header_doc)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path}:{lineno}: unparseable record") from exc
        if not isinstance(doc, dict):
            raise LogFormatError(f"{path}:{lineno}: record is not a JSON object")
        records.append(doc)
    return header, records


@dataclass(frozen=True)
class LogValidation:
    ok: bool
    violations: tuple[str, ...]
    last_valid: int  # leading records within header.n that have no violation


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
        violations.append(
            f"log holds {len(records)} trials but the design requires {header.n} "
            "(incomplete experiment)"
        )
    elif len(records) > header.n:
        extra = [doc.get("m") for doc in records[header.n :]]
        named = ", ".join(repr(m) for m in extra[:5]) + (", ..." if len(extra) > 5 else "")
        violations.append(
            f"log holds {len(records)} trials but the design allows only {header.n} "
            f"(extra trials: {named})"
        )
    return LogValidation(
        ok=not violations, violations=tuple(violations), last_valid=min(last_valid, header.n)
    )


def load_log(path) -> TrialLog:
    """Read and structurally validate a complete log file."""
    header, records = read_raw_log(path)
    validation = validate_raw_records(header, records)
    if not validation.ok:
        raise LogFormatError(
            f"{path}: invalid log: " + "; ".join(validation.violations[:5])
        )
    return TrialLog.from_raw(header, records)
