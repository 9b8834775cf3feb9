"""Experiment configuration: schema, strict validation, canonical hashing.

A config is one human-readable JSON document; unknown fields are rejected at
every level so the pre-agreed protocol is exactly what the file says. The
canonical serialization (sorted keys, no whitespace) is hashed into the log
header so any party can check that a log was produced under the agreed
configuration (the ``output`` path is excluded from the hash: it is not part
of the protocol).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .bounds import MAX_TRIALS, ProtocolDesign, midpoint_critical_value
from .core import CANONICAL_JSON, MODES, AngleConfig, clipped, parse_json, shown
from .quantum import (
    CORRELATION_SENSES,
    EQUAL_POLARIZATION,
    QuantumModel,
    expected_statistic_per_trial,
)
from .strategies import STRATEGY_REGISTRY, build_strategy

SIDE_QUANTUM = "quantum"
SIDE_STRATEGY = "strategy"


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


@dataclass(frozen=True)
class SideSpec:
    """Who produces outcomes: the quantum oracle or a named strategy."""

    kind: str
    correlation_sense: str = EQUAL_POLARIZATION
    strategy: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (SIDE_QUANTUM, SIDE_STRATEGY):
            raise ConfigError(f"side.kind must be 'quantum' or 'strategy', got {shown(self.kind)}")
        if self.kind == SIDE_QUANTUM:
            if self.correlation_sense not in CORRELATION_SENSES:
                raise ConfigError(
                    f"side.correlation_sense must be one of {CORRELATION_SENSES}, "
                    f"got {shown(self.correlation_sense)}"
                )
        else:
            # A JSON list or object is unhashable: test the type before the lookup.
            if not isinstance(self.strategy, str) or self.strategy not in STRATEGY_REGISTRY:
                raise ConfigError(
                    f"unknown strategy {shown(self.strategy)}; known: {sorted(STRATEGY_REGISTRY)}"
                )

    def to_dict(self) -> dict:
        if self.kind == SIDE_QUANTUM:
            return {"kind": self.kind, "correlation_sense": self.correlation_sense}
        return {"kind": self.kind, "strategy": self.strategy, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SideSpec":
        if not isinstance(doc, Mapping):
            raise ConfigError(f"side must be an object, got {shown(doc)}")
        kind = doc.get("kind")
        if kind == SIDE_QUANTUM:
            allowed = {"kind", "correlation_sense"}
        else:
            allowed = {"kind", "strategy", "params"}
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown side fields: {shown(sorted(unknown))}")
        if kind == SIDE_QUANTUM:
            return cls(kind=kind, correlation_sense=doc.get("correlation_sense", EQUAL_POLARIZATION))
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigError(f"side.params must be an object, got {shown(params)}")
        return cls(kind=kind or "", strategy=doc.get("strategy", ""), params=dict(params))


def mean_per_trial(side: SideSpec, angles: AngleConfig) -> float:
    """mu, the per-trial quantum mean a config's design is built on: the
    oracle's own law for a quantum side, the equal-polarization law at these
    angles for a strategy side."""
    sense = side.correlation_sense if side.kind == SIDE_QUANTUM else EQUAL_POLARIZATION
    return expected_statistic_per_trial(QuantumModel(angles, sense))


def _reason(exc: Exception) -> str:
    """The message of an error raised on a config value, cut to 160
    characters: it may quote the value."""
    return clipped(str(exc), 160)


def _trial_count(n) -> int:
    """``n`` if it is an exact int in 1..MAX_TRIALS; ``type(n) is int`` also
    refuses bools, which ``isinstance(n, int)`` would let through."""
    if type(n) is not int or not 1 <= n <= MAX_TRIALS:
        raise ConfigError(f"n must be an integer in 1..{MAX_TRIALS}, got {shown(n)}")
    return n


def _as_float(value, what: str) -> float:
    """``float(value)`` for a JSON number, or a ``ConfigError`` naming
    ``what``: for a string or a bool, which ``float`` would accept, and for a
    value with no float, such as an integer too large for one
    (``OverflowError``)."""
    if isinstance(value, (str, bool)):
        raise ConfigError(f"{what} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is an integer too large for a float") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {shown(value)}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One pre-agreed experiment. ``critical_value`` may be given explicitly
    or as 'auto', which construction resolves by the midpoint rule. A config
    is valid only if its (n, C, mu) is a ``ProtocolDesign``, built here once."""

    angles: AngleConfig
    side: SideSpec
    n: int
    critical_value: int
    seed: int
    mode: str = "sequential"
    target_error: float = 1e-6
    output: str | None = None
    design: ProtocolDesign = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {shown(self.mode)}")
        if type(self.seed) is not int or self.seed < 0:  # a bool is not a seed
            raise ConfigError(f"seed must be an unsigned integer, got {shown(self.seed)}")
        if not isinstance(self.target_error, float) or not 0.0 < self.target_error < 1.0:
            raise ConfigError(f"target_error must be in (0, 1), got {shown(self.target_error)}")
        mu = mean_per_trial(self.side, self.angles)
        if self.critical_value == "auto":
            # checked before the midpoint rule multiplies it
            c = midpoint_critical_value(_trial_count(self.n), mu)
            object.__setattr__(self, "critical_value", c)
        try:
            design = ProtocolDesign(self.n, self.critical_value, mu)
        except ValueError as exc:
            raise ConfigError(
                f"no protocol design for n={shown(self.n)}, "
                f"critical_value={shown(self.critical_value)}: {_reason(exc)}"
            ) from None
        object.__setattr__(self, "design", design)

    @property
    def qm_mean_per_trial(self) -> float:
        """The quantum expectation the claimant aims for at these angles (used
        for the midpoint rule and both error bounds)."""
        return self.design.qm_mean_per_trial

    def to_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "angles": list(self.angles.as_tuple()),
            "side": self.side.to_dict(),
            "n": self.n,
            "critical_value": self.critical_value,
            "seed": self.seed,
            "target_error": self.target_error,
        }
        if self.output is not None:
            doc["output"] = self.output
        return doc

    def canonical_json(self) -> str:
        doc = self.to_dict()
        doc.pop("output", None)
        return CANONICAL_JSON.encode(doc)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


_TOP_LEVEL_FIELDS = {
    "mode",
    "angles",
    "side",
    "n",
    "critical_value",
    "seed",
    "target_error",
    "output",
}


def config_from_dict(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and validate a config document; unknown fields are rejected."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"config must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {shown(sorted(unknown))}")
    for required in ("angles", "side", "n", "seed"):
        if required not in doc:
            raise ConfigError(f"missing required config field {required!r}")

    angles_doc = doc["angles"]
    if not isinstance(angles_doc, (list, tuple)) or len(angles_doc) != 4:
        raise ConfigError(f"angles must be a list of four radians, got {shown(angles_doc)}")
    try:
        angles = AngleConfig(*(_as_float(a, "an angle") for a in angles_doc))
    except ValueError as exc:
        raise ConfigError(f"bad angles {shown(angles_doc)}: {_reason(exc)}") from exc

    side = SideSpec.from_dict(doc["side"])
    if side.kind == SIDE_STRATEGY:
        try:
            build_strategy(side.strategy, side.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad params for strategy {shown(side.strategy)}: {_reason(exc)}"
            ) from exc

    target_error = _as_float(doc.get("target_error", 1e-6), "target_error")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path string, got {shown(output)}")

    return ExperimentConfig(
        angles=angles,
        side=side,
        n=doc["n"],
        critical_value=doc.get("critical_value", "auto"),
        seed=doc["seed"],
        mode=doc.get("mode", "sequential"),
        target_error=target_error,
        output=output,
    )


def read_config_dict(path) -> dict:
    """The JSON object in the config file at ``path``, not yet validated."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc = parse_json(data, ConfigError, "config %s is not valid JSON", path)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def default_config_dict() -> dict:
    """The fully explicit default configuration (for --print-config)."""
    return {
        "mode": "sequential",
        "angles": [math.pi / 8.0, 3.0 * math.pi / 8.0, -math.pi / 4.0, 0.0],
        "side": {"kind": "quantum", "correlation_sense": EQUAL_POLARIZATION},
        "n": 25000,
        "critical_value": "auto",
        "seed": 0,
        "target_error": 1e-6,
        "output": "experiment.log",
    }
