"""Deterministic seed splitting and per-trial draws.

All randomness in an experiment derives from one unsigned experiment seed.
Each role (settings, oracle, source, left, right) gets its own
Philox4x64 counter-based stream, keyed by the first 128 bits of
SHA-256("<seed>:<role>"). A role's per-trial values are drawn with a single
array call, the first time they are read, so the in-process referee, the
networked referee, the replay verifier and the vectorized simulation kernels
all see bit-identical values for trial m, and a process that never reads a
role's values never draws them.
"""

from __future__ import annotations

import hashlib

import numpy as np

ROLE_SETTINGS = "settings"
ROLE_ORACLE = "oracle"
ROLE_SOURCE = "source"
ROLE_LEFT = "left"
ROLE_RIGHT = "right"


def derive_key(seed: int, role: str) -> int:
    """128-bit Philox key for one role of one experiment seed."""
    if seed < 0:
        raise ValueError(f"experiment seed must be unsigned, got {seed}")
    digest = hashlib.sha256(f"{seed}:{role}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "little")


def role_generator(seed: int, role: str) -> np.random.Generator:
    """Fresh Philox generator for a role; same (seed, role) => same stream."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, role)))


def settings_cells(seed: int, n: int) -> np.ndarray:
    """Cell codes 0..3 for trials 1..n, each multinomial(1; 1/4,1/4,1/4,1/4).

    Code = 2*(i-1) + (j-1). Produced by one ``integers(0, 4, size=n)`` call
    on the settings stream, which is the documented generation scheme.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return role_generator(seed, ROLE_SETTINGS).integers(0, 4, size=n)


class TrialUniforms:
    """Uniform(0,1) float64 draws, one per trial, for a single role.

    The whole stream is drawn with one array call on the first read of
    ``values`` or ``at``, never at construction. ``at(m)`` is 1-indexed by
    trial number.
    """

    def __init__(self, seed: int, role: str, n: int):
        self.seed = seed
        self.role = role
        self.n = n
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = role_generator(self.seed, self.role).random(self.n)
        return self._values

    def at(self, m: int) -> float:
        if not 1 <= m <= self.n:
            raise IndexError(f"trial {m} outside 1..{self.n}")
        values = self._values
        if values is None:
            values = self.values
        return values.item(m - 1)
