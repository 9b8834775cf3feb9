"""Deterministic seed splitting and per-trial draws.

All randomness in an experiment derives from one unsigned experiment seed.
Each role (settings, oracle, source, left, right) gets its own
Philox4x64-10 stream (Salmon et al., SC'11) from counter 0, keyed by the
first 128 bits of SHA-256("<seed>:<role>") read as a little-endian integer.
The settings are two bits of each raw 64-bit word and a uniform is
``Generator.random`` of one, so replay rests on raw words alone, the one
stream NumPy keeps across versions (NEP 19). A role's per-trial values are
drawn with a single array call, the first time they are read, so the
in-process referee, the networked referee, the replay verifier and the
vectorized simulation kernels all see bit-identical values for trial m, and
a process that never reads a role's values never draws them.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

ROLE_SETTINGS = "settings"
ROLE_ORACLE = "oracle"
ROLE_SOURCE = "source"
ROLE_LEFT = "left"
ROLE_RIGHT = "right"

_WORD = (1 << 64) - 1
# Philox at counter 0 with an empty buffer: a fresh generator, but for its key.
_FRESH = dict(bit_generator="Philox", buffer=(0,) * 4, buffer_pos=4, has_uint32=0, uinteger=0)
_thread = threading.local()


def derive_key(seed: int, role: str) -> int:
    """128-bit Philox key for one role of one experiment seed."""
    if seed < 0:
        raise ValueError(f"experiment seed must be unsigned, got {seed}")
    digest = hashlib.sha256(f"{seed}:{role}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "little")


def _draw(seed: int, role: str, n: int, *, words: bool = False) -> np.ndarray:
    """The first n raw words (``words``) or ``Generator.random`` doubles of
    the (seed, role) stream, from this thread's one Philox (built on its first
    draw, never returned), re-keyed at a fraction of a keyed build's cost."""
    generator = getattr(_thread, "generator", None)
    if generator is None:
        generator = _thread.generator = np.random.Generator(np.random.Philox(key=0))
    key = derive_key(seed, role)
    bits = generator.bit_generator
    bits.state = dict(_FRESH, state={"counter": (0,) * 4, "key": (key & _WORD, key >> 64)})
    return bits.random_raw(n) if words else generator.random(n)


def settings_cells(seed: int, n: int) -> np.ndarray:
    """uint8 cell codes 0..3 for trials 1..n, each multinomial(1; 1/4,1/4,1/4,1/4).

    Code = 2*(i-1) + (j-1): the top two bits of each 32-bit half of a raw
    word w, low half first, ``(w >> 30) & 3`` then ``w >> 62``, as NumPy's
    ``integers(0, 4, size=n)``. Each length is a prefix of every longer one.
    The words are read as little-endian uint32 pairs, so one shift of that
    view gives the codes in trial order, low half first on every host.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    words = _draw(seed, ROLE_SETTINGS, (n + 1) // 2, words=True)
    return (words.astype("<u8", copy=False).view("<u4")[:n] >> 30).astype(np.uint8)


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
            self._values = _draw(self.seed, self.role, self.n)
        return self._values

    def at(self, m: int) -> float:
        if not 1 <= m <= self.n:
            raise IndexError(f"trial {m} outside 1..{self.n}")
        values = self._values
        if values is None:
            values = self.values
        return values.item(m - 1)
