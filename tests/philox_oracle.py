"""Philox4x64-10 and the settings stream in pure Python, without NumPy.

Written from Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy
as 1, 2, 3" (SC'11), as the reference the tests hold NumPy's ``Philox`` and
``bellbet.rng.settings_cells`` to. It is also how a jury re-derives a log's
settings from its seed alone: CI checks a written log's ``i``/``j`` columns
against ``settings_cells`` here on every NumPy version it runs.
"""

import hashlib

MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bumps: golden ratio, sqrt(3) - 1
ROUNDS = 10


def philox_block(counter: int, key: int) -> list[int]:
    """The four 64-bit output words of a 256-bit counter under a 128-bit key."""
    c0, c1, c2, c3 = ((counter >> (64 * w)) & MASK for w in range(4))
    k0, k1 = key & MASK, key >> 64
    for _ in range(ROUNDS):
        p0, p1 = MULTIPLIERS[0] * c0, MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
        k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
    return [c0, c1, c2, c3]


def raw_words(key: int, n: int, counter: int = 0) -> list[int]:
    """The first n words of ``Philox(key=key, counter=counter).random_raw``:
    the counter steps by one, carrying across its words, before each block."""
    words = []
    while len(words) < n:
        counter = (counter + 1) & ((1 << 256) - 1)
        words += philox_block(counter, key)
    return words[:n]


def settings_cells(seed: int, n: int) -> list[int]:
    """Cell codes 2*(i-1) + (j-1) of trials 1..n of experiment ``seed``: the
    settings key is SHA-256("<seed>:settings")'s first 16 bytes, little-endian,
    and each raw word gives the top two bits of its low, then high, 32-bit half."""
    key = int.from_bytes(hashlib.sha256(f"{seed}:settings".encode()).digest()[:16], "little")
    cells = [code for w in raw_words(key, (n + 1) // 2) for code in ((w >> 30) & 3, w >> 62)]
    return cells[:n]
