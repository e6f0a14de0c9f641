"""SplitMix64: tiny, seeded, reproducible across implementations.

Fuzz corpora and generated machines are keyed to this exact sequence, so
the constants are pinned to the published reference algorithm.

SplitMix64 is counter-based (Steele, Lea and Flood, OOPSLA 2014): the k-th
draw from a state s mixes s + k*GAMMA mod 2^64 and nothing else.  So
take() mixes a whole block of draws at once, in one Python int of 128-bit
lanes: lane i holds the counter state of draw i in its low 64 bits, and
each xor-shift and multiply of the mix runs once on the whole int, with a
lane mask (the low 64 bits of every lane) after every step whose result
feeds another.  A product stays inside its lane, because a lane below
2^64 times a constant below 2^64 is below 2^128, so nothing carries into
the lane above; a right shift moves the low bits of the lane above into
the high half of its neighbour, where the mask clears them (after the
last shift, unpacking reads only the low halves).  Each lane therefore
goes through exactly next_u64's arithmetic mod 2^64.
"""
from __future__ import annotations

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block of take(): one block int, and each temporary made from
# it, is 1024 lanes of 16 bytes, 16 KB whatever the count.
BLOCK = 1024


def _to_little(words: array) -> array:
    """The 64-bit words in little-endian byte order, on any host."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _lanes(low_words) -> int:
    """One int whose 128-bit lane i holds low_words[i] in its low half."""
    words = array("Q", bytes(16 * len(low_words)))
    words[::2] = array("Q", low_words)
    return int.from_bytes(_to_little(words).tobytes(), "little")


_ONES = _lanes([1] * BLOCK)               # 1 in every lane
_LANE_MASK = _MASK * _ONES                 # 2^64 - 1 in every lane
_STEPS = _GAMMA * _lanes(range(1, BLOCK + 1))  # (i + 1) * GAMMA in lane i


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant at our sizes."""
        return self.next_u64() % n

    def take(self, count: int) -> list:
        """The next count values of next_u64(), bit for bit, as a list.

        Leaves the state count*GAMMA further on, as count calls would; a
        count of 0 or less draws nothing, as range(count) would.
        Works a block of at most BLOCK draws at a time in the lane form the
        module docstring describes; the lanes are packed and unpacked in
        little-endian order whatever the host's, so the values are exact
        everywhere (it has been run on little-endian hosts only).
        """
        out = []
        s = self._state
        for start in range(0, count, BLOCK):
            n = min(count - start, BLOCK)
            low = (1 << 128 * n) - 1      # the first n lanes
            m = _LANE_MASK & low
            z = (s * (_ONES & low) + (_STEPS & low)) & m
            z = ((z ^ (z >> 30)) & m) * _MIX1 & m
            z = ((z ^ (z >> 27)) & m) * _MIX2 & m
            z ^= z >> 31      # no mask: only each lane's low half is read
            words = array("Q")
            words.frombytes(z.to_bytes(16 * n, "little"))
            out += _to_little(words)[::2].tolist()
            s = (s + n * _GAMMA) & _MASK
        self._state = s
        return out
