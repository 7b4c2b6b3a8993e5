"""numpy's ``default_rng(seed).random()`` in the standard library, bit for bit, and bellsim's one
seed rule (a non-negative int or numpy integer, not ``bool``, else ConfigError). ``SeedSequence``
seeds the 128-bit LCG of PCG64 (O'Neill, HMC-CS-2014-0905); each draw is its XSL-RR output."""

import math

from .errors import ConfigError, is_int

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PCG64:
    """Draws ``random()`` as ``numpy.random.default_rng(seed).random()`` does."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        if not is_int(seed, 0, math.inf):
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        seed = int(seed)  # a numpy integer seeds as its value
        words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
        hash_a = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_a
            value ^= hash_a
            hash_a = hash_a * 0x931E8875 & _M32
            value = value * hash_a & _M32
            return value ^ value >> 16

        def mix(x: int, word: int) -> int:  # SeedSequence's mix(x, hashmix(word))
            value = 0xCA01F9DD * x - 0x4973F715 * hashmix(word) & _M32
            return value ^ value >> 16

        pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], pool[src])
        for word in words[4:]:
            pool = [mix(x, word) for x in pool]
        hash_b, state = 0x8B51F9DD, 0
        for i in range(8):  # generate_state: eight 32-bit words, little end first
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * 0x58F38DED & _M32
            value = value * hash_b & _M32
            state |= (value ^ value >> 16) << 32 * (i ^ 6)  # as 64-bit words (hi, lo, hi, lo)
        self._inc = (state & _M128) << 1 & _M128 | 1
        self._state = ((self._inc + (state >> 128)) * _MULT + self._inc) & _M128

    def random(self) -> float:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        word = (s >> 64 ^ s) & _M64
        return ((word << 64 | word) >> (s >> 122) + 11 & 2**53 - 1) * (1.0 / 2**53)
