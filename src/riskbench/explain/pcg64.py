"""`numpy.random.default_rng(seed)` in pure Python, for the two draws that
counterexample sampling makes: `uniform(low, high)` and `integers(low,
high)`.

The stream is numpy's bit for bit. The integer seed is expanded by
numpy's SeedSequence (O'Neill's seed_seq hash mixing, a pool of four
32-bit words) into a 128-bit state and a 128-bit increment for PCG64, a
128-bit linear congruential generator whose output function is XSL-RR
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", HMC-CS-2014-0905). A
uniform double takes the top 53 bits of one 64-bit output. A bounded
integer follows numpy's branches for int64 by the number of values in
[low, high): no draw for one, Lemire's multiply-and-reject over 32-bit
draws for fewer than 2^32 and over 64-bit draws for more (Lemire, "Fast
Random Integer Generation in an Interval", ACM TOMACS 2019), and a plain
draw for exactly 2^32 or 2^64. A 32-bit draw uses half of a 64-bit
output and keeps the other half for the next 32-bit draw, across calls,
as numpy does; a 64-bit draw leaves that half waiting.

`explain` uses this so that it never imports numpy, whose import costs
more than the whole sampling. The tests compare it with numpy's
Generator.
"""

from __future__ import annotations

import math

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# numpy/random/bit_generator.pyx (SeedSequence).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG_DEFAULT_MULTIPLIER_128.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> tuple:
    """(initial state, stream) of PCG64 from SeedSequence(seed)."""
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired low word first.
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    s = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return s[0] << 64 | s[1], s[2] << 64 | s[3]


class Generator:
    """The draws of `numpy.random.default_rng(seed)` that sampling uses."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        initstate, initseq = _seed_state(seed)
        # pcg_setseq_128_srandom_r: from state 0, step, add the initial
        # state, step.
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (self._inc + initstate) & _M128
        self._step()
        self._half = None          # the waiting upper half of a 64-bit draw

    def _step(self):
        self._state = (self._state * _MULTIPLIER + self._inc) & _M128

    def _next64(self) -> int:
        self._step()
        state = self._state
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (word >> rot | word << (-rot & 63)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def uniform(self, low, high) -> float:
        """A float in [low, high): `Generator.uniform(low, high)`."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("rng < 0")
        return low + span * ((self._next64() >> 11) * (1.0 / (1 << 53)))

    def integers(self, low, high) -> int:
        """An int in [low, high): `Generator.integers(low, high)`."""
        low, high = int(low), int(high) - 1
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            raise ValueError("low >= high")
        last = high - low               # the largest offset from low
        if last == 0:
            return low
        if last == _M32:
            return low + self._next32()
        if last == _M64:
            return low + self._next64()
        if last < _M32:
            bits, mask, draw = 32, _M32, self._next32
        else:
            bits, mask, draw = 64, _M64, self._next64
        count = last + 1
        product = draw() * count
        if product & mask < count:
            threshold = (mask - last) % count
            while product & mask < threshold:
                product = draw() * count
        return low + (product >> bits)
