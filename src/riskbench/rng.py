"""`numpy.random.default_rng(seed)` in pure Python: the random generator
of the search and of the counterexample sampler. The simulator keeps
Python's Mersenne Twister (`random.Random(seed)`), because another
generator would change every trace and archive digest.

The stream is numpy's bit for bit, for the draws the package makes:
`random()`, `uniform(low, high)`, `normal(loc, scale)` and
`integers(low, high)`, one value per call. The integer seed is expanded
by numpy's SeedSequence (O'Neill's seed_seq hash mixing, a pool of four
32-bit words) into a 128-bit state and a 128-bit increment for PCG64, a
128-bit linear congruential generator whose output function is XSL-RR
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", HMC-CS-2014-0905).

- A uniform double takes the top 53 bits of one 64-bit output.
- A normal draw is numpy's ziggurat (Marsaglia and Tsang, "The Ziggurat
  Method for Generating Random Variables", J. Stat. Softw. 5, 2000): a
  52-bit fast path, a wedge test through `exp` and a tail through
  `log1p`, over the tables in `ziggurat_tables`.
- A bounded integer follows numpy's branches for int64 by the number of
  values in [low, high): no draw for one, Lemire's multiply-and-reject
  over 32-bit draws for fewer than 2^32 and over 64-bit draws for more
  (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
  2019), and a plain draw for exactly 2^32 or 2^64. A 32-bit draw uses
  half of a 64-bit output and keeps the other half for the next 32-bit
  draw, across calls, as numpy does; a 64-bit draw leaves that half
  waiting. numpy's `integers(low, high, size)` draws as `size` calls do.

No command imports numpy, whose import costs more than the draws of a
whole campaign. The tests compare every draw with numpy's Generator.
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

# The ziggurat's tail: its start r and 1/r (ziggurat_constants.h).
_NOR_R = 3.6541528853610088
_NOR_INV_R = 0.27366123732975828
_M52 = (1 << 52) - 1
_TWO_M53 = 1.0 / (1 << 53)


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
    """The draws of `numpy.random.default_rng(seed)` that the package
    makes, with a state that can be read and set."""

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
        self._tables = None        # (fi, wi, ki), read on the first normal

    @property
    def state(self) -> tuple:
        """(128-bit state, 128-bit increment, waiting 32-bit half or None):
        all that the next draws depend on."""
        return self._state, self._inc, self._half

    @state.setter
    def state(self, value: tuple) -> None:
        self._state, self._inc, self._half = value

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

    def random(self) -> float:
        """A float in [0, 1): `Generator.random()`."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low, high) -> float:
        """A float in [low, high): `Generator.uniform(low, high)`."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("rng < 0")
        return low + span * self.random()

    def normal(self, loc=0.0, scale=1.0) -> float:
        """A normal float: `Generator.normal(loc, scale)`, which is
        loc + scale * z for a standard normal z."""
        loc, scale = float(loc), float(scale)
        if math.copysign(1.0, scale) < 0.0 and not math.isnan(scale):
            raise ValueError("scale < 0")
        return loc + scale * self._standard_normal()

    def _standard_normal(self) -> float:
        """numpy's `random_standard_normal`, step for step."""
        if self._tables is None:
            from .ziggurat_tables import FI, KI, WI
            self._tables = FI, WI, KI
        fi, wi, ki = self._tables
        while True:
            # 8 bits of layer, a sign bit and 52 bits of magnitude.
            word = self._next64()
            layer = word & 0xFF
            word >>= 8
            magnitude = word >> 1 & _M52
            x = magnitude * wi[layer]
            if word & 1:
                x = -x
            if magnitude < ki[layer]:
                return x            # inside the layer's rectangle
            if layer == 0:
                # The tail beyond r; 1 - U keeps log1p away from log(0).
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return (-(_NOR_R + xx) if magnitude >> 8 & 1
                                else _NOR_R + xx)
            elif ((fi[layer - 1] - fi[layer]) * self.random() + fi[layer]
                    < math.exp(-0.5 * x * x)):
                return x            # inside the wedge under the density

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
