"""The package's generator draws numpy's default generator's stream,
value for value."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import rng as rng_module
from riskbench.rng import Generator
from riskbench.ziggurat_tables import FI, KI, WI


def _state(rng) -> tuple:
    """A numpy Generator's state, in the form `Generator.state` takes."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


def _play(rng, calls) -> list:
    """Make each call on a Generator of either kind, and return what each
    one gives: a number, or at a "save" the state, in one form for both.
    A "restore" goes back to the last saved state."""
    ours = isinstance(rng, Generator)
    out, saved = [], None
    for name, *args in calls:
        if name == "save":
            saved = rng.state if ours else rng.bit_generator.state
            out.append(rng.state if ours else _state(rng))
        elif name == "restore":
            if saved is not None:
                if ours:
                    rng.state = saved
                else:
                    rng.bit_generator.state = saved
        else:
            value = getattr(rng, name)(*args)
            out.append(int(value) if name == "integers" else float(value))
    return out


# Frozen from numpy 2.4.6: a uniform double, a small and a 2^54-wide
# integer span, a span of 2^32 values (whole 32-bit draws) and a shifted
# uniform; the last seed takes four 32-bit words of entropy.
_CALLS = [("uniform", 0.0, 1.0), ("integers", 0, 10),
          ("integers", -2**53, 2**53 + 1), ("integers", 5, 5 + 2**32),
          ("uniform", -3.0, 2.0)]
_KNOWN = {
    0: [0.6369616873214543, 5, -8269085866216582, 1158725117,
        -2.9173618223573543],
    7: [0.625095466604667, 6, 4966311887438527, 3853503937,
        -1.8739640500470407],
    2**100 + 3: [0.778146097746641, 6, -4846653272517449, 420163228,
                 0.27763094742856653],
}


@pytest.mark.parametrize("seed", _KNOWN)
def test_known_answers(seed):
    assert _play(Generator(seed), _CALLS) == _KNOWN[seed]


# Spans (high - low) on each side of every branch numpy takes: no draw,
# 32-bit Lemire, whole 32-bit draws, 64-bit Lemire.
_EDGE_SPANS = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**53, 2**54]

_integers = st.tuples(
    st.just("integers"), st.integers(min_value=-2**53, max_value=2**53),
    st.one_of(st.sampled_from(_EDGE_SPANS),
              st.integers(min_value=1, max_value=2**54))
).map(lambda c: (c[0], c[1], c[1] + c[2]))
_uniforms = st.tuples(
    st.just("uniform"), st.floats(min_value=-1e6, max_value=1e6),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))
).map(lambda c: (c[0], c[1], c[1] + c[2]))


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=2**128),
       calls=st.lists(st.one_of(
           _integers, _uniforms,
           st.just(("integers", -2**63, 2**63))),   # whole 64-bit draws
           max_size=40))
def test_any_call_sequence_matches_numpy(seed, calls):
    # Mixed calls carry the waiting half of a 64-bit draw from one 32-bit
    # draw to the next, across 64-bit ones in between.
    assert _play(Generator(seed), calls) == \
        _play(np.random.default_rng(seed), calls)


@pytest.mark.parametrize("call", [
    lambda rng: rng.uniform(-1e308, 1e308),     # the span overflows
    lambda rng: rng.uniform(1.0, 0.0),
    lambda rng: rng.integers(3, 3),
    lambda rng: rng.integers(-2**63 - 1, 0),
    lambda rng: rng.integers(0, 2**63 + 1),
    lambda rng: rng.normal(0.0, -1.0),
    lambda rng: rng.normal(0.0, -0.0),      # numpy tests the sign bit
])
def test_bad_bounds_raise_as_numpy_does(call):
    with pytest.raises(Exception) as numpy_error:
        call(np.random.default_rng(0))
    with pytest.raises(numpy_error.type):
        call(Generator(0))


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


_normals = st.tuples(
    st.just("normal"), st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6))


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=2**128),
       calls=st.lists(st.one_of(
           st.just(("random",)), _normals, _integers, _uniforms,
           st.just(("save",)), st.just(("restore",))), max_size=60))
def test_mixed_draws_and_state_round_trips_match_numpy(seed, calls):
    # A restore also brings back the waiting half of a 64-bit draw, so a
    # 32-bit draw after it takes the same half as it did the first time.
    assert _play(Generator(seed), calls) == \
        _play(np.random.default_rng(seed), calls)


def test_a_state_set_on_a_fresh_generator_resumes_the_stream():
    first = Generator(5)
    first.integers(0, 10)               # leaves a 32-bit half waiting
    second = Generator(0)
    second.state = first.state
    calls = [("integers", 0, 10), ("normal", 0.0, 1.0), ("random",)] * 20
    assert _play(second, calls) == _play(first, calls)


# The sha256 of the three tables, little-endian, fi then wi then ki: the
# bytes of numpy 2.4.6's compiled `_generator` module that they were read
# from.
_TABLES_SHA256 = \
    "e3811c133c6e61093d15d9a7c4dc37d055d79937a0084872fdde0905da48cd1c"


def test_the_ziggurat_tables_are_numpys():
    packed = struct.pack("<256d", *FI) + struct.pack("<256d", *WI) + \
        struct.pack("<256Q", *KI)
    assert hashlib.sha256(packed).hexdigest() == _TABLES_SHA256
    assert (FI[0], WI[0], KI[0], KI[1]) == \
        (1.0, 8.683627060801306e-16, 0x000EF33D8025EF6A, 0)


def test_a_million_normals_match_numpy_through_every_branch():
    # Past the fast path a draw takes a uniform: once for the wedge test,
    # twice per try in the tail beyond r, which only the tail returns.
    seeds, n = range(4), 250_000
    wedge_or_tail, tail = 0, 0
    for seed in seeds:
        rng = Generator(seed)
        uniforms = []
        rng.random = lambda draw=rng.random: uniforms.append(0) or draw()
        ours = [rng.normal() for _ in range(n)]
        assert ours == np.random.default_rng(seed).standard_normal(n).tolist()
        wedge_or_tail += len(uniforms)
        tail += sum(abs(z) > rng_module._NOR_R for z in ours)
    assert wedge_or_tail > 1000 and tail > 10
