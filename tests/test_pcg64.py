"""The pure-Python replica of numpy's default generator draws numpy's
stream, value for value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench.explain.pcg64 import Generator


def _draws(rng, calls):
    """The value of each ("uniform" | "integers", low, high) call."""
    return [float(getattr(rng, name)(low, high)) if name == "uniform"
            else int(getattr(rng, name)(low, high))
            for name, low, high in calls]


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
    assert _draws(Generator(seed), _CALLS) == _KNOWN[seed]


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
    assert _draws(Generator(seed), calls) == \
        _draws(np.random.default_rng(seed), calls)


@pytest.mark.parametrize("call", [
    lambda rng: rng.uniform(-1e308, 1e308),     # the span overflows
    lambda rng: rng.uniform(1.0, 0.0),
    lambda rng: rng.integers(3, 3),
    lambda rng: rng.integers(-2**63 - 1, 0),
    lambda rng: rng.integers(0, 2**63 + 1),
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
