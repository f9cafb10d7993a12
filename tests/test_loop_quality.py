"""The loop's quality on planted hazards whose truth is known
(`tests/planted.py`): what holds today, seed by seed.

Random search over 400 evaluations recovers the box and the oblique slab
with recall >= 0.8 in at least 9 of 10 seeds. The two disjoint boxes and
the rare box are not gated: random search's recall on them falls below
0.8 in more than one seed (`python tests/planted.py` prints the table).
"""

import pytest

from planted import SEEDS, explain_loop, score


@pytest.mark.parametrize("hazard", ["box", "slab"])
def test_random_search_recovers_the_hazard(hazard):
    recalls = [score(hazard, explain_loop(hazard, "random", seed))[0]
               for seed in SEEDS]
    assert sum(recall >= 0.8 for recall in recalls) >= 9, recalls
