"""The README's quick tour runs as written, and its commented claims hold."""

import re
import warnings
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_the_quick_tour_runs_and_its_claims_hold():
    tour = _quick_tour()
    for claim in (
        "projector_fix(R).apply([1.0, 2.0, 3.0])    # -> [2., 2., 2.]",
        "solution.basis                             # (1, 3) array",
        "lipschitz_estimate(resolvent_inverse(R, 2.0))   # == 2 / (2 + gamma) at most",
    ):
        assert claim in tour
    names: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(tour, str(README), "exec"), names)
        R = names["R"]
        np.testing.assert_array_equal(names["projector_fix"](R).apply([1.0, 2.0, 3.0]), [2, 2, 2])
        assert names["solution"].basis.shape == (1, 3)
        norm = names["lipschitz_estimate"](names["resolvent_inverse"](R, 2.0))
    assert norm <= 2 / (2 + 2.0)
