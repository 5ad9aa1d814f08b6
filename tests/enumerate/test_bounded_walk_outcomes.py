"""Pinned cut accounting of the python branch-and-bound walk.

Under ``prune="bounds"`` the counters are a function of the walk's visit
order, so the backend-equivalence suites only compare optima there.  This
table pins the python walk's complete :class:`SearchOutcome` (optimum and
every counter, ``bound_cuts``/``bound_evaluations``/``testability_cuts``
included) on seeded discrete and continuous instances, with and without a
:class:`SearchTestability`, at ``min_size`` 1 (singles seed the incumbent)
and 3 (no singles seeding).  A refactor of the walk that changes which
branches it cuts, or in which order, fails here.
"""

from __future__ import annotations

import random

import pytest

from repro.enumerate.accumulators import ContinuousAccumulator, DiscreteAccumulator
from repro.enumerate.bitset import BitsetGraph
from repro.enumerate.search import (
    SearchOutcome,
    SearchTestability,
    exhaustive_best_mask,
)
from repro.graph.generators import gnp_random_graph

pytestmark = pytest.mark.bounds

TESTABILITY = {
    "none": None,
    # Mass-frontier cuts only: the floor never beats the singles seed.
    "mass": SearchTestability(min_mass=12, statistic_floor=0.0),
    # A statistic floor above most singles: seeds the incumbent threshold.
    "floor": SearchTestability(min_mass=5, statistic_floor=9.0),
}


def _instance(kind: str, seed: int):
    """A 13-vertex G(n, p) with multi-vertex payloads, like a super-graph."""
    adjacency = BitsetGraph(gnp_random_graph(13, 0.3, seed=seed)).adjacency
    rng = random.Random(seed)
    n = len(adjacency)
    if kind == "discrete":
        payloads = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(n)]
        payloads = [p if sum(p) else (1, 0, 0) for p in payloads]
        return adjacency, DiscreteAccumulator((0.5, 0.25, 0.25), payloads)
    payloads = []
    for _ in range(n):
        size = rng.randint(1, 3)
        payloads.append(
            ((rng.gauss(0, 1) * size, rng.gauss(0.3, 1) * size), size)
        )
    return adjacency, ContinuousAccumulator(payloads)


# (kind, seed, min_size, testability, mask, chi_square.hex(), explored,
#  pruned_size_cap, frontier_exhausted, evaluated, bound_cuts,
#  bound_evaluations, testability_cuts)
OUTCOMES = [
    ("discrete", 0, 1, "none", 0x16e, "0x1.d435e50d79434p+2", 341, 0, 78, 341, 263, 591, 0),
    ("discrete", 0, 1, "mass", 0x16e, "0x1.d435e50d79434p+2", 337, 0, 70, 337, 260, 584, 7),
    ("discrete", 0, 1, "floor", 0x16e, "0x1.d435e50d79434p+2", 217, 0, 32, 217, 185, 389, 0),
    ("discrete", 0, 3, "none", 0x16e, "0x1.d435e50d79434p+2", 367, 0, 102, 341, 265, 615, 0),
    ("discrete", 0, 3, "mass", 0x16e, "0x1.d435e50d79434p+2", 364, 0, 96, 338, 263, 612, 5),
    ("discrete", 0, 3, "floor", 0x16e, "0x1.d435e50d79434p+2", 216, 0, 30, 190, 186, 387, 0),
    ("discrete", 1, 1, "none", 0x1e96, "0x1.4800000000000p+3", 1320, 0, 589, 1320, 731, 2038, 0),
    ("discrete", 1, 1, "mass", 0x1e96, "0x1.4800000000000p+3", 1320, 0, 589, 1320, 716, 2023, 15),
    ("discrete", 1, 1, "floor", 0x1e96, "0x1.4800000000000p+3", 840, 0, 254, 840, 586, 1413, 0),
    ("discrete", 1, 3, "none", 0x1e96, "0x1.4800000000000p+3", 1427, 1, 714, 1395, 712, 2122, 0),
    ("discrete", 1, 3, "mass", 0x1e96, "0x1.4800000000000p+3", 1427, 1, 714, 1395, 699, 2111, 13),
    ("discrete", 1, 3, "floor", 0x1e96, "0x1.4800000000000p+3", 840, 0, 254, 808, 586, 1411, 0),
    ("discrete", 2, 1, "none", 0x6f4, "0x1.2000000000000p+3", 469, 1, 248, 469, 220, 676, 0),
    ("discrete", 2, 1, "mass", 0x6f4, "0x1.2000000000000p+3", 469, 1, 248, 469, 215, 671, 5),
    ("discrete", 2, 1, "floor", 0x6f4, "0x1.2000000000000p+3", 370, 0, 171, 370, 199, 556, 0),
    ("discrete", 2, 3, "none", 0x6f4, "0x1.2000000000000p+3", 469, 1, 248, 444, 220, 672, 0),
    ("discrete", 2, 3, "mass", 0x6f4, "0x1.2000000000000p+3", 469, 1, 248, 444, 217, 671, 3),
    ("discrete", 2, 3, "floor", 0x6f4, "0x1.2000000000000p+3", 370, 0, 171, 345, 199, 554, 0),
    ("continuous", 0, 1, "none", 0x4cc, "0x1.0e7c68d310173p+4", 830, 0, 476, 830, 354, 1171, 0),
    ("continuous", 0, 1, "mass", 0x5c6, "0x1.017a52747d9f5p+4", 758, 0, 389, 758, 273, 1018, 96),
    ("continuous", 0, 1, "floor", 0x4cc, "0x1.0e7c68d310173p+4", 829, 0, 474, 829, 354, 1170, 1),
    ("continuous", 0, 3, "none", 0x4cc, "0x1.0e7c68d310173p+4", 862, 0, 534, 833, 328, 1172, 0),
    ("continuous", 0, 3, "mass", 0x5c6, "0x1.017a52747d9f5p+4", 790, 0, 447, 766, 249, 1024, 94),
    ("continuous", 0, 3, "floor", 0x4cc, "0x1.0e7c68d310173p+4", 862, 0, 534, 833, 328, 1174, 0),
    ("continuous", 1, 1, "none", 0x1617, "0x1.e200f9efd390bp+3", 1489, 0, 732, 1489, 757, 2233, 0),
    ("continuous", 1, 1, "mass", 0x1617, "0x1.e200f9efd390bp+3", 1405, 0, 632, 1405, 588, 1980, 185),
    ("continuous", 1, 1, "floor", 0x1617, "0x1.e200f9efd390bp+3", 1488, 0, 730, 1488, 755, 2230, 3),
    ("continuous", 1, 3, "none", 0x1617, "0x1.e200f9efd3907p+3", 1503, 1, 741, 1470, 761, 2246, 0),
    ("continuous", 1, 3, "mass", 0x1617, "0x1.e200f9efd3907p+3", 1421, 1, 645, 1392, 592, 1998, 183),
    ("continuous", 1, 3, "floor", 0x1617, "0x1.e200f9efd3907p+3", 1503, 1, 741, 1470, 760, 2247, 1),
    ("continuous", 2, 1, "none", 0x19d4, "0x1.105ab579cc032p+6", 702, 1, 520, 702, 181, 870, 0),
    ("continuous", 2, 1, "mass", 0x19d4, "0x1.105ab579cc032p+6", 671, 1, 480, 671, 163, 821, 27),
    ("continuous", 2, 1, "floor", 0x19d4, "0x1.105ab579cc032p+6", 702, 1, 520, 702, 180, 869, 1),
    ("continuous", 2, 3, "none", 0x19d4, "0x1.105ab579cc032p+6", 701, 1, 518, 677, 182, 867, 0),
    ("continuous", 2, 3, "mass", 0x19d4, "0x1.105ab579cc032p+6", 671, 1, 480, 650, 164, 821, 26),
    ("continuous", 2, 3, "floor", 0x19d4, "0x1.105ab579cc032p+6", 701, 1, 518, 677, 181, 868, 1),
]


@pytest.mark.parametrize(
    "row", OUTCOMES, ids=[f"{r[0]}-{r[1]}-min{r[2]}-{r[3]}" for r in OUTCOMES]
)
def test_bounded_python_walk_outcome_is_pinned(row):
    kind, seed, min_size, testability, mask, chi_hex, *counters = row
    adjacency, accumulator = _instance(kind, seed)
    outcome = exhaustive_best_mask(
        adjacency, accumulator, prune="bounds", backend="python",
        min_size=min_size, testability=TESTABILITY[testability],
    )
    explored, size_cap, exhausted, evaluated, cuts, evaluations, tcuts = counters
    assert outcome == SearchOutcome(
        mask=mask,
        chi_square=float.fromhex(chi_hex),
        explored=explored,
        pruned_size_cap=size_cap,
        frontier_exhausted=exhausted,
        evaluated=evaluated,
        bound_cuts=cuts,
        bound_evaluations=evaluations,
        testability_cuts=tcuts,
    )
