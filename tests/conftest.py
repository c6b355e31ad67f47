import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _util import DEFAULT_BOX, canonical_problem

from heisgame.game import backward_induction, make_lattice

BASELINE_COUNTS = (33, 33, 65)
BASELINE_STEPS = 20


@pytest.fixture(scope="session")
def canonical():
    problem, spec = canonical_problem()
    return problem, spec


@pytest.fixture(scope="session")
def baseline_lattices(canonical):
    _, spec = canonical
    return make_lattice(spec.r_y, 4, 8), make_lattice(spec.r_z, 4, 8)


@pytest.fixture(scope="session")
def baseline_solution(canonical, baseline_lattices):
    """Game-time lower value of the canonical scenario at full resolution."""
    _, spec = canonical
    y_lat, z_lat = baseline_lattices
    t0 = time.monotonic()
    value = backward_induction(spec, DEFAULT_BOX, BASELINE_COUNTS, BASELINE_STEPS,
                               y_lat, z_lat)
    return SimpleNamespace(value=value, seconds=time.monotonic() - t0)


@pytest.fixture(scope="session")
def ladder_solutions(canonical, baseline_solution):
    """Three refinement levels; the finest is the shared baseline."""
    _, spec = canonical
    levels = [((9, 9, 17), 5, 1), ((17, 17, 33), 10, 2)]
    out = []
    for counts, n_steps, rings in levels:
        y_lat = make_lattice(spec.r_y, rings, 8)
        z_lat = make_lattice(spec.r_z, rings, 8)
        out.append(backward_induction(spec, DEFAULT_BOX, counts, n_steps, y_lat, z_lat))
    out.append(baseline_solution.value)
    return out
