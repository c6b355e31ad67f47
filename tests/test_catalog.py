"""The reflections each catalog entry declares, against samples of its function."""

import numpy as np
import pytest

from heisgame.catalog import make_hamiltonian, make_running_cost, make_terminal
from heisgame.game import REFLECTIONS
from heisgame.heis import Box, ball_points
from heisgame.scenario import parse_scenario

BOX = Box([-4, -4, -8], [4, 4, 8])
N_SAMPLES = 1000

# (name, params) on both sides of every zero test
TERMINALS = [
    ("gauge", None),
    ("euclidean-norm-squared-truncated", None),
    ("euclidean-norm-squared-truncated", {"cap": 5.0}),
    ("affine", None),
    ("affine", {"a": [0.0, 1.0, 0.0]}),
    ("affine", {"a": [0.0, 0.0, 1.0]}),
    ("affine", {"a": [1.0, -1.0, 0.0], "b": 2.0}),
    ("affine", {"a": [0.0, 0.0, 0.0], "b": 2.0}),
    ("constant", {"value": 1.5}),
]
HAMILTONIANS = [
    ("norm", None),
    ("component", None),
    ("constant", {"value": 0.8}),
    ("shifted-norm", None),
    ("shifted-norm", {"shift": [0.5, 0.0], "offset": 0.25}),
    ("shifted-norm", {"shift": [0.0, 0.5]}),
    ("shifted-norm", {"shift": [0.5, -0.5]}),
]
RUNNING_COSTS = [
    ("coupling", None),
    ("constant", {"value": 0.75}),
    ("custom-affine", {"a0": 0.25, "ay": [0.5, -0.25], "az": [0.3, 0.2]}),
    ("custom-affine", {"ay": [0.5, 0.0], "az": [0.3, 0.0]}),
    ("custom-affine", {"ay": [0.5, 0.0], "az": [0.0, 0.2]}),
    ("custom-affine", {"ay": [0.0, -0.25], "az": [0.0, 0.2]}),
    ("custom-affine", {"ay": [0.0, -0.25], "az": [0.3, 0.0]}),
    ("custom-affine", {"a0": 1.0}),
]


def samples(seed):
    rng = np.random.default_rng(seed)
    return (rng.random(N_SAMPLES), BOX.sample(N_SAMPLES, rng),
            ball_points(rng, 2.0, (N_SAMPLES,)), ball_points(rng, 2.0, (N_SAMPLES,)))


def moved(values, mirrored):
    """Sampled |f - f o reflection|, relative to 1 + |f|."""
    values, mirrored = np.asarray(values, dtype=float), np.asarray(mirrored, dtype=float)
    return np.abs(values - mirrored) / (1 + np.abs(values))


def check_declaration(declared, gaps):
    assert declared <= set(REFLECTIONS)
    for name, gap in gaps.items():
        if name in declared:
            assert gap.max() <= 1e-12, name
        else:
            assert gap.max() > 1e-6, f"{name} holds but is not declared"


def flips(name):
    flip = np.array(REFLECTIONS[name])
    return flip, np.append(flip, -1.0)


@pytest.mark.parametrize("name,params", TERMINALS)
def test_terminal_declarations(name, params):
    term = make_terminal(name, params, BOX)
    _, x, _, _ = samples(0)
    check_declaration(term.reflections, {
        r: moved(term.fn(x), term.fn(x * flips(r)[1])) for r in REFLECTIONS})


@pytest.mark.parametrize("name,params", HAMILTONIANS)
def test_hamiltonian_declarations(name, params):
    ham = make_hamiltonian(name, params)
    t, x, y, _ = samples(1)
    gaps = {}
    for r in REFLECTIONS:
        flip, point_flip = flips(r)
        gaps[r] = moved(ham.fn(t, x, y), ham.fn(t, x * point_flip, y * flip))
    check_declaration(ham.reflections, gaps)


@pytest.mark.parametrize("name,params", RUNNING_COSTS)
def test_running_cost_declarations(name, params):
    cost = make_running_cost(name, params)
    t, x, y, z = samples(2)
    gaps = {}
    for r in REFLECTIONS:
        flip, point_flip = flips(r)
        gaps[r] = np.array([
            moved(cost.fn(t[i], x[i], y[i], z[i]),
                  cost.fn(t[i], x[i] * point_flip, y[i] * flip, z[i] * flip))
            for i in range(N_SAMPLES)])
    check_declaration(cost.reflections, gaps)


def test_scenario_game_declares_the_common_reflections():
    base = {"schema": 1, "horizon": 1.0, "time_steps": 2,
            "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": [9, 9, 17]}}
    hji = parse_scenario(dict(base, kind="hji", hamiltonian={"name": "component"},
                              initial={"name": "affine", "params": {"a": [0, 1, 0]}}))
    assert hji.game.reflections == ()
    hji = parse_scenario(dict(base, kind="hji", hamiltonian={"name": "component"},
                              initial={"name": "gauge"}))
    assert hji.game.reflections == ("x2",)
    game = parse_scenario(dict(
        base, kind="game", radii={"r_y": 1.0, "r_z": 1.0},
        running_cost={"name": "custom-affine", "params": {"ay": [0.0, 1.0]}},
        terminal={"name": "constant"}))
    assert game.game.reflections == ("x1",)


# each running cost's README formula, written out here, as a reference
# independent of the catalog's separable form
README_FORMULAS = {
    "coupling": lambda p, t, x, y, z: z @ y - np.hypot(*y),
    "constant": lambda p, t, x, y, z: p.get("value", 0.0),
    "custom-affine": lambda p, t, x, y, z: (p.get("a0", 0.0) + np.dot(p.get("ay", [0, 0]), y)
                                            + np.dot(p.get("az", [0, 0]), z)),
}


@pytest.mark.parametrize("name,params", RUNNING_COSTS)
def test_running_cost_matches_readme_formula(name, params):
    cost = make_running_cost(name, params)
    t, x, y, z = samples(3)
    for i in range(0, N_SAMPLES, 10):
        want = README_FORMULAS[name](params or {}, t[i], x[i:i + 3], y[i], z[i])
        got = np.asarray(cost.fn(t[i], x[i:i + 3], y[i], z[i]), dtype=float)
        assert np.abs(got - want).max() <= 1e-12 * (1 + abs(want)), (name, i)
