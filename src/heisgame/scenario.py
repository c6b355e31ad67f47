"""Scenario files: a versioned JSON schema describing one run.

A scenario fixes the problem (game or initial-value form), the spatial
grid, the time discretization, the control lattices, and the seed for
every randomized check, so reruns are bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .heis import Box
from .catalog import (
    make_hamiltonian,
    make_running_cost,
    make_terminal,
)
from .game import GameSpec, make_lattice
from .hji import HjiProblem, build_game, derived_radii

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario"]

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Invalid scenario content; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"scenario field '{field_name}': {message}")


@dataclass
class Scenario:
    kind: str
    horizon: float
    box: Box
    counts: tuple[int, int, int]
    n_steps: int
    lattice_y: tuple[int, int]  # (rings, base_angles)
    lattice_z: tuple[int, int]
    seed: int
    outputs: str | None
    game: GameSpec
    problem: HjiProblem | None
    meta: dict
    verify: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def make_lattices(self):
        y = make_lattice(self.game.r_y, *self.lattice_y)
        z = make_lattice(self.game.r_z, *self.lattice_z)
        return y, z


def _need(data: dict, key: str, kind, where: str = ""):
    name = f"{where}.{key}" if where else key
    if key not in data:
        raise ScenarioError(name, "missing required field")
    value = data[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(float(value)):
            raise ScenarioError(name, f"must be a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(name, f"must be an integer, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ScenarioError(name, f"must be an object, got {type(value).__name__}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ScenarioError(name, f"must be a string, got {value!r}")
        return value
    raise AssertionError(kind)


# the vertical axis needs extra room for the worst-case drift of the
# third coordinate, hence the tall default box
DEFAULT_GRID = {"box": [[-4.0, 4.0], [-4.0, 4.0], [-8.0, 8.0]],
                "counts": [33, 33, 65]}


def _grid_counts(counts, name: str) -> tuple[int, int, int]:
    if (not isinstance(counts, (list, tuple)) or len(counts) != 3
            or not all(isinstance(c, int) and not isinstance(c, bool) and c >= 2
                       for c in counts)):
        raise ScenarioError(name, "must be three integers >= 2")
    return tuple(counts)


def _parse_grid(data: dict) -> tuple[Box, tuple[int, int, int]]:
    grid = data.get("grid", DEFAULT_GRID)
    if not isinstance(grid, dict):
        raise ScenarioError("grid", "must be an object")
    grid = {**DEFAULT_GRID, **grid}
    try:
        raw = np.asarray(grid["box"], dtype=float)
        if raw.shape != (3, 2):
            raise ValueError
        box = Box(raw[:, 0], raw[:, 1])
    except ValueError:
        raise ScenarioError(
            "grid.box", "must be three [lo, hi] pairs with lo < hi"
        ) from None
    return box, _grid_counts(grid["counts"], "grid.counts")


# sample counts of the verify battery, each overridable in the scenario's
# ``verify`` section; the manifest records the values in effect
SAMPLE_DEFAULTS = {
    "group_samples": 10_000,
    "flow_controls": 200,
    "reach_instances": 2000,
    "translation_instances": 2000,
    "shift_instances": 300,
    "dpp_probes": 48,
    "identity_probes": 1000,
    "isaacs_probes": 200,
    "random_pairs": 20_000,
}

# the least value of each integer of the ``verify`` section; a sample count
# below it would let its check pass without testing anything
_VERIFY_MINIMUMS = {**dict.fromkeys([*SAMPLE_DEFAULTS, "oracle_nodes", "max_nodes",
                                     "convexity_directions"], 1), "convexity_probes": 3}


def _parse_verify(data: dict) -> dict:
    cfg = data.get("verify", {})
    if not isinstance(cfg, dict):
        raise ScenarioError("verify", "must be an object")
    for key, least in _VERIFY_MINIMUMS.items():
        value = cfg.get(key, least)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ScenarioError(f"verify.{key}", f"must be an integer >= {least}, got {value!r}")
    if "oracle_counts" in cfg:
        _grid_counts(cfg["oracle_counts"], "verify.oracle_counts")
    return cfg


def _parse_lattice(data: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    lat = data.get("lattice", {"rings": 4, "base_angles": 8})
    if not isinstance(lat, dict):
        raise ScenarioError("lattice", "must be an object")

    def one(cfg: dict, where: str) -> tuple[int, int]:
        rings = cfg.get("rings", 4)
        base = cfg.get("base_angles", 8)
        if not isinstance(rings, int) or rings < 1:
            raise ScenarioError(f"{where}.rings", "must be an integer >= 1")
        if not isinstance(base, int) or base < 4:
            raise ScenarioError(f"{where}.base_angles", "must be an integer >= 4")
        return rings, base

    if "y" in lat or "z" in lat:
        return one(lat.get("y", {}), "lattice.y"), one(lat.get("z", {}), "lattice.z")
    cfg = one(lat, "lattice")
    return cfg, cfg


def _named_fn(data: dict, key: str) -> tuple[str, dict]:
    entry = _need(data, key, dict)
    name = _need(entry, "name", str, key)
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{key}.params", "must be an object")
    return name, params


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"expected version {SCHEMA_VERSION}, got {schema!r}")
    kind = _need(data, "kind", str)
    if kind not in ("game", "hji"):
        raise ScenarioError("kind", f"must be 'game' or 'hji', got {kind!r}")
    horizon = _need(data, "horizon", float)
    if horizon <= 0:
        raise ScenarioError("horizon", f"the horizon T must be positive, got {horizon}")
    box, counts = _parse_grid(data)
    n_steps = _need(data, "time_steps", int)
    if n_steps < 1:
        raise ScenarioError("time_steps", "must be an integer >= 1")
    lat_y, lat_z = _parse_lattice(data)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("seed", f"must be an integer, got {seed!r}")
    outputs = data.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ScenarioError("outputs", "must be a string path")
    overrides = data.get("constants", {})
    if not isinstance(overrides, dict):
        raise ScenarioError("constants", "must be an object")
    verify_cfg = _parse_verify(data)

    def override(name, value):
        if name not in overrides:
            return value
        v = overrides[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(float(v)):
            raise ScenarioError(f"constants.{name}", f"must be a finite number, got {v!r}")
        return float(v)

    meta: dict = {"kind": kind}
    if kind == "hji":
        ham_name, ham_params = _named_fn(data, "hamiltonian")
        init_name, init_params = _named_fn(data, "initial")
        try:
            ham = make_hamiltonian(ham_name, ham_params)
        except KeyError as e:
            raise ScenarioError("hamiltonian", str(e)) from None
        try:
            init = make_terminal(init_name, init_params, box)
        except KeyError as e:
            raise ScenarioError("initial", str(e)) from None
        lip_y = override("k", ham.lip_y)
        d1p = override("d1p", ham.d1p)
        c2 = override("c2", init.c2)
        c2p = override("c2p", init.c2p)
        # d1 may depend on the y-radius, which only needs (T, k, d1p, c2p)
        r_y, _ = derived_radii(horizon, lip_y, d1p, c2p)
        d1 = override("d1", ham.d1_of_radius(r_y))
        problem = HjiProblem(horizon, ham.fn, init.fn, d1, d1p, lip_y, c2, c2p,
                             reflections=tuple(sorted(ham.reflections & init.reflections)))
        game = build_game(problem)
        meta.update(
            hamiltonian={"name": ham_name, "params": ham_params},
            initial={"name": init_name, "params": init_params,
                     "h_convex": init.h_convex},
            constants={"d1": d1, "d1p": d1p, "k": lip_y, "c2": c2, "c2p": c2p},
        )
    else:
        radii = _need(data, "radii", dict)
        r_y = _need(radii, "r_y", float, "radii")
        r_z = _need(radii, "r_z", float, "radii")
        if r_y < 0 or r_z < 0:
            raise ScenarioError("radii", "control radii must be nonnegative")
        cost_name, cost_params = _named_fn(data, "running_cost")
        term_name, term_params = _named_fn(data, "terminal")
        try:
            cost = make_running_cost(cost_name, cost_params)
        except KeyError as e:
            raise ScenarioError("running_cost", str(e)) from None
        try:
            term = make_terminal(term_name, term_params, box)
        except KeyError as e:
            raise ScenarioError("terminal", str(e)) from None
        c1 = override("c1", cost.c1_of_radii(r_y, r_z))
        c1p = override("c1p", cost.c1p)
        c2 = override("c2", term.c2)
        c2p = override("c2p", term.c2p)
        problem = None
        game = GameSpec(
            horizon=horizon, r_y=r_y, r_z=r_z,
            running_cost=cost.fn, terminal_cost=term.fn,
            c1=c1, c1p=c1p, c2=c2, c2p=c2p,
            coupling_base=cost.coupling_base, coupling_pair=cost.coupling_pair,
            reflections=tuple(cost.reflections & term.reflections),
        )
        meta.update(
            running_cost={"name": cost_name, "params": cost_params},
            terminal={"name": term_name, "params": term_params,
                      "h_convex": term.h_convex},
            constants={"c1": c1, "c1p": c1p, "c2": c2, "c2p": c2p},
        )

    return Scenario(
        kind=kind, horizon=horizon, box=box, counts=counts, n_steps=n_steps,
        lattice_y=lat_y, lattice_z=lat_z, seed=seed, outputs=outputs,
        game=game, problem=problem, meta=meta, verify=verify_cfg, raw=data,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError("<file>", f"cannot read {path}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError("<file>", f"invalid JSON in {path}: {e}") from None
    return parse_scenario(data)
