"""Scenario files: a versioned JSON schema describing one run.

A scenario fixes the problem (game or initial-value form), the spatial
grid, the time discretization, the control lattices, and the seed for
every randomized check, so reruns are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .heis import Box
from .catalog import (
    ParamError,
    finite_reals,
    make_hamiltonian,
    make_running_cost,
    make_terminal,
)
from .game import GameSpec, backward_induction, make_lattice
from .grids import ValueGrid
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
    h_convex: bool  # as the datum / terminal cost declares
    verify: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def lattice_args(self):
        """The ``make_lattice`` arguments of the ``y`` and the ``z`` lattice."""
        return (self.game.r_y, *self.lattice_y), (self.game.r_z, *self.lattice_z)

    def make_lattices(self):
        return tuple(make_lattice(*args) for args in self.lattice_args())

    def solve(self, y_lat, z_lat, threads: int = 0) -> ValueGrid:
        """Game-time lower value on the scenario's grid, the one solve of
        ``solve``, ``converge`` and ``verify``.  Besides the game's
        declarations (``GameSpec.check_declarations``), it samples an ``hji``
        scenario's declared ``k``, after the solve so that warnings keep their
        order (both samples are fixed and small); violations only warn."""
        value = backward_induction(self.game, self.box, self.counts, self.n_steps,
                                   y_lat, z_lat, threads=threads)
        if self.problem is not None:
            self.problem.spot_check(self.box)
        return value


def _need(data: dict, key: str, kind, where: str = ""):
    name = f"{where}.{key}" if where else key
    if key not in data:
        raise ScenarioError(name, "missing required field")
    value = data[key]
    if kind is float:
        if finite_reals(value) is None:
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


def _object(value, where: str, known) -> dict:
    """``value``, which must be an object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ScenarioError(where, "must be an object")
    for key in value:
        if key not in known:
            raise ScenarioError(f"{where}.{key}" if where else key,
                                f"unknown key; known: {', '.join(known)}")
    return value


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
    grid = {**DEFAULT_GRID, **_object(data.get("grid", {}), "grid", DEFAULT_GRID)}
    raw = finite_reals(grid["box"], (3, 2))
    try:
        if raw is None:
            raise ValueError
        box = Box(raw[:, 0], raw[:, 1])
    except ValueError:
        raise ScenarioError(
            "grid.box", "must be three [lo, hi] pairs with lo < hi"
        ) from None
    return box, _grid_counts(grid["counts"], "grid.counts")


# sample counts of the verify battery; the manifest records the values in effect
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

# (default, least) of each integer of the ``verify`` section; a sample count
# below its least value would let its check pass without testing anything
_VERIFY_SETTINGS = {**{name: (n, 1) for name, n in SAMPLE_DEFAULTS.items()},
                    "convexity_directions": (64, 1), "convexity_probes": (33, 3),
                    "oracle_nodes": (12, 1), "max_nodes": (2_000_000, 1)}


def _parse_verify(data: dict, counts: tuple[int, int, int]) -> dict:
    """The ``verify`` section, every setting filled in (``oracle_counts``: ``counts``)."""
    cfg = _object(data.get("verify", {}), "verify", [*_VERIFY_SETTINGS, "oracle_counts"])
    filled = {}
    for key, (default, least) in _VERIFY_SETTINGS.items():
        filled[key] = value = cfg.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ScenarioError(f"verify.{key}", f"must be an integer >= {least}, got {value!r}")
    filled["oracle_counts"] = _grid_counts(cfg.get("oracle_counts", counts),
                                           "verify.oracle_counts")
    return filled


def _parse_lattice(data: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    def one(cfg: dict, where: str) -> tuple[int, int]:
        cfg = _object(cfg, where, ("rings", "base_angles"))
        rings = cfg.get("rings", 4)
        base = cfg.get("base_angles", 8)
        if not isinstance(rings, int) or isinstance(rings, bool) or rings < 1:
            raise ScenarioError(f"{where}.rings", "must be an integer >= 1")
        if not isinstance(base, int) or base < 4:
            raise ScenarioError(f"{where}.base_angles", "must be an integer >= 4")
        return rings, base

    lat = data.get("lattice", {})
    if isinstance(lat, dict) and ("y" in lat or "z" in lat):
        _object(lat, "lattice", ("y", "z"))
        return one(lat.get("y", {}), "lattice.y"), one(lat.get("z", {}), "lattice.z")
    cfg = one(lat, "lattice")
    return cfg, cfg


def _catalog(data: dict, key: str, make, *args):
    """``make(name, params, *args)`` of the catalog entry at ``key``; an unknown
    name or parameter, or a parameter that is not finite, raises ScenarioError."""
    entry = _object(_need(data, key, dict), key, ("name", "params"))
    name = _need(entry, "name", str, key)
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{key}.params", "must be an object")
    try:
        return make(name, params, *args)
    except ParamError as e:
        raise ScenarioError(f"{key}.params.{e.name}", str(e)) from None
    except KeyError as e:
        raise ScenarioError(key, str(e)) from None


def parse_scenario(data: dict) -> Scenario:
    """The scenario of a parsed JSON document; an invalid value or an unknown
    key raises :class:`ScenarioError` naming its field.  ``Scenario.verify``
    holds every setting of the ``verify`` section, defaults filled in."""
    if not isinstance(data, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"expected version {SCHEMA_VERSION}, got {schema!r}")
    kind = _need(data, "kind", str)
    if kind not in ("game", "hji"):
        raise ScenarioError("kind", f"must be 'game' or 'hji', got {kind!r}")
    own = {"hji": ("hamiltonian", "initial"), "game": ("radii", "running_cost", "terminal")}
    _object(data, "", ("schema", "kind", "horizon", "grid", "time_steps", "lattice", "seed",
                       "outputs", "constants", "verify", *own[kind]))
    horizon = _need(data, "horizon", float)
    if horizon <= 0:
        raise ScenarioError("horizon", f"the horizon T must be positive, got {horizon}")
    box, counts = _parse_grid(data)
    n_steps = _need(data, "time_steps", int)
    if n_steps < 1:
        raise ScenarioError("time_steps", "must be an integer >= 1")
    lat_y, lat_z = _parse_lattice(data)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed", f"must be an integer >= 0, got {seed!r}")
    outputs = data.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ScenarioError("outputs", "must be a string path")
    # the constants each kind reads; any other name would be ignored
    accepted = {"hji": ("k", "d1", "d1p", "c2", "c2p"), "game": ("c1", "c1p", "c2", "c2p")}[kind]
    overrides = _object(data.get("constants", {}), "constants", accepted)
    verify_cfg = _parse_verify(data, counts)

    def override(name, value):
        return _need(overrides, name, float, "constants") if name in overrides else value

    if kind == "hji":
        ham = _catalog(data, "hamiltonian", make_hamiltonian)
        init = _catalog(data, "initial", make_terminal, box)
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
        h_convex = init.h_convex
    else:
        radii = _object(_need(data, "radii", dict), "radii", ("r_y", "r_z"))
        r_y = _need(radii, "r_y", float, "radii")
        r_z = _need(radii, "r_z", float, "radii")
        if r_y < 0 or r_z < 0:
            raise ScenarioError("radii", "control radii must be nonnegative")
        cost = _catalog(data, "running_cost", make_running_cost)
        term = _catalog(data, "terminal", make_terminal, box)
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
        h_convex = term.h_convex

    return Scenario(
        kind=kind, horizon=horizon, box=box, counts=counts, n_steps=n_steps,
        lattice_y=lat_y, lattice_z=lat_z, seed=seed, outputs=outputs,
        game=game, problem=problem, h_convex=h_convex, verify=verify_cfg, raw=data,
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
