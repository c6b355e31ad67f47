"""The benchmark's workloads: one heisgame CLI command on a generated scenario.

The workload seed sets only the scenario's ``seed`` field (modulo
``SCENARIO_SEEDS``) and the seeds of the correctness probes.  Grid sizes,
lattices and costs are fixed per workload: solver cost depends on sizes and
on the code branch taken, not on values, and fixed sizes keep the stored
reference values valid.

Every workload takes 2 time steps over a horizon of 0.25, so the step is
the 0.125 of the 8-step, unit-horizon runs: each backward step does the
same work as one of theirs (same reach, same share of clamped
interpolation points), and the verify battery runs at that step.  A
command this short runs several times in one measured run, so the
benchmark reports a median over commands instead of a single sample.
"""

from __future__ import annotations

import copy
import math

_BOX = [[-4, 4], [-4, 4], [-8, 8]]

# the canonical HJI scenario, 2 time steps of 0.125 instead of 20 of 0.05
_HJI_SOLVE = {
    "schema": 1,
    "kind": "hji",
    "horizon": 0.25,
    "hamiltonian": {"name": "norm"},
    "initial": {"name": "gauge"},
    "grid": {"box": _BOX, "counts": [33, 33, 65]},
    "time_steps": 2,
    "lattice": {"rings": 4, "base_angles": 8},
}

# no coupling_base, so the solver takes the general max-min branch with one
# running-cost call per (y, z) lattice pair; the 1089-point y lattice also
# makes the covering-radius part of set-up visible
_GAME_SOLVE = {
    "schema": 1,
    "kind": "game",
    "horizon": 0.25,
    "radii": {"r_y": 2.0, "r_z": 1.0},
    "running_cost": {"name": "custom-affine",
                     "params": {"a0": 0.25, "ay": [0.5, -0.25], "az": [0.3, 0.2]}},
    "terminal": {"name": "gauge"},
    "grid": {"box": _BOX, "counts": [33, 33, 65]},
    "time_steps": 2,
    "lattice": {"y": {"rings": 16, "base_angles": 8},
                "z": {"rings": 1, "base_angles": 8}},
}

# many tiny interpolation batches (dpp_residual) instead of a few large ones;
# with 2 steps every two-step DPP probe starts at k = 0, so the probes form
# one batch and the work does not depend on the seed;
# the oracle check's 5e-2 tolerance is calibrated at 33x33x65, which the
# battery documents requesting through verify.oracle_counts
_HJI_VERIFY = {
    "schema": 1,
    "kind": "hji",
    "horizon": 0.25,
    "hamiltonian": {"name": "norm"},
    "initial": {"name": "gauge"},
    "grid": {"box": _BOX, "counts": [17, 17, 33]},
    "time_steps": 2,
    "lattice": {"rings": 4, "base_angles": 8},
    # a quarter of the default flow-check samples, so the per-instance
    # checks stay in the command without dwarfing dpp_residual
    "verify": {"oracle_counts": [33, 33, 65], "flow_controls": 50,
               "reach_instances": 500, "translation_instances": 500,
               "shift_instances": 75},
}

# name -> (CLI command, scenario without its seed)
WORKLOADS = {
    "hji-solve": ("solve", _HJI_SOLVE),
    "game-solve": ("solve", _GAME_SOLVE),
    "hji-verify": ("verify", _HJI_VERIFY),
}

# the verify battery's verdicts depend on the scenario seed, and
# reference.json records them for scenario seeds 0 .. SCENARIO_SEEDS - 1
SCENARIO_SEEDS = 32

# serial block size of backward_induction (game._node_blocks with threads <= 1)
_SERIAL_BLOCK = 131072


def scenario(template: dict, seed: int) -> dict:
    """The scenario JSON of a workload for one seed."""
    out = copy.deepcopy(template)
    out["seed"] = int(seed) % SCENARIO_SEEDS
    return out


def _lattice_points(cfg: dict) -> int:
    rings, base = cfg.get("rings", 4), cfg.get("base_angles", 8)
    return 1 + base * rings * (rings + 1) // 2


def computed_bytes(template: dict) -> dict:
    """Array sizes of the scenario-size solve, computed from its shape.

    Labelled as computed: they ignore caches, temporaries and reuse.
    """
    lat = template["lattice"]
    lat_y, lat_z = (lat["y"], lat["z"]) if "y" in lat else (lat, lat)
    nodes = math.prod(template["grid"]["counts"])
    slices = template["time_steps"] + 1
    mz = _lattice_points(lat_z)
    return {
        "label": "computed from array shapes, not measured",
        "nodes": nodes,
        "lattice_y_points": _lattice_points(lat_y),
        "lattice_z_points": mz,
        "value_stack_bytes": slices * nodes * 8,
        "trusted_stack_bytes": slices * nodes,
        "W_block_bytes": mz * min(nodes, _SERIAL_BLOCK) * 8,
    }
