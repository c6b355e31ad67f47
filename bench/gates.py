"""Correctness gates applied to the outputs of every benchmarked command.

Each gate returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-12
DPP_TOL = 1e-12
DPP_PROBES = 64
# nodes per slice kept in the stored reference
REFERENCE_NODES = 97


def reference_nodes(n_nodes: int) -> list[int]:
    """Fixed flat node subsample, spread evenly over the grid."""
    return np.linspace(0, n_nodes - 1, REFERENCE_NODES).astype(int).tolist()


def solve_reference(outdir: Path) -> dict:
    """Reference entry of a solve: written values at the fixed subsample."""
    from heisgame.grids import read_value_grid

    vg = read_value_grid(outdir)
    flat = vg.data.reshape(len(vg.times), -1)
    nodes = reference_nodes(flat.shape[1])
    return {
        "counts": list(vg.counts),
        "times": [float(t) for t in vg.times],
        "nodes": nodes,
        "values": [[float(v) for v in row] for row in flat[:, nodes]],
    }


def verify_verdicts(outdir: Path) -> dict:
    """Check name -> passed flag, in the order verify.json lists them."""
    bundle = json.loads((Path(outdir) / "verify.json").read_text())
    return {c["name"]: c["passed"] for c in bundle["checks"]}


def verify_reference(verdicts_by_seed: dict) -> dict:
    """Reference entry of a verify workload from its verdicts per scenario seed:
    the check names, and the checks that failed at each seed where any did."""
    names = [list(v) for v in verdicts_by_seed.values()]
    if any(n != names[0] for n in names):
        raise ValueError("verify runs list different checks")
    return {
        "checks": names[0],
        "failing": {str(seed): [c for c, ok in v.items() if not ok]
                    for seed, v in sorted(verdicts_by_seed.items())
                    if not all(v.values())},
    }


def expected_failing(ref: dict, scenario_seed: int) -> list:
    """Checks that failed at this scenario seed when the reference was made."""
    return ref["failing"].get(str(scenario_seed), [])


def check_solve(outdir: Path, ref: dict, sc, lattices, seed: int) -> list[str]:
    """Values at the reference nodes, the one-step DPP residual on the
    game-time stack, and, for HJI scenarios, the t=0 slice against the datum.
    """
    from heisgame.game import dpp_residual
    from heisgame.grids import read_value_grid, sample_field

    failures = []
    try:
        vg = read_value_grid(outdir)
    except (OSError, KeyError, ValueError) as e:
        return [f"cannot read the value grid: {e}"]
    if list(vg.counts) != ref["counts"] or len(vg.times) != len(ref["times"]):
        return [f"value grid shape {vg.counts} x {len(vg.times)} slices differs from"
                f" the reference {ref['counts']} x {len(ref['times'])}"]
    got = vg.data.reshape(len(vg.times), -1)[:, ref["nodes"]]
    err = float(np.abs(got - np.asarray(ref["values"])).max())
    if not err <= VALUE_TOL:
        failures.append(f"values differ from the reference by {err:.3g} > {VALUE_TOL}")

    game_stack = vg.reversed_time() if sc.kind == "hji" else vg
    y_lat, z_lat = lattices
    try:
        residual = dpp_residual(game_stack, sc.game, y_lat, z_lat, probes=DPP_PROBES,
                                sigma_steps=1,
                                rng=np.random.default_rng(seed)).max_residual
    except ValueError as e:  # Grid3 refuses a slice with non-finite values
        failures.append(f"dpp_residual raised: {e}")
    else:
        if not residual <= DPP_TOL:
            failures.append(f"one-step DPP residual {residual:.3g} > {DPP_TOL}")

    if sc.kind == "hji":
        datum = sample_field(sc.problem.initial, sc.box, sc.counts).values
        if not np.array_equal(vg.data[0], datum):
            gap = float(np.abs(vg.data[0] - datum).max())
            failures.append(f"t=0 slice differs from the sampled datum by {gap:.3g}")
    return failures


def check_verify(outdir: Path, ref: dict, scenario_seed: int) -> list[str]:
    """verify.json lists every expected check, each with the verdict it had
    at this scenario seed in the reference: passed, except the checks that
    the reference records as failing there."""
    try:
        passed = verify_verdicts(outdir)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return [f"cannot read verify.json: {e}"]
    known = expected_failing(ref, scenario_seed)
    failures = []
    for name in ref["checks"]:
        if name not in passed:
            failures.append(f"check {name} missing from verify.json")
        elif passed[name] is not (name not in known):
            failures.append(f"check {name} {'passed' if passed[name] else 'failed'};"
                            f" it {'failed' if name in known else 'passed'} in the reference")
    return failures
