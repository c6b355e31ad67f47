"""Command line front end.

Commands::

    heisgame solve    <scenario.json>             solve and write artifacts
    heisgame verify   <scenario.json>             run the verification battery
    heisgame converge <scenario.json> --levels k  refinement study
    heisgame audit    <valuegrid-dir>             re-audit written grids

Common flags: ``--out DIR`` (else the scenario's ``outputs`` field, else
``$HEISGAME_OUT``, else ``./heisgame-out``), ``--seed N`` (overrides the
scenario seed), ``--threads N`` (0 = auto).  Exit codes: 0 success, 1
failed verification/audit, 2 invalid scenario or parameters, 3 numerical
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .grids import (
    certify_region,
    read_value_grid,
    refinement_sup_diffs,
    write_value_grid,
)
from .game import (
    LipschitzConstants,
    NonFiniteValueError,
    fundamental_domain,
    lattice_bytes,
    lattice_points,
    lipschitz_audit,
    solve_bytes,
)
from .catalog import finite_reals
from .checks import oracle_solve, run_verification
from .scenario import SAMPLE_DEFAULTS, Scenario, ScenarioError, load_scenario

__all__ = ["main"]


def _resolve_outdir(args, sc: Scenario | None) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    if sc is not None and sc.outputs:
        return Path(sc.outputs)
    env = os.environ.get("HEISGAME_OUT")
    if env:
        return Path(env)
    return Path("heisgame-out")


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    return sc


def _manifest(sc: Scenario, y_lat, z_lat, command: str) -> dict:
    region = certify_region(sc.box, sc.game.r_z, sc.horizon)
    return {
        "schema": 1,
        "command": command,
        "scenario": sc.raw,
        "seed": sc.seed,
        "derived_constants": sc.game.constants.table(sc.game.r_y, sc.game.c2, sc.kind == "hji"),
        "covering": {
            name: {
                "radius": lat.radius,
                "covering_radius": lat.covering_radius,
                "points": len(lat.points),
            }
            for name, lat in (("y", y_lat), ("z", z_lat))
        },
        "trusted_region": [list(map(float, region.lo)), list(map(float, region.hi))],
        "sample_counts": {name: sc.verify[name] for name in SAMPLE_DEFAULTS},
    }


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(threads: int, *runs) -> None:
    """Refuses, before any is built, runs ``(counts, n_steps, y, z)``, with
    ``y``, ``z`` the ``make_lattice`` arguments, whose largest lattice build
    (``lattice_bytes``) or whose solves' arrays together (``solve_bytes``,
    the ``y``, ``z`` pair table included) exceed physical memory.  A build
    frees its buffers before the next build and the solves, so the builds do
    not add up."""
    have = _physical_memory()
    build = max(lattice_bytes(*lat) for run in runs for lat in run[2:])
    solves = sum(solve_bytes(counts, n_steps, lattice_points(*y), lattice_points(*z), threads)
                 for counts, n_steps, y, z in runs)
    for what, need, fix in (("a lattice build needs", build, "fewer lattice rings"),
                            ("the solver arrays need", solves,
                             "a coarser grid or fewer lattice rings")):
        if need > have:
            raise ValueError(f"{what} about {need / 2**30:.3g} GiB, more than the "
                             f"{have / 2**30:.3g} GiB of physical memory; use {fix}")


def _cmd_solve(args) -> int:
    sc = _load(args)
    outdir = _resolve_outdir(args, sc)
    # validate the truncation before burning solver time
    certify_region(sc.box, sc.game.r_z, sc.horizon)
    hji = sc.kind == "hji"
    _require_memory(args.threads, (sc.counts, sc.n_steps, *sc.lattice_args()))
    t0 = time.time()
    y_lat, z_lat = sc.make_lattices()
    value = sc.solve(y_lat, z_lat, args.threads)
    if hji:
        value = value.reversed_time()
    elapsed = time.time() - t0
    t0 = time.time()
    outdir.mkdir(parents=True, exist_ok=True)
    write_value_grid(value, outdir)
    _write_json(outdir / "manifest.json", _manifest(sc, y_lat, z_lat, "solve"))
    written = time.time() - t0
    domain = fundamental_domain(sc.game, sc.box, sc.counts, y_lat, z_lat)
    log = [
        f"solved {args.scenario} ({sc.kind}) in {elapsed:.2f} s",
        f"wrote outputs in {written:.2f} s",
        f"grid {sc.counts} time steps {sc.n_steps}",
        f"lattices y={len(y_lat.points)} z={len(z_lat.points)} points",
        f"symmetry {','.join(domain.reflections) or 'none'}: {domain.nodes}"
        f" of {value.data[0].size} nodes",
        f"outputs in {outdir}",
    ]
    (outdir / "run.log").write_text("\n".join(log) + "\n")
    print("\n".join(log))
    return 0


def _cmd_verify(args) -> int:
    sc = _load(args)
    outdir = _resolve_outdir(args, sc)
    certify_region(sc.box, sc.game.r_z, sc.horizon)
    _require_memory(args.threads, (sc.counts, sc.n_steps, *sc.lattice_args()), oracle_solve(sc))
    y_lat, z_lat = sc.make_lattices()
    results = run_verification(sc, y_lat, z_lat, threads=args.threads)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = {
        "manifest": _manifest(sc, y_lat, z_lat, "verify"),
        "checks": [r.to_dict() for r in results],
    }
    _write_json(outdir / "verify.json", bundle)
    _export_sample_trajectory(sc, outdir / "sample_trajectory.csv")
    failed = [r for r in results if not r.passed]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name}: measured {r.measured:.6g} vs {r.constant:.6g}"
              f"  [{r.statement}]")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed;"
          f" report in {outdir / 'verify.json'}")
    if failed:
        print("failing checks: " + ", ".join(r.name for r in failed))
        return 1
    return 0


def _export_sample_trajectory(sc: Scenario, path: Path) -> None:
    """One seeded admissible trajectory of ``xdot = -f(x, z)`` as
    time,x1,x2,x3 rows."""
    from .checks import random_control
    from .flow import integrate, write_trajectory_csv

    rng = np.random.default_rng(sc.seed)
    u = random_control(rng, sc.game.r_z, t_end=sc.horizon)
    traj = integrate(np.zeros(3), dataclasses.replace(u, values=-u.values),
                     samples_per_segment=16)
    write_trajectory_csv(traj, path)


def _cmd_converge(args) -> int:
    sc = _load(args)
    levels = args.levels
    if levels < 2:
        raise ValueError("converge needs --levels >= 2")
    outdir = _resolve_outdir(args, sc)
    max_nodes = sc.verify["max_nodes"]
    # every level shares the box and horizon, so one check covers the ladder
    certify_region(sc.box, sc.game.r_z, sc.horizon)

    ladders = []
    for i in range(levels):
        scale = 2 ** (levels - 1 - i)
        counts = []
        for c in sc.counts:
            if (c - 1) % scale:
                raise ScenarioError("grid.counts", f"grid counts {sc.counts} do not coarsen"
                                    f" by {scale}: need (count - 1) divisible")
            counts.append((c - 1) // scale + 1)
        if sc.n_steps % scale:
            raise ScenarioError("time_steps", f"time_steps {sc.n_steps} not divisible by {scale}")
        rings_y, base_y = sc.lattice_y
        rings_z, base_z = sc.lattice_z
        if rings_y % scale or rings_z % scale:
            raise ScenarioError("lattice.rings", f"lattice rings {rings_y}/{rings_z}"
                                f" not divisible by {scale}")
        n_nodes = counts[0] * counts[1] * counts[2]
        if n_nodes > max_nodes:
            raise ScenarioError("verify.max_nodes", f"level {i} has {n_nodes} nodes,"
                                f" beyond the cap {max_nodes}")
        ladders.append(dataclasses.replace(
            sc, counts=tuple(counts), n_steps=sc.n_steps // scale,
            lattice_y=(rings_y // scale, base_y), lattice_z=(rings_z // scale, base_z),
        ))

    # every level's stacks are kept for the differences, so the whole
    # ladder must fit before level 0 is solved
    _require_memory(args.threads, *((level.counts, level.n_steps, *level.lattice_args())
                                    for level in ladders))
    lattices = [level.make_lattices() for level in ladders]

    # audits and differences run on the game-time stacks: the differences
    # compare the same pairs of slices in either time order
    solves = []
    rows = []
    for i, (level, (y_lat, z_lat)) in enumerate(zip(ladders, lattices)):
        t0 = time.time()
        value = level.solve(y_lat, z_lat, args.threads)
        elapsed = time.time() - t0
        audits = lipschitz_audit(value, sc.game.constants,
                                 rng=np.random.default_rng(sc.seed + 2))
        solves.append(value)
        rows.append({
            "level": i,
            "n1": level.counts[0], "n2": level.counts[1], "n3": level.counts[2],
            "time_steps": level.n_steps,
            "lattice_y_points": len(y_lat.points),
            "lattice_z_points": len(z_lat.points),
            "c_sharp_ratio": audits[0].worst_ratio,
            "c_prime_ratio": audits[1].worst_ratio,
            "seconds": elapsed,
        })

    diffs = refinement_sup_diffs(solves)
    for i in range(levels - 1):
        rows[i]["sup_diff_to_next"] = diffs[i]
        rows[i]["ratio_vs_next_pair"] = (
            diffs[i] / diffs[i + 1] if i + 1 < len(diffs) and diffs[i + 1] > 0
            else float("nan")
        )

    outdir.mkdir(parents=True, exist_ok=True)
    cols = ["level", "n1", "n2", "n3", "time_steps", "lattice_y_points",
            "lattice_z_points", "c_sharp_ratio", "c_prime_ratio", "seconds",
            "sup_diff_to_next", "ratio_vs_next_pair"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
    (outdir / "converge.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"table in {outdir / 'converge.csv'}")
    return 0


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v!r}"
    return str(v)


def _cmd_audit(args) -> int:
    indir = Path(args.valuegrid_dir)
    manifest_path = indir / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"no manifest.json in {indir}; cannot recover audit constants")
    try:
        value = read_value_grid(indir)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
        raise ValueError(f"cannot read value grids from {indir}: {e}") from None
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise ValueError(f"manifest.json in {indir} is not JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest.json in {indir} is not an object")
    seed, scenario = manifest.get("seed", 0), manifest.get("scenario", {})
    if type(seed) is not int or seed < 0 or not isinstance(scenario, dict):
        raise ValueError(f"manifest.json in {indir} needs a seed >= 0 and a scenario object")
    found = {}
    for name in ("r_z", "c1", "c1p", "c2p"):
        try:
            found[name] = finite_reals(manifest["derived_constants"][name]["value"])
        except (KeyError, TypeError):
            found[name] = None
        if found[name] is None or found[name] < 0:
            raise ValueError(f"manifest.json in {indir} has no finite number >= 0 at"
                             f" derived_constants.{name}.value")
    consts = LipschitzConstants(float(value.horizon), **found)
    if scenario.get("kind") == "hji":
        value = value.reversed_time()
    reports = lipschitz_audit(value, consts, rng=np.random.default_rng(seed + 2))
    _write_json(indir / "audit.json", {"audits": [r.to_dict() for r in reports]})
    ok = True
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{tag} {r.quantity}: worst ratio {r.worst_ratio:.6g} vs "
              f"{r.constant:.6g} * (1 + {r.slack})")
    return 0 if ok else 1


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="heisgame", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=_non_negative, default=None,
                        help="override the scenario seed")
        sp.add_argument("--threads", type=_non_negative, default=0,
                        help="solver worker threads (0 = auto)")

    sp = sub.add_parser("solve", help="solve a scenario and write artifacts")
    sp.add_argument("scenario")
    common(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="run the verification battery")
    sp.add_argument("scenario")
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("converge", help="refinement study ending at the scenario grid")
    sp.add_argument("scenario")
    sp.add_argument("--levels", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=_cmd_converge)

    sp = sub.add_parser("audit", help="re-audit a written value grid directory")
    sp.add_argument("valuegrid_dir")
    sp.set_defaults(fn=_cmd_audit)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except NonFiniteValueError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # box/region validation problems are scenario problems
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
