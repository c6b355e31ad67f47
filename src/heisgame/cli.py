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
    Grid3,
    certify_region,
    read_value_grid,
    refinement_sup_diffs,
    write_value_grid,
)
from .game import (
    COVERING_SAMPLING,
    LipschitzConstants,
    NonFiniteValueError,
    backward_induction,
    fundamental_domain,
    lipschitz_audit,
    solve_bytes,
)
from .checks import oracle_solve, run_verification, sample_counts
from .scenario import Scenario, ScenarioError, load_scenario

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


def _formula_constants(sc: Scenario) -> dict:
    g = sc.game
    if sc.kind == "hji":
        radius_src = {
            "r_y": "R_Y = (1 + 3*K) * exp(T*K/2) * (D1p*T + C2p)",
            "r_z": "R_Z = K",
            "c1": "C1 = D1 + R_Z*R_Y",
            "c1p": "C1p = D1p",
        }
    else:
        radius_src = {
            "r_y": "R_Y (scenario input)",
            "r_z": "R_Z (scenario input)",
            "c1": "C1 (running-cost bound)",
            "c1p": "C1p (running-cost gauge-Lipschitz constant)",
        }
    return {
        "r_y": {"value": g.r_y, "formula": radius_src["r_y"]},
        "r_z": {"value": g.r_z, "formula": radius_src["r_z"]},
        "c1": {"value": g.c1, "formula": radius_src["c1"]},
        "c1p": {"value": g.c1p, "formula": radius_src["c1p"]},
        "c2": {"value": g.c2, "formula": "C2 (terminal/datum bound)"},
        "c2p": {"value": g.c2p, "formula": "C2p (terminal/datum gauge-Lipschitz constant)"},
        **g.constants.table(),
    }


def _manifest(sc: Scenario, y_lat, z_lat, command: str) -> dict:
    region = certify_region(sc.box, sc.game.r_z, sc.horizon)
    return {
        "schema": 1,
        "command": command,
        "scenario": sc.raw,
        "seed": sc.seed,
        "derived_constants": _formula_constants(sc),
        "covering": {
            name: {
                "radius": lat.radius,
                "covering_radius": lat.covering_radius,
                "points": len(lat.points),
                "sampling": COVERING_SAMPLING,
            }
            for name, lat in (("y", y_lat), ("z", z_lat))
        },
        "trusted_region": [list(map(float, region.lo)), list(map(float, region.hi))],
        "sample_counts": sample_counts(sc.verify),
    }


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(*solves) -> None:
    """Refuses, before any is allocated, solves whose arrays (``solve_bytes``
    of each ``(counts, n_steps, z_points, threads, reversed_copy)``) exceed
    physical memory."""
    need, have = sum(solve_bytes(*s) for s in solves), _physical_memory()
    if need > have:
        raise ValueError(f"the solver arrays need about {need / 2**30:.3g} GiB, more than "
                         f"the {have / 2**30:.3g} GiB of physical memory; use a coarser grid")


def _solve_scenario(sc: Scenario, y_lat, z_lat, threads: int):
    """Game-time lower value of ``sc`` on its grid."""
    template = Grid3(sc.box, np.zeros(sc.counts))
    return backward_induction(sc.game, template, sc.n_steps, y_lat, z_lat,
                              which="lower", threads=threads)


def _cmd_solve(args) -> int:
    sc = _load(args)
    outdir = _resolve_outdir(args, sc)
    # validate the truncation before burning solver time
    certify_region(sc.box, sc.game.r_z, sc.horizon)
    hji = sc.kind == "hji"
    t0 = time.time()
    y_lat, z_lat = sc.make_lattices()
    _require_memory((sc.counts, sc.n_steps, len(z_lat.points), args.threads, hji))
    value = _solve_scenario(sc, y_lat, z_lat, args.threads)
    if hji:
        value = value.reversed_time()
    elapsed = time.time() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    write_value_grid(value, outdir)
    _write_json(outdir / "manifest.json", _manifest(sc, y_lat, z_lat, "solve"))
    domain = fundamental_domain(sc.game, value.slice(0), y_lat, z_lat)
    log = [
        f"solved {args.scenario} ({sc.kind}) in {elapsed:.2f} s",
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
    y_lat, z_lat = sc.make_lattices()
    oracle_counts, oracle_steps, _, z9 = oracle_solve(sc)
    _require_memory((sc.counts, sc.n_steps, len(z_lat.points), args.threads,
                     sc.kind == "hji"),
                    (oracle_counts, oracle_steps, len(z9.points), args.threads))
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
        print("converge needs --levels >= 2", file=sys.stderr)
        return 2
    outdir = _resolve_outdir(args, sc)
    max_nodes = int(sc.verify.get("max_nodes", 2_000_000))

    ladders = []
    for i in range(levels):
        scale = 2 ** (levels - 1 - i)
        counts = []
        for c in sc.counts:
            if (c - 1) % scale:
                print(f"grid counts {sc.counts} do not coarsen by {scale}:"
                      f" need (count - 1) divisible", file=sys.stderr)
                return 2
            counts.append((c - 1) // scale + 1)
        if sc.n_steps % scale:
            print(f"time_steps {sc.n_steps} not divisible by {scale}", file=sys.stderr)
            return 2
        rings_y, base_y = sc.lattice_y
        rings_z, base_z = sc.lattice_z
        if rings_y % scale or rings_z % scale:
            print(f"lattice rings {rings_y}/{rings_z} not divisible by {scale}",
                  file=sys.stderr)
            return 2
        n_nodes = counts[0] * counts[1] * counts[2]
        if n_nodes > max_nodes:
            print(f"level {i} has {n_nodes} nodes, beyond the cap {max_nodes}",
                  file=sys.stderr)
            return 2
        ladders.append(dataclasses.replace(
            sc, counts=tuple(counts), n_steps=sc.n_steps // scale,
            lattice_y=(rings_y // scale, base_y), lattice_z=(rings_z // scale, base_z),
        ))

    # every level's stacks are kept for the differences, so the whole
    # ladder must fit before level 0 is solved
    lattices = [level.make_lattices() for level in ladders]
    _require_memory(*((level.counts, level.n_steps, len(z_lat.points), args.threads)
                      for level, (_, z_lat) in zip(ladders, lattices)))

    # audits and differences run on the game-time stacks: the differences
    # compare the same pairs of slices in either time order
    solves = []
    rows = []
    for i, (level, (y_lat, z_lat)) in enumerate(zip(ladders, lattices)):
        t0 = time.time()
        value = _solve_scenario(level, y_lat, z_lat, args.threads)
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
        print(f"no manifest.json in {indir}; cannot recover audit constants",
              file=sys.stderr)
        return 2
    try:
        value = read_value_grid(indir)
    except (OSError, KeyError, ValueError) as e:
        print(f"cannot read value grids from {indir}: {e}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    found = {}
    for name in ("r_z", "c1", "c1p", "c2p"):
        try:
            found[name] = float(manifest["derived_constants"][name]["value"])
        except (KeyError, TypeError, ValueError):
            print(f"manifest.json in {indir} has no number at"
                  f" derived_constants.{name}.value", file=sys.stderr)
            return 2
    consts = LipschitzConstants(float(value.horizon), **found)
    if manifest.get("scenario", {}).get("kind") == "hji":
        value = value.reversed_time()
    reports = lipschitz_audit(value, consts,
                              rng=np.random.default_rng(manifest.get("seed", 0) + 2))
    _write_json(indir / "audit.json", {"audits": [r.to_dict() for r in reports]})
    ok = True
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{tag} {r.quantity}: worst ratio {r.worst_ratio:.6g} vs "
              f"{r.constant:.6g} * (1 + {r.slack})")
    return 0 if ok else 1


def _thread_count(text: str) -> int:
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
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
        sp.add_argument("--threads", type=_thread_count, default=0,
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
