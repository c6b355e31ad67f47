"""Write the outputs of a fixed set of heisgame commands, or compare two such sets.

    python3 tools/outputs.py write DIR [--checkout PATH] [--seeds N]
    python3 tools/outputs.py diff A B

``write`` runs the CLI, importing the package from ``PATH/src`` (default:
this checkout), on every ``scenarios/*.json`` file, on the three
benchmark workloads of ``bench/workloads.py`` at scenario seed 0, and on
``coupling-game-c2``: ``solve`` at ``--threads 1`` and at ``--threads 2``,
``audit`` on a copy of the ``--threads 1`` output without its CSV slices
(its ``audit.json`` holds the Lipschitz audit's witnesses, which no other
output does), and ``verify``; on ``constant-hamiltonian.json`` it also
runs ``converge --levels 2``.  ``coupling-game-c2`` is
``coupling-game.json`` at 9x9x17 nodes and 2 steps with a declared ``c2``
of 0.5, which its terminal cost exceeds, so its ``warnings.txt`` files
hold a warning and show how many times it is printed.  Five runs feed bad
input, so that ``diff`` compares their ``exit_code``: ``coupling-game``'s
``solve-lattice-ring`` solves ``coupling-game.json`` with ``"lattice":
{"ring": 1, "base_angles": 8}`` (an unknown key), ``constant-hamiltonian``'s
``solve-value-null`` solves ``constant-hamiltonian.json`` with the
Hamiltonian's ``"params": {"value": null}``, and ``coupling-game-c2``'s
``audit-manifest-list``, ``audit-seed-negative`` and ``audit-c2p-infinite``
audit copies of its ``solve-t1`` output whose ``manifest.json`` is ``[1]``,
has ``"seed": -3``, and has ``Infinity`` at ``derived_constants.c2p.value``.
With ``--seeds N`` the ``hji-verify`` workload's ``verify`` also runs at
scenario seeds 1 to N-1.  The scenario inputs always come from this
checkout, so two checkouts written this way ran the same commands.  Each
command writes to ``DIR/<scenario>/<run>``, next to an ``exit_code`` file
and a ``warnings.txt`` file holding the warnings it printed, one
``Category: message`` line each, without the file and line number that
Python prints before them (those move with any edit).

``diff`` lists the files that differ in bytes or exist on one side only,
ignoring ``run.log`` and the ``seconds`` column of ``converge.csv`` (both
hold wall times), so a change that adds or removes a warning shows as a
differing ``warnings.txt``; for each
differing ``.bin`` grid it adds the largest absolute difference of its
values, and for each differing ``.json`` file the dotted paths of the
keys whose values differ or exist on one side only, one per line, with
both values and their absolute difference where both are numbers.  It
exits 0 when the two sets are byte-identical and 1 otherwise.

Checking that a change keeps every output byte-identical to its parent::

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python3 tools/outputs.py write /tmp/out-parent --checkout /tmp/parent --seeds 32
    python3 tools/outputs.py write /tmp/out-change --seeds 32
    python3 tools/outputs.py diff /tmp/out-parent /tmp/out-change
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SKIPPED = {"run.log"}
# the "path:line: Category: message" line that warnings.showwarning prints
WARNING_LINE = re.compile(r"^.*?:\d+: (\w+Warning: .*)$", re.MULTILINE)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(seeds: int):
    """``(name, scenario path or JSON dict, run, argv tail)`` of each command;
    an audit reads a copy of the ``solve-t1`` output, and its second field is
    ``None`` or a function of that copy's parsed ``manifest.json`` returning
    the JSON value written over it."""
    jobs = []
    inputs = [(path.stem, path) for path in sorted((REPO / "scenarios").glob("*.json"))]
    wl = _workloads()
    inputs += [(name, wl.scenario(template, 0)) for name, (_, template) in wl.WORKLOADS.items()]
    bad_c2 = json.loads((REPO / "scenarios" / "coupling-game.json").read_text())
    bad_c2.update(grid=dict(bad_c2["grid"], counts=[9, 9, 17]), time_steps=2,
                  constants={"c2": 0.5})
    inputs.append(("coupling-game-c2", bad_c2))
    for name, scenario in inputs:
        jobs += [(name, scenario, f"solve-t{t}", ["solve", "--threads", str(t)]) for t in (1, 2)]
        jobs.append((name, None, "audit", ["audit"]))
        jobs.append((name, scenario, "verify", ["verify"]))
        if name == "constant-hamiltonian":
            jobs.append((name, scenario, "converge", ["converge", "--levels", "2"]))
    _, template = wl.WORKLOADS["hji-verify"]
    jobs += [("hji-verify", wl.scenario(template, s), f"verify-seed{s:02d}", ["verify"])
             for s in range(1, seeds)]
    ring = json.loads((REPO / "scenarios" / "coupling-game.json").read_text())
    ring["lattice"] = {"ring": 1, "base_angles": 8}
    null = json.loads((REPO / "scenarios" / "constant-hamiltonian.json").read_text())
    null["hamiltonian"] = {"name": "constant", "params": {"value": None}}
    jobs += [("coupling-game", ring, "solve-lattice-ring", ["solve"]),
             ("constant-hamiltonian", null, "solve-value-null", ["solve"]),
             ("coupling-game-c2", lambda m: [1], "audit-manifest-list", ["audit"]),
             ("coupling-game-c2", lambda m: dict(m, seed=-3), "audit-seed-negative",
              ["audit"]),
             ("coupling-game-c2", _c2p_infinite, "audit-c2p-infinite", ["audit"])]
    return jobs


def _c2p_infinite(manifest: dict) -> dict:
    """``manifest`` with ``Infinity`` at ``derived_constants.c2p.value``."""
    constants = manifest["derived_constants"]
    return dict(manifest, derived_constants=dict(
        constants, c2p=dict(constants["c2p"], value=float("inf"))))


def write(outdir: Path, checkout: Path, seeds: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout.resolve() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, scenario, run, (command, *flags) in _runs(seeds):
        target = outdir / name / run
        target.mkdir(parents=True, exist_ok=True)
        if command == "audit":
            shutil.copytree(outdir / name / "solve-t1", target, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("*.csv"))
            if scenario is not None:
                manifest = json.loads((target / "manifest.json").read_text())
                (target / "manifest.json").write_text(json.dumps(scenario(manifest)))
            argv = [command, str(target)]
        else:
            path = scenario
            if isinstance(scenario, dict):
                path = target / "scenario.json"
                path.write_text(json.dumps(scenario))
            argv = [command, str(path), "--out", str(target), *flags]
        proc = subprocess.run([sys.executable, "-m", "heisgame.cli", *argv],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        (target / "exit_code").write_text(f"{proc.returncode}\n")
        (target / "warnings.txt").write_text(
            "".join(line + "\n" for line in WARNING_LINE.findall(proc.stderr)))
        print(f"{name}/{run}: exit {proc.returncode}", flush=True)
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
    return 0


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED}


def _compared(path: Path) -> bytes:
    """The bytes ``diff`` compares: a ``converge.csv`` without its
    ``seconds`` column, any other file whole."""
    data = path.read_bytes()
    rows = [line.split(b",") for line in data.splitlines(keepends=True)]
    if path.name != "converge.csv" or not rows or b"seconds" not in rows[0]:
        return data
    k = rows[0].index(b"seconds")
    return b"".join(b",".join(row[:k] + row[k + 1:]) for row in rows)


def _max_abs_diff(a: Path, b: Path) -> str:
    dtype = np.uint8 if a.name.endswith(".trusted.bin") else "<f8"
    va, vb = (np.fromfile(p, dtype=dtype).astype(float) for p in (a, b))
    if va.shape != vb.shape:
        return f"sizes {va.size} and {vb.size}"
    with np.errstate(invalid="ignore"):
        return f"max |diff| {np.nanmax(np.abs(va - vb), initial=0.0):.3g}"


_ABSENT = object()


def _json_keys(a, b, path: str = "") -> list[tuple]:
    """``(dotted path, value in a, value in b)`` of the values that differ
    between two parsed JSON documents; list items are named by index, and a
    list whose length changed by its own path."""
    join = lambda key: f"{path}.{key}" if path else str(key)
    if isinstance(a, dict) and isinstance(b, dict):
        return [k for key in sorted(a.keys() | b.keys())
                for k in _json_keys(a.get(key, _ABSENT), b.get(key, _ABSENT), join(key))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [k for i, (x, y) in enumerate(zip(a, b)) for k in _json_keys(x, y, join(i))]
    # repr, so that a NaN equals itself
    return [] if repr(a) == repr(b) else [(path or "(document)", a, b)]


def _numbers(a, b) -> str:
    """``": a vs b, |diff| d"`` when both values are numbers, else nothing."""
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if not (number(a) and number(b)):
        return ""
    return f": {a!r} vs {b!r}, |diff| {abs(a - b):.3g}"


def diff(a: Path, b: Path) -> int:
    files_a, files_b = _files(a), _files(b)
    same = bad = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"only in {a if rel in files_a else b}: {rel}")
        elif _compared(a / rel) != _compared(b / rel):
            note = f" ({_max_abs_diff(a / rel, b / rel)})" if rel.suffix == ".bin" else ""
            print(f"differs: {rel}{note}")
            if rel.suffix == ".json":
                docs = (json.loads((root / rel).read_text()) for root in (a, b))
                for key, va, vb in _json_keys(*docs):
                    print(f"    {key}{_numbers(va, vb)}")
        else:
            same += 1
            continue
        bad += 1
    print(f"{same} files byte-identical, {bad} differ or are missing"
          f" (run.log and converge.csv's seconds ignored)")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run the commands and keep their outputs")
    w.add_argument("dir", type=Path)
    w.add_argument("--checkout", type=Path, default=REPO,
                   help="checkout whose src is run (default: this one)")
    w.add_argument("--seeds", type=int, default=1,
                   help="scenario seeds 0..N-1 for the hji-verify workload's verify")
    d = sub.add_parser("diff", help="compare two written directories")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = p.parse_args(argv)
    if args.command == "write":
        return write(args.dir, args.checkout, args.seeds)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
