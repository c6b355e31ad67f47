"""Compare one heisgame command between two checkouts, in interleaved pairs.

    python3 tools/pairs.py PARENT CHANGE [--pairs N] -- solve scenario.json [flags]

Each run is ``python -m heisgame.cli`` with the given command, importing
the package from ``PARENT/src`` or ``CHANGE/src``, in the current
directory, with ``$HEISGAME_OUT`` set to a fresh temporary directory
(removed after the run), so the outputs go there unless the command or
its scenario names another place.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd.

Wall time and peak resident memory come from ``os.wait4`` on the command's
process.  A child's ``ru_maxrss`` starts at its parent's high-water mark,
so this launcher imports neither numpy nor heisgame: its own few MB stay
below any command's peak, and the number read is the command's own.

For each metric (both lower is better) it prints each side's median and
quartiles, and how many pairs the change won (ties count for neither).
The verdict is ``gain`` when the change won at least nine tenths of the
pairs and the medians differ by more than the distance between the
parent's quartiles, ``loss`` under the same rule the other way, and
``no claim`` otherwise.  The last line printed is the result as JSON.  It
exits 1 when any command exits nonzero, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "peak_rss_mb")
SIDES = ("parent", "change")


def run_once(checkout: Path, command: list) -> dict:
    """Wall time, peak RSS (MB) and exit code of one command run from ``checkout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout.resolve() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tempfile.mkdtemp(prefix="heisgame-pairs-")
    env["HEISGAME_OUT"] = out
    try:
        with open(os.path.join(out, "stderr.txt"), "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "heisgame.cli", *command], env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            err.seek(0)
            lines = err.read().decode(errors="replace").strip().splitlines()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    code = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": code,
            "stderr_tail": lines[-1] if code and lines else ""}


def run_pairs(parent: Path, change: Path, command: list, pairs: int) -> dict:
    """Per side, the list of run records, in pair order."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(parent if side == "parent" else change, command))
    return runs


def summarize(runs: dict) -> dict:
    """Per metric, each side's quartiles, the pairs the change won and the verdict."""
    out = {}
    for metric in METRICS:
        values = {side: [r[metric] for r in runs[side]] for side in SIDES}
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive")
                     for side, v in values.items()}
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        lost = sum(c > p for p, c in zip(values["parent"], values["change"]))
        q1, median, q3 = quartiles["parent"]
        gap = quartiles["change"][1] - median
        n = len(values["parent"])
        verdict = "no claim"
        if won >= 0.9 * n and -gap > q3 - q1:
            verdict = "gain"
        elif lost >= 0.9 * n and gap > q3 - q1:
            verdict = "loss"
        out[metric] = {"quartiles": quartiles, "won": won, "lost": lost, "pairs": n,
                       "median_gap": gap, "parent_iqr": q3 - q1, "verdict": verdict}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout whose src is the parent side")
    p.add_argument("change", type=Path, help="checkout whose src is the change side")
    p.add_argument("--pairs", type=int, default=10)
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv[-1] == "--":
        p.error("give the heisgame command after --")
    k = argv.index("--")
    args, command = p.parse_args(argv[:k]), argv[k + 1:]
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "heisgame").is_dir():
            p.error(f"{checkout} has no src/heisgame")

    runs = run_pairs(args.parent, args.change, command, args.pairs)
    summary = summarize(runs)
    for metric, s in summary.items():
        for side in SIDES:
            q1, median, q3 = s["quartiles"][side]
            print(f"{metric:12s} {side:7s} median {median:.4f}  quartiles {q1:.4f} {q3:.4f}")
        print(f"{metric:12s} change won {s['won']} of {s['pairs']} pairs, lost {s['lost']};"
              f" median gap {s['median_gap']:+.4f}, parent IQR {s['parent_iqr']:.4f}:"
              f" {s['verdict']}")
    failed = [(side, r) for side in SIDES for r in runs[side] if r["exit_code"] != 0]
    for side, r in failed[:1]:
        print(f"{len(failed)} commands exited nonzero; the first ({side}) with"
              f" {r['exit_code']}: {r['stderr_tail']}")
    print(json.dumps({"command": command, "runs": runs, "summary": summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
