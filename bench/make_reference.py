"""Write bench/reference.json: the outputs the correctness gates compare with.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are the accepted ones.  It
solves each solve workload once and stores the written values at a fixed
node subsample; the values do not depend on the seed, so one seed serves
all.  It runs the verify workload at every scenario seed and records the
checks it lists and, per seed, the checks that fail there.
Solver changes must keep these values (within 1e-12); regenerate the file
only when the workloads themselves change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gates
import workloads
from run import BENCH, child_env, run_process


def run_cli(command, scenario, work, env, tag):
    path, out = work / f"{tag}.json", work / tag
    path.write_text(json.dumps(scenario))
    argv = [sys.executable, "-m", "heisgame.cli", command, str(path), "--out", str(out)]
    _, _, rc = run_process(argv, work, env, 600.0, work / f"{tag}.log")
    return rc, out


def main() -> int:
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    env = child_env(src)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=BENCH / ".work"))
    reference = {}
    try:
        for name, (command, template) in workloads.WORKLOADS.items():
            if command == "solve":
                rc, out = run_cli(command, workloads.scenario(template, 0), work, env, name)
                if rc != 0:
                    print(f"{name}: exit code {rc}", file=sys.stderr)
                    return 1
                reference[name] = gates.solve_reference(out)
                continue
            # one verify run per scenario seed, two at a time
            seeds = range(workloads.SCENARIO_SEEDS)
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = list(pool.map(
                    lambda s: run_cli(command, workloads.scenario(template, s), work, env,
                                      f"{name}-{s}"), seeds))
            verdicts = {}
            for seed, (rc, out) in zip(seeds, runs):
                verdicts[seed] = gates.verify_verdicts(out)
                if rc != (0 if all(verdicts[seed].values()) else 1):
                    print(f"{name} seed {seed}: exit code {rc}", file=sys.stderr)
                    return 1
            reference[name] = gates.verify_reference(verdicts)
            print(f"{name}: failing checks by scenario seed {reference[name]['failing']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
