"""heisgame benchmark: one workload, run through the CLI, with its metrics.

    python3 bench/run.py --workload hji-solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Each command runs in a fresh process through ``heisgame.cli.main``, on a
scenario generated from (workload, seed) into a temporary directory under
``bench/.work``, which also receives every output and is removed at exit.

``--trace 0`` repeats the command while the next one still fits in
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json:
medians of the command's wall time and peak RSS, and the median set-up
time (``load_scenario`` plus ``make_lattices``, repeated in this process
in a short burst before each command, so that its samples span the run
as the commands' do).  ``--trace 1`` runs the command once untraced and
once traced and reports the per-layer metrics.  Every command's outputs
pass through the correctness gates in ``gates.py``; a nonzero exit code or
a failed gate counts the command as failed.  The last line printed is the
JSON result; the line before it holds the samples and machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gates
import workloads

BENCH = Path(__file__).resolve().parent
# a run ends well within 180 s even when a command is far slower than usual
RUN_BUDGET_S = 160.0
# set-up is timed for at least this long before each command
SETUP_BURST_S = 0.25


@dataclass
class Attempt:
    wall_s: float
    rss_mb: float
    failures: list


def run_process(argv, cwd, env, timeout_s, log_path):
    """Wall time, peak RSS (MB) and exit code of one child process."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
        # a blocking wait: polling would wake this process while the
        # command runs on the same few cores
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def child_env(src) -> dict:
    """The environment of a command: this process's, importing from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Runs and gates the commands of one workload in a work directory."""

    def __init__(self, command, scenario, ref, seed, src, work, started):
        self.command, self.ref, self.seed = command, ref, seed
        self.work, self.started = work, started
        self.scenario_seed = scenario["seed"]
        # verify exits 1 where the reference records failing checks
        self.known_failing = (gates.expected_failing(ref, self.scenario_seed)
                              if command == "verify" else [])
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(scenario))
        self.env = child_env(src)
        self.sc = self.lattices = None
        self.count = 0

    def setup(self, min_s: float = 0.0) -> list:
        """Times of ``load_scenario`` plus ``make_lattices``, repeated for at
        least ``min_s`` seconds and at least once."""
        from heisgame.scenario import load_scenario

        times = []
        t_all = time.perf_counter()
        while not times or time.perf_counter() - t_all < min_s:
            t0 = time.perf_counter()
            sc = load_scenario(self.scenario_path)
            lattices = sc.make_lattices()
            times.append(time.perf_counter() - t0)
        self.sc, self.lattices = sc, lattices
        return times

    def attempt(self, spans_path=None) -> Attempt:
        self.count += 1
        outdir = self.work / f"out{self.count}"
        cli = (["-m", "heisgame.cli"] if spans_path is None
               else [str(BENCH / "traced_cli.py"), str(spans_path)])
        argv = [sys.executable, *cli, self.command, str(self.scenario_path),
                "--out", str(outdir)]
        log = self.work / f"stderr{self.count}.txt"
        budget = RUN_BUDGET_S - (time.perf_counter() - self.started)
        wall, rss, rc = run_process(argv, self.work, self.env, budget, log)
        failures = []
        expected_rc = 1 if self.known_failing else 0
        if rc != expected_rc:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            failures.append(f"exit code {rc}, expected {expected_rc}"
                            + (": " + " | ".join(tail) if tail else ""))
        # gated whatever the exit code: a failing verify names its checks here
        failures += self.gate(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        for f in failures:
            print(f"FAILED command {self.count}: {f}", file=sys.stderr)
        return Attempt(wall, rss, failures)

    def gate(self, outdir) -> list:
        if self.command == "solve":
            return gates.check_solve(outdir, self.ref, self.sc, self.lattices, self.seed)
        return gates.check_verify(outdir, self.ref, self.scenario_seed)


def failed_count(attempts) -> int:
    return sum(1 for a in attempts if a.failures)


def machine_facts() -> dict:
    import numpy

    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (d / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu0_caches": caches or "unavailable",
    }


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, dict, dict]:
    if trace:
        import tracer

        runner.setup()
        plain = runner.attempt()
        spans = runner.work / "spans.npz"
        traced = runner.attempt(spans)
        values = tracer.layer_metrics(spans, traced.wall_s, plain.wall_s)
        attempts = [plain, traced]
        samples = {"command_s": [plain.wall_s], "traced_command_s": [traced.wall_s]}
        return attempts, values, samples
    runner.setup()  # warm-up: first imports and caches
    setup_times, attempts = [], []
    t0 = time.perf_counter()
    while True:
        setup_times += runner.setup(SETUP_BURST_S)
        attempts.append(runner.attempt())
        elapsed = time.perf_counter() - t0
        per_attempt = elapsed / len(attempts)
        if (elapsed + per_attempt > seconds
                or time.perf_counter() - runner.started + per_attempt > RUN_BUDGET_S):
            break
    walls = [a.wall_s for a in attempts]
    rss = [a.rss_mb for a in attempts]
    values = {
        "command_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss),
    }
    return attempts, values, {"command_s": walls, "setup_s": setup_times,
                              "peak_rss_mb": rss}


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "heisgame" / "cli.py").is_file():
        print(f"no heisgame sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import heisgame

    if not Path(heisgame.__file__).resolve().is_relative_to(src):
        print(f"heisgame imported from {heisgame.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        command, template = workloads.WORKLOADS[args.workload]
        ref = json.loads((BENCH / "reference.json").read_text())[args.workload]
        runner = Runner(command, workloads.scenario(template, args.seed), ref,
                        args.seed, src, work, started)
        attempts, values, samples = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = failed_count(attempts)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "fail_ratio": failed / len(attempts),
        "scenario_seed": runner.scenario_seed,
        "checks_failing_at_seed_commit": runner.known_failing,
        "machine": machine_facts(),
        "computed": workloads.computed_bytes(workloads.WORKLOADS[args.workload][1]),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
