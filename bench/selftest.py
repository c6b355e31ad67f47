"""Self-test of the benchmark at tiny sizes (about 15 seconds).

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that a clean command passes
the gates, that a tampered value slice and a failing verify check are each
counted as failed commands (a check counts when its verdict differs from
the reference's at that scenario seed), and that the tracer attributes
layer times and parents worker-thread spans to the open
``backward_induction`` span.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gates
import tracer
import workloads
from run import BENCH, Runner, child_env, failed_count, run_process

TINY_SOLVE = {
    **workloads.WORKLOADS["hji-solve"][1],
    # the unit horizon: the coarse oracle check below fails only at this step
    "horizon": 1.0,
    "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": [9, 9, 17]},
    "time_steps": 2,
    "lattice": {"rings": 1, "base_angles": 8},
    "seed": 3,
}
# the smallest grids at which the battery's interpolation tolerances hold
TINY_VERIFY = {
    **TINY_SOLVE,
    "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": [17, 17, 33]},
    "verify": {"group_samples": 200, "flow_controls": 4, "reach_instances": 20,
               "translation_instances": 20, "shift_instances": 10,
               "dpp_probes": 8, "identity_probes": 20, "isaacs_probes": 10,
               "random_pairs": 500, "oracle_counts": [33, 33, 65]},
}


class TamperingRunner(Runner):
    """Alters the command's outputs before the gates see them."""

    def __init__(self, tamper, *args):
        super().__init__(*args)
        self.tamper = tamper

    def gate(self, outdir):
        self.tamper(Path(outdir))
        return super().gate(outdir)


def tamper_slice(outdir: Path, ref: dict) -> None:
    node = ref["nodes"][len(ref["nodes"]) // 2]
    path = outdir / "slice_001.bin"
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[node] += 1e-9
    path.write_bytes(values.tobytes())


def fail_one_check(outdir: Path) -> None:
    path = outdir / "verify.json"
    bundle = json.loads(path.read_text())
    bundle["checks"][-1]["passed"] = False
    path.write_text(json.dumps(bundle))


def expect(cond: bool, what: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def main() -> int:
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    problems: list[str] = []
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / ".work"))
    try:
        # references from clean tiny runs
        env = child_env(src)
        refs = {}
        for command, scenario in (("solve", TINY_SOLVE), ("verify", TINY_VERIFY)):
            path, out = work / f"{command}.json", work / f"ref-{command}"
            path.write_text(json.dumps(scenario))
            _, _, rc = run_process([sys.executable, "-m", "heisgame.cli", command,
                                    str(path), "--out", str(out)],
                                   work, env, 120.0, work / "ref.log")
            expect(rc == 0, f"tiny {command} exits 0", problems)
            refs[command] = (gates.solve_reference(out) if command == "solve"
                             else gates.verify_reference({3: gates.verify_verdicts(out)}))

        def runner(command, scenario, tamper=None, name="", ref=None):
            d = work / f"{command}-{name}"
            d.mkdir()
            cls_args = (command, scenario, ref or refs[command], scenario["seed"], src,
                        d, started)
            r = TamperingRunner(tamper, *cls_args) if tamper else Runner(*cls_args)
            r.setup()
            return r

        clean = runner("solve", TINY_SOLVE, name="clean")
        attempts = [clean.attempt()]
        expect(failed_count(attempts) == 0, "clean solve passes the gates", problems)

        tampered = runner("solve", TINY_SOLVE, lambda d: tamper_slice(d, refs["solve"]),
                          name="tampered")
        attempts.append(tampered.attempt())
        expect(failed_count(attempts) == 1
               and any("reference" in f for f in attempts[-1].failures),
               "tampered value slice is counted as a failure", problems)

        verify = runner("verify", TINY_VERIFY, name="clean")
        attempts = [verify.attempt()]
        expect(failed_count(attempts) == 0, "clean verify passes the gates", problems)
        failing = runner("verify", TINY_VERIFY, fail_one_check, name="failing")
        attempts.append(failing.attempt())
        expect(failed_count(attempts) == 1
               and any("failed" in f for f in attempts[-1].failures),
               "verify check marked failed is counted as a failure", problems)
        # the oracle check's tolerance does not hold on a 9x9x17 oracle grid
        coarse = {**TINY_VERIFY, "verify": {**TINY_VERIFY["verify"],
                                            "oracle_counts": [9, 9, 17]}}
        attempts.append(runner("verify", coarse, name="coarse").attempt())
        expect(failed_count(attempts) == 2 and any(
            f.startswith("check oracle_equivalence_small_n failed")
            for f in attempts[-1].failures),
               "verify whose check fails is counted as a failure", problems)
        # ... unless the reference recorded that check failing at this seed
        known = {**refs["verify"], "failing": {"3": ["oracle_equivalence_small_n"]}}
        attempts = [runner("verify", coarse, name="known", ref=known).attempt()]
        expect(failed_count(attempts) == 0,
               "check failing as in the reference is not a failure", problems)

        # traced serial solve: layer accounting and counters
        spans = work / "serial.npz"
        traced = clean.attempt(spans)
        expect(not traced.failures, "traced solve passes the gates", problems)
        m = tracer.layer_metrics(spans, traced.wall_s, traced.wall_s)
        layers = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES)
        expect(abs(layers - traced.wall_s) < 1e-9 and m["cli.self_s"] > 0,
               "module self times add up to the traced command", problems)
        mz = len(clean.lattices[1].points)
        expect(m["grids.interp_values.calls"] == TINY_SOLVE["time_steps"] * mz,
               "one interpolation call per step and z", problems)
        expect(m["grids.interp_values.points"] == m["grids.interp_values.calls"] * 9 * 9 * 17,
               "interpolation points counted", problems)
        expect(m["game.threads_used"] == 1 and m["catalog.cost.calls"] > 0
               and m["grids.bytes_written"] > 0, "serial counters recorded", problems)

        # threaded solve: worker spans hang under backward_induction
        threaded = {**TINY_SOLVE, "time_steps": 1,
                    "grid": {**TINY_SOLVE["grid"], "counts": [33, 33, 33]}}
        path = work / "threaded.json"
        path.write_text(json.dumps(threaded))
        spans = work / "threaded.npz"
        _, _, rc = run_process([sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                                "solve", str(path), "--out", str(work / "threaded"),
                                "--threads", "2"], work, env, 120.0, work / "thr.log")
        with np.load(spans) as z:
            names = z["names"][z["name"]]
            by_id = dict(zip(z["sid"].tolist(), names.tolist()))
            interp = names == "grids.interp_values"
            parents = {by_id.get(p) for p in z["parent"][interp].tolist()}
            solve_tid = set(z["tid"][names == "game.backward_induction"].tolist())
            worker_tids = set(z["tid"][interp].tolist())
        expect(rc == 0 and parents == {"game.backward_induction"}
               and not worker_tids & solve_tid,
               "worker-thread spans take backward_induction as parent", problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not problems else f"FAILED: {problems}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
