"""Span tracer for heisgame, installed from outside the package.

``Tracer.install`` wraps the public functions of every heisgame module at
each name its callers look up: a function imported into another module's
namespace (``heisgame.game.interp_values``) is rebound there too, and
methods are replaced on their class (``heisgame.heis.Box.contains``).
Each call records a span (name, start, end, parent, thread id) in memory;
``dump`` writes them out once, when the traced command ends.  A span
opened in a worker thread with no open span of its own takes the open
``backward_induction`` span as its parent.  Work counters (points,
clamped points, bytes) are recorded in the same wrappers.

``layer_metrics`` turns a dump into per-layer numbers.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("scenario", "catalog", "heis", "flow", "grids", "game", "hji", "checks", "cli")

# (module, attribute or Class.method) of every traced public function
TARGETS = (
    ("scenario", "load_scenario"),
    ("scenario", "parse_scenario"),
    ("scenario", "Scenario.make_lattices"),
    ("catalog", "make_hamiltonian"),
    ("catalog", "make_terminal"),
    ("catalog", "make_running_cost"),
    ("heis", "Box.contains"),
    ("heis", "eval_field"),
    ("heis", "dist_g"),
    ("heis", "h_convexity_check"),
    ("flow", "exact_step"),
    ("flow", "integrate"),
    ("flow", "rk4_reference"),
    ("flow", "check_reach_bound"),
    ("flow", "check_translation_identity"),
    ("flow", "check_shifted_start_bound"),
    ("flow", "write_trajectory_csv"),
    ("grids", "interp_values"),
    ("grids", "sample_field"),
    ("grids", "certify_region"),
    ("grids", "write_value_grid"),
    ("grids", "read_value_grid"),
    ("game", "make_lattice"),
    ("game", "backward_induction"),
    ("game", "brute_force_value"),
    ("game", "dpp_residual"),
    ("game", "lipschitz_audit"),
    ("game", "isaacs_gap"),
    ("game", "lower_hamiltonian"),
    ("game", "upper_hamiltonian"),
    ("hji", "build_game"),
    ("hji", "hamiltonian_identity_check"),
    ("hji", "uniqueness_initial_trace"),
    ("checks", "run_verification"),
    ("checks", "check_group_axioms"),
    ("checks", "check_flow_exactness"),
    ("checks", "check_reach"),
    ("checks", "check_translation"),
    ("checks", "check_shifted_start"),
    ("cli", "main"),
)
# calls into the cost callables that the catalog builders return
COST_SPAN = "catalog.cost"
SOLVE_SPAN = "game.backward_induction"
INTERP_SPAN = "grids.interp_values"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._solve_span = -1  # parent for spans opened in solver worker threads

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counters[key] += int(n)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, out)``
        may count work and returns the (possibly replaced) result."""
        spans, local, ids = self.spans, self._local, self._ids
        clock, ident = time.perf_counter, threading.get_ident
        is_solve = name == SOLVE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._solve_span
            sid = next(ids)
            stack.append(sid)
            if is_solve:
                outer, self._solve_span = self._solve_span, sid
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_solve:
                    self._solve_span = outer
                spans.append((sid, name, start, end, parent, ident()))
            return out if after is None else after(args, kwargs, out)

        return traced

    def _after(self, name):
        if name == "grids.interp_values":
            def after(args, kwargs, out):
                n = len(_arg(args, kwargs, 2, "pts"))
                self.count("grids.interp_values.points", n)
                self.count("grids.interp_values.clamped", n - int(np.count_nonzero(out[1])))
                return out
        elif name == "flow.exact_step":
            def after(args, kwargs, out):
                self.count("flow.exact_step.points", np.size(out) // 3)
                return out
        elif name == "grids.write_value_grid":
            def after(args, kwargs, out):
                self.count("grids.bytes_written", _dir_bytes(_arg(args, kwargs, 1, "outdir")))
                return out
        elif name.startswith("catalog.make_"):
            cost = functools.partial(self.wrap, COST_SPAN)

            def after(args, kwargs, model):
                extra = {}
                if getattr(model, "coupling_base", None) is not None:
                    extra["coupling_base"] = cost(model.coupling_base)
                return dataclasses.replace(model, fn=cost(model.fn), **extra)
        else:
            after = None
        return after

    def install(self) -> None:
        """Wrap every target at each heisgame namespace binding it."""
        import importlib

        for module in MODULES:
            importlib.import_module(f"heisgame.{module}")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "heisgame" or k.startswith("heisgame.")]
        for module, attr in TARGETS:
            mod = sys.modules[f"heisgame.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), self._after(name)))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, self._after(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)

    def dump(self, path) -> None:
        spans = sorted(self.spans)
        names = sorted({s[1] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        tids = {t: i for i, t in enumerate(dict.fromkeys(s[5] for s in spans))}
        arr = lambda k, dtype: np.array([s[k] for s in spans], dtype=dtype)
        np.savez(
            path,
            sid=arr(0, np.int64),
            name=np.array([index[s[1]] for s in spans], dtype=np.int32),
            start=arr(2, np.float64),
            end=arr(3, np.float64),
            parent=arr(4, np.int64),
            tid=np.array([tids[s[5]] for s in spans], dtype=np.int32),
            names=np.array(names, dtype=str),
            counters=np.array(json.dumps(self.counters)),
        )


def _self_times(start, end, parent, pos) -> np.ndarray:
    """Duration minus the union of the child intervals, per span."""
    selfs = end - start
    children = defaultdict(list)
    for i in np.argsort(start, kind="stable"):
        if parent[i] >= 0:
            children[pos[parent[i]]].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_s, cur_e = 0.0, None, None
        for k in kids:  # sorted by start
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        selfs[p] -= covered
    return selfs


def layer_metrics(path, command_s: float, untraced_command_s: float) -> dict:
    """Per-layer numbers from a dump, for a traced command of ``command_s``."""
    with np.load(path) as z:
        sid, name_idx = z["sid"], z["name"]
        start, end, parent, tid = z["start"], z["end"], z["parent"], z["tid"]
        names = [str(n) for n in z["names"]]
        counters = defaultdict(int, json.loads(str(z["counters"])))
    span_names = np.array(names, dtype=object)[name_idx]
    pos = np.empty(int(sid.max()) + 1, dtype=np.int64)
    pos[sid] = np.arange(len(sid))
    selfs = _self_times(start, end, parent, pos)
    dur = end - start

    out: dict[str, float] = {}
    all_names = {f"{m}.{a}" for m, a in TARGETS} | {COST_SPAN}
    for n in all_names:
        mask = span_names == n
        out[f"{n}_s"] = float(dur[mask].sum())
        out[f"{n}.calls"] = int(mask.sum())
        out[f"{n}.self_s"] = float(selfs[mask].sum())
    modules = np.array([n.split(".")[0] for n in span_names], dtype=object)
    for m in MODULES:
        out[f"{m}.self_s"] = float(selfs[modules == m].sum())
    out["cli.self_s"] = command_s - sum(out[f"{m}.self_s"] for m in MODULES if m != "cli")

    # threads that ran interpolation under one backward_induction call
    solve_ids = set(sid[span_names == SOLVE_SPAN].tolist())
    per_solve = defaultdict(set)
    for i in np.nonzero(span_names == INTERP_SPAN)[0]:
        p = parent[i]
        while p >= 0 and p not in solve_ids:
            p = parent[pos[p]]
        if p >= 0:
            per_solve[p].add(int(tid[i]))
    out["game.threads_used"] = max((len(t) for t in per_solve.values()), default=0)

    points = counters["grids.interp_values.points"]
    out["grids.interp_values.points"] = points
    out["grids.interp_values.clamped_share"] = (
        counters["grids.interp_values.clamped"] / points if points else 0.0)
    out["grids.interp_values.ns_per_point"] = (
        out[f"{INTERP_SPAN}_s"] / points * 1e9 if points else 0.0)
    out["flow.exact_step.points"] = counters["flow.exact_step.points"]
    out["grids.bytes_written"] = counters["grids.bytes_written"]
    out["trace.command_s"] = command_s
    out["trace.overhead_s"] = command_s - untraced_command_s
    out["trace.spans"] = len(sid)
    return out
