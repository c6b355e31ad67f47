"""Verification battery: one self-contained check per structural property.

Each check returns a :class:`CheckResult` carrying the inequality or
identity it verified (as a formula string), the bound, the measured
value, and a pass flag.  The battery backs the ``verify`` CLI command;
the same checks run at larger sample sizes in the test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field

import numpy as np

from .heis import (
    ball_points,
    dilate,
    dist_g,
    gauge,
    group_mul,
    h_convexity_check,
    inverse,
)
from .flow import (
    PiecewiseConstantControl,
    check_reach_bound,
    check_shifted_start_bound,
    check_translation_identity,
    _batches,
    _flow_at,
    _rk4_at,
)
from .grids import sample_field
from .game import (
    backward_induction,
    brute_force_value,
    dpp_residual,
    isaacs_gap,
    lipschitz_audit,
    make_lattice,
)
from .hji import covering_error_bound, hamiltonian_identity_check, uniqueness_initial_trace
from .scenario import Scenario

__all__ = ["CheckResult", "run_verification", "random_control", "oracle_solve"]


def oracle_solve(sc: Scenario) -> tuple:
    """Grid counts, time steps and the ``make_lattice`` arguments of the ``y``
    and ``z`` lattices of the small-N oracle's solve; the 5e-2 tolerance of
    its check is calibrated at 33x33x65, which a coarser scenario can
    request through ``verify.oracle_counts``."""
    return sc.verify["oracle_counts"], 3, (sc.game.r_y, 1, 8), (sc.game.r_z, 1, 8)


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    constant: float
    measured: float
    passed: bool
    detail: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "constant": self.constant,
            "measured": self.measured,
            "passed": bool(self.passed),
            "detail": self.detail,
        }


def random_control(
    rng: np.random.Generator,
    radius: float,
    t0: float = 0.0,
    t_end: float = 1.0,
    max_segments: int = 5,
) -> PiecewiseConstantControl:
    m = int(rng.integers(1, max_segments + 1))
    while True:
        cuts = np.sort(t0 + (t_end - t0) * rng.random(m - 1))
        bp = np.concatenate([cuts, [t_end]])
        if (np.diff(np.concatenate(([t0], bp))) > 0).all():
            break
    return PiecewiseConstantControl(t0, bp, ball_points(rng, radius, m))


def _columns(draws: list, k: int) -> list:
    """The ``k`` columns of a list of drawn ``k``-tuples."""
    return [list(col) for col in zip(*draws)] or [[] for _ in range(k)]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_group_axioms(n: int, rng: np.random.Generator) -> list[CheckResult]:
    a, b, c = (rng.uniform(-5, 5, (n, 3)) for _ in range(3))
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    assoc = float(np.linalg.norm(lhs - rhs, axis=-1).max())

    x = rng.uniform(-5, 5, (n, 3))
    ident = float(np.abs(group_mul(x, np.zeros(3)) - x).max())
    inv = float(gauge(group_mul(inverse(x), x)).max())

    y = rng.uniform(-5, 5, (n, 3))
    d_plain = dist_g(x, y)
    d_moved = dist_g(group_mul(a, x), group_mul(a, y))
    left_inv = float(np.abs(d_plain - d_moved).max())

    lam = rng.uniform(0.1, 4.0, n)
    gx = gauge(x)
    homog = float((np.abs(gauge(dilate(lam, x)) - lam * gx) / (1 + lam * gx)).max())

    sym = float(np.abs(gauge(x) - gauge(inverse(x))).max())
    rev_tri = float((np.abs(gauge(x) - gauge(y)) - d_plain).max())

    tol = 1e-12
    return [
        CheckResult("group_associativity", "|(a o b) o c - a o (b o c)| <= tol",
                    tol, assoc, assoc <= tol, {"n": n}),
        CheckResult("group_identity", "x o e = x exactly", tol, ident, ident <= tol),
        CheckResult("group_inverse", "||x^-1 o x||_G = 0", tol, inv, inv <= tol),
        CheckResult("dist_left_invariance", "d_G(a o x, a o y) = d_G(x, y)",
                    tol, left_inv, left_inv <= tol, {"n": n}),
        CheckResult("gauge_homogeneity",
                    "||dilate(lam, x)||_G = lam * ||x||_G (relative)",
                    tol, homog, homog <= tol),
        CheckResult("gauge_symmetry", "||x^-1||_G = ||x||_G", tol, sym, sym <= tol),
        CheckResult("gauge_reverse_triangle",
                    "| ||x||_G - ||y||_G | <= d_G(x, y) + tol",
                    tol, rev_tri, rev_tri <= tol),
    ]


def check_flow_exactness(n: int, rng: np.random.Generator,
                         substeps: int = 1000) -> CheckResult:
    # endpoint agreement in the Euclidean norm: a rounding-scale defect has
    # gauge equal to the square root of its vertical part, which no
    # float64 integrator pair can keep near machine precision
    draws = [(rng.uniform(-2, 2, 3), random_control(rng, 2.0)) for _ in range(n)]
    xis, controls = _columns(draws, 2)
    xis, exact, rk4 = np.reshape(xis, (-1, 3)), np.empty((n, 3)), np.empty((n, 3))
    for idx, t0, bp, vals in _batches(controls, substeps):
        exact[idx] = _flow_at(xis[idx], t0, bp, vals, bp[:, -1:])[:, 0]
        rk4[idx] = _rk4_at(xis[idx], t0, bp, vals, substeps)[:, -1]
    # one norm per endpoint: a vector's norm is a BLAS dot, rounded unlike axis=1
    worst = max([0.0] + [float(np.linalg.norm(d)) for d in exact - rk4])
    worst_gauge = float(dist_g(exact, rk4).max(initial=0.0))
    return CheckResult(
        "flow_exactness", "|exact endpoint - RK4 endpoint| <= tol",
        1e-10, worst, worst <= 1e-10,
        {"n": n, "substeps": substeps, "gauge_distance": worst_gauge},
    )


def check_reach(n: int, rng: np.random.Generator,
                radii=(0.5, 1.0, 2.0)) -> CheckResult:
    r_z = [radii[i % len(radii)] for i in range(n)]
    draws = [(rng.uniform(-2, 2, 3), random_control(rng, r)) for r in r_z]
    rep = check_reach_bound(*_columns(draws, 2), r_z)
    worst = float(rep.worst_ratio.max(initial=0.0))
    return CheckResult(
        "reach_bound", "d_G(xi, x(t)) <= 3*R_Z*(t - tau)",
        1 + 1e-9, worst, worst <= 1 + 1e-9, {"n": n, "radii": list(radii)},
    )


def check_translation(n: int, rng: np.random.Generator) -> list[CheckResult]:
    draws = [(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), random_control(rng, 1.0))
             for _ in range(n)]
    rep = check_translation_identity(*_columns(draws, 3), r_z=1.0)
    worst_dev = float(rep.max_deviation.max(initial=0.0))
    worst_ratio = float(rep.gronwall_ratio.max(initial=0.0))
    return [
        CheckResult("translation_identity", "xhat(t) = xihat o xi^-1 o x(t)",
                    1e-10, worst_dev, worst_dev <= 1e-10, {"n": n}),
        CheckResult("separation_gronwall",
                    "d_G(x(t), xhat(t)) <= exp(T*R_Z/2) * d_G(xi, xihat)",
                    1 + 1e-9, worst_ratio, worst_ratio <= 1 + 1e-9, {"n": n}),
    ]


def check_shifted_start(n: int, rng: np.random.Generator) -> CheckResult:
    draws = [(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), float(rng.random() * 0.9),
              random_control(rng, 1.0)) for _ in range(n)]
    xis, xi_tildes, tau_primes, controls = _columns(draws, 4)
    rep = check_shifted_start_bound(xis, xi_tildes, 0.0, tau_primes, controls, 1.0)
    worst = float(rep.worst_ratio.max(initial=0.0))
    return CheckResult(
        "shifted_start_bound",
        "d_G(x(t), xtilde(t)) <= (1+3*R_Z)*exp(T*R_Z/2)*(d_G + (tau' - tau))",
        1 + 1e-9, worst, worst <= 1 + 1e-9, {"n": n},
    )


# ---------------------------------------------------------------------------
# scenario-level battery
# ---------------------------------------------------------------------------

def _oracle_gap(spec, box, counts, n_steps, y_lat, z_lat, pick, threads=0) -> float:
    """Largest ``|solve - grid-free recursion|`` at t = 0 on the nodes ``pick(solve)`` indexes."""
    v = backward_induction(spec, box, counts, n_steps, y_lat, z_lat, threads=threads)
    idx = pick(v)
    bf = brute_force_value(spec, np.column_stack([a[i] for a, i in zip(v.axes(), idx)]),
                           n_steps, y_lat, z_lat)
    return float(np.abs(bf - v.data[(0, *idx)]).max())


def _probe_triples(sc: Scenario, n: int, seed: int):
    """``n`` probes ``(t, x, lam)`` of ``default_rng(seed)``: box points, times, then ``lam``."""
    rng = np.random.default_rng(seed)
    pts = sc.box.sample(n, rng)
    return rng.random(n) * sc.horizon, pts, ball_points(rng, sc.game.r_y, n)


def run_verification(sc: Scenario, y_lat, z_lat, threads: int = 0) -> list[CheckResult]:
    """Full battery on a scenario; heavier checks reuse one baseline solve.

    ``y_lat``, ``z_lat`` are the scenario's lattices.  Sample sizes come
    from the scenario's ``verify`` section, which ``parse_scenario`` fills
    with defaults sized for an interactive run.
    """
    cfg = sc.verify
    rng = np.random.default_rng(sc.seed)
    results: list[CheckResult] = []

    results += check_group_axioms(cfg["group_samples"], rng)
    results.append(check_flow_exactness(cfg["flow_controls"], rng))
    results.append(check_reach(cfg["reach_instances"], rng))
    results += check_translation(cfg["translation_instances"], rng)
    results.append(check_shifted_start(cfg["shift_instances"], rng))

    # horizontal convexity of the scenario's datum / terminal cost
    conv = h_convexity_check(
        sc.game.terminal_cost, sc.box,
        directions=cfg["convexity_directions"],
        probes=cfg["convexity_probes"], rng=rng,
    )
    results.append(CheckResult(
        "h_convexity", "s -> g(x o (s*w, 0)) is midpoint convex",
        1e-9, conv.worst_violation,
        conv.passed if sc.h_convex else True,
        {"asserted": sc.h_convex, "sampled_pass": bool(conv.passed)},
    ))

    oracle_counts, oracle_steps, *lattices = oracle_solve(sc)
    y9, z9 = (make_lattice(*args) for args in lattices)

    # oracle equivalence, frozen dynamics (r_z = 0): grid-free recursion is exact
    frozen = dataclasses.replace(sc.game, r_z=0.0)
    pick = lambda v: np.unravel_index(np.linspace(0, 9 ** 3 - 1, 27).astype(int), (9, 9, 9))
    worst = _oracle_gap(frozen, sc.box, (9, 9, 9), 3, y9, make_lattice(0.0), pick)
    results.append(CheckResult(
        "oracle_equivalence_frozen",
        "backward induction = grid-free recursion when R_Z = 0",
        1e-12, worst, worst <= 1e-12, {"nodes": 27},
    ))

    # oracle equivalence with motion: small N, small lattices
    n_nodes = cfg["oracle_nodes"]
    # node by node, i, j then l: the draw order fixes which nodes a seed picks
    pick = lambda v: np.array([[rng.integers(s.start, s.stop) for s in v.region_index_bounds()]
                               for _ in range(n_nodes)]).T
    worst = _oracle_gap(sc.game, sc.box, oracle_counts, oracle_steps, y9, z9, pick, threads)
    results.append(CheckResult(
        "oracle_equivalence_small_n",
        "|backward induction - grid-free recursion| <= interpolation tolerance",
        5e-2, worst, worst <= 5e-2, {"nodes": n_nodes, "time_steps": oracle_steps},
    ))

    # the baseline solve feeds the dynamic-programming and regularity audits
    audited = sc.solve(y_lat, z_lat, threads=threads)
    value = audited.reversed_time() if sc.kind == "hji" else audited

    dpp = dpp_residual(audited, sc.game, y_lat, z_lat,
                       probes=cfg["dpp_probes"], sigma_steps=2,
                       rng=np.random.default_rng(sc.seed + 1))
    results.append(CheckResult(
        "dpp_residual",
        "two-step alternating recomputation matches the stored value",
        5e-2, dpp.max_residual, dpp.max_residual <= 5e-2,
        {"probes": dpp.n_evaluated, "sigma_steps": dpp.sigma_steps},
    ))

    for rep in lipschitz_audit(
        audited, sc.game.constants,
        rng=np.random.default_rng(sc.seed + 2),
        n_random_pairs=cfg["random_pairs"],
    ):
        results.append(CheckResult(
            "lipschitz_" + rep.quantity,
            "|dV| ratio <= constant * (1 + slack)",
            rep.constant * (1 + rep.slack), rep.worst_ratio, rep.passed,
            {"constant": rep.constant, "slack": rep.slack},
        ))

    # lattice min-max gap
    n_probes = cfg["isaacs_probes"]
    gap = isaacs_gap(sc.game, _probe_triples(sc, n_probes, sc.seed + 3), y_lat, z_lat)
    cov = y_lat.covering_radius + z_lat.covering_radius
    if sc.kind == "hji":
        gap_bound = 2 * covering_error_bound(sc.problem, sc.game, y_lat, z_lat)
        asserted = True
    elif sc.raw["running_cost"]["name"] == "coupling":
        gap_bound = 2 * cov
        asserted = True
    else:
        gap_bound = float("inf")
        asserted = False
    results.append(CheckResult(
        "isaacs_lattice_gap", "min-max minus max-min over the lattices",
        gap_bound, gap.max_gap,
        gap.max_gap <= gap_bound if asserted else True,
        {"probes": n_probes, "asserted": asserted},
    ))

    if sc.kind == "hji":
        n_id = cfg["identity_probes"]
        rep = hamiltonian_identity_check(sc.problem, sc.game, y_lat, z_lat,
                                         _probe_triples(sc, n_id, sc.seed + 4))
        bound = 2 * rep.expected_bound
        results.append(CheckResult(
            "hamiltonian_identity",
            "H_minus(T - t, x, lam) = -Ham(t, x, lam) on the y-ball",
            bound, rep.max_error, rep.max_error <= bound,
            {"probes": n_id, "expected_bound": rep.expected_bound},
        ))

        trace = uniqueness_initial_trace(value, sc.game)
        results.append(CheckResult(
            "uniqueness_initial_trace",
            "sup |U(dt, .) - U(0, .)| <= (C1 + 3*R_Z*C2p) * dt * (1 + slack)",
            trace.bound, trace.sup_gap, trace.ok, {"dt": trace.dt},
        ))

        datum = sample_field(sc.problem.initial, sc.box, sc.counts)
        gap0 = float(np.abs(value.data[0] - datum.values).max())
        results.append(CheckResult(
            "initial_slice_matches_datum", "U(0, .) equals the sampled datum",
            1e-15, gap0, gap0 <= 1e-15,
        ))

    return results
