"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line with the measured quantity so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
"""

import dataclasses
import time

import numpy as np
import pytest

from _util import DEFAULT_BOX, batch_controls, batch_trajectory, value_grid_from_function

from heisgame.heis import (
    Box,
    IDENTITY,
    ball_points,
    dist_g,
    gauge,
    group_mul,
    h_convexity_check,
    inverse,
)
from heisgame.flow import (
    PiecewiseConstantControl,
    check_shifted_start_bound,
    integrate,
    rk4_reference,
)
from heisgame.grids import grid_nodes, refinement_sup_diffs, sample_field
from heisgame.game import (
    backward_induction,
    brute_force_value,
    dpp_residual,
    lipschitz_audit,
    make_lattice,
)
from heisgame.catalog import make_hamiltonian, make_terminal
from heisgame.hji import (
    HjiProblem,
    build_game,
    hamiltonian_identity_check,
    pde_residual,
    solve,
)
from heisgame.checks import random_control

from conftest import BASELINE_COUNTS, BASELINE_STEPS


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_01_group_metric_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n = 10_000
    a, b, c = (rng.uniform(-5, 5, (n, 3)) for _ in range(3))
    assoc = np.linalg.norm(
        group_mul(group_mul(a, b), c) - group_mul(a, group_mul(b, c)), axis=-1
    ).max()
    x, y = (rng.uniform(-5, 5, (n, 3)) for _ in range(2))
    ident = np.abs(group_mul(x, IDENTITY) - x).max()
    inv = gauge(group_mul(inverse(x), x)).max()
    left = np.abs(dist_g(x, y) - dist_g(group_mul(a, x), group_mul(a, y))).max()
    lam = rng.uniform(0.1, 4.0, n)
    dil = np.stack([lam * x[:, 0], lam * x[:, 1], lam ** 2 * x[:, 2]], axis=-1)
    homog = (np.abs(gauge(dil) - lam * gauge(x)) / (1 + lam * gauge(x))).max()
    worst = max(assoc, ident, inv, left, homog)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(1, f"group/metric deviations <= {worst:.2e} over {n} instances "
              f"({elapsed:.2f} s)")


def test_criterion_02_flow_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    worst_gauge = 0.0
    for _ in range(1000):
        xi = rng.uniform(-2, 2, 3)
        u = random_control(rng, 2.0, t_end=1.0)
        e1 = integrate(xi, u).endpoint
        e2 = rk4_reference(xi, u, substeps=1000).endpoint
        worst = max(worst, float(np.linalg.norm(e1 - e2)))
        worst_gauge = max(worst_gauge, float(dist_g(e1, e2)))
    elapsed = time.monotonic() - t0
    # the gauge of a rounding-scale defect is the square root of its
    # vertical part, so the machine-precision assertion lives in the
    # Euclidean norm; the gauge distance is reported alongside
    assert worst <= 1e-10
    assert worst_gauge <= 1e-6
    assert elapsed < 30.0
    report(2, f"endpoint deviation <= {worst:.2e} (gauge {worst_gauge:.2e}) "
              f"over 1000 controls ({elapsed:.2f} s)")


def test_criterion_03_reach_bound():
    rng = np.random.default_rng(103)
    worst = 0.0
    total = 0
    for r_z in (0.5, 1.0, 2.0):
        n = 3334
        total += n
        breaks, values = batch_controls(rng, n, r_z)
        xi = rng.uniform(-2, 2, (n, 3))
        times, pts = batch_trajectory(xi, breaks, values, per_segment=16)
        d = dist_g(pts, xi[:, None, :])
        ratios = d[:, 1:] / (3 * r_z * times[:, 1:])
        worst = max(worst, float(ratios.max()))
    assert worst <= 1 + 1e-9
    report(3, f"reach ratio d_G/(3*R_Z*t) <= {worst:.9f} over {total} controls")


def test_criterion_04_translation_identity_and_gronwall():
    rng = np.random.default_rng(104)
    n = 10_000
    breaks, values = batch_controls(rng, n, 1.0, segments=4)
    xi = rng.uniform(-2, 2, (n, 3))
    xi_hat = rng.uniform(-2, 2, (n, 3))
    _, pts = batch_trajectory(xi, breaks, values, per_segment=8)
    _, pts_hat = batch_trajectory(xi_hat, breaks, values, per_segment=8)
    shift = group_mul(xi_hat, inverse(xi))
    translated = group_mul(shift[:, None, :], pts)
    deviation = float(np.linalg.norm(pts_hat - translated, axis=-1).max())
    c_hat = np.exp(0.5)  # T = 1, R_Z = 1
    d0 = dist_g(xi, xi_hat)
    ratios = dist_g(pts, pts_hat).max(axis=1) / (c_hat * d0)
    worst_ratio = float(ratios.max())
    assert deviation <= 1e-10
    assert worst_ratio <= 1 + 1e-9
    report(4, f"translation deviation <= {deviation:.2e}, Gronwall ratio "
              f"<= {worst_ratio:.9f} over {n} pairs")


def test_criterion_05_shifted_start_bound():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        xi, xi_tilde = rng.uniform(-2, 2, (2, 3))
        breaks, values = batch_controls(rng, 1, 1.0, segments=3)
        u = PiecewiseConstantControl(0.0, breaks[0], values[0])
        tau_prime = float(rng.random() * u.t_end)
        rep = check_shifted_start_bound([xi], [xi_tilde], 0.0, tau_prime, [u], 1.0,
                                        samples_per_segment=8)
        worst = max(worst, float(rep.worst_ratio[0]))
    assert worst <= 1 + 1e-9
    report(5, f"shifted-start ratio <= {worst:.9f} over 1000 instances")


def test_criterion_06_oracle_equivalence(canonical):
    t0 = time.monotonic()
    problem, spec = canonical

    # frozen dynamics: exact agreement
    frozen = dataclasses.replace(spec, r_z=0.0)
    y9 = make_lattice(spec.r_y, 1, 8)
    z0 = make_lattice(0.0)
    v0 = backward_induction(frozen, DEFAULT_BOX, (9, 9, 17), 3, y9, z0)
    nodes = grid_nodes(DEFAULT_BOX, (9, 9, 17))
    rng = np.random.default_rng(106)
    idx = rng.integers(0, len(nodes), 30)
    bf = brute_force_value(frozen, nodes[idx], 3, y9, z0)
    worst_frozen = float(np.abs(bf - v0.data[0].reshape(-1)[idx]).max())
    assert worst_frozen <= 1e-12

    # moving dynamics on the baseline grid: interpolation-limited agreement
    z9 = make_lattice(spec.r_z, 1, 8)
    v3 = backward_induction(spec, DEFAULT_BOX, BASELINE_COUNTS, 3, y9, z9)
    sl = v3.region_index_bounds()
    ax = v3.axes()
    idx = np.array([[rng.integers(s.start, s.stop) for s in sl] for _ in range(40)])
    bf = brute_force_value(spec, np.column_stack([a[i] for a, i in zip(ax, idx.T)]), 3, y9, z9)
    worst = float(np.abs(bf - v3.data[(0, *idx.T)]).max())
    elapsed = time.monotonic() - t0
    assert worst <= 5e-2
    assert elapsed < 60.0
    report(6, f"oracle gap: frozen {worst_frozen:.2e}, interpolated "
              f"{worst:.4f} <= 5e-2 ({elapsed:.1f} s)")


def test_criterion_07_dpp_residual(canonical, ladder_solutions, baseline_lattices):
    _, spec = canonical
    mid, base = ladder_solutions[1], ladder_solutions[2]
    y_mid = make_lattice(spec.r_y, 2, 8)
    z_mid = make_lattice(spec.r_z, 2, 8)
    rep_mid = dpp_residual(mid, spec, y_mid, z_mid, probes=64, sigma_steps=2,
                           rng=np.random.default_rng(107))
    y_lat, z_lat = baseline_lattices
    rep = dpp_residual(base, spec, y_lat, z_lat, probes=64, sigma_steps=2,
                       rng=np.random.default_rng(107))
    assert rep.max_residual <= 5e-2
    assert rep.max_residual <= rep_mid.max_residual + 1e-12
    report(7, f"two-step residual {rep.max_residual:.5f} <= 5e-2, down from "
              f"{rep_mid.max_residual:.5f} one level coarser")


def test_criterion_08_hamiltonian_identity(canonical):
    problem, spec = canonical
    rng = np.random.default_rng(108)
    n = 1000
    pts = DEFAULT_BOX.sample(n, rng)
    ts = rng.random(n) * problem.horizon
    lams = ball_points(rng, spec.r_y, n)
    errors = []
    for rings in (2, 4, 8):
        y_lat = make_lattice(spec.r_y, rings, 8)
        z_lat = make_lattice(spec.r_z, rings, 8)
        rep = hamiltonian_identity_check(problem, spec, y_lat, z_lat,
                                         (ts, pts, lams))
        if rings == 4:
            bound = 2 * (y_lat.covering_radius + z_lat.covering_radius) \
                * (1 + problem.lip_y)
            assert rep.max_error <= bound
            assert rep.max_error <= 0.1
        errors.append(rep.max_error)
    assert errors[1] <= errors[0] + 1e-3
    assert errors[2] <= errors[1] + 1e-3
    report(8, "identity error {:.4f} <= 0.1 at rings=4; ladder {} monotone"
           .format(errors[1], [round(e, 4) for e in errors]))


def test_criterion_09_lipschitz_audit(canonical, ladder_solutions):
    _, spec = canonical
    slack = 0.15
    ratios = {}
    for name, value in [("mid", ladder_solutions[1]), ("base", ladder_solutions[2])]:
        reports = lipschitz_audit(value, spec.constants,
                                  rng=np.random.default_rng(109))
        ratios[name] = {r.quantity: r for r in reports}
    base_sp = ratios["base"]["spatial_ratio_vs_c_sharp"]
    base_st = ratios["base"]["space_time_ratio_vs_c_prime"]
    assert spec.constants.c_sharp == pytest.approx(4 * np.exp(0.5), rel=1e-12)
    assert base_sp.worst_ratio <= spec.constants.c_sharp * (1 + slack)
    assert base_st.worst_ratio <= spec.constants.c_prime * (1 + slack)

    def excess(rep):
        return max(0.0, rep.worst_ratio - rep.constant)

    for q in ("spatial_ratio_vs_c_sharp", "space_time_ratio_vs_c_prime"):
        assert excess(ratios["base"][q]) <= excess(ratios["mid"][q]) + 1e-9

    # doubling the maximizer's radius must not change the audit outcome:
    # the constant does not involve R_Y
    big = dataclasses.replace(
        spec, r_y=2 * spec.r_y, c1=2 * spec.r_y + spec.r_z * 2 * spec.r_y,
    )
    y2 = make_lattice(big.r_y, 4, 8)
    z2 = make_lattice(big.r_z, 4, 8)
    v2 = backward_induction(big, DEFAULT_BOX, BASELINE_COUNTS, BASELINE_STEPS, y2, z2)
    rep2 = [r for r in lipschitz_audit(v2, big.constants,
                                       rng=np.random.default_rng(109))
            if r.quantity == "spatial_ratio_vs_c_sharp"][0]
    assert big.constants.c_sharp == pytest.approx(spec.constants.c_sharp, rel=1e-12)
    assert rep2.passed == base_sp.passed
    report(9, f"spatial ratio {base_sp.worst_ratio:.3f} <= "
              f"{spec.constants.c_sharp:.5f}*1.15; space-time {base_st.worst_ratio:.3f} <= "
              f"{spec.constants.c_prime:.5f}*1.15; doubled R_Y keeps pass status")


def test_criterion_10_closed_form_solutions():
    box = Box([-4, -4, -8], [4, 4, 8])
    counts = (17, 17, 33)

    c = 0.8
    ham = make_hamiltonian("constant", {"value": c})
    init = make_terminal("gauge", None, box)
    p = HjiProblem(1.0, ham.fn, init.fn, abs(c), 0.0, 0.0, init.c2, init.c2p)
    spec = build_game(p)
    u = solve(p, box, counts, 8, make_lattice(spec.r_y, 1, 8), make_lattice(0.0))
    g = sample_field(p.initial, box, counts).values
    worst = max(
        float(np.abs(u.data[k] - (g - c * t)).max())
        for k, t in enumerate(u.times)
    )
    assert worst <= 1e-10

    comp = make_hamiltonian("component", None)
    lin = make_terminal("affine", {"a": (1.0, 0.0, 0.0), "b": 0.0}, box)
    p2 = HjiProblem(1.0, comp.fn, lin.fn, 10.0, 0.0, 1.0, lin.c2, lin.c2p)
    u2 = value_grid_from_function(
        lambda t, pts: np.asarray(pts, dtype=float)[..., 0] - t,
        box, counts, 1.0, 8,
    )
    rep = pde_residual(u2, p2, n_probes=4000, rng=np.random.default_rng(110))
    assert rep.n_retained > 0
    assert rep.max <= 1e-8
    report(10, f"drifted datum reproduced to {worst:.2e}; plane-wave residual "
               f"{rep.max:.2e} <= 1e-8")


def test_criterion_11_convergence_and_runtime(ladder_solutions, baseline_solution):
    diffs = refinement_sup_diffs(ladder_solutions)
    ratio = diffs[0] / diffs[1]
    assert ratio >= 1.5
    assert baseline_solution.seconds <= 600.0
    report(11, f"sup-differences {diffs[0]:.4f} -> {diffs[1]:.4f} "
               f"(ratio {ratio:.3f} >= 1.5); baseline solve "
               f"{baseline_solution.seconds:.0f} s <= 600 s")


def test_criterion_12_h_convexity_checker():
    box = Box([-1, -1, -1], [1, 1, 1])
    rng = np.random.default_rng(112)
    assert h_convexity_check(gauge, box, rng=rng).passed
    affine = lambda p: 2 * np.asarray(p, dtype=float)[..., 0] \
        - np.asarray(p, dtype=float)[..., 1]
    assert h_convexity_check(affine, box, rng=rng).passed
    concave = lambda p: -(np.asarray(p, dtype=float)[..., 0] ** 2
                          + np.asarray(p, dtype=float)[..., 1] ** 2)
    rep = h_convexity_check(concave, box, rng=rng)
    assert not rep.passed
    assert rep.witness is not None
    base, w, _ = rep.witness
    report(12, f"gauge and affine pass; concave fails with witness at "
               f"x={np.round(base, 6).tolist()}, w={np.round(w, 6).tolist()}")
