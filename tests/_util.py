"""Shared helpers: the canonical problem and batched trajectory math."""

from pathlib import Path

import numpy as np

from heisgame.flow import exact_step
from heisgame.game import COVERING_SAMPLING, _backup
from heisgame.heis import Box, ball_points
from heisgame.scenario import load_scenario

DEFAULT_BOX = Box([-4.0, -4.0, -8.0], [4.0, 4.0, 8.0])
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def canonical_problem():
    """Problem and game of ``scenarios/canonical.json``: norm Hamiltonian
    with gauge datum on ``DEFAULT_BOX``, K=1, D1p=0, C2p=1, both
    reflections declared."""
    sc = load_scenario(SCENARIOS / "canonical.json")
    return sc.problem, sc.game


def batch_controls(rng, n, radius, segments=4, t_end=1.0):
    """Random piecewise-constant controls sharing a segment count.

    Returns breakpoints ``(n, m)`` (strictly increasing, last exactly
    ``t_end``) and values ``(n, m, 2)`` inside the radius ball.
    """
    gaps = rng.random((n, segments)) + 0.05
    cum = np.cumsum(gaps, axis=1)
    breaks = cum / cum[:, -1:] * t_end
    values = ball_points(rng, radius, (n, segments))
    return breaks, values


def batch_trajectory(xi, breaks, values, per_segment=16):
    """Exact flow of many controls at once (all start at t = 0).

    Returns sample times ``(n, k)`` and points ``(n, k, 3)`` including
    the start; per-segment sampling is uniform and includes segment ends.
    """
    from heisgame.heis import group_mul

    xi = np.asarray(xi, dtype=float)
    n, m = breaks.shape
    frac = np.linspace(0.0, 1.0, per_segment + 1)[1:]
    all_t = [np.zeros((n, 1))]
    all_p = [xi[:, None, :]]
    t_prev = np.zeros(n)
    x_prev = xi
    for j in range(m):
        seg_len = breaks[:, j] - t_prev
        h = seg_len[:, None] * frac[None, :]
        z = values[:, j]
        d1 = h * z[:, None, 0]
        d2 = h * z[:, None, 1]
        shift = np.stack([d1, d2, np.zeros_like(d1)], axis=-1)
        pts = group_mul(x_prev[:, None, :], shift)
        all_t.append(t_prev[:, None] + h)
        all_p.append(pts)
        x_prev = pts[:, -1]
        t_prev = breaks[:, j]
    return np.concatenate(all_t, axis=1), np.concatenate(all_p, axis=1)


def depth_first_value(spec, pts, t_start, steps, h, y_lattice, z_lattice, which, leaf):
    """The grid-free alternating expansion with one recursive call per
    lattice ``z``: reference for the breadth-first ``_alternating_value``."""
    if steps == 0:
        return np.asarray(leaf(pts), dtype=float)
    W = np.empty((len(z_lattice.points), len(pts)))
    for j, z in enumerate(z_lattice.points):
        W[j] = depth_first_value(spec, exact_step(pts, -z, h), t_start + h,
                                 steps - 1, h, y_lattice, z_lattice, which, leaf)
    return _backup(spec, t_start, h, pts, W, y_lattice, z_lattice, which)


def covering_radius_reference(points, radius):
    """The covering radius in 4096-sample chunks with one temporary per
    operation: reference for ``game._covering_radius``."""
    if radius == 0.0:
        return 0.0
    rr = np.linspace(0.0, radius, COVERING_SAMPLING["n_radial"])
    aa = np.linspace(0.0, 2 * np.pi, COVERING_SAMPLING["n_angular"], endpoint=False)
    r, a = np.meshgrid(rr, aa)
    samples = np.stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()], axis=-1)
    p_sq = (points ** 2).sum(-1)
    worst = 0.0
    for k in range(0, len(samples), 4096):
        s = samples[k:k + 4096]
        d_sq = (s ** 2).sum(-1)[:, None] + p_sq[None, :] - 2.0 * (s @ points.T)
        worst = max(worst, float(np.sqrt(np.maximum(d_sq, 0.0).min(axis=1)).max()))
    return worst


def integrate_reference(xi, u, samples_per_segment=0, extra_times=None):
    """The exact flow one segment at a time: reference for the batched
    sampler behind ``flow.integrate`` and the flow checks."""
    xi = np.asarray(xi, dtype=float).reshape(3)
    wanted = [np.array([u.t0]), u.breakpoints]
    if samples_per_segment:
        start = u.t0
        for end in u.breakpoints:
            wanted.append(np.linspace(start, end, samples_per_segment + 1)[1:])
            start = end
    if extra_times is not None:
        wanted.append(np.asarray(extra_times, dtype=float))
    times = np.unique(np.concatenate(wanted))
    points = np.empty((len(times), 3))
    points[0] = xi
    x_cur, t_cur, filled = xi, u.t0, 1
    for end, z in zip(u.breakpoints, u.values):
        in_seg = times[(times > t_cur) & (times <= end)]
        points[filled:filled + len(in_seg)] = exact_step(x_cur, z, in_seg - t_cur)
        filled += len(in_seg)
        x_cur = exact_step(x_cur, z, end - t_cur)
        t_cur = end
    return times, points


def flow_checks_reference(rng, n_reach, n_translation, n_shift, radii=(0.5, 1.0, 2.0)):
    """The battery's reach, translation and shifted-start checks with one
    loop iteration per instance, drawing as ``checks`` does: reference for
    the batched checks.  Returns the four measured worst values."""
    from heisgame.checks import random_control
    from heisgame.flow import LipschitzConstants
    from heisgame.heis import dist_g, group_mul, inverse

    reach = 0.0
    for i in range(n_reach):
        r_z = radii[i % len(radii)]
        xi = rng.uniform(-2, 2, 3)
        times, pts = integrate_reference(xi, random_control(rng, r_z), 64)
        dt = times - times[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(dt > 0, dist_g(pts, xi) / (3.0 * r_z * dt), 0.0)
        reach = max(reach, float(ratios.max()))

    deviation, gronwall = 0.0, 0.0
    c_hat = LipschitzConstants(1.0, 1.0, 0.0, 0.0, 0.0).c_hat
    for _ in range(n_translation):
        xi = rng.uniform(-2, 2, 3)
        xi_hat = rng.uniform(-2, 2, 3)
        u = random_control(rng, 1.0)
        _, pts = integrate_reference(xi, u, 64)
        _, pts_hat = integrate_reference(xi_hat, u, 64)
        translated = group_mul(group_mul(xi_hat, inverse(xi)), pts)
        deviation = max(deviation, float(np.linalg.norm(pts_hat - translated, axis=-1).max()))
        gronwall = max(gronwall, float(dist_g(pts, pts_hat).max() / (c_hat * float(dist_g(xi, xi_hat)))))

    shift = 0.0
    c_tilde = LipschitzConstants(1.0, 1.0, 0.0, 0.0, 0.0).c_tilde
    for _ in range(n_shift):
        xi = rng.uniform(-2, 2, 3)
        xi_tilde = rng.uniform(-2, 2, 3)
        tau_prime = float(rng.random() * 0.9)
        u = random_control(rng, 1.0)
        late_t, late = integrate_reference(xi_tilde, u.restrict(tau_prime), 64)
        full_t, full = integrate_reference(xi, u, extra_times=late_t)
        sep = dist_g(full[np.searchsorted(full_t, late_t)], late).max()
        shift = max(shift, sep / (c_tilde * (float(dist_g(xi_tilde, xi)) + tau_prime)))
    return reach, deviation, gronwall, shift
