"""Shared helpers: the canonical problem and batched trajectory math."""

import math
from pathlib import Path

import numpy as np

from heisgame.flow import PiecewiseConstantControl, exact_step
from heisgame.game import AUDIT_SLACK, AuditReport, _backup
from heisgame.grids import ValueGrid, sample_field
from heisgame.heis import Box, ball_points, dist_g
from heisgame.scenario import load_scenario

DEFAULT_BOX = Box([-4.0, -4.0, -8.0], [4.0, 4.0, 8.0])
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def canonical_problem():
    """Problem and game of ``scenarios/canonical.json``: norm Hamiltonian
    with gauge datum on ``DEFAULT_BOX``, K=1, D1p=0, C2p=1, both
    reflections declared."""
    sc = load_scenario(SCENARIOS / "canonical.json")
    return sc.problem, sc.game


def value_grid_from_function(fn, box, counts, horizon, n_steps):
    """``fn(t, points)`` sampled on the space-time grid, fully trusted, with
    the whole box as its certified region."""
    times = np.linspace(0.0, horizon, n_steps + 1)
    data = np.stack([sample_field(lambda p, t=t: fn(t, p), box, counts).values for t in times])
    return ValueGrid(box, times, data, box, np.ones_like(data, dtype=bool))


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


def lipschitz_audit_reference(V, constants, rng=None, n_random_pairs=20000):
    """The audit as four blocks, each with its own scan for the largest
    ratio and its witness: reference for ``game.lipschitz_audit``."""
    rng = rng or np.random.default_rng(0)
    slack = AUDIT_SLACK
    c_sharp = constants.c_sharp
    c_prime = constants.c_prime
    sl = V.region_index_bounds()
    sub = V.data[(slice(None),) + sl]
    nt, m1, m2, m3 = sub.shape
    if m1 * m2 * m3 < 2:
        raise ValueError("fewer than 2 nodes inside the certified region")
    ax = [a[s] for a, s in zip(V.axes(), sl)]
    coords = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
    times = V.times

    def witness_at(flat_idx, shape, axis):
        idx = np.unravel_index(flat_idx, shape)
        k = idx[0]
        a = list(idx[1:])
        b = list(idx[1:])
        b[axis] += 1
        return ((float(times[k]), coords[tuple(a)]),
                (float(times[k]), coords[tuple(b)]))

    # same-time, axis-adjacent pairs
    worst_sp, wit_sp = 0.0, None
    for axis in range(3):
        if sub.shape[axis + 1] < 2:
            continue
        dv = np.abs(np.diff(sub, axis=axis + 1))
        lead = coords.take(np.arange(coords.shape[axis] - 1), axis=axis)
        trail = coords.take(np.arange(1, coords.shape[axis]), axis=axis)
        dg = dist_g(trail, lead)
        ratios = dv / dg  # dg > 0 for distinct nodes
        k = int(np.argmax(ratios))
        if ratios.reshape(-1)[k] > worst_sp:
            worst_sp = float(ratios.reshape(-1)[k])
            wit_sp = witness_at(k, ratios.shape, axis)

    # random same-time pairs
    def sample_idx(count):
        return tuple(rng.integers(0, s, count) for s in (m1, m2, m3))

    npr = n_random_pairs
    kk = rng.integers(0, nt, npr)
    a_idx, b_idx = sample_idx(npr), sample_idx(npr)
    pa, pb = coords[a_idx], coords[b_idx]
    dg = dist_g(pa, pb)
    keep = dg > 0
    dv = np.abs(sub[(kk,) + a_idx] - sub[(kk,) + b_idx])
    if keep.any():
        r = dv[keep] / dg[keep]
        k = int(np.argmax(r))
        if r[k] > worst_sp:
            worst_sp = float(r[k])
            sel = np.nonzero(keep)[0][k]
            tsel = float(times[kk[sel]])
            wit_sp = ((tsel, pa[sel]), (tsel, pb[sel]))

    # time-adjacent pairs at fixed nodes
    worst_st, wit_st = 0.0, None
    if nt >= 2:
        dvt = np.abs(np.diff(sub, axis=0)) / V.dt
        k = int(np.argmax(dvt))
        worst_st = float(dvt.reshape(-1)[k])
        idx = np.unravel_index(k, dvt.shape)
        p = coords[idx[1:]]
        wit_st = ((float(times[idx[0]]), p), (float(times[idx[0] + 1]), p))

    # random space-time pairs
    ka = rng.integers(0, nt, npr)
    kb = rng.integers(0, nt, npr)
    a_idx, b_idx = sample_idx(npr), sample_idx(npr)
    pa, pb = coords[a_idx], coords[b_idx]
    denom = np.abs(times[ka] - times[kb]) + dist_g(pa, pb)
    keep = denom > 0
    dv = np.abs(sub[(ka,) + a_idx] - sub[(kb,) + b_idx])
    if keep.any():
        r = dv[keep] / denom[keep]
        k = int(np.argmax(r))
        if r[k] > worst_st:
            worst_st = float(r[k])
            sel = np.nonzero(keep)[0][k]
            wit_st = ((float(times[ka[sel]]), pa[sel]), (float(times[kb[sel]]), pb[sel]))
    # spatial pairs are space-time pairs with dt = 0
    if worst_sp > worst_st:
        worst_st = worst_sp
        wit_st = wit_sp

    return [
        AuditReport(
            "spatial_ratio_vs_c_sharp", c_sharp, worst_sp, wit_sp,
            worst_sp <= c_sharp * (1 + slack) + 1e-12, slack,
        ),
        AuditReport(
            "space_time_ratio_vs_c_prime", c_prime, worst_st, wit_st,
            worst_st <= c_prime * (1 + slack) + 1e-12, slack,
        ),
    ]


def sampled_covering_radius(points, radius):
    """The largest distance from a 96x384 polar sample of the disk of
    ``radius`` to its nearest point: the covering radius the solver used
    before it was computed exactly, a lower estimate of it."""
    if radius == 0.0:
        return 0.0
    r, a = np.meshgrid(np.linspace(0.0, radius, 96),
                       np.linspace(0.0, 2 * np.pi, 384, endpoint=False))
    samples = np.stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()], axis=-1)
    p_sq = (points ** 2).sum(-1)
    worst = 0.0
    for k in range(0, len(samples), 4096):
        s = samples[k:k + 4096]
        d_sq = (s ** 2).sum(-1)[:, None] + p_sq[None, :] - 2.0 * (s @ points.T)
        worst = max(worst, float(np.sqrt(np.maximum(d_sq, 0.0).min(axis=1)).max()))
    return worst


def voronoi_covering_radius(points, radius):
    """The covering radius of ``points`` in the disk of ``radius`` from
    ``scipy.spatial.Voronoi``: the nearest distance, by brute force, at
    every Voronoi vertex inside the disk, at every point where the bisector
    of a ridge's two points meets the circle, and at the circle's point
    farthest from each point.  Reference for ``game._covering_radius``."""
    from scipy.spatial import Voronoi

    vor = Voronoi(points)
    found = [v for v in vor.vertices if v @ v <= radius ** 2]
    for a, b in vor.ridge_points:
        mid, d = 0.5 * (points[a] + points[b]), points[b] - points[a]
        v = np.array([-d[1], d[0]]) / np.hypot(*d)
        disc = (mid @ v) ** 2 - (mid @ mid - radius ** 2)
        if disc >= 0:
            found += [mid + (-(mid @ v) + sign * np.sqrt(disc)) * v for sign in (-1, 1)]
    for p in points:
        norm = np.hypot(*p)
        found.append(-radius * p / norm if norm > 0 else np.array([radius, 0.0]))
    found = np.array(found)
    return float(max(np.sqrt(((points - c[:, None]) ** 2).sum(-1)).min(-1).max()
                     for c in np.array_split(found, -(-len(found) // 256))))


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


def rk4_loop_reference(xi, u, substeps):
    """RK4 one step at a time in Python floats, segment by segment:
    reference for the batched steps behind ``flow.rk4_reference``.  Returns
    the times and states at ``t0`` and every breakpoint."""
    xi = np.asarray(xi, dtype=float).reshape(3)
    times, points = [u.t0], [xi.copy()]
    x1, x2, x3 = (float(c) for c in xi)
    t_cur = u.t0
    for end, (z1, z2) in zip(u.breakpoints, u.values.tolist()):
        length = end - t_cur
        n = max(1, math.ceil(length / (u.duration / substeps) - 1e-12))
        h = length / n
        for _ in range(n):
            a3 = 0.5 * (z2 * x1 - z1 * x2)
            b3 = 0.5 * (z2 * (x1 + 0.5 * h * z1) - z1 * (x2 + 0.5 * h * z2))
            # k2 and k3 coincide: the velocity depends on x only through (x1, x2)
            d3 = 0.5 * (z2 * (x1 + h * z1) - z1 * (x2 + h * z2))
            x1 += h * z1
            x2 += h * z2
            x3 += h / 6.0 * (a3 + 4.0 * b3 + d3)
        times.append(end)
        points.append(np.array([x1, x2, x3]))
        t_cur = end
    return np.asarray(times), np.asarray(points)


def flow_checks_reference(rng, n_reach, n_translation, n_shift, radii=(0.5, 1.0, 2.0)):
    """The battery's reach, translation and shifted-start checks with one
    loop iteration per instance, drawing as ``checks`` does: reference for
    the batched checks.  Returns the four measured worst values."""
    from heisgame.checks import random_control
    from heisgame.flow import LipschitzConstants
    from heisgame.heis import group_mul, inverse

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
        keep = u.breakpoints > tau_prime
        late_u = PiecewiseConstantControl(tau_prime, u.breakpoints[keep], u.values[keep])
        late_t, late = integrate_reference(xi_tilde, late_u, 64)
        full_t, full = integrate_reference(xi, u, extra_times=late_t)
        sep = dist_g(full[np.searchsorted(full_t, late_t)], late).max()
        shift = max(shift, sep / (c_tilde * (float(dist_g(xi_tilde, xi)) + tau_prime)))
    return reach, deviation, gronwall, shift
