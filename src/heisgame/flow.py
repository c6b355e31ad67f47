"""Horizontal curves under piecewise-constant controls.

A horizontal curve follows ``xdot = f(x, z)`` with
``f(x, z) = (z1, z2, (z2*x1 - z1*x2)/2)``.  For a constant control the
flow has the closed form ``x(t) = xi o (t*z1, t*z2, 0)``: the third
coordinate is affine in time, so composing exact steps over the segments
of a piecewise-constant control integrates the curve without truncation
error.  The game's dynamics ``xdot = -f(x, z)`` are this flow under
``-z``, bit for bit, since ``(-h)*z == h*(-z)`` in IEEE arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heis import dist_g, group_mul, inverse, _pts

__all__ = [
    "LipschitzConstants",
    "PiecewiseConstantControl",
    "Trajectory",
    "write_trajectory_csv",
    "exact_step",
    "integrate",
    "rk4_reference",
    "check_reach_bound",
    "check_translation_identity",
    "check_shifted_start_bound",
    "ReachReport",
    "TranslationReport",
    "ShiftReport",
]

@dataclass(frozen=True)
class PiecewiseConstantControl:
    """Control that is constant on ``[t0, b1), [b1, b2), ..., [b_{m-1}, b_m]``.

    ``breakpoints`` are the segment end times (strictly increasing, ending
    at the final time); ``values`` holds one plane vector per segment.  An
    empty control (no segments) represents the degenerate span ``[t0, t0]``.
    """

    t0: float
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        vals = np.asarray(self.values, dtype=float).reshape(-1, 2)
        t0 = float(self.t0)
        if not math.isfinite(t0):
            raise ValueError("t0 must be finite")
        if not np.isfinite(bp).all() or not np.isfinite(vals).all():
            raise ValueError("breakpoints and values must be finite")
        if len(vals) != len(bp):
            raise ValueError(
                f"need one value per segment: {len(bp)} breakpoints, {len(vals)} values"
            )
        if len(bp) and not (np.diff(np.concatenate(([t0], bp))) > 0).all():
            raise ValueError("breakpoints must be strictly increasing and exceed t0")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, z, t0: float = 0.0, t_end: float = 1.0) -> "PiecewiseConstantControl":
        return cls(t0, np.array([t_end]), np.asarray(z, dtype=float).reshape(1, 2))

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints)

    @property
    def t_end(self) -> float:
        return float(self.breakpoints[-1]) if self.n_segments else self.t0

    @property
    def duration(self) -> float:
        return self.t_end - self.t0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows of ``time,x1,x2,x3`` with a header line."""
    table = np.column_stack([traj.times, traj.points])
    np.savetxt(path, table, fmt="%.17g,%.17g,%.17g,%.17g",
               header="time,x1,x2,x3", comments="")


def exact_step(xi, z, h) -> np.ndarray:
    """Endpoint of the flow from ``xi`` with constant velocity ``z`` over ``h``.

    Closed form ``xi o (h*z1, h*z2, 0)``; ``h`` may be an array and must be
    nonnegative.
    """
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    if (h < 0).any():
        raise ValueError("step duration must be nonnegative")
    d1 = h * z[..., 0]
    d2 = h * z[..., 1]
    shift = np.stack([d1, d2, np.zeros_like(d1)], axis=-1)
    return group_mul(xi, shift)


def integrate(xi, u: PiecewiseConstantControl, samples_per_segment: int = 0) -> Trajectory:
    """Exact trajectory at ``t0``, all breakpoints, and ``samples_per_segment``
    uniform times per segment."""
    xi = _pts(xi).reshape(3)
    wanted = [np.array([u.t0]), u.breakpoints]
    if samples_per_segment > 0:
        wanted.append(_segment_times(np.array([u.t0]), u.breakpoints[None],
                                     samples_per_segment)[0])
    times = np.unique(np.concatenate(wanted))
    points = _flow_at(xi[None], np.array([u.t0]), u.breakpoints[None], u.values[None],
                      times[None])[0]
    return Trajectory(times, points)


def _segment_times(t0, breakpoints, per_segment: int) -> np.ndarray:
    """``t0`` then ``linspace(start_j, b_j, per_segment + 1)[1:]`` of each
    segment, for ``n`` controls of ``m`` segments: ``(n, 1 + m*per_segment)``."""
    starts = np.concatenate([t0[:, None], breakpoints], axis=1)[:, :-1]
    inner = np.linspace(starts, breakpoints, per_segment + 1, axis=-1)[..., 1:]
    return np.concatenate([t0[:, None], inner.reshape(len(t0), -1)], axis=1)


def _flow_at(xi, t0, breakpoints, values, times) -> np.ndarray:
    """Exact flows of ``n`` controls of ``m`` segments each at ``(n, k)`` times.

    ``xi`` is ``(n, 3)``, ``t0`` ``(n,)``, ``breakpoints`` ``(n, m)`` and
    ``values`` ``(n, m, 2)``; the times lie in each control's span.  The
    state at each breakpoint is chained by one ``exact_step`` per segment,
    a time in ``(b_{j-1}, b_j]`` is one ``exact_step`` from the state at
    ``b_{j-1}``, and ``t0`` gives ``xi``.  Every operation is elementwise,
    so a point has the same bits in any batch.
    """
    n, m = breakpoints.shape
    if m == 0:
        return np.repeat(xi[:, None], times.shape[1], axis=1)
    starts = np.concatenate([t0[:, None], breakpoints], axis=1)
    states = [xi]
    for j in range(m - 1):
        states.append(exact_step(states[-1], values[:, j], starts[:, j + 1] - starts[:, j]))
    seg = (times[..., None] > breakpoints[:, None]).sum(-1)
    rows = np.arange(n)[:, None]
    pts = exact_step(np.stack(states, axis=1)[rows, seg], values[rows, seg],
                     times - starts[rows, seg])
    return np.where((times == t0[:, None])[..., None], xi[:, None], pts)


def _rk4_span(x, z1: float, z2: float, length: float, n: int):
    """Scalar RK4 over one constant-control segment (plain floats for speed)."""
    x1, x2, x3 = x
    h = length / n
    for _ in range(n):
        a3 = 0.5 * (z2 * x1 - z1 * x2)
        b3 = 0.5 * (z2 * (x1 + 0.5 * h * z1) - z1 * (x2 + 0.5 * h * z2))
        # k2 and k3 coincide: the velocity depends on x only through (x1, x2)
        d3 = 0.5 * (z2 * (x1 + h * z1) - z1 * (x2 + h * z2))
        x1 += h * z1
        x2 += h * z2
        x3 += h / 6.0 * (a3 + 4.0 * b3 + d3)
    return x1, x2, x3


def rk4_reference(xi, u: PiecewiseConstantControl, substeps: int = 100) -> Trajectory:
    """Classical RK4 integration of the same dynamics, used as a test oracle.

    ``substeps`` sets the target step count over the whole span; steps are
    aligned with the control's segments.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    xi = _pts(xi).reshape(3)
    times = [u.t0]
    points = [xi.copy()]
    if u.n_segments:
        h_target = u.duration / substeps if u.duration > 0 else 1.0
        x = (float(xi[0]), float(xi[1]), float(xi[2]))
        t_cur = u.t0
        for end, z in zip(u.breakpoints, u.values):
            length = end - t_cur
            n = max(1, math.ceil(length / h_target - 1e-12))
            x = _rk4_span(x, float(z[0]), float(z[1]), length, n)
            times.append(end)
            points.append(np.array(x))
            t_cur = end
    return Trajectory(np.asarray(times), np.asarray(points))


# samples per batched flow evaluation: keeps the batched checks'
# temporaries at a few MB whatever the instance count
_CHUNK_POINTS = 1 << 15


def _batches(controls, per_segment: int, radius=None, late=None):
    """``(idx, t0, breakpoints, values)`` of the instances with equal segment
    counts (and equal ``late`` counts, if given), in chunks of about
    ``_CHUNK_POINTS`` samples; with ``radius``, each control value must lie
    in its instance's ball."""
    keys = np.array([[u.n_segments, 0 if late is None else late[i]]
                     for i, u in enumerate(controls)], dtype=int).reshape(-1, 2)
    groups, inv = np.unique(keys, axis=0, return_inverse=True)
    for g, (m, _) in enumerate(groups):
        members = np.flatnonzero(inv.reshape(-1) == g)
        size = max(1, _CHUNK_POINTS // (1 + m * per_segment))
        for idx in np.split(members, range(size, len(members), size)):
            us = [controls[i] for i in idx]
            values = np.array([u.values for u in us]).reshape(len(us), m, 2)
            if radius is not None:
                r = radius[idx, None]
                bad = np.argwhere(np.linalg.norm(values, axis=-1) > r * (1 + 1e-12) + 1e-300)
                if len(bad):
                    i, j = bad[0]
                    raise ValueError(f"control value outside the radius-{r[i, 0]} ball at "
                                     f"segment {j} of instance {idx[i]}")
            yield (idx, np.array([u.t0 for u in us]),
                   np.array([u.breakpoints for u in us]).reshape(len(us), m), values)


def _ratio(num, den):
    """``num / den``; where ``den`` is 0, 0 if ``num <= 1e-12`` and inf if not."""
    return np.divide(num, den, out=np.where(num <= 1e-12, 0.0, np.inf), where=den != 0.0)


@dataclass(frozen=True)
class ReachReport:
    ok: np.ndarray
    worst_ratio: np.ndarray


def check_reach_bound(xis, controls, r_z, samples_per_segment: int = 64) -> ReachReport:
    """Checks ``d_G(xi, x(t)) <= 3 * r_z * (t - t0)`` along the trajectory of
    each instance ``(xis[i], controls[i], r_z[i])`` (``r_z`` may be a
    scalar); each report field is an array over the instances.

    The samples are ``t0`` and ``samples_per_segment`` uniform times per
    segment, the last at its breakpoint.  Instances with equal segment
    counts are flowed together, each point bit-identical to
    :func:`integrate`'s.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 3)
    r_z = np.broadcast_to(np.asarray(r_z, dtype=float), (len(controls),))
    worst = np.empty(len(controls))
    for idx, t0, bp, vals in _batches(controls, samples_per_segment, r_z):
        times = _segment_times(t0, bp, samples_per_segment)
        d = dist_g(_flow_at(xis[idx], t0, bp, vals, times), xis[idx, None])
        dt, frozen = times - t0[:, None], r_z[idx] == 0.0
        ratios = np.divide(d, 3.0 * r_z[idx, None] * dt, out=np.zeros_like(d),
                           where=(dt > 0) & ~frozen[:, None])
        d_max = d.max(axis=1, initial=0.0)
        worst[idx] = np.where(frozen, np.where(d_max <= 1e-12, 0.0, np.inf),
                              ratios.max(axis=1, initial=0.0))
    return ReachReport(worst <= 1 + 1e-9, worst)


# the formula of each constant a manifest records; an input that an ``hji``
# scenario derives has two texts, (as a game input, as hji.build_game derives it)
_FORMULAS = {
    "r_y": ("R_Y (scenario input)", "R_Y = (1 + 3*K) * exp(T*K/2) * (D1p*T + C2p)"),
    "r_z": ("R_Z (scenario input)", "R_Z = K"),
    "c1": ("C1 (running-cost bound)", "C1 = D1 + R_Z*R_Y"),
    "c1p": ("C1p (running-cost gauge-Lipschitz constant)", "C1p = D1p"),
    "c2": "C2 (terminal/datum bound)",
    "c2p": "C2p (terminal/datum gauge-Lipschitz constant)",
    "c_hat": "C_hat = exp(T*R_Z/2)",
    "c_tilde": "C_tilde = (1 + 3*R_Z) * exp(T*R_Z/2)",
    "c_sharp": "C_sharp = (1 + 3*R_Z) * exp(T*R_Z/2) * (C1p*T + C2p)",
    "c_prime": "C_prime = C_tilde * (C1p*T + C2p) + C1",
}


@dataclass(frozen=True)
class LipschitzConstants:
    """Table of the constants entering the flow bounds and regularity audits.

    The chain ``c_hat -> c_tilde -> c_sharp -> c_prime`` is computed once,
    from the inputs; :meth:`table` pairs each value with its formula.  The
    Gronwall and shifted-start checks below read ``c_hat`` and ``c_tilde``.
    """

    horizon: float
    r_z: float
    c1: float
    c1p: float
    c2p: float
    c_hat: float = field(init=False)
    c_tilde: float = field(init=False)
    c_sharp: float = field(init=False)
    c_prime: float = field(init=False)

    def __post_init__(self):
        c_hat = float(np.exp(self.horizon * self.r_z / 2.0))
        c_tilde = (1.0 + 3.0 * self.r_z) * c_hat
        c_sharp = c_tilde * (self.c1p * self.horizon + self.c2p)
        for name, value in zip(("c_hat", "c_tilde", "c_sharp", "c_prime"),
                               (c_hat, c_tilde, c_sharp, c_sharp + self.c1)):
            object.__setattr__(self, name, value)

    def table(self, r_y: float, c2: float, derived: bool) -> dict:
        """``{name: {"value": ..., "formula": ...}}`` of the ten constants of a
        manifest: the game's inputs, with the radius ``r_y`` and the bound
        ``c2`` that these constants do not hold, and the four derived ones.
        ``derived`` picks the text of ``r_y``, ``r_z``, ``c1`` and ``c1p`` as
        an ``hji`` scenario derives them."""
        values = dict(vars(self), r_y=r_y, c2=c2)
        return {name: {"value": values[name],
                       "formula": text if isinstance(text, str) else text[derived]}
                for name, text in _FORMULAS.items()}


@dataclass(frozen=True)
class TranslationReport:
    max_deviation: np.ndarray
    gronwall_ratio: np.ndarray
    c_hat: np.ndarray
    ok: np.ndarray


def check_translation_identity(xis, xi_hats, controls, r_z,
                               samples_per_segment: int = 64) -> TranslationReport:
    """Verifies ``xhat(t) = xihat o xi^{-1} o x(t)`` and the Gronwall bound on
    each instance ``(xis[i], xi_hats[i], controls[i], r_z[i])`` (``r_z`` may
    be a scalar), sampled and grouped as in :func:`check_reach_bound`; each
    report field is an array.

    Both curves run under the same control; the separation never exceeds
    ``exp(T * r_z / 2)`` times the initial separation, with ``r_z`` the
    control radius.  The identity deviation is measured in
    the Euclidean norm: the gauge of a pure rounding defect is the square
    root of its vertical component, so no finite-precision integrator can
    hold a gauge deviation near machine scale.
    """
    xis, xi_hats = (np.asarray(a, dtype=float).reshape(-1, 3) for a in (xis, xi_hats))
    deviation, phi = np.empty(len(controls)), np.empty(len(controls))
    for idx, t0, bp, vals in _batches(controls, samples_per_segment):
        times = _segment_times(t0, bp, samples_per_segment)
        x = _flow_at(xis[idx], t0, bp, vals, times)
        x_hat = _flow_at(xi_hats[idx], t0, bp, vals, times)
        translated = group_mul(group_mul(xi_hats[idx], inverse(xis[idx]))[:, None], x)
        deviation[idx] = np.linalg.norm(x_hat - translated, axis=-1).max(axis=1, initial=0.0)
        phi[idx] = dist_g(x, x_hat).max(axis=1, initial=0.0)
    c_hat = np.array([LipschitzConstants(u.t_end, r, 0.0, 0.0, 0.0).c_hat
                      for u, r in zip(controls, np.broadcast_to(r_z, len(controls)))])
    ratio = _ratio(phi, c_hat * dist_g(xis, xi_hats))
    return TranslationReport(deviation, ratio, c_hat, (deviation <= 1e-10) & (ratio <= 1 + 1e-9))


@dataclass(frozen=True)
class ShiftReport:
    ok: np.ndarray
    worst_ratio: np.ndarray
    c_tilde: np.ndarray
    max_separation: np.ndarray


def check_shifted_start_bound(xis, xi_tildes, tau, tau_primes, controls, r_z,
                              samples_per_segment: int = 64) -> ShiftReport:
    """Compares, on each instance, the curve from ``(tau, xis[i])`` with the
    late start from ``(tau_primes[i], xi_tildes[i])`` under the restricted
    control (``tau``, ``tau_primes`` and ``r_z`` may be scalars).

    The separation on ``[tau_prime, T]`` must stay below
    ``(1 + 3*r_z) * exp(T*r_z/2) * (d_G(xi_tilde, xi) + (tau_prime - tau))``.
    The late curve is sampled as in :func:`check_reach_bound` on the
    restricted control, the full curve at the same times; each report field
    is an array over the instances.
    """
    xis, xi_tildes = (np.asarray(a, dtype=float).reshape(-1, 3) for a in (xis, xi_tildes))
    tau, tau_p, r_z = (np.broadcast_to(np.asarray(a, dtype=float), (len(controls),))
                       for a in (tau, tau_primes, r_z))
    for i, u in enumerate(controls):
        if u.t0 != tau[i]:
            raise ValueError(f"control starts at {u.t0}, expected tau={tau[i]}")
        if not (tau[i] <= tau_p[i] <= u.t_end):
            raise ValueError("need tau <= tau_prime <= t_end")
    late = [int((u.breakpoints > t).sum()) for u, t in zip(controls, tau_p)]
    max_sep = np.empty(len(controls))
    for idx, t0, bp, vals in _batches(controls, samples_per_segment, r_z, late):
        j0 = bp.shape[1] - late[idx[0]]
        times = _segment_times(tau_p[idx], bp[:, j0:], samples_per_segment)
        full = _flow_at(xis[idx], t0, bp, vals, times)
        late_pts = _flow_at(xi_tildes[idx], tau_p[idx], bp[:, j0:], vals[:, j0:], times)
        max_sep[idx] = dist_g(full, late_pts).max(axis=1, initial=0.0)
    c_tilde = np.array([LipschitzConstants(u.t_end, r, 0.0, 0.0, 0.0).c_tilde
                        for u, r in zip(controls, r_z)])
    worst = _ratio(max_sep, c_tilde * (dist_g(xi_tildes, xis) + (tau_p - tau)))
    return ShiftReport(worst <= 1 + 1e-9, worst, c_tilde, max_sep)
