"""Horizontal curves under piecewise-constant controls.

A horizontal curve follows ``xdot = s * f(x, z)`` with sign ``s = +/-1``
and ``f(x, z) = (z1, z2, (z2*x1 - z1*x2)/2)``.  For a constant control the
flow has the closed form ``x(t) = xi o (s*t*z1, s*t*z2, 0)``: the third
coordinate is affine in time, so composing exact steps over the segments
of a piecewise-constant control integrates the curve without truncation
error.  The minus-sign flow under ``z`` coincides with the plus-sign flow
under ``-z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .heis import dist_g, group_mul, inverse, _pts

__all__ = [
    "Sign",
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

Sign = Literal["plus", "minus"]


def _sign_factor(sign: Sign) -> float:
    try:
        return {"plus": 1.0, "minus": -1.0}[sign]
    except KeyError:
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}") from None


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

    def max_norm(self) -> float:
        if self.n_segments == 0:
            return 0.0
        return float(np.linalg.norm(self.values, axis=-1).max())

    def restrict(self, tau: float) -> "PiecewiseConstantControl":
        """Restriction to ``[tau, t_end]``."""
        if not (self.t0 <= tau <= self.t_end):
            raise ValueError(f"tau {tau} outside control span [{self.t0}, {self.t_end}]")
        keep = self.breakpoints > tau
        return PiecewiseConstantControl(tau, self.breakpoints[keep], self.values[keep])

    def sample_times(self, per_segment: int = 64) -> np.ndarray:
        """Breakpoints plus uniform interior samples, including ``t0``."""
        parts = [np.array([self.t0])]
        start = self.t0
        for end in self.breakpoints:
            parts.append(np.linspace(start, end, per_segment + 1)[1:])
            start = end
        return np.unique(np.concatenate(parts))


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


def exact_step(xi, z, h, sign: Sign = "plus") -> np.ndarray:
    """Endpoint of the flow from ``xi`` with constant velocity ``(+/-)z`` over ``h``.

    Closed form ``xi o (s*h*z1, s*h*z2, 0)``; ``h`` may be an array and
    must be nonnegative.
    """
    s = _sign_factor(sign)
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    if (h < 0).any():
        raise ValueError("step duration must be nonnegative")
    d1 = s * h * z[..., 0]
    d2 = s * h * z[..., 1]
    shift = np.stack([d1, d2, np.zeros_like(d1)], axis=-1)
    return group_mul(xi, shift)


def integrate(
    xi,
    u: PiecewiseConstantControl,
    sign: Sign = "plus",
    samples_per_segment: int = 0,
    extra_times=None,
) -> Trajectory:
    """Exact trajectory at ``t0``, all breakpoints, and any requested times."""
    xi = _pts(xi).reshape(3)
    wanted = [np.array([u.t0]), u.breakpoints]
    if samples_per_segment > 0 and u.n_segments:
        wanted.append(u.sample_times(samples_per_segment))
    if extra_times is not None:
        et = np.asarray(extra_times, dtype=float).reshape(-1)
        if len(et) and ((et < u.t0).any() or (et > u.t_end).any()):
            raise ValueError("requested sample times outside the control span")
        wanted.append(et)
    times = np.unique(np.concatenate(wanted))

    points = np.empty((len(times), 3))
    points[0] = xi
    if u.n_segments == 0:
        return Trajectory(times, points)

    x_cur = xi
    t_cur = u.t0
    filled = 1
    for end, z in zip(u.breakpoints, u.values):
        in_seg = times[(times > t_cur) & (times <= end)]
        if len(in_seg):
            pts = exact_step(x_cur, z, in_seg - t_cur, sign)
            points[filled:filled + len(in_seg)] = pts
            filled += len(in_seg)
        x_cur = exact_step(x_cur, z, end - t_cur, sign)
        t_cur = end
    return Trajectory(times, points)


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


def rk4_reference(
    xi,
    u: PiecewiseConstantControl,
    sign: Sign = "plus",
    substeps: int = 100,
) -> Trajectory:
    """Classical RK4 integration of the same dynamics, used as a test oracle.

    ``substeps`` sets the target step count over the whole span; steps are
    aligned with the control's segments.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    s = _sign_factor(sign)
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
            x = _rk4_span(x, s * float(z[0]), s * float(z[1]), length, n)
            times.append(end)
            points.append(np.array(x))
            t_cur = end
    return Trajectory(np.asarray(times), np.asarray(points))


def _require_admissible(u: PiecewiseConstantControl, radius: float):
    if u.n_segments == 0:
        return
    norms = np.linalg.norm(u.values, axis=-1)
    bad = np.nonzero(norms > radius * (1 + 1e-12) + 1e-300)[0]
    if len(bad):
        raise ValueError(
            f"control value outside the radius-{radius} ball at segment {int(bad[0])}"
        )


@dataclass(frozen=True)
class ReachReport:
    ok: bool
    worst_ratio: float
    witness_time: float
    max_distance: float


def check_reach_bound(
    xi,
    u: PiecewiseConstantControl,
    r_z: float,
    samples_per_segment: int = 64,
) -> ReachReport:
    """Checks ``d_G(xi, x(t)) <= 3 * r_z * (t - t0)`` along the trajectory."""
    _require_admissible(u, r_z)
    traj = integrate(xi, u, "plus", samples_per_segment=samples_per_segment)
    dt = traj.times - u.t0
    d = dist_g(traj.points, _pts(xi).reshape(3))
    if r_z == 0.0:
        worst = 0.0 if d.max(initial=0.0) <= 1e-12 else np.inf
        k = int(np.argmax(d))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(dt > 0, d / (3.0 * r_z * dt), 0.0)
        k = int(np.argmax(ratios))
        worst = float(ratios[k])
    return ReachReport(worst <= 1 + 1e-9, worst, float(traj.times[k]), float(d.max(initial=0.0)))


_FORMULAS = {
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
        for name, value in zip(_FORMULAS, (c_hat, c_tilde, c_sharp, c_sharp + self.c1)):
            object.__setattr__(self, name, value)

    def table(self) -> dict:
        """``{name: {"value": ..., "formula": ...}}`` for each derived constant."""
        return {name: {"value": getattr(self, name), "formula": formula}
                for name, formula in _FORMULAS.items()}


@dataclass(frozen=True)
class TranslationReport:
    max_deviation: float
    gronwall_ratio: float
    c_hat: float
    ok: bool


def check_translation_identity(
    xi,
    xi_hat,
    u: PiecewiseConstantControl,
    samples_per_segment: int = 64,
    r_z: float | None = None,
) -> TranslationReport:
    """Verifies ``xhat(t) = xihat o xi^{-1} o x(t)`` and the Gronwall bound.

    Both curves run under the same control; the separation never exceeds
    ``exp(T * r_z / 2)`` times the initial separation.  The identity
    deviation is measured in the Euclidean norm: the gauge of a pure
    rounding defect is the square root of its vertical component, so no
    finite-precision integrator can hold a gauge deviation near machine
    scale.
    """
    xi = _pts(xi).reshape(3)
    xi_hat = _pts(xi_hat).reshape(3)
    if r_z is None:
        r_z = u.max_norm()
    traj = integrate(xi, u, "plus", samples_per_segment=samples_per_segment)
    traj_hat = integrate(xi_hat, u, "plus", samples_per_segment=samples_per_segment)
    translated = group_mul(group_mul(xi_hat, inverse(xi)), traj.points)
    deviation = float(
        np.linalg.norm(traj_hat.points - translated, axis=-1).max(initial=0.0)
    )

    c_hat = LipschitzConstants(u.t_end, r_z, 0.0, 0.0, 0.0).c_hat
    d0 = float(dist_g(xi, xi_hat))
    phi = dist_g(traj.points, traj_hat.points)
    if d0 == 0.0:
        ratio = 0.0 if phi.max(initial=0.0) <= 1e-12 else np.inf
    else:
        ratio = float(phi.max(initial=0.0) / (c_hat * d0))
    ok = deviation <= 1e-10 and ratio <= 1 + 1e-9
    return TranslationReport(deviation, ratio, c_hat, ok)


@dataclass(frozen=True)
class ShiftReport:
    ok: bool
    worst_ratio: float
    c_tilde: float
    max_separation: float
    bound: float


def check_shifted_start_bound(
    xi,
    xi_tilde,
    tau: float,
    tau_prime: float,
    u: PiecewiseConstantControl,
    r_z: float,
    samples_per_segment: int = 64,
) -> ShiftReport:
    """Compares the curve from ``(tau, xi)`` with the late start from
    ``(tau_prime, xi_tilde)`` under the restricted control.

    The separation on ``[tau_prime, T]`` must stay below
    ``(1 + 3*r_z) * exp(T*r_z/2) * (d_G(xi_tilde, xi) + (tau_prime - tau))``.
    """
    if u.t0 != tau:
        raise ValueError(f"control starts at {u.t0}, expected tau={tau}")
    if not (tau <= tau_prime <= u.t_end):
        raise ValueError("need tau <= tau_prime <= t_end")
    _require_admissible(u, r_z)
    xi = _pts(xi).reshape(3)
    xi_tilde = _pts(xi_tilde).reshape(3)

    u_late = u.restrict(tau_prime)
    late = integrate(xi_tilde, u_late, "plus", samples_per_segment=samples_per_segment)
    full = integrate(xi, u, "plus", extra_times=late.times)
    keep = np.searchsorted(full.times, late.times)
    sep = dist_g(full.points[keep], late.points)
    max_sep = float(sep.max(initial=0.0))

    c_tilde = LipschitzConstants(u.t_end, r_z, 0.0, 0.0, 0.0).c_tilde
    bound = c_tilde * (float(dist_g(xi_tilde, xi)) + (tau_prime - tau))
    if bound == 0.0:
        worst = 0.0 if max_sep <= 1e-12 else np.inf
    else:
        worst = max_sep / bound
    return ShiftReport(worst <= 1 + 1e-9, worst, c_tilde, max_sep, bound)
