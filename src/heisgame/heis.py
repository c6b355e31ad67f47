"""Heisenberg group operations and the Koranyi gauge metric.

Points are array-likes with three components ``(x1, x2, x3)``.  Every
operation broadcasts over leading axes, so a whole grid of points can be
pushed through the group law in one call.  The group product is

    a o b = (a1 + b1, a2 + b2, a3 + b3 + (a1*b2 - b1*a2) / 2),

with identity ``e = (0, 0, 0)`` and inverse ``x^{-1} = -x``.  The left
invariant distance is ``d_G(x, y) = ||y^{-1} o x||_G`` where the gauge is
``||x||_G = ((x1^2 + x2^2)^2 + x3^2)^{1/4}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IDENTITY",
    "Box",
    "ball_points",
    "ball_at",
    "fixed_points",
    "declaration_sample",
    "group_mul",
    "inverse",
    "dilate",
    "gauge",
    "dist_g",
    "eval_field",
    "h_convexity_check",
    "ConvexityReport",
]

IDENTITY = np.zeros(3)


def _pts(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError(f"expected points with 3 components, got shape {x.shape}")
    return x


def group_mul(a, b) -> np.ndarray:
    """Group product ``a o b``."""
    a, b = _pts(a), _pts(b)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack(
        [a1 + b1, a2 + b2, a3 + b3 + 0.5 * (a1 * b2 - b1 * a2)], axis=-1
    )


def inverse(x) -> np.ndarray:
    """Group inverse, the componentwise negation."""
    return -_pts(x)


def dilate(lam, x) -> np.ndarray:
    """Anisotropic dilation ``(lam*x1, lam*x2, lam^2*x3)``; ``lam``, one factor
    or an array of factors broadcasting over the points, must be > 0."""
    lam = np.asarray(lam, dtype=float)
    if not (lam > 0.0).all():
        raise ValueError(f"dilation factors must be positive, got {lam}")
    x = _pts(x)
    return np.stack(
        [lam * x[..., 0], lam * x[..., 1], lam * lam * x[..., 2]], axis=-1
    )


def gauge(x) -> np.ndarray:
    """Koranyi gauge ``((x1^2 + x2^2)^2 + x3^2)^{1/4}``.

    Evaluated as two nested square roots (with ``hypot`` for the inner
    sum) so that coordinates up to ~1e70 do not overflow.
    """
    x = _pts(x)
    r2 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
    return np.sqrt(np.hypot(r2, x[..., 2]))


def dist_g(x, y) -> np.ndarray:
    """Left invariant gauge distance ``||y^{-1} o x||_G``."""
    return gauge(group_mul(inverse(y), x))


@dataclass(frozen=True)
class Box:
    """Axis-aligned region ``[lo1,hi1] x [lo2,hi2] x [lo3,hi3]``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not (lo < hi).all():
            raise ValueError(f"box needs lo < hi on every axis, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, p) -> np.ndarray:
        p = _pts(p)
        return ((p >= self.lo) & (p <= self.hi)).all(axis=-1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.lo + rng.random((n, 3)) * self.extent

    def corners(self) -> np.ndarray:
        lo, hi = self.lo, self.hi
        out = np.empty((8, 3))
        for k in range(8):
            out[k] = [hi[i] if (k >> i) & 1 else lo[i] for i in range(3)]
        return out


def ball_points(rng: np.random.Generator, radius: float, shape=()) -> np.ndarray:
    """Uniform points in the closed plane ball of ``radius``, shape ``shape + (2,)``.

    Draws all angles, then all radii; ``shape=()`` gives one point.
    """
    return ball_at(rng.random(shape), rng.random(shape), radius)


def ball_at(u1, u2, radius: float) -> np.ndarray:
    """The plane-ball points at angle ``2*pi*u1`` and radius ``radius*sqrt(u2)``:
    uniform in the closed ball of ``radius`` when ``u1``, ``u2`` are."""
    theta = u1 * 2 * np.pi
    r = radius * np.sqrt(u2)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def fixed_points(n: int, d: int) -> np.ndarray:
    """``n`` low-discrepancy points ``frac(0.5 + k*alpha)`` of ``[0, 1)^d``,
    ``k = 1..n``, ``alpha_i = phi**-i``, ``phi**(d+1) = phi + 1`` (Roberts'
    R_d sequence); seed-free, so every call returns the same bits."""
    phi = 2.0
    for _ in range(64):  # the fixed-point iteration contracts to phi
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    return (0.5 + np.arange(1.0, n + 1)[:, None] * alpha) % 1.0


def declaration_sample(box: Box, n: int, horizon: float, r1: float, r2: float):
    """``n`` points of ``box`` and 4 draws ``(t, a, b)``, ``t`` in ``[0, horizon)``, ``a``, ``b``
    in the balls of radii ``r1``, ``r2``: the fixed sample the declarations are checked on."""
    u, ts = fixed_points(4, 4), fixed_points(4, 1)[:, 0] * horizon
    draws = zip(ts, ball_at(u[:, 0], u[:, 1], r1), ball_at(u[:, 2], u[:, 3], r2))
    return box.lo + fixed_points(n, 3) * box.extent, list(draws)


def eval_field(f: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a scalar field on an ``(n, 3)`` batch of points.

    Vectorized fields are called once; scalar-only callables fall back
    to a per-point loop.  The fallback runs only when the batch call
    returns the wrong shape or raises ``TypeError`` or ``ValueError``, as
    scalar code does on an array (``float(array)``, ``if array:``); any
    other exception propagates from the one batch call.
    """
    pts = _pts(pts)
    try:
        vals = np.asarray(f(pts), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != pts.shape[:-1]:
        vals = np.asarray([float(f(p)) for p in pts.reshape(-1, 3)], dtype=float)
        vals = vals.reshape(pts.shape[:-1])
    return vals


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    worst_violation: float
    witness: tuple | None  # (base point, direction, s at the worst midpoint)


def h_convexity_check(
    g: Callable,
    box: Box,
    directions: int = 64,
    probes: int = 33,
    rng: np.random.Generator | None = None,
) -> ConvexityReport:
    """Sampled midpoint-convexity test of ``s -> g(x o (s*w1, s*w2, 0))``.

    Base points are drawn from the box and paired with unit horizontal
    directions; the first few lines are deterministic (origin with the
    coordinate directions).  Each line spans ``|s|`` up to half the box's
    smaller horizontal extent, and its interior second differences must be
    nonnegative up to ``1e-9 * (1 + |g|)``.
    """
    if directions < 1:
        raise ValueError("directions must be >= 1")
    if probes < 3:
        raise ValueError("probes must be >= 3")
    rng = rng or np.random.default_rng(0)
    s_max = 0.5 * float(min(box.extent[0], box.extent[1]))

    lines: list[tuple[np.ndarray, np.ndarray]] = []
    fixed = [
        (IDENTITY, np.array([1.0, 0.0])),
        (IDENTITY, np.array([0.0, 1.0])),
        (IDENTITY, np.array([np.sqrt(0.5), np.sqrt(0.5)])),
    ]
    lines.extend(fixed[: int(directions)])
    while len(lines) < directions:
        base = box.sample(1, rng)[0]
        theta = rng.random() * 2 * np.pi
        lines.append((base, np.array([np.cos(theta), np.sin(theta)])))

    s = np.linspace(-s_max, s_max, int(probes))
    worst = -np.inf
    witness = None
    passed = True
    for base, w in lines:
        shifts = np.stack([s * w[0], s * w[1], np.zeros_like(s)], axis=-1)
        line_pts = group_mul(base, shifts)
        v = eval_field(g, line_pts)
        if not np.isfinite(v).all():
            bad = line_pts[int(np.argmax(~np.isfinite(v)))]
            raise ValueError(f"field returned a non-finite value at {bad}")
        viol = v[1:-1] - 0.5 * (v[:-2] + v[2:])
        tol = 1e-9 * (1.0 + np.abs(v[1:-1]))
        if (viol > tol).any():
            passed = False
        k = int(np.argmax(viol))
        # keep the earliest witness among rounding-level ties
        if witness is None or viol[k] > worst + 1e-12 * (1.0 + abs(worst)):
            witness = (base.copy(), w.copy(), float(s[k + 1]))
        worst = max(worst, float(viol[k]))
    return ConvexityReport(passed, worst, witness)
