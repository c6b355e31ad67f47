"""Zero-sum game engine: control lattices, Hamiltonians, backward induction.

The game runs on ``[0, T]`` with dynamics ``xdot = -f(x, z)``; Player I
picks ``y`` in a ball of radius ``r_y`` to maximize, Player II picks ``z``
in a ball of radius ``r_z`` to minimize the running-plus-terminal payoff.
The semi-discrete scheme steps the state with the exact one-segment flow
and resolves each step as a finite max-min (lower value, Player II reacts
per step) or min-max (upper value) over control lattices.  One-step
expansion of the lower recurrence reproduces the lower Hamiltonian
``H^-(t, x, lam) = max_y min_z (F(t, x, y, z) - lam . z)``.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .heis import Box, declaration_sample, dist_g, eval_field
from .flow import LipschitzConstants, exact_step
from .grids import StepFeet, ValueGrid, certify_region, grid_axes, grid_nodes, interp_values

__all__ = [
    "GameSpec",
    "ControlLattice",
    "AuditReport",
    "LipschitzConstants",
    "NonFiniteValueError",
    "make_lattice",
    "lattice_points",
    "lattice_bytes",
    "separable_cost",
    "REFLECTIONS",
    "Domain",
    "fundamental_domain",
    "lower_hamiltonian",
    "upper_hamiltonian",
    "isaacs_gap",
    "IsaacsReport",
    "backward_induction",
    "solve_bytes",
    "brute_force_value",
    "dpp_residual",
    "DppReport",
    "lipschitz_audit",
]


class NonFiniteValueError(RuntimeError):
    """A cost or value evaluation produced a non-finite number."""


# the group reflections a game may declare, named by the horizontal axis they
# flip: (x1, x2, x3) -> (x1, -x2, -x3) is "x2", (-x1, x2, -x3) is "x1"; both
# are automorphisms of the group law and isometries of d_G.  Each entry is
# the reflection's action on the plane of y, z and of the horizontal step.
REFLECTIONS = {"x1": (-1.0, 1.0), "x2": (1.0, -1.0)}


@dataclass
class GameSpec:
    """Full data of the zero-sum game.

    ``running_cost(t, x, y, z)`` and ``terminal_cost(x)`` take ``x`` of
    shape ``(..., 3)`` (and scalar or matching-shape ``t``) with single
    plane vectors ``y``, ``z``; they broadcast over the point batch.
    ``c1``/``c2`` bound the costs, ``c1p``/``c2p`` are their Lipschitz
    constants in the gauge distance.  When the running cost is separable,
    ``base(t, x, y) + k(y, z)``, passing ``coupling_base`` and
    ``coupling_pair(ypts, zpts)``, the ``(mz, my)`` table of ``k`` (``None``
    for ``z . y``), lets each step call the cost only as ``base``, once per
    ``y``, with one ``min_z`` for all ``y`` plus ``max_y h*base(y)`` where
    the table is free of ``y``; :func:`separable_cost` derives
    ``running_cost`` from the two.
    Every backward step, on the grid or grid-free, and both lattice
    Hamiltonians (the one-step expansions of the recurrences, continuing a
    linear value) are one ``_backup`` over the one max-min kernel
    ``_max_min``.  It rounds each entry once, as ``(W_z + h*k) + h*base``
    on the separable path and ``W_z + h*F`` on the general one, so declaring
    or dropping these fields moves the values by ulps (the tests pin the
    paths to 1e-12).  The derived constants come from the
    :class:`LipschitzConstants` table in :mod:`heisgame.flow`.

    ``reflections`` names the group reflections of :data:`REFLECTIONS`
    that both costs commute with: ``F(t, s(x), r(y), r(z)) = F(t, x, y, z)``
    and ``G(s(x)) = G(x)``, with ``s`` the automorphism and ``r`` its
    action on the plane.  Declaring one lets ``backward_induction`` solve
    half the grid per reflection (see :func:`fundamental_domain`); the
    declaration is checked on the sample of :meth:`check_declarations`,
    never assumed.  The default, none, keeps the full-grid path.
    """

    horizon: float
    r_y: float
    r_z: float
    running_cost: Callable
    terminal_cost: Callable
    c1: float
    c1p: float
    c2: float
    c2p: float
    coupling_base: Callable | None = None
    coupling_pair: Callable | None = None
    reflections: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.reflections) - set(REFLECTIONS)
        if unknown:
            raise ValueError(f"unknown reflections {sorted(unknown)}; "
                             f"choose from {sorted(REFLECTIONS)}")
        self.reflections = tuple(sorted(set(self.reflections)))
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.r_y < 0 or self.r_z < 0:
            raise ValueError("control radii must be nonnegative")
        for name in ("c1", "c1p", "c2", "c2p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def constants(self) -> LipschitzConstants:
        return LipschitzConstants(self.horizon, self.r_z, self.c1, self.c1p, self.c2p)

    def check_declarations(self, box: Box) -> list[str]:
        """Samples 128 points of ``box`` and 4 draws of ``(t, y, z)``, once for
        all declarations, the seed-free :func:`~heisgame.heis.declaration_sample`
        (a solve imports no ``numpy.random``, 6 MB).  Raises ``ValueError``
        for the first cost that moves by more than ``1e-12 * (1 + |value|)``
        under a declared reflection, then warns of each sampled cost beyond
        ``c1`` or ``c2`` and returns the messages.  The warnings come from one
        fixed line, so Python's default filter prints a violation that
        repeated solves meet (``verify``'s three) once per process."""
        pts, sample = declaration_sample(box, 128, self.horizon, self.r_y, self.r_z)
        gv = _on_points(eval_field(self.terminal_cost, pts), pts)
        draws = [(t, y, z, _on_points(self.running_cost(t, pts, y, z), pts)) for t, y, z in sample]
        for name in self.reflections:
            flip = np.array(REFLECTIONS[name])
            mirrored = pts * np.append(flip, -1.0)
            pairs = [("terminal cost", gv, eval_field(self.terminal_cost, mirrored))]
            pairs += [(f"running cost at t={t:.4g}, y={y}, z={z}", fv,
                       self.running_cost(t, mirrored, y * flip, z * flip))
                      for t, y, z, fv in draws]
            for what, a, b in pairs:
                b = _on_points(b, pts)
                # pairs of non-finite values pass here; the solve reports them
                with np.errstate(invalid="ignore"):
                    gap = np.abs(a - b)
                bad = ~(gap <= 1e-12 * (1 + np.fmin(np.abs(a), np.abs(b))))
                bad &= np.isfinite(a) | np.isfinite(b)
                if bad.any():
                    k = int(np.argmax(bad))
                    raise ValueError(
                        f"declared reflection {name!r} does not hold: the {what} "
                        f"moves by {gap[k]:.6g} at x={pts[k]}"
                    )
        msgs = []
        if (np.abs(gv) > self.c2 * (1 + 1e-9) + 1e-12).any():
            k = int(np.argmax(np.abs(gv)))
            msgs.append(f"|terminal cost| = {abs(gv[k]):.6g} exceeds c2 = {self.c2:.6g} "
                        f"at {pts[k]}")
        for t, y, z, fv in draws:
            if (np.abs(fv) > self.c1 * (1 + 1e-9) + 1e-12).any():
                k = int(np.argmax(np.abs(fv)))
                msgs.append(f"|running cost| = {abs(fv[k]):.6g} exceeds c1 = {self.c1:.6g} "
                            f"at t={t:.4g}, x={pts[k]}, y={y}, z={z}")
        for m in msgs:
            warnings.warn(m)
        return msgs


def _on_points(values, pts: np.ndarray) -> np.ndarray:
    """A cost evaluated on ``pts``, one float a point (a scalar broadcasts)."""
    return np.broadcast_to(np.asarray(values, dtype=float), (len(pts),))


@dataclass(frozen=True)
class ControlLattice:
    """Finite subset of a closed plane ball, with its covering radius: the
    largest distance from a point of the ball to the nearest lattice point
    (exact for :func:`make_lattice`)."""

    radius: float
    points: np.ndarray
    covering_radius: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise ValueError("lattice needs at least one point")
        norms = np.linalg.norm(pts, axis=-1)
        if (norms > self.radius * (1 + 1e-9) + 1e-12).any():
            raise ValueError("lattice point outside the declared ball")
        object.__setattr__(self, "points", pts)


def _ring_bound(radius: float, rings: int, base_angles: int) -> float:
    """Closed-form upper bound on the covering radius of ``make_lattice``.

    A point at norm ``r`` lies within angle ``pi/m_j`` of a point of ring
    ``j`` (radius ``r_j``, ``m_j`` points), so its squared distance to that
    ring is at most ``f_j(r) = (r - r_j)^2 + 4 r r_j sin^2(pi/(2 m_j))``
    (``r^2`` for the centre).  Between rings ``j`` and ``j + 1`` the bound
    is ``max_r min(f_j, f_{j+1})``; ``f_j - f_{j+1}`` is linear in ``r``
    and both are convex, so the max is at an end of the annulus or where
    they cross.  The result is raised by ``1e-9`` relative, so rounding in
    the sites cannot lift the exact value above it.
    """
    r = radius * np.arange(rings + 1) / rings
    s = np.zeros(rings + 1)
    s[1:] = 4 * np.sin(np.pi / (2 * base_angles * np.arange(1, rings + 1))) ** 2
    f = lambda j, x: (x - r[j]) ** 2 + s[j] * r[j] * x
    lo, hi = np.arange(rings), np.arange(1, rings + 1)
    # f_lo - f_hi = slope * x + (r_lo^2 - r_hi^2)
    slope = 2 * (r[hi] - r[lo]) + s[lo] * r[lo] - s[hi] * r[hi]
    cross = np.clip((r[hi] ** 2 - r[lo] ** 2) / slope, r[lo], r[hi])
    worst = max(np.minimum(f(lo, x), f(hi, x)).max() for x in (r[lo], r[hi], cross))
    return float(np.sqrt(worst)) * (1 + 1e-9)


def _sq(v: np.ndarray) -> np.ndarray:
    """Squared lengths of the plane vectors ``v[..., :]``."""
    return v[..., 0] ** 2 + v[..., 1] ** 2


def _close_pairs(points: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i != j``, of points at most ``reach`` apart,
    both orders, from square cells of side ``reach``: each point is compared
    with the points of its own and the 8 adjacent cells."""
    cell = np.floor(points / reach).astype(np.int64)
    cell -= cell.min(axis=0) - 1
    rows = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * rows + cell[:, 1]
    order = np.argsort(key, kind="stable")
    keys = key[order]
    i, j = [], []
    # a column of three cells is one run of consecutive keys
    for column in (-rows, 0, rows):
        lo = np.searchsorted(keys, key + column - 1, "left")
        n = np.searchsorted(keys, key + column + 1, "right") - lo
        i.append(np.repeat(np.arange(len(points)), n))
        j.append(order[np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)])
    i, j = np.concatenate(i), np.concatenate(j)
    keep = (i != j) & (_sq(points[i] - points[j]) <= reach ** 2)
    return i[keep], j[keep]


def _covering_radius(points: np.ndarray, radius: float, bound: float) -> float:
    """Exact covering radius of ``points`` in the closed disk of ``radius``,
    ``max_x min_p |x - p|``, given an upper bound ``bound`` on it.

    The distance to the nearest point is largest at a vertex of the
    Voronoi diagram clipped to the disk (Shamos and Hoey, "Closest-point
    problems", FOCS 1975): a circumcentre of three points inside the disk,
    a point where a pair's bisector meets the circle, or the point of the
    circle farthest from one point (``(radius, 0)`` for a point at the
    centre).  Each candidate is generated by a point ``p`` at distance at
    most ``bound`` and its other points lie within ``2*bound`` of ``p``,
    so only such pairs and triples are formed and candidates farther than
    ``bound`` from ``p`` are dropped.  A point nearer a candidate than
    ``p`` is within ``2*bound`` of ``p`` too, so each candidate's nearest
    distance is taken over ``p``'s neighbours alone, and the largest is
    the covering radius.  Any ``bound`` at least the covering radius gives
    the same value; ``2*radius`` always is one, at the cost of all pairs
    and triples.
    """
    if radius == 0.0:
        return 0.0
    m, reach = len(points), 2 * bound
    i, j = _close_pairs(points, reach)
    # row p of ``near``: p's neighbours, padded with p itself
    by_row = np.argsort(i, kind="stable")
    i, j = i[by_row], j[by_row]
    deg = np.bincount(i, minlength=m)
    near = np.repeat(np.arange(m)[:, None], deg.max() + 1, axis=1)
    near[i, np.arange(len(i)) - np.repeat(np.cumsum(deg) - deg, deg)] = j

    # the circle's point farthest from each point, (radius, 0) for the centre
    norms = np.sqrt(_sq(points))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.where(norms > 0, -radius * points / norms, [radius, 0.0])
    centres, owners = [far], [np.arange(m)]

    a, b = i[i < j], j[i < j]
    mid = 0.5 * (points[a] + points[b])
    d = points[b] - points[a]
    v = np.stack([-d[:, 1], d[:, 0]], axis=-1) / np.sqrt(_sq(d))[:, None]
    mv = mid[:, 0] * v[:, 0] + mid[:, 1] * v[:, 1]
    disc = mv ** 2 + (radius ** 2 - _sq(mid))
    ok = disc >= 0
    for sign in (-1.0, 1.0):
        t = -mv[ok] + sign * np.sqrt(disc[ok])
        centres.append(mid[ok] + t[:, None] * v[ok])
        owners.append(a[ok])

    # triples a < b < c, all pairs within reach, from a's neighbour row
    c = near[a]
    e = points[c] - points[b][:, None]
    keep = (c > b[:, None]) & (_sq(e) <= reach ** 2)
    rows, cols = np.nonzero(keep)
    a3, c3 = a[rows], c[rows, cols]
    p, q = points[b[rows]] - points[a3], points[c3] - points[a3]
    pq, qq = _sq(p), _sq(q)
    det = 2 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.stack([q[:, 1] * pq - p[:, 1] * qq, p[:, 0] * qq - q[:, 0] * pq], axis=-1)
        u /= det[:, None]
    centre = points[a3] + u
    inside = np.isfinite(u).all(-1) & (_sq(centre) <= radius ** 2)
    centres.append(centre[inside])
    owners.append(a3[inside])

    centre, owner = np.concatenate(centres), np.concatenate(owners)
    gap = centre - points[owner]
    close = _sq(gap) <= bound ** 2
    centre, owner = centre[close], owner[close]
    nearest = np.full(len(centre), np.inf)
    for k in range(near.shape[1]):
        gap = centre - points[near[owner, k]]
        np.minimum(nearest, _sq(gap), out=nearest)
    return float(np.sqrt(nearest.max()))


def make_lattice(radius: float, rings: int = 4, base_angles: int = 8) -> ControlLattice:
    """Center plus ``rings`` concentric rings at radii ``radius*j/rings``,
    ring ``j`` carrying ``base_angles*j`` equally spaced angles.

    Points are ordered center first, then rings inward to outward with
    angles ascending, which fixes the optimizer tie-break.  The covering
    radius is exact (``_covering_radius`` under the rings' ``_ring_bound``).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if rings < 1:
        raise ValueError("rings must be >= 1")
    if base_angles < 4:
        raise ValueError("base_angles must be >= 4")
    if radius == 0.0:
        return ControlLattice(0.0, np.zeros((1, 2)), 0.0)
    pts = [np.zeros(2)]
    for j in range(1, rings + 1):
        r = radius * j / rings
        m = base_angles * j
        ang = 2 * np.pi * np.arange(m) / m
        pts.extend(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1))
    points = np.asarray(pts)
    bound = _ring_bound(radius, rings, base_angles)
    return ControlLattice(radius, points, _covering_radius(points, radius, bound))


def lattice_points(radius: float, rings: int, base_angles: int) -> int:
    """Number of points of ``make_lattice(radius, rings, base_angles)``."""
    return 1 if radius == 0.0 else 1 + base_angles * rings * (rings + 1) // 2


def lattice_bytes(radius: float, rings: int, base_angles: int) -> int:
    """About the peak bytes of ``make_lattice(radius, rings, base_angles)``,
    all freed when it returns.  The exact covering radius pairs each point
    with the about ``base_angles`` points within ``2*bound`` and forms
    triples from those pairs, so a point costs ``4096 + 12*base_angles**2``
    bytes, an upper bound the tests check under tracemalloc."""
    return lattice_points(radius, rings, base_angles) * (4096 + 12 * base_angles ** 2)


def _check_lattices(spec: GameSpec, y_lattice: ControlLattice, z_lattice: ControlLattice):
    for name, lattice, radius in (("y", y_lattice, spec.r_y), ("z", z_lattice, spec.r_z)):
        if abs(lattice.radius - radius) > 1e-9 * (1 + abs(radius)):
            raise ValueError(
                f"{name} lattice radius {lattice.radius} does not match the game's {radius}"
            )


def _max_min(n, m_outer, m_inner, row, lower, outer_term=None, probe=()):
    """The lattice opt-opt: ``max_a min_b`` if ``lower``, else ``min_a max_b``.

    ``row(a, b, out)`` writes the payoff of outer index ``a`` and inner
    index ``b`` into ``out`` of shape ``(n,)``; ``outer_term(a)``, if
    given, is added after the inner reduction, evaluated once per ``a``.
    Rows accumulate in place, which measured faster than reducing stacked
    ``(m, n)`` chunks.

    ``probe``, a few inner indices, bounds each ``a`` after the first: the
    inner opt over the probe rows plus ``outer_term(a)`` is at least the
    full ``min_b`` (at most the full ``max_b``), because the opt over a
    subset of the rows is and a rounded add is monotone.  Where the running best strictly
    beats that bound at every node (``np.less`` for the lower value,
    ``np.greater`` for the upper), ``a`` cannot change the best and is
    skipped; otherwise its full row runs in the order above, so ties,
    signed zeros and NaN keep their bits.  A NaN bound compares false and
    never skips, but a NaN in a row outside the probe is not read, so the
    caller passes ``probe`` only where every row is free of NaN.
    """
    inner_opt, outer_opt = (np.minimum, np.maximum) if lower else (np.maximum, np.minimum)
    beaten = np.less if lower else np.greater
    best = np.full(n, -np.inf if lower else np.inf)
    acc, scratch = np.empty(n), np.empty(n)
    for a in range(m_outer):
        term = None if outer_term is None else outer_term(a)
        if probe and a:
            row(a, probe[0], acc)
            for b in probe[1:]:
                row(a, b, scratch)
                inner_opt(acc, scratch, out=acc)
            bound = acc if term is None else np.add(acc, term, out=scratch)
            if beaten(bound, best).all():
                continue
        row(a, 0, acc)
        for b in range(1, m_inner):
            row(a, b, scratch)
            inner_opt(acc, scratch, out=acc)
        total = acc if term is None else np.add(acc, term, out=scratch)
        outer_opt(best, total, out=best)
    return best


def _ring_probe(points: np.ndarray) -> tuple[int, ...]:
    """Every 4th index of the lattice's outermost ring, the points within
    1e-9 of the largest norm (8 of the 81 of ``make_lattice(r, 4, 8)``)."""
    norms = np.linalg.norm(points, axis=-1)
    return tuple(int(k) for k in np.flatnonzero(norms >= norms.max() * (1 - 1e-9))[::4])


def _pair_values(pair: Callable | None, ypts: np.ndarray, zpts: np.ndarray) -> np.ndarray:
    """The ``(mz, my)`` table of ``k`` in a separable cost ``base + k`` with
    table function ``pair`` (``None``: ``k = z . y``)."""
    return np.asarray(zpts @ ypts.T if pair is None else pair(ypts, zpts), dtype=float)


def _pair_table(spec: GameSpec, ypts: np.ndarray, zpts: np.ndarray) -> np.ndarray:
    """The ``_pair_values`` table of ``spec``'s separable cost."""
    return _pair_values(spec.coupling_pair, ypts, zpts)


def separable_cost(base: Callable, pair: Callable | None = None) -> Callable:
    """The running cost ``F = base(t, x, y) + k(y, z)``, ``k`` read as the one
    entry of the ``_pair_values`` table, so ``F`` rounds as the solver's sum."""
    return lambda t, x, y, z: base(t, x, y) + _pair_values(
        pair, np.reshape(y, (1, 2)), np.reshape(z, (1, 2)))[0, 0]


def _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, which):
    """The ``_backup`` of step ``h = 1`` at probes ``(t, x, lam)`` with
    ``W[j] = -(lam . z_j)``, the continuation of a value linear in the step;
    a float for one point ``x`` of shape ``(3,)``."""
    _check_lattices(spec, y_lattice, z_lattice)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (len(pts), 2))
    W = -np.array([lam @ z for z in z_lattice.points])
    best = _backup(spec, np.asarray(t, dtype=float), 1.0, pts, W, y_lattice, z_lattice, which)
    return float(best[0]) if x.ndim == 1 else best


def lower_hamiltonian(spec: GameSpec, t, x, lam, y_lattice, z_lattice):
    """Exact ``max_y min_z (F(t,x,y,z) - lam . z)`` over the lattices.

    Accepts batched probes: ``x`` of shape ``(n, 3)`` with ``t`` and
    ``lam`` broadcasting.  Ties resolve to the first lattice index.  It is
    one ``_backup`` of step ``h = 1`` with ``W[j] = -(lam . z_j)``, so it
    runs the rows, probe skips and y-free path of the grid solve, and a
    separable cost rounds each entry as ``(-lam.z + k) + base``, the general
    one as ``-lam.z + F``, bit for bit ``F - lam.z``.
    """
    return _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, "lower")


def upper_hamiltonian(spec: GameSpec, t, x, lam, y_lattice, z_lattice):
    """Exact ``min_z max_y (F(t,x,y,z) - lam . z)`` over the lattices: the
    ``_backup`` of :func:`lower_hamiltonian` for the upper value."""
    return _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, "upper")


@dataclass(frozen=True)
class IsaacsReport:
    max_gap: float
    gaps: np.ndarray


def isaacs_gap(spec: GameSpec, probes, y_lattice, z_lattice) -> IsaacsReport:
    """Max of upper minus lower Hamiltonian over probe triples ``(t, x, lam)``.

    Measures only the lattice gap; a zero gap makes no claim about the
    continuum min-max condition.
    """
    lo = lower_hamiltonian(spec, *probes, y_lattice, z_lattice)
    gaps = np.atleast_1d(upper_hamiltonian(spec, *probes, y_lattice, z_lattice) - lo)
    return IsaacsReport(float(gaps.max()), gaps)


def _backup(spec, t, h, pts, W, y_lattice, z_lattice, which):
    """One semi-Lagrangian step on a point batch: opt-opt of ``h*F + W``.

    ``W`` of shape ``(mz, n)`` holds the continuation values, filled by the
    caller: row ``j`` at the feet ``x o (-h*z_j, 0)`` of the batch, reached
    with lattice point ``z_j`` under ``xdot = -f(x, z)``; the lattice
    Hamiltonians pass ``h = 1`` and ``W[j] = -(lam . z_j)``.  Each entry is
    rounded once: ``(W_z + h*k(y, z)) + h*base(y)`` for a separable cost,
    which is called only as ``base``, once per ``y``, and ``W_z + h*F``
    otherwise, with one ``running_cost`` call per ``(y, z)`` pair.  Both
    values reduce the same entries.  Where every column of ``offs = h*k``
    has the same bits (a ``k`` free of ``y``; ``0.0`` and ``-0.0`` differ),
    both take the one ``min_z`` ``c`` of ``W_z + offs_z`` and add it once
    to ``max_y h*base(y)``, reduced lazily in lattice order at the base's
    shape (a scalar for the catalog's costs).  A rounded add is monotone
    and its zero sum is ``-0.0`` only from two ``-0.0`` terms, so this has
    the bits of either opt-opt of the entries.  Otherwise the lower
    value adds ``h*base(y)`` after its ``min_z`` and bounds each ``y`` after
    the first by the rows of every 4th point of the outermost ``z`` ring
    (``_max_min``'s ``probe``), skipping it where the running best is
    strictly above the bound at every node; a skipped row is never read, so
    the bound is used only when ``W`` is finite.  The upper value holds the
    ``my`` rows ``h*base(y)`` and takes no probe, since its minimizing ``z``
    follows each node's continuation.  Every cost evaluated (the ``k``
    table, each ``base`` row, each ``F`` row) raises ``NonFiniteValueError``
    if not finite, even where the opt-opt would hide it.
    """
    n = len(pts)
    ypts, zpts = y_lattice.points, z_lattice.points
    lower = which == "lower"
    sizes = (len(ypts), len(zpts)) if lower else (len(zpts), len(ypts))
    if spec.coupling_base is not None:
        offs = h * _pair_table(spec, ypts, zpts)  # (mz, my)
        if not np.isfinite(offs).all():
            raise NonFiniteValueError(f"coupling pair non-finite at t={t}")

        def base(yi):
            b = h * np.asarray(spec.coupling_base(t, pts, ypts[yi]), dtype=float)
            if not np.isfinite(b).all():
                raise NonFiniteValueError(f"coupling base non-finite at t={t}")
            return b

        bits = offs.view(np.uint64)
        if (bits == bits[:, :1]).all():
            common = _max_min(n, 1, len(zpts),
                              lambda _, zi, out: np.add(W[zi], offs[zi, 0], out=out), True)
            top = functools.reduce(np.maximum, map(base, range(len(ypts))))
            return np.add(common, top, out=common)
        if lower:
            probe = _ring_probe(zpts) if np.isfinite(W).all() else ()
            return _max_min(n, *sizes, lambda yi, zi, out: np.add(W[zi], offs[zi, yi], out=out),
                            True, base, probe)
        bases = [base(yi) for yi in range(len(ypts))]

        def entry(zi, yi, out):
            np.add(np.add(W[zi], offs[zi, yi], out=out), bases[yi], out=out)

        return _max_min(n, *sizes, entry, False)

    def row(a, b, out):
        yi, zi = (a, b) if lower else (b, a)
        fv = h * np.asarray(spec.running_cost(t, pts, ypts[yi], zpts[zi]), dtype=float)
        if not np.isfinite(fv).all():
            raise NonFiniteValueError(
                f"running cost non-finite at t={t}, y={ypts[yi]}, z={zpts[zi]}")
        np.add(W[zi], fv, out=out)

    return _max_min(n, *sizes, row, lower)


class Domain(NamedTuple):
    """The part of a grid that ``backward_induction`` solves: the reflections
    it uses, the first solved x1 and x2 node indices, and the solved node
    count."""

    reflections: tuple[str, ...]
    starts: tuple[int, int]
    nodes: int


def fundamental_domain(spec: GameSpec, box: Box, counts, y_lattice: ControlLattice,
                       z_lattice: ControlLattice) -> Domain:
    """The part of the grid of ``counts`` nodes over ``box`` that
    ``backward_induction`` solves for ``spec``.

    A declared reflection is used when its flipped axis and the x3 axis are
    exactly antisymmetric (``a == -a[::-1]``) and both lattices map onto
    themselves as point sets to 1e-12; the solved part then starts at
    ``n // 2`` on that axis, the nodes with ``x >= 0``.  The tests run in
    that order, so a game that declares nothing pays nothing.
    """
    axes = grid_axes(box, counts)
    used, starts = [], [0, 0]
    for name in spec.reflections:
        axis = 0 if name == "x1" else 1
        if not all(np.array_equal(a, -a[::-1]) for a in (axes[axis], axes[2])):
            continue
        flip = np.array(REFLECTIONS[name])
        if all(_maps_onto(lat.points, flip) for lat in (y_lattice, z_lattice)):
            used.append(name)
            starts[axis] = len(axes[axis]) // 2
    (n1, n2, n3), (s1, s2) = counts, starts
    return Domain(tuple(used), (s1, s2), (n1 - s1) * (n2 - s2) * n3)


def _maps_onto(points: np.ndarray, flip: np.ndarray) -> bool:
    """Whether every flipped point lies within 1e-12 of a lattice point."""
    flipped = points * flip
    for k in range(0, len(points), 64):
        gap = np.abs(flipped[k:k + 64, None, :] - points[None, :, :]).max(-1).min(-1)
        if (gap > 1e-12).any():
            return False
    return True


def _unfold(a: np.ndarray, s1: int, s2: int) -> None:
    """Fill an ``(n1, n2, n3)`` slice in place from its solved part
    ``a[s1:, s2:]``: ``(x1, -x2, -x3)`` mirrors the x2 axis, then
    ``(-x1, x2, -x3)`` the x1 axis; a node mirrored once reads its column
    reversed, one mirrored twice reads it as is."""
    if s2:
        a[s1:, :s2] = a[s1:, ::-1, ::-1][:, :s2]
    if s1:
        a[:s1] = a[::-1, :, ::-1][:s1]


def backward_induction(
    spec: GameSpec,
    box: Box,
    counts,
    n_steps: int,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    which: str = "lower",
    threads: int = 0,
) -> ValueGrid:
    """Semi-discrete dynamic programming for the lower or upper value on the
    grid of ``counts`` nodes (three integers >= 2) over ``box``.

    The slice at the horizon samples the terminal cost; each earlier slice
    solves, nodewise,

        lower:  V(t, x) = max_y min_z [ h*F(t, x, y, z) + V(t+h, x o (-h*z, 0)) ]
        upper:  the same with min over z outside,

    interpolating the next slice trilinearly at the stepped point.  The
    stepped points of a block are passed as :class:`StepFeet`, so
    ``interp_values`` lerps axis by axis without forming them, bit-identical
    to the gather at the ``exact_step`` feet.  One rule cuts the solved nodes
    into blocks of whole x1-planes, serial or threaded (:func:`_node_blocks`),
    run one at a time or ``threads`` at once, each thread with one ``W``.
    A node is flagged untrusted at a step when that step's interpolation
    clamps its stepped point for some lattice ``z``; ``trusted_region`` is
    the reach-certified sub-box.

    Where the game declares reflections (``GameSpec.reflections``) that the
    grid and lattices also have (:func:`fundamental_domain`), each step
    solves only the nodes with ``x1 >= 0`` and/or ``x2 >= 0``, still a
    tensor grid, and fills the rest of the slice and its trusted row by
    mirroring (each value slice is invariant).  The values then differ from
    the full-grid solve by ulps, since the mirrored nodes' lerps run from
    the other side.  Every solve checks the declarations
    (``GameSpec.check_declarations``) before its first step.
    """
    if which not in ("lower", "upper"):
        raise ValueError(f"which must be 'lower' or 'upper', got {which!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    counts = tuple(counts)
    if len(counts) != 3 or not all(isinstance(c, (int, np.integer)) and c >= 2 for c in counts):
        raise ValueError(f"counts must be three integers >= 2, got {counts}")
    _check_lattices(spec, y_lattice, z_lattice)

    h = spec.horizon / n_steps
    times = np.linspace(0.0, spec.horizon, n_steps + 1)
    nodes = grid_nodes(box, counts)

    spec.check_declarations(box)
    region = certify_region(box, spec.r_z, spec.horizon)

    g_vals = eval_field(spec.terminal_cost, nodes)
    if not np.isfinite(g_vals).all():
        k = int(np.argmax(~np.isfinite(g_vals)))
        raise NonFiniteValueError(f"terminal cost non-finite at node {nodes[k]}")

    data = np.empty((n_steps + 1,) + counts)
    data[n_steps] = g_vals.reshape(counts)
    trusted = np.ones((n_steps + 1,) + counts, dtype=bool)

    # the solved part: all of the grid, or its x1 >= 0 and/or x2 >= 0 part
    s1, s2 = fundamental_domain(spec, box, counts, y_lattice, z_lattice).starts
    x1, x2, x3 = grid_axes(box, counts)
    axes = (x1[s1:], x2[s2:], x3)
    solved = nodes.reshape(counts + (3,))[s1:, s2:].reshape(-1, 3)
    del nodes, g_vals  # 32 B a node that no step reads, freed before the steps

    plane = len(axes[1]) * len(axes[2])
    blocks = _node_blocks(len(solved), threads, plane)
    # one W a thread, as wide as the widest block, that every step reuses
    local, width = threading.local(), max(b.stop - b.start for b in blocks) * plane

    def run_block(k, planes):
        block_axes = (axes[0][planes], axes[1], axes[2])
        pts = solved.reshape(len(axes[0]), -1, 3)[planes].reshape(-1, 3)  # a view
        if not hasattr(local, "W"):
            local.W = np.empty((len(z_lattice.points), width))
        W = local.W[:, :len(pts)]
        inside = trusted[k, s1:, s2:][planes]  # all True until this step
        for j, z in enumerate(z_lattice.points):
            W[j], ok = interp_values(box, data[k + 1], StepFeet(block_axes, -h * z))
            np.logical_and(inside, ok.reshape(inside.shape), out=inside)
        return _backup(spec, times[k], h, pts, W, y_lattice, z_lattice, which)

    pool = None
    if threads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=threads)
    with pool or nullcontext():
        for k in range(n_steps - 1, -1, -1):
            results = (pool.map if pool else map)(functools.partial(run_block, k), blocks)
            part = data[k, s1:, s2:]
            for planes, vals in zip(blocks, results):
                part[planes] = vals.reshape(-1, *part.shape[1:])
            _unfold(data[k], s1, s2)
            _unfold(trusted[k], s1, s2)
            if not np.isfinite(data[k]).all():
                bad = int(np.argmax(~np.isfinite(data[k])))
                raise NonFiniteValueError(
                    f"non-finite value at t={times[k]:.6g}, node {grid_nodes(box, counts)[bad]}"
                )

    return ValueGrid(box, times, data, region, trusted)


# nodes a solver block holds, to half a plane, and the grid-free recursion's largest batch
_BLOCK_NODES = 131072


# bytes a lattice pair costs in a ``_backup`` of a separable cost: the
# float64 table ``h*k`` with its bool finiteness and ``y``-free tests, and the
# unscaled table where numpy does not reuse its buffer (9 to 18 B measured)
_PAIR_BYTES = 24


def solve_bytes(counts, n_steps: int, y_points: int, z_points: int, threads: int = 0) -> int:
    """Bytes of the arrays ``backward_induction`` holds on a grid of ``counts``
    nodes: the float64 value and bool trusted stacks of ``n_steps + 1``
    slices (an HJI solve's time reversal is a view of them), the node
    coordinates and terminal samples (32 B per node), and for each thread
    that runs blocks (one serial, up to ``threads``) a ``W`` as wide as the
    widest :func:`_node_blocks` block of any part :func:`fundamental_domain`
    may solve and the ``(z_points, y_points)`` pair table of a separable
    cost (``_PAIR_BYTES`` a pair, an upper bound on the peak the tests
    measure).  This sizes the lower solve the CLI runs; an upper separable
    step also holds ``my`` base rows."""
    (n1, n2, n3), nodes = counts, math.prod(counts)
    cuts = [(p, _node_blocks((n1 - s1) * p, threads, p)) for s1 in {0, n1 // 2}
            for p in {n2 * n3, (n2 - n2 // 2) * n3}]
    widest = max(p * (b.stop - b.start) for p, cut in cuts for b in cut)
    in_flight = min(max(threads, 1), max(len(cut) for _, cut in cuts))
    return ((n_steps + 1) * nodes * 9 + nodes * 32
            + in_flight * (z_points * widest * 8 + y_points * z_points * _PAIR_BYTES))


def _node_blocks(n: int, threads: int, plane: int) -> list[slice]:
    """Blocks of whole planes of ``plane`` nodes, as plane-index slices, each
    as close as possible to ``min(_BLOCK_NODES, max(16384, n/threads))`` of
    the ``n`` nodes (``threads`` 0: one), so up to half a plane beyond it."""
    size = min(_BLOCK_NODES, max(16384, -(-n // max(threads, 1))))
    step = max(1, round(size / plane))
    n_planes = n // plane
    return [slice(k, min(k + step, n_planes)) for k in range(0, n_planes, step)]


def _alternating_value(spec, pts, t_start, steps, h, y_lattice, z_lattice, which, leaf):
    """Grid-free alternating expansion on a point batch; ``leaf`` ends it.

    Breadth-first: each level takes one ``_backup`` over its whole batch.
    Above the leaf it steps the batch under every lattice ``z`` at once and
    recurses once on the stacked ``(mz*n, 3)`` feet; at the leaf it steps
    and calls ``leaf`` one ``z`` at a time, so no ``(mz, n, 3)`` feet are
    held where the batch is largest.  The deepest batch holds
    ``n*mz**(steps-1)`` points; where that passes ``_BLOCK_NODES``, ``pts``
    is split into chunks, each expanded on its own.  Every operation is
    elementwise and in the order of a depth-first recursion with one call
    per ``z``, so the values are bit-identical to it.
    """
    zpts = z_lattice.points
    chunk = max(1, _BLOCK_NODES // len(zpts) ** (steps - 1))
    if len(pts) > chunk:
        return np.concatenate([
            _alternating_value(spec, pts[k:k + chunk], t_start, steps, h,
                               y_lattice, z_lattice, which, leaf)
            for k in range(0, len(pts), chunk)])
    if steps == 1:
        W = np.empty((len(zpts), len(pts)))
        for j, z in enumerate(zpts):
            W[j] = leaf(exact_step(pts, -z, h))
    else:
        feet = exact_step(pts, -zpts[:, None], h)  # (mz, n, 3)
        W = _alternating_value(spec, feet.reshape(-1, 3), t_start + h, steps - 1, h,
                               y_lattice, z_lattice, which, leaf).reshape(feet.shape[:2])
    return _backup(spec, t_start, h, pts, W, y_lattice, z_lattice, which)


def brute_force_value(
    spec: GameSpec,
    xi,
    n_steps: int,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    which: str = "lower",
) -> np.ndarray:
    """Alternating max/min expansion on exact states, without any grid, at
    the points ``xi`` of shape ``(..., 3)``; returns values of shape ``(...)``,
    each bit-identical to the expansion of its point alone.

    Oracle for ``backward_induction``: exact whenever ``r_z = 0`` (no
    motion, no interpolation), and equal up to interpolation error
    otherwise.  Enumeration is exponential in time, and in memory as well:
    the breadth-first expansion holds ``mz**(n_steps-1)`` points per start
    point at its deepest level.  So ``n_steps <= 3`` and at most 9 points
    per lattice are enforced.
    """
    if n_steps > 3 or n_steps < 1:
        raise ValueError("size guard: n_steps must be between 1 and 3")
    if len(y_lattice.points) > 9 or len(z_lattice.points) > 9:
        raise ValueError("size guard: lattices must have at most 9 points")
    _check_lattices(spec, y_lattice, z_lattice)
    xi = np.asarray(xi, dtype=float)
    h = spec.horizon / n_steps
    leaf = lambda pts: eval_field(spec.terminal_cost, pts)
    vals = _alternating_value(spec, xi.reshape(-1, 3), 0.0, n_steps, h,
                              y_lattice, z_lattice, which, leaf)
    return vals.reshape(xi.shape[:-1])


@dataclass(frozen=True)
class DppReport:
    max_residual: float
    n_evaluated: int
    sigma_steps: int


def dpp_residual(
    V: ValueGrid,
    spec: GameSpec,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    probes: int = 64,
    sigma_steps: int = 2,
    rng=None,
    which: str = "lower",
) -> DppReport:
    """Recomputes ``V`` at ``probes`` nodes, sampled inside the certified
    region, by an exact ``sigma_steps``-step alternating expansion off the
    slice at ``t + sigma`` and reports the worst disagreement.

    One step reproduces the recurrence identically; two or more steps
    expose the interpolation commutation error.
    """
    if sigma_steps < 1 or sigma_steps > V.n_steps:
        raise ValueError("sigma_steps must be between 1 and n_steps")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    _check_lattices(spec, y_lattice, z_lattice)
    sl = V.region_index_bounds()
    h = V.dt
    rng = rng or np.random.default_rng(0)
    ks = rng.integers(0, V.n_steps - sigma_steps + 1, probes)
    ii = rng.integers(sl[0].start, sl[0].stop, probes)
    jj = rng.integers(sl[1].start, sl[1].stop, probes)
    ll = rng.integers(sl[2].start, sl[2].stop, probes)

    ax = V.axes()
    pts = np.stack([ax[0][ii], ax[1][jj], ax[2][ll]], axis=-1)
    stored = V.data[ks, ii, jj, ll]
    worst = 0.0
    for k in dict.fromkeys(ks.tolist()):
        group = ks == k
        target = V.slice(k + sigma_steps)
        leaf = lambda q, tg=target: interp_values(tg.box, tg.values, q)[0]
        vals = _alternating_value(spec, pts[group], float(V.times[k]), sigma_steps, h,
                                  y_lattice, z_lattice, which, leaf)
        worst = max(worst, float(np.abs(vals - stored[group]).max()))
    return DppReport(worst, len(ks), sigma_steps)


@dataclass(frozen=True)
class AuditReport:
    quantity: str
    constant: float
    worst_ratio: float
    witness: tuple | None
    passed: bool
    slack: float

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            (ta, pa), (tb, pb) = self.witness
            w = [[ta, list(map(float, pa))], [tb, list(map(float, pb))]]
        return {
            "quantity": self.quantity,
            "constant": self.constant,
            "worst_ratio": self.worst_ratio,
            "witness": w,
            "passed": bool(self.passed),
            "slack": self.slack,
        }


AUDIT_SLACK = 0.15


def lipschitz_audit(
    V: ValueGrid,
    constants,
    rng=None,
    n_random_pairs: int = 20000,
) -> list[AuditReport]:
    """Empirical regularity audit of a value stack on its certified region.

    Checks the same-time spatial ratio ``|dV| / d_G`` against
    ``c_sharp = (1 + 3*r_z) * exp(T*r_z/2) * (c1p*T + c2p)`` and the
    space-time ratio ``|dV| / (|dt| + d_G)`` against
    ``c_prime = c_sharp + c1``, over all time-adjacent and axis-adjacent
    node pairs, then ``n_random_pairs`` random pairs at one time and as
    many at two times.  Each ratio keeps the first pair of its largest value
    as witness; spatial pairs are space-time pairs with ``dt = 0``.  The
    slack factor ``AUDIT_SLACK`` covers the one-grid scheme error; the
    refinement trend is checked separately.
    """
    rng = rng or np.random.default_rng(0)
    sl = V.region_index_bounds()
    sub = V.data[(slice(None),) + sl]
    if sub[0].size < 2:
        raise ValueError("fewer than 2 nodes inside the certified region")
    ax = [a[s] for a, s in zip(V.axes(), sl)]
    coords = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)

    def at(idx):
        return float(V.times[idx[0]]), coords[tuple(idx[1:])]

    # (ratio, witness) of the same-time pairs and of all pairs; the
    # time-adjacent pairs come first, so they always set the second
    best = [(0.0, None), (-np.inf, None)]

    def offer(across_times, ratios, witness):
        if ratios.size:
            k = int(np.argmax(ratios))
            r = float(ratios.reshape(-1)[k])
            if r > best[across_times][0]:
                best[across_times] = (r, witness(k))

    def adjacent(idx, axis):
        return at(idx), at(idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:])

    for axis in range(4):
        if sub.shape[axis] < 2:
            continue
        dv = np.abs(np.diff(sub, axis=axis))
        if axis == 0:
            ratios = dv / V.dt
        else:
            lead, trail = (np.delete(coords, end, axis=axis - 1) for end in (-1, 0))
            ratios = dv / dist_g(trail, lead)  # dg > 0 for distinct nodes
        offer(axis == 0, ratios, lambda k: adjacent(np.unravel_index(k, ratios.shape), axis))

    for across_times in (False, True):
        ka = rng.integers(0, len(V.times), n_random_pairs)
        kb = rng.integers(0, len(V.times), n_random_pairs) if across_times else ka
        a = (ka, *(rng.integers(0, m, n_random_pairs) for m in sub.shape[1:]))
        b = (kb, *(rng.integers(0, m, n_random_pairs) for m in sub.shape[1:]))
        # |t - t| + d_G == d_G exactly at one time
        denom = np.abs(V.times[ka] - V.times[kb]) + dist_g(coords[a[1:]], coords[b[1:]])
        ratios = np.divide(np.abs(sub[a] - sub[b]), denom,
                           out=np.full(n_random_pairs, -np.inf), where=denom > 0)
        offer(across_times, ratios, lambda k: (at([i[k] for i in a]), at([i[k] for i in b])))

    if best[0][0] > best[1][0]:
        best[1] = best[0]
    return [
        AuditReport(quantity, c, ratio, witness,
                    ratio <= c * (1 + AUDIT_SLACK) + 1e-12, AUDIT_SLACK)
        for quantity, c, (ratio, witness) in zip(
            ("spatial_ratio_vs_c_sharp", "space_time_ratio_vs_c_prime"),
            (constants.c_sharp, constants.c_prime), best)
    ]
