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

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .heis import Box, ball_points, dist_g, eval_field
from .flow import LipschitzConstants, exact_step
from .grids import Grid3, StepFeet, ValueGrid, certify_region, interp_values

__all__ = [
    "GameSpec",
    "ControlLattice",
    "AuditReport",
    "LipschitzConstants",
    "NonFiniteValueError",
    "make_lattice",
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
    for ``z . y``), lets the lower value take a faster path, with one
    ``min_z`` for all ``y`` where the table is free of ``y``.  The paths
    round differently, the fast one as ``(W_z + h*k) + h*base`` and the
    general one as ``W_z + h*F``, so declaring or dropping these fields
    moves the values by ulps (the tests pin the paths to 1e-12).  The
    lattice Hamiltonians form ``F`` as ``base + k`` from the same fields;
    that is bit-identical wherever ``running_cost`` rounds ``F`` as that
    sum with the table's ``k``.  Every
    backward step, on the grid or grid-free, is one ``_backup``; it and the
    lattice Hamiltonians run the one max-min kernel ``_max_min``.  The
    derived constants come from the :class:`LipschitzConstants` table in
    :mod:`heisgame.flow`.

    ``reflections`` names the group reflections of :data:`REFLECTIONS`
    that both costs commute with: ``F(t, s(x), r(y), r(z)) = F(t, x, y, z)``
    and ``G(s(x)) = G(x)``, with ``s`` the automorphism and ``r`` its
    action on the plane.  Declaring one lets ``backward_induction`` solve
    half the grid per reflection (see :func:`fundamental_domain`); the
    declaration is checked on samples (:meth:`check_reflections`), never
    assumed.  The default, none, keeps the full-grid path.
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

    def _cost_samples(self, box: Box, n: int, rng) -> tuple:
        """``n`` points of ``box``, the terminal cost there, and 4 draws
        ``(t, y, z, F(t, pts, y, z))`` of the running cost at them."""
        pts = box.sample(n, rng)
        draws = []
        for _ in range(4):
            t = rng.random() * self.horizon
            y = ball_points(rng, self.r_y)
            z = ball_points(rng, self.r_z)
            draws.append((t, y, z, _on_points(self.running_cost(t, pts, y, z), n)))
        return pts, _on_points(eval_field(self.terminal_cost, pts), n), draws

    def spot_check(self, box: Box, n: int = 128, rng=None) -> list[str]:
        """Sampled check of the declared bounds; violations warn, not raise."""
        pts, gv, draws = self._cost_samples(box, n, rng or np.random.default_rng(0))
        msgs = []
        if (np.abs(gv) > self.c2 * (1 + 1e-9) + 1e-12).any():
            k = int(np.argmax(np.abs(gv)))
            msgs.append(
                f"|terminal cost| = {abs(gv[k]):.6g} exceeds c2 = {self.c2:.6g} "
                f"at {pts[k]}"
            )
        for t, y, z, fv in draws:
            if (np.abs(fv) > self.c1 * (1 + 1e-9) + 1e-12).any():
                k = int(np.argmax(np.abs(fv)))
                msgs.append(
                    f"|running cost| = {abs(fv[k]):.6g} exceeds c1 = {self.c1:.6g} "
                    f"at t={t:.4g}, x={pts[k]}, y={y}, z={z}"
                )
        for m in msgs:
            warnings.warn(m, stacklevel=3)
        return msgs

    def check_reflections(self, box: Box) -> None:
        """Sampled check of each declared reflection on both costs, at 128
        points of ``box`` and 4 draws of ``(t, y, z)``.

        Raises ``ValueError`` naming the first cost that moves by more than
        ``1e-12 * (1 + |value|)`` under a declared reflection.
        """
        if not self.reflections:
            return
        n = 128
        pts, gv, draws = self._cost_samples(box, n, np.random.default_rng(0))
        for name in self.reflections:
            flip = np.array(REFLECTIONS[name])
            mirrored = pts * np.append(flip, -1.0)
            pairs = [("terminal cost", gv, eval_field(self.terminal_cost, mirrored))]
            pairs += [(f"running cost at t={t:.4g}, y={y}, z={z}", fv,
                       self.running_cost(t, mirrored, y * flip, z * flip))
                      for t, y, z, fv in draws]
            for what, a, b in pairs:
                b = _on_points(b, n)
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


def _on_points(values, n: int) -> np.ndarray:
    """A cost evaluated on ``n`` points, as ``n`` floats (a scalar broadcasts)."""
    return np.broadcast_to(np.asarray(values, dtype=float), (n,))


@dataclass(frozen=True)
class ControlLattice:
    """Finite subset of a closed plane ball, with its sampled covering radius."""

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


# polar sample grid of the covering radius; the manifest records it
COVERING_SAMPLING = {"n_radial": 96, "n_angular": 384}


def _covering_radius(points: np.ndarray, radius: float) -> float:
    """Largest distance from a polar sample of the ball to its nearest point.

    Squared distances are ``(|s|^2 + |p|^2) + (-2 s.p)``, in two buffers of
    4096 samples, fewer where a buffer would pass 8 MiB; each row's ``min``
    is taken before the clip at 0 and the ``sqrt``, which are monotone and
    correctly rounded, so commute with it exactly.  The buffer size reaches
    beyond this function: glibc raises its mmap and trim thresholds to the
    largest block freed so far, and these buffers are the largest blocks
    freed before a solve.  With 1024-sample buffers (0.66 MB at 81 points)
    the solver's interpolation temporaries on a 33x33x65 grid landed on
    fresh pages: 50x the page faults and about 10% more solve time.
    """
    if radius == 0.0:
        return 0.0
    rr = np.linspace(0.0, radius, COVERING_SAMPLING["n_radial"])
    aa = np.linspace(0.0, 2 * np.pi, COVERING_SAMPLING["n_angular"], endpoint=False)
    r, a = np.meshgrid(rr, aa)
    samples = np.stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()], axis=-1)
    p_sq = (points ** 2).sum(-1)
    rows = min(4096, max(1, (8 << 20) // (8 * len(points))))
    d_sq = np.empty((rows, len(points)))
    sums = np.empty_like(d_sq)
    worst = 0.0
    for k in range(0, len(samples), rows):
        s = samples[k:k + rows]
        d, sm = d_sq[:len(s)], sums[:len(s)]
        np.matmul(s, points.T, out=d)
        np.multiply(d, -2.0, out=d)
        np.add((s ** 2).sum(-1)[:, None], p_sq[None, :], out=sm)
        np.add(sm, d, out=d)
        worst = max(worst, float(np.sqrt(np.maximum(d.min(axis=1), 0.0)).max()))
    return worst


def make_lattice(radius: float, rings: int = 4, base_angles: int = 8) -> ControlLattice:
    """Center plus ``rings`` concentric rings at radii ``radius*j/rings``,
    ring ``j`` carrying ``base_angles*j`` equally spaced angles.

    Points are ordered center first, then rings inward to outward with
    angles ascending, which fixes the optimizer tie-break.  The covering
    radius is measured by dense sampling of the ball.
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
    return ControlLattice(radius, points, _covering_radius(points, radius))


def _check_lattices(spec: GameSpec, y_lattice: ControlLattice, z_lattice: ControlLattice):
    for name, lattice, radius in (("y", y_lattice, spec.r_y), ("z", z_lattice, spec.r_z)):
        if abs(lattice.radius - radius) > 1e-9 * (1 + abs(radius)):
            raise ValueError(
                f"{name} lattice radius {lattice.radius} does not match the game's {radius}"
            )


def _as_probe_arrays(t, x, lam):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    lam = np.asarray(lam, dtype=float)
    lam = np.broadcast_to(lam, (len(pts), 2))
    t = np.asarray(t, dtype=float)
    return scalar, pts, lam, t


def _max_min(n, m_outer, m_inner, row, lower, outer_term=None):
    """The lattice opt-opt: ``max_a min_b`` if ``lower``, else ``min_a max_b``.

    ``row(a, b, out)`` writes the payoff of outer index ``a`` and inner
    index ``b`` into ``out`` of shape ``(n,)``; ``outer_term(a)``, if
    given, is added after the inner reduction.  Rows accumulate in place,
    which measured faster than reducing stacked ``(m, n)`` chunks.
    """
    inner_opt, outer_opt = (np.minimum, np.maximum) if lower else (np.maximum, np.minimum)
    best = np.full(n, -np.inf if lower else np.inf)
    acc, scratch = np.empty(n), np.empty(n)
    for a in range(m_outer):
        row(a, 0, acc)
        for b in range(1, m_inner):
            row(a, b, scratch)
            inner_opt(acc, scratch, out=acc)
        total = acc if outer_term is None else np.add(acc, outer_term(a), out=scratch)
        outer_opt(best, total, out=best)
    return best


def _pair_table(spec: GameSpec, ypts: np.ndarray, zpts: np.ndarray) -> np.ndarray:
    """The ``(mz, my)`` table of ``k`` in a separable cost ``base + k``."""
    pair = zpts @ ypts.T if spec.coupling_pair is None else spec.coupling_pair(ypts, zpts)
    return np.asarray(pair, dtype=float)


def _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, lower):
    """The opt-opt of the rows ``F - lam.z``.  A separable cost calls
    ``coupling_base`` once per ``y`` and forms ``F`` as ``base_y + k_zy``;
    any other calls ``running_cost`` once per pair."""
    _check_lattices(spec, y_lattice, z_lattice)
    scalar, pts, lam2, tt = _as_probe_arrays(t, x, lam)
    n = len(pts)
    ypts, zpts = y_lattice.points, z_lattice.points
    lam_z = [lam2 @ z for z in zpts]

    if spec.coupling_base is not None:
        base = np.array([np.broadcast_to(np.asarray(spec.coupling_base(tt, pts, y), dtype=float),
                                          (n,)) for y in ypts])
        pair = _pair_table(spec, ypts, zpts)
        for what, a in (("base", base), ("pair", pair)):
            if not np.isfinite(a).all():
                raise NonFiniteValueError(f"coupling {what} non-finite at t={tt}")
        cost = lambda yi, zi, out: np.add(base[yi], pair[zi, yi], out=out)
    else:
        def cost(yi, zi, out):
            y, z = ypts[yi], zpts[zi]
            fv = np.asarray(spec.running_cost(tt, pts, y, z), dtype=float)
            if not np.isfinite(fv).all():
                raise NonFiniteValueError(f"running cost non-finite at t={tt}, y={y}, z={z}")
            return np.broadcast_to(fv, (n,))

    def row(a, b, out):
        yi, zi = (a, b) if lower else (b, a)
        np.subtract(cost(yi, zi, out), lam_z[zi], out=out)

    sizes = (len(ypts), len(zpts)) if lower else (len(zpts), len(ypts))
    best = _max_min(n, *sizes, row, lower)
    return float(best[0]) if scalar else best


def lower_hamiltonian(spec: GameSpec, t, x, lam, y_lattice, z_lattice):
    """Exact ``max_y min_z (F(t,x,y,z) - lam . z)`` over the lattices.

    Accepts batched probes: ``x`` of shape ``(n, 3)`` with ``t`` and
    ``lam`` broadcasting.  Ties resolve to the first lattice index.
    """
    return _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, True)


def upper_hamiltonian(spec: GameSpec, t, x, lam, y_lattice, z_lattice):
    """Exact ``min_z max_y (F(t,x,y,z) - lam . z)`` over the lattices."""
    return _lattice_hamiltonian(spec, t, x, lam, y_lattice, z_lattice, False)


@dataclass(frozen=True)
class IsaacsReport:
    max_gap: float
    witness: tuple
    gaps: np.ndarray


def isaacs_gap(spec: GameSpec, probes, y_lattice, z_lattice) -> IsaacsReport:
    """Max of upper minus lower Hamiltonian over probe triples ``(t, x, lam)``.

    Measures only the lattice gap; a zero gap makes no claim about the
    continuum min-max condition.
    """
    t, x, lam = probes
    lo = lower_hamiltonian(spec, t, x, lam, y_lattice, z_lattice)
    hi = upper_hamiltonian(spec, t, x, lam, y_lattice, z_lattice)
    gaps = np.atleast_1d(hi - lo)
    k = int(np.argmax(gaps))
    _, pts, lam2, tt = _as_probe_arrays(t, x, lam)
    tt = np.broadcast_to(tt, (len(pts),))
    witness = (float(tt[k]), pts[k].copy(), lam2[k].copy())
    return IsaacsReport(float(gaps[k]), witness, gaps)


def _backup(spec, t, h, pts, W, y_lattice, z_lattice, which):
    """One semi-Lagrangian step on a point batch: opt-opt of ``h*F + W``.

    ``W`` of shape ``(mz, n)`` holds the continuation values, filled by the
    caller: row ``j`` at the feet ``x o (-h*z_j, 0)`` of the batch, reached
    with lattice point ``z_j`` under ``xdot = -f(x, z)``.  For a separable
    cost the lower value takes ``max_y [min_z (W_z + h*k(y, z)) + h*base(y)]``,
    calling the cost only as ``base``, once per ``y``; where every column of
    ``offs = h*k`` has the same bits (a ``k`` free of ``y``; ``0.0`` and
    ``-0.0`` differ), the one ``min_z`` is reduced once, bit-identical to
    reducing it per ``y``.  The upper value, and any cost without
    ``coupling_base``, call ``running_cost`` once per ``(y, z)`` pair.
    """
    n = len(pts)
    ypts, zpts = y_lattice.points, z_lattice.points
    lower = which == "lower"
    sizes = (len(ypts), len(zpts)) if lower else (len(zpts), len(ypts))
    if lower and spec.coupling_base is not None:
        offs = h * _pair_table(spec, ypts, zpts)  # (mz, my)

        def base(yi):
            return h * np.asarray(spec.coupling_base(t, pts, ypts[yi]), dtype=float)

        bits = offs.view(np.uint64)
        if (bits == bits[:, :1]).all():
            common = _max_min(n, 1, len(zpts),
                              lambda _, zi, out: np.add(W[zi], offs[zi, 0], out=out), True)
            return _max_min(n, len(ypts), 1,
                            lambda yi, _, out: np.add(common, base(yi), out=out), True)
        return _max_min(n, *sizes, lambda yi, zi, out: np.add(W[zi], offs[zi, yi], out=out),
                        True, base)

    def row(a, b, out):
        yi, zi = (a, b) if lower else (b, a)
        fv = h * np.asarray(spec.running_cost(t, pts, ypts[yi], zpts[zi]), dtype=float)
        np.add(W[zi], fv, out=out)

    return _max_min(n, *sizes, row, lower)


class Domain(NamedTuple):
    """The part of a grid that ``backward_induction`` solves: the reflections
    it uses, the first solved x1 and x2 node indices, and the solved node
    count."""

    reflections: tuple[str, ...]
    starts: tuple[int, int]
    nodes: int


def fundamental_domain(spec: GameSpec, grid: Grid3, y_lattice: ControlLattice,
                       z_lattice: ControlLattice) -> Domain:
    """The part of ``grid`` that ``backward_induction`` solves for ``spec``.

    A declared reflection is used when its flipped axis and the x3 axis are
    exactly antisymmetric (``a == -a[::-1]``) and both lattices map onto
    themselves as point sets to 1e-12; the solved part then starts at
    ``n // 2`` on that axis, the nodes with ``x >= 0``.  The tests run in
    that order, so a game that declares nothing pays nothing.
    """
    axes = grid.axes()
    used, starts = [], [0, 0]
    for name in spec.reflections:
        axis = 0 if name == "x1" else 1
        if not all(np.array_equal(a, -a[::-1]) for a in (axes[axis], axes[2])):
            continue
        flip = np.array(REFLECTIONS[name])
        if all(_maps_onto(lat.points, flip) for lat in (y_lattice, z_lattice)):
            used.append(name)
            starts[axis] = len(axes[axis]) // 2
    (n1, n2, n3), (s1, s2) = grid.counts, starts
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
    grid: Grid3,
    n_steps: int,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    which: str = "lower",
    threads: int = 0,
    warn_costs: bool = True,
) -> ValueGrid:
    """Semi-discrete dynamic programming for the lower or upper value.

    The slice at the horizon samples the terminal cost; each earlier slice
    solves, nodewise,

        lower:  V(t, x) = max_y min_z [ h*F(t, x, y, z) + V(t+h, x o (-h*z, 0)) ]
        upper:  the same with min over z outside,

    interpolating the next slice trilinearly at the stepped point.  The
    stepped points of a block are passed as :class:`StepFeet`, so
    ``interp_values`` lerps axis by axis without forming them, bit-identical
    to the gather at the ``exact_step`` feet.  Nodes are split into blocks
    of whole x1-planes, one per thread.
    A node is flagged untrusted at a step when that step's interpolation
    clamps its stepped point for some lattice ``z``; ``trusted_region`` is
    the reach-certified sub-box.

    Where the game declares reflections (``GameSpec.reflections``) that the
    grid and lattices also have (:func:`fundamental_domain`), each step
    solves only the nodes with ``x1 >= 0`` and/or ``x2 >= 0``, still a
    tensor grid, and fills the rest of the slice and its trusted row by
    mirroring (each value slice is invariant).  The values then differ from
    the full-grid solve by ulps, since the mirrored nodes' lerps run from
    the other side.  The declarations are checked on samples first; a wrong
    one raises ``ValueError``.
    """
    if which not in ("lower", "upper"):
        raise ValueError(f"which must be 'lower' or 'upper', got {which!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check_lattices(spec, y_lattice, z_lattice)

    box, counts = grid.box, grid.counts
    spec.check_reflections(box)
    h = spec.horizon / n_steps
    times = np.linspace(0.0, spec.horizon, n_steps + 1)
    nodes = grid.node_coordinates()

    if warn_costs:
        spec.spot_check(box)
    region = certify_region(box, spec.r_z, spec.horizon)

    g_vals = eval_field(spec.terminal_cost, nodes)
    if not np.isfinite(g_vals).all():
        k = int(np.argmax(~np.isfinite(g_vals)))
        raise NonFiniteValueError(f"terminal cost non-finite at node {nodes[k]}")

    data = np.empty((n_steps + 1,) + counts)
    data[n_steps] = g_vals.reshape(counts)
    trusted = np.ones((n_steps + 1,) + counts, dtype=bool)

    # the solved part: all of the grid, or its x1 >= 0 and/or x2 >= 0 part
    s1, s2 = fundamental_domain(spec, grid, y_lattice, z_lattice).starts
    x1, x2, x3 = grid.axes()
    axes = (x1[s1:], x2[s2:], x3)
    solved = nodes.reshape(counts + (3,))[s1:, s2:].reshape(-1, 3)

    def run_block(k, planes, sl):
        block_axes = (axes[0][planes], axes[1], axes[2])
        W = np.empty((len(z_lattice.points), sl.stop - sl.start))
        inside = trusted[k, s1:, s2:][planes]  # all True until this step
        for j, z in enumerate(z_lattice.points):
            W[j], ok = interp_values(box, data[k + 1], StepFeet(block_axes, -h * z))
            np.logical_and(inside, ok.reshape(inside.shape), out=inside)
        return _backup(spec, times[k], h, solved[sl], W, y_lattice, z_lattice, which)

    plane = len(axes[1]) * len(axes[2])
    blocks = [(pl, slice(pl.start * plane, pl.stop * plane))
              for pl in _node_blocks(len(solved), threads, plane)]
    pool = None
    if threads and threads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=threads)
    with pool or nullcontext():
        for k in range(n_steps - 1, -1, -1):
            results = (pool.map if pool else map)(lambda b: run_block(k, *b), blocks)
            part = data[k, s1:, s2:]
            for (planes, _), vals in zip(blocks, results):
                part[planes] = vals.reshape(-1, *part.shape[1:])
            _unfold(data[k], s1, s2)
            _unfold(trusted[k], s1, s2)
            if not np.isfinite(data[k]).all():
                bad = int(np.argmax(~np.isfinite(data[k])))
                raise NonFiniteValueError(
                    f"non-finite value at t={times[k]:.6g}, node {nodes[bad]}"
                )

    return ValueGrid(box, times, data, region, trusted)


# nodes in one serial block of ``backward_induction``; also the largest
# batch the grid-free recursion stacks at its deepest level
_BLOCK_NODES = 131072


def solve_bytes(counts, n_steps: int, z_points: int, threads: int = 0,
                reversed_copy: bool = False) -> int:
    """Bytes of the arrays ``backward_induction`` holds on a grid of ``counts``
    nodes: the float64 value and bool trusted stacks of ``n_steps + 1``
    slices, the node coordinates and terminal samples (32 B per node), and
    the ``(z_points, block)`` ``W`` of the blocks in flight.  With
    ``reversed_copy`` it adds the second pair of stacks that
    ``ValueGrid.reversed_time`` makes of an HJI solve."""
    nodes = math.prod(counts)
    held = nodes if threads > 1 else min(nodes, _BLOCK_NODES)
    stacks = (n_steps + 1) * nodes * 9
    return stacks * (2 if reversed_copy else 1) + nodes * 32 + z_points * held * 8


def _node_blocks(n: int, threads: int, plane: int) -> list[slice]:
    """Blocks of whole planes of ``plane`` nodes, as plane-index slices.

    Each block holds as close as possible to ``_BLOCK_NODES`` of the ``n``
    nodes serial, and to ``max(16384, n/threads)`` threaded.
    """
    size = max(16384, -(-n // threads)) if threads and threads > 1 else _BLOCK_NODES
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
) -> float:
    """Alternating max/min expansion on exact states, without any grid.

    Oracle for ``backward_induction``: exact whenever ``r_z = 0`` (no
    motion, no interpolation), and equal up to interpolation error
    otherwise.  Enumeration is exponential in time, and in memory as well:
    the breadth-first expansion holds ``mz**(n_steps-1)`` points at its
    deepest level.  So ``n_steps <= 3`` and at most 9 points per lattice
    are enforced.
    """
    if n_steps > 3 or n_steps < 1:
        raise ValueError("size guard: n_steps must be between 1 and 3")
    if len(y_lattice.points) > 9 or len(z_lattice.points) > 9:
        raise ValueError("size guard: lattices must have at most 9 points")
    _check_lattices(spec, y_lattice, z_lattice)
    xi = np.asarray(xi, dtype=float).reshape(1, 3)
    h = spec.horizon / n_steps
    leaf = lambda pts: eval_field(spec.terminal_cost, pts)
    vals = _alternating_value(spec, xi, 0.0, n_steps, h, y_lattice, z_lattice, which, leaf)
    return float(vals[0])


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


def lipschitz_audit(
    V: ValueGrid,
    constants,
    rng=None,
    n_random_pairs: int = 20000,
    slack: float = 0.15,
) -> list[AuditReport]:
    """Empirical regularity audit of a value stack on its certified region.

    Checks the same-time spatial ratio ``|dV| / d_G`` against
    ``c_sharp = (1 + 3*r_z) * exp(T*r_z/2) * (c1p*T + c2p)`` and the
    space-time ratio ``|dV| / (|dt| + d_G)`` against
    ``c_prime = c_sharp + c1``, over all axis-adjacent node pairs, all
    time-adjacent pairs, and a random pair sample.  A slack factor covers
    the one-grid scheme error; the refinement trend is checked separately.
    """
    rng = rng or np.random.default_rng(0)
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
