"""Initial-value Hamilton-Jacobi pipeline.

Solves ``u_t + Ham(t, x, grad_H u) = 0`` with ``u(0, .) = g`` by building
an auxiliary zero-sum game whose lower value, after the time reversal
``U(t, x) = V(T - t, x)``, represents the solution.  The construction
fixes the control radii from the Lipschitz modulus ``K`` of the
Hamiltonian in its gradient slot: ``r_z = K``, and ``r_y`` is ``c_sharp``
at ``r_z = K``, ``c1p = d1p`` (the formula texts of ``r_y``, ``r_z``,
``c1``, ``c1p`` are in the table of :class:`heisgame.flow.LipschitzConstants`),
and couples the players through the running cost
``F(t, x, y, z) = -Ham(T - t, x, y) + z . y``.  On the ``y``-ball the
discrete lower Hamiltonian then satisfies
``H^-(T - t, x, lam) = -Ham(t, x, lam)`` up to lattice covering error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .heis import Box, declaration_sample
from .grids import ValueGrid
from .game import (
    AUDIT_SLACK,
    ControlLattice,
    GameSpec,
    LipschitzConstants,
    backward_induction,
    lower_hamiltonian,
    separable_cost,
)

__all__ = [
    "HjiProblem",
    "build_game",
    "hamiltonian_identity_check",
    "covering_error_bound",
    "IdentityReport",
    "solve",
    "pde_residual",
    "PdeResidualReport",
    "uniqueness_initial_trace",
    "TraceReport",
]


@dataclass
class HjiProblem:
    """Data of the initial-value problem.

    ``hamiltonian(t, x, y)`` broadcasts over point batches ``x`` of shape
    ``(..., 3)`` and gradient slots ``y`` of shape ``(..., 2)``;
    ``initial(x)`` is the datum at time zero.  ``d1`` bounds the
    Hamiltonian, ``d1p`` is its gauge-Lipschitz constant in ``x``,
    ``lip_y`` its Lipschitz constant in ``y``; ``c2``/``c2p`` describe the
    initial datum.

    ``reflections`` names group reflections of ``game.REFLECTIONS`` with
    ``Ham(t, s(x), r(y)) = Ham(t, x, y)`` and ``g(s(x)) = g(x)``, with ``s``
    the automorphism and ``r`` its action on the plane.  The running cost
    ``-Ham + z . y`` of :func:`build_game` then commutes with ``(s, r)``
    too, so the game declares them as ``GameSpec.reflections``, which
    checks the names and samples the declaration.
    """

    horizon: float
    hamiltonian: Callable
    initial: Callable
    d1: float
    d1p: float
    lip_y: float
    c2: float
    c2p: float
    reflections: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.lip_y < 0:
            raise ValueError("the Lipschitz constant in y must be nonnegative")
        for name in ("d1", "d1p", "c2", "c2p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def spot_check(self, box: Box) -> list[str]:
        """Sampled check of the declared y-Lipschitz modulus at 64 points of
        ``box`` and 4 draws of ``(t, y1, y2)``, ``|y| <= 2``, the seed-free
        :func:`~heisgame.heis.declaration_sample`; violations warn from one fixed
        line, so Python's default filter prints each once per process."""
        pts, sample = declaration_sample(box, 64, self.horizon, 2.0, 2.0)
        msgs = []
        for t, y1, y2 in sample:
            lhs = np.abs(np.asarray(self.hamiltonian(t, pts, y1), dtype=float)
                         - np.asarray(self.hamiltonian(t, pts, y2), dtype=float))
            bound = self.lip_y * np.linalg.norm(y1 - y2) * (1 + 1e-9) + 1e-12
            if (lhs > bound).any():
                k = int(np.argmax(lhs))
                msgs.append(f"Hamiltonian y-increment {lhs.max():.6g} exceeds "
                            f"K*|y-y'| = {bound:.6g} at x={pts[k]}")
        for m in msgs:
            warnings.warn(m)
        return msgs


def derived_radii(horizon: float, k: float, d1p: float, c2p: float) -> tuple[float, float]:
    """Control radii ``(r_y, r_z)`` of a problem with horizon ``T``,
    y-Lipschitz constant ``K`` and constants ``d1p``, ``c2p``.

    ``r_y`` is the table's ``c_sharp`` at ``r_z = K``, ``c1p = d1p``.
    """
    return LipschitzConstants(horizon, k, 0.0, d1p, c2p).c_sharp, k


def build_game(p: HjiProblem) -> GameSpec:
    """Auxiliary zero-sum game whose lower value represents the solution; its
    running cost is :func:`separable_cost` of ``base = -Ham(T - t, x, y)``
    and the default pair ``z . y``."""
    r_y, r_z = derived_radii(p.horizon, p.lip_y, p.d1p, p.c2p)
    horizon = p.horizon
    ham = p.hamiltonian

    def base(t, x, y):
        return -np.asarray(ham(horizon - t, x, y), dtype=float)

    return GameSpec(
        horizon=horizon,
        r_y=r_y,
        r_z=r_z,
        running_cost=separable_cost(base),
        terminal_cost=p.initial,
        c1=p.d1 + r_z * r_y,
        c1p=p.d1p,
        c2=p.c2,
        c2p=p.c2p,
        coupling_base=base,
        reflections=p.reflections,
    )


def covering_error_bound(p: HjiProblem, spec: GameSpec, y_lattice: ControlLattice,
                         z_lattice: ControlLattice) -> float:
    """``(K+1)*cov_z + (K+r_z)*cov_y``: the error of the lattice Hamiltonian
    from restricting its optimizers to the lattices."""
    k = p.lip_y
    return (k + 1.0) * z_lattice.covering_radius + (k + spec.r_z) * y_lattice.covering_radius


@dataclass(frozen=True)
class IdentityReport:
    max_error: float
    expected_bound: float


def hamiltonian_identity_check(
    p: HjiProblem,
    spec: GameSpec,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    probes,
) -> IdentityReport:
    """Checks ``H^-(T - t, x, lam) = -Ham(t, x, lam)`` at probe triples.

    ``lam`` enters exactly; only the optimizers are lattice-restricted,
    so the expected error is :func:`covering_error_bound`.  Probes with
    ``|lam|`` beyond the y-radius are rejected: the identity only holds on
    the ``y``-ball.
    """
    t, x, lam = probes
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    norms = np.linalg.norm(lam, axis=-1)
    if (norms > spec.r_y * (1 + 1e-9) + 1e-12).any():
        k = int(np.argmax(norms))
        raise ValueError(
            f"probe lambda {lam[k]} lies outside the y-ball of radius {spec.r_y}"
        )
    hm = lower_hamiltonian(spec, spec.horizon - t, x, lam, y_lattice, z_lattice)
    target = np.asarray(p.hamiltonian(t, x, lam), dtype=float)
    error = float(np.abs(np.atleast_1d(hm) + target).max())
    return IdentityReport(error, float(covering_error_bound(p, spec, y_lattice, z_lattice)))


def solve(
    p: HjiProblem,
    box: Box,
    counts,
    n_steps: int,
    y_lattice: ControlLattice,
    z_lattice: ControlLattice,
    threads: int = 0,
) -> ValueGrid:
    """Value stack ``U`` on the grid of ``counts`` nodes over ``box``, with
    ``U(0, .)`` equal to the sampled datum.

    Runs the lower-value backward induction for the auxiliary game and
    reindexes slices by ``t -> T - t``.  The declared ``K`` is sampled
    after the solve (``HjiProblem.spot_check``), as in ``Scenario.solve``;
    a violation only warns.
    """
    v = backward_induction(build_game(p), box, counts, n_steps, y_lattice, z_lattice,
                           which="lower", threads=threads)
    p.spot_check(box)
    return v.reversed_time()


@dataclass(frozen=True)
class PdeResidualReport:
    median: float
    max: float
    n_retained: int
    n_excluded: int


def pde_residual(
    U: ValueGrid,
    p: HjiProblem,
    n_probes: int = 4096,
    rng=None,
    kink_factor: float = 10.0,
) -> PdeResidualReport:
    """Finite-difference residual ``|u_t + Ham(t, x, grad_H u)|`` at probes.

    Probes sit on certified interior nodes at least one step away from
    the initial and final times.  The solution is only Lipschitz, so
    probes whose centered second differences exceed ``kink_factor`` times
    the per-direction median are excluded (a kink carries no residual
    information); their count is reported, and zero retained probes is an
    explicit outcome rather than a pass.
    """
    rng = rng or np.random.default_rng(0)
    n_t = U.n_steps
    if n_t < 2:
        raise ValueError("need at least 2 time steps for interior probes")
    sl = U.region_index_bounds()
    counts = U.counts
    lo = [max(s.start, 1) for s in sl]
    hi = [min(s.stop, c - 1) for s, c in zip(sl, counts)]
    if any(l >= h for l, h in zip(lo, hi)):
        raise ValueError("certified region has no interior nodes")

    kk = rng.integers(1, n_t, n_probes)
    ii = rng.integers(lo[0], hi[0], n_probes)
    jj = rng.integers(lo[1], hi[1], n_probes)
    ll = rng.integers(lo[2], hi[2], n_probes)

    data = U.data
    ax = U.axes()
    h = U.dt
    d = U.slice(0).spacing

    u_t = (data[kk + 1, ii, jj, ll] - data[kk - 1, ii, jj, ll]) / (2 * h)
    d1 = (data[kk, ii + 1, jj, ll] - data[kk, ii - 1, jj, ll]) / (2 * d[0])
    d2 = (data[kk, ii, jj + 1, ll] - data[kk, ii, jj - 1, ll]) / (2 * d[1])
    d3 = (data[kk, ii, jj, ll + 1] - data[kk, ii, jj, ll - 1]) / (2 * d[2])
    x1, x2 = ax[0][ii], ax[1][jj]
    grad = np.stack([d1 - 0.5 * x2 * d3, d2 + 0.5 * x1 * d3], axis=-1)
    pts = np.stack([x1, x2, ax[2][ll]], axis=-1)
    tt = U.times[kk]
    ham = np.asarray(p.hamiltonian(tt, pts, grad), dtype=float)
    res = np.abs(u_t + ham)

    center = data[kk, ii, jj, ll]
    seconds = np.stack([
        np.abs(data[kk + 1, ii, jj, ll] - 2 * center + data[kk - 1, ii, jj, ll]),
        np.abs(data[kk, ii + 1, jj, ll] - 2 * center + data[kk, ii - 1, jj, ll]),
        np.abs(data[kk, ii, jj + 1, ll] - 2 * center + data[kk, ii, jj - 1, ll]),
        np.abs(data[kk, ii, jj, ll + 1] - 2 * center + data[kk, ii, jj, ll - 1]),
    ])
    atol = 1e-10 * (1.0 + float(np.abs(data).max()))
    keep = np.ones(n_probes, dtype=bool)
    for s in seconds:
        keep &= s <= kink_factor * float(np.median(s)) + atol
    retained = res[keep]
    if len(retained) == 0:
        return PdeResidualReport(float("nan"), float("nan"), 0, int(n_probes))
    return PdeResidualReport(
        float(np.median(retained)), float(retained.max()),
        int(keep.sum()), int((~keep).sum()),
    )


@dataclass(frozen=True)
class TraceReport:
    sup_gap: float
    bound: float
    ok: bool
    dt: float


def uniqueness_initial_trace(U: ValueGrid, spec: GameSpec) -> TraceReport:
    """Sup over certified nodes of ``|U(dt, .) - U(0, .)|``.

    The one-step rate is ``(c1 + 3*r_z*c2p) * dt`` (running cost plus the
    terminal datum moved by one reach), padded by the audits' slack factor
    ``AUDIT_SLACK``.
    """
    sl = U.region_index_bounds()
    sub0 = U.data[(0,) + sl]
    sub1 = U.data[(1,) + sl]
    gap = float(np.abs(sub1 - sub0).max())
    h = U.dt
    bound = (spec.c1 + 3.0 * spec.r_z * spec.c2p) * h * (1 + AUDIT_SLACK)
    return TraceReport(gap, bound, gap <= bound + 1e-12, h)
