"""Built-in terminal costs, Hamiltonians, and running costs for scenarios.

The CLI resolves functions by name so runs stay reproducible without an
embedded interpreter; library users can pass arbitrary callables instead.
Each builder also reports the constants the audits need.  Bounds over a
box are taken at its corners where the function is componentwise
monotone; gauge-Lipschitz constants with no closed form are estimated by
a sampled supremum ratio padded by 25 percent.  A separable running cost,
``base(t, x, y) + k(y, z)``, also returns ``base`` and the table of ``k``
(``coupling_pair``, ``None`` for ``z . y``) for the solver's fast path; a
table free of ``y`` (``constant``, ``custom-affine``) lets each step
reduce its ``min_z`` once for all ``y``.

Each entry also declares the group reflections it commutes with
(``reflections``, names from ``game.REFLECTIONS``): ``"x2"`` maps
``(x1, x2, x3)`` to ``(x1, -x2, -x3)`` and ``y, z`` to ``(y1, -y2)``;
``"x1"`` maps them to ``(-x1, x2, -x3)`` and ``(-y1, y2)``.  The set is
derived from the parameters by exact zero tests, so a parameter that
breaks a reflection drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .heis import Box, dist_g, eval_field, gauge

__all__ = [
    "TerminalCost",
    "HamiltonianModel",
    "RunningCostModel",
    "make_terminal",
    "make_hamiltonian",
    "make_running_cost",
    "TERMINAL_NAMES",
    "HAMILTONIAN_NAMES",
    "RUNNING_COST_NAMES",
]

TERMINAL_NAMES = ("gauge", "euclidean-norm-squared-truncated", "affine", "constant")
HAMILTONIAN_NAMES = ("norm", "component", "constant", "shifted-norm")
RUNNING_COST_NAMES = ("coupling", "constant", "custom-affine")


_BOTH = frozenset({"x1", "x2"})


def _reflections(x1: bool, x2: bool) -> frozenset:
    """The names of the reflections whose zero tests hold."""
    return frozenset(name for name, ok in (("x1", x1), ("x2", x2)) if ok)


@dataclass(frozen=True)
class TerminalCost:
    """A terminal cost or initial datum ``g(x)``; ``reflections`` are those
    with ``g(s(x)) = g(x)``."""

    name: str
    fn: Callable
    c2: float
    c2p: float
    h_convex: bool
    reflections: frozenset = frozenset()


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian ``Ham(t, x, y)``; ``reflections`` are those with
    ``Ham(t, s(x), r(y)) = Ham(t, x, y)``."""

    name: str
    fn: Callable
    lip_y: float
    d1p: float
    d1_of_radius: Callable[[float], float]
    reflections: frozenset = frozenset()


@dataclass(frozen=True)
class RunningCostModel:
    """A running cost ``F(t, x, y, z)``; ``reflections`` are those with
    ``F(t, s(x), r(y), r(z)) = F(t, x, y, z)``."""

    name: str
    fn: Callable
    c1_of_radii: Callable[[float, float], float]
    c1p: float
    coupling_base: Callable | None
    coupling_pair: Callable | None = None
    reflections: frozenset = frozenset()


def _estimated_dg_lipschitz(fn: Callable, box: Box, n: int = 8192) -> float:
    """Sampled sup of |f(x) - f(x')| / d_G(x, x') over box pairs, padded 1.25x.

    Includes nearby pairs, where the ratio of a non-horizontal function
    peaks.  Deterministic (fixed seed) so scenario constants reproduce.
    """
    rng = np.random.default_rng(12345)
    a = box.sample(n, rng)
    b = box.sample(n, rng)
    nearby = a + (b - a) * 1e-3
    xs = np.concatenate([a, a])
    ys = np.concatenate([b, nearby])
    d = dist_g(xs, ys)
    keep = d > 1e-12
    fa = eval_field(fn, xs[keep])
    fb = eval_field(fn, ys[keep])
    return 1.25 * float((np.abs(fa - fb) / d[keep]).max())


def make_terminal(name: str, params: dict | None, box: Box) -> TerminalCost:
    params = dict(params or {})
    if name == "gauge":
        c2 = float(gauge(box.corners()).max())
        return TerminalCost(name, gauge, c2, 1.0, True, _BOTH)
    if name == "euclidean-norm-squared-truncated":
        corners_sq = float((box.corners() ** 2).sum(-1).max())
        cap = float(params.pop("cap", corners_sq))
        _no_extra(name, params)

        def fn(x, cap=cap):
            x = np.asarray(x, dtype=float)
            return np.minimum((x * x).sum(-1), cap)

        return TerminalCost(name, fn, cap, _estimated_dg_lipschitz(fn, box), False, _BOTH)
    if name == "affine":
        a = np.asarray(params.pop("a", (1.0, 0.0, 0.0)), dtype=float).reshape(3)
        b = float(params.pop("b", 0.0))
        _no_extra(name, params)

        def fn(x, a=a, b=b):
            return np.asarray(x, dtype=float) @ a + b

        c2 = float(np.abs(box.corners() @ a + b).max())
        if a[2] == 0.0:
            c2p = float(np.hypot(a[0], a[1]))
        else:
            c2p = _estimated_dg_lipschitz(fn, box)
        return TerminalCost(name, fn, c2, c2p, True,
                            _reflections(a[0] == a[2] == 0.0, a[1] == a[2] == 0.0))
    if name == "constant":
        value = float(params.pop("value", 0.0))
        _no_extra(name, params)

        def fn(x, value=value):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1], value)

        return TerminalCost(name, fn, abs(value), 0.0, True, _BOTH)
    raise KeyError(f"unknown terminal cost {name!r}; choose from {TERMINAL_NAMES}")


def make_hamiltonian(name: str, params: dict | None) -> HamiltonianModel:
    params = dict(params or {})
    if name == "norm":
        _no_extra(name, params)

        def fn(t, x, y):
            return np.linalg.norm(np.asarray(y, dtype=float), axis=-1)

        return HamiltonianModel(name, fn, 1.0, 0.0, lambda ry: ry, _BOTH)
    if name == "component":
        _no_extra(name, params)

        def fn(t, x, y):
            return np.asarray(y, dtype=float)[..., 0]

        return HamiltonianModel(name, fn, 1.0, 0.0, lambda ry: ry, frozenset({"x2"}))
    if name == "constant":
        value = float(params.pop("value", 0.0))
        _no_extra(name, params)

        def fn(t, x, y, value=value):
            y = np.asarray(y, dtype=float)
            return np.full(y.shape[:-1], value)

        return HamiltonianModel(name, fn, 0.0, 0.0, lambda ry: abs(value), _BOTH)
    if name == "shifted-norm":
        shift = np.asarray(params.pop("shift", (0.0, 0.0)), dtype=float).reshape(2)
        offset = float(params.pop("offset", 0.0))
        _no_extra(name, params)

        def fn(t, x, y, shift=shift, offset=offset):
            return np.linalg.norm(np.asarray(y, dtype=float) - shift, axis=-1) + offset

        d1 = lambda ry: ry + float(np.linalg.norm(shift)) + abs(offset)
        return HamiltonianModel(name, fn, 1.0, 0.0, d1,
                                _reflections(shift[0] == 0.0, shift[1] == 0.0))
    raise KeyError(f"unknown Hamiltonian {name!r}; choose from {HAMILTONIAN_NAMES}")


def make_running_cost(name: str, params: dict | None) -> RunningCostModel:
    params = dict(params or {})
    if name == "coupling":
        _no_extra(name, params)

        def base(t, x, y):
            return -np.linalg.norm(np.asarray(y, dtype=float), axis=-1)

        def fn(t, x, y, z):
            # |y| in base's reduction form, so base + k rounds as fn does
            y = np.asarray(y, dtype=float)
            z = np.asarray(z, dtype=float)
            return float(z @ y) - np.linalg.norm(y, axis=-1)

        return RunningCostModel(name, fn, lambda ry, rz: ry * rz + ry, 0.0, base,
                                reflections=_BOTH)
    if name == "constant":
        value = float(params.pop("value", 0.0))
        _no_extra(name, params)

        def fn(t, x, y, z, value=value):
            return value

        def base(t, x, y, value=value):
            return value

        def pair(ypts, zpts):
            return np.zeros((len(zpts), len(ypts)))

        return RunningCostModel(name, fn, lambda ry, rz: abs(value), 0.0, base, pair, _BOTH)
    if name == "custom-affine":
        a0 = float(params.pop("a0", 0.0))
        ay = np.asarray(params.pop("ay", (0.0, 0.0)), dtype=float).reshape(2)
        az = np.asarray(params.pop("az", (0.0, 0.0)), dtype=float).reshape(2)
        _no_extra(name, params)

        def fn(t, x, y, z, a0=a0, ay=ay, az=az):
            return a0 + float(ay @ np.asarray(y, dtype=float)) \
                + float(az @ np.asarray(z, dtype=float))

        def c1(ry, rz, a0=a0, ay=ay, az=az):
            return abs(a0) + float(np.linalg.norm(ay)) * ry \
                + float(np.linalg.norm(az)) * rz

        def base(t, x, y, a0=a0, ay=ay):
            return a0 + float(ay @ np.asarray(y, dtype=float))

        def pair(ypts, zpts, az=az):
            # the same dot as fn, so base + k rounds as fn does
            k = np.array([float(az @ z) for z in zpts])
            return np.broadcast_to(k[:, None], (len(zpts), len(ypts)))

        return RunningCostModel(name, fn, c1, 0.0, base, pair, _reflections(
            ay[0] == az[0] == 0.0, ay[1] == az[1] == 0.0))
    raise KeyError(f"unknown running cost {name!r}; choose from {RUNNING_COST_NAMES}")


def _no_extra(name: str, params: dict):
    if params:
        raise KeyError(f"unknown parameters for {name!r}: {sorted(params)}")
