"""Built-in terminal costs, Hamiltonians, and running costs for scenarios.

The CLI resolves functions by name so runs stay reproducible without an
embedded interpreter; library users can pass arbitrary callables instead.
Each builder also reports the constants the audits need.  Bounds over a
box are taken at its corners where the function is componentwise
monotone; gauge-Lipschitz constants with no closed form are estimated by
a sampled supremum ratio padded by 25 percent.  Every running cost is
separable, ``base(t, x, y) + k(y, z)``: each entry defines ``base`` and the
table of ``k`` (``coupling_pair``, ``None`` for ``z . y``) for the solver's
fast path, and its ``fn`` is :func:`heisgame.game.separable_cost` of the
two; a table free of ``y`` (``constant``, ``custom-affine``) lets each step
reduce its ``min_z`` once for all ``y`` and add ``max_y h*base(y)`` to it
once, a scalar for these costs, with the bits of the full opt-opt.

Each entry also declares the group reflections it commutes with
(``reflections``, names from ``game.REFLECTIONS``): ``"x2"`` maps
``(x1, x2, x3)`` to ``(x1, -x2, -x3)`` and ``y, z`` to ``(y1, -y2)``;
``"x1"`` maps them to ``(-x1, x2, -x3)`` and ``(-y1, y2)``.  The set is
derived from the parameters by exact zero tests, so a parameter that
breaks a reflection drops it.  Every parameter is a finite real, or a
list of them; any other value raises :class:`ParamError` naming it.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import separable_cost
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
    "ParamError",
    "finite_reals",
]

TERMINAL_NAMES = ("gauge", "euclidean-norm-squared-truncated", "affine", "constant")
HAMILTONIAN_NAMES = ("norm", "component", "constant", "shifted-norm")
RUNNING_COST_NAMES = ("coupling", "constant", "custom-affine")


_BOTH = frozenset({"x1", "x2"})


class ParamError(ValueError):
    """A catalog parameter that is not finite reals; ``name`` is its key."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


def finite_reals(value, shape=()):
    """``value`` as a float (``shape == ()``) or a float array of ``shape``, or
    ``None`` unless it is finite reals, nested as ``shape``; a bool, a string
    or a null is not a real."""
    items = np.asarray(value, dtype=object)
    # abs(v) <= max refuses nan, the infinities and ints beyond the floats
    if items.shape != shape or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                       and abs(v) <= sys.float_info.max for v in items.flat):
        return None
    return items.astype(float) if shape else float(value)


def _params(name: str, params: dict | None, **defaults) -> list:
    """The value in ``params`` (else the default) of each key of ``defaults``:
    a finite real, or as many as a tuple default holds.  An unknown key
    raises KeyError, a value that is not finite reals :class:`ParamError`."""
    params = params or {}
    extra = sorted(params.keys() - defaults.keys())
    if extra:
        raise KeyError(f"unknown parameters for {name!r}: {extra}")
    values = []
    for key, default in defaults.items():
        shape = (len(default),) if isinstance(default, tuple) else ()
        values.append(finite_reals(params.get(key, default), shape))
        if values[-1] is None:
            what = f"{shape[0]} finite numbers" if shape else "a finite number"
            raise ParamError(key, f"must be {what}, got {params[key]!r}")
    return values


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
    if name == "gauge":
        _params(name, params)
        c2 = float(gauge(box.corners()).max())
        return TerminalCost(name, gauge, c2, 1.0, True, _BOTH)
    if name == "euclidean-norm-squared-truncated":
        corners_sq = float((box.corners() ** 2).sum(-1).max())
        [cap] = _params(name, params, cap=corners_sq)

        def fn(x, cap=cap):
            x = np.asarray(x, dtype=float)
            return np.minimum((x * x).sum(-1), cap)

        return TerminalCost(name, fn, cap, _estimated_dg_lipschitz(fn, box), False, _BOTH)
    if name == "affine":
        a, b = _params(name, params, a=(1.0, 0.0, 0.0), b=0.0)

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
        [value] = _params(name, params, value=0.0)

        def fn(x, value=value):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1], value)

        return TerminalCost(name, fn, abs(value), 0.0, True, _BOTH)
    raise KeyError(f"unknown terminal cost {name!r}; choose from {TERMINAL_NAMES}")


def make_hamiltonian(name: str, params: dict | None) -> HamiltonianModel:
    if name == "norm":
        _params(name, params)

        def fn(t, x, y):
            return np.linalg.norm(np.asarray(y, dtype=float), axis=-1)

        return HamiltonianModel(name, fn, 1.0, 0.0, lambda ry: ry, _BOTH)
    if name == "component":
        _params(name, params)

        def fn(t, x, y):
            return np.asarray(y, dtype=float)[..., 0]

        return HamiltonianModel(name, fn, 1.0, 0.0, lambda ry: ry, frozenset({"x2"}))
    if name == "constant":
        [value] = _params(name, params, value=0.0)

        def fn(t, x, y, value=value):
            y = np.asarray(y, dtype=float)
            return np.full(y.shape[:-1], value)

        return HamiltonianModel(name, fn, 0.0, 0.0, lambda ry: abs(value), _BOTH)
    if name == "shifted-norm":
        shift, offset = _params(name, params, shift=(0.0, 0.0), offset=0.0)

        def fn(t, x, y, shift=shift, offset=offset):
            return np.linalg.norm(np.asarray(y, dtype=float) - shift, axis=-1) + offset

        d1 = lambda ry: ry + float(np.linalg.norm(shift)) + abs(offset)
        return HamiltonianModel(name, fn, 1.0, 0.0, d1,
                                _reflections(shift[0] == 0.0, shift[1] == 0.0))
    raise KeyError(f"unknown Hamiltonian {name!r}; choose from {HAMILTONIAN_NAMES}")


def make_running_cost(name: str, params: dict | None) -> RunningCostModel:
    if name == "coupling":
        _params(name, params)

        def base(t, x, y):
            return -np.linalg.norm(np.asarray(y, dtype=float), axis=-1)

        return RunningCostModel(name, separable_cost(base), lambda ry, rz: ry * rz + ry, 0.0,
                                base, reflections=_BOTH)
    if name == "constant":
        [value] = _params(name, params, value=0.0)

        def base(t, x, y, value=value):
            return value

        def pair(ypts, zpts):
            return np.zeros((len(zpts), len(ypts)))

        return RunningCostModel(name, separable_cost(base, pair), lambda ry, rz: abs(value),
                                0.0, base, pair, _BOTH)
    if name == "custom-affine":
        a0, ay, az = _params(name, params, a0=0.0, ay=(0.0, 0.0), az=(0.0, 0.0))

        def c1(ry, rz, a0=a0, ay=ay, az=az):
            return abs(a0) + float(np.linalg.norm(ay)) * ry \
                + float(np.linalg.norm(az)) * rz

        def base(t, x, y, a0=a0, ay=ay):
            return a0 + float(ay @ np.asarray(y, dtype=float))

        def pair(ypts, zpts, az=az):
            k = np.array([float(az @ z) for z in zpts])
            return np.broadcast_to(k[:, None], (len(zpts), len(ypts)))

        return RunningCostModel(name, separable_cost(base, pair), c1, 0.0, base, pair,
                                _reflections(ay[0] == az[0] == 0.0, ay[1] == az[1] == 0.0))
    raise KeyError(f"unknown running cost {name!r}; choose from {RUNNING_COST_NAMES}")
