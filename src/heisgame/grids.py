"""Regular 3D grids, trilinear interpolation, and time-stacked value grids.

The PDE lives on the whole group; computations truncate it to a box.
Interpolation clamps exterior query points to the box faces and flags
them untrusted.  ``certify_region`` shrinks a box by the reach of the
dynamics so that values at certified nodes never depend on clamped data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .heis import Box, eval_field

__all__ = [
    "Grid3",
    "ValueGrid",
    "StepFeet",
    "grid_axes",
    "grid_nodes",
    "interp_values",
    "sample_field",
    "certify_region",
    "refinement_sup_diffs",
    "write_grid_csv",
    "write_grid_binary",
    "read_grid_binary",
    "write_value_grid",
    "read_value_grid",
]

# fractions this close to a cell face snap onto it, keeping nodal queries exact
_SNAP = 1e-12


def grid_axes(box: Box, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node coordinates of each axis: ``counts[i]`` nodes spanning
    ``[box.lo[i], box.hi[i]]``."""
    return tuple(np.linspace(box.lo[i], box.hi[i], counts[i]) for i in range(3))


def grid_nodes(box: Box, counts) -> np.ndarray:
    """The ``(n1*n2*n3, 3)`` node coordinates of :func:`grid_axes`, row-major."""
    return np.stack(np.meshgrid(*grid_axes(box, counts), indexing="ij"), axis=-1).reshape(-1, 3)


@dataclass
class Grid3:
    """Nodal values on a regular grid over a box (row-major ``(n1, n2, n3)``)."""

    box: Box
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError(f"values must be a 3D array, got shape {vals.shape}")
        if min(vals.shape) < 2:
            raise ValueError("need at least 2 nodes per axis")
        if not np.isfinite(vals).all():
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite grid value at node {idx}")
        self.values = vals

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def spacing(self) -> np.ndarray:
        return self.box.extent / (np.array(self.counts) - 1)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return grid_axes(self.box, self.counts)

    def interp(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Trilinear value at ``p`` plus a trusted flag.

        Exterior points are clamped componentwise onto the box and marked
        untrusted.  Returns scalars for a single point.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            vals, trusted = interp_values(self.box, self.values, p[None, :])
            return float(vals[0]), bool(trusted[0])
        return interp_values(self.box, self.values, p)


def _axis_cells(x, lo, hi, n):
    """Cell index, fraction and inside flag of coordinates ``x`` per axis.

    ``n`` nodes span ``[lo, hi]``; ``x`` is clamped onto it first.  The
    arguments broadcast, so one call serves one axis or all three.
    Fractions within 1e-12 of a cell face snap onto it.  The arithmetic
    runs in place, in the order of ``(clip(x) - lo) / (hi - lo) * (n - 1)``.
    """
    inside = x >= lo
    inside &= x <= hi
    t = np.clip(x, lo, hi)
    t -= lo
    t /= hi - lo
    t *= n - 1
    i = np.floor(t).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    f = np.subtract(t, i, out=t)
    f[f < _SNAP] = 0.0
    f[f > 1.0 - _SNAP] = 1.0
    return i, f, inside


@dataclass(frozen=True)
class StepFeet:
    """The feet ``x o (d1, d2, 0)`` of the points ``x`` of the tensor grid
    ``x1 × x2 × x3`` (``axes``), in row-major order, given without forming
    them: the stepped points of one semi-Lagrangian step under a constant
    control, with ``shift = (d1, d2)``.

    By the group law the foot is ``(x1 + d1, x2 + d2, x3 + (x1*d2 - d1*x2)/2)``:
    the horizontal shift is the same for every point, and the vertical one
    is constant along each x3-column.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    shift: tuple[float, float]

    def __len__(self) -> int:
        return len(self.axes[0]) * len(self.axes[1]) * len(self.axes[2])


def interp_values(box: Box, values: np.ndarray, pts):
    """Trilinear interpolation core shared by ``Grid3.interp`` and the solvers.

    ``pts`` is an ``(n, 3)`` array or a :class:`StepFeet`; returns the
    values and the inside-box flags, flat in the order of the points.
    Fractions within 1e-12 of a cell face snap onto it, so a query at node
    coordinates returns the stored value, though a stored ``-0.0`` may come
    back ``+0.0`` (the lerp adds a neighbour times 0).  At ``StepFeet`` the
    x1-cell depends only on the plane and the x2-cell only on the row, so
    the lerps run axis by axis on the slab and only the x3-cell is gathered
    per point; the result is bit-identical to the same feet given as an
    array (``exact_step`` of the nodes), since both paths take every lerp
    through ``_lerp``.
    """
    if isinstance(pts, StepFeet):
        return _interp_feet(box, values, pts)
    i, f, inside = _axis_cells(pts, box.lo, box.hi, np.array(values.shape))
    v = values
    (i1, i2, i3), (f1, f2, f3) = i.T, f.T
    c00 = _lerp(v[i1, i2, i3], v[i1 + 1, i2, i3], f1)
    c10 = _lerp(v[i1, i2 + 1, i3], v[i1 + 1, i2 + 1, i3], f1)
    c01 = _lerp(v[i1, i2, i3 + 1], v[i1 + 1, i2, i3 + 1], f1)
    c11 = _lerp(v[i1, i2 + 1, i3 + 1], v[i1 + 1, i2 + 1, i3 + 1], f1)
    return _lerp(_lerp(c00, c10, f2), _lerp(c01, c11, f2), f3), inside.all(axis=-1)


def _interp_feet(box: Box, values: np.ndarray, feet: StepFeet):
    """``interp_values`` at ``feet``, with its arithmetic in its lerp order;
    each lerp ``u*(1 - w) + v*w`` runs in place on its gathered ``u`` and
    ``v``, so a call holds few temporaries of the block's size."""
    (x1, x2, x3), (d1, d2) = feet.axes, feet.shift
    n1, n2, n3 = values.shape
    i1, f1, in1 = _axis_cells(x1 + d1, box.lo[0], box.hi[0], n1)
    i2, f2, in2 = _axis_cells(x2 + d2, box.lo[1], box.hi[1], n2)
    # group_mul's ``a3 + b3 + 0.5*(a1*b2 - b1*a2)`` term by term, for the same bits
    lift = 0.5 * (x1[:, None] * d2 - d1 * x2[None, :])
    i3, f3, in3 = _axis_cells((x3 + 0.0)[None, None, :] + lift[:, :, None],
                              box.lo[2], box.hi[2], n3)
    a = _lerp(values[i1], values[i1 + 1], f1[:, None, None])
    b = _lerp(a[:, i2], a[:, i2 + 1], f2[None, :, None])
    del a  # off the x3 gathers' peak
    # i3 becomes the flat (column, k) index into b; the lower neighbour is
    # taken before i3 += 1 moves it, in place, onto the upper one
    i3 += (np.arange(i3.shape[0] * i3.shape[1]) * n3).reshape(i3.shape[:2] + (1,))
    c = _lerp(b.take(i3), b.take(np.add(i3, 1, out=i3)), f3)
    in3 &= in1[:, None, None] & in2[None, :, None]
    return c.reshape(-1), in3.reshape(-1)


def _lerp(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``u*(1 - w) + v*w``, bit for bit, written into ``u`` (and ``v``)."""
    u *= 1 - w
    v *= w
    u += v
    return u


def sample_field(f: Callable, box: Box, counts) -> Grid3:
    """Nodal evaluation of a scalar field."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != 3 or min(counts) < 2:
        raise ValueError(f"counts must be three values >= 2, got {counts}")
    pts = grid_nodes(box, counts)
    vals = eval_field(f, pts)
    if not np.isfinite(vals).all():
        k = int(np.argmax(~np.isfinite(vals)))
        idx = np.unravel_index(k, counts)
        raise ValueError(
            f"field returned a non-finite value at node {tuple(int(i) for i in idx)}"
            f" = {pts[k]}"
        )
    return Grid3(box, vals.reshape(counts))


def certify_region(box: Box, r_z: float, horizon: float) -> Box:
    """Sub-box whose backward trajectories stay inside ``box``.

    Horizontal axes shrink by the reach ``r_z * horizon``; the vertical
    axis by ``(r_z*horizon)^2 + r_z*horizon*max(|x1|, |x2|)`` covering the
    worst drift of ``xdot3 = (x1*z2 - x2*z1)/2``.
    """
    if r_z < 0 or horizon < 0:
        raise ValueError("r_z and horizon must be nonnegative")
    reach = r_z * horizon
    m = float(np.abs(np.stack([box.lo[:2], box.hi[:2]])).max())
    margins = np.array([reach, reach, reach * reach + reach * m])
    half = 0.5 * box.extent
    for axis in range(3):
        if margins[axis] >= half[axis]:
            raise ValueError(
                f"certified region is empty on axis {axis + 1}: margin "
                f"{margins[axis]:.6g} >= half extent {half[axis]:.6g}; "
                f"enlarge the box on that axis"
            )
    return Box(box.lo + margins, box.hi - margins)


@dataclass
class ValueGrid:
    """Uniformly time-stacked grids holding a discrete value function.

    ``trusted_region`` is the certified sub-box; ``trusted`` flags nodes
    whose one-step stencil stayed inside the box at each time.
    """

    box: Box
    times: np.ndarray
    data: np.ndarray
    trusted_region: Box
    trusted: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        data = np.asarray(self.data, dtype=float)
        trusted = np.asarray(self.trusted, dtype=bool)
        if len(times) < 2:
            raise ValueError("need at least 2 time slices")
        steps = np.diff(times)
        if not (steps > 0).all() or not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise ValueError("times must be uniformly increasing")
        if data.shape != (len(times),) + tuple(data.shape[1:]) or data.ndim != 4:
            raise ValueError(f"data must be (n_times, n1, n2, n3), got {data.shape}")
        if trusted.shape != data.shape:
            raise ValueError("trusted flags must match data shape")
        if not ((self.trusted_region.lo >= self.box.lo).all()
                and (self.trusted_region.hi <= self.box.hi).all()):
            raise ValueError("trusted_region must lie inside the box")
        self.times = times
        self.data = data
        self.trusted = trusted

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def slice(self, k: int) -> Grid3:
        return Grid3(self.box, self.data[k])

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return grid_axes(self.box, self.counts)

    def region_index_bounds(self) -> tuple[slice, slice, slice]:
        """Index slices of the nodes inside the certified region."""
        out = []
        for i, ax in enumerate(self.axes()):
            inside = np.nonzero(
                (ax >= self.trusted_region.lo[i]) & (ax <= self.trusted_region.hi[i])
            )[0]
            if len(inside) == 0:
                raise ValueError(f"no grid nodes inside the certified region on axis {i + 1}")
            out.append(slice(int(inside[0]), int(inside[-1]) + 1))
        return tuple(out)

    def reversed_time(self) -> "ValueGrid":
        """Same stack reindexed by ``t -> horizon - t``: its value and trusted
        stacks are reversed views of this one's, not copies."""
        return ValueGrid(self.box, self.times.copy(), self.data[::-1], self.trusted_region,
                         self.trusted[::-1])


def refinement_sup_diffs(levels: list[ValueGrid]) -> list[float]:
    """Sup differences between consecutive levels of a refinement ladder.

    Each level refines the previous one by integer strides in time and
    space; level ``i + 1`` is sampled at level ``i``'s nodes, and the
    comparison is restricted to the coarsest level's certified nodes.
    """
    coarse_region = levels[0].region_index_bounds()
    diffs = []
    for a, b in zip(levels, levels[1:]):
        stride_t = (len(b.times) - 1) // (len(a.times) - 1)
        stride_x = (b.counts[0] - 1) // (a.counts[0] - 1)
        sub_b = b.data[::stride_t, ::stride_x, ::stride_x, ::stride_x]
        scale = (a.counts[0] - 1) // (levels[0].counts[0] - 1)
        sl = tuple(slice(s.start * scale, (s.stop - 1) * scale + 1, scale)
                   for s in coarse_region)
        diffs.append(float(np.abs((a.data - sub_b)[(slice(None),) + sl]).max()))
    return diffs


# ---------------------------------------------------------------------------
# Serialization: CSV rows per node, and a JSON header next to a flat binary
# array of 64-bit little-endian reals in row-major order.
# ---------------------------------------------------------------------------

# values ``write_grid_csv`` formats per list: it bounds the Python bytes
# objects alive at once, whose small-object arenas would otherwise raise the
# solve's peak memory; the texts are kept in a numpy array
_CSV_CHUNK = 2048


def write_grid_csv(grid: Grid3, path, trusted: np.ndarray | None = None) -> None:
    """One ``x1,x2,x3,value,trusted`` row per node, every real in ``%.17g``.

    The bytes are those of ``np.savetxt`` with the format
    ``"%.17g,%.17g,%.17g,%.17g,%d"``.  Each distinct value of the grid is
    formatted once: the values' 64-bit patterns are deduplicated, which
    keeps ``-0`` apart from ``0`` and prints every NaN as ``nan``, and
    their texts, held in a fixed-width ``S24`` array (24 bytes is the
    longest ``%.17g`` text, e.g. ``-2.2250738585072014e-308``), are
    looked up plane by plane.  The ``x2,x3`` part of a row is formatted
    once per call, and each x1-plane is joined and written at once.
    """
    n1, n2, n3 = grid.counts
    bits = np.ascontiguousarray(grid.values, dtype=float).view(np.uint64).reshape(n1, n2 * n3)
    # a sorted copy, searched plane by plane: np.unique keeps more memory
    # resident (a hash table of small nodes, or with return_inverse three
    # index arrays of the grid's size), and the solve's peak is close
    distinct = np.sort(bits, axis=None)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    text = np.empty(len(distinct), dtype="S24")
    for start in range(0, len(distinct), _CSV_CHUNK):
        chunk = distinct[start:start + _CSV_CHUNK].view(float).tolist()
        text[start:start + len(chunk)] = [b"%.17g" % v for v in chunk]
    flags = (np.ones((n1, n2 * n3), dtype=bool) if trusted is None
             else np.asarray(trusted, dtype=bool).reshape(n1, n2 * n3))
    s1, s2, s3 = ([b"%.17g" % x for x in ax.tolist()] for ax in grid.axes())
    tails = (b",0\n", b",1\n")
    # per row: x1 text, ",x2,x3,", value text, ",trusted\n"
    parts = [b""] * (4 * n2 * n3)
    parts[1::4] = [b",%s,%s," % (b, c) for b in s2 for c in s3]
    with open(path, "wb") as fh:
        fh.write(b"x1,x2,x3,value,trusted\n")
        for i, a in enumerate(s1):
            parts[0::4] = [a] * (n2 * n3)
            parts[2::4] = text[np.searchsorted(distinct, bits[i])].tolist()
            parts[3::4] = [tails[f] for f in flags[i].tolist()]
            fh.write(b"".join(parts))


def _box_json(box: Box) -> list:
    return [list(map(float, box.lo)), list(map(float, box.hi))]


def write_grid_binary(
    grid: Grid3,
    base: Path,
    time: float | None = None,
    trusted: np.ndarray | None = None,
) -> None:
    """Writes ``base.json`` (header) and ``base.bin`` (values, '<f8', C order)."""
    base = Path(base)
    header = {
        "box": _box_json(grid.box),
        "counts": list(grid.counts),
        "dtype": "<f8",
        "order": "C",
        "value_file": base.name + ".bin",
    }
    if time is not None:
        header["time"] = float(time)
    if trusted is not None:
        header["trusted_file"] = base.name + ".trusted.bin"
        Path(str(base) + ".trusted.bin").write_bytes(
            np.ascontiguousarray(trusted, dtype=np.uint8).tobytes()
        )
    Path(str(base) + ".bin").write_bytes(
        np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    )
    Path(str(base) + ".json").write_text(
        json.dumps(header, indent=2, sort_keys=True) + "\n"
    )


def read_grid_binary(json_path) -> tuple[Grid3, float | None, np.ndarray | None]:
    json_path = Path(json_path)
    header = json.loads(json_path.read_text())
    counts = tuple(header["counts"])
    box = Box(header["box"][0], header["box"][1])
    raw = (json_path.parent / header["value_file"]).read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(counts).copy()
    trusted = None
    if "trusted_file" in header:
        raw_t = (json_path.parent / header["trusted_file"]).read_bytes()
        trusted = np.frombuffer(raw_t, dtype=np.uint8).reshape(counts).astype(bool)
    return Grid3(box, values), header.get("time"), trusted


def write_value_grid(vg: ValueGrid, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for k in range(len(vg.times)):
        name = f"slice_{k:03d}"
        names.append(name)
        write_grid_binary(vg.slice(k), outdir / name, time=float(vg.times[k]),
                          trusted=vg.trusted[k])
        write_grid_csv(vg.slice(k), outdir / (name + ".csv"),
                       trusted=vg.trusted[k].reshape(-1))
    master = {
        "box": _box_json(vg.box),
        "counts": list(vg.counts),
        "times": [float(t) for t in vg.times],
        "trusted_region": _box_json(vg.trusted_region),
        "slices": names,
    }
    (outdir / "valuegrid.json").write_text(
        json.dumps(master, indent=2, sort_keys=True) + "\n"
    )


def read_value_grid(outdir) -> ValueGrid:
    outdir = Path(outdir)
    master = json.loads((outdir / "valuegrid.json").read_text())
    times = np.asarray(master["times"], dtype=float)
    data, flags = [], []
    for name in master["slices"]:
        grid, _, trusted = read_grid_binary(outdir / (name + ".json"))
        data.append(grid.values)
        flags.append(trusted if trusted is not None
                     else np.ones(grid.counts, dtype=bool))
    return ValueGrid(
        Box(master["box"][0], master["box"][1]),
        times,
        np.stack(data),
        Box(master["trusted_region"][0], master["trusted_region"][1]),
        np.stack(flags),
    )
