import numpy as np
import pytest

from _util import value_grid_from_function

from heisgame import grids
from heisgame.heis import Box, gauge
from heisgame.flow import exact_step
from heisgame.grids import (
    Grid3,
    StepFeet,
    ValueGrid,
    certify_region,
    grid_nodes,
    interp_values,
    read_grid_binary,
    read_value_grid,
    sample_field,
    write_grid_binary,
    write_grid_csv,
    write_value_grid,
)

BOX = Box([-1, -1, -2], [1, 1, 2])


def affine(p):
    p = np.asarray(p, dtype=float)
    return p[..., 0] + 2 * p[..., 1] + 3 * p[..., 2]


class TestInterp:
    def test_nodal_values_exact(self):
        g = sample_field(gauge, BOX, (5, 7, 9))
        nodes = grid_nodes(g.box, g.counts)
        vals, trusted = g.interp(nodes)
        assert np.array_equal(vals, g.values.reshape(-1))
        assert trusted.all()

    def test_constant_grid(self):
        g = Grid3(BOX, np.full((4, 4, 4), 3.5))
        v_in, t_in = g.interp((0.2, 0.3, -0.4))
        v_out, t_out = g.interp((5.0, 0.0, 0.0))
        assert v_in == 3.5 and t_in
        assert v_out == 3.5 and not t_out

    def test_affine_reproduction(self):
        g = sample_field(affine, BOX, (9, 9, 17))
        rng = np.random.default_rng(0)
        pts = BOX.sample(2000, rng)
        vals, trusted = g.interp(pts)
        assert trusted.all()
        assert np.abs(vals - affine(pts)).max() <= 1e-12

    def test_clamped_outside(self):
        g = sample_field(affine, BOX, (5, 5, 5))
        v, trusted = g.interp((2.0, 0.0, 0.0))
        assert not trusted
        assert v == pytest.approx(affine((1.0, 0.0, 0.0)), abs=1e-12)

    def test_monotone_within_cell_bounds(self):
        rng = np.random.default_rng(1)
        g = Grid3(BOX, rng.normal(size=(6, 6, 6)))
        pts = BOX.sample(4000, rng)
        vals, _ = g.interp(pts)
        assert vals.min() >= g.values.min() - 1e-12
        assert vals.max() <= g.values.max() + 1e-12

    def test_against_scipy_oracle(self):
        scipy_interp = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(2)
        g = Grid3(BOX, rng.normal(size=(7, 8, 9)))
        ref = scipy_interp.RegularGridInterpolator(g.axes(), g.values,
                                                   method="linear")
        pts = BOX.sample(3000, rng)
        vals, _ = g.interp(pts)
        assert np.abs(vals - ref(pts)).max() <= 1e-11


class TestInterpFeet:
    """``interp_values`` at ``StepFeet`` against the gather at ``exact_step`` feet."""

    def test_bit_identical_to_gather(self):
        rng, zeros = np.random.default_rng(3), np.random.default_rng(4)
        flags_seen = set()
        for k in range(180):
            lo = rng.uniform(-3.0, 1.0, 3)
            box = Box(lo, lo + rng.uniform(0.1, 4.0, 3))
            values = rng.normal(size=tuple(int(c) for c in rng.integers(2, 20, 3)))
            if k % 6 == 1:  # signed zeros in the low x3 half, which the lerps keep or flip
                values[..., :values.shape[2] // 2 + 1] = 0.0
                values[zeros.random(values.shape) < 0.5] *= -1.0
            h = rng.uniform(0.0, 2.0)
            # z = 0 on every fifth case, feet far outside the box on large z
            z = rng.normal(size=2) * (0.0 if k % 5 == 0 else rng.choice([0.1, 1.0, 10.0]))
            grid = Grid3(box, values)
            ref_v, ref_in = interp_values(box, values,
                                          exact_step(grid_nodes(box, values.shape), -z, h))
            x1, x2, x3 = grid.axes()
            n1, plane = values.shape[0], values.shape[1] * values.shape[2]
            a = int(rng.integers(0, n1))
            b = int(rng.integers(a + 1, n1 + 1))
            for planes in (slice(0, n1), slice(a, b)):
                feet = StepFeet((x1[planes], x2, x3), -h * z)
                v, inside = interp_values(box, values, feet)
                sl = slice(planes.start * plane, planes.stop * plane)
                assert len(feet) == len(v)
                assert np.array_equal(v.view(np.uint64), ref_v[sl].view(np.uint64))
                assert np.array_equal(inside, ref_in[sl])
            if not z.any():
                assert np.array_equal(v, values[a:b].reshape(-1)) and inside.all()
            flags_seen.update((bool(inside.all()), bool(inside.any())))
        assert flags_seen == {True, False}  # feet inside and far outside the box


class TestSampleField:
    def test_zero_field(self):
        g = sample_field(lambda p: np.zeros(np.asarray(p).shape[:-1]), BOX, (3, 3, 3))
        assert not g.values.any()

    def test_gauge_minimum_at_origin_node(self):
        g = sample_field(gauge, BOX, (5, 5, 5))
        idx = np.unravel_index(np.argmin(g.values), g.counts)
        assert idx == (2, 2, 2)
        assert g.values[idx] == 0.0

    def test_affine_resample_idempotent(self):
        g = sample_field(affine, BOX, (6, 6, 6))
        resampled = sample_field(lambda p: g.interp(p)[0], BOX, (6, 6, 6))
        assert np.abs(resampled.values - g.values).max() <= 1e-12

    def test_non_finite_reported_with_node(self):
        def bad(p):
            p = np.asarray(p, dtype=float)
            return np.where(p[..., 0] > 0.9, np.inf, 0.0)

        with pytest.raises(ValueError, match="node"):
            sample_field(bad, BOX, (5, 5, 5))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_field(gauge, BOX, (1, 5, 5))


class TestCertifyRegion:
    def test_zero_radius_keeps_box(self):
        region = certify_region(BOX, 0.0, 1.0)
        assert np.array_equal(region.lo, BOX.lo)
        assert np.array_equal(region.hi, BOX.hi)

    def test_cube_shrinks_horizontal_axes(self):
        box = Box([-4, -4, -8], [4, 4, 8])
        region = certify_region(box, 1.0, 1.0)
        assert np.allclose(region.lo[:2], [-3, -3])
        assert np.allclose(region.hi[:2], [3, 3])
        # vertical margin (r*T)^2 + r*T*max|x_{1,2}| = 1 + 4 = 5
        assert np.allclose(region.lo[2], -3.0)
        assert np.allclose(region.hi[2], 3.0)

    def test_short_vertical_axis_errors(self):
        box = Box([-4, -4, -4], [4, 4, 4])
        with pytest.raises(ValueError, match="axis 3"):
            certify_region(box, 1.0, 1.0)

    def test_monotone_in_radius_and_horizon(self):
        box = Box([-4, -4, -8], [4, 4, 8])
        small = certify_region(box, 0.5, 1.0)
        large = certify_region(box, 1.0, 1.0)
        assert (small.extent >= large.extent).all()
        short = certify_region(box, 1.0, 0.5)
        assert (short.extent >= large.extent).all()


class TestValueGrid:
    def make(self):
        times = np.linspace(0, 1, 5)
        data = np.stack([np.full((3, 3, 3), float(k)) for k in range(5)])
        region = certify_region(BOX, 0.0, 1.0)
        return ValueGrid(BOX, times, data, region, np.ones_like(data, bool))

    def test_validation(self):
        vg = self.make()
        assert vg.n_steps == 4
        assert vg.dt == pytest.approx(0.25)
        with pytest.raises(ValueError):
            ValueGrid(BOX, [0.0, 0.5, 0.6], vg.data[:3], vg.trusted_region,
                      vg.trusted[:3])

    def test_reversed_time(self):
        vg = self.make()
        rev = vg.reversed_time()
        assert np.array_equal(rev.data[0], vg.data[-1])
        assert np.array_equal(rev.times, vg.times)
        assert np.array_equal(rev.reversed_time().data, vg.data)
        # views, not copies: a reversal holds no stacks of its own
        assert np.shares_memory(rev.data, vg.data)
        assert np.shares_memory(rev.trusted, vg.trusted)

    def test_from_function(self):
        vg = value_grid_from_function(
            lambda t, p: affine(p) - 2 * t, BOX, (4, 4, 4), 1.0, 3)
        assert vg.data.shape == (4, 4, 4, 4)
        assert vg.data[0].max() == pytest.approx(affine((1, 1, 2)), abs=1e-12)
        assert np.allclose(vg.data[3], vg.data[0] - 2.0)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        g = sample_field(gauge, BOX, (4, 5, 6))
        trusted = np.zeros(g.counts, dtype=bool)
        trusted[1:3] = True
        write_grid_binary(g, tmp_path / "grid", time=0.5, trusted=trusted)
        g2, t, tr = read_grid_binary(tmp_path / "grid.json")
        assert t == 0.5
        assert np.array_equal(g2.values, g.values)
        assert np.array_equal(tr, trusted)
        raw = (tmp_path / "grid.bin").read_bytes()
        assert len(raw) == 4 * 5 * 6 * 8
        assert np.frombuffer(raw, dtype="<f8")[0] == g.values[0, 0, 0]

    def test_csv_format(self, tmp_path):
        g = sample_field(affine, BOX, (3, 3, 3))
        path = tmp_path / "grid.csv"
        write_grid_csv(g, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,x3,value,trusted"
        assert len(lines) == 1 + 27
        first = lines[1].split(",")
        assert [float(v) for v in first[:3]] == [-1.0, -1.0, -2.0]
        assert float(first[3]) == affine((-1, -1, -2))
        assert first[4] == "1"

    def test_csv_bytes_match_savetxt(self, tmp_path):
        box = Box([-1e300, -2.5, -1e-300], [1e300, 0.0, 3.0])
        values = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, np.pi, -1 / 3,
                           5e-324, 1.0, 123456789.125, -2.0]).reshape(2, 3, 2)
        trusted = np.array([True, False] * 6).reshape(2, 3, 2)
        g = Grid3(box, values)
        table = np.column_stack([grid_nodes(g.box, g.counts), values.reshape(-1),
                                 trusted.reshape(-1).astype(float)])
        np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g,%.17g,%.17g,%.17g,%d",
                   header="x1,x2,x3,value,trusted", comments="")
        write_grid_csv(g, tmp_path / "grid.csv", trusted=trusted)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert b",-0," in (tmp_path / "grid.csv").read_bytes()

    @staticmethod
    def csv_and_savetxt(g, trusted, tmp_path):
        """The bytes ``write_grid_csv`` writes for ``g`` and those of
        ``np.savetxt`` on the same rows (``trusted=None`` means all 1)."""
        flags = np.ones(g.counts) if trusted is None else trusted
        table = np.column_stack([grid_nodes(g.box, g.counts), g.values.reshape(-1),
                                 flags.reshape(-1).astype(float)])
        np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g,%.17g,%.17g,%.17g,%d",
                   header="x1,x2,x3,value,trusted", comments="")
        write_grid_csv(g, tmp_path / "grid.csv", trusted=trusted)
        return (tmp_path / "grid.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("with_flags", [True, False])
    def test_csv_repeated_values_match_savetxt(self, tmp_path, with_flags):
        rng = np.random.default_rng(5)
        values = rng.choice([0.0, -0.0, 0.1, -1 / 3, 7.0], size=(4, 6, 9))
        trusted = rng.random(values.shape) < 0.5 if with_flags else None
        out, ref = self.csv_and_savetxt(Grid3(BOX, values), trusted, tmp_path)
        assert out == ref
        assert b",-0," in out and b",0," in out

    @pytest.mark.parametrize("with_flags", [True, False])
    def test_csv_non_finite_and_longest_match_savetxt(self, tmp_path, with_flags):
        nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000123],
                               dtype=np.uint64).view(float)
        special = [np.inf, -np.inf, np.nan, *nan_payload, 5e-324,
                   -2.2250738585072014e-308, -0.0, 0.0, 1.0]
        g = Grid3(BOX, np.ones((2, 3, 4)))
        # Grid3 refuses non-finite values; the writer is checked on them anyway
        g.values = np.resize(np.array(special), g.counts)
        assert len(np.unique(g.values.view(np.uint64))) == len(special)
        trusted = np.arange(24).reshape(g.counts) % 3 == 0 if with_flags else None
        out, ref = self.csv_and_savetxt(g, trusted, tmp_path)
        assert out == ref
        assert b",-2.2250738585072014e-308," in out and b",nan," in out

    def test_csv_more_distinct_values_than_a_chunk(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((5, 30, 40)) * 10.0 ** rng.integers(-300, 300, (5, 30, 40))
        assert len(np.unique(values)) > 2 * grids._CSV_CHUNK
        trusted = rng.random(values.shape) < 0.5
        out, ref = self.csv_and_savetxt(Grid3(BOX, values), trusted, tmp_path)
        assert out == ref

    def test_csv_single_node(self, tmp_path):
        g = Grid3(BOX, np.ones((2, 2, 2)))
        # Grid3 asks for 2 nodes per axis; the writer takes a single one
        g.values = np.array([[[-1 / 3]]])
        out, ref = self.csv_and_savetxt(g, None, tmp_path)
        assert out == ref == b"x1,x2,x3,value,trusted\n-1,-1,-2,-0.33333333333333331,1\n"

    def test_value_grid_roundtrip(self, tmp_path):
        vg = value_grid_from_function(lambda t, p: gauge(p) + t, BOX, (3, 4, 5),
                                      1.0, 2)
        write_value_grid(vg, tmp_path)
        back = read_value_grid(tmp_path)
        assert np.array_equal(back.data, vg.data)
        assert np.array_equal(back.times, vg.times)
        assert np.array_equal(back.trusted, vg.trusted)
        assert np.array_equal(back.trusted_region.lo, vg.trusted_region.lo)
        assert (tmp_path / "slice_000.csv").exists()
