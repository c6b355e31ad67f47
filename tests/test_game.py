import dataclasses
import warnings

import numpy as np
import pytest

from _util import (
    DEFAULT_BOX,
    SCENARIOS,
    canonical_problem,
    covering_radius_reference,
    depth_first_value,
)

import heisgame.game as game
from heisgame.catalog import make_running_cost
from heisgame.heis import Box, ball_points, eval_field, gauge
from heisgame.flow import exact_step
from heisgame.grids import Grid3, sample_field
from heisgame.game import (
    _alternating_value,
    _node_blocks,
    ControlLattice,
    Domain,
    GameSpec,
    LipschitzConstants,
    NonFiniteValueError,
    backward_induction,
    brute_force_value,
    dpp_residual,
    fundamental_domain,
    isaacs_gap,
    lipschitz_audit,
    lower_hamiltonian,
    make_lattice,
    upper_hamiltonian,
)
from heisgame.scenario import load_scenario, parse_scenario

SMALL_BOX = Box([-4, -4, -8], [4, 4, 8])
SMALL_COUNTS = (9, 9, 17)
AFFINE_PARAMS = {"a0": 0.25, "ay": [0.5, -0.25], "az": [0.3, 0.2]}


def coupling_spec(r_y=2.0, r_z=1.0, horizon=1.0):
    """Running cost z.y - |y| with gauge terminal cost."""
    def cost(t, x, y, z):
        y = np.asarray(y, dtype=float)
        return float(np.asarray(z, dtype=float) @ y) - np.linalg.norm(y)

    base = lambda t, x, y: -np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
    c2 = float(gauge(SMALL_BOX.corners()).max())
    return GameSpec(horizon, r_y, r_z, cost, gauge, c1=r_y * r_z + r_y,
                    c1p=0.0, c2=c2, c2p=1.0, coupling_base=base)


def simple_spec(cost, terminal, r_y=1.0, r_z=1.0, c1=1.0, c2=1.0,
                c1p=0.0, c2p=0.0, horizon=1.0, coupling_base=None):
    return GameSpec(horizon, r_y, r_z, cost, terminal, c1=c1, c1p=c1p,
                    c2=c2, c2p=c2p, coupling_base=coupling_base)


def const_field(c):
    return lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], c)


class TestMakeLattice:
    def test_zero_radius(self):
        lat = make_lattice(0.0)
        assert len(lat.points) == 1
        assert np.array_equal(lat.points[0], (0, 0))
        assert lat.covering_radius == 0.0

    def test_five_point_covering(self):
        lat = make_lattice(1.0, rings=1, base_angles=4)
        assert len(lat.points) == 5
        expect = {(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)}
        got = {tuple(np.round(p, 12)) for p in lat.points}
        assert got == expect
        assert lat.covering_radius == pytest.approx(0.7654, abs=5e-3)

    def test_growing_rings_covering(self):
        lat = make_lattice(2.0, rings=4, base_angles=8)
        assert len(lat.points) == 1 + 8 * (1 + 2 + 3 + 4)
        assert lat.covering_radius <= 0.2 * 2.0

    @pytest.mark.parametrize("rings", [1, 4, 16])
    def test_covering_radius_bit_identical(self, rings):
        lat = make_lattice(2.0, rings, 8)
        assert lat.covering_radius == covering_radius_reference(lat.points, 2.0)

    def test_covering_radius_random_and_zero_radius(self):
        pts = ball_points(np.random.default_rng(21), 1.5, (200,))
        got = game._covering_radius(pts, 1.5)
        assert got > 0 and got == covering_radius_reference(pts, 1.5)
        assert game._covering_radius(np.zeros((1, 2)), 0.0) == 0.0

    def test_covering_radius_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            make_lattice(2.0, 16, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_ordering_center_then_rings(self):
        lat = make_lattice(1.0, rings=2, base_angles=4)
        assert np.array_equal(lat.points[0], (0, 0))
        assert np.allclose(lat.points[1], (0.5, 0))
        norms = np.linalg.norm(lat.points, axis=-1)
        assert (np.diff(norms) >= -1e-12).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_lattice(-1.0)
        with pytest.raises(ValueError):
            make_lattice(1.0, rings=0)
        with pytest.raises(ValueError):
            make_lattice(1.0, base_angles=3)

    def test_refinement_includes_coarser_points(self):
        coarse = make_lattice(1.0, rings=2, base_angles=8)
        fine = make_lattice(1.0, rings=4, base_angles=8)
        fine_set = {tuple(np.round(p, 10)) for p in fine.points}
        for p in coarse.points:
            assert tuple(np.round(p, 10)) in fine_set


class TestHamiltonians:
    Y = make_lattice(2.0, 4, 8)
    Z = make_lattice(1.0, 4, 8)

    def test_coupling_at_zero_multiplier(self):
        spec = coupling_spec()
        h = lower_hamiltonian(spec, 0.0, np.zeros(3), np.zeros(2), self.Y, self.Z)
        assert h == pytest.approx(0.0, abs=1e-15)
        hu = upper_hamiltonian(spec, 0.0, np.zeros(3), np.zeros(2), self.Y, self.Z)
        assert hu == pytest.approx(0.0, abs=1e-15)

    def test_coupling_matches_negative_norm(self):
        spec = coupling_spec()
        lam = np.array([1.0, 0.0])
        h = lower_hamiltonian(spec, 0.0, np.zeros(3), lam, self.Y, self.Z)
        tol = 2 * self.Z.covering_radius + self.Y.covering_radius
        assert abs(h - (-1.0)) <= tol

    def test_constant_cost_reduces_to_support_function(self):
        c = 0.7
        spec = simple_spec(lambda t, x, y, z: c, const_field(0.0),
                           r_y=2.0, r_z=1.0, c1=abs(c))
        rng = np.random.default_rng(0)
        for lam in ball_points(rng, 2.0, 16):
            lo = lower_hamiltonian(spec, 0.0, np.zeros(3), lam, self.Y, self.Z)
            hi = upper_hamiltonian(spec, 0.0, np.zeros(3), lam, self.Y, self.Z)
            target = c - 1.0 * np.linalg.norm(lam)
            assert abs(lo - target) <= self.Z.covering_radius * np.linalg.norm(lam) + 1e-12
            assert hi == pytest.approx(lo, abs=1e-12)

    def test_order_inequality_random_cost(self):
        def cost(t, x, y, z):
            y = np.asarray(y, dtype=float)
            z = np.asarray(z, dtype=float)
            return np.sin(3 * y[0] * z[1]) + y[1] ** 2 - z[0]

        spec = simple_spec(cost, const_field(0.0), r_y=2.0, r_z=1.0, c1=10.0)
        rng = np.random.default_rng(1)
        pts = SMALL_BOX.sample(32, rng)
        lams = ball_points(rng, 2.0, 32)
        lo = lower_hamiltonian(spec, 0.0, pts, lams, self.Y, self.Z)
        hi = upper_hamiltonian(spec, 0.0, pts, lams, self.Y, self.Z)
        assert (hi >= lo - 1e-12).all()

    def test_batched_probes_match_scalar(self):
        spec = coupling_spec()
        rng = np.random.default_rng(2)
        pts = SMALL_BOX.sample(8, rng)
        lams = ball_points(rng, 2.0, 8)
        ts = rng.random(8)
        batch = lower_hamiltonian(spec, ts, pts, lams, self.Y, self.Z)
        for i in range(8):
            one = lower_hamiltonian(spec, ts[i], pts[i], lams[i], self.Y, self.Z)
            assert one == pytest.approx(batch[i], abs=1e-14)

    def test_lattice_radius_mismatch_rejected(self):
        spec = coupling_spec(r_y=3.0)
        with pytest.raises(ValueError, match="lattice radius"):
            lower_hamiltonian(spec, 0.0, np.zeros(3), np.zeros(2), self.Y, self.Z)

    def test_outer_superset_never_decreases_lower(self):
        spec = coupling_spec()
        coarse = make_lattice(2.0, 2, 8)
        fine = make_lattice(2.0, 4, 8)
        rng = np.random.default_rng(3)
        lams = ball_points(rng, 2.0, 24)
        for lam in lams:
            h1 = lower_hamiltonian(spec, 0.0, np.zeros(3), lam, coarse, self.Z)
            h2 = lower_hamiltonian(spec, 0.0, np.zeros(3), lam, fine, self.Z)
            assert h2 >= h1 - 1e-12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("hamiltonian", [lower_hamiltonian, upper_hamiltonian])
    def test_non_finite_cost_raises(self, hamiltonian, bad):
        cost = lambda t, x, y, z: bad if z[0] > 0.5 else 0.0
        spec = simple_spec(cost, const_field(0.0), r_y=2.0, r_z=1.0)
        with pytest.raises(NonFiniteValueError, match="running cost non-finite"):
            hamiltonian(spec, 0.0, np.zeros(3), np.zeros(2), self.Y, self.Z)


    @pytest.mark.parametrize("source", ["coupling_spec", "build_game"])
    def test_separable_path_matches_general_row(self, source):
        spec = coupling_spec() if source == "coupling_spec" else canonical_problem()[1]
        Y, Z = make_lattice(spec.r_y), make_lattice(spec.r_z)
        general = dataclasses.replace(spec, coupling_base=None)
        rng = np.random.default_rng(7)
        n = 1000
        probes = (rng.random(n) * spec.horizon, SMALL_BOX.sample(n, rng),
                  ball_points(rng, spec.r_y, n))
        for hamiltonian in (lower_hamiltonian, upper_hamiltonian):
            assert np.array_equal(hamiltonian(spec, *probes, Y, Z),
                                  hamiltonian(general, *probes, Y, Z))
        fast, slow = isaacs_gap(spec, probes, Y, Z), isaacs_gap(general, probes, Y, Z)
        assert np.array_equal(fast.gaps, slow.gaps)
        assert fast.max_gap == slow.max_gap

    def test_separable_path_calls_base_once_per_y(self):
        calls = {"cost": 0, "base": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        spec = coupling_spec()
        spec = dataclasses.replace(spec, running_cost=counted("cost", spec.running_cost),
                                   coupling_base=counted("base", spec.coupling_base))
        upper_hamiltonian(spec, 0.0, SMALL_BOX.sample(5, np.random.default_rng(0)),
                          np.zeros(2), self.Y, self.Z)
        assert calls == {"cost": 0, "base": len(self.Y.points)}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["base", "pair"])
    @pytest.mark.parametrize("hamiltonian", [lower_hamiltonian, upper_hamiltonian])
    def test_non_finite_separable_cost_raises(self, hamiltonian, where, bad):
        base = lambda t, x, y: bad if where == "base" and y[0] > 0.5 else 0.0
        table = np.zeros((len(self.Z.points), len(self.Y.points)))
        table[3, 5] = bad if where == "pair" else 0.0
        spec = dataclasses.replace(
            simple_spec(lambda t, x, y, z: 0.0, const_field(0.0), r_y=2.0, r_z=1.0),
            coupling_base=base, coupling_pair=lambda yp, zp: table)
        with pytest.raises(NonFiniteValueError, match=f"coupling {where}"):
            hamiltonian(spec, 0.0, np.zeros(3), np.zeros(2), self.Y, self.Z)


class TestIsaacsGap:
    def test_constant_cost_zero_gap(self):
        spec = simple_spec(lambda t, x, y, z: 2.0, const_field(0.0),
                           r_y=2.0, r_z=1.0, c1=2.0)
        Y, Z = make_lattice(2.0, 2, 8), make_lattice(1.0, 2, 8)
        rng = np.random.default_rng(4)
        probes = (rng.random(64), SMALL_BOX.sample(64, rng), ball_points(rng, 2.0, 64))
        rep = isaacs_gap(spec, probes, Y, Z)
        assert rep.max_gap <= 1e-12

    def test_coupling_gap_within_lattice_tolerance(self):
        spec = coupling_spec()
        Y, Z = make_lattice(2.0, 4, 8), make_lattice(1.0, 4, 8)
        rng = np.random.default_rng(5)
        n = 1000
        probes = (rng.random(n), SMALL_BOX.sample(n, rng), ball_points(rng, 2.0, n))
        rep = isaacs_gap(spec, probes, Y, Z)
        assert rep.max_gap <= 2 * (Y.covering_radius + Z.covering_radius)
        assert (rep.gaps >= -1e-12).all()

    def test_adversarial_cost_positive_gap(self):
        # (y1 - z1)^2 has min-max 1 but max-min 0: the gap is structural
        def cost(t, x, y, z):
            return (np.asarray(y, dtype=float)[0] - np.asarray(z, dtype=float)[0]) ** 2

        spec = simple_spec(cost, const_field(0.0), r_y=1.0, r_z=1.0, c1=4.0)
        Y, Z = make_lattice(1.0, 2, 8), make_lattice(1.0, 2, 8)
        rng = np.random.default_rng(6)
        probes = (np.zeros(4), SMALL_BOX.sample(4, rng), np.zeros((4, 2)))
        rep = isaacs_gap(spec, probes, Y, Z)
        assert rep.max_gap >= 0.5


class TestBackwardInduction:
    Y = make_lattice(1.0, 1, 8)
    Z = make_lattice(1.0, 1, 8)

    def grid(self):
        return Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))

    def test_zero_cost_constant_terminal(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, const_field(2.5), c1=1e-9, c2=2.5)
        v = backward_induction(spec, self.grid(), 4, self.Y, self.Z)
        assert np.abs(v.data - 2.5).max() <= 1e-13

    def test_unit_cost_accumulates_time_to_go(self):
        spec = simple_spec(lambda t, x, y, z: 1.0, const_field(0.0), c1=1.0, c2=1e-9)
        v = backward_induction(spec, self.grid(), 5, self.Y, self.Z)
        for k, t in enumerate(v.times):
            assert np.abs(v.data[k] - (1.0 - t)).max() <= 1e-12

    def test_frozen_dynamics_keeps_terminal(self):
        def cost(t, x, y, z):
            return -np.linalg.norm(np.asarray(y, dtype=float))

        spec = simple_spec(cost, gauge, r_y=1.0, r_z=0.0, c1=1.0, c2=20.0, c2p=1.0)
        z0 = make_lattice(0.0)
        v = backward_induction(spec, self.grid(), 4, self.Y, z0)
        g = sample_field(gauge, SMALL_BOX, SMALL_COUNTS).values
        assert np.abs(v.data - g[None]).max() <= 1e-14

    def test_monotone_in_terminal_cost(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=SMALL_COUNTS)
        bump = np.abs(rng.normal(size=SMALL_COUNTS))
        g1 = Grid3(SMALL_BOX, base)
        g2 = Grid3(SMALL_BOX, base + bump)
        spec1 = simple_spec(lambda t, x, y, z: 0.0,
                            lambda p: g1.interp(p)[0], c1=1e-9, c2=50.0)
        spec2 = simple_spec(lambda t, x, y, z: 0.0,
                            lambda p: g2.interp(p)[0], c1=1e-9, c2=50.0)
        v1 = backward_induction(spec1, self.grid(), 3, self.Y, self.Z)
        v2 = backward_induction(spec2, self.grid(), 3, self.Y, self.Z)
        assert (v2.data >= v1.data - 1e-12).all()

    def test_constant_shift_equivariance(self):
        spec = coupling_spec(r_y=1.0)
        shifted = GameSpec(
            spec.horizon, spec.r_y, spec.r_z, spec.running_cost,
            lambda p: gauge(p) + 3.0, c1=spec.c1, c1p=spec.c1p,
            c2=spec.c2 + 3.0, c2p=spec.c2p, coupling_base=spec.coupling_base,
        )
        v1 = backward_induction(spec, self.grid(), 3, self.Y, self.Z)
        v2 = backward_induction(shifted, self.grid(), 3, self.Y, self.Z)
        assert np.abs(v2.data - v1.data - 3.0).max() <= 1e-12

    def test_threads_do_not_change_values(self):
        spec = coupling_spec(r_y=1.0)
        v1 = backward_induction(spec, self.grid(), 3, self.Y, self.Z)
        v2 = backward_induction(spec, self.grid(), 3, self.Y, self.Z, threads=3)
        assert np.array_equal(v1.data, v2.data)

    @pytest.mark.parametrize("name", ["canonical.json", "coupling-game.json", "tilted",
                                      "custom-affine", "constant"])
    def test_coupling_path_matches_general_path(self, name):
        if name == "tilted":
            # F = 2*y1 + z . y: the maximizer leaves the centre, so the
            # z . y offsets enter the value (both scenarios pick y = 0)
            base = lambda t, x, y: np.full(len(x), 2.0 * y[0])
            cost = lambda t, x, y, z: base(t, x, y) + float(np.asarray(z) @ y)
            spec = simple_spec(cost, gauge, r_y=2.0, r_z=0.5, c1=5.0, c2=20.0,
                               coupling_base=base)
            box, y_lat, z_lat = SMALL_BOX, make_lattice(2.0, 2, 8), make_lattice(0.5, 2, 8)
        elif name in ("custom-affine", "constant"):
            params = AFFINE_PARAMS if name == "custom-affine" else {"value": 0.75}
            cost = make_running_cost(name, params)
            spec = dataclasses.replace(
                simple_spec(cost.fn, gauge, r_y=2.0, r_z=1.0, c1=2.0, c2=20.0),
                coupling_base=cost.coupling_base, coupling_pair=cost.coupling_pair)
            box, y_lat, z_lat = SMALL_BOX, make_lattice(2.0, 2, 8), make_lattice(1.0, 1, 8)
        else:
            sc = load_scenario(SCENARIOS / name)
            spec, box, (y_lat, z_lat) = sc.game, sc.box, sc.make_lattices()
        assert spec.coupling_base is not None
        general = dataclasses.replace(spec, coupling_base=None)
        grid = Grid3(box, np.zeros((9, 9, 17)))
        fast = backward_induction(spec, grid, 3, y_lat, z_lat, warn_costs=False)
        slow = backward_induction(general, grid, 3, y_lat, z_lat, warn_costs=False)
        assert np.abs(fast.data - slow.data).max() <= 1e-12

    def test_grouped_pair_columns_bit_identical(self):
        # columns 0 and 3 are equal and 2 and 4 are equal; column 1 differs
        # from column 0 only in the sign of a zero, which the value shows
        col = np.array([0.5, 0.0, 1.0])
        neg = np.array([0.5, -0.0, 1.0])
        other = np.array([0.25, -1.0, 2.0])
        table = np.stack([col, neg, other, col, other], axis=1)
        ypts = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
        bases = {0: -1.0, 1: -0.0, 2: -2.0, 3: -3.0, 4: -4.0}
        index = {tuple(y): i for i, y in enumerate(ypts)}
        base = lambda t, x, y: np.full(len(x), bases[index[tuple(y)]])
        spec = dataclasses.replace(
            simple_spec(None, gauge), coupling_base=base,
            coupling_pair=lambda yp, zp: table)
        Y = ControlLattice(1.0, ypts, 1.0)
        Z = ControlLattice(1.0, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 1.0)
        W = np.array([[3.0, 3.0, 3.0, 0.5], [-0.0, 1.0, -0.0, -2.0], [3.0, -7.0, 3.0, -5.0]])
        h = 0.5
        pts = np.zeros((W.shape[1], 3))
        got = game._backup(spec, 0.0, h, pts, W, Y, Z, "lower")
        ref = np.full(len(pts), -np.inf)
        for yi, y in enumerate(ypts):
            acc = W[0] + h * table[0, yi]
            for zi in range(1, len(table)):
                acc = np.minimum(acc, W[zi] + h * table[zi, yi])
            ref = np.maximum(ref, acc + h * base(0.0, pts, y))
        assert np.signbit(ref[0])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_y_free_pair_table_reduces_min_z_once(self, monkeypatch):
        # a y-free table costs mz rows for the one min_z and my for the
        # outer max; the z.y table of coupling_spec costs a row per pair
        rows = []
        kernel = game._max_min

        def counted(n, m_outer, m_inner, *rest):
            rows.append(m_outer * m_inner)
            return kernel(n, m_outer, m_inner, *rest)

        monkeypatch.setattr(game, "_max_min", counted)
        Y, Z = make_lattice(2.0, 2, 8), make_lattice(1.0, 1, 8)
        my, mz = len(Y.points), len(Z.points)
        W = np.random.default_rng(0).normal(size=(mz, 16))
        pts = np.zeros((16, 3))
        y_free = lambda yp, zp: np.broadcast_to(zp[:, :1] - 0.5, (len(zp), len(yp)))
        for pair, expected in ((y_free, mz + my), (None, my * mz)):
            spec = dataclasses.replace(coupling_spec(), coupling_pair=pair)
            rows.clear()
            got = game._backup(spec, 0.0, 0.25, pts, W, Y, Z, "lower")
            assert sum(rows) == expected
            table = game._pair_table(spec, Y.points, Z.points)
            ref = np.full(len(pts), -np.inf)
            for yi, y in enumerate(Y.points):
                acc = W[0] + 0.25 * table[0, yi]
                for zi in range(1, mz):
                    acc = np.minimum(acc, W[zi] + 0.25 * table[zi, yi])
                ref = np.maximum(ref, acc + 0.25 * spec.coupling_base(0.0, pts, y))
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_separable_cost_skips_running_cost(self):
        data = {
            "schema": 1, "kind": "game", "horizon": 0.25,
            "radii": {"r_y": 2.0, "r_z": 1.0},
            "running_cost": {"name": "custom-affine", "params": AFFINE_PARAMS},
            "terminal": {"name": "gauge"},
            "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": list(SMALL_COUNTS)},
            "time_steps": 2,
            "lattice": {"y": {"rings": 2, "base_angles": 8},
                        "z": {"rings": 1, "base_angles": 8}},
            "seed": 0,
        }
        sc = parse_scenario(data)
        y_lat, z_lat = sc.make_lattices()
        calls = {"cost": 0, "base": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return None if fn is None else wrapped

        spec = dataclasses.replace(sc.game, running_cost=counted("cost", sc.game.running_cost),
                                   coupling_base=counted("base", sc.game.coupling_base))
        grid = Grid3(sc.box, np.zeros(SMALL_COUNTS))
        backward_induction(spec, grid, sc.n_steps, y_lat, z_lat, warn_costs=False)
        # the 9x9x17 nodes form one serial block, so one block per step
        assert calls["cost"] == 0
        assert calls["base"] <= len(y_lat.points) * sc.n_steps

    def test_upper_at_least_lower(self):
        spec = coupling_spec(r_y=1.0)
        lo = backward_induction(spec, self.grid(), 3, self.Y, self.Z, which="lower")
        hi = backward_induction(spec, self.grid(), 3, self.Y, self.Z, which="upper")
        assert (hi.data >= lo.data - 1e-10).all()

    def test_untrusted_near_boundary(self):
        spec = coupling_spec(r_y=1.0)
        v = backward_induction(spec, self.grid(), 4, self.Y, self.Z)
        assert v.trusted[-1].all()
        assert not v.trusted[0, 0, 0, 0]
        mid = tuple((c - 1) // 2 for c in SMALL_COUNTS)
        assert v.trusted[0][mid]

    @pytest.mark.parametrize("threads", [0, 2])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_trusted_mask_matches_stepped_containment(self, which, threads):
        spec = coupling_spec(r_y=1.0)
        grid = Grid3(SMALL_BOX, np.zeros((33, 33, 17)))
        nodes = grid.node_coordinates()
        # more nodes than one threaded block, so threads=2 runs two blocks
        assert len(_node_blocks(len(nodes), 2, 33 * 17)) == 2
        v = backward_induction(spec, grid, 1, self.Y, self.Z, which=which,
                               threads=threads, warn_costs=False)
        inside = np.ones(len(nodes), dtype=bool)
        for z in self.Z.points:
            inside &= SMALL_BOX.contains(exact_step(nodes, -z, spec.horizon))
        assert inside.any() and not inside.all()
        assert np.array_equal(v.trusted[0].reshape(-1), inside)
        assert v.trusted[1].all()

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_plane_blocks_are_invisible(self, which):
        spec = coupling_spec(r_y=1.0)
        grid = Grid3(SMALL_BOX, np.zeros((33, 33, 17)))
        # an uneven split: 29 and 4 planes of 33x17 nodes
        blocks = _node_blocks(33 * 33 * 17, 2, 33 * 17)
        assert [b.stop - b.start for b in blocks] == [29, 4]
        serial, threaded = (backward_induction(spec, grid, 2, self.Y, self.Z, which=which,
                                               threads=t, warn_costs=False) for t in (0, 2))
        assert np.array_equal(serial.data, threaded.data)
        assert np.array_equal(serial.trusted, threaded.trusted)

    def test_spot_check_warns_on_bad_bound(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, gauge, c1=1.0, c2=0.5)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            backward_induction(spec, self.grid(), 2, self.Y, self.Z)
        assert any("c2" in str(x.message) for x in w)


# grids whose axes linspace makes exactly antisymmetric: 2**k + 1 nodes on
# [-4, 4] and [-8, 8], and 16 or 32 nodes at a spacing of 0.5
SYMMETRIC_GRIDS = {
    "17x16x33": Grid3(Box([-4, -3.75, -8], [4, 3.75, 8]), np.zeros((17, 16, 33))),
    "16x17x32": Grid3(Box([-3.75, -4, -7.75], [3.75, 4, 7.75]), np.zeros((16, 17, 32))),
}


def full_path(spec, grid, y_lat, z_lat, which="lower", n_steps=3):
    return backward_induction(dataclasses.replace(spec, reflections=()), grid, n_steps,
                              y_lat, z_lat, which=which, warn_costs=False)


def hji_scenario(hamiltonian, counts=(17, 17, 33), base_angles=8):
    return parse_scenario({
        "schema": 1, "kind": "hji", "horizon": 1.0, "hamiltonian": hamiltonian,
        "initial": {"name": "gauge"},
        "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": list(counts)},
        "time_steps": 3, "lattice": {"rings": 2, "base_angles": base_angles},
    })


class TestReflections:
    """The solve of the fundamental domain against the full-grid solve."""

    @pytest.mark.parametrize("grid_name", SYMMETRIC_GRIDS)
    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("name", ["canonical.json", "constant-hamiltonian.json",
                                      "coupling-game.json"])
    def test_quadrant_matches_full_grid(self, name, which, grid_name):
        sc = load_scenario(SCENARIOS / name)
        grid = SYMMETRIC_GRIDS[grid_name]
        y_lat, z_lat = sc.make_lattices()
        n1, n2, n3 = grid.counts
        s1, s2 = n1 // 2, n2 // 2
        assert fundamental_domain(sc.game, grid, y_lat, z_lat) \
            == Domain(("x1", "x2"), (s1, s2), (n1 - s1) * (n2 - s2) * n3)
        full = full_path(sc.game, grid, y_lat, z_lat, which)
        runs = [backward_induction(sc.game, grid, 3, y_lat, z_lat, which=which,
                                   threads=t, warn_costs=False) for t in (0, 2, 0)]
        assert np.abs(runs[0].data - full.data).max() <= 1e-12
        assert np.array_equal(runs[0].trusted, full.trusted)
        # the constant Hamiltonian has R_Z = 0: nothing moves or clamps
        assert sc.game.r_z == 0 or not full.trusted[0].all()
        for rerun in runs[1:]:
            assert np.array_equal(rerun.data, runs[0].data)
            assert np.array_equal(rerun.trusted, runs[0].trusted)

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_one_reflection(self, which):
        # y1 is odd under the x1 reflection, so only the x2 half is mirrored
        sc = hji_scenario({"name": "component"})
        assert sc.game.reflections == ("x2",)
        grid = Grid3(sc.box, np.zeros(sc.counts))
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, grid, y_lat, z_lat) \
            == Domain(("x2",), (0, 8), 17 * 9 * 33)
        full = full_path(sc.game, grid, y_lat, z_lat, which)
        half = backward_induction(sc.game, grid, 3, y_lat, z_lat, which=which,
                                  warn_costs=False)
        assert np.abs(half.data - full.data).max() <= 1e-12
        assert np.array_equal(half.trusted, full.trusted)
        # the value is not invariant under the reflection it lacks
        assert np.abs(half.data[0] - half.data[0, ::-1, :, ::-1]).max() > 1e-3

    @pytest.mark.parametrize("threads", [0, 2])
    def test_several_blocks(self, monkeypatch, threads):
        # 33x33x17 solved nodes: more than one threaded block of 16384
        spec = dataclasses.replace(coupling_spec(r_y=1.0), reflections=("x1", "x2"))
        grid = Grid3(SMALL_BOX, np.zeros((65, 65, 17)))
        Y = Z = make_lattice(1.0, 1, 8)
        assert len(_node_blocks(33 * 33 * 17, 2, 33 * 17)) == 2
        monkeypatch.setattr(game, "_BLOCK_NODES", 5000)
        assert len(_node_blocks(33 * 33 * 17, 0, 33 * 17)) == 4
        full = full_path(spec, grid, Y, Z, n_steps=2)
        quad = backward_induction(spec, grid, 2, Y, Z, threads=threads, warn_costs=False)
        assert np.abs(quad.data - full.data).max() <= 1e-12
        assert np.array_equal(quad.trusted, full.trusted)

    @pytest.mark.parametrize("wrong", ["running", "terminal"])
    def test_wrong_declaration_refused_before_backup(self, monkeypatch, wrong):
        # y1 and x1 both change sign under the x1 reflection
        cost = (lambda t, x, y, z: float(y[0])) if wrong == "running" else \
            (lambda t, x, y, z: 0.0)
        terminal = (lambda x: x[..., 0]) if wrong == "terminal" else const_field(0.0)
        spec = dataclasses.replace(simple_spec(cost, terminal, c2=4.0), reflections=("x1",))
        backups = []
        monkeypatch.setattr(game, "_backup", lambda *a: backups.append(1))
        with pytest.raises(ValueError, match="reflection 'x1' does not hold"):
            backward_induction(spec, Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS)), 2,
                               make_lattice(1.0, 1, 8), make_lattice(1.0, 1, 8))
        assert backups == []

    def test_unknown_reflection_rejected(self):
        with pytest.raises(ValueError, match="unknown reflections"):
            dataclasses.replace(coupling_spec(), reflections=("x3",))

    def test_canonical_game_solves_the_quadrant(self, canonical, baseline_lattices):
        _, spec = canonical
        grid = Grid3(DEFAULT_BOX, np.zeros((33, 33, 65)))
        assert fundamental_domain(spec, grid, *baseline_lattices) \
            == Domain(("x1", "x2"), (16, 16), 18_785)

    def test_odd_base_angles_fall_back(self):
        # the 5 points of the first ring are not symmetric about the x2 axis
        sc = hji_scenario({"name": "norm"}, base_angles=5)
        grid = Grid3(sc.box, np.zeros(sc.counts))
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, grid, y_lat, z_lat) \
            == Domain(("x2",), (0, 8), 17 * 9 * 33)
        spec = dataclasses.replace(sc.game, reflections=("x1",))
        assert fundamental_domain(spec, grid, y_lat, z_lat) == Domain((), (0, 0), 17 * 17 * 33)
        got = backward_induction(spec, grid, 3, y_lat, z_lat, warn_costs=False)
        full = full_path(spec, grid, y_lat, z_lat)
        assert np.array_equal(got.data, full.data)
        assert np.array_equal(got.trusted, full.trusted)

    def test_inexact_axes_fall_back(self):
        # linspace(-4, 4, 16) is not exactly antisymmetric
        sc = hji_scenario({"name": "norm"}, counts=(16, 16, 33))
        grid = Grid3(sc.box, np.zeros(sc.counts))
        assert not np.array_equal(grid.axes()[0], -grid.axes()[0][::-1])
        y_lat, z_lat = sc.make_lattices()
        assert sc.game.reflections == ("x1", "x2")
        assert fundamental_domain(sc.game, grid, y_lat, z_lat) == Domain((), (0, 0), 16 * 16 * 33)
        got = backward_induction(sc.game, grid, 3, y_lat, z_lat, warn_costs=False)
        full = full_path(sc.game, grid, y_lat, z_lat)
        assert np.array_equal(got.data, full.data)
        assert np.array_equal(got.trusted, full.trusted)

    def test_custom_affine_declares_nothing(self):
        sc = parse_scenario({
            "schema": 1, "kind": "game", "horizon": 0.25,
            "radii": {"r_y": 2.0, "r_z": 1.0},
            "running_cost": {"name": "custom-affine", "params": AFFINE_PARAMS},
            "terminal": {"name": "gauge"},
            "grid": {"box": [[-4, 4], [-4, 4], [-8, 8]], "counts": list(SMALL_COUNTS)},
            "time_steps": 2, "lattice": {"rings": 2, "base_angles": 8},
        })
        assert sc.game.reflections == ()
        grid = Grid3(sc.box, np.zeros(sc.counts))
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, grid, y_lat, z_lat) == Domain((), (0, 0), 9 * 9 * 17)
        got = backward_induction(sc.game, grid, 2, y_lat, z_lat, warn_costs=False)
        full = full_path(sc.game, grid, y_lat, z_lat, n_steps=2)
        assert np.array_equal(got.data, full.data)
        assert np.array_equal(got.trusted, full.trusted)


class TestBruteForceOracle:
    Y = make_lattice(1.0, 1, 8)
    Z = make_lattice(1.0, 1, 8)

    def test_frozen_matches_exactly(self):
        def cost(t, x, y, z):
            y = np.asarray(y, dtype=float)
            return float(np.asarray(z, dtype=float) @ y) - np.linalg.norm(y)

        spec = simple_spec(cost, gauge, r_y=1.0, r_z=0.0, c1=2.0, c2=20.0, c2p=1.0)
        z0 = make_lattice(0.0)
        grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
        v = backward_induction(spec, grid, 3, self.Y, z0)
        nodes = grid.node_coordinates()
        rng = np.random.default_rng(8)
        for idx in rng.integers(0, len(nodes), 20):
            bf = brute_force_value(spec, nodes[idx], 3, self.Y, z0)
            assert abs(bf - v.data[0].reshape(-1)[idx]) <= 1e-12

    def test_single_step_closed_form(self):
        spec = coupling_spec(r_y=1.0)
        xi = np.array([0.5, -0.25, 1.0])
        h = spec.horizon
        best = -np.inf
        for y in self.Y.points:
            inner = np.inf
            for z in self.Z.points:
                val = h * spec.running_cost(0.0, xi, y, z) \
                    + float(gauge(exact_step(xi, -z, h)))
                inner = min(inner, val)
            best = max(best, inner)
        assert brute_force_value(spec, xi, 1, self.Y, self.Z) == pytest.approx(best, abs=1e-12)

    def test_trivial_game(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, const_field(4.0), c1=1e-9, c2=4.0)
        assert brute_force_value(spec, np.zeros(3), 2, self.Y, self.Z) \
            == pytest.approx(4.0, abs=1e-14)

    def test_size_guards(self):
        spec = coupling_spec(r_y=1.0)
        with pytest.raises(ValueError, match="size guard"):
            brute_force_value(spec, np.zeros(3), 4, self.Y, self.Z)
        big = make_lattice(1.0, 2, 8)
        with pytest.raises(ValueError, match="size guard"):
            brute_force_value(spec, np.zeros(3), 2, big, self.Z)


class TestDppResidual:
    def solve_small(self, spec, n_steps=4):
        grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
        Y, Z = make_lattice(spec.r_y, 1, 8), make_lattice(spec.r_z, 1, 8)
        return backward_induction(spec, grid, n_steps, Y, Z), Y, Z

    def test_single_step_residual_zero(self):
        spec = coupling_spec(r_y=1.0)
        v, Y, Z = self.solve_small(spec)
        rep = dpp_residual(v, spec, Y, Z, probes=32, sigma_steps=1,
                           rng=np.random.default_rng(9))
        assert rep.max_residual <= 1e-12

    def test_state_independent_value_two_steps(self):
        spec = simple_spec(lambda t, x, y, z: 1.0, const_field(0.0), c1=1.0, c2=1e-9)
        v, Y, Z = self.solve_small(spec)
        rep = dpp_residual(v, spec, Y, Z, probes=32, sigma_steps=2,
                           rng=np.random.default_rng(10))
        assert rep.max_residual <= 1e-12

    def test_rejects_fewer_than_one_probe(self):
        spec = coupling_spec(r_y=1.0)
        v, Y, Z = self.solve_small(spec)
        for probes in (0, -3):
            with pytest.raises(ValueError, match="probes must be >= 1"):
                dpp_residual(v, spec, Y, Z, probes=probes, sigma_steps=1)

    def test_rejects_lattice_of_wrong_radius(self):
        spec = coupling_spec(r_y=1.0)
        v, Y, Z = self.solve_small(spec)
        with pytest.raises(ValueError, match="z lattice radius"):
            dpp_residual(v, spec, Y, make_lattice(0.5, 1, 8), probes=4, sigma_steps=1)


def one_point_lattice(radius):
    return ControlLattice(radius, np.zeros((1, 2)), radius)


Z_LATTICES = {1: one_point_lattice(1.0), 9: make_lattice(1.0, 1, 8),
              81: make_lattice(1.0, 4, 8)}
# (steps, z lattice size): 81 points only up to 2 steps
EXPANSIONS = [(1, 1), (2, 1), (3, 1), (1, 9), (2, 9), (3, 9), (1, 81), (2, 81)]


class TestBreadthFirstOracle:
    """The breadth-first grid-free expansion against the depth-first one."""

    Y = make_lattice(1.0, 1, 8)

    @staticmethod
    def spec(branch):
        spec = coupling_spec(r_y=1.0)
        return spec if branch == "coupling" else dataclasses.replace(spec, coupling_base=None)

    @pytest.fixture(scope="class")
    def stack(self):
        grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
        return backward_induction(coupling_spec(r_y=1.0), grid, 3, self.Y, Z_LATTICES[9],
                                  warn_costs=False)

    @pytest.mark.parametrize("branch", ["coupling", "general"])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("steps,mz", [e for e in EXPANSIONS if e[1] <= 9])
    def test_brute_force_bit_identical(self, branch, which, steps, mz):
        spec = self.spec(branch)
        Z = Z_LATTICES[mz]
        leaf = lambda q: eval_field(spec.terminal_cost, q)
        for xi in ([0.5, -0.25, 1.0], [-1.5, 2.0, -3.0], [0.0, 0.0, 0.0]):
            ref = depth_first_value(spec, np.reshape(xi, (1, 3)), 0.0, steps,
                                    spec.horizon / steps, self.Y, Z, which, leaf)
            assert brute_force_value(spec, xi, steps, self.Y, Z, which) == ref[0]

    @pytest.mark.parametrize("branch", ["coupling", "general"])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("steps,mz", EXPANSIONS)
    def test_dpp_residual_bit_identical(self, stack, monkeypatch, branch, which, steps, mz):
        spec = self.spec(branch)
        real, pairs = game._alternating_value, []

        def checked(*args):
            out = real(*args)
            pairs.append((out, depth_first_value(*args)))
            return out

        monkeypatch.setattr(game, "_alternating_value", checked)
        rep = dpp_residual(stack, spec, self.Y, Z_LATTICES[mz], probes=12,
                           sigma_steps=steps, rng=np.random.default_rng(13), which=which)
        assert rep.n_evaluated == 12
        assert len(pairs) >= steps
        for out, ref in pairs:
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("steps", [2, 3])
    def test_chunks_are_invisible(self, monkeypatch, which, steps):
        spec = coupling_spec(r_y=1.0)
        Z = Z_LATTICES[9]
        pts = np.column_stack([ball_points(np.random.default_rng(14), 2.0, (40,)),
                               np.linspace(-3.0, 3.0, 40)])
        leaf = lambda q: eval_field(spec.terminal_cost, q)
        args = (spec, pts, 0.0, steps, spec.horizon / steps, self.Y, Z, which, leaf)
        whole = _alternating_value(*args)
        real, backups = game._backup, []
        monkeypatch.setattr(game, "_backup", lambda *a: backups.append(len(a[3])) or real(*a))
        monkeypatch.setattr(game, "_BLOCK_NODES", 50)
        chunked = _alternating_value(*args)
        # the 40 points never run whole, and no backup passes 50 points
        assert len(pts) not in backups and max(backups) <= 50
        assert np.array_equal(chunked, whole)

    def test_one_leaf_call_per_z(self, monkeypatch):
        spec = coupling_spec(r_y=1.0)
        grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
        v = backward_induction(spec, grid, 2, self.Y, Z_LATTICES[9], warn_costs=False)
        interp, backup, calls, backups = game.interp_values, game._backup, [], []
        monkeypatch.setattr(game, "interp_values",
                            lambda *a: calls.append(len(a[2])) or interp(*a))
        monkeypatch.setattr(game, "_backup", lambda *a: backups.append(1) or backup(*a))
        rep = dpp_residual(v, spec, self.Y, Z_LATTICES[9], probes=16, sigma_steps=2)
        # two slices, so every probe starts at the first: one probe group
        assert rep.n_evaluated == 16
        assert calls == [16 * 9] * 9
        assert len(backups) == 2


class TestLipschitzAudit:
    def test_constant_data_all_ratios_zero(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, const_field(1.0), c1=1e-9, c2=1.0)
        grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
        Y, Z = make_lattice(1.0, 1, 8), make_lattice(1.0, 1, 8)
        v = backward_induction(spec, grid, 3, Y, Z)
        reports = lipschitz_audit(v, spec.constants, rng=np.random.default_rng(11))
        for rep in reports:
            assert rep.worst_ratio == 0.0
            assert rep.passed

    def test_underdeclared_c2p_fails(self, canonical, baseline_lattices):
        _, spec = canonical
        grid = Grid3(DEFAULT_BOX, np.zeros((17, 17, 33)))
        Y = make_lattice(spec.r_y, 2, 8)
        Z = make_lattice(spec.r_z, 2, 8)
        v = backward_induction(spec, grid, 10, Y, Z, warn_costs=False)
        honest = lipschitz_audit(v, spec.constants, rng=np.random.default_rng(12))
        assert all(r.passed for r in honest)
        lying = LipschitzConstants(spec.horizon, spec.r_z, spec.c1, spec.c1p, 0.1)
        reports = lipschitz_audit(v, lying, rng=np.random.default_rng(12))
        spatial = [r for r in reports if "c_sharp" in r.quantity][0]
        assert not spatial.passed
        assert spatial.witness is not None


@pytest.mark.parametrize("threads", [0, 2])
def test_solve_bytes_counts_the_stacks_and_w(threads):
    spec = coupling_spec()
    Y, Z = make_lattice(spec.r_y, 1, 8), make_lattice(spec.r_z, 2, 8)
    grid = Grid3(SMALL_BOX, np.zeros(SMALL_COUNTS))
    v = backward_induction(spec, grid, 2, Y, Z, warn_costs=False)
    nodes = grid.node_coordinates()
    terminal = eval_field(spec.terminal_cost, nodes)
    w = len(Z.points) * v.data[0].size * 8  # one block of every node
    held = v.data.nbytes + v.trusted.nbytes + nodes.nbytes + terminal.nbytes + w
    assert game.solve_bytes(SMALL_COUNTS, 2, len(Z.points), threads) == held
    u = v.reversed_time()
    assert game.solve_bytes(SMALL_COUNTS, 2, len(Z.points), threads, reversed_copy=True) \
        == held + u.data.nbytes + u.trusted.nbytes
