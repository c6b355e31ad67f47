import dataclasses
import warnings

import numpy as np
import pytest

from _util import (
    DEFAULT_BOX,
    SCENARIOS,
    canonical_problem,
    depth_first_value,
    lipschitz_audit_reference,
    sampled_covering_radius,
    value_grid_from_function,
    voronoi_covering_radius,
)

import heisgame.game as game
from heisgame.catalog import make_running_cost
from heisgame.heis import Box, ball_points, eval_field, gauge
from heisgame.flow import exact_step
from heisgame.grids import Grid3, grid_axes, grid_nodes, sample_field
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
        return float(np.asarray(z, dtype=float) @ y) - np.linalg.norm(y, axis=-1)

    base = lambda t, x, y: -np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
    c2 = float(gauge(SMALL_BOX.corners()).max())
    return GameSpec(horizon, r_y, r_z, cost, gauge, c1=r_y * r_z + r_y,
                    c1p=0.0, c2=c2, c2p=1.0, coupling_base=base)


def simple_spec(cost, terminal, r_y=1.0, r_z=1.0, c1=1.0, c2=1.0,
                c1p=0.0, c2p=0.0, horizon=1.0, coupling_base=None):
    return GameSpec(horizon, r_y, r_z, cost, terminal, c1=c1, c1p=c1p,
                    c2=c2, c2p=c2p, coupling_base=coupling_base)


def catalog_spec(name, params):
    """The catalog running cost ``name``, separable fields included, with
    the gauge terminal cost and radii 2 and 1."""
    cost = make_running_cost(name, params)
    return dataclasses.replace(
        simple_spec(cost.fn, gauge, r_y=2.0, r_z=1.0, c1=2.0, c2=20.0),
        coupling_base=cost.coupling_base, coupling_pair=cost.coupling_pair)


def const_field(c):
    return lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], c)


def entries_opt_opt(W, offs, bases):
    """Both opt-opts of the entries ``(W_z + offs_zy) + bases_y``, reduced
    row by row in lattice order, as ``game._max_min`` reduces them."""
    mz, my = offs.shape
    entries = [[W[zi] + offs[zi, yi] + bases[yi] for yi in range(my)] for zi in range(mz)]
    ref = {"lower": np.full(W.shape[1], -np.inf), "upper": np.full(W.shape[1], np.inf)}
    for yi in range(my):
        acc = entries[0][yi]
        for zi in range(1, mz):
            acc = np.minimum(acc, entries[zi][yi])
        ref["lower"] = np.maximum(ref["lower"], acc)
    for zi in range(mz):
        acc = entries[zi][0]
        for yi in range(1, my):
            acc = np.maximum(acc, entries[zi][yi])
        ref["upper"] = np.minimum(ref["upper"], acc)
    return ref


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

    @pytest.mark.parametrize("radius, rings, base_angles", [
        (2.0, rings, base_angles) for rings in (1, 2, 4, 16) for base_angles in (4, 8, 16)
    ] + [(4.5326, 4, 8), (4.5326, 1, 8), (1.0, 4, 8), (0.5, 3, 5)])
    def test_covering_radius_exact(self, radius, rings, base_angles):
        lat = make_lattice(radius, rings, base_angles)
        exact = voronoi_covering_radius(lat.points, radius)
        assert abs(lat.covering_radius - exact) <= 1e-12
        # the old polar sample is a lower estimate, the ring bound an upper one
        assert sampled_covering_radius(lat.points, radius) <= lat.covering_radius
        assert lat.covering_radius < game._ring_bound(radius, rings, base_angles) \
            <= 1.25 * lat.covering_radius

    def test_covering_radius_random_and_zero_radius(self):
        pts = ball_points(np.random.default_rng(21), 1.5, (200,))
        exact = voronoi_covering_radius(pts, 1.5)
        assert abs(game._covering_radius(pts, 1.5, 1.25 * exact) - exact) <= 1e-12
        # 2*radius bounds the covering radius of any point set, at the cost
        # of forming every pair and triple
        few = pts[:40]
        assert abs(game._covering_radius(few, 1.5, 3.0) - voronoi_covering_radius(few, 1.5)) \
            <= 1e-12
        assert game._covering_radius(np.zeros((1, 2)), 0.0, 0.0) == 0.0
        assert game._covering_radius(np.zeros((1, 2)), 1.0, 2.0) == 1.0

    def test_covering_radius_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            make_lattice(2.0, 16, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("radius, rings, base_angles", [
        (0.0, 4, 8), (0.5, 3, 5), (1.0, 1, 4), (2.0, 16, 8), (2.0, 7, 16)])
    def test_lattice_points_counts_the_lattice(self, radius, rings, base_angles):
        assert game.lattice_points(radius, rings, base_angles) \
            == len(make_lattice(radius, rings, base_angles).points)

    @pytest.mark.parametrize("rings", [1, 4, 12])
    @pytest.mark.parametrize("base_angles", [4, 16, 32])
    def test_lattice_bytes_bounds_the_build(self, rings, base_angles):
        import tracemalloc

        tracemalloc.start()
        try:
            make_lattice(2.0, rings, base_angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an upper bound, and within 3x of the peak, so the guard stays useful
        assert peak <= game.lattice_bytes(2.0, rings, base_angles) <= 3 * peak

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


    @pytest.mark.parametrize("source", ["coupling_spec", "build_game", "custom-affine",
                                        "coupling"])
    def test_separable_path_matches_general_row(self, source):
        if source in ("custom-affine", "coupling"):
            spec = catalog_spec(source, AFFINE_PARAMS if source == "custom-affine" else {})
        else:
            spec = coupling_spec() if source == "coupling_spec" else canonical_problem()[1]
        Y, Z = make_lattice(spec.r_y), make_lattice(spec.r_z)
        # every row: the running cost rounds F as base + k with the table's k
        x = SMALL_BOX.sample(4, np.random.default_rng(7))
        pair = game._pair_table(spec, Y.points, Z.points)
        for yi, y in enumerate(Y.points):
            base = spec.coupling_base(0.5, x, y)
            for zi, z in enumerate(Z.points):
                assert np.array_equal(spec.running_cost(0.5, x, y, z), base + pair[zi, yi])
        general = dataclasses.replace(spec, coupling_base=None)
        rng = np.random.default_rng(7)
        n = 1000
        probes = (rng.random(n) * spec.horizon, SMALL_BOX.sample(n, rng),
                  ball_points(rng, spec.r_y, n))
        # the separable rows round as the solver's, (-lam.z + k) + base
        for hamiltonian in (lower_hamiltonian, upper_hamiltonian):
            assert np.abs(hamiltonian(spec, *probes, Y, Z)
                          - hamiltonian(general, *probes, Y, Z)).max() <= 1e-12
        fast, slow = isaacs_gap(spec, probes, Y, Z), isaacs_gap(general, probes, Y, Z)
        assert np.abs(fast.gaps - slow.gaps).max() <= 1e-12
        assert abs(fast.max_gap - slow.max_gap) <= 1e-12

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

    @pytest.mark.parametrize("source", ["coupling_spec", "build_game", "custom-affine",
                                        "constant"])
    def test_upper_minus_lower_exact(self, source):
        # both values reduce one matrix of entries, so the order holds
        # without rounding slack; a y-free table takes one path for both
        if source in ("custom-affine", "constant"):
            spec = catalog_spec(source, AFFINE_PARAMS if source == "custom-affine"
                                else {"value": 0.75})
        else:
            spec = coupling_spec() if source == "coupling_spec" else canonical_problem()[1]
        Y, Z = make_lattice(spec.r_y), make_lattice(spec.r_z)
        rng = np.random.default_rng(8)
        n = 500
        probes = (rng.random(n) * spec.horizon, SMALL_BOX.sample(n, rng),
                  ball_points(rng, spec.r_y, n))
        gaps = upper_hamiltonian(spec, *probes, Y, Z) - lower_hamiltonian(spec, *probes, Y, Z)
        if source in ("custom-affine", "constant"):
            assert (gaps == 0.0).all()
        else:
            assert (gaps >= 0.0).all() and (gaps > 0.0).any()


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

    def test_zero_cost_constant_terminal(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, const_field(2.5), c1=1e-9, c2=2.5)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 4, self.Y, self.Z)
        assert np.abs(v.data - 2.5).max() <= 1e-13

    def test_unit_cost_accumulates_time_to_go(self):
        spec = simple_spec(lambda t, x, y, z: 1.0, const_field(0.0), c1=1.0, c2=1e-9)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 5, self.Y, self.Z)
        for k, t in enumerate(v.times):
            assert np.abs(v.data[k] - (1.0 - t)).max() <= 1e-12

    def test_frozen_dynamics_keeps_terminal(self):
        def cost(t, x, y, z):
            return -np.linalg.norm(np.asarray(y, dtype=float))

        spec = simple_spec(cost, gauge, r_y=1.0, r_z=0.0, c1=1.0, c2=20.0, c2p=1.0)
        z0 = make_lattice(0.0)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 4, self.Y, z0)
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
        v1 = backward_induction(spec1, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z)
        v2 = backward_induction(spec2, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z)
        assert (v2.data >= v1.data - 1e-12).all()

    def test_constant_shift_equivariance(self):
        spec = coupling_spec(r_y=1.0)
        shifted = GameSpec(
            spec.horizon, spec.r_y, spec.r_z, spec.running_cost,
            lambda p: gauge(p) + 3.0, c1=spec.c1, c1p=spec.c1p,
            c2=spec.c2 + 3.0, c2p=spec.c2p, coupling_base=spec.coupling_base,
        )
        v1 = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z)
        v2 = backward_induction(shifted, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z)
        assert np.abs(v2.data - v1.data - 3.0).max() <= 1e-12

    def test_threads_do_not_change_values(self):
        spec = coupling_spec(r_y=1.0)
        v1 = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z)
        v2 = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z, threads=3)
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
            spec = catalog_spec(name, AFFINE_PARAMS if name == "custom-affine"
                                else {"value": 0.75})
            box, y_lat, z_lat = SMALL_BOX, make_lattice(2.0, 2, 8), make_lattice(1.0, 1, 8)
        else:
            sc = load_scenario(SCENARIOS / name)
            spec, box, (y_lat, z_lat) = sc.game, sc.box, sc.make_lattices()
        assert spec.coupling_base is not None
        general = dataclasses.replace(spec, coupling_base=None)
        for which in ("lower", "upper"):
            fast, slow = (backward_induction(s, box, (9, 9, 17), 3, y_lat, z_lat, which)
                          for s in (spec, general))
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

    def test_y_free_path_matches_full_upper_rows(self):
        # every column is the same signed-zero column, and W and the bases
        # hold signed zeros, so the entries tie at 0.0 and -0.0
        col = np.array([-0.0, 0.0, -0.0])
        table = np.stack([col] * 4, axis=1)
        bases = np.array([[-0.0, 0.0, -0.0, 0.5], [0.0, -0.0, -0.0, -1.0],
                          [-0.0, -0.0, 0.0, 0.5], [-0.0, -0.0, -0.0, -0.0]])
        ypts = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])
        index = {tuple(y): i for i, y in enumerate(ypts)}
        spec = dataclasses.replace(
            simple_spec(None, gauge), coupling_base=lambda t, x, y: bases[index[tuple(y)]],
            coupling_pair=lambda yp, zp: table)
        Y = ControlLattice(1.0, ypts, 1.0)
        Z = ControlLattice(1.0, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 1.0)
        W = np.array([[0.0, -0.0, -0.0, 1.0], [-0.0, 0.0, -0.0, -2.0], [-0.0, -0.0, 0.0, 3.0]])
        pts = np.zeros((W.shape[1], 3))
        ref = entries_opt_opt(W, table, bases)
        assert np.signbit(ref["upper"][:3]).any() and not np.signbit(ref["upper"][:3]).all()
        for which in ("lower", "upper"):
            got = game._backup(spec, 0.0, 1.0, pts, W, Y, Z, which)
            assert np.array_equal(got.view(np.uint64), ref[which].view(np.uint64))

    # y-free column: W + h*col makes the one min_z -0.0 at nodes 0, 1 (from
    # a 0.0/-0.0 tie) and 6, +0.0 at 2 and 3 and nonzero at 4 and 5; per
    # node, the array bases' max over y ties at 0.0 and -0.0 at 1, 2 and 6, so
    # the sum is -0.0 at nodes 0 and 1 only
    Y_FREE_COL = np.array([-0.0, 0.25, -0.0])
    Y_FREE_W = np.array([[-0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.0],
                         [1.0, -0.125, 3.0, -0.125, 2.0, 3.0, 1.0],
                         [-0.0, -0.0, 1.0, 0.0, 0.5, 0.75, -0.0]])
    Y_FREE_BASES = np.array([[-0.0, 0.0, 0.0, -0.0, 2.0, -0.75, -0.0],
                             [-1.0, -0.0, -0.0, -0.0, 1.0, -2.0, -1.0],
                             [-0.0, -0.0, -3.0, -0.0, 2.0, 0.25, 0.0],
                             [-2.0, -1.0, -1.0, -0.0, 0.0, -0.75, -2.0]])

    def y_free_spec(self, bases):
        ypts = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])[:len(bases)]
        index = {tuple(y): i for i, y in enumerate(ypts)}
        spec = dataclasses.replace(
            simple_spec(None, gauge), coupling_base=lambda t, x, y: bases[index[tuple(y)]],
            coupling_pair=lambda yp, zp: np.stack([self.Y_FREE_COL] * len(yp), axis=1))
        Z = ControlLattice(1.0, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 1.0)
        return spec, ControlLattice(1.0, ypts, 1.0), Z

    @pytest.mark.parametrize("bases", [
        Y_FREE_BASES,
        [np.float64(b) for b in (-0.0, -1.0, -0.0, -2.0)],
        [np.float64(b) for b in (-0.0, -1.0, 0.0)],
        [np.float64(b) for b in (0.0, -0.0, -3.0)],
    ], ids=["array", "scalar", "scalar-tie-pos", "scalar-tie-neg"])
    def test_y_free_adds_max_base_once(self, bases):
        # the y-free path adds max_y h*base(y) to the one min_z once; at any
        # base shape this is bit for bit either opt-opt of the entries
        spec, Y, Z = self.y_free_spec(bases)
        h, W = 0.5, self.Y_FREE_W
        pts = np.zeros((W.shape[1], 3))
        ref = entries_opt_opt(W, h * np.stack([self.Y_FREE_COL] * len(bases), axis=1),
                              [h * np.asarray(b) for b in bases])
        assert np.array_equal(ref["lower"].view(np.uint64), ref["upper"].view(np.uint64))
        assert not ref["lower"][[0, 1, 2, 3, 6]].any() and ref["lower"][5]
        if np.ndim(bases[0]):
            assert list(np.signbit(ref["lower"][[0, 1, 2, 3, 4, 6]])) == [True, True] + [False] * 4
        for which in ("lower", "upper"):
            got = game._backup(spec, 0.0, h, pts, W, Y, Z, which)
            assert got.shape == (len(pts),)
            assert np.array_equal(got.view(np.uint64), ref[which].view(np.uint64))

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_y_free_non_finite_last_base_raises(self, which):
        bases = self.Y_FREE_BASES.copy()
        bases[-1, 2] = np.inf
        spec, Y, Z = self.y_free_spec(bases)
        calls = []
        base = spec.coupling_base
        spec.coupling_base = lambda t, x, y: calls.append(y) or base(t, x, y)
        pts = np.zeros((bases.shape[1], 3))
        with pytest.raises(NonFiniteValueError, match="coupling base"):
            game._backup(spec, 0.0, 0.5, pts, self.Y_FREE_W, Y, Z, which)
        assert len(calls) == len(bases)

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_y_free_holds_few_base_rows(self, which):
        # game-solve's 1089-point y lattice with x-dependent bases: the max
        # over y holds a few rows of n at once, never one row per y
        import tracemalloc

        rng = np.random.default_rng(5)
        n, my = 4096, 1089
        ypts = ball_points(rng, 1.0, my)
        pts = rng.normal(size=(n, 3))
        spec = dataclasses.replace(
            simple_spec(None, gauge), coupling_base=lambda t, x, y: x[:, :2] @ y,
            coupling_pair=lambda yp, zp: np.broadcast_to(zp[:, :1], (len(zp), len(yp))))
        Y = ControlLattice(1.0, ypts, 1.0)
        Z = ControlLattice(1.0, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 1.0)
        W = rng.normal(size=(3, n))
        tracemalloc.start()
        try:
            game._backup(spec, 0.0, 0.5, pts, W, Y, Z, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * 8

    def test_y_free_pair_table_reduces_min_z_once(self, monkeypatch):
        # a y-free table costs mz kernel rows for the one min_z, for either
        # value, and adds the max over y of h*base once, outside the kernel;
        # the z.y table of coupling_spec costs a row per pair.  Both paths
        # call the base once per y
        rows, base_calls = [], []
        kernel, base = game._max_min, coupling_spec().coupling_base

        def counted(n, m_outer, m_inner, *rest):
            rows.append(m_outer * m_inner)
            return kernel(n, m_outer, m_inner, *rest)

        def counted_base(t, x, y):
            base_calls.append(y)
            return base(t, x, y)

        monkeypatch.setattr(game, "_max_min", counted)
        Y, Z = make_lattice(2.0, 2, 8), make_lattice(1.0, 1, 8)
        my, mz = len(Y.points), len(Z.points)
        W = np.random.default_rng(0).normal(size=(mz, 16))
        pts = np.zeros((16, 3))
        y_free = lambda yp, zp: np.broadcast_to(zp[:, :1] - 0.5, (len(zp), len(yp)))
        bases = np.array([base(0.0, pts, y) for y in Y.points])
        for which in ("lower", "upper"):
            for pair, expected in ((y_free, mz), (None, my * mz)):
                spec = dataclasses.replace(coupling_spec(), coupling_pair=pair,
                                           coupling_base=counted_base)
                rows.clear()
                base_calls.clear()
                got = game._backup(spec, 0.0, 0.25, pts, W, Y, Z, which)
                assert sum(rows) == expected
                assert len(base_calls) == my
                table = game._pair_table(spec, Y.points, Z.points)
                entries = (W[:, None] + 0.25 * table[:, :, None]) + 0.25 * bases[None, :, None]
                ref = entries.min(0).max(0) if which == "lower" else entries.max(1).min(0)
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
        backward_induction(spec, sc.box, SMALL_COUNTS, sc.n_steps, y_lat, z_lat)
        # the 9x9x17 nodes form one serial block, so one block per step; the
        # running cost is called only by the bounds' spot check, once per draw
        assert calls["cost"] == 4
        assert calls["base"] <= len(y_lat.points) * sc.n_steps

    def test_upper_at_least_lower(self):
        spec = coupling_spec(r_y=1.0)
        lo = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z, which="lower")
        hi = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, self.Z, which="upper")
        assert (hi.data >= lo.data - 1e-10).all()

    def test_untrusted_near_boundary(self):
        spec = coupling_spec(r_y=1.0)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 4, self.Y, self.Z)
        assert v.trusted[-1].all()
        assert not v.trusted[0, 0, 0, 0]
        mid = tuple((c - 1) // 2 for c in SMALL_COUNTS)
        assert v.trusted[0][mid]

    @pytest.mark.parametrize("threads", [0, 2])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_trusted_mask_matches_stepped_containment(self, which, threads):
        self._check_trusted_mask(which, threads, 1)

    @pytest.mark.parametrize("threads", [0, 2])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_trusted_mask_is_the_same_at_every_step(self, which, threads):
        self._check_trusted_mask(which, threads, 3)

    def _check_trusted_mask(self, which, threads, n_steps):
        spec = coupling_spec(r_y=1.0)
        nodes = grid_nodes(SMALL_BOX, (33, 33, 17))
        # more nodes than one threaded block, so threads=2 runs two blocks
        assert len(_node_blocks(len(nodes), 2, 33 * 17)) == 2
        v = backward_induction(spec, SMALL_BOX, (33, 33, 17), n_steps, self.Y, self.Z,
                               which=which, threads=threads)
        inside = np.ones(len(nodes), dtype=bool)
        for z in self.Z.points:
            inside &= SMALL_BOX.contains(exact_step(nodes, -z, spec.horizon / n_steps))
        assert inside.any() and not inside.all()
        # the same mask at every step: it depends on the step h, not the values
        for k in range(n_steps):
            assert np.array_equal(v.trusted[k].reshape(-1), inside)
        assert v.trusted[n_steps].all()

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_plane_blocks_are_invisible(self, which):
        spec = coupling_spec(r_y=1.0)
        # an uneven split: 29 and 4 planes of 33x17 nodes
        blocks = _node_blocks(33 * 33 * 17, 2, 33 * 17)
        assert [b.stop - b.start for b in blocks] == [29, 4]
        serial, threaded = (backward_induction(spec, SMALL_BOX, (33, 33, 17), 2, self.Y, self.Z,
                                               which=which, threads=t) for t in (0, 2))
        assert np.array_equal(serial.data, threaded.data)
        assert np.array_equal(serial.trusted, threaded.trusted)

    @pytest.mark.parametrize("counts", [(9, 9), (9, 9, 17, 2), (9, 1, 17), (9, 9.0, 17)])
    def test_counts_must_be_three_integers_of_at_least_2(self, counts):
        with pytest.raises(ValueError, match="counts must be three integers >= 2"):
            backward_induction(coupling_spec(r_y=1.0), SMALL_BOX, counts, 2, self.Y, self.Z)

    def test_overflow_names_its_node(self):
        # finite costs whose sum overflows: the step's check names the first
        # node in C order, from coordinates recomputed after the solve freed them
        spec = simple_spec(lambda t, x, y, z: 1.7e308, const_field(1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # both costs exceed c1 and c2
            with pytest.raises(NonFiniteValueError,
                               match=r"non-finite value at t=0, node \[-4\. -4\. -8\.\]"):
                backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 1, self.Y, self.Z)

    def test_spot_check_warns_on_bad_bound(self):
        spec = simple_spec(lambda t, x, y, z: 0.0, gauge, c1=1.0, c2=0.5)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 2, self.Y, self.Z)
        assert any("c2" in str(x.message) for x in w)


class TestBoundAndSkip:
    """``_max_min``'s ``probe``: outer indices that cannot reach the running
    best are skipped, with the same bits as the full loop."""

    @staticmethod
    def kernel(table, lower, probe, term=None, calls=None):
        """``_max_min`` over ``table[a, b]`` of shape ``(m_outer, m_inner, n)``,
        recording each row call in ``calls``."""
        m_outer, m_inner, n = table.shape

        def row(a, b, out):
            if calls is not None:
                calls.append(a)
            out[:] = table[a, b]

        outer_term = None if term is None else (lambda a: term[a])
        with np.errstate(invalid="ignore"):
            return game._max_min(n, m_outer, m_inner, row, lower, outer_term, probe)

    @pytest.mark.parametrize("with_term", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    def test_probe_keeps_the_bits(self, lower, with_term):
        # few distinct values, so ties, signed zeros and infinities abound
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
        rng = np.random.default_rng(0)
        skipped = 0
        for _ in range(300):
            table = rng.choice(values, size=(6, 5, 3))
            term = rng.choice(values, size=(6, 3)) if with_term else None
            probe = tuple(int(b) for b in rng.choice(5, rng.integers(1, 4), replace=False))
            calls = []
            got = self.kernel(table, lower, probe, term, calls)
            ref = self.kernel(table, lower, (), term)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            skipped += sum(np.bincount(calls) < table.shape[1])
        assert skipped >= 30

    @pytest.mark.parametrize("probed", [True, False])
    @pytest.mark.parametrize("lower", [True, False])
    def test_nan_reaches_the_result(self, lower, probed):
        # outer 0 beats outers 1 and 2 at both nodes, so the probe (inner 0
        # and 1) skips them; a NaN in outer 1's probe rows stops that skip
        # (and every later one: no bound beats a NaN best), and outer 2,
        # made to win node 0, runs its full rows, NaN included
        sign = 1.0 if lower else -1.0
        table = np.full((3, 4, 2), 1.0)
        table[0] = 5.0
        if probed:
            table[1, 1, 1] = np.nan
        else:
            table[2, :, 0] = 7.0
            table[2, 3, 1] = np.nan
        table *= sign
        calls = []
        got = self.kernel(table, lower, (0, 1), calls=calls)
        ref = self.kernel(table, lower, ())
        assert np.isnan(got[1]) and got[0] == sign * (5.0 if probed else 7.0)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.bincount(calls).tolist() == ([4, 6, 6] if probed else [4, 2, 6])

    def test_canonical_solve_skips_most_outer_y(self, monkeypatch, canonical,
                                                 baseline_lattices):
        # the re-anchor measured y = 0 optimal at every node: 80 of 81 skipped
        _, spec = canonical
        y_lat, z_lat = baseline_lattices
        assert 0 not in game._ring_probe(z_lat.points)
        kernel, outer = game._max_min, {"nominal": 0, "computed": 0}

        def counted(n, m_outer, m_inner, row, *rest, **kw):
            full = set()

            def wrapped(a, b, out):
                if b == 0:  # a full row starts at 0, which the probe never holds
                    full.add(a)
                return row(a, b, out)

            best = kernel(n, m_outer, m_inner, wrapped, *rest, **kw)
            outer["nominal"] += m_outer
            outer["computed"] += len(full)
            return best

        monkeypatch.setattr(game, "_max_min", counted)
        got = backward_induction(spec, DEFAULT_BOX, (9, 9, 17), 5, y_lat, z_lat)
        assert outer["nominal"] == 5 * len(y_lat.points)
        assert outer["computed"] <= 0.1 * outer["nominal"]
        monkeypatch.setattr(game, "_ring_probe", lambda points: ())
        ref = backward_induction(spec, DEFAULT_BOX, (9, 9, 17), 5, y_lat, z_lat)
        assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))

    def test_nan_in_skipped_pair_entry_raises(self, canonical, baseline_lattices):
        # z index 1 is outside the probe and y index 40 is a skipped y; the
        # table is checked when formed, before any row is read
        _, spec = canonical
        y_lat, z_lat = baseline_lattices
        assert 1 not in game._ring_probe(z_lat.points)

        def pair(ypts, zpts):
            table = zpts @ ypts.T
            table[1, 40] = np.nan
            return table

        bad = dataclasses.replace(spec, coupling_pair=pair)
        with pytest.raises(NonFiniteValueError, match="coupling pair non-finite"):
            backward_induction(bad, DEFAULT_BOX, (9, 9, 17), 2, y_lat, z_lat)

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("where", ["running cost", "coupling pair"])
    def test_infinite_cost_hidden_by_the_min_raises(self, where, which):
        # +inf at one (y, z) pair: the min over z passes it over, so the
        # values stay finite, yet the step evaluated a non-finite cost
        spec = coupling_spec(r_y=1.0)
        Y = Z = make_lattice(1.0, 1, 8)

        def pair(ypts, zpts):
            table = zpts @ ypts.T
            table[4, 1] = np.inf
            return table

        def cost(t, x, y, z):
            return np.inf if (y == Y.points[1]).all() and (z == Z.points[4]).all() \
                else spec.running_cost(t, x, y, z)

        bad = dataclasses.replace(spec, running_cost=cost, coupling_base=None) \
            if where == "running cost" else dataclasses.replace(spec, coupling_pair=pair)
        with pytest.raises(NonFiniteValueError, match=f"{where} non-finite"):
            backward_induction(bad, SMALL_BOX, SMALL_COUNTS, 2, Y, Z, which=which)


# grids whose axes linspace makes exactly antisymmetric: 2**k + 1 nodes on
# [-4, 4] and [-8, 8], and 16 or 32 nodes at a spacing of 0.5
SYMMETRIC_GRIDS = {
    "17x16x33": (Box([-4, -3.75, -8], [4, 3.75, 8]), (17, 16, 33)),
    "16x17x32": (Box([-3.75, -4, -7.75], [3.75, 4, 7.75]), (16, 17, 32)),
}


def full_path(spec, box, counts, y_lat, z_lat, which="lower", n_steps=3):
    return backward_induction(dataclasses.replace(spec, reflections=()), box, counts, n_steps,
                              y_lat, z_lat, which=which)


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
        box, counts = SYMMETRIC_GRIDS[grid_name]
        y_lat, z_lat = sc.make_lattices()
        n1, n2, n3 = counts
        s1, s2 = n1 // 2, n2 // 2
        assert fundamental_domain(sc.game, box, counts, y_lat, z_lat) \
            == Domain(("x1", "x2"), (s1, s2), (n1 - s1) * (n2 - s2) * n3)
        full = full_path(sc.game, box, counts, y_lat, z_lat, which)
        runs = [backward_induction(sc.game, box, counts, 3, y_lat, z_lat, which=which,
                                   threads=t) for t in (0, 2, 0)]
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
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, sc.box, sc.counts, y_lat, z_lat) \
            == Domain(("x2",), (0, 8), 17 * 9 * 33)
        full = full_path(sc.game, sc.box, sc.counts, y_lat, z_lat, which)
        half = backward_induction(sc.game, sc.box, sc.counts, 3, y_lat, z_lat, which=which)
        assert np.abs(half.data - full.data).max() <= 1e-12
        assert np.array_equal(half.trusted, full.trusted)
        # the value is not invariant under the reflection it lacks
        assert np.abs(half.data[0] - half.data[0, ::-1, :, ::-1]).max() > 1e-3

    @pytest.mark.parametrize("threads", [0, 2])
    def test_several_blocks(self, monkeypatch, threads):
        # 33x33x17 solved nodes: more than one threaded block of 16384
        spec = dataclasses.replace(coupling_spec(r_y=1.0), reflections=("x1", "x2"))
        Y = Z = make_lattice(1.0, 1, 8)
        assert len(_node_blocks(33 * 33 * 17, 2, 33 * 17)) == 2
        monkeypatch.setattr(game, "_BLOCK_NODES", 5000)
        assert len(_node_blocks(33 * 33 * 17, 0, 33 * 17)) == 4
        full = full_path(spec, SMALL_BOX, (65, 65, 17), Y, Z, n_steps=2)
        quad = backward_induction(spec, SMALL_BOX, (65, 65, 17), 2, Y, Z, threads=threads)
        assert np.abs(quad.data - full.data).max() <= 1e-12
        assert np.array_equal(quad.trusted, full.trusted)

    def test_declarations_sampled_once(self):
        # the separable steps call only the base: the running cost is called
        # at the 4 draws, then at their mirror images under each reflection
        spec = dataclasses.replace(coupling_spec(r_y=1.0), reflections=("x1", "x2"))
        cost, calls = spec.running_cost, []
        spec = dataclasses.replace(spec, running_cost=lambda *a: calls.append(1) or cost(*a))
        Y = Z = make_lattice(1.0, 1, 8)
        backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 2, Y, Z)
        assert len(calls) == 4 + 2 * 4

    def test_declaration_sample_is_fixed_and_admissible(self):
        # the same 128 box points and 4 (t, y, z) draws on every call, with
        # t in [0, horizon) and y, z in their closed balls
        box = Box([-1, -2, -3], [1, 2, 3])
        seen, calls = [], []
        terminal = lambda x: seen.append(np.array(x)) or gauge(x)
        cost = lambda t, x, y, z: calls.append((t, np.array(x), y, z)) or 0.0
        spec = simple_spec(cost, terminal, r_y=2.0, r_z=0.5, c2=10.0, horizon=0.25)
        for _ in range(2):
            assert spec.check_declarations(box) == []
        (first, second), n = seen, 128
        assert first.shape == (n, 3) and np.array_equal(first, second)
        assert box.contains(first).all()
        assert len(calls) == 2 * 4
        for (t, x, y, z), again in zip(calls[:4], calls[4:]):
            assert np.array_equal(x, first)
            assert (t, y.tolist(), z.tolist()) == (again[0], again[2].tolist(), again[3].tolist())
            assert 0.0 <= t < 0.25
            assert np.hypot(*y) <= 2.0 and np.hypot(*z) <= 0.5
        assert len({t for t, *_ in calls}) == 4
        # the golden-ratio times reach both ends of the horizon
        assert min(t for t, *_ in calls) < 0.25 * 0.25 and max(t for t, *_ in calls) > 0.75 * 0.25

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
            backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 2,
                               make_lattice(1.0, 1, 8), make_lattice(1.0, 1, 8))
        assert backups == []

    def test_unknown_reflection_rejected(self):
        with pytest.raises(ValueError, match="unknown reflections"):
            dataclasses.replace(coupling_spec(), reflections=("x3",))

    def test_canonical_game_solves_the_quadrant(self, canonical, baseline_lattices):
        _, spec = canonical
        assert fundamental_domain(spec, DEFAULT_BOX, (33, 33, 65), *baseline_lattices) \
            == Domain(("x1", "x2"), (16, 16), 18_785)

    def test_odd_base_angles_fall_back(self):
        # the 5 points of the first ring are not symmetric about the x2 axis
        sc = hji_scenario({"name": "norm"}, base_angles=5)
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, sc.box, sc.counts, y_lat, z_lat) \
            == Domain(("x2",), (0, 8), 17 * 9 * 33)
        spec = dataclasses.replace(sc.game, reflections=("x1",))
        assert fundamental_domain(spec, sc.box, sc.counts, y_lat, z_lat) \
            == Domain((), (0, 0), 17 * 17 * 33)
        got = backward_induction(spec, sc.box, sc.counts, 3, y_lat, z_lat)
        full = full_path(spec, sc.box, sc.counts, y_lat, z_lat)
        assert np.array_equal(got.data, full.data)
        assert np.array_equal(got.trusted, full.trusted)

    def test_inexact_axes_fall_back(self):
        # linspace(-4, 4, 16) is not exactly antisymmetric
        sc = hji_scenario({"name": "norm"}, counts=(16, 16, 33))
        x1 = grid_axes(sc.box, sc.counts)[0]
        assert not np.array_equal(x1, -x1[::-1])
        y_lat, z_lat = sc.make_lattices()
        assert sc.game.reflections == ("x1", "x2")
        assert fundamental_domain(sc.game, sc.box, sc.counts, y_lat, z_lat) \
            == Domain((), (0, 0), 16 * 16 * 33)
        got = backward_induction(sc.game, sc.box, sc.counts, 3, y_lat, z_lat)
        full = full_path(sc.game, sc.box, sc.counts, y_lat, z_lat)
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
        y_lat, z_lat = sc.make_lattices()
        assert fundamental_domain(sc.game, sc.box, sc.counts, y_lat, z_lat) \
            == Domain((), (0, 0), 9 * 9 * 17)
        got = backward_induction(sc.game, sc.box, sc.counts, 2, y_lat, z_lat)
        full = full_path(sc.game, sc.box, sc.counts, y_lat, z_lat, n_steps=2)
        assert np.array_equal(got.data, full.data)
        assert np.array_equal(got.trusted, full.trusted)


class TestBruteForceOracle:
    Y = make_lattice(1.0, 1, 8)
    Z = make_lattice(1.0, 1, 8)

    def test_frozen_matches_exactly(self):
        def cost(t, x, y, z):
            y = np.asarray(y, dtype=float)
            return float(np.asarray(z, dtype=float) @ y) - np.linalg.norm(y, axis=-1)

        spec = simple_spec(cost, gauge, r_y=1.0, r_z=0.0, c1=2.0, c2=20.0, c2p=1.0)
        z0 = make_lattice(0.0)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, self.Y, z0)
        nodes = grid_nodes(SMALL_BOX, SMALL_COUNTS)
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
        Y, Z = make_lattice(spec.r_y, 1, 8), make_lattice(spec.r_z, 1, 8)
        return backward_induction(spec, SMALL_BOX, SMALL_COUNTS, n_steps, Y, Z), Y, Z

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
        return backward_induction(coupling_spec(r_y=1.0), SMALL_BOX, SMALL_COUNTS, 3, self.Y,
                                  Z_LATTICES[9])

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
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_brute_force_batch_matches_points(self, branch, which, steps):
        spec = self.spec(branch)
        Z = Z_LATTICES[9]
        pts = np.column_stack([ball_points(np.random.default_rng(16), 2.0, (12,)),
                               np.linspace(-3.0, 3.0, 12)]).reshape(3, 4, 3)
        batch = brute_force_value(spec, pts, steps, self.Y, Z, which)
        assert batch.shape == (3, 4)
        single = [brute_force_value(spec, p, steps, self.Y, Z, which) for p in pts.reshape(-1, 3)]
        assert np.array_equal(batch.reshape(-1), single)

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
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 2, self.Y, Z_LATTICES[9])
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
        Y, Z = make_lattice(1.0, 1, 8), make_lattice(1.0, 1, 8)
        v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 3, Y, Z)
        reports = self.assert_matches_reference(v, spec.constants, 11)
        for rep in reports:
            assert rep.worst_ratio == 0.0
            assert rep.passed

    def test_underdeclared_c2p_fails(self, canonical, baseline_lattices):
        _, spec = canonical
        Y = make_lattice(spec.r_y, 2, 8)
        Z = make_lattice(spec.r_z, 2, 8)
        v = backward_induction(spec, DEFAULT_BOX, (17, 17, 33), 10, Y, Z)
        honest = lipschitz_audit(v, spec.constants, rng=np.random.default_rng(12))
        assert all(r.passed for r in honest)
        lying = LipschitzConstants(spec.horizon, spec.r_z, spec.c1, spec.c1p, 0.1)
        reports = lipschitz_audit(v, lying, rng=np.random.default_rng(12))
        spatial = [r for r in reports if "c_sharp" in r.quantity][0]
        assert not spatial.passed
        assert spatial.witness is not None

    @staticmethod
    def assert_matches_reference(v, constants, seed):
        got, ref = (audit(v, constants, rng=np.random.default_rng(seed))
                    for audit in (lipschitz_audit, lipschitz_audit_reference))
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]
        return got

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_four_block_reference(self, canonical, baseline_solution, reverse):
        _, spec = canonical
        v = baseline_solution.value
        self.assert_matches_reference(v.reversed_time() if reverse else v, spec.constants, 109)

    def test_constant_in_space_has_no_spatial_witness(self):
        spec = coupling_spec()
        v = value_grid_from_function(lambda t, p: np.full(len(p), t * t), SMALL_BOX,
                                     SMALL_COUNTS, 1.0, 4)
        spatial, space_time = self.assert_matches_reference(v, spec.constants, 17)
        assert spatial.worst_ratio == 0.0 and spatial.witness is None
        assert space_time.witness is not None

    def test_ties_keep_the_first_pair_found(self):
        # V = x1 on 5x5x5 nodes: x1-adjacent pairs on the x2 = 0 rows, and
        # random pairs on one such row at one time, read exactly 1; the
        # space-time witness stays with a pair of the two-time draw (ka == kb),
        # since a same-time pair replaces it only when strictly larger
        v = value_grid_from_function(lambda t, p: p[:, 0], SMALL_BOX, (5, 5, 5), 1.0, 2)
        spatial, space_time = self.assert_matches_reference(v, coupling_spec().constants, 19)
        assert spatial.worst_ratio == space_time.worst_ratio == 1.0
        assert space_time.to_dict()["witness"] != spatial.to_dict()["witness"]

    def test_region_one_node_thick(self):
        # the certified region holds only the x1 = 0 plane: no x1-adjacent pair
        spec = coupling_spec()
        v = value_grid_from_function(lambda t, p: gauge(p) + t, SMALL_BOX, SMALL_COUNTS, 1.0, 3)
        v = dataclasses.replace(v, trusted_region=Box([-0.5, -3.0, -6.0], [0.5, 3.0, 6.0]))
        assert v.region_index_bounds()[0] == slice(4, 5)
        self.assert_matches_reference(v, spec.constants, 18)


@pytest.mark.parametrize("threads", [0, 2])
def test_solve_bytes_counts_the_stacks_and_w(threads):
    spec = coupling_spec()
    Y, Z = make_lattice(spec.r_y, 1, 8), make_lattice(spec.r_z, 2, 8)
    v = backward_induction(spec, SMALL_BOX, SMALL_COUNTS, 2, Y, Z)
    nodes = grid_nodes(SMALL_BOX, SMALL_COUNTS)
    terminal = eval_field(spec.terminal_cost, nodes)
    w = len(Z.points) * v.data[0].size * 8  # one block of every node
    held = v.data.nbytes + v.trusted.nbytes + nodes.nbytes + terminal.nbytes + w
    table = (threads or 1) * len(Y.points) * len(Z.points) * game._PAIR_BYTES
    assert game.solve_bytes(SMALL_COUNTS, 2, len(Y.points), len(Z.points), threads) \
        == held + table
    # an HJI solve's time reversal holds no stacks of its own
    u = v.reversed_time()
    assert np.shares_memory(u.data, v.data) and np.shares_memory(u.trusted, v.trusted)


@pytest.mark.parametrize("rings", [3, 8])
@pytest.mark.parametrize("source", ["coupling_spec", "constant", "custom-affine"])
@pytest.mark.parametrize("which", ["lower", "upper"])
def test_pair_bytes_bounds_the_table(which, source, rings):
    import tracemalloc

    if source == "coupling_spec":
        spec = coupling_spec()
    else:
        spec = catalog_spec(source, AFFINE_PARAMS if source == "custom-affine"
                            else {"value": 0.75})
    Y, Z = make_lattice(spec.r_y, rings, 8), make_lattice(spec.r_z, rings, 8)
    pts, W = np.zeros((1, 3)), np.zeros((len(Z.points), 1))
    tracemalloc.start()
    try:
        game._backup(spec, 0.0, 0.05, pts, W, Y, Z, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an upper bound, and within 3x of the peak, so the guard stays useful
    assert peak <= len(Y.points) * len(Z.points) * game._PAIR_BYTES <= 3 * peak
