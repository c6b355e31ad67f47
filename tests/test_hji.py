import dataclasses
import json
import warnings

import numpy as np
import pytest

from _util import DEFAULT_BOX, SCENARIOS, canonical_problem

from heisgame.heis import Box, ball_points, gauge
from heisgame.catalog import make_hamiltonian, make_terminal
from heisgame.grids import Grid3, ValueGrid, sample_field
from heisgame.game import GameSpec, make_lattice
from heisgame.hji import (
    HjiProblem,
    build_game,
    derived_radii,
    hamiltonian_identity_check,
    pde_residual,
    solve,
    uniqueness_initial_trace,
)
from heisgame.scenario import load_scenario

BOX = Box([-4, -4, -8], [4, 4, 8])
COUNTS = (9, 9, 17)
HJI_SCENARIOS = [path for path in sorted(SCENARIOS.glob("*.json"))
                 if json.loads(path.read_text())["kind"] == "hji"]


def constant_ham_problem(c, box=BOX):
    ham = make_hamiltonian("constant", {"value": c})
    init = make_terminal("gauge", None, box)
    return HjiProblem(1.0, ham.fn, init.fn, abs(c), 0.0, 0.0, init.c2, init.c2p)


class TestBuildGame:
    def test_canonical_radii(self, canonical):
        problem, spec = canonical
        assert spec.r_z == 1.0
        assert spec.r_y == pytest.approx(4 * np.exp(0.5), rel=1e-12)
        assert spec.r_y == pytest.approx(6.594885, abs=1e-6)
        assert spec.c1 == pytest.approx(problem.d1 + spec.r_z * spec.r_y)
        assert spec.c1p == problem.d1p
        assert spec.constants.c_sharp == pytest.approx(spec.r_y, rel=1e-12)

    def test_zero_lipschitz_freezes_dynamics(self):
        p = constant_ham_problem(0.5)
        r_y, r_z = derived_radii(p.horizon, p.lip_y, p.d1p, p.c2p)
        assert r_z == 0.0
        assert r_y == pytest.approx(p.d1p * p.horizon + p.c2p)

    def test_constant_hamiltonian_cost_form(self):
        c = 1.25
        p = constant_ham_problem(c)
        spec = build_game(p)
        rng = np.random.default_rng(0)
        for _ in range(16):
            t = rng.random()
            x = BOX.sample(1, rng)[0]
            y, z = rng.normal(size=2), rng.normal(size=2)
            expect = -c + float(z @ y)
            assert spec.running_cost(t, x, y, z) == pytest.approx(expect, abs=1e-12)

    def test_negative_k_rejected(self):
        ham = make_hamiltonian("norm", None)
        init = make_terminal("gauge", None, BOX)
        with pytest.raises(ValueError):
            HjiProblem(1.0, ham.fn, init.fn, 1.0, 0.0, -1.0, init.c2, init.c2p)

    def test_reflections_pass_through(self):
        assert build_game(constant_ham_problem(0.5)).reflections == ()
        p = dataclasses.replace(constant_ham_problem(0.5), reflections=("x2", "x1"))
        assert build_game(p).reflections == ("x1", "x2")

    def test_unknown_reflection_rejected(self):
        p = dataclasses.replace(constant_ham_problem(0.5), reflections=("x3",))
        with pytest.raises(ValueError, match="unknown reflections"):
            build_game(p)

    @pytest.mark.parametrize("path", HJI_SCENARIOS, ids=lambda path: path.name)
    def test_scenario_game_is_built_from_its_problem(self, path):
        sc = load_scenario(path)
        built = build_game(sc.problem)
        for f in dataclasses.fields(GameSpec):
            value = getattr(sc.game, f.name)
            if not callable(value):
                assert value == getattr(built, f.name), f.name


class TestIdentity:
    def test_canonical_values(self, canonical, baseline_lattices):
        problem, spec = canonical
        y_lat, z_lat = baseline_lattices
        probes = (np.array([0.25]), np.zeros((1, 3)), np.zeros((1, 2)))
        rep = hamiltonian_identity_check(problem, spec, y_lat, z_lat, probes)
        assert rep.max_error <= 1e-12  # both sides vanish at lam = 0

        probes = (np.array([0.5]), np.zeros((1, 3)), np.array([[1.0, 0.0]]))
        rep = hamiltonian_identity_check(problem, spec, y_lat, z_lat, probes)
        assert rep.max_error <= rep.expected_bound

    def test_frozen_constant_exact(self):
        c = 0.75
        p = constant_ham_problem(c)
        spec = build_game(p)
        y_lat = make_lattice(spec.r_y, 2, 8)
        z_lat = make_lattice(0.0)
        rng = np.random.default_rng(1)
        lams = ball_points(rng, spec.r_y, 32)
        probes = (rng.random(32), BOX.sample(32, rng), lams)
        rep = hamiltonian_identity_check(p, spec, y_lat, z_lat, probes)
        # K = 0 collapses the z-ball: H_minus = -c exactly at every probe
        assert rep.max_error <= 1e-12

    def test_multiplier_outside_ball_rejected(self, canonical, baseline_lattices):
        problem, spec = canonical
        y_lat, z_lat = baseline_lattices
        lam = np.array([[spec.r_y * 1.5, 0.0]])
        with pytest.raises(ValueError, match="y-ball"):
            hamiltonian_identity_check(problem, spec, y_lat, z_lat,
                                       (np.zeros(1), np.zeros((1, 3)), lam))


class TestSolve:
    def test_constant_hamiltonian_closed_form(self):
        c = 0.8
        p = constant_ham_problem(c)
        spec = build_game(p)
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(p, grid, 5, make_lattice(spec.r_y, 1, 8), make_lattice(0.0),
                  warn_costs=False)
        g = sample_field(p.initial, BOX, COUNTS).values
        for k, t in enumerate(u.times):
            assert np.abs(u.data[k] - (g - c * t)).max() <= 1e-10

    def test_zero_hamiltonian_keeps_datum(self):
        p = constant_ham_problem(0.0)
        spec = build_game(p)
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(p, grid, 4, make_lattice(spec.r_y, 1, 8), make_lattice(0.0),
                  warn_costs=False)
        assert np.abs(u.data - u.data[0][None]).max() <= 1e-12

    def test_initial_slice_is_sampled_datum_exactly(self):
        problem, spec = canonical_problem()
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(problem, grid, 3, make_lattice(spec.r_y, 1, 8),
                  make_lattice(spec.r_z, 1, 8), warn_costs=False)
        g = sample_field(problem.initial, BOX, COUNTS).values
        assert np.array_equal(u.data[0], g)

    def test_hamiltonian_offset_tilts_solution(self):
        # adding a constant to the Hamiltonian subtracts c*t from the value
        c = 0.4
        kwargs = dict(d1=10.0, d1p=0.0, lip_y=1.0)
        init = make_terminal("gauge", None, BOX)
        base_ham = make_hamiltonian("norm", None)
        off_ham = make_hamiltonian("shifted-norm", {"offset": c})
        p1 = HjiProblem(1.0, base_ham.fn, init.fn, c2=init.c2, c2p=init.c2p, **kwargs)
        p2 = HjiProblem(1.0, off_ham.fn, init.fn, c2=init.c2, c2p=init.c2p, **kwargs)
        grid = Grid3(BOX, np.zeros(COUNTS))
        spec = build_game(p1)
        y_lat = make_lattice(spec.r_y, 1, 8)
        z_lat = make_lattice(spec.r_z, 1, 8)
        u1 = solve(p1, grid, 4, y_lat, z_lat, warn_costs=False)
        u2 = solve(p2, grid, 4, y_lat, z_lat, warn_costs=False)
        tilt = u1.times[:, None, None, None] * c
        assert np.abs(u2.data - (u1.data - tilt)).max() <= 1e-12

    def test_canonical_monotone_and_below_datum(self):
        problem, spec = canonical_problem()
        grid = Grid3(DEFAULT_BOX, np.zeros((17, 17, 33)))
        u = solve(problem, grid, 10, make_lattice(spec.r_y, 2, 8),
                  make_lattice(spec.r_z, 2, 8), warn_costs=False)
        mid = tuple((c - 1) // 2 for c in u.counts)
        origin_vals = u.data[(slice(None),) + mid]
        assert (np.diff(origin_vals) <= 1e-12).all()
        assert (u.data >= -1e-12).all()
        assert (u.data - u.data[0][None]).max() <= 1e-12


class TestPdeResidual:
    def test_affine_in_time_solution(self):
        c = 0.6
        p = constant_ham_problem(c)
        spec = build_game(p)
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(p, grid, 5, make_lattice(spec.r_y, 1, 8), make_lattice(0.0),
                  warn_costs=False)
        rep = pde_residual(u, p, n_probes=2000, rng=np.random.default_rng(2))
        assert rep.n_retained > 0
        assert rep.max <= 1e-8

    def test_plane_wave_solution(self):
        ham = make_hamiltonian("component", None)
        init = make_terminal("affine", {"a": (1.0, 0.0, 0.0), "b": 0.0}, BOX)
        p = HjiProblem(1.0, ham.fn, init.fn, 10.0, 0.0, 1.0, init.c2, init.c2p)
        u = ValueGrid.from_function(
            lambda t, pts: np.asarray(pts, dtype=float)[..., 0] - t,
            BOX, COUNTS, 1.0, 5,
        )
        rep = pde_residual(u, p, n_probes=2000, rng=np.random.default_rng(3))
        assert rep.n_retained > 0
        assert rep.max <= 1e-8

    def test_kink_exclusion_counts(self):
        # |x1| has a crease along x1 = 0; those probes must be dropped
        ham = make_hamiltonian("constant", {"value": 0.0})
        p = HjiProblem(1.0, ham.fn, lambda pts: np.abs(np.asarray(pts)[..., 0]),
                       1.0, 0.0, 0.0, 4.0, 1.0)
        u = ValueGrid.from_function(
            lambda t, pts: np.abs(np.asarray(pts, dtype=float)[..., 0]),
            BOX, COUNTS, 1.0, 4,
        )
        rep = pde_residual(u, p, n_probes=4000, rng=np.random.default_rng(4))
        assert rep.n_excluded > 0
        assert rep.max <= 1e-10

    def test_canonical_residual_small_and_decreasing(self, canonical,
                                                     ladder_solutions):
        problem, _ = canonical
        meds = []
        for value in ladder_solutions[1:]:
            rep = pde_residual(value.reversed_time(), problem, n_probes=4096,
                               rng=np.random.default_rng(6))
            assert rep.n_retained > 0
            meds.append(rep.median)
        assert meds[-1] <= 0.1
        assert meds[-1] <= meds[0] + 1e-12

    def test_all_probes_excluded_is_explicit(self):
        # a zero threshold factor rejects every curved probe instead of
        # silently passing
        ham = make_hamiltonian("norm", None)
        init = make_terminal("gauge", None, BOX)
        p = HjiProblem(1.0, ham.fn, init.fn, 10.0, 0.0, 1.0, init.c2, init.c2p)
        u = ValueGrid.from_function(lambda t, pts: gauge(pts) + t * gauge(pts),
                                    BOX, COUNTS, 1.0, 4)
        rep = pde_residual(u, p, n_probes=500, rng=np.random.default_rng(5),
                           kink_factor=0.0)
        assert rep.no_smooth_probes
        assert rep.n_retained == 0
        assert np.isnan(rep.median)


class TestInitialTrace:
    def test_zero_hamiltonian_zero_gap(self):
        p = constant_ham_problem(0.0)
        spec = build_game(p)
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(p, grid, 4, make_lattice(spec.r_y, 1, 8), make_lattice(0.0),
                  warn_costs=False)
        rep = uniqueness_initial_trace(u, spec)
        assert rep.sup_gap == 0.0
        assert rep.ok

    def test_constant_hamiltonian_exact_rate(self):
        c = -1.5
        p = constant_ham_problem(c)
        spec = build_game(p)
        grid = Grid3(BOX, np.zeros(COUNTS))
        u = solve(p, grid, 5, make_lattice(spec.r_y, 1, 8), make_lattice(0.0),
                  warn_costs=False)
        rep = uniqueness_initial_trace(u, spec)
        assert rep.sup_gap == pytest.approx(abs(c) * u.dt, abs=1e-14)
        assert rep.ok

    def test_canonical_within_space_time_rate(self, canonical, baseline_solution):
        _, spec = canonical
        u = baseline_solution.value.reversed_time()
        rep = uniqueness_initial_trace(u, spec)
        assert rep.ok
        assert rep.sup_gap <= spec.constants.c_prime * u.dt * 1.15


def test_spot_check_warns_on_wrong_y_modulus():
    ham = make_hamiltonian("norm", None)
    init = make_terminal("gauge", None, BOX)
    p = HjiProblem(1.0, ham.fn, init.fn, 10.0, 0.0, 0.01, init.c2, init.c2p)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        p.spot_check(BOX, rng=np.random.default_rng(5))
    assert any("y-increment" in str(x.message) for x in w)
