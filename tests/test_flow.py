import numpy as np
import pytest

from _util import (
    batch_controls,
    batch_trajectory,
    flow_checks_reference,
    integrate_reference,
    rk4_loop_reference,
)

from heisgame import checks
from heisgame.heis import IDENTITY, dist_g, group_mul
from heisgame.checks import (
    check_flow_exactness,
    check_group_axioms,
    check_reach,
    check_shifted_start,
    check_translation,
    random_control,
)
from heisgame.scenario import SAMPLE_DEFAULTS
from heisgame.flow import (
    PiecewiseConstantControl,
    check_reach_bound,
    check_shifted_start_bound,
    check_translation_identity,
    exact_step,
    integrate,
    rk4_reference,
)


def two_segment_control():
    return PiecewiseConstantControl(
        0.0, [0.5, 1.0], [[1.0, 0.0], [0.0, 1.0]]
    )


class TestControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantControl(0.0, [0.5, 0.5], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            PiecewiseConstantControl(0.0, [0.5, 0.2], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            PiecewiseConstantControl(0.0, [0.5], [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            PiecewiseConstantControl(1.0, [0.5], [[1, 0]])


class TestExactStep:
    def test_from_origin(self):
        assert np.allclose(exact_step(IDENTITY, (1, 0), 1.0), (1, 0, 0))

    def test_matches_group_product(self):
        p = exact_step((0, 1, 0), (1, 0), 1.0)
        assert np.allclose(p, (1, 1, -0.5))
        assert np.allclose(p, group_mul((0, 1, 0), (1, 0, 0)))

    def test_zero_duration(self):
        xi = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(exact_step(xi, (2, 3), 0.0), xi)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            exact_step(IDENTITY, (1, 0), -0.1)

    def test_velocity_field_matches_derivative(self):
        xi = np.array([0.5, -0.3, 0.2])
        z = np.array([1.2, -0.7])
        eps = 1e-7
        fd = (exact_step(xi, z, eps) - xi) / eps
        f = (z[0], z[1], 0.5 * (z[1] * xi[0] - z[0] * xi[1]))
        assert np.allclose(fd, f, atol=1e-6)


class TestIntegrate:
    def test_two_segment_endpoint(self):
        traj = integrate(IDENTITY, two_segment_control())
        assert np.allclose(traj.endpoint, (0.5, 0.5, 0.125))
        assert np.allclose(traj.endpoint,
                           group_mul((0.5, 0, 0), (0, 0.5, 0)))

    def test_empty_span(self):
        u = PiecewiseConstantControl(0.3, [], np.zeros((0, 2)))
        traj = integrate((1, 2, 3), u)
        assert len(traj) == 1
        assert traj.times[0] == 0.3
        assert np.allclose(traj.points[0], (1, 2, 3))

    def test_left_translation_family(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            xi = rng.uniform(-2, 2, 3)
            u = PiecewiseConstantControl(0.0, np.sort(rng.random(3)) + 0.2,
                                         rng.uniform(-1, 1, (3, 2)))
            full = integrate(xi, u).endpoint
            from_e = integrate(IDENTITY, u).endpoint
            assert np.linalg.norm(full - group_mul(xi, from_e)) <= 1e-12

    def test_concatenation_exact(self):
        u = two_segment_control()
        first = PiecewiseConstantControl(0.0, [0.5], [[1.0, 0.0]])
        second = PiecewiseConstantControl(0.5, [1.0], [[0.0, 1.0]])
        xi = np.array([0.2, -0.4, 1.0])
        mid = integrate(xi, first).endpoint
        end = integrate(mid, second).endpoint
        assert np.array_equal(end, integrate(xi, u).endpoint)


class TestRk4:
    def test_agreement_with_exact_flow(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            xi = rng.uniform(-2, 2, 3)
            m = rng.integers(1, 5)
            u = PiecewiseConstantControl(0.0, np.sort(rng.random(m)) + 0.05,
                                         rng.uniform(-2, 2, (m, 2)))
            d = np.linalg.norm(integrate(xi, u).endpoint
                               - rk4_reference(xi, u, substeps=200).endpoint)
            worst = max(worst, float(d))
        assert worst <= 1e-10

    def test_zero_control_is_constant(self):
        u = PiecewiseConstantControl.constant((0.0, 0.0), 0.0, 1.0)
        xi = np.array([1.0, 2.0, 3.0])
        traj = rk4_reference(xi, u, substeps=16)
        assert np.array_equal(traj.points, np.stack([xi, xi]))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        empty = PiecewiseConstantControl(0.3, [], np.zeros((0, 2)))
        traj = rk4_reference((1.0, 2.0, 3.0), empty, substeps=16)
        assert np.array_equal(traj.times, [0.3])
        assert np.array_equal(traj.points, [[1.0, 2.0, 3.0]])
        controls = [empty]
        for k in range(200):
            u = random_control(rng, 2.0, t0=-0.5, t_end=1.5)
            controls.append(PiecewiseConstantControl(u.t0, u.breakpoints, -u.values)
                            if k % 2 else u)
        for u in controls:
            xi = rng.uniform(-2, 2, 3)
            for substeps in (1, 16, 1000):
                traj = rk4_reference(xi, u, substeps=substeps)
                times, points = rk4_loop_reference(xi, u, substeps)
                assert np.array_equal(traj.times, times)
                assert np.array_equal(traj.points, points)


class TestReachBound:
    def test_radial_control_ratio_one_third(self):
        r_z = 1.5
        u = PiecewiseConstantControl.constant((r_z, 0.0), 0.0, 1.0)
        rep = check_reach_bound([IDENTITY], [u], r_z)
        assert rep.ok[0]
        assert rep.worst_ratio[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_control(self):
        u = PiecewiseConstantControl.constant((0.0, 0.0), 0.0, 1.0)
        rep = check_reach_bound([(1, 1, 1)], [u], 0.0)
        assert rep.ok[0]
        assert rep.worst_ratio[0] == 0.0

    def test_inadmissible_control_names_segment(self):
        u = PiecewiseConstantControl(0.0, [0.5, 1.0], [[0.1, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="segment 1"):
            check_reach_bound([IDENTITY], [u], 1.0)

    def test_random_instances(self):
        rng = np.random.default_rng(3)
        for r_z in (0.5, 1.0, 2.0):
            breaks, values = batch_controls(rng, 300, r_z)
            xi = rng.uniform(-2, 2, (300, 3))
            times, pts = batch_trajectory(xi, breaks, values, per_segment=16)
            d = dist_g(pts, xi[:, None, :])
            ratios = d[:, 1:] / (3 * r_z * times[:, 1:])
            assert ratios.max() <= 1 + 1e-9


class TestTranslation:
    def test_same_start_zero_deviation(self):
        u = two_segment_control()
        xi = np.array([0.5, -0.5, 0.25])
        rep = check_translation_identity([xi], [xi], [u], 1.0)
        assert rep.ok[0]
        assert rep.max_deviation[0] == 0.0
        assert rep.gronwall_ratio[0] == 0.0

    def test_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            xi, xi_hat = rng.uniform(-2, 2, (2, 3))
            breaks, values = batch_controls(rng, 1, 1.0, segments=3)
            u = PiecewiseConstantControl(0.0, breaks[0], values[0])
            rep = check_translation_identity([xi], [xi_hat], [u], r_z=1.0)
            assert rep.max_deviation[0] <= 1e-10
            assert rep.gronwall_ratio[0] <= 1 + 1e-9
            assert rep.c_hat[0] == pytest.approx(np.exp(0.5))

    @pytest.mark.parametrize("r", [1.0, 0.1, 0.01])
    def test_separation_bound_fails_at_small_horizontal_offset(self, r):
        # the flow is right multiplication, x(t) = xi o gamma(t), and right
        # translations are not d_G-Lipschitz: for xihat = (r, 0, 0) under
        # z = (0, 1) the separation at t = 1 is (r^4 + r^2)^(1/4), so the
        # ratio to C_hat * r = e^(1/2) * r grows without bound as r -> 0
        u = PiecewiseConstantControl.constant((0.0, 1.0), 0.0, 1.0)
        rep = check_translation_identity([(0.0, 0.0, 0.0)], [(r, 0.0, 0.0)], [u], 1.0)
        closed_form = (r**4 + r**2) ** 0.25 / (r * np.exp(0.5))
        assert rep.gronwall_ratio[0] == pytest.approx(closed_form, rel=1e-12)
        if r < 1.0:
            assert rep.gronwall_ratio[0] > 1.0
            assert not rep.ok[0]


class TestShiftedStart:
    def test_degenerate_is_zero(self):
        u = two_segment_control()
        xi = np.array([0.1, 0.2, 0.3])
        rep = check_shifted_start_bound([xi], [xi], 0.0, 0.0, [u], 1.0)
        assert rep.ok[0]
        assert rep.worst_ratio[0] == 0.0

    def test_reduces_to_translation_bound_when_tau_equal(self):
        u = two_segment_control()
        xi = np.array([0.1, 0.2, 0.3])
        xi_tilde = np.array([-0.4, 0.6, 0.0])
        rep = check_shifted_start_bound([xi], [xi_tilde], 0.0, 0.0, [u], 1.0)
        trans = check_translation_identity([xi], [xi_tilde], [u], r_z=1.0)
        # same curves; the shifted bound only differs by the (1 + 3 r_z) factor
        assert rep.ok[0]
        assert rep.max_separation[0] <= rep.c_tilde[0] / trans.c_hat[0] \
            * trans.c_hat[0] * dist_g(xi_tilde, xi) + 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            xi, xi_tilde = rng.uniform(-2, 2, (2, 3))
            breaks, values = batch_controls(rng, 1, 1.0, segments=3)
            u = PiecewiseConstantControl(0.0, breaks[0], values[0])
            tau_prime = float(rng.random() * 0.9 * u.t_end)
            rep = check_shifted_start_bound([xi], [xi_tilde], 0.0, tau_prime, [u], 1.0)
            assert rep.ok[0], (xi, xi_tilde, tau_prime)

    def test_control_start_mismatch_rejected(self):
        u = two_segment_control()
        with pytest.raises(ValueError):
            check_shifted_start_bound([IDENTITY], [IDENTITY], 0.25, 0.5, [u], 1.0)


class TestBatchedFlow:
    def test_integrate_matches_segment_loop(self):
        rng = np.random.default_rng(8)
        for k in range(200):
            u = random_control(rng, 2.0, t0=-0.5, t_end=1.5)
            xi = rng.uniform(-2, 2, 3)
            if k % 2:
                u = PiecewiseConstantControl(u.t0, u.breakpoints, -u.values)
            for per in (0, 16):
                traj = integrate(xi, u, samples_per_segment=per)
                times, points = integrate_reference(xi, u, per)
                assert np.array_equal(traj.times, times)
                assert np.array_equal(traj.points, points)

    @pytest.mark.parametrize("seed", [0, 9, 25, 27])
    def test_battery_matches_per_instance_loops(self, seed):
        # the battery's draws at the default counts, after the checks that
        # precede them; separation_gronwall fails at seeds 9, 25 and 27
        n = [SAMPLE_DEFAULTS[k] for k in
             ("reach_instances", "translation_instances", "shift_instances")]
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for rng in rngs:
            check_group_axioms(SAMPLE_DEFAULTS["group_samples"], rng)
            check_flow_exactness(SAMPLE_DEFAULTS["flow_controls"], rng, substeps=1)
        results = [check_reach(n[0], rngs[0]), *check_translation(n[1], rngs[0]),
                   check_shifted_start(n[2], rngs[0])]
        assert [r.measured for r in results] == list(flow_checks_reference(rngs[1], *n))
        assert [r.passed for r in results] == [True, True, seed == 0, True]

    @pytest.mark.parametrize("substeps", [1000, 1])
    def test_flow_exactness_matches_per_instance_loop(self, monkeypatch, substeps):
        # 70 draws: at 1000 substeps, some segment counts take several chunks
        real, segments = checks._rk4_at, []

        def counted(xi, t0, bp, vals, substeps):
            segments.append(bp.shape[1])
            return real(xi, t0, bp, vals, substeps)

        monkeypatch.setattr(checks, "_rk4_at", counted)
        rngs = [np.random.default_rng(13) for _ in range(2)]
        res = check_flow_exactness(70, rngs[0], substeps=substeps)
        worst = worst_gauge = 0.0
        for _ in range(70):
            xi = rngs[1].uniform(-2, 2, 3)
            u = random_control(rngs[1], 2.0)
            end_exact = integrate(xi, u).endpoint
            end_rk4 = rk4_loop_reference(xi, u, substeps)[1][-1]
            worst = max(worst, float(np.linalg.norm(end_exact - end_rk4)))
            worst_gauge = max(worst_gauge, float(dist_g(end_exact, end_rk4)))
        assert res.measured == worst
        assert res.detail["gauge_distance"] == worst_gauge
        assert rngs[0].random() == rngs[1].random()
        assert len(segments) >= 3
        assert (len(segments) > len(set(segments))) == (substeps == 1000)

    def test_batch_entries_match_single_instances(self):
        # mixed segment counts, more than one chunk per count, and the
        # degenerate branches: r_z = 0, xi = xihat, tau' at t0, at a
        # breakpoint and at the end
        rng = np.random.default_rng(11)
        n = 600
        controls = [random_control(rng, 1.0, max_segments=4) for _ in range(n)]
        controls[0] = PiecewiseConstantControl(0.0, [], np.zeros((0, 2)))
        controls[1] = PiecewiseConstantControl.constant((0.0, 0.0))
        xis = rng.uniform(-2, 2, (n, 3))
        xi_hats = rng.uniform(-2, 2, (n, 3))
        xi_hats[2] = xis[2]
        r_z = np.where(np.arange(n) == 1, 0.0, 1.0)
        tau_p = rng.random(n) * 0.9
        tau_p[0], tau_p[3], tau_p[5] = 0.0, 0.0, 1.0
        tau_p[4] = controls[4].breakpoints[0]

        batch = (check_reach_bound(xis, controls, r_z),
                 check_translation_identity(xis, xi_hats, controls, r_z),
                 check_shifted_start_bound(xis, xi_hats, 0.0, tau_p, controls, r_z))
        for i in range(n):
            one = ([xis[i]], [xi_hats[i]], [controls[i]])
            single = (check_reach_bound(one[0], one[2], r_z[i]),
                      check_translation_identity(*one, r_z[i]),
                      check_shifted_start_bound(one[0], one[1], 0.0, tau_p[i], one[2], r_z[i]))
            for rep, alone in zip(batch, single):
                assert [v[i] for v in vars(rep).values()] == [v[0] for v in vars(alone).values()]
        assert batch[0].worst_ratio[1] == 0.0 and batch[1].gronwall_ratio[2] == 0.0

    def test_batch_names_the_inadmissible_instance(self):
        good = PiecewiseConstantControl.constant((0.5, 0.0))
        bad = PiecewiseConstantControl(0.0, [0.5, 1.0], [[0.1, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="segment 1 of instance 2"):
            check_reach_bound(np.zeros((3, 3)), [good, good, bad], 1.0)
