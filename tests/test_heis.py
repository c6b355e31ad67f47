import numpy as np
import pytest

from heisgame.heis import (
    IDENTITY,
    Box,
    ball_at,
    ball_points,
    dilate,
    dist_g,
    eval_field,
    fixed_points,
    gauge,
    group_mul,
    h_convexity_check,
    inverse,
)


def test_group_mul_printed_values():
    assert np.allclose(group_mul((1, 0, 0), (0, 1, 0)), (1, 1, 0.5))
    assert np.allclose(group_mul((0, 1, 0), (1, 0, 0)), (1, 1, -0.5))


def test_group_identity_exact():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, (200, 3))
    assert np.array_equal(group_mul(x, IDENTITY), x)
    assert np.array_equal(group_mul(IDENTITY, x), x)


def test_inverse_values_and_axiom():
    assert np.array_equal(inverse((1.0, 2.0, 3.0)), (-1.0, -2.0, -3.0))
    assert np.array_equal(inverse(IDENTITY), IDENTITY)
    rng = np.random.default_rng(1)
    x = rng.uniform(-5, 5, (500, 3))
    assert gauge(group_mul(inverse(x), x)).max() == 0.0
    assert gauge(group_mul(x, inverse(x))).max() == 0.0


def test_associativity_euclidean():
    rng = np.random.default_rng(2)
    a, b, c = (rng.uniform(-5, 5, (2000, 3)) for _ in range(3))
    lhs = group_mul(group_mul(a, b), c)
    rhs = group_mul(a, group_mul(b, c))
    assert np.linalg.norm(lhs - rhs, axis=-1).max() <= 1e-12


def test_dilate():
    assert np.allclose(dilate(2.0, (1, 1, 1)), (2, 2, 4))
    x = np.array([0.3, -0.7, 2.0])
    assert np.array_equal(dilate(1.0, x), x)
    with pytest.raises(ValueError):
        dilate(0.0, x)
    with pytest.raises(ValueError):
        dilate(-1.0, x)
    # an array of factors, one per point, matches one call per point bit for bit
    rng = np.random.default_rng(0)
    lam, pts = rng.uniform(0.1, 4.0, 100), rng.uniform(-5, 5, (100, 3))
    assert np.array_equal(dilate(lam, pts), [dilate(a, p) for a, p in zip(lam, pts)])
    with pytest.raises(ValueError):
        dilate(np.where(np.arange(100) == 7, 0.0, lam), pts)


def test_gauge_values():
    assert gauge((3.0, 4.0, 0.0)) == pytest.approx(5.0, abs=1e-14)
    assert gauge(IDENTITY) == 0.0
    assert gauge((0.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)


def test_gauge_huge_coordinates_no_overflow():
    v = gauge((1e70, 0.0, 0.0))
    assert np.isfinite(v)
    assert v == pytest.approx(1e70, rel=1e-12)


def test_gauge_homogeneity_and_symmetry():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (5000, 3))
    lam = rng.uniform(0.1, 4.0, 5000)
    dil = np.stack([lam * x[:, 0], lam * x[:, 1], lam ** 2 * x[:, 2]], axis=-1)
    rel = np.abs(gauge(dil) - lam * gauge(x)) / (1 + lam * gauge(x))
    assert rel.max() <= 1e-12
    assert np.abs(gauge(x) - gauge(inverse(x))).max() <= 1e-12


def test_dist_g_basics():
    assert dist_g((1, 0, 0), IDENTITY) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, (1000, 3))
    assert dist_g(x, x).max() == 0.0


def test_dist_g_left_invariance_and_reverse_triangle():
    rng = np.random.default_rng(5)
    a, x, y = (rng.uniform(-5, 5, (5000, 3)) for _ in range(3))
    d1 = dist_g(x, y)
    d2 = dist_g(group_mul(a, x), group_mul(a, y))
    assert np.abs(d1 - d2).max() <= 1e-12
    assert (np.abs(gauge(x) - gauge(y)) - d1).max() <= 1e-12


class TestEvalField:
    PTS = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0], [0.0, 0.0, -2.0]])

    def test_scalar_only_callables_fall_back(self):
        import math

        def branchy(p):
            return p[0] if p[2] > 0 else p[1]  # ``if array`` raises ValueError

        for f, want in ((lambda p: math.hypot(p[0], p[1]) + p[2],  # TypeError
                         np.hypot(self.PTS[:, 0], self.PTS[:, 1]) + self.PTS[:, 2]),
                        (branchy, [1.0, 0.5, 0.0]),
                        (lambda p: float(np.sum(p)), self.PTS.sum(-1))):  # wrong shape
            assert np.array_equal(eval_field(f, self.PTS), want)

    def test_other_errors_propagate_from_one_call(self):
        calls = []

        def f(p):
            calls.append(len(p))
            return p[..., 0] * (1.0 / 0.0)

        with pytest.raises(ZeroDivisionError):
            eval_field(f, self.PTS)
        assert calls == [3]


def test_box_validation():
    with pytest.raises(ValueError):
        Box([0, 0, 0], [1, 1, 0])
    b = Box([-1, -1, -1], [1, 1, 1])
    assert b.contains((0, 0, 0))
    assert not b.contains((2, 0, 0))


def test_gauge_bounds_horizontal_and_vertical_parts():
    # ||x||_G^4 = |x_h|^4 + x3^2, so |x_h| <= ||x||_G (equal where x3 = 0)
    # and |x3| <= ||x||_G^2 (equal on the vertical axis); together
    # |x| <= ||x||_G * sqrt(1 + ||x||_G^2)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-3, 3, (100_000, 3))
    g = gauge(pts)
    horiz = np.hypot(pts[:, 0], pts[:, 1])
    assert (horiz <= g * (1 + 1e-12)).all()
    assert (np.abs(pts[:, 2]) <= g**2 * (1 + 1e-12)).all()
    assert (np.linalg.norm(pts, axis=-1) <= g * np.sqrt(1 + g**2) * (1 + 1e-12)).all()

    flat = pts * np.array([1.0, 1.0, 0.0])
    assert np.allclose(gauge(flat), np.hypot(flat[:, 0], flat[:, 1]), rtol=1e-12, atol=0)
    vertical = pts * np.array([0.0, 0.0, 1.0])
    assert np.allclose(gauge(vertical) ** 2, np.abs(vertical[:, 2]), rtol=1e-12, atol=0)


class TestHConvexity:
    BOX = Box([-1, -1, -1], [1, 1, 1])

    def test_gauge_is_h_convex(self):
        rep = h_convexity_check(gauge, self.BOX, directions=64, probes=33,
                                rng=np.random.default_rng(8))
        assert rep.passed

    def test_linear_coordinate_passes_with_zero_violation(self):
        f = lambda p: np.asarray(p, dtype=float)[..., 0]
        rep = h_convexity_check(f, self.BOX, directions=16, probes=17,
                                rng=np.random.default_rng(9))
        assert rep.passed
        assert rep.worst_violation <= 1e-14

    def test_concave_fails_with_origin_witness(self):
        f = lambda p: -(np.asarray(p, dtype=float)[..., 0] ** 2
                        + np.asarray(p, dtype=float)[..., 1] ** 2)
        rep = h_convexity_check(f, self.BOX, directions=32, probes=17,
                                rng=np.random.default_rng(10))
        assert not rep.passed
        assert rep.worst_violation > 0
        base, w, _ = rep.witness
        assert np.allclose(base, IDENTITY)
        assert np.allclose(w, (1.0, 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            h_convexity_check(gauge, self.BOX, directions=0)
        with pytest.raises(ValueError):
            h_convexity_check(gauge, self.BOX, probes=2)

    def test_non_finite_field_reported(self):
        def bad(p):
            p = np.asarray(p, dtype=float)
            return np.where(p[..., 0] > 0.4, np.nan, 0.0)

        with pytest.raises(ValueError, match="non-finite"):
            h_convexity_check(bad, self.BOX, directions=8, probes=9,
                              rng=np.random.default_rng(11))


@pytest.mark.parametrize("n,d", [(1, 1), (128, 3), (4, 5), (64, 3)])
def test_fixed_points_repeat_their_bits_inside_the_unit_cube(n, d):
    u = fixed_points(n, d)
    assert u.shape == (n, d)
    assert np.array_equal(u.view(np.uint64), fixed_points(n, d).view(np.uint64))
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert len(np.unique(u, axis=0)) == n


def test_fixed_points_are_roberts_sequence():
    # d = 1 is the golden-ratio sequence frac(0.5 + k/phi)
    phi = (1 + np.sqrt(5)) / 2
    k = np.arange(1, 9)
    assert np.abs(fixed_points(8, 1)[:, 0] - (0.5 + k / phi) % 1.0).max() <= 1e-12
    # every axis spreads over the cube: each half holds some of 64 points
    u = fixed_points(64, 3)
    assert ((u < 0.5).sum(axis=0) >= 24).all() and ((u >= 0.5).sum(axis=0) >= 24).all()


@pytest.mark.parametrize("seed,radius,shape", [(0, 1.0, ()), (3, 2.5, (7,)), (11, 0.5, (4, 3))])
def test_ball_points_keeps_its_rng_draws(seed, radius, shape):
    # the sampler before ball_at was factored out: all angles, then all radii
    rng = np.random.default_rng(seed)
    theta = rng.random(shape) * 2 * np.pi
    r = radius * np.sqrt(rng.random(shape))
    old = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    new = ball_points(np.random.default_rng(seed), radius, shape)
    assert new.shape == shape + (2,)
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def test_ball_points_pinned_bits():
    pinned = ["0x1.a34c32a49a164p+0", "0x1.f49266effdcadp-1", "0x1.040f0ffd8fe13p-4",
              "0x1.875c7bd4399f1p-1", "0x1.0ab8f8ca8d639p-1", "-0x1.8f877854a201cp+0"]
    got = ball_points(np.random.default_rng(3), 2.5, (3,)).ravel().tolist()
    assert [x.hex() for x in got] == pinned


def test_ball_at_stays_in_the_closed_ball():
    u = fixed_points(256, 2)
    pts = ball_at(u[:, 0], u[:, 1], 1.5)
    assert (np.hypot(pts[:, 0], pts[:, 1]) <= 1.5).all()
    assert np.array_equal(ball_at(np.zeros(1), np.ones(1), 1.5), [[1.5, 0.0]])
