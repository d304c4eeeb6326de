import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower.domain import (BallDomain, find_robin_min, robin_ball,
                                robin_grad_ball, robin_hess_ball)
from bubbletower.errors import DomainError, ParameterError, SingularityError
from bubbletower.profiles import Dimension
from oracles.ball import green_ball, regular_part_ball

B3 = BallDomain(Dimension(3))
B4 = BallDomain(Dimension(4))


class TestGreen:
    def test_center_value_n3(self):
        # G(0, y) = (1/4pi)(1/r - 1) on the unit ball
        for r in (0.2, 0.5, 0.9):
            y = np.array([r, 0.0, 0.0])
            assert_allclose(green_ball(B3, np.zeros(3), y),
                            (1.0 / r - 1.0) / (4 * np.pi), rtol=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-0.55, 0.55, 3)
            y = rng.uniform(-0.55, 0.55, 3)
            if np.allclose(x, y):
                continue
            assert_allclose(green_ball(B3, x, y), green_ball(B3, y, x), rtol=1e-12)

    def test_boundary_value(self):
        x = np.array([0.3, -0.1, 0.2])
        y = np.array([0.6, 0.8, 0.0])  # |y| = 1
        assert abs(green_ball(B3, x, y)) < 1e-12

    def test_nonnegative_inside(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 3)
            y = rng.uniform(-0.5, 0.5, 3)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert green_ball(B3, x, y) >= 0.0

    def test_singularity_and_domain_errors(self):
        with pytest.raises(SingularityError):
            green_ball(B3, np.zeros(3), np.zeros(3))
        with pytest.raises(DomainError):
            green_ball(B3, np.array([1.5, 0, 0]), np.zeros(3))


class TestRobin:
    def test_center_values(self):
        assert_allclose(robin_ball(B3, np.zeros(3)), 1.0 / (4 * np.pi), rtol=1e-14)
        assert_allclose(robin_ball(B3, np.zeros(3)), 0.07957747154594767)
        assert_allclose(robin_ball(B4, np.zeros(4)), 1.0 / (4 * np.pi**2), rtol=1e-14)
        assert_allclose(robin_ball(B4, np.zeros(4)), 0.02533029591058444)

    def test_half_radius_n3(self):
        x = np.array([0.5, 0.0, 0.0])
        assert_allclose(robin_ball(B3, x), 1.0 / (4 * np.pi * 0.75), rtol=1e-14)
        assert_allclose(robin_ball(B3, x), 0.10610329539459689)

    def test_regular_part_diagonal(self):
        x = np.array([0.3, 0.2, -0.4])
        assert_allclose(regular_part_ball(B3, x, x), robin_ball(B3, x),
                        rtol=1e-14)

    def test_radially_nondecreasing(self):
        r = np.linspace(0.0, 0.95, 40)
        vals = [robin_ball(B3, np.array([ri, 0, 0])) for ri in r]
        assert np.all(np.diff(vals) >= 0)

    def test_blows_up_at_boundary(self):
        vals = [robin_ball(B3, np.array([ri, 0, 0])) for ri in (0.9, 0.99, 0.9999)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 100 * vals[0]

    def test_exterior_rejected(self):
        with pytest.raises(DomainError):
            robin_ball(B3, np.array([1.0, 0.0, 0.0]))


class TestRobinGrad:
    def test_zero_at_center(self):
        assert_allclose(robin_grad_ball(B3, np.zeros(3)), np.zeros(3))

    def test_half_radius_magnitude(self):
        g = robin_grad_ball(B3, np.array([0.5, 0.0, 0.0]))
        assert_allclose(g, [0.14147106052612918, 0.0, 0.0], rtol=1e-12)
        assert_allclose(np.linalg.norm(g),
                        (1.0 / (4 * np.pi)) * (2 * 0.5) / 0.75**2, rtol=1e-13)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 3)
            g = robin_grad_ball(B3, x)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (robin_ball(B3, x + e) - robin_ball(B3, x - e)) / (2 * h)
            assert_allclose(g, fd, rtol=1e-7)


class TestRobinHess:
    @pytest.mark.parametrize("n, center, radius", [
        (3, None, 1.0), (4, None, 1.3), (5, [0.2, -0.1, 0.0, 0.3, 1.0], 2.0)])
    def test_centre_value(self, n, center, radius):
        # 2(n-2) c_n R^{-n} I at the centre
        dom = BallDomain(Dimension(n), center=center, radius=radius)
        want = 2.0 * (n - 2.0) * dom.c_n * radius ** (-n) * np.eye(n)
        assert_allclose(robin_hess_ball(dom, dom.center), want, rtol=1e-14)

    @pytest.mark.parametrize("dom", [B3, B4, BallDomain(
        Dimension(3), center=np.array([0.5, 0.0, -1.0]), radius=1.3)],
        ids=["B3", "B4", "translated"])
    def test_matches_finite_differences_of_the_gradient(self, dom):
        n = dom.dim.n
        rng = np.random.default_rng(3)
        h = 1e-6
        points = [dom.center, dom.center + 0.3 * np.eye(n)[0]]
        points += [dom.center + rng.uniform(-0.4, 0.4, n) for _ in range(5)]
        for x in points:
            H = robin_hess_ball(dom, x)
            fd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[:, j] = (robin_grad_ball(dom, x + e)
                            - robin_grad_ball(dom, x - e)) / (2 * h)
            assert_allclose(H, H.T, rtol=0, atol=0)
            assert_allclose(H, fd, rtol=0, atol=1e-8 * np.max(np.abs(H)))


class TestRobinMany:
    @pytest.mark.parametrize("n, center, radius", [
        (3, [0.2, -0.3, 0.1], 1.3),
        (4, [-0.25, 0.1, 0.05, 0.3], 0.9),
    ])
    def test_agrees_with_robin(self, n, center, radius):
        dom = BallDomain(Dimension(n), center=np.array(center), radius=radius)
        rng = np.random.default_rng(5)
        pts = dom.center + rng.uniform(-0.95, 0.95, (4000, n)) * radius / np.sqrt(n)
        # the array power and the scalar one may round the last bit apart
        np.testing.assert_array_max_ulp(dom.robin_many(pts),
                                        [dom.robin(q) for q in pts], maxulp=4)

    def test_inf_on_and_outside_sphere(self):
        c = np.array([0.25, -0.5, 0.125])  # c + 1.5 e_i - c is exactly 1.5 e_i
        dom = BallDomain(Dimension(3), center=c, radius=1.5)
        pts = c + np.array([[1.5, 0.0, 0.0], [0.0, -1.5, 0.0], [0.0, 0.0, 2.0],
                            [3.0, 3.0, 3.0], [0.0, 0.0, 0.0]])
        vals = dom.robin_many(pts)
        assert np.all(np.isinf(vals[:4])) and np.all(vals[:4] > 0)
        assert_allclose(vals[4], dom.robin(c), rtol=1e-15)


class QuadraticBowlProvider:
    """Synthetic Robin data with a known off-centre minimiser, seen through
    the methods find_robin_min calls."""

    def __init__(self, argmin):
        self.argmin = np.asarray(argmin, dtype=float)

    def robin(self, x):
        z = np.asarray(x) - self.argmin
        return 0.25 + float(z @ z) + float((z @ z) ** 2)

    def robin_many(self, pts):
        return np.array([self.robin(q) for q in pts])

    def robin_grad(self, x):
        z = np.asarray(x) - self.argmin
        return 2.0 * z + 4.0 * float(z @ z) * z


class TestRobinMin:
    def test_plugin_provider(self):
        target = np.array([0.12, -0.2, 0.05])
        prov = QuadraticBowlProvider(target)
        box = (np.full(3, -0.5), np.full(3, 0.5))
        x = find_robin_min(prov, box)
        assert np.linalg.norm(x - target) < 1e-8

    def test_unit_ball_center(self):
        box = (np.full(3, -0.6), np.full(3, 0.6))
        x = find_robin_min(B3, box)
        assert np.linalg.norm(x) < 1e-6

    def test_translated_ball(self):
        c = np.array([0.2, -0.3, 0.1])
        dom = BallDomain(Dimension(3), center=c, radius=1.0)
        box = (c - 0.6, c + 0.6)
        x = find_robin_min(dom, box)
        assert np.linalg.norm(x - c) < 1e-6

    def test_min_value_n4(self):
        box = (np.full(4, -0.5), np.full(4, 0.5))
        x = find_robin_min(B4, box)
        assert_allclose(robin_ball(B4, x), 1.0 / (4 * np.pi**2), rtol=1e-10)

    def test_gradient_driven_to_machine_level(self):
        box = (np.full(3, -0.6), np.full(3, 0.6))
        x = find_robin_min(B3, box)
        assert np.linalg.norm(robin_grad_ball(B3, x)) < 1e-12

    def test_translated_ball_n5_axis_scan(self):
        c = np.array([0.1, -0.2, 0.05, 0.15, -0.1])
        dom = BallDomain(Dimension(5), center=c, radius=1.2)
        box = (c - 0.45, c + 0.45)
        x = find_robin_min(dom, box)
        assert np.linalg.norm(x - c) < 1e-8

    def test_box_reaching_outside_ball(self):
        # the box corners lie outside the sphere, where the scan reads inf
        box = (np.full(3, -0.9), np.full(3, 0.9))
        x = find_robin_min(B3, box)
        assert np.linalg.norm(x) < 1e-8

    def test_seed_is_first_minimum_of_whole_grid(self):
        # coarse values tie across many slabs; the seed, the first point
        # Nelder-Mead evaluates, must be np.argmin's pick over the whole grid
        calls = []

        class TiedScan:
            robin_grad = B4.robin_grad

            def robin(self, x):
                calls.append(np.array(x))
                return B4.robin(x)

            def robin_many(self, pts):
                return np.round(B4.robin_many(pts), 2)

        prov = TiedScan()
        lo, hi = np.full(4, -0.5), np.full(4, 0.5)
        find_robin_min(prov, (lo, hi), grid_points=7)
        axes = [np.linspace(lo[i], hi[i], 7) for i in range(4)]
        whole = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                         axis=-1)
        vals = prov.robin_many(whole)
        first = np.argmin(vals)
        assert len(np.unique(whole[vals == vals[first], 0])) > 1
        assert np.array_equal(calls[0], whole[first])


class TestNonFinite:
    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0])
    def test_radius_rejected(self, radius):
        with pytest.raises(ParameterError, match="radius"):
            BallDomain(Dimension(3), radius=radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_center_rejected(self, bad):
        with pytest.raises(ParameterError, match="center"):
            BallDomain(Dimension(3), center=np.array([bad, 0.0, 0.0]))
