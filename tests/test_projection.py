import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower.domain import BallDomain
from bubbletower.errors import ParameterError
from bubbletower.profiles import Dimension
from bubbletower.projection import (_tower_and_modes, gram_matrix,
                                    project_bubble_radial,
                                    project_psi0_radial,
                                    project_tower_layers)
from bubbletower.radial import geometric_grid
from bubbletower.quadrature import gram_limit_constant, integrate_radial
from bubbletower.tower import TowerConfig, tower_radial_values
from oracles.ball import (Layer, OffCentreError, bubble_at,
                          gram_matrix_quadrature, green_ball, poisson_solve,
                          project_bubble, project_psi,
                          project_psi0_radial_dlog)

D3 = Dimension(3)
B3 = BallDomain(D3)


class TestExactCentered:
    def test_boundary_value_zero(self):
        b = Layer(mu=0.2, xi=np.zeros(3))
        x = np.array([0.6, 0.8, 0.0])
        assert abs(project_bubble(B3, b, x, method="exact_centered")) < 1e-15

    def test_center_value(self):
        # PU(0) = alpha (mu^{-1/2} - (mu/(1+mu^2))^{1/2}) at mu = 0.1
        b = Layer(mu=0.1, xi=np.zeros(3))
        got = float(project_bubble(B3, b, np.zeros(3), method="exact_centered"))
        expected = D3.alpha * (0.1**-0.5 - np.sqrt(0.1 / 1.01))
        assert_allclose(got, expected, rtol=1e-14)
        assert_allclose(got / D3.alpha, 2.8476192724046028, rtol=1e-12)

    def test_between_zero_and_bubble(self):
        b = Layer(mu=0.3, xi=np.zeros(3))
        r = np.linspace(0.0, 0.99, 50)
        pts = np.stack([r, 0 * r, 0 * r], axis=-1)
        pu = project_bubble(B3, b, pts, method="exact_centered")
        u = bubble_at(D3, b, pts)
        assert np.all(pu > 0)
        assert np.all(pu < u)

    def test_off_center_rejected(self):
        b = Layer(mu=0.3, xi=np.array([0.1, 0.0, 0.0]))
        with pytest.raises(OffCentreError):
            project_bubble(B3, b, np.zeros(3), method="exact_centered")

    def test_psi_boundary_values(self):
        x = np.array([0.0, 1.0, 0.0])
        assert abs(project_psi(B3, 0, 0.2, np.zeros(3), x)) < 1e-15
        assert abs(project_psi(B3, 2, 0.2, np.zeros(3), x)) < 1e-15

    def test_radial_fast_paths(self):
        r = np.linspace(0.0, 1.0, 11)
        pts = np.stack([r, 0 * r, 0 * r], axis=-1)
        b = Layer(mu=0.15, xi=np.zeros(3))
        assert_allclose(project_bubble_radial(B3, r, 0.15),
                        project_bubble(B3, b, pts, method="exact_centered"),
                        rtol=1e-14)
        assert_allclose(project_psi0_radial(B3, r, 0.15),
                        project_psi(B3, 0, 0.15, np.zeros(3), pts),
                        rtol=1e-13, atol=1e-15)

    def test_tower_sum_is_the_layers_helper(self):
        mus, signs = [0.3, 2e-3, 7e-6], [-1.0, 1.0, -1.0]
        r = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 300)])
        v, layers = project_tower_layers(B3, r, mus, signs)
        cfg = TowerConfig(0.1, np.array(mus))
        assert cfg.signs == tuple(signs)
        assert np.array_equal(tower_radial_values(B3, r, cfg), v)
        want = np.zeros_like(r)
        for mu, sign, pu in zip(mus, signs, layers):
            assert np.array_equal(pu, project_bubble_radial(B3, r, mu))
            want += sign * pu
        assert np.array_equal(v, want)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_one_pass_profiles_are_the_public_ones(self, n):
        # the tower, projected dilation modes and their log-derivatives of
        # the correction loop, one pass per layer, on lattice grids
        for radius in (1.0, 0.3, 2.5):
            dom = BallDomain(Dimension(n), radius=radius)
            for k in (1, 2, 3):
                mus = radius * np.array([0.3, 2e-3, 7e-6][:k])
                signs = [-1.0, 1.0, -1.0][:k]
                r = geometric_grid(radius, mus[-1] / 50, 40).nodes
                V, P, D = _tower_and_modes(dom, r, mus, signs)
                assert np.array_equal(
                    V, project_tower_layers(dom, r, mus, signs)[0])
                for j, mu in enumerate(mus):
                    assert np.array_equal(P[:, j],
                                          project_psi0_radial(dom, r, mu))
                    assert np.array_equal(
                        D[:, j], project_psi0_radial_dlog(dom, r, mu))

    def test_one_pass_profiles_reject_a_scale_like_the_public_ones(self):
        r = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ParameterError, match="must be positive"):
            _tower_and_modes(B3, r, [0.1, 0.0], [-1.0, 1.0])

    def test_dirichlet_solve_oracle(self):
        # independent check: solve -Δw = U^p with w(R)=0 on a dense radial
        # grid and compare against the closed-form projection
        from bubbletower.profiles import bubble_radial
        from bubbletower.radial import RadialOperator, geometric_grid

        mu = 0.1
        errs = []
        for per_decade in (30, 60):
            grid = geometric_grid(1.0, mu / 200, per_decade)
            op = RadialOperator(D3, grid)
            rhs = bubble_radial(D3, grid.nodes, mu) ** 5
            w = poisson_solve(op, rhs[:-1])
            exact = project_bubble_radial(B3, grid.nodes, mu)
            errs.append(np.max(np.abs(w - exact)) / np.max(np.abs(exact)))
        assert errs[0] < 6e-3
        assert errs[1] < errs[0] / 2.5  # roughly O(h^2)


class TestAsymptotic:
    def test_matches_exact_at_second_order(self):
        # sup |exact - asymptotic| ~ mu^{(n+2)/2}; fit over a geometric grid
        # with the largest point discarded
        r = np.linspace(0.0, 0.9, 10)
        pts = np.stack([r, 0 * r, 0 * r], axis=-1)
        mus = np.geomspace(1e-1, 1e-3, 7)
        sups = []
        for mu in mus:
            b = Layer(mu=mu, xi=np.zeros(3))
            d = np.abs(project_bubble(B3, b, pts, method="exact_centered")
                       - project_bubble(B3, b, pts, method="asymptotic"))
            sups.append(np.max(d))
        slope = np.polyfit(np.log(mus[1:]), np.log(sups[1:]), 1)[0]
        assert slope >= (3 + 2) / 2 - 0.2

    def test_far_field_ratio(self):
        # P psi^0(x) / (((n-2)/2) a2 mu^{(n-2)/2} G(x, xi)) -> 1
        a2 = 1.0 * (3 - 2) * D3.alpha * D3.sphere_area
        x = np.array([0.5, 0.2, -0.1])
        ratios = []
        for mu in (1e-2, 1e-3, 1e-4):
            num = float(project_psi(B3, 0, mu, np.zeros(3), x))
            den = 0.5 * (3 - 2) * a2 * mu**0.5 * green_ball(B3, x, np.zeros(3))
            ratios.append(num / den)
        assert abs(ratios[-1] - 1.0) < 1e-3
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_projection_error_norm_slopes(self):
        # || P psi^0 - psi^0 ||_{L^{2n/(n-2)}} ~ t^{1/2} and the h=1 norm
        # ~ t^{n/(2(n-2))}; the corrections are closed-form here
        eps_grid = np.geomspace(2.0**-3, 2.0**-10, 8)
        ts = eps_grid / np.log(eps_grid) ** 2
        norm0, norm1 = [], []
        q = 6.0
        vol = 4 * np.pi / 3
        for t in ts:
            mu = t  # n = 3
            c0 = abs(0.5 * D3.alpha * mu**0.5 * (1 - mu**2) / (mu**2 + 1) ** 1.5)
            norm0.append(c0 * vol ** (1 / q))
            c1 = 2 * D3.alpha * mu**1.5 / (mu**2 + 1) ** 1.5
            # L^6 norm of c1 * x_1 over the unit ball
            ang = integrate_radial(
                lambda r: np.where(r <= 1.0, r**q * r**2, 0.0),
                seeds=(0.5, 1.0))
            sphere_mean = 4 * np.pi / 7  # ∫ |y_1/|y||^6 dS on S^2 = 4pi/7
            norm1.append(c1 * (ang * sphere_mean) ** (1 / q))
        s0 = np.polyfit(np.log(ts), np.log(norm0), 1)[0]
        s1 = np.polyfit(np.log(ts), np.log(norm1), 1)[0]
        assert abs(s0 - 0.5) < 0.05
        assert abs(s1 - 1.5) < 0.05


class TestGram:
    @pytest.mark.parametrize("n, k, eps, mu", [
        (3, 2, 2.0**-3, None), (3, 2, 2.0**-6, None), (3, 2, 2.0**-9, None),
        (4, 1, None, 1e-2)])
    def test_separable_route_matches_ball_quadrature(self, n, k, eps, mu):
        # oracle: the same centred tower integrated on the full ball (radial
        # nodes x sphere rule) with the exact centred projections
        from bubbletower.tower import TowerConfig
        dim = Dimension(n)
        dom = BallDomain(dim)
        if mu is None:
            mus = TowerConfig.centered(dom, k, eps, np.ones(k)).mus
        else:
            mus = [mu]
        g = gram_matrix(dom, mus)
        ref = gram_matrix_quadrature(dom, mus)
        scale = np.max(np.abs(np.diag(ref)))
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale
        mode = np.tile(np.arange(n + 1), k)
        same = mode[:, None] == mode[None, :]
        # the cross-layer entries are orders below the diagonal: hold each
        # to its own size too
        assert_allclose(g[same], ref[same], rtol=1e-12, atol=0.0)
        assert np.all(g[~same] == 0.0)
        for i in range(k):
            d = np.diag(g)[i * (n + 1) + 1: (i + 1) * (n + 1)]
            assert np.all(d == d[0])

    def test_diagonal_stabilises_to_limit_constant(self):
        vals = {}
        for mu in (1e-3, 1e-4):
            g = gram_matrix(B3, [mu])
            vals[mu] = np.diag(g)
        c0 = gram_limit_constant(D3, 0)
        ch = gram_limit_constant(D3, 1)
        for h, ref in [(0, c0), (1, ch), (2, ch), (3, ch)]:
            a, b_ = vals[1e-3][h], vals[1e-4][h]
            assert abs(a - b_) / abs(b_) < 0.02
            assert abs(b_ - ref) / ref < 0.02

    def test_mixed_modes_vanish_by_parity(self):
        g = gram_matrix(B3, [1e-3])
        scale = g[0, 0]
        # l=1 vs h=2 (and any distinct translation pair) is an odd integrand
        assert abs(g[1, 2]) < 1e-12 * scale
        assert abs(g[2, 3]) < 1e-12 * scale

    def test_cross_layer_decay_order(self):
        from bubbletower.tower import TowerConfig
        eps_grid = np.geomspace(2.0**-4, 2.0**-9, 6)
        ts = eps_grid / np.log(eps_grid) ** 2
        vals = []
        for eps in eps_grid:
            cfg = TowerConfig.centered(B3, 2, eps, [1.0, 1.0])
            g = gram_matrix(B3, cfg.mus)
            # translation-mode pair of layers (1, 2): rows/cols 1 and 4+1
            vals.append(abs(g[1, 4 + 1]))
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope >= 3.0 - 0.2  # n/(n-2) = 3 at n = 3

    def test_symmetry_of_diagonal_block(self):
        g = gram_matrix(B3, [1e-2])
        assert_allclose(g, g.T, atol=1e-10 * abs(g[0, 0]))
