import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower.domain import BallDomain
from bubbletower.errors import ParameterError, ResolutionError
from bubbletower.profiles import Dimension
from bubbletower.tower import (TowerConfig, dilation_factors,
                               fit_asymptotic_order, mu_schedule,
                               residual_norm, scale_variable,
                               tower_radial_values)
from oracles.ball import Layer, project_bubble

D3 = Dimension(3)
B3 = BallDomain(D3)


class TestSchedule:
    def test_direct_value(self):
        mus = mu_schedule(D3, 1, 0.01, [1.0])
        assert_allclose(mus[0], 0.01 / np.log(0.01) ** 2, rtol=1e-15)
        assert_allclose(mus[0], 4.7152924252903493e-4, rtol=1e-12)

    def test_exponent_identity(self):
        # log mu_1 / log t = 1/(n-2) exactly when d = 1
        for eps in np.geomspace(0.2, 1e-3, 6):
            t = scale_variable(eps)
            mu1 = mu_schedule(D3, 1, eps, [1.0])[0]
            assert_allclose(np.log(mu1) / np.log(t), 1.0, rtol=1e-12)

    def test_ratio_identity(self):
        eps, d = 0.05, [0.7, 0.21]
        mus = mu_schedule(D3, 2, eps, d)
        t = scale_variable(eps)
        assert_allclose(mus[1] / mus[0], t ** (2.0 / (3 - 2)) * d[1] / d[0],
                        rtol=1e-14)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dilation_factors_invert_the_schedule(self, n):
        dim = Dimension(n)
        for k in (1, 2, 3):
            dbar = [1.0, 0.5, 0.8][:k]
            for eps in (0.1, 0.01, 1e-4):
                mus = mu_schedule(dim, k, eps, dbar)
                d = dilation_factors(dim, eps, mus)
                assert len(d) == k
                assert_allclose(d, dbar, rtol=1e-14)
                # one scalar power per layer: a layer's d does not depend
                # on the layers after it
                assert d[:1] == dilation_factors(dim, eps, mus[:1])

    def test_monotone_decreasing(self):
        mus = mu_schedule(D3, 3, 0.05, [1.0, 1.0, 1.0])
        assert np.all(np.diff(mus) < 0)

    def test_eps_validation(self):
        with pytest.raises(ParameterError):
            mu_schedule(D3, 1, 1.5, [1.0])
        with pytest.raises(ParameterError):
            mu_schedule(D3, 1, 1.0, [1.0])
        with pytest.raises(ParameterError):
            mu_schedule(D3, 1, 0.1, [-1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [np.inf, np.nan])
    def test_non_finite_dilation_rejected(self, d):
        with pytest.raises(ParameterError, match="finite"):
            TowerConfig.centered(B3, 1, 0.05, [d])
        with pytest.raises(ParameterError, match="finite"):
            mu_schedule(D3, 2, 0.05, [0.5, d])


class TestAssembly:
    def test_single_layer_is_negative_projection(self):
        cfg = TowerConfig.centered(B3, 1, 0.05, [0.7])
        x = np.array([0.3, 0.1, 0.0])
        v = tower_radial_values(B3, np.array([np.linalg.norm(x)]), cfg)
        layer = Layer(cfg.mus[0], B3.center)
        pu = project_bubble(B3, layer, x, method="exact_centered")
        assert_allclose(v[0], -pu, rtol=1e-14)

    def test_boundary_zero(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [0.7, 0.03])
        assert abs(tower_radial_values(B3, np.array([1.0]), cfg)[0]) < 1e-12

    def test_two_layer_sign_change_between_scales(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [0.7, 0.03])
        mu1, mu2 = cfg.mus
        r = np.geomspace(mu2 / 3, 3 * mu1, 400)
        v = tower_radial_values(B3, r, cfg)
        signs = np.sign(v[np.abs(v) > 1e-12 * np.max(np.abs(v))])
        assert np.any(np.diff(signs) != 0)

    def test_peak_heights_alternate(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [0.7, 0.03])
        mu1, mu2 = cfg.mus
        v_center = float(tower_radial_values(B3, np.array([0.0]), cfg)[0])
        v_outer = float(tower_radial_values(B3, np.array([mu1]), cfg)[0])
        # innermost layer has sign (-1)^2 = +1, outer (-1)^1 = -1
        assert v_center > 0 > v_outer
        assert_allclose(v_center, D3.alpha * mu2 ** -0.5, rtol=0.05)


class TestOrderFit:
    def test_pure_power(self):
        t = np.geomspace(1e-1, 1e-4, 8)
        slope = fit_asymptotic_order(np.stack([t, 3 * t**2], axis=-1))
        assert abs(slope - 2.0) < 1e-10

    def test_constant_data(self):
        t = np.geomspace(1e-1, 1e-3, 6)
        slope = fit_asymptotic_order(np.stack([t, np.full(6, 2.0)], axis=-1))
        assert abs(slope) < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            fit_asymptotic_order([(0.1, 1.0), (-0.01, 2.0)])
        with pytest.raises(ParameterError):
            fit_asymptotic_order([(0.1, 0.0), (0.01, 2.0)])

    def test_fit_stability_under_dropping_largest(self):
        t = np.geomspace(1e-1, 1e-4, 8)
        y = 2.0 * t**1.7 * (1 + 0.05 * np.sin(np.log(t)))
        s_all = fit_asymptotic_order(np.stack([t, y], axis=-1))
        s_drop = fit_asymptotic_order(np.stack([t[1:], y[1:]], axis=-1))
        assert abs(s_all - s_drop) < 0.05


class TestResidualNorm:
    def test_grid_resolution_guard(self):
        from bubbletower.radial import geometric_grid
        cfg = TowerConfig.centered(B3, 1, 0.05, [0.7])
        coarse = geometric_grid(1.0, 0.5, 10)
        with pytest.raises(ResolutionError):
            residual_norm(B3, cfg, coarse)

    def test_decreases_along_sweep(self):
        from bubbletower.radial import geometric_grid
        vals = []
        for eps in (0.1, 0.07, 0.05, 0.035, 0.025):
            cfg = TowerConfig.centered(B3, 1, eps, [0.7406801701108005])
            grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
            vals.append(residual_norm(B3, cfg, grid))
        assert np.all(np.diff(vals) < 0)

    def test_detuned_dilation_increases_residual(self):
        from bubbletower.radial import geometric_grid
        eps = 0.05
        root = 0.7406801701108005
        out = []
        for d in (root, 2 * root):
            cfg = TowerConfig.centered(B3, 1, eps, [d])
            grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
            out.append(residual_norm(B3, cfg, grid))
        assert out[1] > out[0]

    def test_manufactured_limit_second_order(self):
        # the exact centred projection of a unit-scale bubble on a huge ball
        # solves the eps=0 problem up to the (tiny) boundary correction, so
        # the measured residual is pure truncation: ~ O(h^2) under refinement
        from bubbletower.radial import geometric_grid
        dom = BallDomain(D3, radius=2e4)
        eps = 1e-8
        t = scale_variable(eps)
        cfg = TowerConfig.centered(dom, 1, eps, [1.0 / t])  # mu_1 = 1
        assert_allclose(cfg.mus[0], 1.0, rtol=1e-12)
        errs = []
        for per_decade in (10, 20, 40):
            grid = geometric_grid(dom.radius, 1e-2, per_decade)
            errs.append(residual_norm(dom, cfg, grid))
        r1 = np.log(errs[0] / errs[1]) / np.log(2.0)
        r2 = np.log(errs[1] / errs[2]) / np.log(2.0)
        assert 1.6 < r2 < 2.6
        assert 1.4 < r1
