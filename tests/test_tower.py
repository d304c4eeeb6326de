import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower.domain import BallDomain
from bubbletower.errors import (ParameterError, ResolutionError,
                               UnsupportedError)
from bubbletower.profiles import Dimension
from bubbletower.projection import project_bubble
from bubbletower.tower import (AnnuliDecomposition, TowerConfig,
                               assemble_tower, cutoff_bundle,
                               fit_asymptotic_order, mu_schedule,
                               residual_norm, scale_variable,
                               tower_radial_values)

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


class TestAssembly:
    def test_single_layer_is_negative_projection(self):
        cfg = TowerConfig.centered(B3, 1, 0.05, [0.7])
        x = np.array([0.3, 0.1, 0.0])
        v = assemble_tower(B3, cfg, x)
        pu = project_bubble(B3, cfg.params[0], x, method="exact_centered")
        assert_allclose(v, -pu, rtol=1e-14)

    def test_boundary_zero(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [0.7, 0.03])
        x = np.array([1.0, 0.0, 0.0])
        assert abs(assemble_tower(B3, cfg, x)) < 1e-12

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

    def test_off_centre_layer_on_far_ball_is_not_centred(self):
        # a relative tolerance would scale with |centre| = 100 and accept
        # the 5e-4 offset; the centred check is absolute
        dom = BallDomain(D3, np.array([100.0, 0.0, 0.0]))
        base = TowerConfig.centered(dom, 2, 0.05, [0.7, 0.03])
        assert base.is_centered(dom)
        mu1 = base.mus[0]
        cfg = TowerConfig.centered(dom, 2, 0.05, [0.7, 0.03],
                                   sigmas=[[5e-4 / mu1, 0.0, 0.0], None])
        assert_allclose(np.linalg.norm(cfg.params[0].xi - dom.center), 5e-4,
                        rtol=1e-9)
        assert not cfg.is_centered(dom)
        with pytest.raises(UnsupportedError):
            tower_radial_values(dom, np.array([0.0, 0.1]), cfg)


class TestAnnuli:
    def test_partition_structure(self):
        cfg = TowerConfig.centered(B3, 3, 0.05, [0.7, 0.05, 0.003])
        ann = AnnuliDecomposition.from_config(cfg)
        ann.validate(cfg)
        mus = cfg.mus
        assert np.isclose(ann.radii[0][1], cfg.rho)
        assert ann.radii[-1][0] == 0.0
        # consecutive annuli share their cut radius: disjoint union
        for (in1, _), (_, out2) in zip(ann.radii[:-1], ann.radii[1:]):
            assert np.isclose(in1, out2)
        for i, (inner, outer) in enumerate(ann.radii[:-1]):
            assert inner < mus[i] < outer

    def test_radii_strictly_decreasing(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [0.7, 0.03])
        ann = AnnuliDecomposition.from_config(cfg)
        outers = [pair[1] for pair in ann.radii]
        seq = outers + [ann.radii[-1][0]]
        assert all(a > b for a, b in zip(seq[:-1], seq[1:]))


class TestCutoff:
    def test_plateau_and_support(self):
        chi, _, _ = cutoff_bundle(0.01, 0.1)
        r = np.array([0.004, 0.01, 0.05, 0.1, 0.21])
        assert_allclose(chi(r), [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-15)

    def test_gradient_and_hessian_bounds(self):
        inner, outer = 0.01, 0.1
        chi, dchi, d2chi = cutoff_bundle(inner, outer)
        r = np.linspace(1e-4, 0.25, 20001)
        # outer ramp [outer, 2 outer]
        mask_out = (r >= outer) & (r <= 2 * outer)
        assert np.max(np.abs(dchi(r[mask_out]))) <= 2.0 / outer * (1 + 1e-12)
        assert np.max(np.abs(d2chi(r[mask_out]))) <= 4.0 / outer**2 * (1 + 1e-12)
        # inner ramp [inner/2, inner], width inner/2
        mask_in = (r >= inner / 2) & (r <= inner)
        assert np.max(np.abs(dchi(r[mask_in]))) <= 4.0 / inner * (1 + 1e-12)
        assert np.max(np.abs(d2chi(r[mask_in]))) <= 16.0 / inner**2 * (1 + 1e-12)

    def test_derivative_consistency(self):
        # central differences are exact on the piecewise parabolas, so only
        # points straddling a ramp junction are excluded
        inner, outer = 0.01, 0.1
        chi, dchi, _ = cutoff_bundle(inner, outer)
        r = np.linspace(0.004, 0.21, 401)
        h = 1e-8
        kinks = np.array([inner / 2, 0.75 * inner, inner,
                          outer, 1.5 * outer, 2 * outer])
        keep = np.min(np.abs(r[:, None] - kinks[None, :]), axis=1) > 10 * h
        fd = (chi(r + h) - chi(r - h)) / (2 * h)
        assert_allclose(dchi(r)[keep], fd[keep], atol=2e-6 / h * 1e-8)


class TestOrderFit:
    def test_pure_power(self):
        t = np.geomspace(1e-1, 1e-4, 8)
        slope, half = fit_asymptotic_order(np.stack([t, 3 * t**2], axis=-1))
        assert abs(slope - 2.0) < 1e-10
        assert half < 1e-9

    def test_power_with_log(self):
        t = np.geomspace(1e-2, 1e-5, 8)
        y = t**1.5 * np.abs(np.log(t))
        slope, _ = fit_asymptotic_order(np.stack([t, y], axis=-1),
                                        model="power_log")
        assert abs(slope - 1.5) < 0.05

    def test_constant_data(self):
        t = np.geomspace(1e-1, 1e-3, 6)
        slope, _ = fit_asymptotic_order(np.stack([t, np.full(6, 2.0)], axis=-1))
        assert abs(slope) < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            fit_asymptotic_order([(0.1, 1.0), (-0.01, 2.0)])
        with pytest.raises(ParameterError):
            fit_asymptotic_order([(0.1, 0.0), (0.01, 2.0)])

    def test_fit_stability_under_dropping_largest(self):
        t = np.geomspace(1e-1, 1e-4, 8)
        y = 2.0 * t**1.7 * (1 + 0.05 * np.sin(np.log(t)))
        s_all, _ = fit_asymptotic_order(np.stack([t, y], axis=-1))
        s_drop, _ = fit_asymptotic_order(np.stack([t[1:], y[1:]], axis=-1))
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
