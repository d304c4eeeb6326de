import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower.asymptotics import _coordinate_moment
from bubbletower.errors import AccuracyError, ParameterError
from bubbletower.profiles import Dimension, standard_bubble
from bubbletower.quadrature import (QuadSpec, beta, bubble_power_integral,
                                    const_a, const_a_closed, g_sigma,
                                    g_sigma_closed, gauss_jacobi_sym,
                                    gram_limit_constant, integrate_rn,
                                    sphere_rule, tabulate_g)

D3 = Dimension(3)
ULP = np.finfo(float).eps
RULE_EXPONENTS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
RULE_ORDERS = [2, 12, 48, 160, 512]


class TestGaussJacobiSym:
    """The numpy Gauss rule for (1-t^2)^a against scipy's roots_jacobi."""

    @pytest.mark.parametrize("a", RULE_EXPONENTS)
    def test_matches_roots_jacobi(self, a):
        from scipy.special import roots_jacobi
        for m in RULE_ORDERS:
            t, w = gauss_jacobi_sym(m, a)
            ts, ws = roots_jacobi(m, a, a)
            # after the Newton polish every node is within 2.2e-16 (one
            # ulp at 1) of scipy's
            assert_allclose(t, ts, rtol=0, atol=ULP)
            # the tiny end weights of the 512-point rules differ most
            assert_allclose(w, ws, rtol=5e-11 if m <= 160 else 2e-9)
            assert_allclose(w.sum(), beta(0.5, a + 1.0), rtol=4 * ULP)

    @pytest.mark.parametrize("a", RULE_EXPONENTS)
    def test_exact_on_even_moments(self, a):
        # ∫ t^{2j} (1-t^2)^a dt = B(j+1/2, a+1) for every degree 2j <= 2m-1;
        # scipy's beta, since Γ overflows for the high moments
        from scipy.special import beta as beta_oracle
        for m in RULE_ORDERS:
            t, w = gauss_jacobi_sym(m, a)
            j = np.arange(m)
            got = (t[None, :] ** (2 * j[:, None])) @ w
            assert_allclose(got, beta_oracle(j + 0.5, a + 1.0), rtol=2e-12)

    @pytest.mark.parametrize("m", [1, 2, 7, 12, 49, 160])
    def test_antipodal_symmetry_is_exact(self, m):
        t, w = gauss_jacobi_sym(m, 1.5)
        assert np.array_equal(t, -t[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(t) > 0)
        if m % 2:
            assert t[m // 2] == 0.0

    def test_cached_rule_is_read_only(self):
        t, w = gauss_jacobi_sym(12, 0.5)
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("m, a", [(0, 1.0), (4, -0.5), (4, -1.0)])
    def test_rejects_bad_arguments(self, m, a):
        with pytest.raises(ParameterError):
            gauss_jacobi_sym(m, a)


class TestGammaBeta:
    """Γ from math and B = Γ(p)Γ(q)/Γ(p+q) against scipy.special."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_within_four_ulp_of_scipy(self, n):
        from scipy.special import beta as beta_oracle
        from scipy.special import gamma as gamma_oracle
        dim = Dimension(n)
        assert_allclose(dim.sphere_area,
                        2.0 * np.pi ** (n / 2.0) / gamma_oracle(n / 2.0),
                        rtol=4 * ULP)
        for x in (n / 2.0, (n - 1) / 2.0, n + 1.0):
            assert_allclose(math.gamma(x), gamma_oracle(x), rtol=4 * ULP)
        pairs = [(n / 2.0, n / 2.0), (0.5, (n - 1) / 2.0),
                 (1.5, (n - 1) / 2.0), ((dim.two_star + 1) / 2.0, (n - 1) / 2.0)]
        for p, q in pairs:
            assert_allclose(beta(p, q), beta_oracle(p, q), rtol=4 * ULP)
        assert_allclose(bubble_power_integral(dim),
                        dim.alpha ** dim.two_star * dim.sphere_area * 0.5
                        * beta_oracle(n / 2.0, n / 2.0), rtol=8 * ULP)

    def test_coordinate_moment_of_the_square(self):
        # ∫_{S^{n-1}} y_1^2 dS = omega/n
        for n in range(3, 13):
            dim = Dimension(n)
            assert_allclose(_coordinate_moment(dim, 2.0),
                            dim.sphere_area / n, rtol=8 * ULP)


class TestSphereRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_total_weight_is_sphere_area(self, n):
        from scipy.special import gamma
        pts, w = sphere_rule(n, 10)
        assert_allclose(np.sum(w), 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0),
                        rtol=1e-12)
        assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    def test_quadratic_moments(self):
        # ∫ y_i y_j dS = delta_ij * omega/n
        pts, w = sphere_rule(3, 8)
        m = (pts * w[:, None]).T @ pts
        assert_allclose(m, np.eye(3) * 4 * np.pi / 3, atol=1e-12)

    def test_antipodal_symmetry_kills_odd(self):
        pts, w = sphere_rule(4, 8)
        assert_allclose(w @ pts, np.zeros(4), atol=1e-13)


class TestQuadSpec:
    def test_tolerance_band(self):
        QuadSpec(rel_tol=1e-3)
        with pytest.raises(ParameterError):
            QuadSpec(rel_tol=1e-2)
        with pytest.raises(ParameterError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(ParameterError):
            QuadSpec(radial_panels=1)


class TestIntegrateRn:
    def test_gaussian(self):
        val, err = integrate_rn(D3, lambda y: np.exp(-np.sum(y * y, axis=-1)))
        assert_allclose(val, np.pi**1.5, rtol=1e-8)
        assert err < 1e-6

    def test_bubble_power_against_beta_oracle(self):
        val, _ = integrate_rn(D3, lambda y: standard_bubble(D3, y)**6)
        assert_allclose(val, bubble_power_integral(D3), rtol=1e-8)

    def test_odd_integrand_vanishes(self):
        def f(y):
            return y[:, 0] * standard_bubble(D3, y)**2
        val, err = integrate_rn(D3, f)
        assert abs(val) < 1e-10

    def test_gaussian_four_dimensions(self):
        dim4 = Dimension(4)
        val, _ = integrate_rn(dim4,
                              lambda y: np.exp(-np.sum(y * y, axis=-1)))
        assert_allclose(val, np.pi**2, rtol=1e-8)

    def test_explicit_truncation_radius(self):
        spec = QuadSpec(truncation_radius=40.0, rel_tol=1e-6)
        val, _ = integrate_rn(D3, lambda y: np.exp(-np.sum(y * y, axis=-1)), spec)
        assert_allclose(val, np.pi**1.5, rtol=1e-6)

    def test_doubling_panels_within_error_estimate(self):
        f = lambda y: standard_bubble(D3, y)**6
        v1, e1 = integrate_rn(D3, f, QuadSpec(radial_panels=16))
        v2, _ = integrate_rn(D3, f, QuadSpec(radial_panels=32))
        assert abs(v2 - v1) <= max(e1, 1e-12)

    def test_budget_exhaustion_raises(self):
        # a non-decaying integrand cannot satisfy the decay contract
        with pytest.raises(AccuracyError):
            integrate_rn(D3, lambda y: np.ones(len(y)))


class TestConstants:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mass_constant_closed_form(self, n):
        dim = Dimension(n)
        quad = const_a(dim, 2)
        closed = const_a_closed(dim, 2)
        assert_allclose(quad, closed, rtol=1e-8)
        assert_allclose(closed, (n - 2) * dim.alpha * dim.sphere_area, rtol=1e-15)

    def test_mass_constant_value_n3(self):
        assert_allclose(const_a_closed(D3, 2), 3.0**0.25 * 4 * np.pi, rtol=1e-15)
        assert_allclose(const_a_closed(D3, 2), 16.538273802687957, rtol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dilation_pairing_identity(self, n):
        # a1 = ((n-2)/2) a2, from differentiating the scale family of masses
        dim = Dimension(n)
        assert_allclose(const_a(dim, 1), 0.5 * (n - 2) * const_a(dim, 2),
                        rtol=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", range(3, 13))
    def test_log_moment_closed_form(self, n):
        # no overflow on the far half line, where (1+r^2)^{n+1} exceeds
        # the float range for n >= 10
        dim = Dimension(n)
        assert_allclose(const_a(dim, 4), const_a_closed(dim, 4), rtol=1e-9)

    def test_log_moment_value_n3(self):
        # Γ(3/2) π^{3/2} / (4 Γ(4)) * 3^{3/2} = π²·3^{3/2}/48
        assert_allclose(const_a_closed(D3, 4), np.pi**2 * 3**1.5 / 48, rtol=1e-14)
        assert_allclose(const_a_closed(D3, 4), 1.0684160170807606, rtol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_positivity(self, n):
        dim = Dimension(n)
        for idx in (1, 2, 3, 4):
            assert const_a(dim, idx) > 0

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            const_a(D3, 5)

    def test_gram_limit_constants(self):
        # frozen from an independent 1-D quadrature oracle
        assert_allclose(gram_limit_constant(D3, 0), 4.0065600640528505, rtol=1e-8)
        # translation and dilation modes share the same limit pairing here
        assert_allclose(gram_limit_constant(D3, 1),
                        gram_limit_constant(D3, 0), rtol=1e-9)


class TestGSigma:
    def test_origin_value_n3(self):
        assert_allclose(g_sigma(D3, np.zeros(3)), 4 * np.pi / 3, rtol=1e-9)
        assert_allclose(g_sigma_closed(D3, 0.0), 4.18879020478639098, rtol=1e-14)

    @pytest.mark.parametrize("n,s", [(3, 0.7), (3, 2.0), (4, 0.7), (5, 1.3)])
    def test_shell_theorem_oracle(self, n, s):
        dim = Dimension(n)
        sigma = np.zeros(n)
        sigma[0] = s
        assert_allclose(g_sigma(dim, sigma), g_sigma_closed(dim, s), rtol=1e-8)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        sigma = np.array([0.5, -0.3, 0.8])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert_allclose(g_sigma(D3, sigma), g_sigma(D3, q @ sigma), rtol=1e-10)

    def test_full_dimensional_quadrature_cross_check(self):
        sigma = np.array([0.9, 0.0, 0.0])
        def f(y):
            r = np.linalg.norm(y, axis=-1)
            r = np.where(r == 0, 1e-300, r)
            return r ** (2 - 3) * (1 + np.sum((y - sigma)**2, axis=-1)) ** (-2.5)
        val, _ = integrate_rn(D3, f, QuadSpec(spherical_order=24, rel_tol=1e-6))
        assert_allclose(val, g_sigma_closed(D3, 0.9), rtol=1e-4)

    def test_profile_has_maximum_at_origin(self):
        # tabulated profile is strictly decreasing in |sigma|
        table, kind = tabulate_g(D3, np.linspace(0, 3, 7))
        assert kind == "maximum"
        assert np.all(np.diff(table[:, 1]) < 0)
