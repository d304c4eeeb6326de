import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bubbletower import profiles
from bubbletower.errors import ParameterError
from bubbletower.profiles import (Dimension, _f_and_prime, bubble_radial,
                                  f_eps, f_eps_prime)
from oracles import nonlinearity as ref
from oracles.ball import Layer, bubble_at, psi_at

D3 = Dimension(3)
D4 = Dimension(4)


def wide_values(seed, size):
    """Values of both signs, 1e-300 .. 1e30 in magnitude, with exact zeros."""
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 30, size)
    u[::37] = 0.0
    return u


def unit_bubble(dim, y):
    """The standard bubble alpha_n (1+|y|^2)^{-(n-2)/2}, as bubble_radial at
    scale 1, at points ``y`` of shape (..., n)."""
    return bubble_radial(dim, np.linalg.norm(y, axis=-1), 1.0)


def fd_laplacian(func, x, h):
    """Second-order central-difference Laplacian of a scalar field."""
    n = len(x)
    out = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out += (func(x + e) - 2.0 * func(x) + func(x - e)) / h**2
    return out


class TestDimension:
    def test_cached_constants(self):
        assert D3.two_star == 6.0
        assert D3.p == 5.0
        assert_allclose(D3.alpha, 3.0**0.25, rtol=1e-15)
        assert_allclose(D3.sphere_area, 4.0 * np.pi, rtol=1e-15)
        assert_allclose(D4.sphere_area, 2.0 * np.pi**2, rtol=1e-15)

    @pytest.mark.parametrize("bad", [2, 1, 0, -1])
    def test_rejects_low_dimension(self, bad):
        with pytest.raises(ParameterError):
            Dimension(bad)


class TestStandardBubble:
    def test_peak_value_n3(self):
        # alpha_3 = (3*1)^{1/4}
        assert_allclose(unit_bubble(D3, np.zeros(3)), 3.0**0.25, rtol=1e-15)
        assert_allclose(float(unit_bubble(D3, np.zeros(3))), 1.3160740129524924)

    def test_unit_radius_n4(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        assert_allclose(unit_bubble(D4, y), np.sqrt(2.0), rtol=1e-15)

    def test_radially_decreasing_positive(self):
        r = np.linspace(0, 50, 400)
        vals = unit_bubble(D3, np.stack([r, 0 * r, 0 * r], axis=-1))
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_solves_limit_equation_at_origin(self):
        # -ΔU(0) = U(0)^{2*-1} up to O(h^2); check the h^2 decay directly
        u0 = float(unit_bubble(D3, np.zeros(3)))
        target = u0**5
        errs = []
        for h in (4e-2, 2e-2, 1e-2):
            lap = fd_laplacian(lambda x: float(unit_bubble(D3, x)),
                               np.zeros(3), h)
            errs.append(abs(-lap - target))
        rate = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert 1.8 < rate < 2.2

    def test_kernel_equation_all_modes(self):
        # -Δ psi^h = p U^{p-1} psi^h at O(h^2), h = 0..n
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.4, 0.4, size=3)
        for h_idx in range(4):
            def psi(pt, h_idx=h_idx):
                return float(psi_at(D3, h_idx, 1.0, np.zeros(3), pt))
            target = 5.0 * float(unit_bubble(D3, x))**4 * psi(x)
            errs = [abs(-fd_laplacian(psi, x, h) - target)
                    for h in (4e-2, 1e-2)]
            assert errs[1] < errs[0] / 8.0  # at least ~O(h^2) decay


class TestBubbleAt:
    def test_identity_scaling(self):
        rng = np.random.default_rng(0)
        ys = rng.standard_normal((20, 3))
        b = Layer(mu=1.0, xi=np.zeros(3))
        assert_allclose(bubble_at(D3, b, ys), unit_bubble(D3, ys), rtol=1e-15)

    def test_peak_value(self):
        b = Layer(mu=0.01, xi=np.zeros(3))
        peak = float(bubble_at(D3, b, np.zeros(3)))
        assert_allclose(peak, 3.0**0.25 * 0.01**-0.5, rtol=1e-14)
        assert_allclose(peak, 13.160740129524924, rtol=1e-12)

    @given(st.floats(0.01, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_identity_random(self, mu, x1, x2):
        xi = np.array([0.3, -0.2, 0.1])
        x = np.array([x1, x2, 0.7])
        b = Layer(mu=mu, xi=xi)
        lhs = float(bubble_at(D3, b, x))
        rhs = mu ** (-0.5) * float(unit_bubble(D3, (x - xi) / mu))
        assert_allclose(lhs, rhs, rtol=5e-15)

    def test_radial_form_matches(self):
        r = np.linspace(0.0, 2.0, 17)
        pts = np.stack([r, 0 * r, 0 * r], axis=-1)
        b = Layer(mu=0.3, xi=np.zeros(3))
        assert_allclose(bubble_radial(D3, r, 0.3), bubble_at(D3, b, pts), rtol=1e-15)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ParameterError):
            Layer(mu=0.0, xi=np.zeros(3))
        with pytest.raises(ParameterError):
            bubble_radial(D3, 1.0, -0.5)


class TestPsi:
    def test_value_at_center(self):
        # (|y|^2 - 1) = -1 at the origin
        v = float(psi_at(D3, 0, 1.0, np.zeros(3), np.zeros(3)))
        assert_allclose(v, -0.5 * 1.0 * 3.0**0.25, rtol=1e-15)
        assert_allclose(v, -0.6580370064762462, rtol=1e-12)

    def test_zero_on_unit_sphere(self):
        x = np.array([0.6, 0.8, 0.0])
        assert abs(float(psi_at(D3, 0, 1.0, np.zeros(3), x))) < 1e-15

    def test_translation_mode_is_scale_derivative(self):
        # psi^1 = mu dU/dxi_1 via central differences
        x = np.array([1.0, 0.0, 0.0])
        mu, h = 1.0, 1e-6
        def u_shift(s):
            b = Layer(mu=mu, xi=np.array([s, 0.0, 0.0]))
            return float(bubble_at(D3, b, x))
        fd = mu * (u_shift(h) - u_shift(-h)) / (2 * h)
        assert_allclose(float(psi_at(D3, 1, mu, np.zeros(3), x)), fd, rtol=1e-8)

    def test_dilation_mode_is_mu_derivative(self):
        x = np.array([0.7, -0.2, 0.4])
        mu, h = 0.8, 1e-6
        def u_mu(m):
            return float(bubble_at(D3, Layer(mu=m, xi=np.zeros(3)), x))
        fd = mu * (u_mu(mu + h) - u_mu(mu - h)) / (2 * h)
        assert_allclose(float(psi_at(D3, 0, mu, np.zeros(3), x)), fd, rtol=1e-8)

    def test_index_range(self):
        with pytest.raises(ParameterError):
            psi_at(D3, 4, 1.0, np.zeros(3), np.ones(3))
        with pytest.raises(ParameterError):
            psi_at(D3, -1, 1.0, np.zeros(3), np.ones(3))


class TestNonlinearity:
    def test_zero_eps_reduction(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(50) * 5
        assert_allclose(f_eps(D3, u, 0.0), np.abs(u)**4 * u, rtol=1e-14)

    def test_origin(self):
        assert f_eps(D3, 0.0, 0.7) == 0.0
        assert f_eps_prime(D3, 0.0, 0.7) == 0.0

    def test_exact_log_value(self):
        # at u = e^2 - e the shifted log equals 2 exactly
        u = np.e**2 - np.e
        assert_allclose(f_eps(D3, u, 1.0), u**5 / 2.0, rtol=1e-14)

    @given(st.floats(-50.0, 50.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_odd(self, u, eps):
        assert_allclose(f_eps(D3, -u, eps), -f_eps(D3, u, eps), rtol=1e-13, atol=1e-300)

    def test_derivative_matches_fd(self):
        u, eps, h = 1.0, 0.1, 1e-6
        fd = (f_eps(D3, u + h, eps) - f_eps(D3, u - h, eps)) / (2 * h)
        assert_allclose(f_eps_prime(D3, u, eps), fd, rtol=1e-8)

    def test_power_rule_at_zero_eps(self):
        u = np.linspace(-4, 4, 31)
        assert_allclose(f_eps_prime(D3, u, 0.0), 5.0 * np.abs(u)**4, rtol=1e-14)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_zero_eps_derivative_takes_no_log(self, monkeypatch, n):
        dim = Dimension(n)
        calls = []
        real = profiles._log_shifted

        def counted(u_abs):
            calls.append(len(u_abs))
            return real(u_abs)

        monkeypatch.setattr(profiles, "_log_shifted", counted)
        rng = np.random.default_rng(n)
        u = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-300, 30, 200)
        u[::23] = 0.0
        with np.errstate(over="ignore"):
            got = f_eps_prime(dim, u, 0.0)
            assert np.array_equal(got, dim.p * np.abs(u) ** (dim.p - 1.0))
            assert calls == []
            f_eps_prime(dim, u, 0.1)
        assert calls == [200]

    @given(st.floats(-100.0, 100.0), st.floats(0.001, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_perturbation_bound(self, u, eps):
        # |f_eps(u) - f_0(u)| <= eps |u|^p lnln(e+|u|); the slack absorbs the
        # cancellation noise of the computed difference for tiny |u|
        f0 = float(f_eps(D3, u, 0.0))
        lhs = abs(float(f_eps(D3, u, eps)) - f0)
        rhs = eps * abs(u)**5 * np.log(np.log(np.e + abs(u)))
        assert lhs <= rhs * (1 + 1e-6) + 1e-13 * abs(f0) + 1e-300

    @given(st.floats(-100.0, 100.0), st.floats(0.0, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_derivative_dominated_by_power(self, u, eps):
        # f'_eps(u) <= C |u|^{p-1} with C = p
        assert float(f_eps_prime(D3, u, eps)) <= 5.0 * abs(u)**4 * (1 + 1e-12)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.2])
    def test_fused_pair_is_bitwise_f_and_f_prime(self, n, eps):
        # against the two formulas written on their own
        dim = Dimension(n)
        u = wide_values(n, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            f, fp = _f_and_prime(dim, u, eps)
            assert not np.shares_memory(f, fp)      # callers scale f in place
            assert np.array_equal(f, ref.f_eps(dim, u, eps), equal_nan=True)
            assert np.array_equal(fp, ref.f_eps_prime(dim, u, eps),
                                  equal_nan=True)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.05, 0.3])
    def test_public_pair_is_the_reference_on_arrays_and_scalars(self, n,
                                                                eps):
        # numpy takes a scalar's power with libm's pow and an array's with
        # its vector loop, which differ in the last bit (f_eps at n = 11,
        # u = -2.5, eps = 0): a scalar must stay a scalar
        dim = Dimension(n)
        u = np.append(wide_values(n, 60), [-2.5, 2.5, 0.3, -7.0])
        with np.errstate(over="ignore", invalid="ignore"):
            for public, formula in ((f_eps, ref.f_eps),
                                    (f_eps_prime, ref.f_eps_prime)):
                assert np.array_equal(public(dim, u, eps),
                                      formula(dim, u, eps), equal_nan=True)
                for x in u.tolist():
                    for arg in (x, np.float64(x), np.array(x)):
                        got = public(dim, arg, eps)
                        assert np.ndim(got) == 0
                        assert np.array_equal(got, formula(dim, x, eps),
                                              equal_nan=True)

    def test_powers_of_f_and_f_prime_differ_in_the_last_bit(self):
        # the fused pair takes a second power for these n, where 2* - 2
        # and p - 1 are the same number but round differently, and one
        # power for the others: test_fused_pair_is_bitwise_f_and_f_prime
        # covers both branches
        differ = [n for n in range(3, 13)
                  if Dimension(n).two_star - 2.0 != Dimension(n).p - 1.0]
        assert differ == [7, 8, 9, 11]

    def test_shifted_log_splitting_identity(self):
        # lnln(e + mu^-theta u) = lnln(mu^-theta)
        #                         + ln(1 + ln(e^{1-theta|ln mu|} + u)/(theta |ln mu|))
        theta, u = 1.5, 2.7
        for mu in (1e-2, 1e-4, 1e-8):
            lhs = np.log(np.log(np.e + mu**-theta * u))
            L = theta * abs(np.log(mu))
            rhs = np.log(L) + np.log1p(np.log(np.exp(1.0 - L) + u) / L)
            assert_allclose(lhs, rhs, rtol=1e-13)

    def test_shifted_log_limit_by_extrapolation(self):
        # |ln mu| * ln(1 + ln(e^{1-theta|ln mu|}+u)/(theta |ln mu|)) -> ln(u)/theta
        theta, u = 2.0, 3.3
        target = np.log(u) / theta
        vals = []
        for mu in (1e-3, 1e-6, 1e-12):
            L = theta * abs(np.log(mu))
            vals.append(abs(np.log(mu)) * np.log1p(np.log(np.exp(1 - L) + u) / L)
                        - target)
        assert abs(vals[1]) < abs(vals[0])
        assert abs(vals[2]) < abs(vals[1])
        assert abs(vals[2]) < 5e-2 * abs(target)
