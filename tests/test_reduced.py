import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from bubbletower.domain import BallDomain, find_robin_min
from bubbletower import reduced
from bubbletower.errors import ParameterError, SolverError
from bubbletower.profiles import Dimension
from bubbletower.quadrature import const_a_closed, g_sigma_closed
from bubbletower.reduced import (ReducedConstants, ReducedState, _balance_fn,
                                 bracket_roots, eval_G, jacobian_fd,
                                 layer_balances, solve_reduced)

D3 = Dimension(3)
D4 = Dimension(4)
B3 = BallDomain(D3)
B4 = BallDomain(D4)


def closed_constants(dom):
    """Independent constants built from closed forms only."""
    dim = dom.dim
    return ReducedConstants(
        dim,
        const_a_closed(dim, 1), const_a_closed(dim, 2),
        const_a_closed(dim, 3), const_a_closed(dim, 4),
        lambda s: g_sigma_closed(dim, np.linalg.norm(np.atleast_1d(s))),
        dom.robin, dom.robin_grad)


def bisect_layer1(dom):
    """Scalar-equation oracle: alpha a1 s phi(0) = 2 a4 |ln s| on (0, 1)."""
    dim = dom.dim
    a1 = const_a_closed(dim, 1)
    a4 = const_a_closed(dim, 4)
    phi = dom.robin(dom.center)
    n = dim.n
    f = lambda s: dim.alpha * a1 * s ** (n - 2) * phi + 2 * a4 * np.log(s)
    return brentq(f, 1e-8, 1 - 1e-14, rtol=8.9e-16)


def bisect_layer2(dom):
    """Oracle for the second scale ratio: a3 g(0) s^{(n-2)/2} = (2/3) a4 |ln s|."""
    dim = dom.dim
    a3 = const_a_closed(dim, 3)
    a4 = const_a_closed(dim, 4)
    g0 = g_sigma_closed(dim, 0.0)
    n = dim.n
    f = lambda s: a3 * g0 * s ** ((n - 2) / 2) + (2.0 / 3.0) * a4 * np.log(s)
    return brentq(f, 1e-12, 1 - 1e-14, rtol=8.9e-16)


class TestEvalG:
    def test_gradient_rows_vanish_at_minimiser(self):
        consts = closed_constants(B3)
        st = ReducedState(D3, 1, [0.5], [], np.zeros(3))
        G = eval_G(st, consts)
        assert_allclose(G[1:], np.zeros(3), atol=1e-300)

    def test_single_layer_at_unit_ratio(self):
        # |ln 1| = 0, so G_0 reduces to the Robin term
        consts = closed_constants(B3)
        st = ReducedState(D3, 1, [1.0], [], np.zeros(3))
        G = eval_G(st, consts)
        assert_allclose(G[0], D3.alpha * consts.a1 * consts.robin(np.zeros(3)),
                        rtol=1e-14)

    def test_sign_change_bracket(self):
        consts = closed_constants(B3)
        lo = eval_G(ReducedState(D3, 1, [1e-6], [], np.zeros(3)), consts)[0]
        hi = eval_G(ReducedState(D3, 1, [1e6], [], np.zeros(3)), consts)[0]
        assert lo < 0 < hi

    def test_balances_sum_to_G0(self):
        consts = closed_constants(B3)
        st = ReducedState(D3, 2, [0.4, 0.07], [np.zeros(3)], np.zeros(3))
        assert_allclose(np.sum(layer_balances(st, consts)),
                        eval_G(st, consts)[0], rtol=1e-14)


class TestSolve:
    def test_k1_n3_matches_bisection_oracle(self):
        consts = closed_constants(B3)
        st = solve_reduced(D3, 1, consts, B3)
        assert_allclose(st.s[0], bisect_layer1(B3), rtol=1e-10)
        assert_allclose(st.s[0], 0.7406801701108005, rtol=1e-9)
        assert np.max(np.abs(st.Gvalue)) < 1e-10

    def test_k1_n4_multiple_roots_and_tiebreak(self):
        consts = closed_constants(B4)
        st = solve_reduced(D4, 1, consts, B4)
        roots = st.all_roots[0]
        assert any(r < 1 for r in roots)
        assert any(r > 1 for r in roots)
        assert len(roots) % 2 == 1      # odd number of crossings
        assert st.s[0] == min(roots)    # deterministic smallest-root rule
        assert st.s[0] < 1.0

    def test_k2_n3_both_ratios(self):
        consts = closed_constants(B3)
        st = solve_reduced(D3, 2, consts, B3)
        assert_allclose(st.s[0], bisect_layer1(B3), rtol=1e-10)
        assert_allclose(st.s[1], bisect_layer2(B3), rtol=1e-10)
        assert_allclose(st.s[1], 0.042639307620081925, rtol=1e-8)
        assert np.max(np.abs(st.Gvalue)) < 1e-10

    def test_quadrature_constants_route(self):
        # same roots from the quadrature-backed constants within 1e-7
        consts = ReducedConstants.for_ball(B3)
        st = solve_reduced(D3, 1, consts, B3)
        assert_allclose(st.s[0], 0.7406801701108005, rtol=1e-7)

    def test_scale_equivariance_of_roots(self):
        base = closed_constants(B3)
        scaled = ReducedConstants(
            D3, 7.0 * base.a1, base.a2, 7.0 * base.a3, 7.0 * base.a4,
            base.g, base.robin, base.robin_grad)
        s_base = solve_reduced(D3, 2, base, B3).s
        s_scaled = solve_reduced(D3, 2, scaled, B3).s
        assert_allclose(s_base, s_scaled, rtol=1e-10)

    def test_solvable_under_rescaled_green_convention(self):
        # multiplying the Robin evaluators by the fundamental-solution
        # normalisation only rescales the roots; residuals stay tiny
        base = closed_constants(B3)
        factor = (D3.n - 2) * D3.sphere_area
        conv = ReducedConstants(
            D3, base.a1, base.a2, base.a3, base.a4, base.g,
            lambda x: factor * B3.robin(x),
            lambda x: factor * B3.robin_grad(x))
        st = solve_reduced(D3, 1, conv, B3)
        assert np.max(np.abs(st.Gvalue)) < 1e-10
        assert not np.isclose(st.s[0], 0.7406801701108005)

    def test_g_extremum_reported(self):
        consts = closed_constants(B3)
        st = solve_reduced(D3, 2, consts, B3)
        assert st.g_extremum == "maximum"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n7_roots_are_the_bisected_floats(self, k):
        # no float next to a root brings its balance closer to zero, so
        # there is nothing left to polish
        dom = BallDomain(Dimension(7))
        consts = ReducedConstants.for_ball(dom)
        st = solve_reduced(dom.dim, k, consts, dom)
        for i in range(1, k + 1):
            fn = _balance_fn(i, st, consts)
            s = st.s[i - 1]
            assert abs(fn(s)) <= abs(fn(np.nextafter(s, 0.0)))
            assert abs(fn(s)) <= abs(fn(np.nextafter(s, 1.0)))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_unit_ball_roots_pass_the_residual_check(self, n):
        # the balance terms grow with n (a4 = 1.1e8 at n = 10), and the
        # bound grows with them
        dom = BallDomain(Dimension(n))
        consts = ReducedConstants.for_ball(dom)
        for k in (1, 2, 3):
            solve_reduced(dom.dim, k, consts, dom)

    @pytest.mark.parametrize("n, radius",
                             [(3, 1e3), (4, 30.0), (5, 10.0), (10, 3.0)])
    def test_k1_on_a_large_ball_passes_the_residual_check(self, n, radius):
        # phi ~ R^{2-n} puts s_1 near 1, where one float step moves the
        # balance by far more than eps times its terms
        dom = BallDomain(Dimension(n), radius=radius)
        consts = ReducedConstants.for_ball(dom)
        st = solve_reduced(dom.dim, 1, consts, dom)
        assert 0.0 < 1.0 - st.s[0] < 1e-3

    @pytest.mark.parametrize("n", [3, 10])
    def test_root_off_by_1e9_relative_is_rejected(self, n, monkeypatch):
        # the residual bound is relative to the balance terms, yet far
        # below what a root moved by 1e-9 leaves
        dom = BallDomain(Dimension(n))
        consts = ReducedConstants.for_ball(dom)
        solve_reduced(dom.dim, 2, consts, dom)
        exact = reduced.bracket_roots
        monkeypatch.setattr(reduced, "bracket_roots",
                            lambda fn: [r * (1.0 + 1e-9) for r in exact(fn)])
        with pytest.raises(SolverError, match="reduced residual"):
            solve_reduced(dom.dim, 2, consts, dom)


class TestJacobian:
    def test_gradient_rows_independent_of_inner_ratios(self):
        consts = closed_constants(B3)
        st = solve_reduced(D3, 2, consts, B3)
        J = st.jac
        # rows 1..n, column of s_2 (index 1)
        assert np.max(np.abs(J[1:, 1])) < 1e-8

    def test_scalar_derivative_matches_analytic(self):
        consts = closed_constants(B3)
        st = solve_reduced(D3, 1, consts, B3)
        s = st.s[0]
        phi = consts.robin(st.xi)
        # on the s < 1 branch |ln s| = -ln s
        analytic = D3.alpha * consts.a1 * phi + 2.0 * consts.a4 / s
        assert_allclose(st.jac[0, 0], analytic, rtol=1e-6)

    def test_smallest_singular_value_positive(self):
        consts = closed_constants(B3)
        for k in (1, 2):
            st = solve_reduced(D3, k, consts, B3)
            assert st.jac_smin > 0

    def test_kink_guard(self):
        consts = closed_constants(B3)
        st = ReducedState(D3, 1, [1.0 + 1e-9], [], np.zeros(3))
        with pytest.raises(ParameterError):
            jacobian_fd(st, consts)


def brentq_roots(fn, lo=1e-6, hi=1e6, points=97):
    """Oracle for bracket_roots: the same log-grid brackets, each by brentq."""
    grid = np.geomspace(lo, hi, points)
    vals = [fn(s) for s in grid]
    return [brentq(fn, a, b, xtol=1e-300, rtol=8.9e-16)
            for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
            if fa * fb < 0]


def assert_matches_brentq(fn, lo=1e-6, hi=1e6):
    roots = bracket_roots(fn, lo, hi)
    oracle = brentq_roots(fn, lo, hi)
    assert len(roots) == len(oracle) > 0
    for r, q in zip(roots, oracle):
        assert abs(r - q) <= 4 * np.spacing(q), (r, q)
        assert abs(fn(r)) <= abs(fn(q)), (r, q, fn(r), fn(q))


class TestBracket:
    def test_all_roots_polished(self):
        f = lambda s: (s - 0.3) * (s - 2.0) * (s - 40.0)
        roots = bracket_roots(f, 1e-3, 1e3)
        assert_allclose(roots, [0.3, 2.0, 40.0], rtol=1e-12)
        assert_matches_brentq(f, 1e-3, 1e3)

    def test_no_root_is_empty(self):
        assert bracket_roots(lambda s: 1.0 + s) == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_layer_balances_match_brentq(self, n):
        dom = BallDomain(Dimension(n))
        consts = closed_constants(dom)
        proto = ReducedState(dom.dim, 3, np.ones(3), [np.zeros(n)] * 2,
                             dom.center)
        for i in (1, 2, 3):
            assert_matches_brentq(_balance_fn(i, proto, consts))


class TestClosedFormCentre:
    # translated balls; for n = 5 the Robin search scans the axes only
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_centre_is_the_robin_minimiser(self, n):
        dom = BallDomain(Dimension(n), radius=1.7,
                         center=np.array([0.3, -1.7] + [2.5] * (n - 2)))
        st = solve_reduced(dom.dim, 2, closed_constants(dom), dom)
        half = (dom.radius - 0.1) / np.sqrt(n)
        oracle = find_robin_min(dom, (dom.center - half, dom.center + half))
        assert np.array_equal(st.xi, dom.center)
        assert_allclose(st.xi, oracle, rtol=0, atol=1e-8)
        assert np.all(dom.robin_grad(st.xi) == 0.0)
        assert np.all(st.Gvalue[1:] == 0.0)
