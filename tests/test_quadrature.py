import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubbletower import quadrature
from bubbletower.asymptotics import _coordinate_moment
from bubbletower.errors import AccuracyError, ParameterError
from bubbletower.profiles import Dimension, bubble_radial, psi_radial
from bubbletower.quadrature import (_adaptive_gl, _panel_nodes, _row_panels,
                                    beta, bubble_power_integral,
                                    const_a, const_a_closed, g_sigma,
                                    g_sigma_closed, gauss_jacobi_sym,
                                    gram_limit_constant, integrate_radial,
                                    tabulate_g)
from oracles.ball import sphere_rule

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

    @pytest.mark.parametrize("n", [3, 4])
    def test_bubble_power_integral_by_quadrature(self, n):
        # the Beta-function value of ∫ U^{2*} against the radial integral
        dim = Dimension(n)
        quad = dim.sphere_area * integrate_radial(
            lambda r: bubble_radial(dim, r, 1.0) ** dim.two_star
            * r ** (n - 1.0), seeds=(1.0, 4.0))
        assert_allclose(quad, bubble_power_integral(dim), rtol=1e-8)

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

    def test_profile_has_maximum_at_origin(self):
        # tabulated profile is strictly decreasing in |sigma|
        table, kind = tabulate_g(D3, np.linspace(0, 3, 7))
        assert kind == "maximum"
        assert np.all(np.diff(table[:, 1]) < 0)

    @pytest.mark.parametrize("n, s", [(3, 0.7), (5, 1.3)])
    def test_integrand_is_pointwise(self, monkeypatch, n, s):
        # each node's value is the same to the bit whether it is evaluated
        # alone or as any row of a 17-row call, so the adaptive integrator
        # may lay its nodes out as it likes
        captured = []

        def capture(g, *args, **kwargs):
            captured.append(g)
            return 0.0

        monkeypatch.setattr(quadrature, "integrate_radial", capture)
        sigma = np.zeros(n)
        sigma[0] = s
        g_sigma(Dimension(n), sigma)
        (g,) = captured
        r = np.random.default_rng(n).uniform(0.0, 3.0, 17)
        full = g(r)
        for i in range(17):
            assert g(r[i:i + 1])[0] == full[i]
        assert np.array_equal(g(r[5:12]), full[5:12])


def sequential_adaptive_gl(f, a, b, rel_tol, *, seeds=None, max_panels=4000):
    """Oracle: the panel-at-a-time form of ``quadrature._adaptive_gl``, which
    calls ``f`` twice per panel (8 nodes, then 16)."""
    def panel_values(lo, hi, m):
        x, w = np.polynomial.legendre.leggauss(m)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = f(mid + half * x)
        return half * float(np.dot(w, y)), half * float(np.dot(w, np.abs(y)))

    def panel(lo, hi):
        coarse, _ = panel_values(lo, hi, 8)
        fine, fabs = panel_values(lo, hi, 16)
        return abs(fine - coarse), lo, hi, fine, fabs

    if seeds is None:
        seeds = [a, b]
    seeds = sorted(set(float(s) for s in seeds if a <= s <= b) | {a, b})
    panels = [panel(lo, hi) for lo, hi in zip(seeds[:-1], seeds[1:])
              if hi > lo]
    for _ in range(max_panels):
        total = sum(p[3] for p in panels)
        total_abs = sum(p[4] for p in panels)
        err = sum(p[0] for p in panels)
        if err <= rel_tol * max(abs(total), total_abs, 1e-300):
            return total, err, total_abs
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        panels += [panel(lo, mid), panel(mid, hi)]
    err = sum(p[0] for p in panels)
    raise AccuracyError("panel budget exhausted", estimate=err)


def sequential_rows(f, rows, a, b, rel_tol, **kw):
    """The oracle on each of the ``rows`` rows of ``f`` alone."""
    return [sequential_adaptive_gl(lambda x, j=j: f(x)[j], a, b, rel_tol,
                                   **kw) for j in range(rows)]


MU = 1e-4
SPHERE_PTS, SPHERE_W = sphere_rule(3, 12)


def _shell(r):
    # a shell average over a sphere rule: a row-wise product per radius
    xy = r[:, None, None] * SPHERE_PTS[None, :, :]
    vals = np.exp(-np.sum(xy * xy, axis=-1)) * (1.0 + xy[..., 0])
    return (vals @ SPHERE_W) * r ** 2


def _mapped(g):
    # integrate_radial's map of the half line onto [0, 1)
    def mapped(u):
        return g(u / (1.0 - u)) / (1.0 - u) ** 2
    return mapped


def _g_sigma_integrand(s):
    # the radial integrand of g_sigma for n = 3, a row-wise product per r
    t, wt = gauss_jacobi_sym(48, 0.0)

    def g(r):
        q = 1.0 + r[:, None] ** 2 - 2.0 * r[:, None] * s * t[None, :] + s * s
        return r * (q ** -2.5 @ wt)
    return g


# (integrand, a, b, rel_tol, keyword arguments of _adaptive_gl)
BATCH_CASES = {
    "smooth": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 2.0, 1e-12, {}),
    "peaked_bubble": (
        lambda r: bubble_radial(D3, r, MU) ** 6 * r ** 2, 0.0, 1.0, 1e-9,
        {"seeds": [0.0, MU / 8, MU, 8 * MU, np.sqrt(MU), 0.5, 1.0]}),
    "sign_changing_floor": (
        # changes sign at r = mu; the relative target is taken against the
        # larger of |integral| and the integral of |f|
        lambda r: psi_radial(D3, r, 1e-3) * r ** 2, 0.0, 1.0, 1e-12,
        {"seeds": [0.0, 1e-3, 0.5, 1.0]}),
    "shell": (_shell, 0.0, 8.0, 1e-9,
              {"seeds": [0.0, *np.geomspace(8e-6, 8.0, 6)]}),
    "mapped_const_a2": (
        _mapped(lambda r: (D3.alpha * (1.0 + r * r) ** -0.5) ** 5 * r ** 2),
        0.0, 1.0, 1e-10, {"seeds": [0.0, 0.5, 0.5, 0.8, 1.0 - 1e-12]}),
    "mapped_g_sigma": (
        _mapped(_g_sigma_integrand(1.3)), 0.0, 1.0, 1e-10,
        {"seeds": [0.0, 0.5, 0.5, 1.3 / 2.3, 2.6 / 3.6, 1.0 - 1e-12]}),
    # the layout of verify's ball integrals, which nearly all pass on their
    # seed panels without a split
    "ball_layout": (
        lambda r: bubble_radial(D3, r, MU) ** 6 * r ** 2, 0.0, 1.0, 1e-9,
        {"seeds": quadrature._ball_panel_edges(1.0, [MU])}),
}
# the cases that _adaptive_gl accepts on their seed panels
SEED_ACCEPTED = {"ball_layout"}


class TestBatchedPanels:
    """``_adaptive_gl`` evaluates whole panels per call and must round
    exactly as the panel-at-a-time oracle does."""

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_bitwise_equal_to_sequential(self, case):
        f, a, b, tol, kw = BATCH_CASES[case]
        got = _adaptive_gl(f, a, b, tol, **kw)
        want = sequential_adaptive_gl(f, a, b, tol, **kw)
        assert got == want
        assert want[1] > 0.0

    @pytest.mark.parametrize("offset", [0, 1, 3, 5])
    def test_stacked_panel_sums_equal_per_panel_dot(self, offset):
        # _row_panels' columns from stacked matmuls against one np.dot per
        # panel slice, on seeded values of magnitude e^-300 .. e^300 read
        # at an element offset into their buffer
        rng = np.random.default_rng(offset)
        _, w8 = np.polynomial.legendre.leggauss(8)
        _, w16 = np.polynomial.legendre.leggauss(16)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            size = 24 * m + offset
            buf = rng.standard_normal(size) * np.exp(rng.uniform(-300, 300,
                                                                 size))
            lo = rng.uniform(-5.0, 5.0, m)
            hi = lo + rng.uniform(1e-6, 2.0, m)
            nodes, half = _panel_nodes(lo, hi)
            got = _row_panels(np.atleast_2d(buf[offset:offset + len(nodes)]),
                              lo.tolist(), hi.tolist(), half)[0]
            want = ([], [], [], [], [])
            for a, b, row in zip(lo.tolist(), hi.tolist(),
                                 buf[offset:].reshape(m, 24)):
                h = 0.5 * (b - a)
                coarse = h * float(np.dot(w8, row[:8]))
                fine = h * float(np.dot(w16, row[8:]))
                panel = (abs(fine - coarse), a, b, fine,
                         h * float(np.dot(w16, np.abs(row[8:]))))
                for col, v in zip(want, panel):
                    col.append(v)
            assert got == want

    def test_seed_panels_are_memoised_read_only(self):
        f, a, b, tol, kw = BATCH_CASES["ball_layout"]
        want = sequential_adaptive_gl(f, a, b, tol, **kw)
        assert _adaptive_gl(f, a, b, tol, **kw) == want
        key = (a, b, tuple(kw["seeds"].tolist()))
        edges, nodes, half = quadrature._seed_panels(*key)
        assert quadrature._seed_panels(*key)[1] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        with pytest.raises(ValueError):
            half[0] = 1.0
        # a second integral on the same seeds reads the memoised nodes
        assert _adaptive_gl(f, a, b, tol, **kw) == want

    def test_budget_exhaustion_is_unchanged(self):
        f = lambda x: np.abs(x - 1.0 / 3.0) ** -0.5
        with pytest.raises(AccuracyError) as got:
            _adaptive_gl(f, 0.0, 1.0, 1e-14, max_panels=12)
        with pytest.raises(AccuracyError) as want:
            sequential_adaptive_gl(f, 0.0, 1.0, 1e-14, max_panels=12)
        assert got.value.estimate == want.value.estimate

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_one_call_per_split(self, case):
        f, a, b, tol, kw = BATCH_CASES[case]
        sizes, seq_sizes = [], []

        def counted(log):
            def g(x):
                log.append(len(x))
                return f(x)
            return g

        _adaptive_gl(counted(sizes), a, b, tol, **kw)
        sequential_adaptive_gl(counted(seq_sizes), a, b, tol, **kw)
        # the oracle calls f twice per seed panel and four times per split
        seed_panels = len({a, b, *kw.get("seeds", ())}) - 1
        splits = (len(seq_sizes) - 2 * seed_panels) // 4
        assert (splits == 0) == (case in SEED_ACCEPTED)
        assert sizes == [24 * seed_panels] + [48] * splits

    def test_library_integrals_unchanged(self, monkeypatch):
        from bubbletower import asymptotics, quadrature
        dim4 = Dimension(4)

        def psi_row(r):
            # the one row of a ball integral: psi0 of scale MU
            return [psi_radial(D3, r, MU)]

        def values():
            return [const_a(D3, 1), const_a(dim4, 2), const_a(dim4, 4),
                    g_sigma(D3, [0.0, 0.0, 0.0]), g_sigma(dim4, [1.7, 0, 0, 0]),
                    gram_limit_constant(D3, 1),
                    *asymptotics._ball_lq_integrals(
                        D3, psi_row, [3.0], [MU], radius=1.0)]

        got = values()
        monkeypatch.setattr(quadrature, "_adaptive_gl", sequential_adaptive_gl)
        # the ball integrals pass one integrand of one row
        monkeypatch.setattr(asymptotics, "_adaptive_gl",
                            lambda f, *args, **kw: sequential_rows(
                                f, 1, *args, **kw))
        assert got == values()


def _smallest_eps_integrand(check, n, k):
    """The integrand of several rows, the interval, the tolerance and the
    seeds of the last ball integral that ``verify`` asks for in ``check``
    at dimension n: that of the smallest eps.  The interaction rows are
    those of the tower of the k-layer reduced roots."""
    from bubbletower import asymptotics
    from bubbletower.domain import BallDomain
    from bubbletower.reduced import ReducedConstants, solve_reduced

    dim = Dimension(n)
    dom = BallDomain(dim)
    calls = []
    real = asymptotics._adaptive_gl

    def spy(f, a, b, rel_tol, **kw):
        calls.append((f, a, b, rel_tol, kw["seeds"]))
        return real(f, a, b, rel_tol, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "_adaptive_gl", spy)
        if check == "norms":
            asymptotics.verify_norm_scaling(dom, [
                ("U", 2.0), ("psi0", dim.two_star), ("psih", 2.0)])
        else:
            dbar = solve_reduced(dim, k, ReducedConstants.for_ball(dom),
                                 dom).dbar
            asymptotics.verify_nonlinear_interactions(dom, k, dbar=dbar)
    return calls[-1]


class TestSeveralRows:
    """An integrand of several rows is integrated exactly as each row
    alone, its failing rows refined in lockstep."""

    # verify's three interaction rows and its three norm rows at the
    # smallest eps, and the rows that fail on their seed panels: at n = 5
    # the sumbu2 row (k = 2) and the psi0 norm row split, the others pass
    # on their seeds
    @pytest.mark.parametrize("check, n, k, refined", [
        ("interactions", 5, 2, {0}), ("interactions", 4, 3, set()),
        ("norms", 3, None, set()), ("norms", 5, None, {1})])
    def test_rows_equal_one_row_calls(self, check, n, k, refined):
        f, a, b, tol, seeds = _smallest_eps_integrand(check, n, k)
        calls = []

        def counted(x):
            calls.append(len(x))
            return f(x)

        got = _adaptive_gl(counted, a, b, tol, seeds=seeds)
        # the oracle evaluates every row at every node
        assert got == sequential_rows(f, 3, a, b, tol, seeds=seeds)
        splits = []
        for j, triple in enumerate(got):
            one_sizes = []

            def one(x, j=j):
                one_sizes.append(len(x))
                return f(x)[j]

            assert triple == _adaptive_gl(one, a, b, tol, seeds=seeds)
            splits.append(len(one_sizes) - 1)
        assert {j for j, s in enumerate(splits) if s} == refined
        # one call on the seed panels for every row, then one call per
        # split of the one row that refines, on the split panel's two halves
        assert calls == [24 * (len(seeds) - 1)] + [48] * sum(splits)

    def test_failing_rows_split_in_lockstep(self):
        # both rows fail on their two seed panels; each round, one call on
        # the halves of every row that still fails: 96 nodes while both
        # refine, then 48 for the row that refines longer
        def rows(x):
            return np.stack([np.sqrt(x), np.abs(x - 1.0 / 3.0) ** 1.5])

        seeds = [0.0, 0.5, 1.0]
        calls = []

        def counted(x):
            calls.append(len(x))
            return rows(x)

        got = _adaptive_gl(counted, 0.0, 1.0, 1e-10, seeds=seeds)
        assert got == sequential_rows(rows, 2, 0.0, 1.0, 1e-10, seeds=seeds)
        splits = []
        for j, triple in enumerate(got):
            one_sizes = []

            def one(x, j=j):
                one_sizes.append(len(x))
                return rows(x)[j]

            assert triple == _adaptive_gl(one, 0.0, 1.0, 1e-10, seeds=seeds)
            splits.append(len(one_sizes) - 1)
        both, longer = min(splits), max(splits)
        assert 0 < both < longer
        assert calls == [24 * 2] + [96] * both + [48] * (longer - both)

    def test_budget_exhaustion_is_that_of_the_row(self):
        # the cubic passes on its seed panel, the singular row runs out
        cubic = lambda x: x ** 3
        singular = lambda x: np.abs(x - 1.0 / 3.0) ** -0.5

        def rows(x):
            return np.stack([cubic(x), singular(x)])

        with pytest.raises(AccuracyError) as got:
            _adaptive_gl(rows, 0.0, 1.0, 1e-14, max_panels=12)
        with pytest.raises(AccuracyError) as alone:
            _adaptive_gl(singular, 0.0, 1.0, 1e-14, max_panels=12)
        assert got.value.estimate == alone.value.estimate
        assert str(got.value) == str(alone.value)

    @pytest.mark.parametrize("offset", [0, 3])
    def test_stacked_row_sums_equal_per_panel_dot(self, offset):
        # each row's columns from the stacked sums of all rows equal those
        # of the row alone
        rng = np.random.default_rng(offset)
        for rows in (2, 3, 5):
            m = int(rng.integers(1, 30))
            buf = rng.standard_normal(24 * m * rows + offset)
            lo = rng.uniform(-5.0, 5.0, m)
            hi = lo + rng.uniform(1e-6, 2.0, m)
            y = buf[offset:].reshape(rows, -1)
            _, half = _panel_nodes(lo, hi)
            got = _row_panels(y, lo.tolist(), hi.tolist(), half)
            assert got == [_row_panels(np.atleast_2d(row), lo.tolist(),
                                       hi.tolist(), half)[0] for row in y]


class TestBallPanelEdges:
    """The memoised panel layout of the ball integrals against its
    formula."""

    # the last two ask for 3 and 1 geometric panels, below the floor of 4
    @pytest.mark.parametrize("radius, scales", [
        (1.0, [1e-4]), (1.0, [0.03, 2.65e-16]), (2.0, np.array([0.7, 0.1])),
        (1.3, [1e-9]), (0.8, [20.0, 30.0]), (1.0, [50.0]), (2.0, [150.0])])
    def test_matches_geomspace_formula(self, radius, scales):
        rmin = min(scales) / 100.0
        count = max(4, int(np.ceil(np.log10(radius / rmin) * 8)))
        want = np.concatenate([[0], np.geomspace(rmin, radius, count + 1)])
        got = quadrature._ball_panel_edges(radius, scales)
        assert np.array_equal(got, want)
        assert len(got) >= 6

    def test_read_only_and_shared(self):
        got = quadrature._ball_panel_edges(1.0, [1e-3, 0.2])
        with pytest.raises(ValueError):
            got[0] = 1.0
        # equal keys (R, min(scales)/100) give the same object
        assert quadrature._ball_panel_edges(1, np.array([0.5, 1e-3])) is got
        assert quadrature._ball_panel_edges(1.0, [2e-3]) is not got
