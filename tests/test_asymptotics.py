import numpy as np
import pytest

from bubbletower import asymptotics
from bubbletower.asymptotics import (EPS_GRID, _probe_bound,
                                     verify_nonlinear_interactions,
                                     verify_norm_scaling,
                                     verify_projection_and_gram)
from bubbletower.domain import BallDomain
from bubbletower.errors import ParameterError
from bubbletower.profiles import Dimension, f_eps_prime
from bubbletower.projection import project_tower_layers
from bubbletower.reduced import ReducedConstants, solve_reduced
from bubbletower.tower import (TowerConfig, fit_asymptotic_order,
                               scale_variable)
from oracles import nonlinearity as ref

D3 = Dimension(3)
B3 = BallDomain(D3)

S1_ROOT = 0.7406801701108005
D2_ROOT = 0.031582089621449034


CASES = ("sumbu2", "fepli1", "fepli2")    # the order of the three rows


def interaction(dom, k, case, dbar):
    """The row of ``case`` among the three of one interaction check."""
    rows = verify_nonlinear_interactions(dom, k, dbar=dbar)
    assert [row.name for row in rows] == [f"interaction[{c}, k={k}]"
                                          for c in CASES]
    return rows[CASES.index(case)]


def norm(dom, which, q):
    """The one row of a norm check of the single case (which, q)."""
    [row] = verify_norm_scaling(dom, [(which, q)])
    return row


def norm_cases(dim):
    """The CLI's three norm cases."""
    return [("U", 2.0), ("psi0", dim.two_star), ("psih", 2.0)]


def scale_probe(dom, cfg, q):
    """|f'_0(V)|_{L^q(ball)} of a tower, the quantity _probe_bound bounds."""
    dim = dom.dim
    def rows(r):
        return [f_eps_prime(
            dim, project_tower_layers(dom, r, cfg.mus, cfg.signs)[0], 0.0)]

    [val] = asymptotics._ball_lq_integrals(dim, rows, [q], cfg.mus,
                                           radius=dom.radius, rel_tol=1e-6)
    return (dim.sphere_area * val) ** (1.0 / q)


@pytest.fixture
def integral_tols(monkeypatch):
    """Relative targets of the adaptive integrals asymptotics asks for."""
    tols = []
    real = asymptotics._adaptive_gl

    def counted(f, a, b, rel_tol, **kw):
        tols.append(rel_tol)
        return real(f, a, b, rel_tol, **kw)

    monkeypatch.setattr(asymptotics, "_adaptive_gl", counted)
    return tols


class TestNormScaling:
    def test_bubble_subcritical_q(self):
        # q = 2 < n/(n-2): predicted order q/2 = 1, no log factor
        row = norm(B3, "U", 2.0)
        assert row.predicted == 1.0
        assert row.verdict == "pass"
        assert abs(row.fitted - 1.0) < 0.1

    def test_dilation_mode_critical_power(self):
        # q = 2n/(n-2) = 6: the integral is O(1), predicted order 0
        row = norm(B3, "psi0", 6.0)
        assert row.predicted == 0.0
        assert row.verdict == "pass"

    def test_translation_mode_q2(self):
        # q = 2 in the peak-dominated regime: n/(n-2) - q/2 = 2
        row = norm(B3, "psih", 2.0)
        assert row.predicted == 2.0
        assert row.verdict == "pass"

    def test_dilation_mode_log_regime(self):
        # q = n/(n-2) = 3: log factor divided, slope n/(2(n-2)) = 1.5
        row = norm(B3, "psi0", 3.0)
        assert row.predicted == 1.5
        assert "divided" in row.note
        assert row.verdict in ("pass", "marginal")

    def test_q_validation(self):
        with pytest.raises(ParameterError):
            verify_norm_scaling(B3, [("U", 2.0), ("U", 7.0)])
        with pytest.raises(ParameterError):
            verify_norm_scaling(B3, [("W", 2.0)])

    def test_cases_in_one_pass_equal_one_at_a_time(self):
        together = verify_norm_scaling(B3, norm_cases(D3))
        alone = [norm(B3, which, q) for which, q in norm_cases(D3)]
        assert together == alone


class TestInteractions:
    def test_eps_derivative_difference(self):
        row = interaction(B3, 2, "fepli2", [S1_ROOT, D2_ROOT])
        assert row.verdict in ("pass", "marginal")
        assert abs(row.fitted - 1.0) < 0.4

    def test_projected_difference_order(self):
        row = interaction(B3, 2, "sumbu2", [S1_ROOT, D2_ROOT])
        assert row.verdict in ("pass", "marginal")

    def test_full_nonlinearity_difference(self):
        row = interaction(B3, 2, "fepli1", [S1_ROOT, D2_ROOT])
        assert row.verdict in ("pass", "marginal")

    def test_single_layer_degenerate(self, integral_tols):
        row = interaction(B3, 1, "sumbu2", [S1_ROOT])
        assert row.verdict == "pass"
        assert "vanishes" in row.note
        # one integral of the three cases per eps and nothing else
        assert integral_tols == [1e-8] * len(EPS_GRID)

    def test_one_tower_per_eps(self, monkeypatch):
        # the three cases share the tower of each eps
        built = []
        centered = TowerConfig.centered

        def counted(*args, **kwargs):
            built.append(args[2])
            return centered(*args, **kwargs)

        monkeypatch.setattr(asymptotics.TowerConfig, "centered", counted)
        interaction(B3, 2, "sumbu2", [S1_ROOT, D2_ROOT])
        assert built == list(EPS_GRID)

    def test_rows_equal_the_public_nonlinearities(self, monkeypatch):
        # all rows take one (f, f') pair per array: V at eps and at 0 and
        # the k = 2 layers at 0.  Each row equals its formula written with
        # the reference f_eps and f_eps_prime of oracles.nonlinearity, the
        # public functions' formulas on their own, bit for bit.
        eps = EPS_GRID[-1]
        cfg = TowerConfig.centered(B3, 2, eps, [S1_ROOT, D2_ROOT])
        rows = asymptotics._interaction_integrands(B3, cfg.mus, cfg.signs,
                                                   eps)
        r = np.geomspace(1e-6, 1.0, 48)
        called = []
        real = asymptotics._f_and_prime

        def counted(*args):
            called.append(args[2])
            return real(*args)

        monkeypatch.setattr(asymptotics, "_f_and_prime", counted)
        every = rows(r)
        assert called == [0.0, 0.0, 0.0, eps]
        v, (pu1, pu2) = project_tower_layers(B3, r, cfg.mus, cfg.signs)
        s1, s2 = cfg.signs
        want = [ref.f_eps_prime(D3, v, 0.0) - ref.f_eps_prime(D3, pu1, 0.0)
                - ref.f_eps_prime(D3, pu2, 0.0),
                ref.f_eps(D3, v, eps) - s1 * ref.f_eps(D3, pu1, 0.0)
                - s2 * ref.f_eps(D3, pu2, 0.0),
                ref.f_eps_prime(D3, v, eps) - ref.f_eps_prime(D3, v, 0.0)]
        for got, row in zip(every, want):
            assert np.array_equal(got, row)

    @pytest.mark.parametrize("n, k, predicted", [
        (3, 2, 1.0), (4, 2, 1.0), (5, 2, 2 / 3), (6, 2, 1 / 2), (7, 3, 2 / 5)])
    def test_sumbu2_order_is_two_bubble_power_counting(self, n, k,
                                                       predicted):
        # min(1, 2/(n-2)): the fitted orders 0.662, 0.493 and 0.391 at
        # n = 5, 6 and 7 pass against it
        dom = BallDomain(Dimension(n))
        row = interaction(dom, k, "sumbu2", reduced_dbar(dom, k))
        assert row.predicted == pytest.approx(predicted, rel=1e-15)
        assert row.verdict == "pass", row.fitted

    @pytest.mark.parametrize("case", ["sumbu2", "fepli1", "fepli2"])
    def test_two_layers_do_not_vanish(self, integral_tols, case):
        # the measured norms exceed 1e-12 times the probe bound
        row = interaction(B3, 2, case, [S1_ROOT, D2_ROOT])
        assert "vanishes" not in row.note
        assert integral_tols == [1e-8] * len(EPS_GRID)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_probe_bound_holds(self, n):
        dim = Dimension(n)
        dom = BallDomain(dim)
        for k in (1, 2, 3):
            dbar = np.cumprod([S1_ROOT, D2_ROOT, D2_ROOT][:k])
            for q in (n / 2.0, 2.0 * n / (n + 2.0)):
                bound = _probe_bound(dom, k, q)
                probes = [scale_probe(dom, TowerConfig.centered(
                    dom, k, eps, dbar), q) for eps in EPS_GRID]
                assert max(probes) <= bound
                if k == 1 and q == n / 2.0:
                    # one layer at a small scale carries nearly all of the
                    # bubble's L^{2*} mass: the bound is sharp
                    assert probes[-1] > 0.999 * bound

    @pytest.mark.parametrize("n", [4, 5])
    def test_probe_bound_holds_on_a_large_ball(self, n):
        # a layer spread over a ball of radius 10: there the L^q norm with
        # q = 2n/(n+2) needs the Hölder factor |ball|^{1/q - 2/n} > 1
        dim = Dimension(n)
        dom = BallDomain(dim, radius=10.0)
        q = 2.0 * n / (n + 2.0)
        t0 = scale_variable(EPS_GRID[0])
        dbar = [3.0 / t0 ** (1.0 / (n - 2.0))]    # mu = 3 at the first eps
        probes = [scale_probe(dom, TowerConfig.centered(dom, 1, eps, dbar),
                              q) for eps in EPS_GRID]
        vol = dim.sphere_area / n * dom.radius**n
        bound = _probe_bound(dom, 1, q)
        assert max(probes) <= bound
        assert max(probes) > bound / vol ** (1.0 / q - 2.0 / n)


def quad_by_decades(dim, profile, q, scales, radius):
    """Reference for one row of ``_ball_lq_integrals``: scipy's ``quad`` on
    [0, mu/1000] and on each decade from there to R, with mu the smallest
    scale."""
    from scipy.integrate import quad

    lo = min(scales) / 1000.0
    edges = np.concatenate([[0.0], np.geomspace(
        lo, radius, int(np.ceil(np.log10(radius / lo))) + 1)])

    def g(r):
        return float(np.abs(profile(np.array([r])))[0] ** q
                     * r ** (dim.n - 1.0))

    return sum(quad(g, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.fixture
def smallest_eps_integrals(monkeypatch):
    """The list of :func:`record_smallest_eps`, with its spy installed for
    the test."""
    return record_smallest_eps(monkeypatch)


@pytest.fixture(scope="module")
def interaction_integrals():
    """``get(n, k)``: the list of :func:`record_smallest_eps` for the
    interaction check of the reduced roots at (n, k), its three rows' quad
    references taken once for the module, after the check's row names
    were asserted."""
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            with pytest.MonkeyPatch.context() as mp:
                pairs = record_smallest_eps(mp)
                dom = BallDomain(Dimension(n))
                interaction(dom, k, CASES[0], reduced_dbar(dom, k))
            cache[n, k] = pairs
        return cache[n, k]

    return get


def record_smallest_eps(monkeypatch):
    """Installs a spy on the ball integrals of the checks, one call per eps,
    and returns the list it fills with (value, quad reference) of each row
    integrated at the smallest eps of the sweep, the last call of each
    check.  The reference is taken when the integral is, since the rows
    close over the loop variables."""
    pairs = []
    real = asymptotics._ball_lq_integrals
    calls = [0]

    def spy(dim, rows, qs, scales, radius, **kwargs):
        got = real(dim, rows, qs, scales, radius, **kwargs)
        calls[0] += 1
        if calls[0] % len(EPS_GRID) == 0:
            pairs.extend((val, quad_by_decades(
                dim, lambda r, j=j: rows(r)[j], q, scales, radius))
                for j, (val, q) in enumerate(zip(got, qs)))
        return got

    monkeypatch.setattr(asymptotics, "_ball_lq_integrals", spy)
    return pairs


def reduced_dbar(dom, k):
    return solve_reduced(dom.dim, k, ReducedConstants.for_ball(dom), dom).dbar


class TestIntegralsAgainstQuad:
    """Every ball integral of the checks against scipy's ``quad``, taken
    decade by decade, at the smallest eps.  The adaptive rule once started
    on seven points {0, mu/8, mu, 8 mu, sqrt(mu), R/2, R}; at n = 3, k = 2
    the sumbu2 integral then passed its error test on the panel
    [8 mu_2, sqrt(mu_2)] and came out 3.0 % low."""

    @pytest.mark.parametrize("case", ["sumbu2", "fepli1", "fepli2"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_interactions(self, interaction_integrals, n, k, case):
        pairs = interaction_integrals(n, k)
        assert len(pairs) == len(CASES)
        got, ref = pairs[CASES.index(case)]
        assert abs(got - ref) <= 1e-7 * ref

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_norms(self, smallest_eps_integrals, n):
        dim = Dimension(n)
        verify_norm_scaling(BallDomain(dim), norm_cases(dim))
        assert len(smallest_eps_integrals) == 3
        for got, ref in smallest_eps_integrals:
            assert abs(got - ref) <= 1e-7 * ref

    def test_norms_integrate_over_the_given_ball(self, monkeypatch):
        intervals = []
        real = asymptotics._adaptive_gl

        def spy(f, a, b, rel_tol, **kw):
            intervals.append((a, b, max(kw["seeds"])))
            return real(f, a, b, rel_tol, **kw)

        monkeypatch.setattr(asymptotics, "_adaptive_gl", spy)
        B3R2 = BallDomain(D3, radius=2.0)
        on_two = norm(B3R2, "U", 2.0)
        assert intervals == [(0.0, 2.0, 2.0)] * len(EPS_GRID)
        on_one = norm(B3, "U", 2.0)
        # the bubble's mass between radius 1 and 2 shows in every value
        assert all(a[1] > b[1] for a, b in zip(on_two.data, on_one.data))


class TestOnePassPerEps:
    def test_seed_panel_calls_of_a_verify_job(self, monkeypatch, tmp_path):
        # one integrand call on the seed panels per eps for the three norm
        # cases (rel_tol 1e-9) and one for the three interaction cases
        # (1e-8); each case alone took one per eps and case
        from bubbletower.cli import main
        seed_calls = {}
        real = asymptotics._adaptive_gl

        def spy(f, a, b, rel_tol, **kw):
            panels = len(kw["seeds"]) - 1

            def counted(x):
                if len(x) == 24 * panels:
                    seed_calls[rel_tol] = seed_calls.get(rel_tol, 0) + 1
                return f(x)

            return real(counted, a, b, rel_tol, **kw)

        monkeypatch.setattr(asymptotics, "_adaptive_gl", spy)
        assert main(["verify", "--n", "3", "--k", "2",
                     "--out", str(tmp_path)]) == 0
        assert seed_calls == {1e-9: len(EPS_GRID), 1e-8: len(EPS_GRID)}

    # one call on the seed panels per eps, then one per round in which a
    # row of that eps splits, however many rows split in it
    @pytest.mark.parametrize("n, k, calls", [
        (3, 2, 8), (4, 2, 12), (5, 2, 58), (6, 2, 64), (5, 3, 109)])
    def test_interaction_integrand_calls(self, monkeypatch, n, k, calls):
        count = [0]
        real = asymptotics._interaction_integrands

        def spy(*args):
            rows = real(*args)

            def counted(r):
                count[0] += 1
                return rows(r)

            return counted

        monkeypatch.setattr(asymptotics, "_interaction_integrands", spy)
        dom = BallDomain(Dimension(n))
        verify_nonlinear_interactions(dom, k, dbar=reduced_dbar(dom, k))
        assert count[0] == calls


class TestProjectionAndGram:
    def test_bundle(self):
        rows = verify_projection_and_gram(B3, 2)
        by_name = {r.name.split("[")[0]: r for r in rows}
        proj = [r for r in rows if r.name.startswith("projection")][0]
        assert proj.verdict == "pass"
        assert abs(proj.fitted - 0.5) < 0.05
        gram_decay = [r for r in rows if "cross-layer" in r.name][0]
        assert gram_decay.fitted >= 3.0 - 0.2
        assert gram_decay.verdict == "pass"
        stab = [r for r in rows if "stabilisation" in r.name][0]
        assert stab.verdict == "pass"
        assert stab.fitted < 0.02


class TestFitStability:
    def test_dropping_largest_point(self):
        # verdict fits are stable against removing the coarsest sweep point
        row = norm(B3, "U", 2.0)
        data = np.asarray(row.data)
        full = fit_asymptotic_order(data)
        drop = fit_asymptotic_order(data[1:])
        assert abs(full - drop) < 0.05
