import functools
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from bubbletower import _scipy, radial
from bubbletower.domain import BallDomain
from bubbletower.errors import (BubbleTowerError, ParameterError, SolverError,
                               StructureError)
from bubbletower.profiles import Dimension, bubble_radial, f_eps
from bubbletower.projection import project_psi0_radial
from bubbletower.radial import (RadialGrid, RadialOperator, RadialSolution,
                                extract_scales, geometric_grid, ls_correction,
                                newton_solve, nodal_radii, solve_from_tower,
                                sweep_epsilon)
from bubbletower.reduced import ReducedConstants, solve_reduced
from bubbletower.tower import (TowerConfig, dilation_factors, residual_norm,
                               scale_variable, tower_radial_values)
from oracles import banded as oracle_banded
from oracles import radial as oracle_radial
from oracles.ball import project_psi0_radial_dlog

D3 = Dimension(3)
B3 = BallDomain(D3)

S1_ROOT = 0.7406801701108005          # outermost scale ratio, unit ball n=3
D2_ROOT = 0.031582089621449034        # second dilation d2 = s1 s2
D4_ROOTS = [0.8872403524429915, 0.10513269028946387]   # unit ball n=4, k=2
# third dilations of the k = 3 reduced roots, unit ball n = 3 and n = 4
D3_THIRD = 7.043933311394438e-4
D4_THIRD = 8.72329977778795e-3
# dilations of the k = 3 reduced roots, unit ball, n = 3, 4, 5
K3_ROOTS = {3: [S1_ROOT, D2_ROOT, D3_THIRD], 4: [*D4_ROOTS, D4_THIRD],
            5: [0.9157136794935398, 0.15033494642148593, 0.0191612208792275]}


def solved(results):
    """The entries of a sweep, each checked to be a converged solution."""
    assert all(isinstance(s, RadialSolution) and s.converged
               for s in results), results
    return results


def shoot_peak(eps, bracket=(5.0, 300.0)):
    """Independent shooting oracle for the single-layer radial solution.

    Integrates the radial ODE outward from the centre and finds the peak
    amplitude whose profile hits zero exactly at r = 1.
    """
    def boundary_value(A):
        r0 = 1e-7
        f0 = float(f_eps(D3, A, eps))
        y0 = [A - f0 * r0**2 / 6.0, -f0 * r0 / 3.0]
        sol = solve_ivp(
            lambda r, y: [y[1], -2.0 / r * y[1] - float(f_eps(D3, y[0], eps))],
            (r0, 1.0), y0, rtol=1e-10, atol=1e-12, max_step=0.01)
        return sol.y[0, -1]
    return brentq(boundary_value, *bracket, xtol=1e-9)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RadialGrid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ParameterError):
            RadialGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_geometric_density(self):
        grid = geometric_grid(1.0, 1e-4, 40)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 1.0
        assert grid.nodes_below(1e-3) >= 40

    @pytest.mark.parametrize("radius, rmin, per_decade",
                             [(1.0, 1e-4, 40), (1.0, 3.7e-9, 160),
                              (2.5, 0.013, 80), (1.0, 0.9, 10)])
    def test_geometric_nodes_on_the_lattice(self, radius, rmin, per_decade):
        # radius 10^(-j/per_decade), j = m .. 0, below a uniform core of
        # round(1/(10^(1/per_decade) - 1)) cells; the node count is
        # m_core + m + 1 as before (m at least 4, the last case)
        grid = geometric_grid(radius, rmin, per_decade)
        m = max(math.ceil(per_decade * math.log10(radius / rmin)), 4)
        m_core = round(1.0 / (10.0 ** (1.0 / per_decade) - 1.0))
        lattice = radius * 10.0 ** (-np.arange(m, -1, -1) / per_decade)
        assert len(grid) == m_core + m + 1
        assert np.array_equal(grid.nodes[m_core:], lattice)
        assert grid.nodes[-1] == radius
        assert grid.nodes[m_core] <= rmin
        assert_allclose(np.diff(grid.nodes[:m_core + 1]),
                        grid.nodes[m_core] / m_core, rtol=1e-12)

    def test_rmin_in_one_cell_gives_one_grid(self):
        # every rmin in the cell [10^(-161/40), 10^(-160/40)) rounds down to
        # its lower end; the cell's upper end starts the next grid
        lo, hi = 10.0 ** (-161 / 40), 1e-4
        cell = np.geomspace(lo, hi, 9)[1:-1]
        want = geometric_grid(1.0, cell[0], 40).nodes
        first = want[17]                # after the 17 core cells at 40
        assert first <= cell[0] and first == pytest.approx(lo)
        for rmin in cell[1:]:
            assert np.array_equal(geometric_grid(1.0, rmin, 40).nodes, want)
        assert len(geometric_grid(1.0, hi, 40)) == len(want) - 1

    @pytest.mark.parametrize("coarse, fine", [(40, 80), (40, 160), (80, 320)])
    def test_coarse_lattice_inside_the_fine_one(self, coarse, fine):
        # a finer level with a lower rmin holds every geometric node of the
        # coarser one
        m_core = round(1.0 / (10.0 ** (1.0 / coarse) - 1.0))
        geo = geometric_grid(1.0, 2.3e-7, coarse).nodes[m_core:]
        assert np.isin(geo, geometric_grid(1.0, 1e-7, fine).nodes).all()

    def test_resolution_guard(self):
        grid = geometric_grid(1.0, 1e-2, 10)
        grid.require_resolves([0.5])
        from bubbletower.errors import ResolutionError
        with pytest.raises(ResolutionError):
            grid.require_resolves([1e-3])


class TestNewton:
    def test_single_layer_converges_sign_definite(self):
        eps = 0.05
        [sol] = solved(sweep_epsilon(B3, [eps], dbar0=[S1_ROOT]))
        u = sol.values
        # one sign throughout, single interior extremum at the centre
        body = u[np.abs(u) > 1e-9 * np.max(np.abs(u))]
        assert np.all(body < 0)
        assert np.argmax(np.abs(u)) == 0
        assert nodal_radii(sol.grid.nodes, u, D3) == []

    def test_matches_shooting_oracle(self):
        eps = 0.1
        sol = solve_from_tower(B3, eps, [S1_ROOT], per_decade=60)
        peak = float(np.max(np.abs(sol.values)))
        oracle = shoot_peak(eps)
        assert_allclose(peak, oracle, rtol=5e-3)

    def test_fixed_point_restart(self):
        eps = 0.05
        sol = solve_from_tower(B3, eps, [S1_ROOT])
        again = newton_solve(B3, sol.grid, eps, sol.values)
        assert again.newton_iters <= 1
        assert_allclose(again.values, sol.values,
                        atol=1e-8 * np.max(np.abs(sol.values)))

    def test_two_layer_single_nodal_radius(self):
        eps = 0.05
        sol = solve_from_tower(B3, eps, [S1_ROOT, D2_ROOT])
        assert sol.converged
        assert len(nodal_radii(sol.grid.nodes, sol.values, D3)) == 1

    def test_energy_identity(self):
        eps = 0.05
        sol = solve_from_tower(B3, eps, [S1_ROOT])
        op = RadialOperator(D3, sol.grid)
        u = sol.values
        lhs = op.h1_norm(u) ** 2
        rhs = float(np.dot(op.w, u * f_eps(D3, u, eps)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_pohozaev_identity(self):
        # 3 int F(u) - (1/2) int u f(u) = 2 pi u'(1)^2 on the unit ball, with
        # 3F - uf/2 = (eps/2) int_0^u s^6 / ((e+s) ln(e+s)^{1+eps}) ds and
        # the flux -4 pi u'(1) = int f(u); the defect falls at h^2
        eps = 1e-4
        defects = []
        for per_decade in (40, 80):
            sol = solve_from_tower(B3, eps, [1.31], per_decade=per_decade)
            assert sol.converged
            r, u = sol.grid.nodes, np.abs(sol.values)
            s = np.linspace(0.0, u.max(), 200001)
            g = s**6 / ((np.e + s) * np.log(np.e + s) ** (1 + eps))
            G = np.concatenate([[0.0], np.cumsum(
                0.5 * (g[1:] + g[:-1]) * np.diff(s))])
            ball = 4 * np.pi * r**2
            lhs = 0.5 * eps * np.trapezoid(ball * np.interp(u, s, G), r)
            flux = np.trapezoid(ball * f_eps(D3, u, eps), r)
            defects.append(abs(flux**2 / (8 * np.pi) / lhs - 1.0))
        assert defects[0] < 3e-3
        assert defects[1] < defects[0] / 3.0

    def test_extracted_scale_converges_under_refinement(self):
        # halving the spacing moves the extracted scale at roughly h^2
        eps = 0.07
        mus = []
        for per_decade in (20, 40, 80):
            sol = solve_from_tower(B3, eps, [S1_ROOT],
                                   per_decade=per_decade)
            mus.append(extract_scales(sol.grid.nodes, sol.values, eps,
                                      D3)[0][2])
        d1 = abs(mus[1] - mus[0])
        d2 = abs(mus[2] - mus[1])
        assert d2 < d1 / 2.0

    def test_positivity_of_flipped_solution(self):
        # discrete comparison-principle sanity: the single-layer branch keeps
        # one sign; flipping the field gives the positive representative
        eps = 0.07
        sol = solve_from_tower(B3, eps, [S1_ROOT])
        v = -sol.values
        assert np.all(v[:-1] >= 0)


class TestHigherDimension:
    def test_n4_two_layer_solve(self):
        # dimension-generic path: non-integer profile powers, n = 4 schedule
        from bubbletower.reduced import ReducedConstants, solve_reduced
        D4 = Dimension(4)
        B4 = BallDomain(D4)
        consts = ReducedConstants.for_ball(B4)
        state = solve_reduced(D4, 2, consts, B4)
        for sol in solved(sweep_epsilon(B4, [0.1, 0.07], dbar0=state.dbar)):
            assert len(nodal_radii(sol.grid.nodes, sol.values, D4)) == 1


class TestExtraction:
    def test_recovers_synthetic_tower(self):
        eps = 0.05
        cfg = TowerConfig.centered(B3, 2, eps, [0.7, 0.03])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        vals = tower_radial_values(B3, grid.nodes, cfg)
        scales = extract_scales(grid.nodes, vals, eps, D3, expected_layers=2)
        spacing = 10.0 ** (1.0 / grid.per_decade) - 1.0
        for (_, _, mu_hat, _), mu in zip(scales, cfg.mus):
            assert abs(mu_hat - mu) <= 2.0 * mu * spacing

    def test_layer_count_mismatch(self):
        eps = 0.05
        cfg = TowerConfig.centered(B3, 1, eps, [0.7])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        vals = tower_radial_values(B3, grid.nodes, cfg)
        with pytest.raises(StructureError):
            extract_scales(grid.nodes, vals, eps, D3, expected_layers=2)

    def test_sign_split_matches_loop_reference(self):
        # nodal radii against the pairwise loop over the non-negligible
        # nodes, those whose Emden-Fowler value r^{1/2}|u| (node 0 with
        # node 1's weight) is at least 1e-9 of the largest; node 40 is
        # negligible and must not split its run
        grid = geometric_grid(1.0, 1e-3, 20)
        r = grid.nodes
        u = np.cos(9.5 * np.pi * r) * np.exp(-r)
        u[40] = -1e-12 * np.sign(u[40])
        v = np.abs(u) * np.sqrt(np.maximum(r, r[1]))
        s = np.sign(u)
        s[v < 1e-9 * np.max(v)] = 0
        idx = np.nonzero(s)[0]
        ref = [0.5 * (r[a] + r[b]) for a, b in zip(idx[:-1], idx[1:])
               if s[a] * s[b] < 0]
        assert len(ref) >= 5
        assert nodal_radii(r, u, D3) == ref

    def test_scales_shrink_linearly_in_eps(self):
        # over this window the extracted outer scale tracks eps itself
        eps_grid = [0.1, 0.07, 0.05, 0.035]
        sols = solved(sweep_epsilon(B3, eps_grid, dbar0=[S1_ROOT]))
        mus = [s.scales[0][2] for s in sols]
        slope = np.polyfit(np.log(eps_grid), np.log(mus), 1)[0]
        assert 0.8 < slope < 1.3


class TestLSCorrection:
    def test_orthogonality_and_convergence(self):
        eps = 0.05
        cfg = TowerConfig.centered(B3, 1, eps, [S1_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        res = ls_correction(B3, grid, cfg)
        assert res.converged and res.iterations <= 8
        assert np.max(np.abs(res.orthogonality)) < 1e-10
        assert res.phi_norm > 0

    def test_norm_decreases_in_eps(self):
        norms = []
        for eps in (0.1, 0.07, 0.05, 0.035):
            cfg = TowerConfig.centered(B3, 1, eps, [S1_ROOT])
            grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
            norms.append(ls_correction(B3, grid, cfg).phi_norm)
        assert np.all(np.diff(norms) < 0)

    def test_multipliers_smaller_at_root(self):
        eps = 0.05
        out = []
        for d in (S1_ROOT, 2 * S1_ROOT):
            cfg = TowerConfig.centered(B3, 1, eps, [d])
            grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
            res = ls_correction(B3, grid, cfg)
            # Newton converges quadratically (4-7 steps on the sweeps); a
            # linearly convergent iteration needs far more
            assert res.converged and res.iterations <= 8
            out.append(np.max(np.abs(res.c)))
        assert out[0] < out[1]

    @pytest.mark.parametrize("k, dbar", [(1, [S1_ROOT]),
                                         (2, [S1_ROOT, D2_ROOT])])
    def test_solves_the_defining_equations(self, k, dbar):
        # oracle on the equations themselves, with the stiffness and the
        # projected modes rebuilt here: S(V+phi) - W f(V+phi) = SB c on the
        # free nodes and (SB)^T phi = 0
        eps = 0.05
        cfg = TowerConfig.centered(B3, k, eps, dbar)
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        res = ls_correction(B3, grid, cfg)
        assert res.converged and res.iterations <= 8
        op = RadialOperator(D3, grid)
        u = tower_radial_values(B3, grid.nodes, cfg) + res.phi
        u[-1] = 0.0
        load = op.w[:-1] * f_eps(D3, u, eps)[:-1]
        lhs = op.stiffness_apply(u)[:-1] - load
        SB = np.column_stack([
            op.stiffness_apply(np.append(
                project_psi0_radial(B3, grid.nodes, mu)[:-1], 0.0))[:-1]
            for mu in cfg.mus])
        scale = np.max(np.abs(load))
        assert np.max(np.abs(lhs - SB @ res.c)) < 1e-9 * scale
        assert np.max(np.abs(SB @ res.c)) > 1e-6 * scale
        phi = res.phi[:-1]
        pair = SB.T @ phi
        assert np.all(np.abs(pair) < 1e-12 * np.linalg.norm(SB, axis=0)
                      * np.linalg.norm(phi))
        assert_allclose(pair, res.orthogonality, rtol=0, atol=1e-14)

    @staticmethod
    def _projected_c(dom, grid, cfg, phi):
        """The multipliers by the projection the correction once computed
        them with, G^-1 SB^T((V+phi) - S^-1 W f_eps(V+phi)), S^-1 through
        scipy's solveh_banded."""
        op = RadialOperator(dom.dim, grid)
        u = tower_radial_values(dom, grid.nodes, cfg) + phi
        u[-1] = 0.0
        B = np.column_stack([project_psi0_radial(dom, grid.nodes, mu)[:-1]
                             for mu in cfg.mus])
        SB = op.stiffness_apply(np.vstack([B, np.zeros((1, len(cfg.mus)))]))
        SB = SB[:-1]
        load = op.w[:-1] * f_eps(dom.dim, u, cfg.eps)[:-1]
        return np.linalg.solve(B.T @ SB, SB.T @ (
            u[:-1] - oracle_banded.stiffness_solve(op, load)))

    @pytest.mark.parametrize("per_decade", [40, 80])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_c_matches_the_projection(self, n, k, per_decade):
        # c is the bordered system's -a; the projection gives it to
        # rounding: gaps up to 4.9e-14 on these cases, bound 10x that
        dom = BallDomain(Dimension(n))
        dbar = {3: [S1_ROOT, D2_ROOT, D3_THIRD],
                4: [*D4_ROOTS, D4_THIRD]}[n][:k]
        cfg = TowerConfig.centered(dom, k, 0.05, dbar)
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, per_decade)
        res = ls_correction(dom, grid, cfg)
        assert res.converged
        want = self._projected_c(dom, grid, cfg, res.phi)
        assert np.max(np.abs(res.c - want)) < 5e-13
        assert np.max(np.abs(res.c)) > 1e-3

    def test_c_matches_the_projection_at_the_dilation_root(self):
        cfg, grid, res, _ = radial._adjust_dilations(B3, 0.05,
                                                     [S1_ROOT, D2_ROOT])
        assert np.max(np.abs(res.c)) < 1e-13
        want = self._projected_c(B3, grid, cfg, res.phi)
        assert np.max(np.abs(res.c - want)) < 5e-13

    def test_start_off_the_constraint_is_pulled_back(self):
        # the border row enforces (SB)^T phi = 0 from any start
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        ref = ls_correction(B3, grid, cfg)
        start = 0.05 * tower_radial_values(B3, grid.nodes, cfg)
        res = ls_correction(B3, grid, cfg, phi0=start)
        assert res.converged and res.iterations <= 8
        assert np.max(np.abs(res.orthogonality)) < 1e-10
        assert_allclose(res.phi, ref.phi, rtol=0,
                        atol=1e-9 * np.max(np.abs(ref.phi)))
        assert_allclose(res.c, ref.c, rtol=1e-8)

    def test_non_finite_iterate_stops_cleanly(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        start = np.full(len(grid), 1e100)      # f_eps overflows to inf
        res = ls_correction(B3, grid, cfg, phi0=start)
        assert not res.converged
        assert res.iterations == 1
        assert np.all(np.isnan(res.c))

    def test_memory_is_linear_in_grid_size(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 300)
        N = len(grid)
        assert 2500 < N < 3500
        tracemalloc.start()
        try:
            res = ls_correction(B3, grid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense N x N float array would take 8 N^2 bytes (72 MB at
        # N = 3000); the bordered solve keeps O(N k) arrays
        assert peak < 8.0 * N * N / 20
        assert np.all(np.isfinite(res.phi))


class TestSweep:
    def test_requires_decreasing_grid(self):
        with pytest.raises(ParameterError):
            sweep_epsilon(B3, [0.05, 0.1], dbar0=[S1_ROOT])

    def test_first_point_failure_is_hinted(self):
        # a failed first sweep point keeps the exception its solve raised;
        # a non-monotone schedule triggers the failure deterministically
        results = sweep_epsilon(B3, [0.9, 0.8], dbar0=[1.0, 1.0])
        assert not isinstance(results[0], RadialSolution)
        assert isinstance(results[0], ParameterError)

    def test_warm_and_cold_agree(self):
        eps_pair = [0.1, 0.07]
        sols = solved(sweep_epsilon(B3, eps_pair, dbar0=[S1_ROOT]))
        warm = sols[1]
        # a cold tower start lands on the warm solution's lattice grid, so
        # both are the same discrete solution
        cold = solve_from_tower(B3, 0.07, [S1_ROOT])
        assert np.array_equal(cold.grid.nodes, warm.grid.nodes)
        assert_allclose(cold.values, warm.values,
                        atol=1e-8 * np.max(np.abs(warm.values)))

    def test_two_layer_structure_preserved(self):
        eps_grid = [0.07, 0.05]
        for sol in solved(sweep_epsilon(B3, eps_grid,
                                        dbar0=[S1_ROOT, D2_ROOT])):
            assert len(nodal_radii(sol.grid.nodes, sol.values, D3)) == 1


class TestPowerPath:
    """The trials of a dilation step: Newton in the monomials z_i =
    e^{r_i y_i} of the layer coordinates y_1 = ln mu_1,
    y_i = ln(mu_i/mu_{i-1})."""

    @staticmethod
    def _monomials(ld, rates):
        # z of the layer coordinates of log d (log mu up to a constant)
        return np.exp(rates * np.diff(ld, prepend=0.0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_one_full_step_lands_on_the_root_of_a_monomial_residual(self, n,
                                                                    k):
        # c = A (z - z*) is affine in the monomials: its Newton step in
        # log d, taken along the path at lam = 1, lands on the root when
        # every z* is at least half its z
        rng = np.random.default_rng(10 * n + k)
        rates = radial._layer_rates(n, k)
        A = rng.normal(size=(k, k)) + 3.0 * np.eye(k)
        ld = rng.uniform(-3.0, 0.0, k)
        z = self._monomials(ld, rates)
        z_root = z * rng.uniform(0.55, 8.0, k)
        lower = np.eye(k) - np.eye(k, k=-1)        # dy/dlog d
        jac = A @ (np.diag(rates * z) @ lower)
        step = np.linalg.solve(jac, -(A @ (z - z_root)))
        move = radial._power_path(step, 1.0, rates)
        assert_allclose(self._monomials(ld + move, rates), z_root,
                        rtol=1e-12)
        # the straight line in log d misses it
        assert not np.allclose(self._monomials(ld + step, rates), z_root,
                               rtol=1e-3)

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 3), (5, 2), (7, 4)])
    def test_tangent_to_the_step_at_lam_0(self, n, k):
        rng = np.random.default_rng(n + k)
        rates = radial._layer_rates(n, k)
        step = rng.normal(scale=2.0, size=k)
        h = 1e-6
        fd = (radial._power_path(step, h, rates)
              - radial._power_path(step, -h, rates)) / (2.0 * h)
        assert_allclose(fd, step, rtol=1e-8, atol=1e-9)
        assert np.all(radial._power_path(step, 0.0, rates) == 0.0)

    def test_no_trial_halves_a_monomial_further(self):
        rng = np.random.default_rng(5)
        for n, k in ((3, 2), (4, 3), (6, 5)):
            rates = radial._layer_rates(n, k)
            for _ in range(20):
                step = rng.normal(scale=10.0, size=k)
                for lam in 2.0 ** -np.arange(0, 17):
                    move = radial._power_path(step, lam, rates)
                    ratio = self._monomials(move, rates)
                    assert np.all(ratio >= 0.5 * (1.0 - 1e-14)), ratio

    def test_rates_are_the_reduced_energy_exponents(self):
        # (mu_1/R)^{n-2} and (mu_i/mu_{i-1})^{(n-2)/2}
        assert radial._layer_rates(5, 3).tolist() == [3.0, 1.5, 1.5]
        assert radial._layer_rates(3, 1).tolist() == [1.0]


class TestDilationSolve:
    """Newton on c(log d) = 0 with the Jacobian of the bordered correction."""

    @pytest.mark.parametrize("n, k, eps, dbar", [
        (3, 1, 0.1, [S1_ROOT]),
        (3, 2, 0.05, [S1_ROOT, D2_ROOT]),
        (4, 2, 0.05, D4_ROOTS),
    ], ids=["1-0.1-dbar0", "2-0.05-dbar1", "n4-2-0.05"])
    def test_jacobian_matches_central_differences(self, n, k, eps, dbar):
        # c(log d) and phi(log d) by central differences on one fixed grid,
        # each correction from phi = 0
        dom = BallDomain(Dimension(n))
        cfg = TowerConfig.centered(dom, k, eps, dbar)
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        res = ls_correction(dom, grid, cfg)
        h = 1e-4
        fd = np.empty((k, k))
        fd_phi = np.empty((len(grid), k))
        for j in range(k):
            step = np.zeros(k)
            step[j] = h
            plus, minus = [ls_correction(dom, grid, TowerConfig.centered(
                dom, k, eps, np.exp(np.log(dbar) + sgn * step)))
                for sgn in (1.0, -1.0)]
            fd[:, j] = (plus.c - minus.c) / (2.0 * h)
            fd_phi[:, j] = (plus.phi - minus.phi) / (2.0 * h)
        assert np.max(np.abs(res.dc_dlogd - fd)) <= 1e-7 * np.max(np.abs(fd))
        scale = np.max(np.abs(res.dphi_dlogd))
        assert np.max(np.abs(res.dphi_dlogd - fd_phi)) <= 1e-4 * scale
        assert np.all(res.dphi_dlogd[-1] == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_eps_derivative_matches_central_differences(self, n, k):
        # c(log eps) at the fixed scales of the k = 3 reduced roots at eps
        # 0.05, by central differences on one fixed grid, each correction
        # from phi = 0
        dom = BallDomain(Dimension(n))
        eps = 0.05
        cfg = TowerConfig.centered(dom, k, eps, K3_ROOTS[n][:k])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        res = ls_correction(dom, grid, cfg)
        h = 1e-4
        plus, minus = [ls_correction(
            dom, grid, TowerConfig(eps * np.exp(sgn * h), cfg.mus))
            for sgn in (1.0, -1.0)]
        fd = (plus.c - minus.c) / (2.0 * h)
        got = res.dc_dlogeps()
        assert got.shape == (k,)
        assert np.max(np.abs(got - fd)) <= 1e-7 * np.max(np.abs(fd))

    def test_unconverged_eps_derivative_is_nan(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        res = ls_correction(B3, grid, cfg, phi0=np.full(len(grid), 1e100))
        assert not res.converged
        got = res.dc_dlogeps()
        assert got.shape == (2,) and np.isnan(got).all()

    @pytest.mark.parametrize("n, k, eps", [(3, 1, 0.1), (3, 2, 0.05),
                                           (4, 2, 0.05), (5, 3, 0.05)])
    def test_branch_slope_matches_central_differences(self, n, k, eps):
        # d log mu / d log eps = -(dc/dlog d)^-1 dc/dlog eps at a solve's
        # root, against the roots at eps e^{+-h} on the root's grid (a
        # plain Newton in log mu there; the grid stays fixed, as the lattice
        # level of a solve's own root could change with eps)
        dom = BallDomain(Dimension(n))
        sol = solve_from_tower(dom, eps, K3_ROOTS[n][:k])
        ls = sol.correction
        slope = -np.linalg.solve(ls.dc_dlogd, ls.dc_dlogeps())

        def root(e):
            logmu = np.log(sol.mus)
            for _ in range(20):
                res = ls_correction(dom, sol.grid,
                                    TowerConfig(e, np.exp(logmu)))
                if np.linalg.norm(res.c) < 1e-14:
                    return logmu
                logmu = logmu - np.linalg.solve(res.dc_dlogd, res.c)
            raise AssertionError("no root")

        h = 1e-4
        fd = (root(eps * np.exp(h)) - root(eps * np.exp(-h))) / (2.0 * h)
        assert np.max(np.abs(slope - fd)) <= 1e-7 * np.max(np.abs(fd))

    @pytest.mark.parametrize("n, mu", [(3, 0.3), (3, 1e-3), (4, 0.05)])
    def test_mode_derivative_closed_form(self, n, mu):
        dom = BallDomain(Dimension(n))
        r = geometric_grid(1.0, 1e-4, 40).nodes
        h = 1e-5
        fd = (project_psi0_radial(dom, r, mu * np.exp(h))
              - project_psi0_radial(dom, r, mu * np.exp(-h))) / (2.0 * h)
        exact = project_psi0_radial_dlog(dom, r, mu)
        assert np.max(np.abs(exact - fd)) <= 1e-9 * np.max(np.abs(fd))
        assert exact[-1] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_polish_runs_once_and_does_not_move_the_field(self, monkeypatch):
        # the residual certificate runs once per solve, at the root
        calls = []

        def counted(*args, **kwargs):
            sol = newton_solve(*args, **kwargs)
            calls.append(sol.newton_iters)
            return sol

        monkeypatch.setattr(radial, "newton_solve", counted)
        cases = [([0.1, 0.07], [S1_ROOT]), ([0.05], [S1_ROOT]),
                 ([0.07, 0.05], [S1_ROOT, D2_ROOT])]
        points = 0
        for eps_grid, dbar in cases:
            solved(sweep_epsilon(B3, eps_grid, dbar0=dbar))
            points += len(eps_grid)
        solve_from_tower(B3, 0.05, [S1_ROOT, D2_ROOT])
        assert calls == [0] * (points + 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_sits_on_its_own_grid(self):
        # benchmark-range k = 2 continuation: every point ends on the grid
        # of its own root, after at most five grids
        eps_grid = list(np.geomspace(0.16, 0.02, 7))
        sols = solved(sweep_epsilon(B3, eps_grid,
                                    dbar0=[0.9 * S1_ROOT, 1.1 * D2_ROOT]))
        for sol in sols:
            assert 1 <= sol.grids <= 5
            assert sol.correction_solves > sol.dilation_steps > 0
        # machine-independent cost, in correction solves: [6, 3, 3, 3, 3,
        # 2, 2] with every trial on the grid of its own scales, against
        # [8, 3, 3, 3, 3, 2, 2] with far trials on the current grid (both
        # with the trials on the monomial path and the steering corrections
        # stopped at the forcing term), [9, 4, 3, 3, 3, 3, 3] on the
        # straight line in log d with every correction to 1e-10,
        # [9, 5, 4, 4, 4, 4, 4] from the secant through the extracted
        # dilations, and [12, 7, 6, 6, 4, 6, 6] with every trial on the
        # round's grid from the last phi
        solves = [sol.correction_solves for sol in sols]
        assert sum(solves) <= 24 and max(solves[2:]) <= 3, solves
        cfg, grid, ls, counts = radial._adjust_dilations(
            B3, 0.05, [S1_ROOT, D2_ROOT])
        assert np.linalg.norm(ls.c) < 1e-13
        assert np.array_equal(
            grid.nodes, geometric_grid(B3.radius, min(cfg.mus) / 50, 40).nodes)
        assert counts["grids"] >= 2

    def test_refine_shaped_solve_takes_five_corrections(self):
        # a benchmark refine solve (k = 2, 60 nodes/decade, from the
        # reduced roots): 5 correction solves, 4 steps and 14 correction
        # iterations, against 6, 5 and 21 on the straight line in log d
        # with every correction to 1e-10, and 9 solves and 7 steps with
        # every trial on the round's grid from the last phi
        sol = solve_from_tower(B3, 0.0477, [S1_ROOT, D2_ROOT], per_decade=60)
        assert sol.correction_solves <= 5
        assert sol.correction_iterations <= 14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_start_keeps_the_tower_branch(self):
        # from 3x and 9x the reduced roots the first Newton steps move d by
        # far more than e^0.5; correcting those trials from the previous
        # phi reaches another correction, and d2 runs off to 1e-12.  The
        # reference is the root reached with every correction from phi = 0.
        [sol] = solved(sweep_epsilon(B3, [0.2],
                                     dbar0=[3 * S1_ROOT, 9 * D2_ROOT]))
        assert_allclose([s[3] for s in sol.scales],
                        [0.11093858071705201, 1.0565484578025826e-4],
                        rtol=1e-8)

    def test_shrink_walk_recovers_a_far_start(self, monkeypatch):
        # from 3x the reduced root the correction fails at the start and
        # converges at half of it; the walk ends on the root reached from
        # the reduced root itself
        tried = []

        def spy(dom, grid, cfg, **kwargs):
            res = ls_correction(dom, grid, cfg, **kwargs)
            tried.append((cfg.mus[0] / scale_variable(cfg.eps),
                          res.converged))
            return res

        monkeypatch.setattr(radial, "ls_correction", spy)
        sol = solve_from_tower(B3, 0.2, [3 * S1_ROOT])
        assert_allclose([d for d, _ in tried[:2]],
                        [3 * S1_ROOT, 1.5 * S1_ROOT], rtol=1e-14)
        assert [ok for _, ok in tried[:2]] == [False, True]
        monkeypatch.undo()
        ref = solve_from_tower(B3, 0.2, [S1_ROOT])
        # each solve stops at |c| < 1e-13, which puts its log mu within
        # |(dc/dlog d)^-1| |c| of the discrete root, to first order, so the
        # two lie within the sum of those bounds.  Measured: 5.136e-12
        # against the bound 5.142e-12 (|c| = 8.3e-14 and 6.2e-17 on the
        # same grid); the extracted d moves 1.01 times as far (5.19e-12)
        assert np.array_equal(sol.grid.nodes, ref.grid.nodes)
        bound = sum(abs(float(s.correction.c[0] / s.correction.dc_dlogd[0, 0]))
                    for s in (sol, ref))
        assert abs(math.log(sol.mus[0] / ref.mus[0])) <= bound
        assert_allclose(sol.scales[0][3], ref.scales[0][3], rtol=2.0 * bound)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, OverflowError])
    def test_raising_correction_is_a_rejected_trial(self, monkeypatch, error):
        # a singular matrix, or a scale whose power overflows a float (at
        # n >= 5 past about 1e205), rejects the trial like an unconverged
        # correction: here the start, so the walk goes on at half of it
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args[2].mus[0])
            if len(calls) == 1:
                raise error("injected")
            return ls_correction(*args, **kwargs)

        monkeypatch.setattr(radial, "ls_correction", flaky)
        sol = solve_from_tower(B3, 0.2, [S1_ROOT])
        assert sol.converged
        assert_allclose(calls[1], 0.5 * calls[0], rtol=1e-14)

    @pytest.mark.parametrize("dbar", [
        [0.03703401, 3.16],     # a singular mode Gram matrix, then mu ~ 1e58
        [2.22204051, 3.16],     # a root on the one-layer branch
    ], ids=["singular", "one-layer"])
    def test_far_start_fails_as_a_package_error(self, dbar):
        # far starts at eps 0.2 that crashed with a numpy or float error,
        # or reported the wrong branch as converged
        with pytest.raises(BubbleTowerError):
            solve_from_tower(B3, 0.2, dbar)

    def test_far_start_recovers_the_reduced_root_solution(self):
        # the log-d Newton from here tries scales past the ball radius,
        # where no grid can be built; such trials are rejected like any
        # other, and the solve ends where the one from the reduced root does
        sol = solve_from_tower(B3, 0.2, [0.22220405, 3.16])
        ref = solve_from_tower(B3, 0.2, [S1_ROOT, D2_ROOT])
        # each solve stops at |c| < 1e-13, which puts its log mu within
        # |(dc/dlog d)^-1 c| of the discrete root, to first order, so the
        # two lie within the sum of those bounds, layer by layer.  Measured
        # on layer 2: 1.206e-12 against the bound 1.211e-12, on the same
        # grid; the extracted scales move 1.005 times as far (1.212e-12),
        # and are pinned at 2x the bound
        assert np.array_equal(sol.grid.nodes, ref.grid.nodes)
        bound = sum(np.abs(np.linalg.solve(s.correction.dc_dlogd,
                                           s.correction.c))
                    for s in (sol, ref))
        assert np.all(np.abs(np.log(sol.mus / ref.mus)) <= bound)
        assert np.all(np.abs(np.log([s[2] / t[2] for s, t in
                                     zip(sol.scales, ref.scales)]))
                      <= 2.0 * bound)

    @pytest.mark.parametrize("dbar, eps, per_decade", [
        ([0.22220405, 3.16], 0.2, 40),
        ([S1_ROOT, D2_ROOT], 0.0477, 60),
    ], ids=["far-start", "refine-shaped"])
    def test_every_correction_runs_on_its_own_grid(self, monkeypatch, dbar,
                                                   eps, per_decade):
        # one grid rule: every trial, near or far, is corrected on the
        # lattice grid of its own scales, and no level's grid is built
        # twice in one solve
        built, calls = [], []
        lattice_grid = radial._lattice_grid

        def counted(radius, m, per_decade):
            built.append(m)
            return lattice_grid(radius, m, per_decade)

        def spy(dom, grid, cfg, **kwargs):
            calls.append((grid, radial._default_level(dom, cfg.mus,
                                                      per_decade)))
            return ls_correction(dom, grid, cfg, **kwargs)

        monkeypatch.setattr(radial, "_lattice_grid", counted)
        monkeypatch.setattr(radial, "ls_correction", spy)
        sol = solve_from_tower(B3, eps, dbar, per_decade=per_decade)
        assert len(calls) == sol.correction_solves
        for grid, m in calls:
            assert np.array_equal(
                grid.nodes, lattice_grid(B3.radius, m, per_decade).nodes)
        assert len(built) == len(set(built)) >= sol.grids
        assert sol.grid is calls[-1][0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_does_not_depend_on_the_start(self):
        # cold starts below, between and above the root, and the end of a
        # warm sweep, settle on one lattice grid and one root
        ds = [[s[3] for s in solve_from_tower(B3, 0.05, start).scales]
              for start in ([0.6, 0.04], [0.3, 0.002], [0.9, 0.08])]
        last = solved(sweep_epsilon(B3, [0.1, 0.07, 0.05],
                                    dbar0=[S1_ROOT, D2_ROOT]))[-1]
        ds.append([s[3] for s in last.scales])
        assert_allclose(ds, [ds[0]] * 4, rtol=1e-10)

    def test_tangent_predictor_skips_a_failed_point(self, monkeypatch):
        # point 2 starts from the Euler step of log mu from point 1, points
        # 3, 4 and 5 from the cubic Hermite interpolant through the two
        # converged points before them; point 5 fails and feeds nothing, so
        # point 6 starts from the last good d, as point 1 starts from dbar0,
        # and point 7 from the Euler step of point 6.  Only points that a
        # later point follows evaluate their tangent.
        eps_grid = [0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.045]
        starts, tangents = [], []
        dc_dlogeps = radial.LSResult.dc_dlogeps

        def solve(dom, eps, dbar, **kwargs):
            starts.append(np.array(dbar, dtype=float))
            if eps == 0.06:
                raise SolverError("injected")
            return solve_from_tower(dom, eps, dbar, **kwargs)

        def counted(self):
            tangents.append(self)
            return dc_dlogeps(self)

        monkeypatch.setattr(radial, "solve_from_tower", solve)
        monkeypatch.setattr(radial.LSResult, "dc_dlogeps", counted)
        results = sweep_epsilon(B3, eps_grid, dbar0=[S1_ROOT])
        assert [isinstance(r, RadialSolution) for r in results] == \
            [True] * 4 + [False, True, True]
        assert isinstance(results[4], SolverError)
        assert str(results[4]) == "injected"
        assert tangents == [results[i].correction for i in (0, 1, 2, 3, 5)]
        x = np.log(eps_grid)
        y = [np.log(r.mus) if i != 4 else None for i, r in enumerate(results)]
        s = [-np.linalg.solve(r.correction.dc_dlogd, dc_dlogeps(r.correction))
             if i != 4 else None for i, r in enumerate(results)]
        d = [np.array([sc[3] for sc in r.scales]) if i != 4 else None
             for i, r in enumerate(results)]

        def euler(i, j):
            return y[j] + s[j] * (x[i] - x[j])

        def hermite(i, j0, j1):
            # Newton form on the nodes x0, x0, x1, x1 (divided differences)
            h = x[j1] - x[j0]
            m = (y[j1] - y[j0]) / h
            dx = x[i] - x[j0]
            return (y[j0] + s[j0] * dx + (m - s[j0]) / h * dx**2
                    + (s[j1] + s[j0] - 2.0 * m) / h**2 * dx**2
                    * (x[i] - x[j1]))

        def start(i, logmu):
            return dilation_factors(D3, eps_grid[i], np.exp(logmu))

        assert starts[0][0] == S1_ROOT
        assert_allclose(starts[1], start(1, euler(1, 0)), rtol=1e-14)
        for i in (2, 3, 4):
            assert_allclose(starts[i], start(i, hermite(i, i - 2, i - 1)),
                            rtol=1e-14)
            assert not np.allclose(starts[i], start(i, euler(i, i - 1)),
                                   rtol=1e-6)
        assert np.array_equal(starts[5], d[3])
        assert_allclose(starts[6], start(6, euler(6, 5)), rtol=1e-14)
        for i in (1, 2, 3, 6):
            assert not np.allclose(starts[i], d[i - 1], rtol=1e-6)

    def test_singular_tangent_restarts_from_the_extracted_d(self,
                                                            monkeypatch):
        # a root whose dc/dlog d is singular gives no slope: it feeds the
        # predictor nothing, and the next point starts from its d
        starts = []

        def solve(dom, eps, dbar, **kwargs):
            starts.append(np.array(dbar, dtype=float))
            sol = solve_from_tower(dom, eps, dbar, **kwargs)
            if eps == 0.09:
                sol.correction.dc_dlogd = np.zeros((1, 1))
            return sol

        monkeypatch.setattr(radial, "solve_from_tower", solve)
        results = solved(sweep_epsilon(B3, [0.1, 0.09, 0.08],
                                       dbar0=[S1_ROOT]))
        assert np.array_equal(starts[2], [results[1].scales[0][3]])

    def test_one_point_sweep_evaluates_no_tangent(self, monkeypatch):
        def refuse(self):
            raise AssertionError("tangent evaluated")

        monkeypatch.setattr(radial.LSResult, "dc_dlogeps", refuse)
        solved(sweep_epsilon(B3, [0.05], dbar0=[S1_ROOT, D2_ROOT]))


@functools.cache
def innermost_balances(n, k):
    """The eps of a sweep from the reduced root (40 nodes/decade) and the
    innermost layer balance B_k = (mu_k/mu_{k-1})^{(n-2)/2} |ln mu_k| / eps
    of each converged point, from its extracted scales; NaN where a point
    failed."""
    dom = BallDomain(Dimension(n))
    consts = ReducedConstants.for_ball(dom)
    dbar = np.cumprod(solve_reduced(dom.dim, k, consts, dom).s)
    # at n = 6 the k = 3 dilation solve stalls at eps 0.2
    eps = (0.2, 0.1, 0.05, 0.025, 0.0125)[n == 6:]
    balances = []
    for e, sol in zip(eps, sweep_epsilon(dom, eps, dbar0=dbar,
                                         per_decade=40)):
        if not isinstance(sol, RadialSolution):
            balances.append(float("nan"))
            continue
        outer, inner = (s[2] for s in sol.scales[-2:])
        balances.append((inner / outer) ** ((n - 2) / 2.0)
                        * abs(math.log(inner)) / e)
    return eps, np.array(balances)


class TestLayerBalances:
    """The innermost layer's balance against the layer outside it (Bahri's
    two-bubble interaction) is written from mu and eps alone, with no
    scale schedule.  It is a constant c_n of the tower: flat over a 16x
    range of eps, and the same for k = 2 and 3.  Measured (k = 2; k = 3):
    n = 3 0.2006-0.2014; 0.1983-0.1991, n = 4 0.0813-0.0828 for both,
    n = 5 0.0348-0.0351; 0.0352-0.0355, n = 6 0.0153-0.0157;
    0.0157-0.0160."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_innermost_balance_is_flat_in_eps(self, n, k):
        eps, b = innermost_balances(n, k)
        failed = [e for e, v in zip(eps, b) if np.isnan(v)]
        # every point converges; n = 6, k = 2 at eps 0.0125 failed the
        # residual certificate (the centre-pivoting defect at n >= 6) while
        # the dilation solve's trials lay on the straight line in log d
        assert failed == []
        b = b[~np.isnan(b)]
        assert np.max(b) / np.min(b) <= 1.07, b

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_innermost_balance_is_the_same_for_k_2_and_3(self, n):
        two, three = (np.nanmedian(innermost_balances(n, k)[1])
                      for k in (2, 3))
        assert abs(two / three - 1.0) <= 0.03, (two, three)


class TestFixedDefects:
    """Solves that failed while the grid followed the float min(mu)/50 and
    the polish stop ignored roundoff."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps, dbar, kwargs", [
        # the grid fixed point did not settle in 10 rounds at 320
        (0.05, [0.6, 0.04], {"per_decade": 320}),
        # the lattice's slightly finer core puts this one on the floor
        (0.05, [0.6, 0.04], {"per_decade": 160}),
        # the polish stop sat below the roundoff floor of the grid
        (0.045, [0.3, 0.002], {"per_decade": 160}),
    ], ids=["k2-npd320", "k2-npd160", "k2-eps0.045-npd160"])
    def test_converges_without_polish_steps(self, eps, dbar, kwargs):
        sol = solve_from_tower(B3, eps, dbar, **kwargs)
        assert sol.converged and sol.newton_iters == 0
        assert len(sol.scales) == len(dbar)

    def test_refinement_is_second_order(self):
        # d1 at eps 0.045 on 40, 80, 160 and 320 nodes/decade: successive
        # differences shrink by h^2, a factor 4
        d1 = [solve_from_tower(B3, 0.045, [0.3, 0.002],
                               per_decade=p).scales[0][3]
              for p in (40, 80, 160, 320)]
        diffs = np.abs(np.diff(d1))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((ratios >= 3.0) & (ratios <= 5.0)), ratios


def _random_operator(seed, N, n=3):
    """Operator on a grid of N + 1 nodes with random spacings."""
    rng = np.random.default_rng(seed)
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, N))])
    return RadialOperator(Dimension(n), RadialGrid(nodes / nodes[-1]))


class TestBandedSolves:
    """The direct LAPACK calls against scipy's banded wrappers."""

    @pytest.mark.parametrize("shape", [(), (1,), (3,)],
                             ids=["vector", "one-column", "k+1-columns"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("matrix", ["dominant", "pivoting", "stiffness"])
    def test_jacobian_solve_bitwise(self, shape, order, matrix):
        N = 60
        op = _random_operator(7, N)
        rng = np.random.default_rng(11)
        if matrix == "stiffness":
            fp = np.zeros(N + 1)                   # S itself
        else:
            # a diagonal within 1 % of zero makes dgtsv swap rows; one
            # above 1.1 times that of S keeps the matrix diagonally dominant
            scale = (1.0 + rng.uniform(-0.01, 0.01, N + 1)
                     if matrix == "pivoting"
                     else rng.uniform(-1.0, -0.1, N + 1))
            fp = np.append(op._sdiag / op.w[:-1], 0.0) * scale
        swaps = dgtsv(op._soff, op._sdiag - op.w[:-1] * fp[:-1], op._soff,
                      np.ones(N))[0][:-1]         # fill-in only where swapped
        # on S each eliminated pivot ties its off-diagonal in exact
        # arithmetic, so rounding decides the swaps there
        if matrix != "stiffness":
            assert np.any(swaps != 0) == (matrix == "pivoting")
        rhs = np.asarray(rng.standard_normal((N, *shape)), order=order)
        before = (rhs.copy(), fp.copy(), op._sdiag.copy(), op._soff.copy())
        got = op.jacobian_solve(fp, rhs)
        want = oracle_banded.jacobian_solve(op, fp, rhs)
        assert got.shape == want.shape == rhs.shape
        assert np.array_equal(got, want)
        for old, now in zip(before, (rhs, fp, op._sdiag, op._soff)):
            assert np.array_equal(old, now)        # inputs untouched
        if matrix == "stiffness":
            # the Cholesky route (dptsv) to S^-1 agrees to rounding
            chol = oracle_banded.stiffness_solve(op, rhs)
            assert np.max(np.abs(got - chol)) <= 1e-12 * np.max(np.abs(chol))

    def test_non_finite_input_raises_value_error(self):
        op = _random_operator(1, 20)
        fp = np.zeros(21)
        rhs = np.ones(20)
        for bad in (np.nan, np.inf):
            fp_bad = fp.copy()
            fp_bad[4] = bad
            with pytest.raises(ValueError):
                op.jacobian_solve(fp_bad, rhs)
            rhs_bad = rhs.copy()
            rhs_bad[-1] = bad
            with pytest.raises(ValueError):
                op.jacobian_solve(fp, rhs_bad)
            with pytest.raises(ValueError):
                op.dual_norm(rhs_bad)
            with pytest.raises(ValueError):
                oracle_banded.jacobian_solve(op, fp_bad, rhs)

    def test_singular_jacobian_raises_lin_alg_error(self):
        # a zero diagonal with an odd number of rows is singular, and the
        # elimination meets an exactly zero pivot
        op = _random_operator(2, 3)
        fp = np.append(op._sdiag / op.w[:-1], 0.0)
        for i in range(3):
            while op.w[i] * fp[i] != op._sdiag[i]:
                fp[i] = np.nextafter(fp[i], np.inf if op.w[i] * fp[i]
                                     < op._sdiag[i] else -np.inf)
        assert not np.any(op._sdiag - op.w[:-1] * fp[:-1])
        with pytest.raises(np.linalg.LinAlgError):
            oracle_banded.jacobian_solve(op, fp, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            op.jacobian_solve(fp, np.ones(3))


class TestScipyLoad:
    """The LAPACK routine loaded without ``scipy.linalg`` is the object
    ``scipy.linalg.lapack`` exports, whichever import comes first."""

    def test_solve_first_then_scipy_linalg(self, tmp_path):
        # a fresh process: here scipy.linalg is already loaded
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import bubbletower.cli as cli\n"
            "from bubbletower import radial\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['solve', '--n', '3', '--k', '1', '--eps',\n"
            "                 '0.05', '--out', out]) == 0\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy\n"
            "import scipy.linalg.lapack as lapack\n"
            "from scipy.linalg import solve_banded\n"
            "assert radial._dgtsv() is lapack.dgtsv\n"
            "ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0],\n"
            "               [1.0, 1.0, 0.0]])\n"
            "x = solve_banded((1, 1), ab, np.ones(3))\n"
            "full = np.diag([4.0] * 3) + np.diag([1.0] * 2, 1)"
            " + np.diag([1.0] * 2, -1)\n"
            "assert np.allclose(full @ x, 1.0)\n"
            "with open(out + '/manifest.json') as fh:\n"
            "    versions = json.load(fh)['versions']\n"
            "assert versions['scipy'] == scipy.__version__, versions\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr

    def test_scipy_linalg_first(self):
        import scipy.linalg.lapack as lapack
        assert radial._dgtsv() is lapack.dgtsv is dgtsv
        assert _scipy.load("scipy.linalg._flapack") is \
            sys.modules["scipy.linalg._flapack"]

    def test_missing_module_names_the_directory(self):
        import scipy
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        with pytest.raises(ImportError, match="_no_such_module") as info:
            _scipy.load("scipy.linalg._no_such_module")
        assert where in str(info.value)
        assert "scipy.linalg._no_such_module" not in sys.modules


class TestOperatorPerGrid:
    def test_one_operator_per_grid_and_dimension(self):
        grid = geometric_grid(1.0, 1e-3, 20)
        op = grid.operator(D3)
        assert isinstance(op, RadialOperator)
        assert op.dim == D3 and len(op.w) == len(grid)
        assert grid.operator(Dimension(3)) is op
        op4 = grid.operator(Dimension(4))
        assert op4 is not op and op4.dim.n == 4
        assert grid.operator(Dimension(4)) is op4

    def test_equal_nodes_build_a_fresh_operator(self):
        grid = geometric_grid(1.0, 1e-3, 20)
        op = grid.operator(D3)
        for twin in (RadialGrid(grid.nodes, grid.per_decade),
                     RadialGrid(grid.nodes.copy(), grid.per_decade)):
            other = twin.operator(D3)
            assert other is not op and twin.operator(D3) is other
            assert np.array_equal(other.w, op.w)

    def test_grid_is_freed_without_the_cyclic_collector(self):
        grid = geometric_grid(1.0, 1e-3, 20)
        grid.operator(D3)
        alive = weakref.ref(grid)
        gc.disable()
        try:
            del grid
            assert alive() is None
        finally:
            gc.enable()

    def test_solves_on_one_grid_build_one_operator(self, monkeypatch):
        built = []
        init = RadialOperator.__init__

        def counted(self, dim, grid):
            built.append(grid)
            init(self, dim, grid)

        monkeypatch.setattr(RadialOperator, "__init__", counted)
        cfg = TowerConfig.centered(B3, 1, 0.05, [S1_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        res = ls_correction(B3, grid, cfg)
        ls_correction(B3, grid, cfg, phi0=res.phi)
        V = tower_radial_values(B3, grid.nodes, cfg) + res.phi
        with pytest.raises(SolverError):          # not at the dilation root
            newton_solve(B3, grid, 0.05, V)
        residual_norm(B3, cfg, grid, values=V)
        assert built == [grid]


class TestLeanLoops:
    """ls_correction against its unoptimised copy, and the residual
    certificate against the reference damped Newton."""

    @staticmethod
    def _assert_same(got, want):
        for name in ("phi", "c", "dc_dlogd", "dphi_dlogd", "orthogonality",
                     "values"):
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True), name
        assert got.iterations == want.iterations
        assert got.update_ratios == want.update_ratios
        assert got.converged == want.converged
        assert got.phi_norm == want.phi_norm

    @pytest.mark.parametrize("k, dbar", [(1, [S1_ROOT]),
                                         (2, [S1_ROOT, D2_ROOT])])
    def test_correction_bitwise(self, k, dbar):
        cfg = TowerConfig.centered(B3, k, 0.05, dbar)
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        res = ls_correction(B3, grid, cfg)
        assert res.converged
        self._assert_same(res, oracle_radial.ls_correction(B3, grid, cfg))

    def test_warm_started_correction_bitwise(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        start = 0.05 * tower_radial_values(B3, grid.nodes, cfg)
        res = ls_correction(B3, grid, cfg, phi0=start)
        assert res.converged
        self._assert_same(
            res, oracle_radial.ls_correction(B3, grid, cfg, phi0=start))

    def test_non_finite_correction_bitwise(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        start = np.full(len(grid), 1e100)
        res = ls_correction(B3, grid, cfg, phi0=start)
        assert not res.converged
        self._assert_same(
            res, oracle_radial.ls_correction(B3, grid, cfg, phi0=start))

    @pytest.mark.parametrize("start", ["cold", "warm", "non_finite"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_correction_bitwise_for_n_k_and_start(self, n, k, start):
        dom = BallDomain(Dimension(n))
        cfg = TowerConfig.centered(dom, k, 0.05, K3_ROOTS[n][:k])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        phi0 = {"cold": None,
                "warm": 0.05 * tower_radial_values(dom, grid.nodes, cfg),
                "non_finite": np.full(len(grid), 1e100)}[start]
        res = ls_correction(dom, grid, cfg, phi0=phi0)
        assert res.converged == (start != "non_finite")
        self._assert_same(
            res, oracle_radial.ls_correction(dom, grid, cfg, phi0=phi0))

    @pytest.mark.parametrize("k", [1, 3])
    def test_tangents_are_made_on_first_use_from_one_solve(self, monkeypatch,
                                                          k):
        # no tangent is computed with the correction; the first of
        # dc/dlog d and dphi/dlog d read makes Z = J^-1 SD in one
        # tridiagonal solve, and both equal the eager copy's bit for bit
        # (as on the matrix of test_correction_bitwise_for_n_k_and_start)
        cfg = TowerConfig.centered(B3, k, 0.05, K3_ROOTS[3][:k])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        solves = []
        solve = RadialOperator.jacobian_solve

        def counted(self, fp, rhs):
            solves.append(rhs.shape)
            return solve(self, fp, rhs)

        monkeypatch.setattr(RadialOperator, "jacobian_solve", counted)
        res = ls_correction(B3, grid, cfg)
        assert solves == [] and "dc_dlogd" not in vars(res)
        want = oracle_radial.ls_correction(B3, grid, cfg)
        solves.clear()
        assert np.array_equal(res.dphi_dlogd, want.dphi_dlogd)
        assert np.array_equal(res.dc_dlogd, want.dc_dlogd)
        assert solves == [(len(grid) - 1, k)]

    def test_forcing_term_stops_a_steering_correction_early(self):
        # forcing = 0 is the 1e-10 stop bit for bit; a forcing term stops
        # once the update falls below forcing |a|, here far from the root
        cfg = TowerConfig.centered(B3, 2, 0.05, [3 * S1_ROOT, 9 * D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
        exact = ls_correction(B3, grid, cfg)
        self._assert_same(ls_correction(B3, grid, cfg, forcing=0.0), exact)
        self._assert_same(exact, oracle_radial.ls_correction(B3, grid, cfg))
        steer = ls_correction(B3, grid, cfg, forcing=1e-4)
        assert steer.converged and steer.iterations < exact.iterations
        assert_allclose(steer.c, exact.c, rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_solves_are_numpy_solve(self, k):
        # the Schur and dilation-step solves call np.linalg.solve's gufunc
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, k))
        for b in (rng.normal(size=k), rng.normal(size=(k, k))):
            assert np.array_equal(radial._solve(a, b), np.linalg.solve(a, b))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            radial._solve(np.zeros((k, k)), np.ones(k))

    def _perturbed_start(self):
        sol = solve_from_tower(B3, 0.05, [S1_ROOT, D2_ROOT])
        r = sol.grid.nodes
        return sol.grid, sol.values * (1.0 + 0.02 * np.cos(3.0 * r))

    def test_certificate_bitwise_at_the_root_with_one_f_eps(self,
                                                             monkeypatch):
        # at the root the reference Newton stops before its first step, and
        # the certificate returns the same field and residual from one
        # evaluation of f_eps
        sol = solve_from_tower(B3, 0.05, [S1_ROOT, D2_ROOT])
        want = oracle_radial.newton_solve(B3, sol.grid, 0.05, sol.values)
        calls = []

        def counted(*args):
            calls.append(1)
            return f_eps(*args)

        monkeypatch.setattr(radial, "f_eps", counted)
        got = newton_solve(B3, sol.grid, 0.05, sol.values)
        assert want.newton_iters == 0
        assert got.newton_iters == 0 and got.converged
        assert got.residual == want.residual
        assert np.array_equal(got.values, want.values)
        assert len(calls) == 1

    def test_certificate_failure_trace_bitwise(self):
        # off the root the reference Newton has to step; the certificate
        # refuses, with the start residual of the reference's first iterate
        grid, start = self._perturbed_start()
        assert oracle_radial.newton_solve(B3, grid, 0.05,
                                          start).newton_iters >= 1
        with pytest.raises(SolverError) as want:
            oracle_radial.newton_solve(B3, grid, 0.05, start, max_iter=1)
        with pytest.raises(SolverError, match="above tolerance") as got:
            newton_solve(B3, grid, 0.05, start)
        assert len(want.value.trace) == 1
        assert got.value.trace == want.value.trace
