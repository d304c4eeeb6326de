import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from bubbletower import radial
from bubbletower.domain import BallDomain
from bubbletower.errors import (NonContractionError, ParameterError,
                               SolverError, StructureError)
from bubbletower.profiles import Dimension, bubble_radial, f_eps
from bubbletower.projection import (project_psi0_radial,
                                    project_psi0_radial_dlog)
from bubbletower.radial import (RadialGrid, RadialOperator,
                                apply_radial_laplacian, extract_scales,
                                geometric_grid, ls_correction, newton_solve,
                                nodal_radii, solve_from_tower, sweep_epsilon)
from bubbletower.tower import TowerConfig, tower_radial_values

D3 = Dimension(3)
B3 = BallDomain(D3)

S1_ROOT = 0.7406801701108005          # outermost scale ratio, unit ball n=3
D2_ROOT = 0.031582089621449034        # second dilation d2 = s1 s2


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

    def test_resolution_guard(self):
        grid = geometric_grid(1.0, 1e-2, 10)
        grid.require_resolves([0.5])
        from bubbletower.errors import ResolutionError
        with pytest.raises(ResolutionError):
            grid.require_resolves([1e-3])


class TestLaplacian:
    def test_quadratic_field_exact(self):
        # the nonuniform three-point stencil reproduces quadratics, so
        # u = 1 - r^2 gives -Δu = 2n up to roundoff at every node
        grid = geometric_grid(1.0, 1e-3, 40)
        u = 1.0 - grid.nodes**2
        lap = apply_radial_laplacian(D3, grid, u)
        assert np.max(np.abs(lap[:-1] - 6.0)) < 1e-6   # roundoff floor ~ eps/h^2

    def test_quartic_field_second_order(self):
        # u = (1 - r^2)^2 is beyond stencil exactness: rate ~ h^2
        errs = []
        for per_decade in (20, 40, 80):
            grid = geometric_grid(1.0, 1e-3, per_decade)
            r = grid.nodes
            u = (1.0 - r**2) ** 2
            target = 12.0 - 20.0 * r**2
            lap = apply_radial_laplacian(D3, grid, u)
            errs.append(np.max(np.abs(lap[:-1] - target[:-1])))
        assert errs[1] < errs[0] / 3.0
        assert errs[2] < errs[1] / 3.0

    def test_constant_field(self):
        grid = geometric_grid(1.0, 1e-3, 30)
        u = np.full(len(grid), 3.7)
        lap = apply_radial_laplacian(D3, grid, u)
        assert np.max(np.abs(lap[:-1])) < 1e-6

    def test_bubble_profile_identity(self):
        # -ΔU = U^5 for the unit-scale bubble; on a huge ball the Dirichlet
        # truncation is negligible against the stencil error
        dom_R = 500.0
        mu = 0.3
        errs = []
        for per_decade in (20, 40):
            grid = geometric_grid(dom_R, 1e-3, per_decade)
            u = bubble_radial(D3, grid.nodes, mu)
            lap = apply_radial_laplacian(D3, grid, u)
            target = u**5
            sel = slice(1, len(grid) - 1)
            errs.append(np.max(np.abs(lap[sel] - target[sel])
                               / np.max(target)))
        assert errs[1] < errs[0] / 3.0

    def test_dirichlet_row(self):
        grid = geometric_grid(1.0, 1e-2, 20)
        u = np.random.default_rng(0).standard_normal(len(grid))
        lap = apply_radial_laplacian(D3, grid, u)
        assert lap[-1] == u[-1]


class TestNewton:
    def test_single_layer_converges_sign_definite(self):
        eps = 0.05
        sols = sweep_epsilon(B3, 1, [eps], dbar0=[S1_ROOT])[1]
        sol = sols[0]
        assert sol.converged
        u = sol.values
        # one sign throughout, single interior extremum at the centre
        body = u[np.abs(u) > 1e-9 * np.max(np.abs(u))]
        assert np.all(body < 0)
        assert np.argmax(np.abs(u)) == 0
        assert nodal_radii(sol) == []

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
        assert len(nodal_radii(sol)) == 1

    def test_energy_identity(self):
        eps = 0.05
        sol = solve_from_tower(B3, eps, [S1_ROOT])
        op = RadialOperator(D3, sol.grid)
        u = sol.values
        lhs = op.h1_inner(u, u)
        rhs = op.l2w(u, f_eps(D3, u, eps))
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
            mus.append(extract_scales(sol, D3)[0][2])
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
        rows, _ = sweep_epsilon(B4, 2, [0.1, 0.07], dbar0=state.dbar)
        for r in rows:
            assert r["converged"]
            assert len(r["nodal_radii"]) == 1


class TestExtraction:
    def test_recovers_synthetic_tower(self):
        eps = 0.05
        cfg = TowerConfig.centered(B3, 2, eps, [0.7, 0.03])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        vals = tower_radial_values(B3, grid.nodes, cfg)
        from bubbletower.radial import RadialSolution
        sol = RadialSolution(grid, vals, eps, 0.0, True, 0)
        scales = extract_scales(sol, D3, expected_layers=2)
        spacing = 10.0 ** (1.0 / grid.per_decade) - 1.0
        for (_, _, mu_hat, _), mu in zip(scales, cfg.mus):
            assert abs(mu_hat - mu) <= 2.0 * mu * spacing

    def test_layer_count_mismatch(self):
        eps = 0.05
        cfg = TowerConfig.centered(B3, 1, eps, [0.7])
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        vals = tower_radial_values(B3, grid.nodes, cfg)
        from bubbletower.radial import RadialSolution
        sol = RadialSolution(grid, vals, eps, 0.0, True, 0)
        with pytest.raises(StructureError):
            extract_scales(sol, D3, expected_layers=2)

    def test_sign_split_matches_loop_reference(self):
        # nodal radii against the pairwise loop over the non-negligible
        # nodes; node 40 is negligible and must not split its run
        from bubbletower.radial import RadialSolution
        grid = geometric_grid(1.0, 1e-3, 20)
        r = grid.nodes
        u = np.cos(9.5 * np.pi * r) * np.exp(-r)
        u[40] = -1e-12 * np.sign(u[40])
        sol = RadialSolution(grid, u, 0.05, 0.0, True, 0)
        s = np.sign(u)
        s[np.abs(u) < 1e-9 * np.max(np.abs(u))] = 0
        idx = np.nonzero(s)[0]
        ref = [0.5 * (r[a] + r[b]) for a, b in zip(idx[:-1], idx[1:])
               if s[a] * s[b] < 0]
        assert len(ref) >= 5
        assert nodal_radii(sol) == ref

    def test_scales_shrink_linearly_in_eps(self):
        # over this window the extracted outer scale tracks eps itself
        eps_grid = [0.1, 0.07, 0.05, 0.035]
        rows, _ = sweep_epsilon(B3, 1, eps_grid, dbar0=[S1_ROOT])
        assert all(r["converged"] for r in rows)
        mus = [r["mu"][0] for r in rows]
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
                project_psi0_radial(B3, grid.nodes, b.mu)[:-1], 0.0))[:-1]
            for b in cfg.params])
        scale = np.max(np.abs(load))
        assert np.max(np.abs(lhs - SB @ res.c)) < 1e-9 * scale
        assert np.max(np.abs(SB @ res.c)) > 1e-6 * scale
        phi = res.phi[:-1]
        pair = SB.T @ phi
        assert np.all(np.abs(pair) < 1e-12 * np.linalg.norm(SB, axis=0)
                      * np.linalg.norm(phi))
        assert_allclose(pair, res.orthogonality, rtol=0, atol=1e-14)

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
        res = ls_correction(B3, grid, cfg, phi0=start, raise_on_stall=False)
        assert not res.converged
        assert res.iterations == 1
        assert np.all(np.isnan(res.c))
        with pytest.raises(NonContractionError, match="not finite"):
            ls_correction(B3, grid, cfg, phi0=start)

    def test_memory_is_linear_in_grid_size(self):
        cfg = TowerConfig.centered(B3, 2, 0.05, [S1_ROOT, D2_ROOT])
        grid = geometric_grid(1.0, cfg.mus[-1] / 100, 300)
        N = len(grid)
        assert 2500 < N < 3500
        tracemalloc.start()
        try:
            res = ls_correction(B3, grid, cfg, raise_on_stall=False)
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
            sweep_epsilon(B3, 1, [0.05, 0.1])

    def test_first_point_failure_is_hinted(self):
        # the first sweep point failing suggests starting from a larger eps;
        # a non-monotone schedule triggers the failure deterministically
        rows, sols = sweep_epsilon(B3, 2, [0.9, 0.8], dbar0=[1.0, 1.0])
        assert not rows[0]["converged"]
        assert "larger starting eps" in rows[0]["error"]

    def test_warm_and_cold_agree(self):
        eps_pair = [0.1, 0.07]
        rows, sols = sweep_epsilon(B3, 1, eps_pair, dbar0=[S1_ROOT])
        assert all(r["converged"] for r in rows)
        warm = sols[1]
        # cold tower start resolved on the same grid: same discrete solution
        cold = solve_from_tower(B3, 0.07, [S1_ROOT], grid=warm.grid)
        assert_allclose(cold.values, warm.values,
                        atol=1e-8 * np.max(np.abs(warm.values)))

    def test_two_layer_structure_preserved(self):
        eps_grid = [0.07, 0.05]
        rows, sols = sweep_epsilon(B3, 2, eps_grid, dbar0=[S1_ROOT, D2_ROOT])
        for row, sol in zip(rows, sols):
            assert row["converged"]
            assert len(row["nodal_radii"]) == 1


class TestDilationSolve:
    """Newton on c(log d) = 0 with the Jacobian of the bordered correction."""

    @pytest.mark.parametrize("k, eps, dbar", [(1, 0.1, [S1_ROOT]),
                                              (2, 0.05, [S1_ROOT, D2_ROOT])])
    def test_jacobian_matches_central_differences(self, k, eps, dbar):
        # c(log d) by central differences on one fixed grid
        cfg = TowerConfig.centered(B3, k, eps, dbar)
        grid = geometric_grid(1.0, cfg.mus[-1] / 50, 40)
        res = ls_correction(B3, grid, cfg)
        h = 1e-4
        fd = np.empty((k, k))
        for j in range(k):
            step = np.zeros(k)
            step[j] = h
            c = [ls_correction(B3, grid, TowerConfig.centered(
                B3, k, eps, np.exp(np.log(dbar) + sgn * step))).c
                for sgn in (1.0, -1.0)]
            fd[:, j] = (c[0] - c[1]) / (2.0 * h)
        assert np.max(np.abs(res.dc_dlogd - fd)) <= 1e-7 * np.max(np.abs(fd))

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
        # the field Newton is only the final polish: no plain attempt first
        calls = []

        def counted(*args, **kwargs):
            sol = newton_solve(*args, **kwargs)
            calls.append(sol.newton_iters)
            return sol

        monkeypatch.setattr(radial, "newton_solve", counted)
        cases = [(1, [0.1, 0.07], [S1_ROOT]), (1, [0.05], [S1_ROOT]),
                 (2, [0.07, 0.05], [S1_ROOT, D2_ROOT])]
        points = 0
        for k, eps_grid, dbar in cases:
            rows, _ = sweep_epsilon(B3, k, eps_grid, dbar0=dbar)
            assert all(r["converged"] for r in rows)
            points += len(eps_grid)
        solve_from_tower(B3, 0.05, [S1_ROOT, D2_ROOT])
        assert calls == [0] * (points + 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_sits_on_its_own_grid(self):
        # benchmark-range k = 2 continuation: every point ends on the grid
        # rebuilt from its own root, after at most five grids
        eps_grid = list(np.geomspace(0.16, 0.02, 7))
        rows, sols = sweep_epsilon(B3, 2, eps_grid,
                                   dbar0=[0.9 * S1_ROOT, 1.1 * D2_ROOT])
        assert all(r["converged"] for r in rows)
        for row, sol in zip(rows, sols):
            assert 1 <= row["grids"] <= 5
            assert row["correction_solves"] > row["dilation_steps"] > 0
            assert (row["dilation_steps"], row["correction_solves"],
                    row["grids"]) == (sol.dilation_steps,
                                      sol.correction_solves, sol.grids)
        cfg, grid, ls, counts = radial._adjust_dilations(
            B3, 0.05, [S1_ROOT, D2_ROOT])
        assert np.linalg.norm(ls.c) < 1e-13
        assert np.array_equal(grid.nodes,
                              radial._default_grid(B3, cfg.mus).nodes)
        assert counts["grids"] >= 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_start_keeps_the_tower_branch(self):
        # from 3x and 9x the reduced roots the first Newton steps move d by
        # far more than e^0.5; correcting those trials from the previous
        # phi reaches another correction, and d2 runs off to 1e-12.  The
        # reference is the root reached with every correction from phi = 0.
        rows, _ = sweep_epsilon(B3, 2, [0.2],
                                dbar0=[3 * S1_ROOT, 9 * D2_ROOT])
        assert rows[0]["converged"]
        assert_allclose(rows[0]["d"], [0.11093860014971624,
                                       1.056544079337875e-4], rtol=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_caller_grid_is_never_rebuilt(self, monkeypatch):
        # the root has mu_1 = 2.0e-3; its own grid would start at 4.0e-5
        grid = geometric_grid(1.0, 5e-5, 40)

        def no_grid(*args, **kwargs):
            raise AssertionError("solve built a grid")

        monkeypatch.setattr(radial, "geometric_grid", no_grid)
        sol = solve_from_tower(B3, 0.07, [S1_ROOT], grid=grid)
        assert sol.grid is grid
        assert sol.grids == 1 and sol.newton_iters == 0

    def test_round_cap_raises(self, monkeypatch):
        # a grid that moves on every rebuild never settles
        built = []

        def drifting(dom, mus, per_decade=40):
            built.append(1)
            return geometric_grid(dom.radius, min(mus) / (50.0 + len(built)),
                                  per_decade)

        monkeypatch.setattr(radial, "_default_grid", drifting)
        with pytest.raises(SolverError, match="did not settle"):
            radial._adjust_dilations(B3, 0.05, [S1_ROOT])
        assert len(built) == 11
