"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is asserted at its stated tolerance.  Where a quantitative
target is not reachable at the swept parameter range, the test still
asserts the stated bound (and fails), with the measured values printed for
audit; the companion module tests pin down what the implementation does
guarantee.

Criteria 5 and 6 meet the scale-schedule defect: the computed solutions
follow a schedule with one |ln eps| factor less than t = eps/|ln eps|^2 of
``tower.scale_variable``.  README "Acceptance suite" derives the limit
balances used below and holds the measurements; criterion 5 asserts the
k = 1 balance, criterion 6 prints the k = 2 balances.
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bubbletower.asymptotics import (verify_nonlinear_interactions,
                                     verify_norm_scaling)
from bubbletower.domain import BallDomain
from bubbletower.profiles import Dimension, bubble_radial
from bubbletower.projection import project_bubble_radial
from bubbletower.quadrature import const_a, const_a_closed
from bubbletower.radial import (RadialOperator, RadialSolution,
                                geometric_grid, ls_correction, nodal_radii,
                                sweep_epsilon)
from bubbletower.reduced import (ReducedConstants, layer_balances,
                                 solve_reduced)
from bubbletower.tower import TowerConfig, fit_asymptotic_order, \
    scale_variable
from oracles.ball import Layer, poisson_solve, project_bubble

EPS_SWEEP = [0.2, 0.14, 0.1, 0.07, 0.05, 0.035, 0.025]
# Criterion 5 fits an eps -> 0 law on its own sweep, where the k = 1 balance
# has settled and the scale does not yet depend on the grid (README).
EPS_ASYMPTOTIC = list(np.geomspace(1e-3, 1e-5, 7))
# Pohozaev balance for n = 3 on the unit ball: mu |ln mu| / eps
# = (pi/16)(1 + A_NEXT/|ln mu|) + O(|ln mu|^-2)
PI_16 = np.pi / 16
A_NEXT = 2 * np.log(2) - 0.5 * np.log(3) - 1 / 6


def _scales(sol, k, col):
    """Column ``col`` of a sweep point's scales (2: mu, 3: d), outermost
    first; k NaNs where the point failed."""
    if not isinstance(sol, RadialSolution):
        return [float("nan")] * k
    return [s[col] for s in sol.scales]


def _scaling_law(eps, mus):
    """Criterion 5's law for mu_1 on an eps sweep (n = 3, k = 1).

    Returns the pure-power exponent of mu_1 against eps/|ln eps|, the
    balance mu_1 |ln mu_1| / eps at each point, and whether both hold: the
    exponent within 0.1 of 1/(n-2) = 1 and every balance within 10 % of
    pi/16.  The exponent alone cannot tell one |ln eps| factor over two
    decades; the balance can.
    """
    eps, mus = np.asarray(eps), np.asarray(mus)
    slope = fit_asymptotic_order(
        np.stack([eps / np.abs(np.log(eps)), mus], axis=-1))
    balance = mus * np.abs(np.log(mus)) / eps
    ok = abs(slope - 1.0) <= 0.1 and bool(
        np.all(np.abs(balance / PI_16 - 1.0) <= 0.1))
    return slope, balance, ok


def _verdict(num, ok, elapsed, detail):
    line = (f"[criterion {num}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s) {detail}")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ball3():
    return BallDomain(Dimension(3))


@pytest.fixture(scope="module")
def reduced_roots(ball3):
    """Reduced-system states for (n, k) pairs plus their build wall time."""
    t0 = time.time()
    out = {}
    for n in (3, 4):
        dom = BallDomain(Dimension(n))
        consts = ReducedConstants.for_ball(dom)
        for k in (1, 2):
            out[(n, k)] = (dom, consts, solve_reduced(Dimension(n), k,
                                                      consts, dom))
    return out, time.time() - t0


def test_criterion_1_constants_oracle():
    t0 = time.time()
    worst = 0.0
    for n in (3, 4, 5, 6):
        dim = Dimension(n)
        for idx in (2, 4):
            q = const_a(dim, idx)
            c = const_a_closed(dim, idx)
            worst = max(worst, abs(q - c) / abs(c))
    elapsed = time.time() - t0
    _verdict(1, worst < 1e-6 and elapsed < 60,
             elapsed, f"quadrature vs closed form for the mass and "
             f"log-moment coefficients, n in 3..6: max rel dev {worst:.2e} "
             f"(tol 1e-6)")


def test_criterion_2_identity_oracle():
    t0 = time.time()
    worst = 0.0
    for n in (3, 4, 5):
        dim = Dimension(n)
        a1 = const_a(dim, 1)
        a2 = const_a(dim, 2)
        worst = max(worst, abs(a1 - 0.5 * (n - 2) * a2) / a1)
    _verdict(2, worst < 1e-6, time.time() - t0,
             f"a1 = ((n-2)/2) a2 identity, n in 3..5: "
             f"max rel dev {worst:.2e} (tol 1e-6)")


def test_criterion_3_projection_oracle(ball3):
    t0 = time.time()
    dim = ball3.dim
    # dense radial Dirichlet solve vs the closed-form centred projection
    mu = 0.1
    errs = []
    for per_decade in (40, 80):
        grid = geometric_grid(1.0, mu / 200, per_decade)
        op = RadialOperator(dim, grid)
        rhs = bubble_radial(dim, grid.nodes, mu) ** dim.p
        w = poisson_solve(op, rhs[:-1])
        exact = project_bubble_radial(ball3, grid.nodes, mu)
        errs.append(float(np.max(np.abs(w - exact))
                          / np.max(np.abs(exact))))
    solve_ok = errs[0] < 6e-3 and errs[1] < errs[0] / 2.5

    # asymptotic-expansion error order over mu in 1e-1 .. 1e-3
    r = np.linspace(0.0, 0.9, 10)
    pts = np.stack([r, 0 * r, 0 * r], axis=-1)
    mus = np.geomspace(1e-1, 1e-3, 7)
    sups = []
    for m in mus:
        b = Layer(mu=m, xi=np.zeros(3))
        diff = np.abs(project_bubble(ball3, b, pts, method="exact_centered")
                      - project_bubble(ball3, b, pts, method="asymptotic"))
        sups.append(float(np.max(diff)))
    slope = fit_asymptotic_order(np.stack([mus[1:], sups[1:]], axis=-1))
    slope_ok = slope >= (dim.n + 2) / 2 - 0.2
    _verdict(3, solve_ok and slope_ok, time.time() - t0,
             f"dense-solve errors {errs[0]:.1e}->{errs[1]:.1e} (truncation "
             f"rate), expansion-error slope {slope:.3f} "
             f"(needs >= {(dim.n + 2) / 2 - 0.2})")


def test_criterion_4_reduced_system(reduced_roots):
    t0 = time.time()
    roots, build_time = reduced_roots
    details = []
    ok = True
    for (n, k), (dom, consts, state) in roots.items():
        res = float(np.max(np.abs(state.Gvalue)))
        # bracket scan sign change per layer, Jacobian nondegeneracy
        brackets = all(len(r) >= 1 for r in state.all_roots)
        lo = layer_balances(state.__class__(
            state.dim, k, np.full(k, 1e-6), state.xi), consts)
        hi = layer_balances(state.__class__(
            state.dim, k, np.full(k, 1e6), state.xi), consts)
        signchange = bool(np.all(lo < 0) and np.all(hi > 0))
        this = (res < 1e-10 and brackets and signchange
                and state.jac_smin > 0)
        ok = ok and this
        details.append(f"(n={n},k={k}): |G|={res:.1e} smin={state.jac_smin:.2e}")
    elapsed = time.time() - t0 + build_time
    _verdict(4, ok and elapsed < 60, elapsed, "; ".join(details))


def test_criterion_5_full_pde_sweep(reduced_roots):
    t0 = time.time()
    dom, _, state = reduced_roots[0][(3, 1)]
    sols = sweep_epsilon(dom, EPS_ASYMPTOTIC, dbar0=state.dbar)
    converged = [isinstance(s, RadialSolution) for s in sols]
    eps = np.array(EPS_ASYMPTOTIC)
    mus = np.array([_scales(s, 1, 2)[0] for s in sols])
    slope, balance, law_ok = _scaling_law(eps, mus)
    slope_t = fit_asymptotic_order(
        np.stack([[scale_variable(e) for e in eps], mus], axis=-1))
    next_order = balance / (PI_16 * (1 + A_NEXT / np.abs(np.log(mus))))
    elapsed = time.time() - t0
    ok = all(converged) and law_ok and elapsed < 300
    _verdict(5, ok, elapsed,
             f"eps in [1e-5, 1e-3]: converged {sum(converged)}/7; mu_1 "
             f"exponent vs eps/|ln eps| = {slope:.3f} (needs 1.0 +- 0.1; "
             f"vs the program's t = eps/|ln eps|^2 it is {slope_t:.3f}); "
             f"mu_1|ln mu_1|/eps {balance.min():.4f}..{balance.max():.4f} "
             f"(needs pi/16 = {PI_16:.4f} +- 10 %; ratio to the next-order "
             f"balance {next_order.min():.4f}..{next_order.max():.4f}); d_1 "
             f"drift {_scales(sols[0], 1, 3)[0]:.3f}->"
             f"{_scales(sols[-1], 1, 3)[0]:.3f}")


def test_criterion_5_law_separates_schedules():
    """Criterion 5's law holds for mu_1 |ln mu_1| = (pi/16) eps and fails on
    every point for mu_1 = dbar t, t = eps/|ln eps|^2, at the k = 1 reduced
    root dbar = 0.741."""
    eps = np.array(EPS_ASYMPTOTIC)
    pohozaev = PI_16 * eps
    for _ in range(50):
        pohozaev = PI_16 * eps / np.abs(np.log(pohozaev))
    assert _scaling_law(eps, pohozaev)[2]
    documented = 0.741 * np.array([scale_variable(e) for e in eps])
    _, balance, ok = _scaling_law(eps, documented)
    assert not ok and np.all(np.abs(balance / PI_16 - 1.0) > 0.1)


def test_criterion_6_sign_changing_tower(reduced_roots):
    t0 = time.time()
    dom, _, state = reduced_roots[0][(3, 2)]
    droot = state.dbar
    sols = sweep_epsilon(dom, EPS_SWEEP, dbar0=droot)
    # longest run of consecutive structurally-correct converged points
    def structural(s):
        if not isinstance(s, RadialSolution):
            return False
        radii = nodal_radii(s.grid.nodes, s.values, dom.dim)
        if len(radii) != 1:
            return False
        u = s.values
        inner = u[0]
        outer_region = u[np.searchsorted(s.grid.nodes, radii[0]) + 1:]
        body = outer_region[np.abs(outer_region)
                            > 1e-9 * np.max(np.abs(u))]
        return inner > 0 > body[0] if len(body) else False

    flags = [structural(s) for s in sols]
    best_run, run = 0, 0
    for f in flags:
        run = run + 1 if f else 0
        best_run = max(best_run, run)
    factors = []
    ds = [_scales(s, 2, 3) for s in sols]
    for d, f in zip(ds, flags):
        if f:
            factors.append(max(max(d[i] / droot[i], droot[i] / d[i])
                               for i in range(2)))
    factor_ok_points = [f <= 2.0 for f in factors]
    # need >= 4 consecutive converged points whose dilations sit within
    # a factor 2 of the reduced root
    best_ok_run, run = 0, 0
    for f in factor_ok_points:
        run = run + 1 if f else 0
        best_ok_run = max(best_ok_run, run)
    # scale-free balances that the d_i under t = eps/|ln eps|^2 hide (README)
    eps = np.array(EPS_SWEEP)
    mu1, mu2 = np.array([_scales(s, 2, 2) for s in sols]).T
    inner = np.sqrt(mu2 / mu1) * np.abs(np.log(mu2)) / eps
    outer = mu1 * np.abs(np.log(mu1)) / eps
    outer_limit = PI_16 * (1 + np.log(mu1) / np.log(mu2))
    elapsed = time.time() - t0
    _verdict(6, best_run >= 4 and best_ok_run >= 4, elapsed,
             f"structure (1 nodal radius, alternating heights) on "
             f"{best_run}/7 consecutive points; dilation factor vs root "
             f"max {max(factors) if factors else float('nan'):.1f} "
             f"(needs <= 2 on 4 consecutive); d2 {ds[0][1]:.2e}"
             f"->{ds[-1][1]:.2e} vs root {droot[1]:.2e}; "
             f"schedule defect: sqrt(mu2/mu1)|ln mu2|/eps "
             f"{np.array2string(inner, precision=4)} vs pi/16 = "
             f"{PI_16:.4f}; mu1|ln mu1|/eps "
             f"{np.array2string(outer, precision=4)} vs "
             f"(pi/16)(1+|ln mu1|/|ln mu2|) "
             f"{np.array2string(outer_limit, precision=4)}")


def test_criterion_7_orthogonal_correction(reduced_roots, ball3):
    t0 = time.time()
    ok = True
    details = []
    for k in (1, 2):
        dbar = reduced_roots[0][(3, k)][2].dbar
        norms, ratios_ok, ortho_ok, conv_ok = [], True, True, True
        phi_prev = grid_prev = None
        for eps in EPS_SWEEP:
            cfg = TowerConfig.centered(ball3, k, eps, dbar)
            grid = geometric_grid(1.0, cfg.mus[-1] / 100, 40)
            phi0 = (np.interp(grid.nodes, grid_prev.nodes, phi_prev)
                    if phi_prev is not None else None)
            res = ls_correction(ball3, grid, cfg, phi0=phi0)
            conv_ok &= res.converged
            if len(res.update_ratios) >= 5:
                ratios_ok &= max(res.update_ratios[-5:]) < 0.95
            ortho_ok &= float(np.max(np.abs(res.orthogonality))) < 1e-10
            norms.append(res.phi_norm)
            phi_prev, grid_prev = res.phi, grid
        decreasing = bool(np.all(np.diff(norms) < 0))
        ok &= conv_ok and ratios_ok and ortho_ok and decreasing
        details.append(f"k={k}: |phi| {norms[0]:.3f}->{norms[-1]:.3f} "
                       f"decreasing={decreasing}")
    _verdict(7, ok, time.time() - t0, "; ".join(details))


def test_criterion_8_scaling_law_suite(reduced_roots):
    from bubbletower.asymptotics import verify_projection_and_gram

    t0 = time.time()
    dom, _, state = reduced_roots[0][(3, 2)]
    checks = []
    cases = [("U", 2.0), ("psi0", dom.dim.two_star), ("psih", 2.0)]
    for (which, q), row in zip(cases, verify_norm_scaling(dom, cases)):
        checks.append((f"{which},q={q:g}",
                       abs(row.fitted - row.predicted) <= 0.2,
                       f"{row.fitted:.3f}/{row.predicted:g}"))
    # the whole verification bundle counts into the runtime budget
    [inter] = [row for row in verify_nonlinear_interactions(
        dom, 2, dbar=state.dbar) if row.name.startswith("interaction[fepli2,")]
    checks.append(("fepli2", inter.verdict in ("pass", "marginal"),
                   f"{inter.fitted:.3f}/{inter.predicted:g} ({inter.verdict})"))
    verify_projection_and_gram(dom, 2)
    elapsed = time.time() - t0
    ok = all(c[1] for c in checks) and elapsed < 600
    _verdict(8, ok, elapsed,
             "; ".join(f"{name}: {info}" for name, _, info in checks))


def _run_cli(args, out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-m", "bubbletower.cli", *args, "--out",
         str(out_dir)],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    jobs = [
        ("constants", ["constants", "--n", "3"]),
        ("reduce", ["reduce", "--n", "3", "--k", "2"]),
        ("sweep", ["sweep", "--n", "3", "--k", "1", "--eps", "0.1,0.07",
                   "--dbar", "0.7406801701108005"]),
    ]
    identical = True
    details = []
    for name, args in jobs:
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            _run_cli(args, out)
            csvs = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
            digest = hashlib.sha256()
            for p in csvs:
                digest.update((out / p).read_bytes())
            digests.append(digest.hexdigest())
        same = digests[0] == digests[1]
        identical &= same
        details.append(f"{name}:{'=' if same else '!='}")
    _verdict(9, identical, time.time() - t0,
             "byte-identical CSVs across two runs: " + " ".join(details))
