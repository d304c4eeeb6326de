"""Command-line entry point.

Subcommands: constants, reduce, ansatz, solve, sweep, verify.  Flags mirror
the configuration keys, ``--config`` points at a key=value file, and the
environment variable ``BUBBLETOWER_OUT`` overrides the default output
directory.  Exit codes: 0 success, 1 usage/configuration error, 2 any
other package error (an ``error.json`` record is left next to any partial
results).  ``solve`` and ``sweep`` share one body, which writes every
point's row and then raises the first failed point's own exception; the
record gives that exception's type as ``error``, its message, and for a
:class:`SolverError` its residual trace as ``trace``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .asymptotics import (verify_nonlinear_interactions, verify_norm_scaling,
                          verify_projection_and_gram)
from .config import COMMANDS, KEYS, RunConfig, parse_config, print_config
from .domain import BallDomain
from .errors import (BubbleTowerError, ConfigError, SolverError,
                     ValidationError)
from .profiles import Dimension
from .quadrature import (const_a, const_a_closed, g_sigma, g_sigma_closed,
                         gram_limit_constant)
from .radial import (SOLVE_COUNTS, _default_level, _lattice_grid,
                     extract_scales, nodal_radii, sweep_epsilon)
from .reduced import ReducedConstants, solve_reduced
from .report import ReportWriter
from .tower import TowerConfig, residual_norm, tower_radial_values

def _domain(cfg: RunConfig) -> BallDomain:
    dim = Dimension(cfg.n)
    center = (np.asarray(cfg.domain_center, dtype=float)
              if cfg.domain_center else None)
    return BallDomain(dim, center=center, radius=cfg.domain_radius)


def _dbar(cfg: RunConfig, dom: BallDomain) -> np.ndarray:
    if cfg.dbar:
        return np.asarray(cfg.dbar, dtype=float)
    consts = ReducedConstants.for_ball(dom)
    return np.cumprod(solve_reduced(dom.dim, cfg.k, consts, dom).s)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_constants(cfg: RunConfig, writer: ReportWriter):
    dim = Dimension(cfg.n)
    rows = []
    for idx in (1, 2, 3, 4):
        rows.append((cfg.n, f"a{idx}", "quadrature", const_a(dim, idx)))
        rows.append((cfg.n, f"a{idx}", "closed_form", const_a_closed(dim, idx)))
    rows.append((cfg.n, "g0", "quadrature",
                 g_sigma(dim, np.zeros(dim.n))))
    rows.append((cfg.n, "g0", "closed_form", g_sigma_closed(dim, 0.0)))
    rows.append((cfg.n, "c0", "quadrature", gram_limit_constant(dim, 0)))
    rows.append((cfg.n, "ch", "quadrature", gram_limit_constant(dim, 1)))
    writer.csv("constants.csv", ["n", "quantity", "method", "value"], rows)


def _run_reduce(cfg: RunConfig, writer: ReportWriter):
    dom = _domain(cfg)
    consts = ReducedConstants.for_ball(dom)
    state = solve_reduced(dom.dim, cfg.k, consts, dom)
    doc = {
        "n": cfg.n,
        "k": cfg.k,
        "s": list(map(float, state.s)),
        "dbar": list(map(float, state.dbar)),
        "xi": list(map(float, state.xi)),
        "G_residual_max": float(np.max(np.abs(state.Gvalue))),
        "jacobian_singular_values": list(map(float, state.jac_svals)),
        "jacobian_smallest_singular_value": state.jac_smin,
        "bracketed_roots_per_layer": [list(map(float, r))
                                      for r in state.all_roots],
        "balance_slopes": list(map(float, state.jac[0, :cfg.k])),
        "robin_hessian": float(np.linalg.eigvalsh(
            consts.robin_hess(state.xi))[0]),
    }
    writer.json("reduce.json", doc)
    header = (["n", "k"] + [f"s_{i+1}" for i in range(cfg.k)]
              + [f"d_{i+1}" for i in range(cfg.k)]
              + ["G_residual_max", "jac_smin"])
    row = ([cfg.n, cfg.k] + list(state.s) + list(state.dbar)
           + [float(np.max(np.abs(state.Gvalue))), state.jac_smin])
    writer.csv("reduce.csv", header, [row])


def _run_ansatz(cfg: RunConfig, writer: ReportWriter):
    dom = _domain(cfg)
    dbar = _dbar(cfg, dom)
    rows = []
    for eps in cfg.eps:
        tcfg = TowerConfig.centered(dom, cfg.k, eps, dbar)
        grid = _lattice_grid(dom.radius, _default_level(
            dom, tcfg.mus, cfg.grid_per_decade), cfg.grid_per_decade)
        vals = tower_radial_values(dom, grid.nodes, tcfg)
        res = residual_norm(dom, tcfg, grid, values=vals)
        scales = extract_scales(grid.nodes, vals, eps, dom.dim,
                                expected_layers=cfg.k)
        rows.append([eps, res] + [s[2] for s in scales]
                    + [s[1] for s in scales])
    header = (["eps", "residual"] + [f"mu_{i+1}" for i in range(cfg.k)]
              + [f"height_{i+1}" for i in range(cfg.k)])
    writer.csv("ansatz.csv", header, rows)


def _run_points(cfg: RunConfig, writer: ReportWriter):
    """``solve`` and ``sweep``: one ``<cmd>.csv`` row per eps, then the
    first failed point's own exception.  A failed point's row has NaN for
    its residual, scales and nodal radii, and 0 for its counts."""
    dom = _domain(cfg)
    results = sweep_epsilon(dom, cfg.eps, dbar0=_dbar(cfg, dom),
                            per_decade=cfg.grid_per_decade)
    k = cfg.k
    header = (["eps", "converged", "newton_iters", "residual"]
              + [f"mu_{i+1}" for i in range(k)]
              + [f"d_{i+1}" for i in range(k)]
              + [f"nodal_radius_{i+1}" for i in range(k - 1)]
              + list(SOLVE_COUNTS))
    nan = float("nan")
    table = []
    for eps, sol in zip(cfg.eps, results):
        if isinstance(sol, BubbleTowerError):
            table.append([eps, False, 0, nan] + [nan] * (3 * k - 1)
                         + [0] * len(SOLVE_COUNTS))
            continue
        nodal = nodal_radii(sol.grid.nodes, sol.values, dom.dim) + [nan] * k
        table.append([eps, sol.converged, sol.newton_iters, sol.residual]
                     + [s[2] for s in sol.scales] + [s[3] for s in sol.scales]
                     + nodal[: k - 1] + [getattr(sol, key)
                                         for key in SOLVE_COUNTS])
    writer.csv(f"{cfg.cmd}.csv", header, table)
    for sol in results:
        if isinstance(sol, BubbleTowerError):
            raise sol


def _verdict_rows(v):
    return [[x, y, v.predicted, v.fitted, v.verdict] for x, y in v.data]


def _run_verify(cfg: RunConfig, writer: ReportWriter):
    dom = _domain(cfg)
    header = ["sweep_var", "measured", "predicted_exponent",
              "fitted_exponent", "verdict"]
    norm_cases = [("U", 2.0), ("psi0", dom.dim.two_star), ("psih", 2.0)]
    rows = []
    for v in verify_norm_scaling(dom, norm_cases):
        rows += _verdict_rows(v)
    writer.csv("verify_norms.csv", header, rows)

    dbar = _dbar(cfg, dom)
    rows = []
    for v in verify_nonlinear_interactions(dom, cfg.k, dbar=dbar):
        rows += _verdict_rows(v)
    writer.csv("verify_interactions.csv", header, rows)

    rows = []
    for v in verify_projection_and_gram(dom, cfg.k):
        rows += _verdict_rows(v)
    writer.csv("verify_projection.csv", header, rows)


_BODIES = {
    "constants": _run_constants,
    "reduce": _run_reduce,
    "ansatz": _run_ansatz,
    "solve": _run_points,
    "sweep": _run_points,
    "verify": _run_verify,
}


def execute(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    writer = ReportWriter(cfg.out_dir)
    try:
        _BODIES[cfg.cmd](cfg, writer)
    except BubbleTowerError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SolverError):
            record["trace"] = [float(v) for v in exc.trace]
        writer.json("error.json", record)
        writer.manifest(print_config(cfg))
        return 2
    writer.manifest(print_config(cfg))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first :func:`main` call and reused
    by every later call in the process (parsing leaves it unchanged).

    Running several jobs through :func:`main` in one process is a supported
    use (``perfbench/run.py`` does it job after job); a one-shot command
    builds the parser once either way.
    """
    parser = argparse.ArgumentParser(
        prog="bubbletower",
        description=("Construct and verify sign-changing bubble-tower "
                     "solutions of the slightly subcritical ball problem."))
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None,
                       help="path to a key=value configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides BUBBLETOWER_OUT)")
        for key in KEYS:
            if key in ("cmd", "output.dir"):
                continue
            p.add_argument(f"--{key}", dest=key, default=None, metavar="V")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    raw = vars(ns)
    overrides = {k: v for k, v in raw.items() if k in KEYS and v is not None}
    overrides["cmd"] = raw["cmd"]
    out = raw.get("out") or os.environ.get("BUBBLETOWER_OUT")
    if out:
        overrides["output.dir"] = out
    path = raw["config"]
    try:
        text = None
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read config file {path!r}: {exc.strerror}")
        cfg = parse_config(text, overrides=overrides)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
