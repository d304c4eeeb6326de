"""Command-line entry point.

Subcommands: constants, reduce, ansatz, solve, sweep, verify.  Flags mirror
the configuration keys, ``--config`` points at a key=value file, and the
environment variable ``BUBBLETOWER_OUT`` overrides the default output
directory.  Exit codes: 0 success, 1 usage/configuration error, 2 numerical
failure (an ``error.json`` record is left next to any partial results; its
``error`` names the exception type of the first failed point, and for a
:class:`SolverError` it carries that point's residual trace as ``trace``).
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
from .errors import (AccuracyError, BubbleTowerError, ConfigError,
                     ParameterError, ResolutionError, SolvabilityError,
                     SolverError, StructureError, ValidationError)
from .profiles import Dimension
from .quadrature import (const_a, const_a_closed, g_sigma, g_sigma_closed,
                         gram_limit_constant)
from .radial import (SOLVE_COUNTS, extract_scales, geometric_grid,
                     sweep_epsilon)
from .reduced import ReducedConstants, solve_reduced
from .report import ReportWriter
from .tower import TowerConfig, residual_norm, tower_radial_values

_NUMERICAL_ERRORS = (AccuracyError, SolverError, SolvabilityError,
                     ResolutionError, StructureError, ParameterError)


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
    svals = np.linalg.svd(state.jac, compute_uv=False)
    doc = {
        "n": cfg.n,
        "k": cfg.k,
        "s": list(map(float, state.s)),
        "dbar": list(map(float, state.dbar)),
        "xi": list(map(float, state.xi)),
        "G_residual_max": float(np.max(np.abs(state.Gvalue))),
        "jacobian_singular_values": list(map(float, svals)),
        "jacobian_smallest_singular_value": state.jac_smin,
        "bracketed_roots_per_layer": [list(map(float, r))
                                      for r in state.all_roots],
        "drift_kernel_extremum_at_origin": state.g_extremum,
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
        grid = geometric_grid(dom.radius, tcfg.mus[-1] / 50.0,
                              cfg.grid_per_decade)
        res = residual_norm(dom, tcfg, grid)
        vals = tower_radial_values(dom, grid.nodes, tcfg)
        scales = extract_scales(grid.nodes, vals, eps, dom.dim,
                                expected_layers=cfg.k)
        rows.append([eps, res] + [s[2] for s in scales]
                    + [s[1] for s in scales])
    header = (["eps", "residual"] + [f"mu_{i+1}" for i in range(cfg.k)]
              + [f"height_{i+1}" for i in range(cfg.k)])
    writer.csv("ansatz.csv", header, rows)


def _sweep_header(k: int):
    return (["eps", "converged", "newton_iters", "residual"]
            + [f"mu_{i+1}" for i in range(k)]
            + [f"d_{i+1}" for i in range(k)]
            + [f"nodal_radius_{i+1}" for i in range(k - 1)]
            + list(SOLVE_COUNTS))


def _sweep_rows(rows, k):
    out = []
    for r in rows:
        nodal = list(r["nodal_radii"]) + [float("nan")] * (k - 1)
        out.append([r["eps"], r["converged"], r["newton_iters"], r["residual"]]
                   + list(r["mu"]) + list(r["d"]) + nodal[: k - 1]
                   + [r[key] for key in SOLVE_COUNTS])
    return out


def _point_failure(row, message: str):
    """``message`` as an exception of the type the failed ``row`` raised."""
    if issubclass(row["error_type"], SolverError):
        return row["error_type"](message, trace=row["trace"])
    return row["error_type"](message)


def _run_solve(cfg: RunConfig, writer: ReportWriter):
    dom = _domain(cfg)
    dbar = _dbar(cfg, dom)
    rows, _ = sweep_epsilon(dom, cfg.k, cfg.eps[:1], dbar0=dbar,
                            per_decade=cfg.grid_per_decade)
    writer.csv("solve.csv", _sweep_header(cfg.k), _sweep_rows(rows, cfg.k))
    if not rows[0]["converged"]:
        raise _point_failure(rows[0], rows[0]["error"])


def _run_sweep(cfg: RunConfig, writer: ReportWriter):
    dom = _domain(cfg)
    dbar = _dbar(cfg, dom)
    rows, _ = sweep_epsilon(dom, cfg.k, cfg.eps, dbar0=dbar,
                            per_decade=cfg.grid_per_decade)
    writer.csv("sweep.csv", _sweep_header(cfg.k), _sweep_rows(rows, cfg.k))
    bad = [r for r in rows if not r["converged"]]
    if bad:
        raise _point_failure(bad[0], "sweep points did not converge at eps = "
                             f"{[r['eps'] for r in bad]}")


def _verdict_rows(v):
    return [[x, y, v.predicted, v.fitted, v.verdict] for x, y in v.data]


def _run_verify(cfg: RunConfig, writer: ReportWriter):
    dim = Dimension(cfg.n)
    dom = _domain(cfg)
    header = ["sweep_var", "measured", "predicted_exponent",
              "fitted_exponent", "verdict"]
    norm_cases = [("U", 2.0), ("psi0", dim.two_star), ("psih", 2.0)]
    rows = []
    for which, q in norm_cases:
        v = verify_norm_scaling(dim, which, q)
        rows += _verdict_rows(v)
    writer.csv("verify_norms.csv", header, rows)

    dbar = _dbar(cfg, dom)
    rows = []
    for case in ("sumbu2", "fepli1", "fepli2"):
        v = verify_nonlinear_interactions(dim, cfg.k, case, dbar=dbar, dom=dom)
        rows += _verdict_rows(v)
    writer.csv("verify_interactions.csv", header, rows)

    rows = []
    for v in verify_projection_and_gram(dim, cfg.k, dom=dom):
        rows += _verdict_rows(v)
    writer.csv("verify_projection.csv", header, rows)


_BODIES = {
    "constants": _run_constants,
    "reduce": _run_reduce,
    "ansatz": _run_ansatz,
    "solve": _run_solve,
    "sweep": _run_sweep,
    "verify": _run_verify,
}


def execute(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    writer = ReportWriter(cfg.out_dir)
    try:
        _BODIES[cfg.cmd](cfg, writer)
    except _NUMERICAL_ERRORS as exc:
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
    try:
        return execute(cfg)
    except BubbleTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
