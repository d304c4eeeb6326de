"""Span tracing of bubbletower from outside the package.

``Tracer.install()`` rebinds public functions of the package at every name a
caller looks them up by (the defining module and each module that imported
the function), so the package code itself is unchanged.  Each wrapped call
records one span: name, start, end and parent span id, kept in compact
in-memory arrays and written out when the run ends.  Counts that do not
depend on the machine (calls, iterations, grid sizes, array elements) are
taken from the arguments and the objects the calls return.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested (one thread), so that is exactly the
part of the interval no child covers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

# Dense N x N arrays ls_correction allocates: diag(W f'), M = S^-1 diag(W f'),
# B Ginv SB^T M, M - (that), eye(N), L and the LU copy of L.
LS_DENSE_COPIES = 7

# (module, attribute, span name, layer group); attribute may be
# "Class.method".  Self times and calls are reported per group.
SPANS = [
    ("bubbletower.cli", "main", "cli.main", "cli"),
    ("bubbletower.config", "parse_config", "cli.parse_config", "cli"),
    ("bubbletower.report", "ReportWriter.csv", "report.csv", "report"),
    ("bubbletower.report", "ReportWriter.json", "report.json", "report"),
    ("bubbletower.report", "ReportWriter.manifest", "report.manifest",
     "report"),
    ("bubbletower.domain", "find_robin_min", "domain.find_robin_min",
     "domain.find_robin_min"),
    ("bubbletower.quadrature", "const_a", "quadrature.const_a", "quadrature"),
    ("bubbletower.quadrature", "g_sigma", "quadrature.g_sigma", "quadrature"),
    ("bubbletower.quadrature", "tabulate_g", "quadrature.tabulate_g",
     "quadrature"),
    ("bubbletower.quadrature", "gram_limit_constant",
     "quadrature.gram_limit_constant", "quadrature"),
    ("bubbletower.quadrature", "integrate_radial",
     "quadrature.integrate_radial", "quadrature"),
    ("bubbletower.reduced", "solve_reduced", "reduced.solve_reduced",
     "reduced.solve_reduced"),
    ("bubbletower.projection", "gram_matrix", "projection.gram_matrix",
     "projection.gram_matrix"),
    ("bubbletower.projection", "project_bubble_radial",
     "projection.project_bubble_radial", "projection.project_radial"),
    ("bubbletower.projection", "project_psi0_radial",
     "projection.project_psi0_radial", "projection.project_radial"),
    ("bubbletower.tower", "TowerConfig.centered", "tower.centered", "tower"),
    ("bubbletower.tower", "tower_radial_values", "tower.tower_radial_values",
     "tower"),
    ("bubbletower.tower", "residual_norm", "tower.residual_norm", "tower"),
    ("bubbletower.profiles", "f_eps", "profiles.f_eps", "profiles.f_eps"),
    ("bubbletower.profiles", "f_eps_prime", "profiles.f_eps_prime",
     "profiles.f_eps"),
    ("bubbletower.radial", "ls_correction", "radial.ls_correction",
     "radial.ls_correction"),
    ("bubbletower.radial", "newton_solve", "radial.newton_solve",
     "radial.newton_solve"),
    ("bubbletower.radial", "solve_from_tower", "radial.solve_from_tower",
     "radial.solve_from_tower"),
    ("bubbletower.radial", "sweep_epsilon", "radial.sweep_epsilon",
     "radial.sweep_epsilon"),
    ("bubbletower.asymptotics", "verify_norm_scaling",
     "asymptotics.verify_norm_scaling", "asymptotics"),
    ("bubbletower.asymptotics", "verify_nonlinear_interactions",
     "asymptotics.verify_nonlinear_interactions", "asymptotics"),
    ("bubbletower.asymptotics", "verify_projection_and_gram",
     "asymptotics.verify_projection_and_gram", "asymptotics"),
]

# Scalar Robin evaluations: about a million per n=4 scan, so counted only.
COUNTED = [("bubbletower.domain", "robin_ball", "domain.robin")]


class Tracer:
    """Records spans and counts of the wrapped package functions."""

    def __init__(self):
        self.names: list = []          # span-name table; spans store indices
        self.groups: list = []         # layer group of each name
        self._name_id: dict = {}
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_t0 = array("q")
        self.span_t1 = array("q")
        self._stack: list = []
        self.counts: dict = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_t0.append(time.perf_counter_ns())
        self.span_t1.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_t1[sid] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _wrap(self, fn, name: str, group: str):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        name_id = self._name_id[name]
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid)
                if observe is not None:
                    observe(tracer, args, kwargs, None)
                raise
            tracer._close(sid)
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        return traced

    def _count(self, fn, name: str):
        key = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function wherever the package looks it up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, group in SPANS:
            self._rebind(modname, attr, lambda fn: self._wrap(fn, name, group))
        for modname, attr, name in COUNTED:
            self._rebind(modname, attr, lambda fn: self._count(fn, name))

    def _rebind(self, modname: str, attr: str, make) -> None:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            new = (classmethod(make(raw.__func__))
                   if isinstance(raw, classmethod) else make(raw))
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for other in list(sys.modules.values()):
            oname = getattr(other, "__name__", "")
            if oname != "bubbletower" and not oname.startswith("bubbletower."):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._undo.append((other, key, orig))
                    setattr(other, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # -- cost of tracing -----------------------------------------------------

    @staticmethod
    def wrapper_cost(reps: int = 200_000, repeats: int = 5) -> tuple:
        """Seconds a span wrapper and a count wrapper add to one call.

        Each is the median over ``repeats`` of (wrapped loop - plain loop) /
        ``reps`` on a function that does nothing.
        """
        def nothing():
            return None

        def loop(fn):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            return time.perf_counter() - t0

        span, count = [], []
        for _ in range(repeats):
            probe = Tracer()
            plain = loop(nothing)
            span.append((loop(probe._wrap(nothing, "probe", "probe"))
                         - plain) / reps)
            count.append((loop(probe._count(nothing, "probe")) - plain) / reps)
        return statistics.median(span), statistics.median(count)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list:
        """Per-span self time in seconds, in span order."""
        n = len(self.span_name)
        dur = [(self.span_t1[i] - self.span_t0[i]) * 1e-9 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)]

    def summary(self) -> dict:
        """Group self times, call counts and the derived per-layer figures."""
        selfs = self.self_times()
        group_self: dict = {}
        group_calls: dict = {}
        for i, st in enumerate(selfs):
            g = self.groups[self.span_name[i]]
            group_self[g] = group_self.get(g, 0.0) + st
            group_calls[g] = group_calls.get(g, 0) + 1
        return {
            "spans": len(selfs),
            "counted_calls": sum(self.counts.get(name + ".calls", 0)
                                 for _, _, name in COUNTED),
            "group_self": group_self,
            "group_calls": group_calls,
            "globalised": self._globalised(),
            "counts": dict(self.counts),
        }

    def _globalised(self) -> tuple:
        """(solve_from_tower calls, those with an ls_correction descendant)."""
        try:
            sft = self.names.index("radial.solve_from_tower")
            lsc = self.names.index("radial.ls_correction")
        except ValueError:
            return 0, 0
        hit = set()
        for i in range(len(self.span_name)):
            if self.span_name[i] != lsc:
                continue
            p = self.span_parent[i]
            while p >= 0:
                if self.span_name[p] == sft:
                    hit.add(p)
                    break
                p = self.span_parent[p]
        total = sum(1 for x in self.span_name if x == sft)
        return total, len(hit)

    def write(self, path: str) -> None:
        """Write the spans as tab-separated id, parent, name, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_t0[i]}\t{self.span_t1[i]}\n")


# -- count observers: (tracer, args, kwargs, result; None if it raised) -----

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_f_eps(tracer, args, kwargs, out):
    tracer.add("profiles.f_eps.elems", int(np.size(_arg(args, kwargs, 1, "u"))))


def _observe_ls(tracer, args, kwargs, out):
    if out is None:
        return
    n_free = len(out.phi) - 1
    tracer.add("radial.ls_correction.iters", out.iterations)
    tracer.add("radial.ls_correction.converged", int(out.converged))
    tracer.add("radial.ls_correction.lu_gflop",
               ((2.0 / 3.0) * n_free**3 + 2.0 * n_free**2 * out.iterations)
               * 1e-9)
    tracer.maximum("radial.ls_correction.dense_mb",
                   8.0 * n_free**2 * LS_DENSE_COPIES / 1e6)
    tracer.maximum("radial.grid_nodes.max", len(out.phi))


def _observe_newton(tracer, args, kwargs, out):
    if out is None:
        tracer.add("radial.newton_solve.fail", 1)
        return
    tracer.add("radial.newton_solve.iters", out.newton_iters)
    tracer.add("radial.newton_solve.fail", int(not out.converged))
    tracer.maximum("radial.grid_nodes.max", len(out.grid))


_OBSERVERS = {
    "profiles.f_eps": _observe_f_eps,
    "profiles.f_eps_prime": _observe_f_eps,
    "radial.ls_correction": _observe_ls,
    "radial.newton_solve": _observe_newton,
}
