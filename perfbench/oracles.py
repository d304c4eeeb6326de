"""Output oracles: independent checks of each job's result rows.

Each check reads the files a job wrote and returns ``(correct_rows,
problems)``.  The checks compare with closed forms computed here from the
math module, with the drawn inputs, or with ``reference.json`` (values from
the commit that added this benchmark) to a stated tolerance, never by byte
equality, so numerical improvements still pass.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Quadrature rows against closed forms, and any constant against reference.
CONST_REL_TOL = 1e-8
# Robin minimiser of a ball is its centre; the solver polishes |grad| < 1e-12.
XI_ABS_TOL = 1e-8
G_RESIDUAL_MAX = 1e-10
# Reduced roots against the closed-form balance roots found here.
ROOT_REL_TOL = 1e-7
# Dilation factors against the reference tables (relative).  Grid accuracy:
# d moves by 0.16-0.24 % from 40 to 80 nodes/decade and by 0.03-0.05 % from
# 60 to 80.  The jobs' own gap to the interpolated tables (their grids
# follow the starting dilations) measured below 0.1 %.  1 % leaves room for
# a solver change that moves d within grid accuracy.
D_REL_TOL = 0.01


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class _Dim:
    """Dimension constants from their definitions (not from the package)."""

    def __init__(self, n: int):
        self.n = n
        self.two_star = 2.0 * n / (n - 2.0)
        self.alpha = (n * (n - 2.0)) ** ((n - 2.0) / 4.0)
        self.omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    def a(self, idx: int) -> float:
        n, al, om = self.n, self.alpha, self.omega
        a2 = (n - 2.0) * al * om
        return {1: 0.5 * (n - 2.0) * a2,
                2: a2,
                3: 0.5 * (n - 2.0) * al ** self.two_star,
                4: (math.gamma(n / 2.0) * math.pi ** (n / 2.0)
                    / (4.0 * math.gamma(n + 1.0))
                    * n ** (n / 2.0) * (n - 2.0) ** ((n + 4.0) / 2.0))}[idx]

    def g0(self) -> float:
        return self.omega / self.n


def _close(x, y, rel) -> bool:
    return abs(x - y) <= rel * abs(y)


def check_constants(out, job, ref):
    n = job.expect["n"]
    dim = _Dim(n)
    closed = {f"a{i}": dim.a(i) for i in (1, 2, 3, 4)}
    closed["g0"] = dim.g0()
    refs = ref["constants"][str(n)]
    rows = _read_csv(os.path.join(out, "constants.csv"))
    ok, problems = 0, []
    for r in rows:
        q, method, value = r["quantity"], r["method"], float(r["value"])
        good = int(r["n"]) == n and _close(
            value, refs[f"{q}/{method}"], CONST_REL_TOL)
        if q in closed:
            good = good and _close(value, closed[q], CONST_REL_TOL)
        if good:
            ok += 1
        else:
            problems.append(f"constants n={n} {q}/{method} = {value!r}")
    return ok, problems


def _balance_root(fn) -> float:
    """Root of a balance that is negative near 0 and positive at s = 1."""
    lo, hi = math.log(1e-6), 0.0
    if not (fn(math.exp(lo)) < 0.0 < fn(math.exp(hi) * (1.0 - 1e-15))):
        raise ValueError("balance has no sign change in (1e-6, 1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(math.exp(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def reduced_roots_closed(n: int, k: int, radius: float) -> list:
    """Scale ratios s_i of a ball tower from the closed-form coefficients.

    At the ball centre the Robin function is c_n R^{2-n} with
    c_n = 1/((n-2) omega), and the drift kernel at sigma = 0 is omega/n.
    """
    dim = _Dim(n)
    a1, a3, a4 = dim.a(1), dim.a(3), dim.a(4)
    phi = radius ** (2.0 - n) / ((n - 2.0) * dim.omega)
    roots = [_balance_root(lambda s: dim.alpha * a1 * s ** (n - 2.0) * phi
                           - 2.0 * a4 * abs(math.log(s)))]
    for i in range(2, k + 1):
        c = 2.0 / (2.0 * i - 1.0)
        roots.append(_balance_root(
            lambda s, c=c: a3 * s ** ((n - 2.0) / 2.0) * dim.g0()
            - c * a4 * abs(math.log(s))))
    return roots


def check_reduce(out, job, ref):
    n, k = job.expect["n"], job.expect["k"]
    with open(os.path.join(out, "reduce.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = _read_csv(os.path.join(out, "reduce.csv"))
    problems = []
    xi_err = float(np.max(np.abs(np.asarray(doc["xi"])
                                 - np.asarray(job.expect["center"]))))
    if xi_err > XI_ABS_TOL:
        problems.append(f"reduce n={n} k={k}: xi off the centre by {xi_err:.3e}")
    if not float(doc["G_residual_max"]) <= G_RESIDUAL_MAX:
        problems.append(f"reduce n={n} k={k}: G_residual_max "
                        f"{doc['G_residual_max']}")
    want = reduced_roots_closed(n, k, job.expect["radius"])
    s = [float(x) for x in doc["s"]]
    if len(s) != k or not all(_close(a, b, ROOT_REL_TOL)
                              for a, b in zip(s, want)):
        problems.append(f"reduce n={n} k={k}: s = {s}, closed form {want}")
    if len(rows) != 1 or not all(
            _close(float(rows[0][f"s_{i + 1}"]), want[i], ROOT_REL_TOL)
            for i in range(k)):
        problems.append(f"reduce n={n} k={k}: reduce.csv disagrees")
    return (0 if problems else 1), problems


def reference_d(ref, k: int, per_decade: int, eps: float) -> np.ndarray:
    """Reference d(eps), interpolated linearly in (log eps, log d)."""
    table = ref["d_tables"][f"k{k}_npd{per_decade}"]
    le = np.log(np.asarray(table["eps"]))
    ld = np.log(np.asarray(table["d"]))
    order = np.argsort(le)
    if not le[order][0] <= math.log(eps) <= le[order][-1]:
        raise ValueError(f"eps = {eps} outside the reference table")
    return np.exp([np.interp(math.log(eps), le[order], ld[order, i])
                   for i in range(k)])


def _check_radial_rows(out, name, job, ref, expected_rows):
    k, npd = job.expect["k"], job.expect["per_decade"]
    rows = _read_csv(os.path.join(out, name))
    ok, problems = 0, []
    if len(rows) != expected_rows:
        problems.append(f"{name}: {len(rows)} rows, expected {expected_rows}")
    prev_eps = math.inf
    for r in rows:
        eps = float(r["eps"])
        mu = [float(r[f"mu_{i + 1}"]) for i in range(k)]
        d = np.array([float(r[f"d_{i + 1}"]) for i in range(k)])
        radii = [float(r[f"nodal_radius_{i + 1}"]) for i in range(k - 1)]
        bad = []
        if r["converged"] != "true":
            bad.append("not converged")
        if not all(0.0 < x < 1.0 for x in radii):
            bad.append(f"nodal radii {radii}")
        if not (mu[-1] > 0.0 and all(a > b for a, b in zip(mu, mu[1:]))):
            bad.append(f"mu not decreasing {mu}")
        if not eps < prev_eps:
            bad.append("eps not decreasing")
        prev_eps = eps
        if not bad:
            want = reference_d(ref, k, npd, eps)
            gap = float(np.max(np.abs(d - want) / want))
            if not gap <= D_REL_TOL:
                bad.append(f"d = {d.tolist()} vs reference {want.tolist()} "
                           f"(rel gap {gap:.3e})")
        if bad:
            problems.append(f"{name} eps={eps:.6g}: " + "; ".join(bad))
        else:
            ok += 1
    return ok, problems


def check_sweep(out, job, ref):
    return _check_radial_rows(out, "sweep.csv", job, ref, job.rows)


def check_solve(out, job, ref):
    return _check_radial_rows(out, "solve.csv", job, ref, 1)


def group_verdicts(rows) -> list:
    """Collapse the per-data-point CSV rows into one row per verdict."""
    out = []
    key = None
    for r in rows:
        this = (r["predicted_exponent"], r["fitted_exponent"], r["verdict"])
        if this != key:
            out.append(r)
            key = this
    return out


VERIFY_FILES = ("verify_norms.csv", "verify_interactions.csv",
                "verify_projection.csv")


def check_verify(out, job, ref):
    n = job.expect["n"]
    ok, problems = 0, []
    for name in VERIFY_FILES:
        got = [r["verdict"]
               for r in group_verdicts(_read_csv(os.path.join(out, name)))]
        want = ref["verdicts"][str(n)][name]
        ok += sum(a == b for a, b in zip(got, want))
        if got != want:
            problems.append(f"verify n={n} {name}: {got} != {want}")
    return ok, problems


CHECKS = {
    "constants": check_constants,
    "reduce": check_reduce,
    "sweep": check_sweep,
    "solve": check_solve,
    "verify": check_verify,
}


def check(out, job, ref):
    """Correct result rows of ``job`` (capped at its expected count)."""
    ok, problems = CHECKS[job.kind](out, job, ref)
    return min(ok, job.rows), problems
