"""The nonlinearity f_eps(u) = |u|^{2*-2} u / ln(e+|u|)^eps and its
derivative, written out on their own.

``bubbletower.profiles`` evaluates both from one fused pass
(``_f_and_prime``); these separate formulas are the reference its public
``f_eps`` and ``f_eps_prime`` must equal bit for bit, on arrays and on
scalars.  Each multiplies in the order the fused pass keeps.
"""

import numpy as np


def _log_shifted(au):
    # ln(e + |u|) = 1 + log1p(|u|/e)
    return 1.0 + np.log1p(au / np.e)


def f_eps(dim, u, eps):
    """|u|^{2*-2} u / ln(e+|u|)^eps."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = au ** (dim.two_star - 2.0) * u
    if eps != 0.0:
        out = out * _log_shifted(au) ** (-eps)
    return out


def f_eps_prime(dim, u, eps):
    """|u|^{p-1} L^{-eps} (p - eps |u| / ((e+|u|) L)) with L = ln(e+|u|)."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = au ** (dim.p - 1.0)
    if eps != 0.0:
        L = _log_shifted(au)
        out = out * L ** (-eps) * (dim.p - eps * au / ((np.e + au) * L))
    else:
        out = out * dim.p
    return out
