"""Workload definitions: the CLI jobs of one pass, drawn from a seed.

The seed only generates job arguments; the program sees plain CLI flags.
Pass ``p`` of a run with seed ``s`` draws its arguments from
``numpy.random.default_rng([s, p // 2])``, so every pass of a run is
reproducible and a run averages over several draws.  Passes come in
antithetic pairs: an odd pass mirrors each uniform draw of the even pass
before it within its range (u -> 1 - u).  A run's passes then spread evenly
over the ranges, and the part of the pass time that depends on the drawn
values averages out in fewer passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("reduce", "continuation", "refine", "verify")

# Ranges of the seed-drawn arguments.  No job in them may fail, so each
# stops short of a reproduced defect (see DEFECTS):
# - continuation: k = 2 sweeps that start at eps in [0.2, 0.22] can crash
#   (NaN in the correction iteration) or fail to converge at the first
#   point, also with d within 0.8-1.0 x its root; 400 first points drawn
#   from the ranges below all converged;
# - refine: the Newton stop below the roundoff floor fails solves at 100,
#   120 and 160 nodes/decade at scattered eps in [0.04, 0.06]; no failure
#   showed at 60 (31 eps values) or 80 (84 eps values) in [0.04, 0.055];
# - verify: the cost of n = 4 moves by about 20 % across dbar factors
#   0.8-1.3, so the factor range is kept narrow to keep run_s steady.
RANGES = {
    "reduce": {"center": (-0.3, 0.3), "radius": (0.8, 1.5)},
    "continuation": {"start": (0.14, 0.18), "d1_factor": (0.8, 1.0),
                     "d2_factor": (0.8, 1.3)},
    "refine": {"eps": (0.04, 0.055), "nodes_per_decade": (60, 80)},
    "verify": {"dbar_factor": (0.95, 1.05)},
}

SWEEP_POINTS = 7


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its oracle needs to know about it."""

    kind: str                  # subcommand
    argv: tuple
    expect: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        """Result rows the job should produce."""
        return {"constants": 12, "reduce": 1, "sweep": SWEEP_POINTS,
                "solve": 1, "verify": 9}[self.kind]

    def label(self) -> str:
        return " ".join(self.argv)


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _nums(xs) -> str:
    return ",".join(_num(x) for x in xs)


def draw(workload: str, seed: int, pass_index: int, ref: dict) -> list:
    """The jobs of pass ``pass_index`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, pass_index // 2])
    mirror = pass_index % 2 == 1

    def uniform(lo, hi, size=None):
        u = rng.random(size)
        return lo + (hi - lo) * (1.0 - u if mirror else u)

    rg = RANGES[workload]
    roots = ref["reduced_roots"]
    jobs = []
    if workload == "reduce":
        for n in (3, 4, 5):
            jobs.append(Job("constants", ("constants", "--n", str(n)),
                            {"n": n}))
        for n, ks in ((3, (1, 2, 3)), (4, (2,))):
            center = uniform(*rg["center"], size=n)
            radius = uniform(*rg["radius"])
            for k in ks:
                jobs.append(Job(
                    "reduce",
                    ("reduce", "--n", str(n), "--k", str(k),
                     # "=" keeps argparse from reading "-0.1,..." as a flag
                     "--domain.center=" + _nums(center),
                     "--domain.radius", _num(radius)),
                    {"n": n, "k": k, "center": list(center),
                     "radius": float(radius)}))
    elif workload == "continuation":
        start = uniform(*rg["start"])
        eps = f"{_num(start)}:{_num(start / 8.0)}:geometric:{SWEEP_POINTS}"
        for k in (1, 2):
            factor = [uniform(*rg["d1_factor"])]
            if k == 2:
                factor.append(uniform(*rg["d2_factor"]))
            dbar = np.asarray(roots["3"][:k]) * factor
            jobs.append(Job(
                "sweep",
                ("sweep", "--n", "3", "--k", str(k), "--eps", eps,
                 "--dbar", _nums(dbar)),
                {"n": 3, "k": k, "per_decade": 40}))
    elif workload == "refine":
        eps = uniform(*rg["eps"])
        for npd in rg["nodes_per_decade"]:
            jobs.append(Job(
                "solve",
                ("solve", "--n", "3", "--k", "2", "--eps", _num(eps),
                 "--dbar", _nums(roots["3"][:2]),
                 "--grid.nodes_per_decade", str(npd)),
                {"n": 3, "k": 2, "per_decade": npd}))
    elif workload == "verify":
        for n in (3, 4):
            dbar = np.asarray(roots[str(n)][:2]) * uniform(
                *rg["dbar_factor"], size=2)
            jobs.append(Job(
                "verify",
                ("verify", "--n", str(n), "--k", "2", "--dbar", _nums(dbar)),
                {"n": n}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# Reproduced defects.  They are not part of any timed workload (the timed
# workloads must not fail); ``run.py --defects`` runs them through the same
# job runner to show that each one is counted as a failure.
DEFECTS = [
    Job("sweep", ("sweep", "--n", "3", "--k", "2",
                  "--eps", "0.21:0.026:geometric", "--dbar", "0.95,0.06"),
        {"n": 3, "k": 2, "per_decade": 40}),
    Job("solve", ("solve", "--n", "3", "--k", "2", "--eps", "0.045",
                  "--dbar", "0.3,0.002", "--grid.nodes_per_decade", "160"),
        {"n": 3, "k": 2, "per_decade": 160}),
]
