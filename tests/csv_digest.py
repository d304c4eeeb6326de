"""One sha256 over the CSVs the CLI writes for a fixed set of jobs.

Run from the repository root:

    python tests/csv_digest.py [--src DIR] [--seeds 1 2] [--passes 6] [--list]

The jobs are those of every benchmark workload for each seed and passes
0 .. passes-1 (``perfbench/jobs.py``), both defect jobs, the criterion-9
jobs of ``tests/test_acceptance.py``, the README sweep, two solves of
once-failing cases, five far-start solves, three ``verify`` jobs and two
``ansatz`` jobs.  Each runs in-process into a fresh temporary directory,
with the package imported from ``--src`` (default: this tree's ``src``).
The digest covers each job's label, exit code, CSV names and CSV bytes,
in job order.  Run it on two source trees: equal digests mean byte-identical
CSVs.  ``--list`` prints one digest per job as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXTRA_JOBS = [
    # criterion 9
    ("constants", "--n", "3"),
    ("reduce", "--n", "3", "--k", "2"),
    ("sweep", "--n", "3", "--k", "1", "--eps", "0.1,0.07",
     "--dbar", "0.7406801701108005"),
    # README
    ("sweep", "--n", "3", "--k", "2", "--eps", "0.2:0.0125:geometric"),
    # solves that failed before the lattice grids and the residual stop's
    # roundoff floor: the grid did not settle at 320 nodes/decade, and the
    # stop sat below roundoff at 160 (also a perfbench defect job today;
    # listed here so the digest keeps it if that list changes)
    ("solve", "--n", "3", "--k", "2", "--eps", "0.05", "--dbar", "0.6,0.04",
     "--grid.nodes_per_decade", "320"),
    ("solve", "--n", "3", "--k", "2", "--eps", "0.045", "--dbar",
     "0.3,0.002", "--grid.nodes_per_decade", "160"),
    # far starts that once crashed (a singular matrix, a float overflow)
    # or converged on the one-layer branch: the overflow start now recovers
    # the solution of the reduced root, the other two exit 2
    ("solve", "--n", "3", "--k", "2", "--eps", "0.2", "--dbar",
     "0.03703401,3.16"),
    ("solve", "--n", "3", "--k", "2", "--eps", "0.2", "--dbar",
     "0.22220405,3.16"),
    ("solve", "--n", "3", "--k", "2", "--eps", "0.2", "--dbar",
     "2.22204051,3.16"),
    # one-layer far starts whose scale once reached the ball radius and
    # broke the grid build; both exit 2 at the residual certificate
    ("solve", "--n", "3", "--k", "1", "--eps", "0.2", "--dbar", "10"),
    ("solve", "--n", "3", "--k", "1", "--eps", "0.2", "--dbar", "1000"),
    # verify beyond the benchmark's n = 3, 4 with k = 2: k = 1 takes the
    # vanishing branch of the interaction check
    ("verify", "--n", "3", "--k", "1"),
    ("verify", "--n", "5", "--k", "2"),
    ("verify", "--n", "4", "--k", "3"),
    # ansatz: the tower values, residual and scale extraction, on a unit
    # ball and on a translated ball of radius 2
    ("ansatz", "--n", "3", "--k", "2", "--eps", "0.1,0.05"),
    ("ansatz", "--n", "4", "--k", "1", "--domain.radius", "2",
     "--domain.center=0.1,0,0,0"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import jobs
    from bubbletower import cli

    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    argvs = [job.argv for seed in args.seeds for p in range(args.passes)
             for w in jobs.WORKLOADS for job in jobs.draw(w, seed, p, ref)]
    argvs += [job.argv for job in jobs.DEFECTS] + EXTRA_JOBS

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for i, argv in enumerate(argvs):
            out = os.path.join(work, str(i))
            rc = cli.main(list(argv) + ["--out", out])
            one = hashlib.sha256(f"{' '.join(argv)}\n{rc}\n".encode())
            names = os.listdir(out) if os.path.isdir(out) else []
            for name in sorted(p for p in names if p.endswith(".csv")):
                one.update(name.encode() + b"\n")
                one.update(Path(out, name).read_bytes())
            total.update(one.digest())
            if args.list:
                print(one.hexdigest()[:16], rc, " ".join(argv))
    print(f"{len(argvs)} jobs  sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
