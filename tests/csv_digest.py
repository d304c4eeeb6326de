"""One sha256 over the CSVs the CLI writes for a fixed set of jobs.

Run from the repository root:

    python tests/csv_digest.py [--src DIR] [--seeds 0 1 2] [--passes 6]
                               [--list] [--keep DIR]
    python tests/csv_digest.py --against OTHER_SRC [--src DIR] ...

The jobs are those of every benchmark workload for each seed and passes
0 .. passes-1 (``perfbench/jobs.py``), both defect jobs, the criterion-9
jobs of ``tests/test_acceptance.py``, the README sweep, two solves of
once-failing cases, five far-start solves, a sweep whose points both
fail, six ``verify`` jobs, two ``ansatz`` jobs, two ``reduce`` jobs (one
with s_1 next to the |ln s| kink) and ten ``solve`` jobs at n = 5 .. 10.
Each runs in-process into a fresh
temporary directory, with the package imported from ``--src`` (default:
this tree's ``src``).  The digest covers each job's label, exit code, CSV
names and CSV bytes, and the exception type its ``error.json`` names, in
job order.  Run it on two source trees: equal digests mean byte-identical
CSVs.  ``--list`` prints one digest per job as well, and ``--keep`` keeps
each job's CSVs in DIR/<job number>.  ``--against`` digests ``--src`` and
OTHER_SRC, each in its own subprocess, and prints the jobs whose digests
differ: for each, its exit codes, and per CSV the columns that differ, with
the largest relative difference of each numeric column (exit codes,
headers and text cells are compared exactly).  It exits 1 if any job
differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
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
    # broke the grid build; both exit 2 at the dilation solve's stall rule
    ("solve", "--n", "3", "--k", "1", "--eps", "0.2", "--dbar", "10"),
    ("solve", "--n", "3", "--k", "1", "--eps", "0.2", "--dbar", "1000"),
    # a sweep whose scale schedule does not decrease at either point:
    # both rows fail, and the job exits 2
    ("sweep", "--n", "3", "--k", "2", "--eps", "0.9,0.8", "--dbar", "1,1"),
    # verify beyond the benchmark's n = 3, 4 with k = 2: k = 1 takes the
    # vanishing branch of the interaction check
    ("verify", "--n", "3", "--k", "1"),
    ("verify", "--n", "5", "--k", "2"),
    ("verify", "--n", "4", "--k", "3"),
    # verify at n = 6 and 7, where 2* - 2 and p - 1 round differently at
    # n = 7 (f and f' of one array share |u| but not the power)
    ("verify", "--n", "6", "--k", "2"),
    ("verify", "--n", "7", "--k", "3"),
    # verify on a radius-2 ball: every check integrates over that ball
    ("verify", "--n", "3", "--k", "1", "--domain.radius", "2"),
    # ansatz: the tower values, residual and scale extraction, on a unit
    # ball and on a translated ball of radius 2
    ("ansatz", "--n", "3", "--k", "2", "--eps", "0.1,0.05"),
    ("ansatz", "--n", "4", "--k", "1", "--domain.radius", "2",
     "--domain.center=0.1,0,0,0"),
    # reduce where a finite-difference Jacobian needed its one-sided rule
    # (s_1 = 1 - 7.7e-9), and on a non-unit ball with three layers
    ("reduce", "--n", "10", "--k", "1", "--domain.radius", "10"),
    ("reduce", "--n", "4", "--k", "3", "--domain.radius", "1.3"),
    # solve above n = 4 from the reduced roots: the first five exit 0, the
    # last five exit 2 at the residual certificate (the centre-pivoting
    # defect, tests/test_cli.py::TestSolveBeyondN4)
    *(("solve", "--n", str(n), "--k", str(k), "--eps", "0.05")
      for n, k in ((5, 1), (5, 2), (6, 1), (6, 2), (7, 2),
                   (7, 1), (8, 1), (8, 2), (9, 1), (10, 1))),
]


def _listing(src: str, args, keep: str) -> list:
    """The ``--list`` lines of this script run on ``src`` in a subprocess,
    its CSVs kept in ``keep``."""
    cmd = [sys.executable, __file__, "--src", src, "--list", "--keep", keep,
           "--seeds", *map(str, args.seeds), "--passes", str(args.passes)]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.splitlines()


def _read_csvs(job_dir: Path) -> dict:
    return {p.name: list(csv.reader(p.open(newline="", encoding="utf-8")))
            for p in sorted(job_dir.glob("*.csv"))}


def _relative(x: str, y: str):
    """|x - y| / max(|x|, |y|) for two numeric cells, else None."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def column_diffs(ours: Path, theirs: Path) -> list:
    """One line per CSV column that differs between two job directories."""
    a, b = _read_csvs(ours), _read_csvs(theirs)
    lines = [f"{name}: only in one tree" for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        head, *rows = a[name] or [[]]
        head_b, *rows_b = b[name] or [[]]
        if head != head_b or len(rows) != len(rows_b):
            lines.append(f"{name}: header or row count differs")
            continue
        for j, col in enumerate(head):
            cells = [(r[j], s[j]) for r, s in zip(rows, rows_b)]
            if all(x == y for x, y in cells):
                continue
            rel = [_relative(x, y) for x, y in cells]
            if any(v is None and x != y for v, (x, y) in zip(rel, cells)):
                lines.append(f"{name}: {col}: text differs")
            else:
                lines.append(f"{name}: {col}: max relative difference "
                             f"{max(v for v in rel if v is not None):.3g}")
    return lines


def compare(args) -> int:
    """Digest both trees and print the jobs whose digests differ."""
    with tempfile.TemporaryDirectory() as work:
        ours = _listing(args.src, args, os.path.join(work, "ours"))
        theirs = _listing(args.against, args, os.path.join(work, "theirs"))
        differ = [i for i, (a, b) in enumerate(zip(ours[:-1], theirs[:-1]))
                  if a != b]
        for i in differ:
            digest, rc, label = ours[i].split(" ", 2)
            other, rc_other, _ = theirs[i].split(" ", 2)
            print(f"{label}\n  {digest} (exit {rc}) against {other} "
                  f"(exit {rc_other})")
            for line in column_diffs(Path(work, "ours", str(i)),
                                     Path(work, "theirs", str(i))):
                print(f"  {line}")
    print(f"{len(differ)} of {len(ours) - 1} jobs differ")
    print(f"{args.src}: {ours[-1]}")
    print(f"{args.against}: {theirs[-1]}")
    return 1 if differ or ours[-1] != theirs[-1] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--keep", metavar="DIR",
                    help="keep each job's CSVs in DIR/<job number>")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="compare against the package sources in OTHER_SRC")
    args = ap.parse_args(argv)
    if args.against:
        return compare(args)

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
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep or tmp
        for i, argv in enumerate(argvs):
            out = os.path.join(work, str(i))
            rc = cli.main(list(argv) + ["--out", out])
            one = hashlib.sha256(f"{' '.join(argv)}\n{rc}\n".encode())
            names = os.listdir(out) if os.path.isdir(out) else []
            for name in sorted(p for p in names if p.endswith(".csv")):
                one.update(name.encode() + b"\n")
                one.update(Path(out, name).read_bytes())
            if "error.json" in names:
                with open(Path(out, "error.json"), encoding="utf-8") as fh:
                    error = json.load(fh)["error"]
                one.update(f"error.json\n{error}\n".encode())
            total.update(one.digest())
            if args.list:
                print(one.hexdigest()[:16], rc, " ".join(argv))
    print(f"{len(argvs)} jobs  sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
