"""One sha256 over the CSVs and JSON documents the CLI writes for a fixed
set of jobs.

Run from the repository root:

    python tests/csv_digest.py [--src DIR] [--seeds 0 1 2] [--passes 6]
                               [--list] [--keep DIR]
    python tests/csv_digest.py --against OTHER_SRC [--src DIR] ...

The jobs are those of every benchmark workload for each seed and passes
0 .. passes-1 (``perfbench/jobs.py``), both defect jobs, the criterion-9
jobs of ``tests/test_acceptance.py``, the README sweep, two solves of
once-failing cases, five far-start solves, a sweep whose points both
fail, six ``verify`` jobs, four ``ansatz`` jobs, two ``reduce`` jobs (one
with s_1 next to the |ln s| kink), ``constants`` at n = 6 .. 10, ten
``solve`` jobs at n = 5 .. 10, eighteen at n = 3 .. 5 with k = 3 .. 5,
three k = 3 sweeps at n = 4 .. 6 and three ``solve`` jobs at n = 7, 8
that once failed in the dilation solve.  Each runs in-process into a fresh
temporary directory, with the package imported from ``--src`` (default:
this tree's ``src``).  The digest covers each job's label and exit code,
and the names and bytes of its CSVs and of its JSON documents except
``manifest.json`` (whose config text holds the temporary output path), in
job order.  Run it on two source trees: equal digests mean byte-identical
CSVs and JSON documents.  ``--list`` prints one digest per job as well, and
``--keep`` keeps each job's outputs in DIR/<job number>.  ``--against``
digests ``--src`` and OTHER_SRC, each in its own subprocess, and prints the
jobs whose digests differ: for each, its exit codes, per CSV the columns
that differ, with the largest relative difference of each numeric column
(exit codes, headers and text cells are compared exactly), and the JSON
documents that differ.  Then it prints, per tree, the totals over the
``solve`` and ``sweep`` rows of the work counts (``dilation_steps``,
``correction_solves``, ``grids``, ``correction_iterations``) and of the
converged rows, so a solver change can quote its machine-independent work
next to the byte diff.  It exits 1 if any job differs.
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

# the machine-independent work columns of the solve and sweep CSVs
# (bubbletower.radial.SOLVE_COUNTS)
COUNTS = ("dilation_steps", "correction_solves", "grids",
          "correction_iterations")

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
    # ansatz at n = 5, 6 and constants at n = 6 .. 10 (the benchmark runs
    # constants at n = 3 .. 5 only): the tower values and the quadrature
    # integrands take the closed forms of profiles at every n the tests
    # use, so a change to those forms shows here at each of them
    *(("ansatz", "--n", str(n), "--k", "2", "--eps", "0.1,0.05")
      for n in (5, 6)),
    *(("constants", "--n", str(n)) for n in range(6, 11)),
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
    # k = 3 .. 5 layers at n = 3 .. 5 from the reduced roots, all exit 0
    # (tests/test_cli.py::TestSolveTallTowers).  Digest note: with the
    # sign runs' floor on |u|, eight of them exited 2 ("expected k sign
    # regions, found k - 1") and the four k = 4 jobs at n = 3, eps 0.2 and
    # 0.1, n = 4 and 5, eps 0.2 wrote a wrong nodal_radius_3; the floor on
    # the Emden-Fowler field r^{(n-2)/2}|u| changed those twelve only
    *(("solve", "--n", str(n), "--k", str(k), "--eps", eps)
      for n in (3, 4, 5) for k in (3, 4, 5) for eps in ("0.2", "0.1")),
    # three-layer sweeps at n = 4 .. 6; the last exited 2 at eps 0.0125
    # with the floor on |u| ("expected 3 sign regions, found 2")
    ("sweep", "--n", "4", "--k", "3", "--eps", "0.2,0.1,0.05,0.025"),
    ("sweep", "--n", "5", "--k", "3", "--eps", "0.2,0.1,0.05,0.025"),
    ("sweep", "--n", "6", "--k", "3", "--eps", "0.1,0.05,0.025,0.0125"),
    # solves from the reduced roots whose dilation solve once ended
    # unconverged (exit 2): a far trial's correction on the current grid
    # failed or ran past a 40-iteration cap, where on the grid of its own
    # scales it converges
    ("solve", "--n", "7", "--k", "2", "--eps", "0.2"),
    ("solve", "--n", "7", "--k", "4", "--eps", "0.02"),
    ("solve", "--n", "8", "--k", "4", "--eps", "0.02",
     "--grid.nodes_per_decade", "80"),
]


def _hashed(names) -> list:
    """The outputs the digest covers, in order: the CSVs and the JSON
    documents except the manifest."""
    return sorted(p for p in names if p.endswith(".csv")
                  or (p.endswith(".json") and p != "manifest.json"))


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
    """One line per CSV column that differs between two job directories.
    Columns are matched by name, so a column that only one tree writes is
    named once and the others are still compared."""
    a, b = _read_csvs(ours), _read_csvs(theirs)
    lines = [f"{name}: only in one tree" for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        head, *rows = a[name] or [[]]
        head_b, *rows_b = b[name] or [[]]
        if len(rows) != len(rows_b):
            lines.append(f"{name}: row count differs")
            continue
        if head != head_b:
            lines += [f"{name}: {col}: column only in one tree"
                      for col in head + head_b
                      if (col in head) != (col in head_b)]
            if [c for c in head if c in head_b] != \
                    [c for c in head_b if c in head]:
                lines.append(f"{name}: shared columns in another order")
        for j, col in enumerate(head):
            if col not in head_b:
                continue
            jb = head_b.index(col)
            cells = [(r[j], s[jb]) for r, s in zip(rows, rows_b)]
            if all(x == y for x, y in cells):
                continue
            rel = [_relative(x, y) for x, y in cells]
            if any(v is None and x != y for v, (x, y) in zip(rel, cells)):
                lines.append(f"{name}: {col}: text differs")
            else:
                lines.append(f"{name}: {col}: max relative difference "
                             f"{max(v for v in rel if v is not None):.3g}")
    return lines


def json_diffs(ours: Path, theirs: Path) -> list:
    """One line per digested JSON document that differs between two job
    directories."""
    a, b = ({p.name: p.read_bytes() for p in d.glob("*.json")
             if p.name != "manifest.json"} for d in (ours, theirs))
    return [f"{name}: " + ("differs" if name in a and name in b
                           else "only in one tree")
            for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]


def totals(work: Path, jobs: int) -> dict:
    """Sums over the ``solve``/``sweep`` rows of jobs 0 .. jobs-1 kept in
    ``work``: each :data:`COUNTS` column (0 where a tree does not write
    it), the rows, and the rows that converged."""
    out = dict.fromkeys(("rows", "converged", *COUNTS), 0)
    for i in range(jobs):
        for table in _read_csvs(work / str(i)).values():
            head, *rows = table or [[]]
            if "converged" not in head:
                continue
            for row in rows:
                cell = dict(zip(head, row))
                out["rows"] += 1
                out["converged"] += cell["converged"] == "true"
                for key in COUNTS:
                    out[key] += int(cell.get(key, 0))
    return out


def compare(args) -> int:
    """Digest both trees and print the jobs whose digests differ, then
    each tree's :func:`totals`."""
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
            dirs = Path(work, "ours", str(i)), Path(work, "theirs", str(i))
            for line in column_diffs(*dirs) + json_diffs(*dirs):
                print(f"  {line}")
        sums = [totals(Path(work, side), len(ours) - 1)
                for side in ("ours", "theirs")]
    print(f"{len(differ)} of {len(ours) - 1} jobs differ")
    for src, line, total in zip((args.src, args.against), (ours, theirs),
                                sums):
        print(f"{src}: {line[-1]}")
        print("  solve/sweep rows: " + ", ".join(
            f"{key} {value}" for key, value in total.items()))
    return 1 if differ or ours[-1] != theirs[-1] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--passes", type=int, default=6)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--keep", metavar="DIR",
                    help="keep each job's outputs in DIR/<job number>")
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
            for name in _hashed(names):
                one.update(name.encode() + b"\n")
                one.update(Path(out, name).read_bytes())
            total.update(one.digest())
            if args.list:
                print(one.hexdigest()[:16], rc, " ".join(argv))
    print(f"{len(argvs)} jobs  sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
