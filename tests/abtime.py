"""Interleaved in-process A/B timing of one benchmark workload on two
source trees.

Run from the repository root:

    python tests/abtime.py --against OTHER_SRC [--src DIR]
                           [--workload continuation] [--seed 1] [--pairs 40]

Both trees' packages live in this one process: ``--src`` (default: this
tree's ``src``) is imported as ``bubbletower_a`` and OTHER_SRC as
``bubbletower_b``, so each runs its own code under its own name.  Pair i
runs the jobs of pass i of the workload (``jobs.draw(workload, seed, i)``,
as ``perfbench/run.py`` draws them) once on each side, A first in even
pairs and B first in odd ones, after one untimed warm-up pass per side.
Each job is one ``cli.main(argv)`` call into a fresh temporary directory,
timed in CPU seconds (``time.process_time``), and a pass's time is the sum
over its jobs, as in the benchmark's ``run_s``.  A job that does not exit 0
stops the script with exit code 1.

It prints each side's median and quartiles of the pass times, the median
over pairs of the ratio A/B, and the number of pairs each side won; then,
per side, the sums over the timed passes of the ``dilation_steps``,
``correction_solves``, ``grids`` and ``correction_iterations`` columns of
the CSVs the jobs wrote (read after each job, untimed; a tree whose CSVs
lack a column sums 0 for it), so a time can be quoted next to the counts
that do not depend on the machine.  It is
the run-phase companion of ``tests/startup.py --against``, which times the
start-up of fresh processes; it reads only ``perfbench/jobs.py`` and
``perfbench/reference.json`` of the benchmark.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from csv_digest import COUNTS          # the solve/sweep work columns

ROOT = Path(__file__).resolve().parents[1]


def load_cli(src: str, name: str):
    """The ``cli`` module of the package in ``src``, imported as ``name``."""
    pkg_dir = Path(src).resolve() / "bubbletower"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(name + ".cli")


def csv_counts(out: str, counts: dict) -> None:
    """Add the :data:`COUNTS` columns of the CSVs in ``out`` to ``counts``."""
    for path in sorted(Path(out).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for key in COUNTS:
                    if key in row:
                        counts[key] += int(row[key])


def run_pass(cli, argvs, work: str, counts: dict) -> float:
    """CPU seconds of the ``cli.main`` calls of one pass; the :data:`COUNTS`
    of the CSVs they write are added to ``counts``."""
    # the report manifest of older trees reads the version by
    # ``import bubbletower``; they need this alias to run at all
    sys.modules["bubbletower"] = sys.modules[cli.__package__]
    total = 0.0
    for argv in argvs:
        out = tempfile.mkdtemp(dir=work)
        t0 = time.process_time()
        rc = cli.main(list(argv) + ["--out", out])
        total += time.process_time() - t0
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc} on "
                               f"{cli.__package__}")
        csv_counts(out, counts)
    return total


def _summary(xs) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{1e3 * med:9.2f} [{1e3 * q1:8.2f}, {1e3 * q3:8.2f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--against", metavar="OTHER_SRC", required=True,
                    help="the package sources of side B")
    ap.add_argument("--workload", default="continuation")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=40)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs

    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    sides = [load_cli(args.src, "bubbletower_a"),
             load_cli(args.against, "bubbletower_b")]
    times: list = [[], []]
    counts = [dict.fromkeys(COUNTS, 0) for _ in sides]
    try:
        with tempfile.TemporaryDirectory() as work:
            warm = [j.argv for j in jobs.draw(args.workload, args.seed, 0, ref)]
            for cli in sides:
                run_pass(cli, warm, work, dict.fromkeys(COUNTS, 0))
            for i in range(args.pairs):
                argvs = [j.argv for j in
                         jobs.draw(args.workload, args.seed, i, ref)]
                for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                    times[s].append(run_pass(sides[s], argvs, work,
                                             counts[s]))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    a, b = times
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; "
          "CPU ms per pass, median [Q1, Q3]")
    print(f"A {_summary(a)}  {args.src}")
    print(f"B {_summary(b)}  {args.against}")
    print(f"median ratio A/B {statistics.median(x / y for x, y in zip(a, b)):.4f}"
          f"; pairs won: A {sum(x < y for x, y in zip(a, b))}, "
          f"B {sum(y < x for x, y in zip(a, b))}")
    print(f"CSV counts summed over the {args.pairs} timed passes")
    for name, c in zip("AB", counts):
        print(f"{name} " + ", ".join(f"{key} {c[key]}" for key in COUNTS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
