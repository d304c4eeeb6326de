"""CPU time and max RSS of one fresh CLI process per subcommand.

Run from the repository root:

    python tests/startup.py [--src DIR] [--runs 10]
    python tests/startup.py --against OTHER_SRC [--src DIR] [--runs 10]

The benchmark harness runs its jobs inside one process, so it does not see
what a command costs once per process: imports, first-call set-up and the
memory they keep.  This script starts a fresh interpreter for each run of
each job below (the criterion-9 and README jobs, one per subcommand, and a
bare ``import bubbletower.cli``), with the package imported from ``--src``
(default: this tree's ``src``), and reads the CPU seconds (user + system)
and max RSS of that child from ``os.wait4``.  It prints each job's median
and quartiles.  ``--against`` runs alternating pairs, ``--src`` first in
even pairs and OTHER_SRC first in odd ones, and prints both sides with the
number of pairs each side won on CPU.  It exits 1 if a job fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOBS = [
    ("import", None),
    ("constants", ["constants", "--n", "3"]),
    ("reduce", ["reduce", "--n", "3", "--k", "2"]),
    ("verify", ["verify", "--n", "3", "--k", "2"]),
    ("ansatz", ["ansatz", "--n", "3", "--k", "2", "--eps", "0.1,0.05"]),
    ("solve", ["solve", "--n", "3", "--k", "2", "--eps", "0.05"]),
    ("sweep", ["sweep", "--n", "3", "--k", "2", "--eps",
               "0.2:0.0125:geometric"]),
]

CODE = ("import sys\n"
        "import bubbletower.cli as cli\n"
        "if len(sys.argv) > 1:\n"
        "    sys.exit(cli.main(sys.argv[1:]))\n")


def run_once(src: str, argv, work: str) -> tuple:
    """(CPU seconds, max RSS in MB) of one fresh process running ``argv``
    (``None``: import the CLI only)."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-c", CODE]
    if argv is not None:
        cmd += argv + ["--out", tempfile.mkdtemp(dir=work)]
    proc = subprocess.Popen(cmd, cwd=work, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[3:]) or 'import'} on {src} "
                           f"exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _summary(xs) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:8.1f} [{q1:7.1f}, {q3:7.1f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--runs", type=int, default=10,
                    help="runs (pairs with --against) per job")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="compare against the package sources in OTHER_SRC")
    args = ap.parse_args(argv)
    sides = [args.src] + ([args.against] if args.against else [])

    print("job        side  CPU ms median [Q1, Q3]   max RSS MB median "
          "[Q1, Q3]" + ("   CPU wins" if args.against else ""))
    try:
        with tempfile.TemporaryDirectory() as work:
            for name, job in JOBS:
                res = {s: [] for s in sides}
                for i in range(args.runs):
                    for s in (sides if i % 2 == 0 else sides[::-1]):
                        res[s].append(run_once(s, job, work))
                for j, s in enumerate(sides):
                    cpu = [1e3 * c for c, _ in res[s]]
                    rss = [m for _, m in res[s]]
                    wins = ""
                    if args.against:
                        other = res[sides[1 - j]]
                        won = sum(a[0] < b[0] for a, b in zip(res[s], other))
                        wins = f"   {won}/{args.runs}"
                    print(f"{name:10s} {'AB'[j]:>4s}  {_summary(cpu)}   "
                          f"{_summary(rss)}{wins}")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for j, s in enumerate(sides):
        print(f"{'AB'[j]}: {s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
