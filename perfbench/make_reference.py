"""Regenerate ``reference.json``, the values the output oracles compare with.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs the CLI of the checked-out package and records the quadrature
constants, the reduced-system roots, tables of the dilation factors d(eps)
for the sweep and solve jobs, and the verdict strings of ``verify``.  The
committed file was generated from the commit that added this benchmark;
regenerate it only when a change is meant to alter these values.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# eps values of the d(eps) tables: they cover the drawn ranges of
# jobs.RANGES.  Each entry is an independent solve from the reduced root;
# a fine-stepped sweep is not used because it runs into the NaN crash of
# the correction iteration.  SWEEP_TABLE serves the continuation jobs
# (k = 1, 2 at 40 nodes/decade), SOLVE_TABLE the refine jobs (60 and 80).
SWEEP_TABLE = [0.1825 * (0.0172 / 0.1825) ** (i / 40) for i in range(41)]
SOLVE_TABLE = [0.039 + 0.017 * i / 8 for i in range(9)]


def _run(cli, argv, workdir):
    out = tempfile.mkdtemp(dir=workdir)
    rc = cli.main(list(argv) + ["--out", out])
    if rc != 0:
        raise SystemExit(f"reference job failed (exit {rc}): {' '.join(argv)}")
    return out


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _d_table(rows, k):
    return {"eps": [float(r["eps"]) for r in rows],
            "d": [[float(r[f"d_{i + 1}"]) for i in range(k)] for r in rows]}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import pin_threads
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    from bubbletower import cli
    from oracles import group_verdicts

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_out")
    ref: dict = {"constants": {}, "reduced_roots": {}, "d_tables": {},
                 "verdicts": {}}
    try:
        for n in (3, 4, 5):
            out = _run(cli, ["constants", "--n", str(n)], workdir)
            ref["constants"][str(n)] = {
                f"{r['quantity']}/{r['method']}": float(r["value"])
                for r in _csv(os.path.join(out, "constants.csv"))}
        for n, k in ((3, 3), (4, 2)):
            out = _run(cli, ["reduce", "--n", str(n), "--k", str(k)], workdir)
            with open(os.path.join(out, "reduce.json"), encoding="utf-8") as fh:
                ref["reduced_roots"][str(n)] = json.load(fh)["dbar"]
        roots = ref["reduced_roots"]

        for k, npd, table in ((1, 40, SWEEP_TABLE), (2, 40, SWEEP_TABLE),
                              (2, 60, SOLVE_TABLE), (2, 80, SOLVE_TABLE)):
            dbar = ",".join(format(x, ".17g") for x in roots["3"][:k])
            rows = []
            for e in table:
                out = _run(cli, ["solve", "--n", "3", "--k", str(k),
                                 "--eps", format(e, ".17g"), "--dbar", dbar,
                                 "--grid.nodes_per_decade", str(npd)], workdir)
                rows += _csv(os.path.join(out, "solve.csv"))
            ref["d_tables"][f"k{k}_npd{npd}"] = _d_table(rows, k)

        for n in (3, 4):
            dbar = ",".join(format(x, ".17g") for x in roots[str(n)][:2])
            out = _run(cli, ["verify", "--n", str(n), "--k", "2",
                             "--dbar", dbar], workdir)
            ref["verdicts"][str(n)] = {
                name: [v["verdict"] for v in group_verdicts(
                    _csv(os.path.join(out, name)))]
                for name in ("verify_norms.csv", "verify_interactions.csv",
                             "verify_projection.csv")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
