"""Benchmark of the bubbletower CLI: end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --defects

Each workload runs as a closed loop: one client in one process calls
``bubbletower.cli.main(argv)`` in-process, one job after another, each job
with a fresh temporary output directory under ``.bench_out/``.  A pass is
one run of the workload's job list; pass ``p`` draws its job arguments from
``(seed, p)`` (see ``jobs.py``).  Passes repeat until ``--seconds`` would be
exceeded, at least ``MIN_PASSES`` of them.  After each job, untimed, the
output oracles of ``oracles.py`` check every result row.

Times are CPU seconds of the process that does the work (``run_s``: the
benchmark process over one pass; ``setup_s``: a fresh interpreter that
imports ``bubbletower.cli``, sampled once before each pass).  The program
is single-threaded with BLAS pinned to one thread, so on an idle machine
CPU time equals wall time; CPU time leaves out the time the process waits
for a processor, which on a shared VM moves wall time between runs.  Wall
times are printed and kept in the result file.  A change that made the
program use several threads or processes would need wall time again.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``): three passes over the jobs of
pass 0, traced, untraced and traced again, whatever ``--seconds`` says.
Its ``trace.overhead_s`` is the number of wrapper calls in one traced pass
times the measured cost of one wrapper call; the traced and untraced pass
times are reported too, but their difference is mostly machine drift.
Machine-independent counts must repeat between the two traced passes and
against an earlier traced run of the same seed on the same package sources
(``.bench_out/counts-<workload>-seed<seed>-<source hash>.json``).  Spans
go to ``.bench_out/spans-<workload>-seed<seed>.tsv``, and every run writes
its environment and per-pass detail to ``.bench_out/result-*.json``.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; ``attempted`` and ``failed`` count result
rows.  ``--defects`` runs the reproduced defect jobs through the same job
runner and reports how each one is recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 3

# The layers each workload is built to stress; the largest self time of a
# traced run should belong to one of them.
DOMINANT = {
    "reduce": ("domain.find_robin_min",),
    "continuation": ("radial.ls_correction",),
    "refine": ("radial.ls_correction",),
    "verify": ("projection.gram_matrix", "asymptotics"),
}

# Per-layer metrics of the traced run: self time per layer group, calls per
# group, and counts taken from arguments and results (tracing.py).
SELF_TIMED = ("domain.find_robin_min", "quadrature", "reduced.solve_reduced",
              "projection.gram_matrix", "projection.project_radial", "tower",
              "profiles.f_eps", "radial.ls_correction", "radial.newton_solve",
              "radial.solve_from_tower", "radial.sweep_epsilon", "asymptotics",
              "report", "cli")
CALLED = ("quadrature", "reduced.solve_reduced", "projection.gram_matrix",
          "projection.project_radial", "tower", "radial.ls_correction",
          "radial.newton_solve")
LAYER_COUNTS = {
    "domain.robin.calls": "count", "profiles.f_eps.elems": "count",
    "radial.ls_correction.iters": "count",
    "radial.ls_correction.lu_gflop": "GFLOP",
    "radial.ls_correction.dense_mb": "MB",
    "radial.newton_solve.iters": "count", "radial.newton_solve.fail": "count",
    "radial.grid_nodes.max": "count",
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "results_per_s": "1/s",
    "success_ratio": "ratio", "peak_rss_mb": "MB",
}


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pinning")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except Exception:                     # noqa: BLE001 - report only
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

@dataclass
class JobRecord:
    label: str
    rows: int                   # result rows the job should produce
    seconds: float = 0.0        # wall time of the CLI call
    cpu_seconds: float = 0.0
    exit: int | None = None     # CLI exit code; None if it raised
    error: str | None = None    # exception type or error.json record
    ok: int = 0                 # rows the oracles accepted
    problems: list = field(default_factory=list)


def run_job(cli, oracles, job, ref, workdir) -> JobRecord:
    """Time one in-process CLI call, then check its outputs (untimed).

    Every exception the call raises is caught and recorded by type: the
    job's rows all count as failed, with no retry.
    """
    rec = JobRecord(job.label(), job.rows)
    out = tempfile.mkdtemp(dir=workdir)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rec.exit = cli.main(list(job.argv) + ["--out", out])
        except Exception as exc:              # noqa: BLE001 - counted below
            rec.error = type(exc).__name__
            rec.problems.append(
                f"uncaught {rec.error}: {exc}\n{traceback.format_exc()}")
        rec.seconds = time.perf_counter() - t0
        rec.cpu_seconds = time.process_time() - c0
        if rec.error is None and rec.exit != 0:
            rec.problems.append(f"exit code {rec.exit}")
            with contextlib.suppress(OSError, ValueError):
                with open(os.path.join(out, "error.json"),
                          encoding="utf-8") as fh:
                    rec.error = json.load(fh)["error"]
        if rec.error is None and rec.exit == 0:
            try:
                rec.ok, problems = oracles.check(out, job, ref)
                rec.problems += problems
            except Exception as exc:          # noqa: BLE001 - missing output
                rec.problems.append(f"oracle could not read the output: "
                                    f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rec


def run_pass(ctx, p: int) -> dict:
    recs = [run_job(ctx["cli"], ctx["oracles"], job, ctx["ref"], ctx["work"])
            for job in ctx["jobs"].draw(ctx["workload"], ctx["seed"], p,
                                        ctx["ref"])]
    for r in recs:
        for msg in r.problems:
            print(f"[pass {p}] {r.label}: {msg}", file=sys.stderr)
    return {
        "index": p,
        "seconds": sum(r.seconds for r in recs),
        "cpu_seconds": sum(r.cpu_seconds for r in recs),
        "rows": sum(r.rows for r in recs),
        "ok": sum(r.ok for r in recs),
        "jobs": [asdict(r) for r in recs],
    }


def measure_setup() -> float:
    """CPU seconds of a fresh interpreter that imports bubbletower.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", "import bubbletower.cli"],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: "
                           + proc.stderr.decode(errors="replace"))
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ctx, seconds: float) -> tuple:
    # One set-up sample before each pass, so that the set-up median sees
    # the same machine load as the passes.
    setup, passes = [], []
    t_start = time.perf_counter()
    while True:
        setup.append(measure_setup())
        t0 = time.perf_counter()
        passes.append(run_pass(ctx, len(passes)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(measure_setup())
    run_s = statistics.median(p["cpu_seconds"] for p in passes)
    rows = sum(p["rows"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "results_per_s": ok / len(passes) / run_s,
        "success_ratio": ok / rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    detail = {"setup_samples": setup, "passes": passes}
    print(f"{ctx['workload']}: {len(passes)} passes, CPU "
          + ", ".join(f"{p['cpu_seconds']:.3f}" for p in passes) + " s, wall "
          + ", ".join(f"{p['seconds']:.3f}" for p in passes) + " s")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.6g} {END_TO_END_UNITS[name]}"
              + (f"  (median of {len(passes)} passes)" if name == "run_s"
                 else f"  (median of {len(setup)} processes)"
                 if name == "setup_s" else ""))
    out = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return out, rows, rows - ok, ok == rows, detail


def _source_hash() -> str:
    """SHA-256 over the package's source files, paths and contents."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "bubbletower"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _machine_counts(summary: dict) -> dict:
    """The counts that must repeat exactly between traced passes."""
    keys = dict(summary["counts"])
    for g, n in summary["group_calls"].items():
        keys[f"{g}.calls"] = n
    keys["globalised"] = list(summary["globalised"])
    return keys


def _same_counts(x: dict, y: dict, what: str) -> bool:
    for key in sorted(set(x) | set(y)):
        if x.get(key) != y.get(key):
            print(f"count differs from {what}: {key}: {x.get(key)} vs "
                  f"{y.get(key)}", file=sys.stderr)
    return x == y


def traced(ctx) -> tuple:
    from tracing import Tracer

    tracer = Tracer()
    runs = []
    for label in ("traced", "untraced", "traced"):
        if label == "traced":
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(ctx, 0)
        finally:
            tracer.uninstall()
        if label == "traced":
            p["summary"] = tracer.summary()
        runs.append(p)
    a, plain, b = runs
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{ctx['workload']}-seed{ctx['seed']}.tsv"
    tracer.write(str(span_file))

    counts_a, counts_b = _machine_counts(a["summary"]), _machine_counts(
        b["summary"])
    repeat = _same_counts(counts_a, counts_b, "the first traced pass")
    # An earlier traced run of the same seed on the same package sources;
    # counts stored for other sources are never compared.
    counts_file = OUT_DIR / (f"counts-{ctx['workload']}-seed{ctx['seed']}-"
                             f"{_source_hash()[:16]}.json")
    previous = None
    with contextlib.suppress(OSError, ValueError):
        with open(counts_file, encoding="utf-8") as fh:
            previous = json.load(fh)
    match_previous = None if previous is None else _same_counts(
        previous, counts_b, "the previous traced run of this seed")
    if previous is None:
        with open(counts_file, "w", encoding="utf-8") as fh:
            json.dump(counts_b, fh, indent=1)

    def mean_self(group):
        return 0.5 * (a["summary"]["group_self"].get(group, 0.0)
                      + b["summary"]["group_self"].get(group, 0.0))

    sb = b["summary"]
    calls = sb["group_calls"]
    cnt = sb["counts"]
    ls_calls = calls.get("radial.ls_correction", 0)
    sft_calls, sft_glob = sb["globalised"]
    traced_run = 0.5 * (a["seconds"] + b["seconds"])
    # Traced minus untraced wall time is mostly machine drift at this size,
    # so the overhead is estimated from the wrapper calls of one traced pass
    # times the measured cost of one wrapper call.
    span_cost, count_cost = Tracer.wrapper_cost()
    overhead = sb["spans"] * span_cost + sb["counted_calls"] * count_cost
    groups = sorted(set(a["summary"]["group_self"])
                    | set(sb["group_self"]))
    self_sum = sum(mean_self(g) for g in groups)
    dominant = max(groups, key=mean_self)
    named = DOMINANT[ctx["workload"]]

    m = {f"{g}.self_s": (mean_self(g), "s") for g in SELF_TIMED}
    m.update({f"{g}.calls": (calls.get(g, 0), "count") for g in CALLED})
    m.update({k: (cnt.get(k, 0), unit) for k, unit in LAYER_COUNTS.items()})
    m.update({
        "radial.ls_correction.useful_ratio": (
            cnt.get("radial.ls_correction.converged", 0) / ls_calls
            if ls_calls else 0.0, "ratio"),
        "radial.globalised_ratio": (sft_glob / sft_calls if sft_calls else 0.0,
                                    "ratio"),
        "trace.run_s": (traced_run, "s"),
        "trace.untraced_run_s": (plain["seconds"], "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unaccounted_s": (traced_run - self_sum, "s"),
        "trace.dominant_as_named": (int(dominant in named), "count"),
    })

    print(f"{ctx['workload']}: traced pass {a['seconds']:.3f} s and "
          f"{b['seconds']:.3f} s, untraced {plain['seconds']:.3f} s; "
          f"spans in {span_file.relative_to(ROOT)}")
    print(f"  tracing overhead: {sb['spans']} spans x "
          f"{span_cost * 1e9:.0f} ns + {sb['counted_calls']} counted calls x "
          f"{count_cost * 1e9:.0f} ns = {overhead:.4f} s per pass")
    print("  self time by layer (mean of the two traced passes):")
    for g in sorted(groups, key=mean_self, reverse=True):
        print(f"    {g:<30} {mean_self(g):10.4f} s  "
              f"{mean_self(g) / traced_run:7.1%}  calls {calls.get(g, 0)}")
    print(f"    {'sum of self times':<30} {self_sum:10.4f} s  "
          f"against traced run_s {traced_run:.4f} s, unaccounted "
          f"{traced_run - self_sum:.4f} s")
    print(f"  dominant layer: {dominant} "
          + ("(as named)" if dominant in named
             else f"(NOT one of the named {', '.join(named)})"))
    print(f"  machine-independent counts repeat between traced passes: "
          f"{'yes' if repeat else 'NO'}; against the previous traced run of "
          f"this seed: " + {None: "none recorded", True: "yes",
                            False: "NO"}[match_previous])
    for name, (value, unit) in m.items():
        print(f"  {name:<36} {value:14.6g} {unit}")

    metrics = {k: _metric(v, u) for k, (v, u) in m.items()}
    rows = a["rows"] + plain["rows"] + b["rows"]
    ok = a["ok"] + plain["ok"] + b["ok"]
    detail = {"passes": [{k: v for k, v in p.items() if k != "summary"}
                         for p in runs],
              "counts": counts_b, "counts_repeat": repeat,
              "counts_match_previous_run": match_previous,
              "self_s": {g: mean_self(g) for g in groups}}
    correct = ok == rows and repeat and match_previous is not False
    return metrics, rows, rows - ok, correct, detail


def defects(ctx) -> int:
    """Run the reproduced defect jobs and report how each is recorded."""
    failures = 0
    for job in ctx["jobs"].DEFECTS:
        rec = run_job(ctx["cli"], ctx["oracles"], job, ctx["ref"], ctx["work"])
        failed = rec.rows - rec.ok
        failures += failed > 0
        print(f"{rec.label}\n  exit {rec.exit}, error {rec.error}, "
              f"{failed} of {rec.rows} result rows failed, "
              f"{rec.seconds:.2f} s -> "
              + ("recorded as a failure" if failed else "NOT a failure"))
    print(f"{failures} of {len(ctx['jobs'].DEFECTS)} defect jobs recorded "
          "as failures")
    return 0


def _declared_metrics(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defects", action="store_true",
                    help="run the reproduced defect jobs instead")
    args = ap.parse_args(argv)

    pin_threads()
    src = ROOT / "src"
    if not (src / "bubbletower" / "cli.py").is_file():
        print(f"error: no bubbletower sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bubbletower.cli as cli
    if Path(cli.__file__).resolve().parent != src / "bubbletower":
        print(f"error: imported {cli.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2

    import jobs
    import oracles
    if not args.defects and args.workload not in jobs.WORKLOADS:
        ap.error(f"--workload must be one of {jobs.WORKLOADS}")
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)

    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT_DIR, prefix="jobs-")
    result_file = (OUT_DIR / f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json")
    ctx = {"cli": cli, "oracles": oracles, "jobs": jobs, "ref": ref,
           "work": work, "workload": args.workload, "seed": args.seed}
    try:
        if args.defects:
            return defects(ctx)
        env = _environment()
        if args.trace:
            metrics, attempted, failed, correct, detail = traced(ctx)
        else:
            metrics, attempted, failed, correct, detail = end_to_end(
                ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    emitted = {k: v["unit"] for k, v in metrics.items()}
    if declared != emitted:
        print(f"error: metrics {emitted} do not match BENCHMARK.json "
              f"{declared}", file=sys.stderr)
        return 3

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics, "detail": detail}
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
