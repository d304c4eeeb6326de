"""Names that other code looks up in the package by string must exist: the
export lists, the functions the benchmark's tracer wraps and the fields its
observers read, and the version the manifest records."""

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import bubbletower

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(bubbletower.__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(bubbletower.__path__))


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExports:
    @pytest.mark.parametrize("name", MODULES)
    def test_module_all_resolves(self, name):
        mod = importlib.import_module(f"bubbletower.{name}")
        missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
        assert missing == []

    def test_package_all_resolves(self):
        missing = [a for a in bubbletower.__all__
                   if not hasattr(bubbletower, a)]
        assert missing == []
        namespace = {}
        exec("from bubbletower import *", namespace)
        assert set(bubbletower.__all__) <= set(namespace)


class TestTracerNames:
    def test_spans_and_counts_resolve(self):
        # the tracer rebinds these by name; a missing one stops every
        # traced benchmark run with AttributeError
        tracing = _tracing()
        entries = [e[:2] for e in tracing.SPANS + tracing.COUNTED]
        assert entries
        unresolved = []
        for modname, attr in entries:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                ok = cls is not None and meth in vars(cls)
            else:
                ok = callable(getattr(mod, attr, None))
            if not ok:
                unresolved.append((modname, attr))
        assert unresolved == []

    def test_traced_sweep_and_verify_count(self, tmp_path):
        # the observers read RadialSolution.converged, .newton_iters and
        # .grid, and LSResult.phi, .iterations and .converged: a field
        # that goes stops a traced run although every name resolves
        from bubbletower.cli import main
        tracer = _tracing().Tracer()
        tracer.install()
        try:
            rcs = [main(["sweep", "--n", "3", "--k", "2", "--eps",
                         "0.1,0.07", "--out", str(tmp_path / "sweep")]),
                   main(["verify", "--n", "3", "--k", "2",
                         "--out", str(tmp_path / "verify")])]
        finally:
            tracer.uninstall()
        counts = tracer.counts
        assert rcs == [0, 0]
        assert counts["radial.ls_correction.iters"] > 0
        assert counts["radial.grid_nodes.max"] > 0
        assert counts["radial.newton_solve.fail"] == 0


class TestManifest:
    def test_records_its_own_version(self, tmp_path):
        # the package imported under another name, with no ``bubbletower``
        # alias pointed at it, records its own version
        from abtime import load_cli
        name = "bubbletower_version_probe"
        try:
            cli = load_cli(str(SRC), name)
            sys.modules[name].__version__ = "0.0.0+probe"
            rc = cli.main(["reduce", "--n", "3", "--k", "1",
                           "--out", str(tmp_path)])
        finally:
            for key in [k for k in sys.modules
                        if k == name or k.startswith(name + ".")]:
                del sys.modules[key]
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["versions"]["bubbletower"] == "0.0.0+probe"


class TestABTime:
    def test_csv_counts_sum_the_solve_count_columns(self, tmp_path):
        # the counts the A/B timer prints are the column sums of the CSVs
        # a pass wrote, here one two-point sweep's solve counts
        from abtime import COUNTS, csv_counts
        from bubbletower.cli import main
        from bubbletower.domain import BallDomain
        from bubbletower.profiles import Dimension
        from bubbletower.radial import sweep_epsilon
        dbar = [0.7406801701108005, 0.031582089621449034]
        assert main(["sweep", "--n", "3", "--k", "2", "--eps", "0.1,0.07",
                     "--dbar", ",".join(map(repr, dbar)),
                     "--out", str(tmp_path)]) == 0
        counts = dict.fromkeys(COUNTS, 0)
        csv_counts(str(tmp_path), counts)
        csv_counts(str(tmp_path), counts)
        sols = sweep_epsilon(BallDomain(Dimension(3)), [0.1, 0.07],
                             dbar0=dbar)
        assert counts == {key: 2 * sum(getattr(s, key) for s in sols)
                          for key in COUNTS}
        assert counts["correction_solves"] > 0
        assert counts["correction_iterations"] > counts["correction_solves"]


class TestDigestTotals:
    def test_totals_sum_the_solve_rows_of_each_job(self, tmp_path):
        # the work counts that ``csv_digest.py --against`` prints per tree
        # are the column sums over the solve and sweep rows of every job,
        # beside the number of those rows and of the converged ones
        from csv_digest import COUNTS, totals
        from bubbletower.cli import main
        from bubbletower.radial import SOLVE_COUNTS
        assert COUNTS == SOLVE_COUNTS
        jobs = [["sweep", "--n", "3", "--k", "2", "--eps", "0.9,0.8",
                 "--dbar", "1,1"],
                ["solve", "--n", "3", "--k", "1", "--eps", "0.1",
                 "--dbar", "0.7406801701108005"],
                ["constants", "--n", "3"]]
        for i, argv in enumerate(jobs):
            main(argv + ["--out", str(tmp_path / str(i))])
        got = totals(tmp_path, len(jobs))
        with open(tmp_path / "1" / "solve.csv", encoding="utf-8") as fh:
            row = dict(zip(*(line.strip().split(",") for line in fh)))
        assert got == {"rows": 3, "converged": 1,
                       **{key: int(row[key]) for key in COUNTS}}
        assert got["correction_solves"] > 0
