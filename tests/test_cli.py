import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from bubbletower import radial
from bubbletower.cli import main
from bubbletower.config import (KEYS, RunConfig, parse_config, parse_eps_spec,
                                print_config)
from bubbletower.errors import ConfigError, ValidationError
from bubbletower.radial import newton_solve


class TestEpsSpec:
    def test_single_value(self):
        assert parse_eps_spec("0.05") == [0.05]

    def test_comma_list(self):
        assert parse_eps_spec("0.2,0.1,0.05") == [0.2, 0.1, 0.05]

    def test_geometric_range_default_ratio(self):
        # default step ratio 1/sqrt(2): 0.2 .. 0.0125 spans 9 points
        eps = parse_eps_spec("0.2:0.0125:geometric")
        assert len(eps) == 9
        assert np.isclose(eps[0], 0.2) and np.isclose(eps[-1], 0.0125)
        ratios = np.diff(np.log(eps))
        assert np.allclose(ratios, ratios[0])

    def test_geometric_range_with_count(self):
        eps = parse_eps_spec("0.1:0.01:geometric:5")
        assert len(eps) == 5

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            parse_eps_spec("0.1:0.2:geometric")

    @pytest.mark.parametrize("spec", ["0:0.1:geometric", "0.1:0:geometric",
                                      "0.5:5e-324:geometric"])
    def test_zero_endpoint_is_a_configuration_error(self, tmp_path, capsys,
                                                     spec):
        # the default count takes log(start / stop): a zero endpoint, or a
        # ratio that overflows, once raised OverflowError or
        # ZeroDivisionError out of main
        rc = main(["sweep", "--eps", spec, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad eps range")
        assert not (tmp_path / "o").exists()


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("cmd = constants\nn = 3\nk = 1\n")
        assert cfg.cmd == "constants"
        assert cfg.grid_per_decade == 40
        assert cfg.eps == [0.05]

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("cmd = constants\nfrobnicate = 1\n")

    @pytest.mark.parametrize("line", ["rho = 0.3", "verify.q = 2",
                                      "verify.which = U",
                                      "verify.case = fepli2",
                                      "quad.radial_panels = 24",
                                      "quad.tolerance = 1e-9",
                                      "quad.spherical_order = 12",
                                      "eta = 0.1"])
    def test_removed_key_rejected(self, tmp_path, line):
        # keys no subcommand read were removed; a file naming one is refused
        path = tmp_path / "run.cfg"
        path.write_text(f"cmd = verify\n{line}\n", encoding="utf-8")
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"unknown configuration key "
                                              f"'{key}'"):
            parse_config(path.read_text(encoding="utf-8"))

    def test_low_dimension_rejected(self):
        with pytest.raises(ValidationError, match="n >= 3"):
            parse_config("cmd = constants\nn = 2\n")

    def test_eps_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_config("cmd = sweep\neps = 1.5\n")

    def test_round_trip(self):
        cfg = parse_config("cmd = sweep\nn = 3\nk = 2\n"
                           "eps = 0.2,0.1\ndomain.radius = 1.25\n")
        text = print_config(cfg)
        cfg2 = parse_config(text)
        assert cfg == cfg2

    def test_keys_name_exactly_the_config_fields(self):
        # a key without a field would still parse (setattr), and a field
        # without a key would be left out of print_config
        assert ({attr for attr, _ in KEYS.values()}
                == {f.name for f in fields(RunConfig)})
        assert len(KEYS) == len(fields(RunConfig))

    def test_overrides_win(self):
        cfg = parse_config("cmd = constants\nn = 3\n",
                           overrides={"n": "4"})
        assert cfg.n == 4


def run_cli(args, out_dir, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bubbletower.cli", *args, "--out", str(out_dir)],
        capture_output=True, text=True, env=env)


class TestCLI:
    def test_constants_subcommand(self, tmp_path):
        rc = main(["constants", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "constants.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n,quantity,method,value"
        data = {(r.split(",")[1], r.split(",")[2]): float(r.split(",")[3])
                for r in lines[1:]}
        assert np.isclose(data[("a2", "quadrature")],
                          data[("a2", "closed_form")], rtol=1e-7)
        assert np.isclose(data[("a4", "closed_form")], 1.0684160170807606)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "constants.csv" in manifest["files"]

    def test_reduce_subcommand(self, tmp_path):
        rc = main(["reduce", "--n", "3", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "reduce.json").read_text())
        assert np.isclose(doc["s"][0], 0.7406801701108005, rtol=1e-6)
        assert doc["jacobian_smallest_singular_value"] > 0
        # the reduction's two non-degeneracy conditions: simple zeros of
        # the balances, a non-degenerate minimum of the Robin function
        assert len(doc["balance_slopes"]) == 2
        assert all(b > 0 for b in doc["balance_slopes"])
        assert doc["robin_hessian"] > 0
        assert doc["G_residual_max"] < 1e-10

    def test_reduce_json_floats_match_the_csv(self, tmp_path):
        # reduce.json (shortest round-trip text) and reduce.csv (17
        # significant digits) must carry the same doubles, bit for bit
        rc = main(["reduce", "--n", "4", "--k", "3", "--domain.radius", "1.3",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "reduce.json").read_text())
        header, row = (tmp_path / "reduce.csv").read_text().split("\n")[:2]
        cell = dict(zip(header.split(","), map(float, row.split(","))))
        pairs = ([(doc["s"][i], cell[f"s_{i+1}"]) for i in range(3)]
                 + [(doc["dbar"][i], cell[f"d_{i+1}"]) for i in range(3)]
                 + [(doc["G_residual_max"], cell["G_residual_max"]),
                    (doc["jacobian_smallest_singular_value"],
                     cell["jac_smin"])])
        for from_json, from_csv in pairs:
            assert isinstance(from_json, float)
            assert from_json.hex() == from_csv.hex()

    def test_reduce_runs_no_quadrature(self, tmp_path, monkeypatch):
        # the ball's reduced system is closed-form end to end
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called by reduce")
        for mod in [m for name, m in sys.modules.items()
                    if name.startswith("bubbletower")]:
            for attr in ("_adaptive_gl", "g_sigma", "tabulate_g", "const_a"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, forbidden)
        rc = main(["reduce", "--n", "3", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "reduce.json").read_text())
        assert np.isclose(doc["s"][0], 0.7406801701108005, rtol=1e-12)

    def test_usage_error_exit_code(self, tmp_path):
        rc = main(["constants", "--n", "2", "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_key_in_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cmd = constants\nwhatsit = 3\n")
        rc = main(["constants", "--config", str(cfgfile),
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("name", ["missing.cfg", "n=3"])
    def test_missing_config_file(self, tmp_path, capsys, name):
        # the --config value is a path, never config text
        rc = main(["constants", "--config", str(tmp_path / name),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file")
        assert name in err
        assert not (tmp_path / "o").exists()

    def test_solve_subcommand(self, tmp_path):
        rc = main(["solve", "--n", "3", "--k", "1", "--eps", "0.05",
                   "--dbar", "0.7406801701108005", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "solve.csv").read_text().strip().split("\n")
        assert lines[0].startswith("eps,converged,newton_iters,residual,mu_1")
        assert lines[1].split(",")[1] == "true"

    def test_solve_on_small_ball(self, tmp_path):
        # the tower sits at the centre, so no distance to the boundary is
        # asked of it; the scale must still fit inside the ball
        rc = main(["solve", "--n", "3", "--k", "1", "--eps", "0.05",
                   "--domain.radius", "0.1", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "solve.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 2
        row = dict(zip(header, lines[1].split(",")))
        assert row["converged"] == "true"
        assert 0.0 < float(row["mu_1"]) < 0.1

    def test_solve_rejects_several_eps(self, tmp_path, capsys):
        # solve runs one point: a list would be solved at its first eps
        # while the manifest recorded all of them
        rc = main(["solve", "--n", "3", "--k", "1", "--eps", "0.1,0.05",
                   "--dbar", "0.7406801701108005",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: solve takes one eps")
        assert "sweep" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("eps", ["0.05,0.1", "0.1,0.1", "0.2,0.1,0.15"])
    def test_sweep_rejects_an_eps_grid_out_of_order(self, tmp_path, capsys,
                                                    eps):
        # a configuration error (exit 1) before any writer opens, not a
        # package error in error.json (exit 2)
        rc = main(["sweep", "--n", "3", "--k", "1", "--eps", eps,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sweep eps grid must be "
                              "strictly decreasing")
        assert not (tmp_path / "o").exists()

    def test_manifest_hash_matches(self, tmp_path):
        import hashlib
        rc = main(["constants", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        digest = hashlib.sha256(
            (tmp_path / "constants.csv").read_bytes()).hexdigest()
        assert manifest["files"]["constants.csv"] == digest

    def test_json_writer_plain_values(self, tmp_path):
        # numpy scalars and arrays become JSON numbers and lists, and the
        # non-finite floats the strings "nan", "inf" and "-inf"
        from bubbletower.report import ReportWriter
        doc = {"b": np.array([np.nan, np.inf, -np.inf, 1.0]),
               "a": (np.int64(3), np.bool_(True), None, "μ\n\"q\""),
               "c": {}, "d": []}
        path = ReportWriter(str(tmp_path)).json("doc.json", doc)
        text = open(path, encoding="utf-8").read()
        assert json.loads(text) == {"a": [3, True, None, "μ\n\"q\""],
                                    "b": ["nan", "inf", "-inf", 1.0],
                                    "c": {}, "d": []}
        assert text.index('"a"') < text.index('"b"')
        assert "1.0\n" in text and "μ" in text

    def test_determinism_across_processes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            res = run_cli(["constants", "--n", "3"], out)
            assert res.returncode == 0, res.stderr
        assert (out_a / "constants.csv").read_bytes() == \
            (out_b / "constants.csv").read_bytes()

    def test_env_var_output_dir(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        env["BUBBLETOWER_OUT"] = str(tmp_path / "envout")
        res = subprocess.run(
            [sys.executable, "-m", "bubbletower.cli", "constants", "--n", "3"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "envout" / "constants.csv").exists()

    def test_ansatz_subcommand(self, tmp_path):
        rc = main(["ansatz", "--n", "3", "--k", "1", "--eps", "0.1,0.07",
                   "--dbar", "0.7406801701108005", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "ansatz.csv").read_text().strip().split("\n")
        assert lines[0] == "eps,residual,mu_1,height_1"
        res = [float(r.split(",")[1]) for r in lines[1:]]
        assert res[1] < res[0]

    def test_verify_subcommand(self, tmp_path):
        rc = main(["verify", "--n", "3", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("verify_norms.csv", "verify_interactions.csv",
                     "verify_projection.csv"):
            lines = (tmp_path / name).read_text().strip().split("\n")
            assert lines[0] == ("sweep_var,measured,predicted_exponent,"
                                "fitted_exponent,verdict")
            assert len(lines) > 3
            verdicts = {r.split(",")[-1] for r in lines[1:]}
            assert verdicts <= {"pass", "marginal", "fail"}

    def test_parser_is_built_once_and_survives_a_usage_error(self, tmp_path):
        from bubbletower import cli
        cli._build_parser.cache_clear()
        argv = ["constants", "--n", "3", "--out"]
        assert main(argv + [str(tmp_path / "fresh")]) == 0
        assert main(["constants", "--frobnicate", "1"]) == 1
        assert main(argv + [str(tmp_path / "again")]) == 0
        assert cli._build_parser.cache_info().misses == 1
        assert ((tmp_path / "again" / "constants.csv").read_bytes()
                == (tmp_path / "fresh" / "constants.csv").read_bytes())

    def test_numerical_failure_exit_code_and_record(self, tmp_path):
        # eps too large for a two-layer schedule: numerical failure, exit 2,
        # machine-readable error record beside the partial results
        # (the record names the failed point's own exception type and
        # carries its own message, for a sweep as for a solve)
        for cmd, eps in (("sweep", "0.9,0.8"), ("solve", "0.9")):
            out = tmp_path / cmd
            rc = main([cmd, "--n", "3", "--k", "2", "--eps", eps,
                       "--dbar", "1.0,1.0", "--out", str(out)])
            assert rc == 2
            rec = json.loads((out / "error.json").read_text())
            assert rec["error"] == "ParameterError"
            assert "trace" not in rec
            assert (out / f"{cmd}.csv").exists()
            assert (out / "manifest.json").exists()
            assert "not strictly decreasing" in rec["message"]
            assert "sweep point" not in rec["message"]

    @pytest.mark.parametrize("k, dbar, c_norm, steps", [
        ("1", "10", 0.678, 4),
        ("2", "2.22204051,3.16", 0.0202, 15),
    ], ids=["k1-far", "k2-one-layer"])
    def test_stalled_dilation_solve_named_in_error_record(
            self, tmp_path, k, dbar, c_norm, steps):
        # the log-d Newton takes three heavily damped steps in a row with
        # |c| far from 0; the dilation solve stops there, and the record
        # names the stall, where it ended, and |c| after each step
        rc = main(["solve", "--n", "3", "--k", k, "--eps", "0.2",
                   "--dbar", dbar, "--out", str(tmp_path)])
        assert rc == 2
        rec = json.loads((tmp_path / "error.json").read_text())
        assert rec["error"] == "SolverError"
        assert rec["message"].startswith("dilation solve stalled: ")
        m = re.search(r"dilation solve ended at \|c\| = (\S+) after (\d+) "
                      r"steps \((\d+) correction solves\)", rec["message"])
        assert m is not None, rec["message"]
        assert np.isclose(float(m[1]), c_norm, rtol=0.01)
        assert int(m[2]) == steps
        trace = np.array(rec["trace"])
        assert len(trace) == steps and np.all(np.diff(trace) < 0)
        assert np.isclose(trace[-1], float(m[1]), rtol=1e-3)

    def test_coincident_scales_are_rejected_trials(self, tmp_path,
                                                   monkeypatch):
        # from this start the dilation solve once reached |c| = 8e-14 on two
        # layers with mu1/mu2 - 1 = 2.9e-14; a trial whose adjacent scales
        # lie within one lattice cell is rejected before its correction
        # runs, so none is accepted, and the job still fails, at a |c| far
        # from 0
        ratios = []
        ls_correction = radial.ls_correction

        def spy(dom, grid, cfg, **kwargs):
            ratios.append(float(np.min(cfg.mus[:-1] / cfg.mus[1:])))
            return ls_correction(dom, grid, cfg, **kwargs)

        monkeypatch.setattr(radial, "ls_correction", spy)
        rc = main(["solve", "--n", "3", "--k", "2", "--eps", "0.2",
                   "--dbar", "0.03703401,3.16", "--out", str(tmp_path)])
        assert rc == 2
        assert ratios and min(ratios) >= 10.0 ** (1.0 / 40)
        rec = json.loads((tmp_path / "error.json").read_text())
        m = re.search(r"dilation solve ended at \|c\| = (\S+) ",
                      rec["message"])
        assert m is not None, rec["message"]
        assert float(m[1]) > 1e-13

    @pytest.mark.parametrize("d", ["inf", "nan"])
    def test_non_finite_dbar_rejected(self, tmp_path, d):
        rc = main(["solve", "--n", "3", "--k", "1", "--eps", "0.05",
                   "--dbar", d, "--out", str(tmp_path)])
        assert rc == 1
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["reduce", "--domain.radius", "nan"],
        ["reduce", "--domain.radius", "inf"],
        ["reduce", "--domain.center=nan,0,0"],
        ["sweep", "--eps", "0.1", "--domain.radius", "nan", "--dbar", "0.7"],
    ], ids=["radius-nan", "radius-inf", "center-nan", "sweep-radius-nan"])
    def test_non_finite_domain_rejected(self, tmp_path, argv):
        rc = main(argv + ["--n", "3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd", ["solve", "sweep"])
    def test_solver_trace_in_error_record(self, tmp_path, monkeypatch, cmd):
        # a certificate that fails, on a perturbed root: its residual trace
        # must reach error.json
        def off_root(dom, grid, eps, initial):
            start = initial * (1.0 + 0.02 * np.cos(3.0 * grid.nodes))
            return newton_solve(dom, grid, eps, start)

        monkeypatch.setattr(radial, "newton_solve", off_root)
        rc = main([cmd, "--n", "3", "--k", "2", "--eps", "0.05",
                   "--dbar", "0.6,0.04", "--out", str(tmp_path)])
        assert rc == 2
        rec = json.loads((tmp_path / "error.json").read_text())
        assert rec["error"] == "SolverError"
        assert isinstance(rec["trace"], list) and rec["trace"]
        # every entry is a JSON number (the writer prints floats as floats,
        # 1.0 included)
        assert all(isinstance(v, (int, float)) for v in rec["trace"])

    def test_cli_path_does_not_load_scipy_optimize(self, tmp_path):
        # A fresh process, since other tests load scipy into this one.
        # Importing the CLI loads no scipy at all; constants, reduce and
        # verify load only scipy.version (the manifest's version string).
        # The solves then load the compiled LAPACK wrappers,
        # scipy.linalg._flapack, from their own file: no scipy package
        # (scipy, scipy.linalg, scipy._lib), and neither scipy.special nor
        # scipy.optimize.
        code = (
            "import sys\n"
            "import bubbletower.cli as cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy'))\n"
            "print(scipy_modules())\n"
            "for i, argv in enumerate([['constants', '--n', '4'],\n"
            "                          ['reduce', '--n', '3', '--k', '2'],\n"
            "                          ['verify', '--n', '3', '--k', '2'],\n"
            "                          ['ansatz', '--n', '3', '--k', '2',\n"
            "                           '--eps', '0.1'],\n"
            "                          ['solve', '--n', '3', '--k', '1',\n"
            "                           '--eps', '0.05'],\n"
            "                          ['sweep', '--n', '3', '--k', '1',\n"
            "                           '--eps', '0.1,0.07']]):\n"
            "    rc = cli.main(argv + ['--out', sys.argv[1] + str(i)])\n"
            "    assert rc == 0, (argv, rc)\n"
            "    if argv[0] == 'verify':\n"
            "        print(scipy_modules())\n"
            "print('scipy.linalg.lapack' in sys.modules)\n"
            "print(scipy_modules())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n")[:4] == [
            "[]", "['scipy.version']", "False",
            "['scipy.linalg._flapack', 'scipy.version']"]

    def test_reduce_exits_0_at_n10(self, tmp_path):
        # the residual check scales with the balance terms, which grow
        # with n (a4 = 1.1e8 at n = 10)
        rc = main(["reduce", "--n", "10", "--k", "3", "--out",
                   str(tmp_path)])
        assert rc == 0

    def test_reduce_exits_0_with_s1_at_the_kink(self, tmp_path):
        # k = 1 on a large ball puts s_1 within 1e-8 of 1, next to the
        # |ln s| kink, where the balance slope is taken on the root's side
        rc = main(["reduce", "--n", "10", "--k", "1", "--domain.radius",
                   "10", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "reduce.csv").read_text().strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert 0.0 < 1.0 - float(row["s_1"]) < 1e-8
        assert float(row["jac_smin"]) > 0.0

    def test_k_zero_rejected_before_any_writer(self, tmp_path):
        rc = main(["reduce", "--n", "3", "--k", "0", "--out",
                   str(tmp_path / "nope")])
        assert rc == 1
        assert not (tmp_path / "nope" / "reduce.json").exists()

    def test_numeric_values_reparse_exactly(self, tmp_path):
        rc = main(["reduce", "--n", "3", "--k", "1", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "reduce.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        values = lines[1].split(",")
        s1 = float(values[header.index("s_1")])
        from bubbletower.report import fmt
        assert fmt(s1) == values[header.index("s_1")]


CENTRE_PIVOTING = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="centre pivoting (ROADMAP item 1): dgtsv swaps the centre rows "
           "of S - W diag(f'), and the residual certificate rejects the "
           "dilation root; n = 7, k = 1 exits 0 before the per-trial "
           "lattice grids of commit 922d9af")


class TestSolveBeyondN4:
    """``solve --eps 0.05`` from the reduced roots above n = 4."""

    @pytest.mark.parametrize("n, k", [
        (5, 1), (5, 2), (6, 1), (6, 2), (7, 2),
        *(pytest.param(n, k, marks=CENTRE_PIVOTING)
          for n, k in ((7, 1), (8, 1), (8, 2), (9, 1), (10, 1)))])
    def test_exits_0_with_k_sign_runs(self, tmp_path, n, k):
        rc = main(["solve", "--n", str(n), "--k", str(k), "--eps", "0.05",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, row = (tmp_path / "solve.csv").read_text().strip().split("\n")
        cell = dict(zip(header.split(","), row.split(",")))
        assert cell["converged"] == "true"
        mus = [float(cell[f"mu_{i}"]) for i in range(1, k + 1)]
        radii = [float(cell[f"nodal_radius_{i}"]) for i in range(1, k)]
        # k sign runs: k - 1 sign changes, each between two layers' scales
        assert all(np.diff(mus) < 0) and 0.0 < mus[0] < 1.0
        assert all(mus[i + 1] < radii[k - 2 - i] < mus[i]
                   for i in range(k - 1))
