"""Configuration files, persisted reports, and the command-line interface."""

import argparse
import json
import operator
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nsflab import cli, config, reports, solver


# --------------------------------------------------------------------------
# configuration schema
# --------------------------------------------------------------------------


def test_default_config_round_trips_through_text():
    cfg = config.default_config()
    again = config.loads_config(config.dumps_config(cfg))
    assert again == cfg


def test_config_file_round_trip(tmp_path):
    cfg = config.default_config()
    cfg = cfg.replace_value("model", "kind", "molecular_radiation")
    cfg = cfg.replace_value("transport", "beta", 1.75)
    cfg = cfg.replace_value("grid", "cells", (24, 48))
    path = tmp_path / "run.ini"
    config.save_config(cfg, path)
    assert config.load_config(path) == cfg


def test_unknown_key_is_rejected_by_full_path():
    with pytest.raises(config.ConfigError) as err:
        config.loads_config("[transport]\nviscocity = 3\n")
    assert "transport.viscocity" in str(err.value)
    assert "mu0" in str(err.value)  # the message lists the known keys


def test_unknown_section_is_rejected():
    with pytest.raises(config.ConfigError) as err:
        config.loads_config("[viscosity]\nmu0 = 1\n")
    assert "[viscosity]" in str(err.value)


def test_malformed_value_names_its_key():
    with pytest.raises(config.ConfigError) as err:
        config.loads_config("[grid]\ncells = fast\n")
    assert "grid.cells" in str(err.value)


def test_malformed_ini_text_is_a_config_error():
    with pytest.raises(config.ConfigError):
        config.loads_config("cells = 4 outside any section\n")


def test_builders_assemble_the_configured_objects():
    text = (
        "[model]\nkind = molecular_radiation\na = 0.5\nkernel = degenerate\n"
        "[transport]\nkind = power_kappa\nbeta = 2.0\n"
    )
    cfg = config.loads_config(text, config.default_config("3"))
    model = config.build_model(cfg)
    tm = config.build_transport(cfg)
    assert model.a == 0.5
    assert model.kernel.third_law
    assert tm.beta == 2.0
    spec = config.build_experiment_spec(cfg, "3")
    assert spec.theorem == "3"
    assert spec.gate.accepted


@pytest.mark.parametrize("text, path", [
    ("[boundary]\nkind = constant\n", "[boundary]"),
    ("[experiment]\ntheorem = 3\n", "experiment.theorem"),
    ("[experiment]\nprofile = shear\n", "experiment.profile"),
], ids=["boundary", "experiment.theorem", "experiment.profile"])
def test_deleted_keys_are_rejected_by_name(text, path):
    # an old config-effective.ini naming a key no command reads is refused
    with pytest.raises(config.ConfigError) as err:
        config.loads_config(text)
    assert path in str(err.value)


def test_schema_has_one_profile_key_and_no_unread_section():
    text = config.dumps_config(config.default_config())
    keys = [line for line in text.splitlines() if " = " in line]
    assert len(keys) == 30
    assert sum(line.startswith("profile = ") for line in keys) == 1
    assert "[boundary]" not in text


# --------------------------------------------------------------------------
# CSV series
# --------------------------------------------------------------------------


def _series(path):
    """A series as plain numpy reads it: one named field per column."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


def test_series_round_trip_is_exact(tmp_path):
    path = tmp_path / "series.csv"
    cols = {
        "t": np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]),
        "value": np.array([1e-17, -np.pi * 1e8, 4.9406564584124654e-324]),
        "flag": np.array([1.0, 0.0, -0.0]),
    }
    reports.write_series(path, cols)
    back = _series(path)
    assert back.dtype.names == ("t", "value", "flag")  # insertion order preserved
    for name in cols:
        # bits, not values: assert_array_equal takes a -0.0 read back as 0.0
        assert back[name].tobytes() == cols[name].tobytes(), name


def test_header_only_series_round_trips(tmp_path):
    path = tmp_path / "series.csv"
    reports.write_series(path, {"t": np.array([]), "mass": np.array([])})
    assert path.read_text() == "t,mass\n"


def test_series_header_keeps_column_order(tmp_path):
    path = tmp_path / "series.csv"
    reports.write_series(path, {"zz": np.array([1.0]), "aa": np.array([2.0])})
    header = path.read_text().splitlines()[0]
    assert header == "zz,aa"


def test_series_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        reports.write_series(tmp_path / "bad.csv",
                             {"a": np.array([1.0, 2.0]), "b": np.array([3.0])})


# --------------------------------------------------------------------------
# JSON verdicts
# --------------------------------------------------------------------------


def _verdict(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_verdicts_round_trip_and_are_deterministic(tmp_path):
    verdict = {
        "ok": np.bool_(True),
        "order": np.float64(3.25),
        "cells": np.array([16, 32]),
        "nested": {"sup": [np.float64(1e-9)]},
    }
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    reports.write_verdicts(p1, verdict)
    reports.write_verdicts(p2, verdict)
    assert p1.read_bytes() == p2.read_bytes()
    back = _verdict(p1)
    assert back["ok"] is True
    assert back["order"] == 3.25
    assert back["cells"] == [16, 32]
    assert back["nested"]["sup"] == [1e-9]


def test_verdicts_write_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "v.json"
    reports.write_verdicts(path, {
        "order": float("inf"), "gap": np.float64(np.nan), "low": -np.inf,
        "sup": np.array([1.5, np.inf]), "pair": (np.float32(0.5), np.int64(2)),
        "ok": True, "count": 3, "note": None})
    text = path.read_text()
    assert "Infinity" not in text and "NaN" not in text
    back = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert back == {"order": None, "gap": None, "low": None, "sup": [1.5, None],
                    "pair": [0.5, 2], "ok": True, "count": 3, "note": None}
    assert back["ok"] is True


def test_verdicts_refuse_unserializable_objects(tmp_path):
    with pytest.raises(TypeError):
        reports.write_verdicts(tmp_path / "x.json", {"bad": object()})


# --------------------------------------------------------------------------
# .npy snapshots
# --------------------------------------------------------------------------


def _sample_fields():
    rng = np.random.default_rng(7)
    return {
        "rho": rng.random((6, 5)),
        "u": rng.standard_normal((6, 5, 2)),
        "theta": rng.random(6),
        "steps": np.arange(4, dtype=np.int64),
        "t": np.asarray(0.125),
    }


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "state.npy"
    fields = _sample_fields()
    reports.write_snapshot(path, fields)
    back = np.load(path)
    assert back.shape == () and back.dtype.names == tuple(fields)
    for name, arr in fields.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_snapshot_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.npy", tmp_path / "b.npy"
    reports.write_snapshot(p1, _sample_fields())
    reports.write_snapshot(p2, _sample_fields())
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_refuses_an_empty_field_name(tmp_path):
    path = tmp_path / "state.npy"
    # numpy would store the field as "f0"
    with pytest.raises(ValueError, match="non-empty name"):
        reports.write_snapshot(path, {"rho": np.ones(3), "": np.zeros(3)})
    assert not path.exists()


def test_snapshot_refuses_an_object_field(tmp_path):
    path = tmp_path / "state.npy"
    with pytest.raises(ValueError, match="'tags' holds Python objects"):
        reports.write_snapshot(path, {"rho": np.ones(3), "tags": np.array(["a", None])})
    assert not path.exists()


# --------------------------------------------------------------------------
# command-line interface
# --------------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_leaves_stderr_empty():
    # the documented `python3 -m nsflab.cli` must not import the module twice
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nsflab.cli", "--help"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    assert proc.stderr == ""


def test_cli_import_loads_no_package_beyond_numpy():
    # start-up cost: the CLI needs numpy only, and so does the harmonic
    # extension that apriori runs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, numpy\n"
             "def top(): return {m.split('.')[0] for m in sys.modules}\n"
             "before = top()\n"
             "import nsflab.cli\n"
             "from nsflab import grid\n"
             "grid.harmonic_extension(grid.Grid(cells=(8, 8)),\n"
             "                        grid.affine_boundary(1.0, 0.3, -0.2))\n"
             "print(sorted(top() - before - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['nsflab']"


def test_verify_thermo_does_not_load_numpy_random(tmp_path):
    # numpy.random pages in about 5 MB of extension modules, which would set
    # the command's peak memory; this pytest process has loaded it already,
    # so the check runs in an interpreter of its own
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys\n"
             "from nsflab import cli\n"
             f"code = cli.main(['verify-thermo', '--samples', '300', '--out', {str(tmp_path)!r}])\n"
             "assert 'numpy.random' not in sys.modules, 'numpy.random was loaded'\n"
             "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["wsu", "--theorem", "1"], ["relenergy"]],
                         ids=["wsu-1", "relenergy"])
def test_default_slope_fits_reach_no_lapack(tmp_path, capsys, monkeypatch, argv):
    # the Gronwall rate and the order in h are closed-form fits; a least-
    # squares solve would page in LAPACK in every claim process.  Every
    # loaded numpy module that binds lstsq (np.polyfit reads its own import)
    # gets the refusal, and the forked claim workers inherit it
    lstsq = np.linalg.lstsq

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq reached")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("numpy")
                and getattr(module, "lstsq", None) is lstsq):
            monkeypatch.setattr(module, "lstsq", refuse)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_verify_thermo_passes_and_writes_verdict(tmp_path, capsys):
    code = cli.main(["verify-thermo", "--samples", "500",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    verdict = _verdict(tmp_path / "verify-thermo" / "verdict.json")
    assert verdict["ok"] is True
    assert verdict["samples"] == 500
    assert (tmp_path / "verify-thermo" / "config-effective.ini").exists()


@pytest.mark.parametrize("argv", [
    ["verify-thermo", "--samples", "300"],
    ["simulate", "--cells", "8", "--t-end", "0.001"],
], ids=["verify-thermo", "simulate"])
def test_config_echo_records_the_seed_that_ran(tmp_path, capsys, argv):
    assert cli.main(argv + ["--seed", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / argv[0]
    assert config.load_config(out / "config-effective.ini")["run"]["seed"] == 7
    if argv[0] == "verify-thermo":
        assert _verdict(out / "verdict.json")["seed"] == 7


def test_mv_check_and_relenergy_echo_the_grid_and_eps_they_ran(tmp_path, capsys):
    ini = tmp_path / "cells.ini"
    ini.write_text("[grid]\ncells = 12\n")
    assert cli.main(["mv-check", "--config", str(ini), "--cells", "24",
                     "--t-end", "0.002", "--out", str(tmp_path)]) == 0
    assert cli.main(["relenergy", "--cells", "16", "--eps", "1e-3",
                     "--t-end", "0.002", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    mv = config.load_config(tmp_path / "mv-check" / "config-effective.ini")
    assert mv["grid"]["cells"] == (24,)
    assert _verdict(tmp_path / "mv-check" / "verdict.json")["cells"] == 24
    rel = config.load_config(tmp_path / "relenergy" / "config-effective.ini")
    assert rel["grid"]["cells"] == (16,)
    assert rel["experiment"]["eps"] == (1e-3,)
    verdict = _verdict(tmp_path / "relenergy" / "verdict.json")
    assert (verdict["cells"], verdict["eps"]) == (16, 1e-3)


def _spy_runs(monkeypatch):
    # (cells, t_end) of every solver run a command makes
    runs, simulate = [], solver.simulate

    def spy(grid, scfg, *args, **kwargs):
        runs.append((grid.cells, scfg.t_end))
        return simulate(grid, scfg, *args, **kwargs)

    monkeypatch.setattr(solver, "simulate", spy)
    return runs


_RUN_INI = "[solver]\nt_end = 0.004\n[grid]\ncells = 12\n[experiment]\neps = 0.002\n"


def test_mv_check_and_relenergy_run_the_files_grid_end_time_and_eps(
        tmp_path, capsys, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text(_RUN_INI)
    runs = _spy_runs(monkeypatch)
    for command in ("mv-check", "relenergy"):
        assert cli.main([command, "--config", str(ini), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert runs == [((12,), 0.004), ((12,), 0.004)]
    mv = _verdict(tmp_path / "mv-check" / "verdict.json")
    assert (mv["cells"], mv["tol_h"]) == (12, 1.0 / 12)
    rel = _verdict(tmp_path / "relenergy" / "verdict.json")
    assert (rel["cells"], rel["eps"], rel["tol_h"]) == (12, 0.002, 1e-3 / 12)
    for command in ("mv-check", "relenergy"):
        echo = config.load_config(tmp_path / command / "config-effective.ini")
        assert (echo["grid"]["cells"], echo["solver"]["t_end"]) == ((12,), 0.004)
    assert echo["experiment"]["eps"] == (0.002,)


def test_mv_check_and_relenergy_flags_win_over_the_file(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text(_RUN_INI)
    runs = _spy_runs(monkeypatch)
    flags = ["--cells", "16", "--t-end", "0.002", "--config", str(ini), "--out", str(tmp_path)]
    assert cli.main(["mv-check"] + flags) == 0
    assert cli.main(["relenergy", "--eps", "1e-3"] + flags) == 0
    capsys.readouterr()
    assert runs == [((16,), 0.002), ((16,), 0.002)]
    mv = _verdict(tmp_path / "mv-check" / "verdict.json")
    assert (mv["cells"], mv["tol_h"]) == (16, 1.0 / 16)
    rel = _verdict(tmp_path / "relenergy" / "verdict.json")
    assert (rel["cells"], rel["eps"], rel["tol_h"]) == (16, 1e-3, 1e-3 / 16)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_relenergy_refuses_more_than_one_perturbation_size(tmp_path, capsys, source):
    if source == "flag":
        argv = ["--eps", "1e-3,2e-3"]
    else:
        ini = tmp_path / "eps.ini"
        ini.write_text("[experiment]\neps = 0.001, 0.002\n")
        argv = ["--config", str(ini)]
    code = cli.main(["relenergy"] + argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "experiment.eps" in err


def test_one_cells_count_spreads_over_every_axis_of_the_flow(tmp_path, capsys):
    # the molecular-radiation flow is 2D: the default count runs 64 x 64,
    # and one count given on the command line runs on both axes
    assert config.build_grid(config.default_config("simulate"), 2).cells == (64, 64)
    ini = tmp_path / "mr.ini"
    ini.write_text("[model]\nkind = molecular_radiation\n"
                   "[transport]\nkind = power_kappa\n")
    code = cli.main(["simulate", "--config", str(ini), "--profile", "radiative_decay",
                     "--cells", "8", "--t-end", "0.001", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    out = tmp_path / "simulate"
    assert _verdict(out / "verdict.json")["cells"] == [8, 8]
    assert config.load_config(out / "config-effective.ini")["grid"]["cells"] == (8, 8)


@pytest.mark.parametrize("argv", [
    ["simulate", "--cells", "16,16"], ["mv-check", "--cells", "16,16"],
    ["relenergy", "--cells", "8,8,8"],
], ids=["simulate", "mv-check", "relenergy"])
def test_cells_that_do_not_fit_the_flow_are_a_config_error(tmp_path, capsys, argv):
    code = cli.main(argv + ["--t-end", "0.001", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "grid.cells" in err


_ECHO_RUNS = {
    "simulate": ["simulate", "--cells", "8", "--t-end", "0.002"],
    "verify-thermo": ["verify-thermo", "--model", "molecular_radiation", "--seed", "3",
                      "--samples", "500"],
    "mv-check": ["mv-check", "--cells", "16", "--t-end", "0.002", "--tol-scale", "1e-6"],
    "relenergy": ["relenergy", "--cells", "16", "--eps", "2e-3", "--t-end", "0.002",
                  "--tol-scale", "0.5"],
    # each perturbed run saves at least the 3 levels its growth constant is fitted on
    "wsu": ["wsu", "--theorem", "1", "--grids", "8,16", "--t-end", "0.015"],
    "apriori": ["apriori", "--grids", "8,16", "--t-end", "0.002", "--c-fixed", "1e-3"],
    "defect-study": ["defect-study", "--grids", "16,32"],
}


@pytest.mark.parametrize("command", sorted(_ECHO_RUNS))
def test_an_echo_reproduces_its_run(tmp_path, capsys, command):
    # re-running with config-effective.ini and no other setting (wsu still
    # names its claim) writes the same files byte for byte
    first, again = tmp_path / "first", tmp_path / "again"
    code = cli.main(_ECHO_RUNS[command] + ["--out", str(first)])
    echo = first / command / "config-effective.ini"
    claim = ["--theorem", "1"] if command == "wsu" else []
    assert cli.main([command, *claim, "--config", str(echo), "--out", str(again)]) == code
    capsys.readouterr()
    names = sorted(os.listdir(first / command))
    assert "verdict.json" in names and sorted(os.listdir(again / command)) == names
    for name in names:
        assert (again / command / name).read_bytes() == (first / command / name).read_bytes()


def test_wsu_steep_conductivity_fails_the_gate(tmp_path, capsys):
    code = cli.main(["wsu", "--theorem", "3", "--beta", "3",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "beta" in err
    verdict = _verdict(tmp_path / "wsu" / "verdict.json")
    assert verdict["accepted"] is False
    assert verdict["reasons"]

    code = cli.main(["apriori", "--transport", "affine_theta",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "affine" in err
    verdict = _verdict(tmp_path / "apriori" / "verdict.json")
    assert verdict["ok"] is False and verdict["accepted"] is False
    assert verdict["theorem"] == "apriori"
    assert verdict["reasons"]


def test_mv_check_reports_every_clause(tmp_path, capsys):
    code = cli.main(["mv-check", "--cells", "32", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    verdict = _verdict(tmp_path / "mv-check" / "verdict.json")
    assert set(verdict["clauses"]) == {
        "continuity", "momentum", "entropy", "ballistic",
        "velocity_compat", "temperature_compat",
    }
    assert all(entry["ok"] for entry in verdict["clauses"].values())


def test_mv_check_pins_the_two_dimensional_clauses(tmp_path, capsys):
    # the one command that reaches the 2D test families and clauses; values
    # pinned with the golden file's rtol/atol convention
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nkind = molecular_radiation\n"
                   "[transport]\nkind = power_kappa\n")
    code = cli.main(["mv-check", "--config", str(ini), "--profile", "radiative_decay",
                     "--cells", "16", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    clauses = _verdict(tmp_path / "mv-check" / "verdict.json")["clauses"]
    pinned = {
        "continuity": ("max_abs", 8.594368117440833e-06),
        "momentum": ("max_abs", 3.5470310751188356e-06),
        "entropy": ("min", -1.401434417148146e-04),
        "ballistic": ("min", 0.0),
        "temperature_compat": ("max_abs", 4.700023549454869e-06),
        "velocity_compat": ("max_abs", 1.6330070331730809e-06),
    }
    for name, (stat, value) in pinned.items():
        got = clauses[name][stat]
        assert abs(got - value) <= 1e-13 + 1e-9 * abs(value), (name, got, value)


@pytest.mark.parametrize("argv", [
    ["mv-check", "--cells", "16"], ["wsu", "--theorem", "2"], ["apriori"], ["defect-study"],
], ids=["mv-check", "wsu-2", "apriori", "defect-study"])
def test_commands_honour_the_config_solver_block(tmp_path, capsys, argv):
    ini = tmp_path / "run.ini"
    ini.write_text("[solver]\nmax_steps = 1\n")
    code = cli.main(argv + ["--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeded max_steps" in err


def test_relenergy_writes_series_and_passes(tmp_path, capsys):
    code = cli.main(["relenergy", "--cells", "32", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    series = _series(tmp_path / "relenergy" / "series.csv")
    for column in ("t", "e_mv", "e_ess", "e_res", "r2", "slack", "fitted_c"):
        assert column in series.dtype.names
    verdict = _verdict(tmp_path / "relenergy" / "verdict.json")
    assert verdict["slack_min"] >= -verdict["tol_h"]


@pytest.mark.parametrize("argv,status", [
    ("apriori --c-fixed 1", "FAIL: apriori (total = 35.56 > 1)"),
    ("mv-check --tol-scale 0", "FAIL: mv-check (continuity.max_abs = 3.035e-05 > 0)"),
    ("wsu --theorem 1 --grids 32,64,128", "FAIL: wsu (c_spread = 0.4207 > 0.2)"),
], ids=["apriori", "mv-check", "wsu"])
def test_a_failing_run_names_its_first_failing_bound(tmp_path, capsys, argv, status):
    code = cli.main(argv.split() + ["--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == status
    verdict = _verdict(tmp_path / argv.split()[0] / "verdict.json")
    relations = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
    failing = [b["name"] for b in verdict["bounds"]
               if not relations[b["relation"]](b["value"], b["bound"])]
    assert [b["name"] for b in verdict["bounds"] if not b["holds"]] == failing
    assert status.startswith(f"FAIL: {argv.split()[0]} ({failing[0]} = ")
    assert verdict["ok"] is False


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2 owns it: claim 1's Gronwall constants "
                   "drift apart over a longer run (c_spread 0.9997 > 0.2 at t_end 0.1)")
def test_claim_one_holds_at_a_longer_end_time(tmp_path, capsys):
    code = cli.main(["wsu", "--theorem", "1", "--t-end", "0.1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0


def test_simulate_persists_series_and_snapshot(tmp_path, capsys):
    code = cli.main(["simulate", "--cells", "24", "--t-end", "0.01",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    series = _series(tmp_path / "simulate" / "series.csv")
    # the forced run tracks the reference mass to discretization accuracy
    assert series["mass"] == pytest.approx(series["mass"][0], rel=1e-4)
    state = np.load(tmp_path / "simulate" / "final-state.npy")
    assert set(state.dtype.names) == {"rho", "u", "theta", "t"}
    assert state["rho"].shape == (24,)
    assert np.all(state["rho"] > 0) and np.all(state["theta"] > 0)


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert cli.main(["mv-check", "--cells", "24", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("verdict.json", "config-effective.ini"):
        a = (out1 / "mv-check" / name).read_bytes()
        b = (out2 / "mv-check" / name).read_bytes()
        assert a == b


def test_outputs_stay_under_the_chosen_root(tmp_path, monkeypatch, capsys):
    workdir = tmp_path / "cwd"
    outdir = tmp_path / "results"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert cli.main(["verify-thermo", "--samples", "300",
                     "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert os.listdir(workdir) == []
    assert (outdir / "verify-thermo" / "verdict.json").exists()


def test_environment_variable_sets_the_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "env-root"))
    assert cli.main(["verify-thermo", "--samples", "300"]) == 0
    capsys.readouterr()
    assert (tmp_path / "env-root" / "verify-thermo" / "verdict.json").exists()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_an_output_root_that_is_a_file_exits_two(tmp_path, monkeypatch, capsys, source):
    # a regular file cannot hold the command's directory: one stderr line
    # names that directory, the run exits 2 and writes nothing
    root = tmp_path / "root"
    root.write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_ENV, str(root if source == "env" else tmp_path / "env"))
    flag = ["--out", str(root)] if source == "flag" else []
    code = cli.main(["verify-thermo", "--samples", "300"] + flag)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"output directory {root / 'verify-thermo'}: ")
    assert os.listdir(tmp_path) == ["root"] and root.read_text() == ""


def test_config_file_with_unknown_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[transport]\nviscocity = 3\n")
    code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "transport.viscocity" in err


@pytest.mark.parametrize("section, key", [
    ("transport", "mu_lo"), ("transport", "mu_hi"), ("transport", "lam_hi"),
    ("transport", "kappa_lo"), ("transport", "kappa_hi"), ("model", "radiation_exponent"),
    ("grid", "lo"), ("grid", "hi"),
])
def test_removed_config_keys_exit_two_by_name(tmp_path, capsys, section, key):
    # the BoundedGeneral envelope bounds, the one-valued radiation exponent
    # and the grid box (every run lives on the unit box) parametrise no run,
    # so an old file naming them is refused
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{section}]\n{key} = 2\n")
    code = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{section}.{key}" in err


@pytest.mark.parametrize("argv", [
    ["simulate"], ["mv-check"], ["relenergy"], ["wsu", "--theorem", "1"], ["apriori"],
    ["defect-study"],
], ids=["simulate", "mv-check", "relenergy", "wsu-1", "apriori", "defect-study"])
def test_bounded_general_transport_is_refused_by_every_command(tmp_path, capsys, argv):
    # the envelope has no coefficient law, so no command can run it: the
    # flag does not offer it and a file value is a config error
    out = tmp_path / "out"
    if "transport" in cli._COMMANDS[argv[0]][2]:
        assert cli.main(argv + ["--transport", "bounded_general", "--out", str(out)]) == 2
        assert "transport.kind must be one of affine_theta, power_kappa" in capsys.readouterr().err
    ini = tmp_path / "bg.ini"
    ini.write_text("[transport]\nkind = bounded_general\n")
    code = cli.main(argv + ["--config", str(ini), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("transport.kind must be one of affine_theta, power_kappa")
    assert not out.exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


# the --config of a refusal row that names a directory, not a file
_DIRECTORY = "<directory>"


def _schema_rows():
    """Rows the schema generates, each set from a config file: every float
    key refuses nan and inf, and every closed-set key an unlisted value in
    a command that does not read it (every command reads model.kind)."""

    rows = []
    for section, keys in config._SCHEMA.items():
        for key, (kind, _) in keys.items():
            if kind in ("float", "floats", "opt_float"):
                rows += [pytest.param(["simulate"], f"[{section}]\n{key} = {bad}\n",
                                      f"{section}.{key}", id=f"{section}.{key}-{bad}")
                         for bad in ("nan", "inf")]
    unread = {("model", "kernel"): "simulate"}
    for section, key in config.CHOICES:
        rows.append(pytest.param([unread.get((section, key), "verify-thermo")],
                                 f"[{section}]\n{key} = unlisted\n", f"{section}.{key}",
                                 id=f"{section}.{key}-unlisted"))
    return rows


@pytest.mark.parametrize("argv, ini, key", [
    pytest.param(["simulate", "--cells", "2"], None, "grid.cells", id="simulate-cells-2"),
    pytest.param(["wsu", "--theorem", "1", "--grids", "16,8"], None, "experiment.grids",
                 id="wsu-1-grids-16-8"),
    pytest.param(["apriori", "--grids", "8,4,16"], None, "experiment.grids",
                 id="apriori-grids-8-4-16"),
    # other values their checks refuse exit 2 the same way
    pytest.param(["apriori", "--theta-tilt", "2"], None, "experiment.theta_tilt",
                 id="apriori-theta-tilt-2"),
    pytest.param(["apriori", "--theta-scale", "0"], None, "experiment.theta_scale",
                 id="apriori-theta-scale-0"),
    pytest.param(["apriori", "--c-fixed=-1"], None, "experiment.c_fixed",
                 id="apriori-c-fixed-neg"),
    pytest.param(["apriori"], "[experiment]\nc_fixed = 0\n", "experiment.c_fixed",
                 id="apriori-c-fixed-0"),
    pytest.param(["mv-check", "--t-end", "-1"], None, "solver.t_end", id="mv-check-t-end-neg"),
    pytest.param(["wsu", "--theorem", "1", "--t-end", "-1"], None, "solver.t_end",
                 id="wsu-1-t-end-neg"),
    # a march within its arrival tolerance of t_end takes no step
    pytest.param(["wsu", "--theorem", "1", "--t-end", "1e-13"], None, "solver.t_end",
                 id="wsu-1-t-end-1e-13"),
    pytest.param(["verify-thermo", "--samples", "0"], None, "run.samples",
                 id="verify-thermo-samples-0"),
    pytest.param(["relenergy", "--eps", "0"], None, "experiment.eps", id="relenergy-eps-0"),
    pytest.param(["wsu", "--theorem", "1", "--eps", "0"], None, "experiment.eps",
                 id="wsu-1-eps-0"),
    # a claim's stability verdict compares the constants of two distinct sizes
    pytest.param(["wsu", "--theorem", "1", "--eps", "0.01"], None, "experiment.eps",
                 id="wsu-1-one-eps"),
    pytest.param(["wsu", "--theorem", "1", "--eps", "1e-2,1e-2"], None, "experiment.eps",
                 id="wsu-1-repeated-eps"),
    # defect-study coarse-grains each grid onto a quarter of its cells
    pytest.param(["defect-study", "--grids", "8"], None, "experiment.grids",
                 id="defect-study-grids-8"),
    pytest.param(["defect-study", "--grids", "18"], None, "experiment.grids",
                 id="defect-study-grids-18"),
    pytest.param(["defect-study", "--grids", "64,66"], None, "experiment.grids",
                 id="defect-study-grids-64-66"),
    # one grid leaves a ladder verdict nothing to compare
    pytest.param(["defect-study", "--grids", "64"], None, "experiment.grids",
                 id="defect-study-grids-64"),
    pytest.param(["apriori", "--grids", "16"], None, "experiment.grids",
                 id="apriori-grids-16"),
    # a study runs what its config lists: an emptied list or profile is refused
    pytest.param(["wsu", "--theorem", "1", "--grids", ""], None, "experiment.grids",
                 id="wsu-1-grids-empty"),
    pytest.param(["wsu", "--theorem", "1", "--eps", ""], None, "experiment.eps",
                 id="wsu-1-eps-empty"),
    pytest.param(["defect-study", "--grids", ""], None, "experiment.grids",
                 id="defect-study-grids-empty"),
    pytest.param(["apriori"], "[solver]\nprofile =\n", "solver.profile",
                 id="apriori-profile-empty"),
    # a negative tolerance scale or seed
    pytest.param(["mv-check", "--tol-scale", "-1"], None, "experiment.tol_scale",
                 id="mv-check-tol-scale-neg"),
    pytest.param(["relenergy", "--tol-scale", "-0.5"], None, "experiment.tol_scale",
                 id="relenergy-tol-scale-neg"),
    pytest.param(["verify-thermo", "--seed", "-1"], None, "run.seed",
                 id="verify-thermo-seed-neg"),
    # the floors hold in every command, whether it reads the key or not
    pytest.param(["simulate", "--seed", "-1"], None, "run.seed", id="simulate-seed-neg"),
    pytest.param(["apriori", "--seed", "-1"], None, "run.seed", id="apriori-seed-neg"),
    pytest.param(["wsu", "--theorem", "1"], "[run]\nsamples = 1\n", "run.samples",
                 id="wsu-1-samples-1"),
    pytest.param(["simulate"], "[experiment]\ntol_scale = -2\n", "experiment.tol_scale",
                 id="simulate-tol-scale-neg"),
    pytest.param(["simulate", "--cells", ""], None, "grid.cells", id="simulate-cells-empty"),
    pytest.param(["simulate", "--cells", "8,8"], None, "grid.cells", id="simulate-cells-2d"),
    pytest.param(["mv-check"], "[solver]\nprofile =\n", "solver.profile",
                 id="mv-check-profile-empty"),
    pytest.param(["simulate", "--profile", ""], None, "solver.profile",
                 id="simulate-profile-empty"),
    pytest.param(["simulate"], "[solver]\nmax_steps = 0\n", "solver.max_steps",
                 id="simulate-max-steps-0"),
    # the paper's hypotheses, refused by the model and transport constructors
    pytest.param(["verify-thermo", "--model", "perfect_gas", "--c-v", "1.0"], None,
                 "model.c_v", id="verify-thermo-c-v-1"),
    pytest.param(["wsu", "--theorem", "1", "--c-v", "1.0"], None, "model.c_v",
                 id="wsu-1-c-v-1"),
    pytest.param(["wsu", "--theorem", "3", "--a", "0"], None, "model.a", id="wsu-3-a-0"),
    pytest.param(["apriori"], "[transport]\nkind = power_kappa\nmu0 = 0\n", "transport.mu0",
                 id="apriori-mu0-0"),
    pytest.param(["apriori"], "[transport]\nkind = power_kappa\nkappa1 = 0\n",
                 "transport.kappa1", id="apriori-kappa1-0"),
    pytest.param(["mv-check"], "[transport]\nc_mu = 0\n", "transport.c_mu", id="mv-check-c-mu-0"),
    pytest.param(["mv-check"], "[transport]\nkappa0 = 0\n", "transport.kappa0",
                 id="mv-check-kappa0-0"),
    pytest.param(["mv-check"], "[transport]\nc_lambda = -1\n", "transport.c_lambda",
                 id="mv-check-c-lambda-neg"),
    # values the schema refuses before any builder reads them
    pytest.param(["mv-check"], "[transport]\nc_lambda = nan\n", "transport.c_lambda",
                 id="mv-check-c-lambda-nan"),
    pytest.param(["relenergy"], "[experiment]\neps = inf\n", "experiment.eps",
                 id="relenergy-eps-inf"),
    pytest.param(["verify-thermo"], "[model]\nkernel = foo\n", "model.kernel",
                 id="verify-thermo-kernel-foo"),
    pytest.param(["verify-thermo"], "[model]\nkind = van_der_waals\n", "model.kind",
                 id="verify-thermo-kind-van-der-waals"),
    # a config file that cannot be read is named
    pytest.param(["simulate"], _DIRECTORY, "configuration file {config}",
                 id="simulate-config-directory"),
    pytest.param(["simulate"], b"[solver]\nt_end = 0.01 \xff\n", "configuration file {config}",
                 id="simulate-config-not-utf8"),
    *_schema_rows(),
])
def test_unusable_grid_counts_are_a_config_error(tmp_path, capsys, monkeypatch,
                                                      argv, ini, key):
    # the refusal table: a value refused at parse or by its constructor,
    # from a flag or a config file, exits 2 before any run with one stderr
    # line that starts with its key (or names the file), and writes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a refused value runs nothing")

    monkeypatch.setattr(solver, "levels", refuse)
    path, out = tmp_path / "run.ini", tmp_path / "out"
    if ini == _DIRECTORY:
        path.mkdir()
    elif isinstance(ini, bytes):
        path.write_bytes(ini)
    elif ini is not None:
        path.write_text(ini)
    config_flag = [] if ini is None else ["--config", str(path)]
    code = cli.main(argv + config_flag + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert re.match(re.escape(key.format(config=path)) + "[: ]", err), err
    assert not out.exists()  # a refused value writes nothing


def test_relenergy_refuses_an_eps_that_leaves_its_initial_state_nonpositive(tmp_path, capsys,
                                                                            monkeypatch):
    # rho0 + 0.9 sin(2 pi x) is negative from cell 43 of 64: the configured
    # size is at fault, not the solver, so the value is refused before a run
    def refuse(*args, **kwargs):
        raise AssertionError("a refused value runs nothing")

    monkeypatch.setattr(solver, "levels", refuse)
    out = tmp_path / "out"
    assert cli.main(["relenergy", "--eps", "0.9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"experiment\.eps: the perturbation size 0\.9 leaves the initial state "
                        r"nonpositive at cell \(43,\): rho = -0\.0395\d*, theta = 1\.929\d*\n",
                        err), err
    assert not out.exists()


@pytest.mark.parametrize("theorem, eps, cell", [("1", "0.9", r"\(43,\)"),
                                                ("3", "5", r"\(1, 20\)")],
                         ids=["1", "3"])
def test_wsu_refuses_an_eps_that_leaves_a_perturbed_state_nonpositive(
        tmp_path, capsys, monkeypatch, theorem, eps, cell):
    # each perturbed state of the study is built and checked before any run
    # is forked, so the size is refused by its key and no log of a negative
    # density is taken
    def refuse(*args, **kwargs):
        raise AssertionError("a refused value runs nothing")

    monkeypatch.setattr(solver, "levels", refuse)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["wsu", "--theorem", theorem, "--eps", f"{eps},1e-2",
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not caught
    size = re.escape(repr(float(eps)))
    assert re.fullmatch(rf"experiment\.eps: the perturbation size {size} leaves the initial "
                        rf"state nonpositive at cell {cell}: rho = -[^\n]*\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("theorem", ["1", "2"])
def test_a_claim_study_refuses_an_end_time_too_short_to_fit_a_growth_rate(
        tmp_path, capsys, theorem):
    # each perturbed run saves 2 levels, a line through two points: its
    # fitted constant is noise, so the study exits 1 and writes no verdict
    code = cli.main(["wsu", "--theorem", theorem, "--t-end", "2e-12", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"t_end: the perturbed run on \(64,\) cells with eps = 0\.01 saved 2 "
                        r"levels, fewer than 3\n", err), err
    assert sorted(os.listdir(tmp_path / "wsu")) == ["config-effective.ini"]


def test_a_refused_rerun_leaves_the_echo_beside_its_verdict(tmp_path, capsys):
    # a refused re-run into the same directory must not replace the echo
    # of the run whose verdict is still there
    run = ["wsu", "--theorem", "1", "--grids", "8,16", "--t-end", "0.015"]
    assert cli.main(run + ["--out", str(tmp_path / "first")]) in (0, 1)
    assert cli.main(["wsu", "--theorem", "1", "--grids", "32",
                     "--out", str(tmp_path / "first")]) == 2
    echo = tmp_path / "first" / "wsu" / "config-effective.ini"
    assert config.load_config(echo)["experiment"]["grids"] == (8, 16)
    assert cli.main(["wsu", "--theorem", "1", "--config", str(echo),
                     "--out", str(tmp_path / "again")]) in (0, 1)
    capsys.readouterr()
    for name in ("verdict.json", "collapse.csv", "stability.csv"):
        again = (tmp_path / "again" / "wsu" / name).read_bytes()
        assert again == (tmp_path / "first" / "wsu" / name).read_bytes()


@pytest.mark.parametrize("theorem", ["1", "2", "3"])
def test_wsu_refuses_a_one_grid_ladder_before_any_run(tmp_path, capsys, monkeypatch,
                                                      theorem):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused ladder runs nothing")

    monkeypatch.setattr(solver, "levels", refuse)
    code = cli.main(["wsu", "--theorem", theorem, "--grids", "32",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "needs at least two grids" in err
    assert not (tmp_path / "wsu" / "verdict.json").exists()


@pytest.mark.parametrize("argv, profile", [
    (["mv-check"], "bogus"),
    (["relenergy"], "bogus"),
    (["mv-check"], "none"),
    (["relenergy"], "none"),
    (["simulate", "--profile", "radiative_decay"], None),
    (["mv-check", "--profile", "radiative_decay"], None),
    (["relenergy", "--profile", "radiative_decay"], None),
    (["wsu", "--theorem", "1"], "bogus"),
    (["apriori"], "bogus"),
    (["wsu", "--theorem", "1"], "radiative_decay"),
], ids=["mv-check-bogus", "relenergy-bogus", "mv-check-none", "relenergy-none",
        "simulate-radiative_decay", "mv-check-radiative_decay",
        "relenergy-radiative_decay", "wsu-1-bogus", "apriori-bogus",
        "wsu-1-radiative_decay"])
def test_bad_comparison_profile_is_a_config_error(tmp_path, capsys, argv, profile):
    # an unknown profile, or one the model cannot carry (the perfect gas
    # with radiative_decay), exits 2 with one stderr line in every command
    # that runs a comparison flow
    if profile is not None:
        ini = tmp_path / "profile.ini"
        ini.write_text(f"[solver]\nprofile = {profile}\n")
        argv = argv + ["--config", str(ini)]
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "solver.profile" in err
    assert "Traceback" not in err


def test_bad_profile_leaves_no_traceback_from_the_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nsflab.cli", "mv-check",
                           "--profile", "radiative_decay", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_studies_run_the_configured_profile(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[solver]\nprofile = conduction\n")
    code = cli.main(["wsu", "--theorem", "1", "--grids", "8,16",
                     "--t-end", "0.02", "--config", str(ini),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 1)  # the verdict, pass or fail, names the flow it ran
    verdict = _verdict(tmp_path / "wsu" / "verdict.json")
    assert verdict["profile"] == "conduction"


_SMALL_STUDIES = {
    "wsu": (["wsu", "--theorem", "3", "--grids", "8,16", "--t-end", "0.005"],
            {"collapse.csv", "stability.csv"}),
    "apriori": (["apriori", "--grids", "8,16", "--t-end", "0.005"], {"budget.csv"}),
    "defect-study": (["defect-study", "--grids", "16,32"], {"smooth-defects.csv"}),
}


@pytest.mark.parametrize("command", sorted(_SMALL_STUDIES))
def test_config_file_is_read_over_the_claims_pairing(tmp_path, capsys, command):
    # a file that names no kind keeps the claim's own model and transport,
    # and each study writes exactly its series, its verdict and the echo
    argv, series = _SMALL_STUDIES[command]
    ini = tmp_path / "run.ini"
    ini.write_text("[solver]\ncfl = 0.4\n")
    code = cli.main(argv + ["--config", str(ini), "--out", str(tmp_path)])
    capsys.readouterr()
    out = tmp_path / command
    assert code in (0, 1)  # the verdict, pass or fail, comes from a run
    assert set(os.listdir(out)) == series | {"verdict.json", "config-effective.ini"}
    assert _verdict(out / "verdict.json")["accepted"] is True
    echo = config.load_config(out / "config-effective.ini")
    pairing = (("molecular_radiation", "power_kappa") if command != "defect-study"
               else ("perfect_gas", "affine_theta"))
    assert (echo["model"]["kind"], echo["transport"]["kind"]) == pairing


def test_config_file_kind_wins_over_the_claims_pairing(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nkind = perfect_gas\n")
    code = cli.main(_SMALL_STUDIES["wsu"][0] + ["--config", str(ini),
                                                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "radiation" in err
    out = tmp_path / "wsu"
    assert set(os.listdir(out)) == {"verdict.json", "config-effective.ini"}
    verdict = _verdict(out / "verdict.json")
    assert verdict["accepted"] is False and verdict["theorem"] == "3"


def test_default_config_carries_the_claims_pairing():
    assert config.default_config("3")["model"]["kind"] == "molecular_radiation"
    assert config.default_config("apriori")["transport"]["kind"] == "power_kappa"
    claim, schema = config.default_config("1"), config.default_config()
    assert (claim["model"], claim["transport"]) == (schema["model"], schema["transport"])
    # the row fills what the study runs, so the echo records it
    assert claim["solver"]["profile"] == "shear"
    assert claim["experiment"]["grids"] == (32, 64)
    assert claim["experiment"]["eps"] == (1e-2, 1e-3)
    base = config.default_config("3")
    cfg = config.loads_config("[transport]\nbeta = 1.5\n", base)
    assert cfg["model"]["kind"] == "molecular_radiation"
    assert cfg["transport"]["kind"] == "power_kappa"
    assert cfg["transport"]["beta"] == 1.5


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_takes_out_seed_and_config(command):
    # the flags that benchmarks/run.py forwards to every command
    extra = ["--theorem", "1"] if command == "wsu" else []
    args = cli.build_parser().parse_args(
        [command, "--out", "X", "--seed", "3", "--config", "Y"] + extra)
    assert (args.out, args.seed, args.config) == ("X", 3, "Y")


# schema kind -> (a flag value, the value it parses to); a str key offers
# its choices instead
_FLAG_VALUES = {"int": ("7", 7), "float": ("0.375", 0.375), "opt_float": ("0.375", 0.375),
                "ints": ("16,32", (16, 32)), "floats": ("0.25,0.125", (0.25, 0.125))}
# command -> the defaults row it reads (wsu with --theorem 1)
_ROWS = {"wsu": "1", "defect-study": "defect"}


@pytest.mark.parametrize("command, dest", [
    (command, dest) for command, (_, _, flags) in cli._COMMANDS.items()
    for dest in ("seed",) + flags])
def test_every_flag_sets_its_key_and_round_trips_through_the_echo(tmp_path, capsys,
                                                                 command, dest):
    # a flag sets exactly its key, a value its key refuses exits 2, and the
    # echo of the result, read back over the command's row, is the same config
    section, key = cli._FLAGS[dest]
    row = _ROWS.get(command, command)
    base = config.default_config(row)
    kind = config._SCHEMA[section][key][0]
    if kind == "str":
        value = next(c for c in config.CHOICES[(section, key)] if c != base[section][key])
        text = value
    else:
        text, value = _FLAG_VALUES[kind]
    flag = "--" + dest.replace("_", "-")
    claim = ["--theorem", "1"] if command == "wsu" else []
    parser = cli.build_parser()

    cfg = cli._config(parser.parse_args([command, *claim, flag, text]), row)
    assert cfg.sections == {**base.sections, section: {**base[section], key: value}}

    with pytest.raises(SystemExit) as err:
        parser.parse_args([command, *claim, flag, "bogus"])
    assert err.value.code == 2 and flag in capsys.readouterr().err

    echo = tmp_path / "config-effective.ini"
    config.save_config(cfg, echo)
    assert cli._config(parser.parse_args([command, *claim, "--config", str(echo)]), row) == cfg
