"""Configuration files, persisted reports, and the command-line interface."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nsflab import cli, config, reports


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
    cfg = config.loads_config(text)
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
    assert len(keys) == 29
    assert sum(line.startswith("profile = ") for line in keys) == 1
    assert "[boundary]" not in text


def test_unlisted_model_kind_is_rejected():
    cfg = config.default_config().replace_value("model", "kind", "van_der_waals")
    with pytest.raises(config.ConfigError):
        config.build_model(cfg)


# --------------------------------------------------------------------------
# CSV series
# --------------------------------------------------------------------------


def test_series_round_trip_is_exact(tmp_path):
    path = tmp_path / "series.csv"
    cols = {
        "t": np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]),
        "value": np.array([1e-17, -np.pi * 1e8, 4.9406564584124654e-324]),
        "flag": np.array([1.0, 0.0, -0.0]),
    }
    reports.write_series(path, cols)
    back = reports.read_series(path)
    assert list(back) == ["t", "value", "flag"]  # insertion order preserved
    for name in cols:
        np.testing.assert_array_equal(back[name], cols[name])


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
    back = reports.read_verdicts(p1)
    assert back["ok"] is True
    assert back["order"] == 3.25
    assert back["cells"] == [16, 32]
    assert back["nested"]["sup"] == [1e-9]


def test_verdicts_refuse_unserializable_objects(tmp_path):
    with pytest.raises(TypeError):
        reports.write_verdicts(tmp_path / "x.json", {"bad": object()})


# --------------------------------------------------------------------------
# binary snapshots
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
    path = tmp_path / "state.bin"
    fields = _sample_fields()
    reports.write_snapshot(path, fields)
    back = reports.read_snapshot(path)
    assert list(back) == list(fields)
    for name, arr in fields.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_snapshot_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    reports.write_snapshot(p1, _sample_fields())
    reports.write_snapshot(p2, _sample_fields())
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "state.bin"
    reports.write_snapshot(path, _sample_fields())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        reports.read_snapshot(path)


def test_snapshot_version_bump_is_an_explicit_error(tmp_path):
    path = tmp_path / "state.bin"
    reports.write_snapshot(path, _sample_fields())
    blob = bytearray(path.read_bytes())
    blob[4] = reports.SNAPSHOT_VERSION + 1  # little-endian version word
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        reports.read_snapshot(path)


def test_snapshot_truncation_is_detected(tmp_path):
    path = tmp_path / "state.bin"
    reports.write_snapshot(path, _sample_fields())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(ValueError, match="truncated"):
        reports.read_snapshot(path)


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


def test_verify_thermo_passes_and_writes_verdict(tmp_path, capsys):
    code = cli.main(["verify-thermo", "--samples", "500",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    verdict = reports.read_verdicts(tmp_path / "verify-thermo" / "verdict.json")
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
        assert reports.read_verdicts(out / "verdict.json")["seed"] == 7


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
    assert reports.read_verdicts(tmp_path / "mv-check" / "verdict.json")["cells"] == 24
    rel = config.load_config(tmp_path / "relenergy" / "config-effective.ini")
    assert rel["grid"]["cells"] == (16,)
    assert rel["experiment"]["eps"] == (1e-3,)
    verdict = reports.read_verdicts(tmp_path / "relenergy" / "verdict.json")
    assert (verdict["cells"], verdict["eps"]) == (16, 1e-3)


def test_verify_thermo_invalid_heat_capacity_fails(tmp_path, capsys):
    code = cli.main(["verify-thermo", "--model", "perfect_gas", "--c-v", "1.0",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "c_v" in err


def test_wsu_steep_conductivity_fails_the_gate(tmp_path, capsys):
    code = cli.main(["wsu", "--theorem", "3", "--beta", "3",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "beta" in err
    verdict = reports.read_verdicts(tmp_path / "wsu" / "verdict.json")
    assert verdict["accepted"] is False
    assert verdict["reasons"]

    code = cli.main(["apriori", "--transport", "affine_theta",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "affine" in err
    verdict = reports.read_verdicts(tmp_path / "apriori" / "verdict.json")
    assert verdict["ok"] is False and verdict["accepted"] is False
    assert verdict["theorem"] == "apriori"
    assert verdict["reasons"]


def test_mv_check_reports_every_clause(tmp_path, capsys):
    code = cli.main(["mv-check", "--cells", "32", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    verdict = reports.read_verdicts(tmp_path / "mv-check" / "verdict.json")
    assert set(verdict["clauses"]) == {
        "continuity", "momentum", "entropy", "ballistic",
        "velocity_compat", "temperature_compat",
    }
    assert all(entry["ok"] for entry in verdict["clauses"].values())


@pytest.mark.parametrize("argv,pairing", [
    (["mv-check", "--cells", "16"], ""),
    (["wsu", "--theorem", "2"], ""),
    (["apriori"], "[model]\nkind = molecular_radiation\n"
                  "[transport]\nkind = power_kappa\n"),
    (["defect-study"], ""),
], ids=["mv-check", "wsu-2", "apriori", "defect-study"])
def test_commands_honour_the_config_solver_block(tmp_path, capsys, argv, pairing):
    ini = tmp_path / "run.ini"
    ini.write_text(pairing + "[solver]\nmax_steps = 1\n")
    code = cli.main(argv + ["--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeded max_steps" in err


def test_relenergy_writes_series_and_passes(tmp_path, capsys):
    code = cli.main(["relenergy", "--cells", "32", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    series = reports.read_series(tmp_path / "relenergy" / "series.csv")
    for column in ("t", "e_mv", "e_ess", "e_res", "r2", "slack", "fitted_c"):
        assert column in series
    verdict = reports.read_verdicts(tmp_path / "relenergy" / "verdict.json")
    assert verdict["slack_min"] >= -verdict["tol_h"]


def test_simulate_persists_series_and_snapshot(tmp_path, capsys):
    code = cli.main(["simulate", "--cells", "24", "--t-end", "0.01",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    series = reports.read_series(tmp_path / "simulate" / "series.csv")
    # the forced run tracks the reference mass to discretization accuracy
    assert series["mass"] == pytest.approx(series["mass"][0], rel=1e-4)
    state = reports.read_snapshot(tmp_path / "simulate" / "final-state.bin")
    assert set(state) == {"rho", "u", "theta", "t"}
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
])
def test_removed_config_keys_exit_two_by_name(tmp_path, capsys, section, key):
    # the BoundedGeneral envelope bounds and the one-valued radiation exponent
    # parametrised no run, so an old file naming them is refused
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{section}]\n{key} = 2\n")
    code = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{section}.{key}" in err


def test_bounded_general_transport_still_fails_the_gate(tmp_path, capsys):
    code = cli.main(["wsu", "--theorem", "1", "--transport", "bounded_general",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "envelope bounds" in err
    verdict = reports.read_verdicts(tmp_path / "wsu" / "verdict.json")
    assert verdict["accepted"] is False


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


_MR_PK = "[model]\nkind = molecular_radiation\n[transport]\nkind = power_kappa\n"


@pytest.mark.parametrize("argv, profile, pairing", [
    (["mv-check"], "bogus", ""),
    (["relenergy"], "bogus", ""),
    (["mv-check"], "none", ""),
    (["relenergy"], "none", ""),
    (["simulate", "--profile", "radiative_decay"], None, ""),
    (["mv-check", "--profile", "radiative_decay"], None, ""),
    (["relenergy", "--profile", "radiative_decay"], None, ""),
    (["wsu", "--theorem", "1"], "bogus", ""),
    (["apriori"], "bogus", _MR_PK),
    (["wsu", "--theorem", "1"], "radiative_decay", ""),
], ids=["mv-check-bogus", "relenergy-bogus", "mv-check-none", "relenergy-none",
        "simulate-radiative_decay", "mv-check-radiative_decay",
        "relenergy-radiative_decay", "wsu-1-bogus", "apriori-bogus",
        "wsu-1-radiative_decay"])
def test_bad_comparison_profile_is_a_config_error(tmp_path, capsys, argv,
                                                  profile, pairing):
    # an unknown profile, or one the model cannot carry (the perfect gas
    # with radiative_decay), exits 2 with one stderr line in every command
    # that runs a comparison flow
    if profile is not None:
        ini = tmp_path / "profile.ini"
        ini.write_text(f"{pairing}[solver]\nprofile = {profile}\n")
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
                     "--t-end", "0.005", "--config", str(ini),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 1)  # the verdict, pass or fail, names the flow it ran
    verdict = reports.read_verdicts(tmp_path / "wsu" / "verdict.json")
    assert verdict["profile"] == "conduction"


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
