"""Command-line front end: runs, checks, and studies with persisted reports.

Subcommands: ``simulate``, ``mv-check``, ``relenergy``, ``wsu``, ``apriori``,
``defect-study``, ``verify-thermo``.  Every command writes a JSON verdict
(and, where natural, CSV series and binary snapshots) under
``<out>/<command>/`` and exits 0 only if every assertion holds; assertion
failures exit 1, usage and configuration errors exit 2.  Every command builds
its config one way: the command's defaults row, the ``--config`` file over
it, and the flags over both.  A flag and a file key are one setting: each
flag of ``_FLAGS`` sets one schema key, parsed and offered the choices of
that key as a file value is, and its help names the key.  The result is
echoed to ``config-effective.ini``, and re-running with that file alone
repeats the run.
Identical (config, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as configmod
from . import experiments, relenergy, reports, solver, testfuns, thermo, young

__all__ = ["main", "OUTPUT_ENV"]

OUTPUT_ENV = "NSFLAB_OUT"


# flag (its argparse dest; the flag itself is "--" and the dest with "-" for
# "_") -> the config key it sets, parsed and offered the choices of that key
# as a file value is; a flag not given sets nothing, so the file's value or
# the command's default stands
_FLAGS = {
    "seed": ("run", "seed"), "samples": ("run", "samples"),
    "model": ("model", "kind"), "c_v": ("model", "c_v"), "a": ("model", "a"),
    "kernel": ("model", "kernel"), "transport": ("transport", "kind"),
    "beta": ("transport", "beta"), "cells": ("grid", "cells"),
    "profile": ("solver", "profile"), "t_end": ("solver", "t_end"),
    "eps": ("experiment", "eps"), "grids": ("experiment", "grids"),
    "theta_scale": ("experiment", "theta_scale"), "theta_tilt": ("experiment", "theta_tilt"),
    "tol_scale": ("experiment", "tol_scale"), "c_fixed": ("experiment", "c_fixed"),
}


def _config(args, command: str) -> configmod.RunConfig:
    """``command``'s defaults row, the ``--config`` file read over it, and
    the flags applied over both."""
    cfg = configmod.default_config(command)
    if args.config:
        cfg = configmod.load_config(args.config, cfg)
    for dest, (section, key) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            cfg = cfg.replace_value(section, key, value)
    return cfg


def _flow(cfg: configmod.RunConfig):
    """The comparison flow and grid of a one-run command, and ``cfg`` with
    the grid's cells written in."""
    source = configmod.build_source(cfg)
    grid = configmod.build_grid(cfg, source.dim)
    return cfg.replace_value("grid", "cells", grid.cells), source, grid


def _echo(args, cfg: configmod.RunConfig, command: str) -> str:
    """Write ``cfg`` to ``<out>/<command>/config-effective.ini``; return
    that directory."""
    out = os.path.join(args.out or os.environ.get(OUTPUT_ENV) or "nsflab-out", command)
    os.makedirs(out, exist_ok=True)
    configmod.save_config(cfg, os.path.join(out, "config-effective.ini"))
    return out


def _cells(grid):
    """The verdict's cells: the count of every axis when they agree."""
    return grid.cells[0] if len(set(grid.cells)) == 1 else list(grid.cells)


def _status(ok: bool, label: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg, source, grid = _flow(_config(args, "simulate"))
    out = _echo(args, cfg, "simulate")

    model, tm = source.model, source.transport_model
    scfg = configmod.build_solver_config(cfg, source)
    traj = solver.simulate(grid, scfg, model, tm, boundary=source.boundary)

    series: dict[str, np.ndarray] = {"t": traj.times}
    conserved = traj.conserved_series()
    for name in ("mass", "kinetic", "internal", "total", "entropy"):
        series[name] = conserved[name]
    axes = "xy"
    for j in range(grid.dim):
        series[f"momentum_{axes[j]}"] = conserved["momentum"][:, j]
    reports.write_series(os.path.join(out, "series.csv"), series)
    reports.write_snapshot(os.path.join(out, "final-state.bin"), {
        "rho": traj.rho[-1], "u": traj.u[-1], "theta": traj.theta[-1],
        "t": np.asarray(float(traj.times[-1])),
    })
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "completed": True,
        "levels": traj.n_levels,
        "t_final": float(traj.times[-1]),
        "cells": list(grid.cells),
    })
    _status(True, "simulate", f"{traj.n_levels} levels to t = {traj.times[-1]:g}")
    return 0


# --------------------------------------------------------------------------
# verify-thermo
# --------------------------------------------------------------------------


def cmd_verify_thermo(args) -> int:
    cfg = _config(args, "verify-thermo")
    seed, samples = cfg["run"]["seed"], cfg["run"]["samples"]
    if samples < 2:
        raise configmod.ConfigError("run.samples: the convexity check needs at least 2 "
                                    f"sampled states, got {samples}")
    out = _echo(args, cfg, "verify-thermo")

    model = configmod.build_model(cfg)
    rep = thermo.validate_structure(model, n_samples=samples, seed=seed)
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": rep.ok,
        "model": cfg["model"]["kind"],
        "samples": samples,
        "seed": seed,
        "first_violation": rep.first_violation or "",
        "checks": rep.checks,
    })
    _status(rep.ok, "verify-thermo", rep.first_violation or "all structure checks hold")
    return 0 if rep.ok else 1


# --------------------------------------------------------------------------
# mv-check
# --------------------------------------------------------------------------


def cmd_mv_check(args) -> int:
    cfg, sol, grid = _flow(_config(args, "mv-check"))
    out = _echo(args, cfg, "mv-check")

    model, tm = sol.model, sol.transport_model
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    init = solver.FlowState(grid=grid, rho=rho0, u=u0, theta=th0, t=0.0)
    scfg = configmod.build_solver_config(cfg)
    traj = solver.simulate(grid, scfg, model, tm, boundary=sol.boundary,
                           initial=init)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_ref_from_strong(sol)

    tol = cfg["experiment"]["tol_scale"] * max(grid.h)
    dim = grid.dim
    checks = (  # (name, statistic, report); the "min" clauses are one-sided
        ("continuity", "max_abs", young.continuity_residual(V, testfuns.scalar_tests(dim))),
        ("momentum", "max_abs",
         young.momentum_residual(V, testfuns.velocity_tests(dim), model, tm)),
        ("entropy", "min",
         young.entropy_mv_residual(V, testfuns.entropy_tests(dim), model, tm)),
        ("ballistic", "min",
         young.ballistic_mv_residual(V, 0.0, ref, model, tm, boundary=sol.boundary)),
        ("velocity_compat", "max_abs",
         young.check_velocity_compat(V, testfuns.tensor_tests(dim))),
        ("temperature_compat", "max_abs", young.check_temperature_compat(
            V, testfuns.flux_tests(dim), ref, boundary=sol.boundary)),
    )
    clauses = {}
    for name, stat, rep in checks:
        value = getattr(rep, stat)
        clauses[name] = {stat: value, "residuals": list(rep.residuals),
                         "ok": value >= -tol if stat == "min" else value <= tol}
    ok = all(entry["ok"] for entry in clauses.values())
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": ok, "tol_h": tol, "cells": _cells(grid), "profile": sol.profile,
        "clauses": clauses,
    })
    worst = [name for name, entry in clauses.items() if not entry["ok"]]
    _status(ok, "mv-check", "all clauses admissible" if ok
            else "violated: " + ", ".join(worst))
    return 0 if ok else 1


# --------------------------------------------------------------------------
# relenergy
# --------------------------------------------------------------------------


def cmd_relenergy(args) -> int:
    cfg, sol, grid = _flow(_config(args, "relenergy"))
    if len(cfg["experiment"]["eps"]) != 1:
        raise configmod.ConfigError("experiment.eps: relenergy runs exactly one "
                                    "perturbation size")
    eps = cfg["experiment"]["eps"][0]
    if not eps > 0.0:
        raise configmod.ConfigError(f"experiment.eps: the perturbation size must be > 0, "
                                    f"got {eps!r}")
    out = _echo(args, cfg, "relenergy")

    model, tm = sol.model, sol.transport_model
    init = experiments.perturbed_state(sol, grid, eps)
    scfg = configmod.build_solver_config(cfg, sol)
    traj = solver.simulate(grid, scfg, model, tm, boundary=sol.boundary,
                           initial=init)
    V = young.dirac_from_trajectory(traj)
    rep = relenergy.rel_energy_inequality_report(V, None, sol, model, tm)

    series: dict[str, np.ndarray] = {
        "t": rep.times, "e_mv": rep.e_mv, "e_ess": rep.e_ess, "e_res": rep.e_res,
    }
    for key, vals in rep.blocks.items():
        series[key] = vals
    series["r2"] = rep.r2_cum
    series["slack"] = rep.slack
    series["fitted_c"] = np.full(len(rep.times), rep.gronwall_c)
    reports.write_series(os.path.join(out, "series.csv"), series)

    tol = cfg["experiment"]["tol_scale"] * max(grid.h)
    slack_min = float(np.min(rep.slack))
    ok = slack_min >= -tol
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": ok, "slack_min": slack_min, "tol_h": tol,
        "gronwall_c": rep.gronwall_c,
        "reduced_c_required": rep.reduced_c_required,
        "e_mv_initial": float(rep.e_mv[0]), "e_mv_final": float(rep.e_mv[-1]),
        "eps": eps, "cells": _cells(grid), "profile": sol.profile,
    })
    _status(ok, "relenergy", f"slack_min = {slack_min:.3e} >= -{tol:.1e}"
            if ok else f"slack_min = {slack_min:.3e} < -{tol:.1e}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# the three studies
# --------------------------------------------------------------------------


def _run_study(args, theorem: str, command: str, run, outputs) -> int:
    """Echo the config, gate it, run ``run(spec)`` and persist the report.

    ``outputs(report)`` gives the CSV series by file name and the status
    detail.  A gate rejection writes only the echo and a rejection verdict.
    """
    cfg = _config(args, theorem)
    out = _echo(args, cfg, command)
    try:
        spec = configmod.build_experiment_spec(cfg, theorem)
    except experiments.HypothesisGateError as err:
        reports.write_verdicts(os.path.join(out, "verdict.json"), {
            "ok": False, "accepted": False, "theorem": err.gate.theorem,
            "reasons": list(err.gate.reasons),
        })
        print(str(err), file=sys.stderr)
        _status(False, command, "hypothesis gate rejected the configuration")
        return 1

    rep = run(spec)
    series, detail = outputs(rep)
    for name, columns in series.items():
        reports.write_series(os.path.join(out, name), columns)
    data = dataclasses.asdict(rep)
    data["accepted"] = rep.gate.accepted
    reports.write_verdicts(os.path.join(out, "verdict.json"), data)
    _status(rep.ok, command, detail)
    return 0 if rep.ok else 1


def cmd_wsu(args) -> int:
    def outputs(rep):
        return {
            "collapse.csv": {
                "cells": np.asarray(rep.dirac_cells, dtype=float),
                "sup_e": np.asarray(rep.dirac_sup),
            },
            "stability.csv": {
                "eps": np.asarray(rep.eps),
                "e0": np.asarray(rep.e0),
                "gronwall_c": np.asarray(rep.gronwall_c),
                "growth_factor": np.asarray(rep.growth_factor),
            },
        }, (f"claim {rep.theorem}: collapse order {rep.dirac_order:.2f}, "
            f"C spread {rep.c_spread:.2%}")

    return _run_study(args, args.theorem, "wsu", experiments.run_theorem, outputs)


def cmd_apriori(args) -> int:
    def outputs(rep):
        series: dict[str, np.ndarray] = {
            "cells": np.asarray(rep.cells, dtype=float),
            "total": np.asarray(rep.totals),
        }
        for key, vals in rep.terms.items():
            series[key] = np.asarray(vals)
        return {"budget.csv": series}, (
            f"total <= {rep.c_theta_b:.4g} on {len(rep.cells)} levels"
            if not rep.needs_recalibration
            else "bound exceeded; recalibration required")

    return _run_study(args, "apriori", "apriori", experiments.run_apriori, outputs)


def cmd_defect_study(args) -> int:
    def outputs(rep):
        return {"smooth-defects.csv": {
            "cells": np.asarray(rep.smooth_cells, dtype=float),
            "d_max": np.asarray(rep.smooth_d),
        }}, f"oscillation gap within {rep.osc_rel_err:.2%} of the period average"

    return _run_study(args, "defect", "defect-study", experiments.run_defect_study,
                      outputs)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


# subcommand -> (runner, help line, the flags of _FLAGS it reads beside --seed)
_COMMANDS = {
    "simulate": (cmd_simulate, "run one flow and persist series + final snapshot",
                 ("profile", "t_end", "cells")),
    "verify-thermo": (cmd_verify_thermo, "structural checks of an equation of state",
                      ("model", "c_v", "a", "kernel", "samples")),
    "mv-check": (cmd_mv_check, "weak-form clause residuals of a point measure",
                 ("profile", "cells", "t_end", "tol_scale")),
    "relenergy": (cmd_relenergy, "relative-energy inequality chain for a perturbed run",
                  ("profile", "cells", "eps", "t_end", "tol_scale")),
    "wsu": (cmd_wsu, "weak-strong collapse and stability study",
            ("eps", "grids", "model", "transport", "beta", "kernel", "a", "c_v", "t_end")),
    "apriori": (cmd_apriori, "energy/entropy budget of a decaying flow",
                ("grids", "theta_scale", "theta_tilt", "c_fixed", "beta", "a", "kernel",
                 "transport", "model", "t_end")),
    "defect-study": (cmd_defect_study, "coarse-graining defects of refinement families",
                     ("grids",)),
}


def _flag_type(section: str, key: str):
    """The argparse type of a flag: the schema's parser of its key."""

    def parse(raw: str):
        try:
            return configmod.parse_value(section, key, raw)
        except configmod.ConfigError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsflab",
        description="Desk-scale studies of compressible heat-conducting flow.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.set_defaults(func=run)
        sp.add_argument("--out", help=f"output root (default: ${OUTPUT_ENV} or ./nsflab-out)")
        sp.add_argument("--config", help="INI configuration file (the flags win over it)")
        if command == "wsu":
            sp.add_argument("--theorem", choices=("1", "2", "3"), required=True)
        for dest in ("seed",) + flags:
            section, key = _FLAGS[dest]
            sp.add_argument("--" + dest.replace("_", "-"), type=_flag_type(section, key),
                            choices=configmod.CHOICES.get((section, key)),
                            help=f"sets [{section}] {key}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except configmod.ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(str(err), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
