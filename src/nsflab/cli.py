"""Command-line front end: runs, checks, and studies with persisted reports.

Subcommands: ``simulate``, ``mv-check``, ``relenergy``, ``wsu``, ``apriori``,
``defect-study``, ``verify-thermo``.  Every command builds its config one
way: the command's defaults row, the ``--config`` file over it, and the
flags over both.  A flag and a file key are one setting: each flag of
``_FLAGS`` sets one schema key, parsed and offered the choices of that key
as a file value is, and its help names the key.

Every command then takes one path, :func:`_run`, under ``<out>/<command>/``:
a refused value exits 2 and writes nothing (a study runs the lists its
config gives, so an emptied grid list, eps list or profile is refused); a
hypothesis-gate rejection writes the echo ``config-effective.ini`` and a
rejection ``verdict.json`` and exits 1; a run writes the echo, its CSV
series and ``.npy`` snapshots, and ``verdict.json``, and exits 0 only if
every assertion holds, else 1.  Each command decides its ``ok`` from its
``reports.Bound`` records with ``Bound.judge`` (``mv-check``'s and
``relenergy``'s records are built and judged here, the others where their
values are computed); :func:`_run` writes the records and names the first
failing one.
Re-running with the echo alone repeats the run, and identical (config,
seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as configmod
from . import experiments, relenergy, reports, solver, testfuns, thermo, young

__all__ = ["main", "build_parser", "OUTPUT_ENV"]

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


def _rejected(err: experiments.HypothesisGateError):
    """The run of a configuration the hypothesis gate rejected: its reasons
    on stderr and a rejection verdict."""

    def run():
        print(str(err), file=sys.stderr)
        return [], "hypothesis gate rejected the configuration", {"verdict.json": {
            "ok": False, "accepted": False, "theorem": err.gate.theorem,
            "reasons": list(err.gate.reasons),
        }}
    return run


def _run(args, command: str, row: str, build) -> int:
    """Read the config over defaults ``row``, build, echo, run, write.

    ``build(cfg)`` makes every check and returns the config to echo and a
    ``run()`` that gives ``(Bound records, status detail, files by name)``;
    each file is written by its extension, and the status line is printed
    last, naming the first failing record in place of the detail.  A refused
    value raises ``ConfigError`` before anything is written; a gate rejection
    writes the echo and a rejection verdict.
    """
    cfg = _config(args, row)
    try:
        cfg, run = build(cfg)
    except experiments.HypothesisGateError as err:
        run = _rejected(err)
    out = _echo(args, cfg, command)
    bounds, detail, files = run()
    verdict = files["verdict.json"]
    ok = verdict.get("ok", True)  # simulate checks nothing and writes no ``ok``
    failed = next((b for b in bounds if not b.holds), None)
    verdict["bounds"] = [vars(b) for b in bounds]
    # looked up per call, so a wrapped reports writer is the one called
    writers = {".csv": reports.write_series, ".npy": reports.write_snapshot,
               ".json": reports.write_verdicts}
    for name, data in files.items():
        writers[os.path.splitext(name)[1]](os.path.join(out, name), data)
    print(f"{'PASS' if ok else 'FAIL'}: {command} ({failed or detail})")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# the one-run commands
# --------------------------------------------------------------------------


def _tol(cfg: configmod.RunConfig, grid) -> float:
    """An audit's tolerance: experiment.tol_scale times the widest cell."""
    scale = cfg["experiment"]["tol_scale"]
    if scale < 0.0:
        raise configmod.ConfigError(f"experiment.tol_scale: must be >= 0, got {scale!r}")
    return scale * max(grid.h)


def _simulate(cfg):
    cfg, source, grid = _flow(cfg)
    scfg = configmod.build_solver_config(cfg, source)

    def run():
        traj = solver.simulate(grid, scfg, source.model, source.transport_model,
                               boundary=source.boundary)
        series: dict[str, np.ndarray] = {"t": traj.times}
        conserved = traj.conserved_series()
        for name in ("mass", "kinetic", "internal", "total", "entropy"):
            series[name] = conserved[name]
        axes = "xy"
        for j in range(grid.dim):
            series[f"momentum_{axes[j]}"] = conserved["momentum"][:, j]
        t_final = float(traj.times[-1])
        snapshot = {"rho": traj.rho[-1], "u": traj.u[-1], "theta": traj.theta[-1],
                    "t": np.asarray(t_final)}
        verdict = {"completed": True, "levels": traj.n_levels, "t_final": t_final,
                   "cells": list(grid.cells)}
        return [], f"{traj.n_levels} levels to t = {t_final:g}", {
            "series.csv": series, "final-state.npy": snapshot, "verdict.json": verdict}
    return cfg, run


def _verify_thermo(cfg):
    seed, samples = cfg["run"]["seed"], cfg["run"]["samples"]
    if samples < 2:
        raise configmod.ConfigError("run.samples: the convexity check needs at least 2 "
                                    f"sampled states, got {samples}")
    if seed < 0:
        raise configmod.ConfigError(f"run.seed: must be >= 0, got {seed}")
    model = configmod.build_model(cfg)

    def run():
        rep = thermo.validate_structure(model, n_samples=samples, seed=seed)
        verdict = {
            "ok": rep.ok,
            "model": cfg["model"]["kind"],
            "samples": samples,
            "seed": seed,
            "first_violation": rep.first_violation or "",
            "checks": rep.checks,
        }
        return rep.bounds, "all structure checks hold", {"verdict.json": verdict}
    return cfg, run


def _mv_check(cfg):
    cfg, sol, grid = _flow(cfg)
    scfg = configmod.build_solver_config(cfg)  # unforced: the clauses see the bare flow
    tol = _tol(cfg, grid)

    def run():
        model, tm = sol.model, sol.transport_model
        rho0, u0, th0 = sol.on_grid(grid, 0.0)
        init = solver.FlowState(grid=grid, rho=rho0, u=u0, theta=th0, t=0.0)
        traj = solver.simulate(grid, scfg, model, tm, boundary=sol.boundary,
                               initial=init)
        V = young.dirac_from_trajectory(traj)
        ref = testfuns.theta_ref_from_strong(sol)
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
        bounds = [reports.Bound(f"{name}.{stat}", getattr(rep, stat),
                                *((">=", -tol) if stat == "min" else ("<=", tol)))
                  for name, stat, rep in checks]
        clauses = {name: {stat: bound.value, "residuals": list(rep.residuals), "ok": bound.holds}
                   for (name, stat, rep), bound in zip(checks, bounds)}
        return bounds, "all clauses admissible", {"verdict.json": {
            "ok": reports.Bound.judge(bounds)[0], "tol_h": tol, "cells": _cells(grid),
            "profile": sol.profile, "clauses": clauses,
        }}
    return cfg, run


def _relenergy(cfg):
    cfg, sol, grid = _flow(cfg)
    if len(cfg["experiment"]["eps"]) != 1:
        raise configmod.ConfigError("experiment.eps: relenergy runs exactly one "
                                    "perturbation size")
    eps = cfg["experiment"]["eps"][0]
    if not eps > 0.0:
        raise configmod.ConfigError(f"experiment.eps: the perturbation size must be > 0, "
                                    f"got {eps!r}")
    scfg = configmod.build_solver_config(cfg, sol)
    tol = _tol(cfg, grid)

    def run():
        traj = solver.simulate(grid, scfg, sol.model, sol.transport_model,
                               boundary=sol.boundary,
                               initial=experiments.perturbed_state(sol, grid, eps))
        V = young.dirac_from_trajectory(traj)
        rep = relenergy.rel_energy_inequality_report(V, None, sol)

        series: dict[str, np.ndarray] = {
            "t": rep.times, "e_mv": rep.e_mv, "e_ess": rep.e_ess, "e_res": rep.e_res,
        }
        for key, vals in rep.blocks.items():
            series[key] = vals
        series["r2"] = rep.r2_cum
        series["slack"] = rep.slack
        series["fitted_c"] = np.full(len(rep.times), rep.gronwall_c)

        slack_min = float(np.min(rep.slack))
        bounds = [reports.Bound("slack_min", slack_min, ">=", -tol)]
        verdict = {
            "ok": reports.Bound.judge(bounds)[0], "slack_min": slack_min, "tol_h": tol,
            "gronwall_c": rep.gronwall_c,
            "reduced_c_required": rep.reduced_c_required,
            "e_mv_initial": float(rep.e_mv[0]), "e_mv_final": float(rep.e_mv[-1]),
            "eps": eps, "cells": _cells(grid), "profile": sol.profile,
        }
        return bounds, f"slack_min = {slack_min:.3e} >= -{tol:.1e}", {
            "series.csv": series, "verdict.json": verdict}
    return cfg, run


# --------------------------------------------------------------------------
# the three studies
# --------------------------------------------------------------------------


def _study(claim: str, runner, outputs):
    """The build of a study of ``claim``: the gated spec, and a run of
    ``runner(spec)`` whose report ``outputs`` turns into its CSV series by
    file name and the status detail; the verdict is the whole report, and
    its records are the report's ``bounds``."""

    def build(cfg):
        spec = configmod.build_experiment_spec(cfg, claim)

        def run():
            rep = runner(spec)
            files, detail = outputs(rep)
            verdict = dataclasses.asdict(rep)
            verdict["accepted"] = rep.gate.accepted
            return rep.bounds, detail, {**files, "verdict.json": verdict}
        return cfg, run
    return build


def _wsu_outputs(rep):
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


def _apriori_outputs(rep):
    series: dict[str, np.ndarray] = {
        "cells": np.asarray(rep.cells, dtype=float),
        "total": np.asarray(rep.totals),
    }
    for key, vals in rep.terms.items():
        series[key] = np.asarray(vals)
    return {"budget.csv": series}, f"total <= {rep.c_theta_b:.4g} on {len(rep.cells)} levels"


def _defect_outputs(rep):
    return {"smooth-defects.csv": {
        "cells": np.asarray(rep.smooth_cells, dtype=float),
        "d_max": np.asarray(rep.smooth_d),
    }}, f"oscillation gap within {rep.osc_rel_err:.2%} of the period average"


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


# subcommand -> (build, help line, the flags of _FLAGS it reads beside --seed);
# wsu's build is one per claim of --theorem
_COMMANDS = {
    "simulate": (_simulate, "run one flow and persist series + final snapshot",
                 ("profile", "t_end", "cells")),
    "verify-thermo": (_verify_thermo, "structural checks of an equation of state",
                      ("model", "c_v", "a", "kernel", "samples")),
    "mv-check": (_mv_check, "weak-form clause residuals of a point measure",
                 ("profile", "cells", "t_end", "tol_scale")),
    "relenergy": (_relenergy, "relative-energy inequality chain for a perturbed run",
                  ("profile", "cells", "eps", "t_end", "tol_scale")),
    "wsu": ({claim: _study(claim, experiments.run_theorem, _wsu_outputs)
             for claim in ("1", "2", "3")},
            "weak-strong collapse and stability study",
            ("eps", "grids", "model", "transport", "beta", "kernel", "a", "c_v", "t_end")),
    "apriori": (_study("apriori", experiments.run_apriori, _apriori_outputs),
                "energy/entropy budget of a decaying flow",
                ("grids", "theta_scale", "theta_tilt", "c_fixed", "beta", "a", "kernel",
                 "transport", "model", "t_end")),
    "defect-study": (_study("defect", experiments.run_defect_study, _defect_outputs),
                     "coarse-graining defects of refinement families", ("grids",)),
}
# subcommand -> the defaults row it reads, where that is not its own name;
# wsu reads the row of its --theorem claim
_ROWS = {"defect-study": "defect"}


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
    for command, (_, summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--out", help=f"output root (default: ${OUTPUT_ENV} or ./nsflab-out)")
        sp.add_argument("--config", help="INI configuration file (the flags win over it)")
        if command == "wsu":
            sp.add_argument("--theorem", choices=tuple(_COMMANDS["wsu"][0]), required=True)
        for dest in ("seed",) + flags:
            section, key = _FLAGS[dest]
            choices = configmod.CHOICES.get((section, key))  # shown; parse_value refuses
            sp.add_argument("--" + dest.replace("_", "-"), type=_flag_type(section, key),
                            metavar="{" + ",".join(choices) + "}" if choices else None,
                            help=f"sets [{section}] {key}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    build, _, _ = _COMMANDS[args.command]
    row = _ROWS.get(args.command, args.command)
    if args.command == "wsu":
        row, build = args.theorem, build[args.theorem]
    try:
        return _run(args, args.command, row, build)
    except configmod.ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
