"""Command-line front end: runs, checks, and studies with persisted reports.

Subcommands: ``simulate``, ``mv-check``, ``relenergy``, ``wsu``, ``apriori``,
``defect-study``, ``verify-thermo``.  Every command writes a JSON verdict
(and, where natural, CSV series and binary snapshots) under
``<out>/<command>/`` and exits 0 only if every assertion holds; assertion
failures exit 1, usage and configuration errors exit 2.  Identical
(config, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

import numpy as np

from . import config as configmod
from . import experiments, relenergy, reports, solver, testfuns, thermo, transport, young
from . import grid as gridmod
from .manufactured import profile_names

__all__ = ["main", "OUTPUT_ENV"]

OUTPUT_ENV = "NSFLAB_OUT"


def _resolve_out(args, command: str) -> str:
    root = args.out or os.environ.get(OUTPUT_ENV) or "nsflab-out"
    path = os.path.join(root, command)
    os.makedirs(path, exist_ok=True)
    return path


def _echo_config(cfg: configmod.RunConfig, out: str) -> None:
    configmod.save_config(cfg, os.path.join(out, "config-effective.ini"))


def _base_config(args) -> configmod.RunConfig:
    """The config file or the defaults, with ``--seed`` applied."""
    cfg = configmod.load_config(args.config) if args.config else configmod.default_config()
    return _apply(cfg, "run", "seed", args.seed)


def _apply(cfg: configmod.RunConfig, section: str, key: str, value):
    return cfg if value is None else cfg.replace_value(section, key, value)


def _status(ok: bool, label: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")


def _asdata(report) -> dict:
    return dataclasses.asdict(report)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _base_config(args)
    cfg = _apply(cfg, "solver", "profile", args.profile)
    cfg = _apply(cfg, "solver", "t_end", args.t_end)
    if args.cells is not None:
        cfg = cfg.replace_value("grid", "cells", tuple(args.cells))
    out = _resolve_out(args, "simulate")
    _echo_config(cfg, out)

    model = configmod.build_model(cfg)
    tm = configmod.build_transport(cfg)
    source = configmod.build_source(cfg)
    grid = configmod.build_grid(cfg)
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
    cfg = _base_config(args)
    cfg = _apply(cfg, "model", "kind", args.model)
    cfg = _apply(cfg, "model", "c_v", args.c_v)
    cfg = _apply(cfg, "model", "a", args.a)
    cfg = _apply(cfg, "model", "kernel", args.kernel)
    out = _resolve_out(args, "verify-thermo")
    _echo_config(cfg, out)

    seed = cfg["run"]["seed"]
    model = configmod.build_model(cfg)
    rep = thermo.validate_structure(model, n_samples=args.samples, seed=seed)
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": rep.ok,
        "model": cfg["model"]["kind"],
        "samples": args.samples,
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
    cfg = _base_config(args)
    cfg = _apply(cfg, "solver", "profile", args.profile)
    cfg = _apply(cfg, "solver", "t_end", args.t_end)
    out = _resolve_out(args, "mv-check")
    sol = configmod.build_source(cfg)
    dim = sol.dim
    cfg = cfg.replace_value("grid", "cells", (args.cells,) * dim)
    _echo_config(cfg, out)

    model = configmod.build_model(cfg)
    tm = configmod.build_transport(cfg)
    grid = gridmod.Grid(cells=(args.cells,) * dim)
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    init = solver.FlowState(grid=grid, rho=rho0, u=u0, theta=th0, t=0.0)
    scfg = configmod.build_solver_config(cfg)
    traj = solver.simulate(grid, scfg, model, tm, boundary=sol.boundary,
                           initial=init)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_ref_from_strong(sol)

    tol = args.tol_scale * max(grid.h)
    cont = young.continuity_residual(V, testfuns.scalar_tests(dim))
    mom = young.momentum_residual(V, testfuns.velocity_tests(dim), model, tm)
    ent = young.entropy_mv_residual(V, testfuns.entropy_tests(dim), model, tm)
    ball = young.ballistic_mv_residual(V, 0.0, ref, model, tm,
                                       boundary=sol.boundary)
    vel = young.check_velocity_compat(V, testfuns.tensor_tests(dim))
    temp = young.check_temperature_compat(V, testfuns.flux_tests(dim), ref,
                                          boundary=sol.boundary)

    clauses = {
        "continuity": {"max_abs": cont.max_abs, "ok": cont.max_abs <= tol,
                       "residuals": list(cont.residuals)},
        "momentum": {"max_abs": mom.max_abs, "ok": mom.max_abs <= tol,
                     "residuals": list(mom.residuals)},
        "entropy": {"min": ent.min, "ok": ent.min >= -tol,
                    "residuals": list(ent.residuals)},
        "ballistic": {"min": ball.min, "ok": ball.min >= -tol,
                      "residuals": list(ball.residuals)},
        "velocity_compat": {"max_abs": vel.max_abs, "ok": vel.max_abs <= tol,
                            "residuals": list(vel.residuals)},
        "temperature_compat": {"max_abs": temp.max_abs,
                               "ok": temp.max_abs <= tol,
                               "residuals": list(temp.residuals)},
    }
    ok = all(entry["ok"] for entry in clauses.values())
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": ok, "tol_h": tol, "cells": args.cells, "profile": sol.profile,
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
    cfg = _base_config(args)
    cfg = _apply(cfg, "solver", "profile", args.profile)
    cfg = _apply(cfg, "solver", "t_end", args.t_end)
    out = _resolve_out(args, "relenergy")
    sol = configmod.build_source(cfg)
    cfg = cfg.replace_value("grid", "cells", (args.cells,) * sol.dim)
    cfg = cfg.replace_value("experiment", "eps", (args.eps,))
    _echo_config(cfg, out)

    model = configmod.build_model(cfg)
    tm = configmod.build_transport(cfg)
    grid = gridmod.Grid(cells=(args.cells,) * sol.dim)
    init = experiments.perturbed_state(sol, grid, args.eps)
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

    tol = args.tol_scale * max(grid.h)
    slack_min = float(np.min(rep.slack))
    ok = slack_min >= -tol
    reports.write_verdicts(os.path.join(out, "verdict.json"), {
        "ok": ok, "slack_min": slack_min, "tol_h": tol,
        "gronwall_c": rep.gronwall_c,
        "reduced_c_required": rep.reduced_c_required,
        "e_mv_initial": float(rep.e_mv[0]), "e_mv_final": float(rep.e_mv[-1]),
        "eps": args.eps, "cells": args.cells, "profile": sol.profile,
    })
    _status(ok, "relenergy", f"slack_min = {slack_min:.3e} >= -{tol:.1e}"
            if ok else f"slack_min = {slack_min:.3e} < -{tol:.1e}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# the three studies
# --------------------------------------------------------------------------


def _experiment_config(args, theorem: str) -> configmod.RunConfig:
    cfg = _base_config(args)
    cfg = _apply(cfg, "model", "kind", getattr(args, "model", None))
    cfg = _apply(cfg, "model", "c_v", getattr(args, "c_v", None))
    cfg = _apply(cfg, "model", "a", getattr(args, "a", None))
    cfg = _apply(cfg, "model", "kernel", getattr(args, "kernel", None))
    cfg = _apply(cfg, "transport", "kind", getattr(args, "transport", None))
    cfg = _apply(cfg, "transport", "beta", getattr(args, "beta", None))
    if getattr(args, "eps", None):
        cfg = cfg.replace_value("experiment", "eps", tuple(args.eps))
    if getattr(args, "grids", None):
        cfg = cfg.replace_value("experiment", "grids", tuple(args.grids))
    cfg = _apply(cfg, "experiment", "theta_scale", getattr(args, "theta_scale", None))
    cfg = _apply(cfg, "experiment", "theta_tilt", getattr(args, "theta_tilt", None))
    cfg = _apply(cfg, "solver", "t_end", getattr(args, "t_end", None))

    # without an explicit config file, pick the natural pairing per claim
    if not args.config:
        if getattr(args, "model", None) is None:
            kind = "molecular_radiation" if theorem in ("3", "apriori") else "perfect_gas"
            cfg = cfg.replace_value("model", "kind", kind)
        if getattr(args, "transport", None) is None:
            kind = "power_kappa" if theorem in ("3", "apriori") else "affine_theta"
            cfg = cfg.replace_value("transport", "kind", kind)
    return cfg


def _gated_spec(cfg: configmod.RunConfig, theorem: str, out: str,
                command: str) -> Optional[experiments.ExperimentSpec]:
    """The study spec, or None once a gate rejection verdict is written."""
    try:
        return configmod.build_experiment_spec(cfg, theorem)
    except experiments.HypothesisGateError as err:
        reports.write_verdicts(os.path.join(out, "verdict.json"), {
            "ok": False, "accepted": False, "theorem": err.gate.theorem,
            "reasons": list(err.gate.reasons),
        })
        print(str(err), file=sys.stderr)
        _status(False, command, "hypothesis gate rejected the configuration")
        return None


def cmd_wsu(args) -> int:
    cfg = _experiment_config(args, args.theorem)
    out = _resolve_out(args, "wsu")
    _echo_config(cfg, out)
    spec = _gated_spec(cfg, args.theorem, out, "wsu")
    if spec is None:
        return 1

    rep = experiments.run_theorem(spec)
    reports.write_series(os.path.join(out, "collapse.csv"), {
        "cells": np.asarray(rep.dirac_cells, dtype=float),
        "sup_e": np.asarray(rep.dirac_sup),
    })
    reports.write_series(os.path.join(out, "stability.csv"), {
        "eps": np.asarray(rep.eps),
        "e0": np.asarray(rep.e0),
        "gronwall_c": np.asarray(rep.gronwall_c),
        "growth_factor": np.asarray(rep.growth_factor),
    })
    data = _asdata(rep)
    data["accepted"] = rep.gate.accepted
    reports.write_verdicts(os.path.join(out, "verdict.json"), data)
    _status(rep.ok, "wsu",
            f"claim {rep.theorem}: collapse order {rep.dirac_order:.2f}, "
            f"C spread {rep.c_spread:.2%}")
    return 0 if rep.ok else 1


def cmd_apriori(args) -> int:
    cfg = _experiment_config(args, "apriori")
    out = _resolve_out(args, "apriori")
    _echo_config(cfg, out)
    spec = _gated_spec(cfg, "apriori", out, "apriori")
    if spec is None:
        return 1

    rep = experiments.run_apriori(spec, c_fixed=args.c_fixed)
    series: dict[str, np.ndarray] = {
        "cells": np.asarray(rep.cells, dtype=float),
        "total": np.asarray(rep.totals),
    }
    for key, vals in rep.terms.items():
        series[key] = np.asarray(vals)
    reports.write_series(os.path.join(out, "budget.csv"), series)
    data = _asdata(rep)
    data["accepted"] = rep.gate.accepted
    reports.write_verdicts(os.path.join(out, "verdict.json"), data)
    detail = (f"total <= {rep.c_theta_b:.4g} on {len(rep.cells)} levels"
              if not rep.needs_recalibration
              else "bound exceeded; recalibration required")
    _status(rep.ok, "apriori", detail)
    return 0 if rep.ok else 1


def cmd_defect_study(args) -> int:
    cfg = _experiment_config(args, "defect")
    out = _resolve_out(args, "defect-study")
    _echo_config(cfg, out)
    spec = _gated_spec(cfg, "defect", out, "defect-study")
    if spec is None:
        return 1

    rep = experiments.run_defect_study(spec)
    reports.write_series(os.path.join(out, "smooth-defects.csv"), {
        "cells": np.asarray(rep.smooth_cells, dtype=float),
        "d_max": np.asarray(rep.smooth_d),
    })
    data = _asdata(rep)
    data["accepted"] = rep.gate.accepted
    reports.write_verdicts(os.path.join(out, "verdict.json"), data)
    _status(rep.ok, "defect-study",
            f"oscillation gap within {rep.osc_rel_err:.2%} of the period average")
    return 0 if rep.ok else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsflab",
        description="Desk-scale studies of compressible heat-conducting flow.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help=f"output root (default: ${OUTPUT_ENV} or ./nsflab-out)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for sampled checks (default: config value)")
    common.add_argument("--config", default=None,
                        help="INI configuration file (defaults otherwise)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", parents=[common],
                        help="run one flow and persist series + final snapshot")
    sp.add_argument("--profile", choices=profile_names(), default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--cells", type=_int_list, default=None,
                    help="comma-separated cell counts per axis")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify-thermo", parents=[common],
                        help="structural checks of an equation of state")
    sp.add_argument("--model", choices=("perfect_gas", "molecular_radiation"),
                    default=None)
    sp.add_argument("--c-v", type=float, default=None, dest="c_v")
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--kernel", choices=("ideal", "degenerate"), default=None)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.set_defaults(func=cmd_verify_thermo)

    sp = sub.add_parser("mv-check", parents=[common],
                        help="weak-form clause residuals of a point measure")
    sp.add_argument("--profile", choices=profile_names(), default=None)
    sp.add_argument("--cells", type=int, default=48)
    sp.add_argument("--t-end", type=float, default=0.02)
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="clause tolerance = tol_scale * h")
    sp.set_defaults(func=cmd_mv_check)

    sp = sub.add_parser("relenergy", parents=[common],
                        help="relative-energy inequality chain for a perturbed run")
    sp.add_argument("--profile", choices=profile_names(), default=None)
    sp.add_argument("--cells", type=int, default=64)
    sp.add_argument("--eps", type=float, default=5e-3)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--tol-scale", type=float, default=1e-3,
                    help="slack tolerance = tol_scale * h")
    sp.set_defaults(func=cmd_relenergy)

    sp = sub.add_parser("wsu", parents=[common],
                        help="weak-strong collapse and stability study")
    sp.add_argument("--theorem", choices=("1", "2", "3"), required=True)
    sp.add_argument("--eps", type=_float_list, default=None,
                    help="comma-separated perturbation sizes")
    sp.add_argument("--grids", type=_int_list, default=None,
                    help="comma-separated cell counts")
    sp.add_argument("--model", choices=("perfect_gas", "molecular_radiation"),
                    default=None)
    sp.add_argument("--transport",
                    choices=("affine_theta", "power_kappa", "bounded_general"),
                    default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--kernel", choices=("ideal", "degenerate"), default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--c-v", type=float, default=None, dest="c_v")
    sp.add_argument("--t-end", type=float, default=None)
    sp.set_defaults(func=cmd_wsu)

    sp = sub.add_parser("apriori", parents=[common],
                        help="energy/entropy budget of a decaying flow")
    sp.add_argument("--grids", type=_int_list, default=None)
    sp.add_argument("--theta-scale", type=float, default=None)
    sp.add_argument("--theta-tilt", type=float, default=None)
    sp.add_argument("--c-fixed", type=float, default=None,
                    help="validate against this constant instead of calibrating")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--kernel", choices=("ideal", "degenerate"), default=None)
    sp.add_argument("--transport",
                    choices=("affine_theta", "power_kappa", "bounded_general"),
                    default=None)
    sp.add_argument("--model", choices=("perfect_gas", "molecular_radiation"),
                    default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.set_defaults(func=cmd_apriori)

    sp = sub.add_parser("defect-study", parents=[common],
                        help="coarse-graining defects of refinement families")
    sp.add_argument("--grids", type=_int_list, default=None)
    sp.set_defaults(func=cmd_defect_study)

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
