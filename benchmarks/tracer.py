"""Layer spans for one nsflab command, recorded from outside the package.

``install`` wraps the public functions of each nsflab module where their
callers look them up: module attributes (including names bound elsewhere by
``from ... import``), the equation-of-state methods on the model classes,
and the lambdified closures a ``StrongSolution`` keeps in ``_fns``.  Nothing
under ``src/`` changes.

A span is (id, layer, parent id, start, end) and belongs to one command's
trace id.  Spans stay in memory and are written once, by ``Tracer.save``,
when the command returns.  A call into a layer from inside the same layer
(``ThermoModel.eval`` calling ``p``), directly or through another layer,
is folded into the outer span, so ``calls`` and ``time_s`` never count the
same work twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# layer name -> (module, attribute names); every binding of each function in
# the loaded nsflab modules is replaced
FUNCTION_LAYERS = {
    "cli.main": ("nsflab.cli", ("main",)),
    "experiments.run": ("nsflab.experiments",
                        ("run_theorem", "run_apriori", "run_defect_study")),
    "manufactured.build": ("nsflab.manufactured", ("manufactured",)),
    "solver.simulate": ("nsflab.solver", ("simulate",)),
    "solver.step": ("nsflab.solver", ("step",)),
    "solver.rhs": ("nsflab.solver", ("rhs",)),
    "solver.stable_dt": ("nsflab.solver", ("stable_dt",)),
    "thermo.invert_internal_energy": ("nsflab.thermo", ("invert_internal_energy",)),
    "grid.sync_physical": ("nsflab.grid", ("sync_physical",)),
    "grid.operators": ("nsflab.grid",
                       ("gradient", "grad_vector", "divergence", "tensor_divergence")),
    "grid.harmonic_extension": ("nsflab.grid", ("harmonic_extension",)),
    "relenergy.report": ("nsflab.relenergy", ("rel_energy_inequality_report",)),
    "young.dirac_from_trajectory": ("nsflab.young", ("dirac_from_trajectory",)),
    "young.clause.continuity": ("nsflab.young", ("continuity_residual",)),
    "young.clause.momentum": ("nsflab.young", ("momentum_residual",)),
    "young.clause.entropy": ("nsflab.young", ("entropy_mv_residual",)),
    "young.clause.ballistic": ("nsflab.young", ("ballistic_mv_residual",)),
    "young.clause.velocity_compat": ("nsflab.young", ("check_velocity_compat",)),
    "young.clause.temperature_compat": ("nsflab.young", ("check_temperature_compat",)),
    "young.defect_from_refinement": ("nsflab.young", ("defect_from_refinement",)),
    "young.calibrate_kp_constant": ("nsflab.young", ("calibrate_kp_constant",)),
    "reports.write": ("nsflab.reports", ("write_series", "write_verdicts", "write_snapshot")),
}

EOS_METHODS = ("p", "e", "s", "partials", "rho_e", "rho_s", "eval",
               "sound_speed_sq", "theta_from_entropy")
FORCINGS = ("f_mass", "f_mom", "f_energy")


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: Counter = Counter()
        self._open: list[tuple[int, int]] = []
        self._active: list[int] = []
        self._ids = itertools.count()

    def layer(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
            self._active.append(0)
        return self.layers.index(name)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording one span of layer ``name`` per outermost call.

        ``before(args)`` runs on every call, folded or not, before the span
        opens; ``after(args, result)`` runs once a recorded span has closed.
        """
        idx = self.layer(name)
        spans, stack, active, ids = self.spans, self._open, self._active, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if active[idx]:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, idx))
            active[idx] = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                active[idx] = 0
                stack.pop()
                spans.append((sid, idx, parent, start, end))
            if after is not None:
                after(args, out)
            return out

        return traced

    def inside(self, name: str) -> bool:
        """True when the innermost open span belongs to layer ``name``."""
        return bool(self._open) and self.layers[self._open[-1][1]] == name

    def save(self, path: str) -> None:
        """Write spans and counters; the layer table maps span layer indices to names."""
        table = np.array(self.spans, dtype=[("id", "<i8"), ("layer", "<i4"), ("parent", "<i8"),
                                           ("start", "<f8"), ("end", "<f8")])
        np.save(path + ".npy", table)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "layers": self.layers,
                       "counters": dict(self.counters)}, fh, sort_keys=True)


def _rebind(old, new) -> None:
    """Point every name bound to ``old`` in a loaded nsflab module at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "nsflab" or modname.startswith("nsflab."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the nsflab layers in the running interpreter; return the traced ``cli.main``."""
    from nsflab import thermo

    counters = tracer.counters
    hooks = {
        "solver.step": {"before": lambda a: counters.update(
            {"solver.cell_steps": int(np.prod(a[0].grid.cells))})},
        "thermo.invert_internal_energy": {"before": lambda a: counters.update(
            {"thermo.invert_internal_energy.cells": np.broadcast(a[1], a[2]).size})},
        "relenergy.report": {"after": lambda a, rep: counters.update(
            {"relenergy.report.levels": int(a[0].n_levels)})},
        "reports.write": {"after": lambda a, _: counters.update(
            {"reports.write.bytes": os.path.getsize(a[0])})},
        "manufactured.build": {"after": lambda a, sol: _wrap_fns(tracer, sol)},
    }
    for name, (modname, attrs) in FUNCTION_LAYERS.items():
        mod = sys.modules[modname]
        for attr in attrs:
            old = getattr(mod, attr)
            _rebind(old, tracer.wrap(name, old, **hooks.get(name, {})))

    def count_iteration(args):
        # model.partials called straight from the inversion is one Newton or
        # bisection iteration over the whole array
        if tracer.inside("thermo.invert_internal_energy"):
            counters["thermo.invert_internal_energy.iterations"] += 1
            counters["thermo.invert_internal_energy.cells_evaluated"] += (
                np.broadcast(args[1], args[2]).size)

    for cls in (thermo.ThermoModel, thermo.PerfectGas, thermo.MolecularRadiation):
        for meth in EOS_METHODS:
            if meth in vars(cls):
                before = count_iteration if meth == "partials" else None
                setattr(cls, meth, tracer.wrap("thermo.eos", vars(cls)[meth], before=before))
    return sys.modules["nsflab.cli"].main


def _wrap_fns(tracer: Tracer, sol) -> None:
    """Trace the lambdified fields and forcings of a freshly built profile."""
    fns = sol._fns
    for key, fn in list(fns.items()):
        layer = "manufactured.forcing" if key in FORCINGS else "manufactured.field"
        fns[key] = tracer.wrap(layer, fn)


def load(path: str):
    """Read back what ``Tracer.save`` wrote: (layer names, span table, counters)."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return meta["layers"], np.load(path + ".npy"), Counter(meta["counters"])


def layer_totals(layers: list[str], spans: np.ndarray) -> dict[str, dict[str, float]]:
    """Per layer: spans (``calls``), inclusive seconds (``time_s``) and self seconds.

    Self time is a span's duration minus the durations of its direct children.
    """
    dur = spans["end"] - spans["start"]
    order = np.argsort(spans["id"])
    has_parent = spans["parent"] >= 0
    parent_row = order[np.searchsorted(spans["id"], spans["parent"][has_parent], sorter=order)]
    self_time = dur - np.bincount(parent_row, weights=dur[has_parent], minlength=len(spans))
    out = {}
    for idx, name in enumerate(layers):
        mine = spans["layer"] == idx
        out[name] = {"calls": int(np.count_nonzero(mine)), "time_s": float(np.sum(dur[mine])),
                     "self_s": float(np.sum(self_time[mine]))}
    return out
