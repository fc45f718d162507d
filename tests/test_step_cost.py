"""Exact call counts of a time step, of a streamed relative-energy level,
of the six weak-form clauses of ``mv-check``, of the relative-energy
report of ``relenergy``, and of the small claim and budget studies.

At the study grids a step costs its number of Python and numpy calls, not
its flops, and a wall clock on a shared machine cannot resolve a change of
a few percent.  ``cProfile`` counts every call exactly, so these pins fail
on any added per-step or per-level call.  Each run is profiled the second
time it is made, so the per-grid caches are warm and the counts do not
depend on what ran before.  The calls are summed over the profiler's own
entries, one per function: ``pstats`` keys functions by file, line and
name, so functions that share those (the ``__init__`` that ``dataclasses``
generates for each class) overwrite each other there, and its total would
depend on which of them ran last.  The garbage collector is held off while
a run is profiled: a collection runs every installed gc callback
(hypothesis installs one), so a count would otherwise depend on whether a
collection fell inside the run.  The step counts are pinned too, so that
fewer calls cannot come from fewer steps.  A count that falls is good news:
lower its pin with the change that earned it.
"""

import contextlib
import cProfile
import dataclasses
import gc
import os

import pytest
from test_experiments import _SMALL_APRIORI, _SMALL_STUDIES

from nsflab import grid as gridmod
from nsflab import manufactured as mfg
from nsflab import config, experiments, relenergy, solver, testfuns, thermo, transport, young

# name -> (model, transport, profile, cells, t_end, forced); an unforced run
# starts from the profile's initial state under a constant wall temperature
# of 1, as the a priori budget marches
RUNS = {
    "shear-1d-64": (thermo.PerfectGas(c_v=1.5), transport.AffineTheta(), "shear", (64,), 0.05,
                    True),
    "radiative_decay-2d-16": (thermo.MolecularRadiation(a=1.0), transport.PowerKappa(),
                              "radiative_decay", (16, 16), 0.02, True),
    "radiative_decay-2d-16-unforced": (thermo.MolecularRadiation(a=1.0), transport.PowerKappa(),
                                       "radiative_decay", (16, 16), 0.02, False),
}
# name -> (accepted steps, calls marching with save_every = 1, calls when the
# same march is streamed through rel_energy_series, or None for an unforced run)
PINNED = {
    "shear-1d-64": (435, 128079, 168252),
    "radiative_decay-2d-16": (30, 15094, 18255),
    "radiative_decay-2d-16-unforced": (30, 12242, None),
}


@contextlib.contextmanager
def _collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _count(name, stream):
    model, tm, profile, cells, t_end, forced = RUNS[name]
    for _ in range(2):
        sol = mfg.manufactured(profile, model, tm)
        cfg = solver.SolverConfig(t_end=t_end, source=sol if forced else None, save_every=1)
        boundary, initial = None, None
        if not forced:
            grid = gridmod.Grid(cells=cells)
            boundary = gridmod.constant_boundary(1.0)
            initial = solver.FlowState(grid, *sol.on_grid(grid, 0.0), 0.0)
        prof = cProfile.Profile()
        with _collector_off():
            prof.enable()
            marched = solver.levels(gridmod.Grid(cells=cells), cfg, model, tm,
                                    boundary=boundary, initial=initial)
            if stream:
                n_levels = relenergy.rel_energy_series(marched, sol).times.size
            else:
                n_levels = 0
                for _ in marched:
                    n_levels += 1
            prof.disable()
    return n_levels - 1, sum(entry.callcount for entry in prof.getstats())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_calls_per_step_and_per_level_are_pinned(name):
    steps, marched, streamed = PINNED[name]
    assert _count(name, stream=False) == (steps, marched)
    if streamed is not None:
        assert _count(name, stream=True) == (steps, streamed)


# the six mv-check clauses, each called as mv-check calls it
CLAUSES = {
    "continuity": lambda V, sol: young.continuity_residual(V, testfuns.scalar_tests(1)),
    "momentum": lambda V, sol: young.momentum_residual(
        V, testfuns.velocity_tests(1), sol.model, sol.transport_model),
    "entropy": lambda V, sol: young.entropy_mv_residual(
        V, testfuns.entropy_tests(1), sol.model, sol.transport_model),
    "ballistic": lambda V, sol: young.ballistic_mv_residual(
        V, 0.0, testfuns.theta_ref_from_strong(sol), sol.model, sol.transport_model,
        boundary=sol.boundary),
    "velocity_compat": lambda V, sol: young.check_velocity_compat(V, testfuns.tensor_tests(1)),
    "temperature_compat": lambda V, sol: young.check_temperature_compat(
        V, testfuns.flux_tests(1), testfuns.theta_ref_from_strong(sol), boundary=sol.boundary),
}
# clause -> (calls on the default 1D mv-check measure, 51 levels; calls per
# level more); the same run marched four times as long has 196 levels.  A
# clause that reads no reference temperature makes the same calls on both:
# it samples its test shapes once per grid.  A wall clause grows only by
# evaluating the reference once per level, and the ballistic clause its time
# derivative too.
CLAUSE_CALLS = {
    "ballistic": (5254, 99),
    "continuity": (269, 0),
    "entropy": (319, 0),
    "momentum": (346, 0),
    "temperature_compat": (5110, 94),
    "velocity_compat": (291, 0),
}


@pytest.fixture(scope="module")
def mv_check_measures():
    """The default mv-check measure and the one marched four times as long."""
    out = []
    for scale in (1, 4):
        cfg = config.default_config("mv-check")
        cfg = cfg.replace_value("solver", "t_end", scale * cfg["solver"]["t_end"])
        sol = config.build_source(cfg)
        grid = config.build_grid(cfg, sol.dim)
        init = solver.FlowState(grid, *sol.on_grid(grid, 0.0), 0.0)
        traj = solver.simulate(grid, config.build_solver_config(cfg), sol.model,
                               sol.transport_model, boundary=sol.boundary, initial=init)
        out.append((young.dirac_from_trajectory(traj), sol))
    return out


@pytest.mark.parametrize("name", sorted(CLAUSES))
def test_clause_calls_are_pinned(mv_check_measures, name):
    counts = []
    for V, sol in mv_check_measures:
        for _ in range(2):
            # on a fresh grid, as every run above is: a grid cache then
            # compares it with its equal key whatever ran before
            V = dataclasses.replace(V, grid=gridmod.Grid(cells=V.grid.cells))
            prof = cProfile.Profile()
            with _collector_off():
                prof.enable()
                CLAUSES[name](V, sol)
                prof.disable()
        counts.append((V.n_levels, sum(entry.callcount for entry in prof.getstats())))
    calls, per_level = CLAUSE_CALLS[name]
    assert counts == [(51, calls), (196, calls + 145 * per_level)]


# calls of rel_energy_inequality_report on the default relenergy measure, 221
# levels, and calls per level more on the same run marched four times as
# long, 853 levels
REPORT_CALLS = (85746, 387)


def test_report_calls_are_pinned():
    counts = []
    for scale in (1, 4):
        cfg = config.default_config("relenergy")
        cfg = cfg.replace_value("solver", "t_end", scale * cfg["solver"]["t_end"])
        sol = config.build_source(cfg)
        grid = config.build_grid(cfg, sol.dim)
        traj = solver.simulate(grid, config.build_solver_config(cfg, sol), sol.model,
                               sol.transport_model, boundary=sol.boundary,
                               initial=experiments.perturbed_state(
                                   sol, grid, cfg["experiment"]["eps"][0]))
        V = young.dirac_from_trajectory(traj)
        for _ in range(2):
            V = dataclasses.replace(V, grid=gridmod.Grid(cells=V.grid.cells))
            prof = cProfile.Profile()
            with _collector_off():
                prof.enable()
                relenergy.rel_energy_inequality_report(V, None, sol)
                prof.disable()
        counts.append((V.n_levels, sum(entry.callcount for entry in prof.getstats())))
    calls, per_level = REPORT_CALLS
    assert counts == [(221, calls), (853, calls + 632 * per_level)]


# study -> calls of one small study, every run in one process: the claim
# studies of tests/test_experiments.py and its a priori budget
STUDY_CALLS = {"1": 30484, "2": 21162, "3": 21531, "apriori": 47941}


@pytest.mark.parametrize("study", sorted(STUDY_CALLS))
def test_study_calls_are_pinned(study, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    runner, spec = ((experiments.run_apriori, _SMALL_APRIORI) if study == "apriori"
                    else (experiments.run_theorem, _SMALL_STUDIES[study]))
    for _ in range(2):
        prof = cProfile.Profile()
        with _collector_off():
            prof.enable()
            runner(spec)
            prof.disable()
    assert sum(entry.callcount for entry in prof.getstats()) == STUDY_CALLS[study]
