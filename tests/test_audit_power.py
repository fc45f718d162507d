"""Audit power: the default one-run audits against deliberately broken solvers.

Each mutant breaks one thing with a monkeypatch:

* ``mass``, ``momentum``, ``energy``: ``solver.rhs`` returns that tendency
  times 0.9, forcing included;
* ``wall``: ``gridmod.sync_physical`` embeds the wall temperature
  ``theta_B + 0.2`` in the temperature ghosts, and nowhere else.

Every (mutant, audit) pair runs the default ``mv-check`` or ``relenergy`` on
the broken solver and expects it to exit 1.  At the defaults only
``relenergy`` rejects a mutant, the wall one (its ``slack_min`` is about
-6.7e-3 against a tolerance of 1.6e-5).  The seven pairs that pass a broken
solver are strict xfails, each naming the audit that should own its mutant;
when an audit learns to reject one, its xfail turns into a failure and is
removed.
"""

import json

import pytest

from nsflab import cli, solver
from nsflab import grid as gridmod


def _scaled_tendency(rows):
    """``solver.rhs`` with the ``rows`` of its tendency stack (0 mass,
    1 energy, 2 and up momentum) times 0.9."""
    rhs = solver.rhs

    def mutant(*args, **kwargs):
        tendency, conserved = rhs(*args, **kwargs)
        tendency[rows] = 0.9 * tendency[rows]
        return tendency, conserved
    return solver, "rhs", mutant


def _hot_wall():
    """``gridmod.sync_physical`` with the wall temperature raised by 0.2."""
    sync = gridmod.sync_physical

    def mutant(grid, rho, u, theta, boundary, t):
        hot = gridmod.BoundaryData(theta=lambda s, pts: boundary.theta(s, pts) + 0.2)
        return sync(grid, rho, u, theta, hot, t)
    return gridmod, "sync_physical", mutant


MUTANTS = {"mass": lambda: _scaled_tendency(0),
           "momentum": lambda: _scaled_tendency(slice(2, None)),
           "energy": lambda: _scaled_tendency(1), "wall": _hot_wall}
# mutant -> the audit that should reject it
OWNERS = {"mass": "mv-check's continuity clause", "momentum": "mv-check's momentum clause",
          "energy": "mv-check's entropy clause", "wall": "relenergy"}
REJECTED_TODAY = {("wall", "relenergy")}


def _pairs():
    for mutant in MUTANTS:
        for audit in ("mv-check", "relenergy"):
            marks = () if (mutant, audit) in REJECTED_TODAY else pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason=f"{OWNERS[mutant]} should reject the {mutant} "
                       f"mutant; the default {audit} passes it")
            yield pytest.param(mutant, audit, marks=marks, id=f"{mutant}-{audit}")


@pytest.mark.parametrize("mutant, audit", _pairs())
def test_default_audit_rejects_a_broken_solver(tmp_path, capsys, monkeypatch, mutant, audit):
    monkeypatch.setattr(*MUTANTS[mutant]())
    code = cli.main([audit, "--out", str(tmp_path)])
    capsys.readouterr()
    with open(tmp_path / audit / "verdict.json", encoding="utf-8") as fh:
        verdict = json.load(fh)
    assert code == 1 and not verdict["ok"], f"{audit} passed the {mutant} mutant"
