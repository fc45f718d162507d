"""Hypothesis gates and the three standing numerical studies.

The gate decides, per claim, whether a model/transport pairing satisfies the
structural hypotheses that make the claim provable; runs behind a rejected
gate never start.  Three runners sit on top:

* :func:`run_theorem` — weak-strong collapse and stability: a measure built
  from data shared with a smooth comparison flow must keep zero relative
  energy (up to discretization, vanishing at first order), and a perturbed
  run must stay inside a Gronwall envelope with a fitted constant that is
  stable under shrinking perturbation size.
* :func:`run_apriori` — the energy/entropy budget of a decaying flow:
  calibrate the bound once, then check every refinement (or a rescaled
  boundary temperature) against the calibrated constant.
* :func:`run_defect_study` — coarse-graining diagnostics: smooth families
  produce vanishing dissipation defects, an oscillatory velocity produces
  the period-averaged kinetic gap, and the entropy observable shows no
  concentration.

Each runner's simulations are independent of one another, so they are spread
over one process per CPU in the affinity mask (:func:`_run_tasks`), and their
results are combined in the serial order: every report is bit-identical to a
run in one process.  Within a process each run is read one saved level at a
time, so at most two consecutive levels are alive per process.  Every study
reads its runs the same way: each level gives one row of scalars, and the
study reduces the rows once, after the run, to the report's ``bounds``:
the ``reports.Bound`` records that ``Bound.judge`` turns into its ``ok``, and
off which every flag it keeps is read.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from . import grid as gridmod
from . import relenergy, solver, testfuns, thermo, transport, young
from .manufactured import StrongSolution, grid_points, manufactured
from .reports import Bound

__all__ = [
    "GateResult",
    "HypothesisGateError",
    "check_hypotheses",
    "ExperimentSpec",
    "TheoremReport",
    "AprioriReport",
    "DefectStudyReport",
    "perturbed_state",
    "claim_runs",
    "run_theorem",
    "run_apriori",
    "run_defect_study",
    "THEOREM_IDS",
    "ClaimDefaults",
    "CLAIM_DEFAULTS",
]


@dataclass(frozen=True)
class ClaimDefaults:
    """What a claim's study runs when its command and config name nothing
    else: the model and transport kinds (``[model] kind`` and ``[transport]
    kind``), the comparison profile, the grid ladder and the perturbation
    sizes."""

    model: str
    transport: str
    profile: str
    grids: tuple[int, ...]
    eps: tuple[float, ...] = ()


# Perturbation sizes default to a decade whose energies sit well above the
# finest grid's collapse floor, so the fitted growth constant reads the flow
# and not the discretization error.  The apriori and defect studies perturb
# nothing, so their default is ().
CLAIM_DEFAULTS = {
    "1": ClaimDefaults("perfect_gas", "affine_theta", "shear", (32, 64), (1e-2, 1e-3)),
    "2": ClaimDefaults("perfect_gas", "affine_theta", "conduction", (32, 64),
                       (1e-2, 1e-3)),
    "3": ClaimDefaults("molecular_radiation", "power_kappa", "radiative_decay",
                       (16, 32), (1e-1, 1e-2)),
    "apriori": ClaimDefaults("molecular_radiation", "power_kappa", "radiative_decay",
                             (8, 16, 32)),
    "defect": ClaimDefaults("perfect_gas", "affine_theta", "shear", (64, 128)),
}

THEOREM_IDS = tuple(CLAIM_DEFAULTS)

# fixed thresholds of the studies, listed in ExperimentSpec's docstring
_DIRAC_ORDER_MIN = 1.0
_ENVELOPE_FACTOR = 1.2
_GRONWALL_BAND = 0.2
_GRID_BAND = 0.3
_STATE_WINDOW = (0.25, 4.0, 0.25, 4.0)
_ENTROPY_CAP = 10.0
_E1_CAP = 4.0
_E2_CAP = 5.0
_ENTROPY_Q = 2.0
_CALIBRATION_SAFETY = 1.1
_OSC_EPS = 5e-3


# --------------------------------------------------------------------------
# hypothesis gate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GateResult:
    """Outcome of the structural-hypothesis check for one claim."""

    theorem: str
    accepted: bool
    reasons: tuple[str, ...] = ()


class HypothesisGateError(ValueError):
    """A model/transport pairing fails the hypotheses of the requested claim."""

    def __init__(self, gate: GateResult):
        self.gate = gate
        super().__init__(
            f"hypotheses for claim {gate.theorem!r} rejected: "
            + "; ".join(gate.reasons))


def check_hypotheses(theorem: str, model: thermo.ThermoModel,
                     transport_model: transport.TransportModel) -> GateResult:
    """Decide whether ``(model, transport_model)`` supports the claim.

    The check is structural, not numerical: it inspects the functional form
    of the pressure, the entropy kernel, and the temperature growth of the
    transport coefficients.  Every rejection carries the mathematical step
    that breaks.
    """

    theorem = str(theorem)
    if theorem not in THEOREM_IDS:
        raise ValueError(
            f"unknown claim id {theorem!r}; pick one of {THEOREM_IDS}")

    reasons: list[str] = []
    enveloped = isinstance(transport_model, transport.BoundedGeneral)
    if enveloped:
        reasons.append(
            "the transport selection only declares envelope bounds; running a "
            "flow and evaluating its dissipation needs a concrete coefficient "
            "law")

    if theorem == "2":
        if not isinstance(model, thermo.PerfectGas):
            reasons.append(
                "conditional uniqueness rests on the linear pressure "
                "p = rho*theta, which turns an entropy ceiling s <= s_bar into "
                "the control theta**c_v <= exp(s_bar)*rho; the selected "
                "equation of state does not have that form")
        if not enveloped and not isinstance(transport_model, transport.AffineTheta):
            reasons.append(
                "the absorption step pairs every coupling term against "
                "quadratic dissipation weighted by 1 + theta, so mu, lambda "
                "and kappa must all be affine in temperature with that common "
                "growth")
    elif theorem == "3":
        if not isinstance(model, thermo.MolecularRadiation):
            reasons.append(
                "unconditional uniqueness leans on the quadratic radiation "
                "pressure a*theta**2 to control the residual temperature "
                "tail; the selected equation of state has no radiation "
                "component")
        elif not model.kernel.third_law:
            reasons.append(
                "the pressure kernel's entropy does not vanish at large "
                "degeneracy, so rho*|s_M|**2 cannot be dominated by "
                "1 + rho + rho*e_M on the residual set; pick a kernel whose "
                "entropy obeys the third law")
        if isinstance(transport_model, transport.PowerKappa):
            if transport_model.beta > 2.0:
                reasons.append(
                    "the residual heat coupling grows like theta**beta while "
                    "the radiation energy a*theta**2 absorbs at most "
                    f"quadratic growth; beta = {transport_model.beta:g} > 2 "
                    "leaves the coupling uncontrolled")
        elif not enveloped and not isinstance(transport_model, transport.AffineTheta):
            reasons.append(
                "the uniqueness argument needs viscosities affine in "
                "temperature and a conductivity growing no faster than "
                "theta**2")
    elif theorem == "apriori":
        if not isinstance(model, thermo.MolecularRadiation):
            reasons.append(
                "the energy budget splits the state into molecular and "
                "radiation parts and uses a*theta**2 for the temperature "
                "moments; the selected equation of state has no radiation "
                "component")
        elif not model.kernel.third_law:
            reasons.append(
                "the entropy-moment bound needs a kernel entropy vanishing at "
                "large degeneracy (third law)")
        if not enveloped and not isinstance(transport_model, transport.PowerKappa):
            reasons.append(
                "the conduction budget needs kappa bounded below by a "
                "multiple of 1 + theta**beta with beta >= 2; an "
                "affine-in-temperature conductivity grows too slowly")
        elif isinstance(transport_model, transport.PowerKappa):
            if transport_model.beta < 2.0:
                reasons.append(
                    "the conduction block integrates "
                    "(1/theta**2 + theta**(beta-2))|grad theta|**2, which "
                    "requires at least quadratic conductivity growth; "
                    f"beta = {transport_model.beta:g} < 2 is too slow")
            if transport_model.mu1 == 0.0:
                reasons.append(
                    "the two-sided viscosity envelope mu_lo*(1+theta) <= mu "
                    "needs a positive temperature slope (mu1 > 0)")
            if transport_model.kappa2 == 0.0:
                reasons.append(
                    "the lower conduction envelope kappa_lo*(1+theta**beta) "
                    "<= kappa needs the theta**beta part (kappa2 > 0)")
    # claims "1" and "defect" accept any shipped equation of state paired
    # with any concrete coefficient law: their hypotheses are bounds on the
    # state and on the data, checked at run time.

    return GateResult(theorem=theorem, accepted=not reasons,
                      reasons=tuple(reasons))


# --------------------------------------------------------------------------
# experiment specification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One gated study: which claim, which models, which resolutions.

    Construction runs the hypothesis gate once and raises
    :class:`HypothesisGateError` on rejection, so a spec that exists is a
    spec that may run; ``gate`` keeps the accepting result.  ``profile``,
    ``grids`` and ``eps_list`` left as None take the claim's row of
    :data:`CLAIM_DEFAULTS`.  Construction raises a ``ValueError`` whose
    message starts with the field at fault ("grids: ", "eps: ") on
    grids that are not strictly increasing counts >= 4, a perturbation size
    <= 0 or one listed twice, for claims "1"–"3" on fewer than two
    perturbation sizes, for every claim but "apriori" given ``c_fixed`` on
    fewer than two grids, for claim "defect" on a grid that is not a
    multiple of 4 >= 16, so no run starts for a ladder the verdicts cannot
    read, and on a ``theta_scale`` <= 0 or a ``theta_tilt`` outside [0, 1].
    ``solver`` is the template of every run's solver configuration; the
    runners set its ``source``.  The a priori budget alone reads
    ``c_fixed``: the constant its totals are checked against (None calibrates).

    The studies judge their runs against fixed thresholds (module constants);
    the first eight are the bounds of claim reports' ``Bound`` records, and
    ``_CALIBRATION_SAFETY`` sets the bound of the a priori ``total`` record:

    * ``_DIRAC_ORDER_MIN = 1``: the collapse error of the shared-data runs
      vanishes at first order or better in h.
    * ``_ENVELOPE_FACTOR = 1.2``: a perturbed run's relative energy stays
      below this multiple of its fitted envelope exp(C t) E(0).
    * ``_GRONWALL_BAND = 0.2`` and ``_GRID_BAND = 0.3``: the largest relative
      spread of the fitted constant across perturbation sizes and across one
      grid refinement.  These two and the envelope factor are the bounds
      that acceptance criterion 8 pins.
    * ``_STATE_WINDOW = (0.25, 4, 0.25, 4)``: the density and temperature
      range that claim "1" runs must stay in.
    * ``_ENTROPY_CAP = 10``: the entropy ceiling of claim "2".
    * ``_E1_CAP = 4`` and ``_E2_CAP = 5``: caps of the sampled radiation-flux
      absorption ratio and kernel entropy quotient of claim "3"; 5 separates
      the third-law kernel from the ideal one.
    * ``_ENTROPY_Q = 2``: the exponent of the entropy moment in the a priori
      budget.
    * ``_CALIBRATION_SAFETY = 1.1``: the factor on the coarsest budget total
      that calibrates the a priori bound.
    * ``_OSC_EPS = 5e-3``: the scale eps of the oscillatory velocity
      sin(x/eps) sin(pi x) in the defect study.
    """

    theorem: str
    model: thermo.ThermoModel
    transport_model: transport.TransportModel
    profile: Optional[str] = None
    grids: Optional[tuple[int, ...]] = None
    eps_list: Optional[tuple[float, ...]] = None
    solver: solver.SolverConfig = solver.SolverConfig(t_end=0.05, save_every=2)
    theta_scale: float = 1.0
    theta_tilt: float = 0.2
    c_fixed: Optional[float] = None

    gate: GateResult = field(init=False)

    def __post_init__(self):
        theorem = str(self.theorem)
        object.__setattr__(self, "theorem", theorem)
        gate = check_hypotheses(theorem, self.model, self.transport_model)
        if not gate.accepted:
            raise HypothesisGateError(gate)
        object.__setattr__(self, "gate", gate)
        defaults = CLAIM_DEFAULTS[theorem]
        if self.profile is None:
            object.__setattr__(self, "profile", defaults.profile)
        grids = tuple(int(n) for n in (self.grids if self.grids is not None
                                       else defaults.grids))
        if len(grids) < 1 or any(n < 4 for n in grids):
            raise ValueError("grids: must list cell counts >= 4")
        if list(grids) != sorted(grids) or len(set(grids)) != len(grids):
            raise ValueError("grids: must be strictly increasing cell counts")
        if theorem == "defect" and any(n < 16 or n % 4 for n in grids):
            raise ValueError("grids: the defect study coarse-grains each grid onto a quarter "
                            "of its cells, at least 4, so it needs multiples of 4 that are >= 16")
        ladder = {"defect": "its smooth defects must shrink along the ladder",
                  "apriori": "a budget constant calibrated on one grid checks its total "
                             "against itself, so one grid needs a c_fixed"}.get(
            theorem, "its collapse order is fitted across the ladder and its growth "
                     "constant is cross-checked on the next-coarser grid")
        if len(grids) < 2 and (theorem != "apriori" or self.c_fixed is None):
            raise ValueError(f"grids: claim {theorem!r} needs at least two grids: {ladder}")
        object.__setattr__(self, "grids", grids)
        eps = tuple(float(e) for e in (self.eps_list if self.eps_list is not None
                                       else defaults.eps))
        if any(e <= 0.0 for e in eps):
            raise ValueError("eps: perturbation sizes must be > 0")
        if len(set(eps)) != len(eps):
            raise ValueError("eps: a repeated perturbation size compares a run with itself")
        if theorem in ("1", "2", "3"):
            if len(eps) < 2:
                raise ValueError(
                    f"eps: claim {theorem!r} needs at least two perturbation sizes: "
                    "its stability verdict compares the growth constants fitted per size")
        object.__setattr__(self, "eps_list", eps)
        if not (self.theta_scale > 0.0):
            raise ValueError("theta_scale: boundary temperature scale must be > 0")
        if not (0.0 <= self.theta_tilt <= 1.0):
            raise ValueError("theta_tilt: boundary temperature tilt must lie in [0, 1]")
        if self.c_fixed is not None and not self.c_fixed > 0.0:
            raise ValueError("c_fixed: must be > 0")


def _serve(run, share: list, fd: int) -> None:
    """Body of a forked process: run ``share`` in order, send each outcome
    ``(ok, result or exception)`` down ``fd`` as it comes, stop at the first
    failure, and leave by ``os._exit`` so no exit handler of the parent runs
    twice."""

    code = 1
    try:
        with os.fdopen(fd, "wb") as out:
            for task in share:
                try:
                    outcome = (True, run(task))
                except Exception as err:
                    outcome = (False, err)
                out.write(pickle.dumps(outcome))
                out.flush()
                if not outcome[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _run_tasks(run, tasks: Iterable) -> list:
    """``[run(task) for task in tasks]``, spread over k processes: one per
    CPU in the affinity mask, at most one per task, and one where the
    platform cannot fork or report the mask.

    Process j runs tasks j, j + k, j + 2k, ... in order.  The calling
    process is j = 0; the others are forked and send their pickled outcomes
    back over a pipe, read whole before they are reaped.  The split depends
    on the task list alone, so the calling process repeats the same work on
    every run.  The earliest failing task's exception is
    raised, as the serial loop would raise it; a forked process that dies
    before sending a result raises a ``RuntimeError`` naming its exit status.
    When the calling process's own task fails, each forked process is read
    only until none of its remaining tasks comes earlier, then killed; no
    process outlives the call.

    Forking, not spawning: a forked process inherits the built comparison
    flow and every module as the caller has it, so nothing is imported,
    rebuilt or sent on the way in, and only the small results cross a pipe.
    The one thread pool numpy starts, OpenBLAS's, is shut down at a fork.
    """

    tasks = list(tasks)
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = max(1, min(len(tasks), len(os.sched_getaffinity(0))))
    if k == 1:
        return [run(task) for task in tasks]
    import signal  # loaded only where processes are forked

    outcomes: dict[int, tuple] = {}
    workers: list[tuple[int, int, object]] = []
    statuses: dict[int, int] = {}
    stop = len(tasks)
    bailing = True
    try:
        for j in range(1, k):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _serve(run, tasks[j::k], write_fd)
            os.close(write_fd)
            workers.append((j, pid, os.fdopen(read_fd, "rb")))
        for i in range(0, len(tasks), k):
            try:
                outcomes[i] = (True, run(tasks[i]))
            except Exception as err:
                outcomes[i] = (False, err)
                stop = i
                break
        # a forked process's tasks past ``stop`` cannot fail first
        for j, pid, stream in workers:
            for i in range(j, stop, k):
                try:
                    outcomes[i] = pickle.load(stream)
                except (EOFError, pickle.UnpicklingError):  # the process died
                    break
                if not outcomes[i][0]:
                    break
        bailing = stop < len(tasks)
    finally:
        for j, pid, stream in workers:
            if bailing:
                os.kill(pid, signal.SIGKILL)
            stream.close()
            statuses[j] = os.waitpid(pid, 0)[1]
    for j, status in statuses.items():
        share = range(j, stop, k)
        missing = [i for i in share if i not in outcomes]
        if missing and all(outcomes[i][0] for i in share if i in outcomes):
            code = os.waitstatus_to_exitcode(status)
            how = (f"exit status {code}" if code >= 0
                   else f"killed by signal {signal.Signals(-code).name}")
            outcomes[missing[0]] = (False, RuntimeError(
                f"the process running study task {missing[0]} ended without "
                f"its result: {how}"))
    failed = [i for i in sorted(outcomes) if not outcomes[i][0]]
    if failed:
        raise outcomes[failed[0]][1]
    return [outcomes[i][1] for i in range(len(tasks))]


def _fit_order(h: np.ndarray, sup: np.ndarray) -> float:
    """Least-squares slope of log(sup) against log(h) over two or more grids
    (the spec refuses fewer), the closed-form ``relenergy.fit_slope``
    sum(dlog h * dlog sup) / sum(dlog h**2), centred; ``inf`` when the error is zero."""

    sup = np.asarray(sup, dtype=float)
    if np.all(sup <= 1e-13):
        return math.inf
    if np.any(sup <= 0.0):
        return math.inf if sup[-1] <= 0.0 else 0.0
    return relenergy.fit_slope(np.log(h), np.log(sup))


# --------------------------------------------------------------------------
# claim-specific sampled bounds
# --------------------------------------------------------------------------


def _sweep_max(f, x: np.ndarray, y: np.ndarray, rows: int = 32) -> float:
    """Max of ``f`` over the ``ij`` mesh of ``x`` and ``y``, ``rows`` values
    of ``x`` at a time: each element is computed as on the whole mesh, so
    the maximum keeps its bits while the mesh is never built in full."""

    return float(np.max([np.max(f(*np.meshgrid(x[i:i + rows], y, indexing="ij")))
                         for i in range(0, len(x), rows)]))


def _radiation_flux_ratio(a: float, u_ref_mag: float) -> float:
    """Max of 2a*theta*|u| / (theta**2/4 + |u - u_ref|**2 + 2a*theta).

    The numerator is the radiation entropy flux density rho*s_R*|u|; the
    denominator is the quadratic envelope it must be absorbed into (Cauchy
    split with unit weight plus the flux's own carrier).  The maximum over a
    wide state sweep (|u| <= 5) realizes the constant C(u_ref).
    """

    def quotient(th, uu):
        num = 2.0 * a * th * np.abs(uu)
        den = 0.25 * th * th + (uu - u_ref_mag) ** 2 + 2.0 * a * th
        return num / den

    return _sweep_max(quotient, np.geomspace(1e-6, 1e6, 601), np.linspace(-5.0, 5.0, 241))


def _kernel_entropy_quotient(model: thermo.MolecularRadiation) -> float:
    """Max of rho*s_M**2 / (1 + rho + rho*e_M) over a wide state sweep.

    Bounded only when the kernel entropy vanishes at large degeneracy; a
    logarithmically divergent kernel makes this quotient grow without bound
    along rho -> inf, theta -> 0.
    """

    def quotient(r, th):
        q = r * th ** -1.5
        s_m = model.kernel.s(q)
        rho_e_m = 1.5 * th ** 2.5 * model.kernel.p(q)
        return r * s_m ** 2 / (1.0 + r + rho_e_m)

    return _sweep_max(quotient, np.geomspace(1e-4, 1e4, 401), np.geomspace(1e-4, 1e4, 401))


def _velocity_control_terms(state: solver.FlowState,
                            sol: StrongSolution) -> tuple[float, float, float]:
    """Claim 3 at one level: its time, integral|u-u_ref|**2 and
    integral|D0 gap|**2, the numerator and denominator of the
    velocity-control quotient."""

    g = state.grid
    pts = grid_points(g)
    t = float(state.t)
    du = state.u - sol.u(t, pts)
    f = gridmod.sync_odd(gridmod.Field.from_interior(g, state.u))
    d0 = transport.traceless_sym(gridmod.gradient(f))
    d0_ref = transport.traceless_sym(sol.grad_u(t, pts))
    return (t, gridmod.integrate(g, np.sum(du * du, axis=-1)),
            gridmod.integrate(g, np.sum((d0 - d0_ref) ** 2, axis=(-2, -1))))


# --------------------------------------------------------------------------
# weak-strong collapse and stability
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Collapse-and-stability evidence for one uniqueness claim."""

    theorem: str
    gate: GateResult
    profile: str
    dirac_cells: tuple[int, ...]
    dirac_sup: tuple[float, ...]
    dirac_order: float
    eps: tuple[float, ...]
    e0: tuple[float, ...]
    gronwall_c: tuple[float, ...]
    growth_factor: tuple[float, ...]
    c_spread: float
    c_grid_spread: float
    hypothesis_checks: dict[str, float]
    bounds: tuple[Bound, ...]
    ok: bool


def perturbed_state(sol: StrongSolution, grid: gridmod.Grid,
                    eps: float) -> solver.FlowState:
    """The strong solution at t = 0 plus ``eps`` times sine bumps that vanish
    on the boundary: sin(2 pi x) on rho, sin(pi x) on u and theta (products
    over the axes in 2D, where u_y gets -1/2 times the u_x bump)."""
    pts = grid_points(grid)
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    bump_rho = np.multiply.reduce(np.sin(2.0 * np.pi * pts), axis=-1)
    bump = np.multiply.reduce(np.sin(np.pi * pts), axis=-1)
    du = bump[..., None] * (1.0, -0.5)[:grid.dim]
    return solver.FlowState(grid=grid, rho=rho0 + eps * bump_rho,
                            u=u0 + eps * du, theta=th0 + eps * bump, t=0.0)


def claim_runs(spec: ExperimentSpec) -> list[tuple[int, Optional[float]]]:
    """The runs ``(cells per axis, eps or None)`` of :func:`run_theorem`: the collapse
    ladder, each eps on the finest grid, and the largest on the next-coarser one."""
    grids, sizes = spec.grids, spec.eps_list
    return ([(n, None) for n in grids] + [(grids[-1], eps) for eps in sizes]
            + [(grids[-2], max(sizes))])


def run_theorem(spec: ExperimentSpec) -> TheoremReport:
    """Run the collapse-and-stability study for claims "1", "2" or "3".

    Exact shared data across the grid ladder must keep the measure-valued
    relative energy at discretization level only (first-order vanishing or
    better); perturbed data of size ``eps`` must stay inside
    ``exp(C t) * E(0)`` times the envelope factor, with the fitted constant
    stable across the listed perturbation sizes and across one grid
    refinement.  The runs are independent and spread over processes by
    :func:`_run_tasks`.  Each run is read one saved level at a time as the
    solver makes it, so at most two consecutive levels are alive per
    process.  A run's task carries the claim's reader for that run, or
    None: claim "1" reads its state window and max |s| on every run, claim
    "2" max |s| on every run and its two chain quotients on the first exact
    run, and claim "3" its velocity-control terms on the first perturbed
    run.  A reader turns each level into one row of scalars, and the rows
    are reduced once, after the runs.
    """

    if spec.theorem not in ("1", "2", "3"):
        raise ValueError(
            "run_theorem handles claims '1', '2' and '3'; use run_apriori or "
            "run_defect_study for the budget and coarse-graining studies")
    gate = spec.gate
    profile = spec.profile
    sol = manufactured(profile, spec.model, spec.transport_model)
    dim = sol.dim
    model = spec.model

    def run(task):
        """Solve one task ``(n, eps, read)``: n cells from the strong data
        (``perturbed_state`` when ``eps`` is given).  ``read``, when given,
        turns each level into one row of the claim's scalars as the solver
        yields it.  Return the run's summary of its relative-energy series
        against ``sol`` (the sup for a collapse run; E(0), the fitted
        constant and the envelope growth for a perturbed one) and its rows."""
        n, eps, read = task
        grid = gridmod.Grid(cells=(n,) * dim)
        rows: list[tuple[float, ...]] = []

        def reading(states):
            for state in states:
                rows.append(read(state, sol))
                yield state

        # the initial state goes straight to the solver, so no level is held
        # here while the run marches on
        states = solver.levels(grid, replace(spec.solver, source=sol), model,
                               spec.transport_model, boundary=sol.boundary,
                               initial=None if eps is None
                               else perturbed_state(sol, grid, eps))
        rep = relenergy.rel_energy_series(states if read is None else reading(states), sol)
        if eps is None:
            return float(np.max(rep.e_mv)), rows
        if rep.times.size < 3:  # a line through two points fits any rate
            raise ValueError(f"t_end: the perturbed run on {grid.cells} cells with eps = "
                             f"{eps!r} saved {rep.times.size} levels, fewer than 3")
        start = float(rep.e_mv[0])
        if start <= 0.0:
            raise RuntimeError(
                "perturbed run produced zero initial relative energy; the "
                "perturbation did not register")
        c_fit = float(rep.gronwall_c)
        envelope = start * np.exp(c_fit * rep.times)
        return (start, c_fit, float(np.max(rep.e_mv / envelope))), rows

    def s_max(state, sol):
        """Claim 2 at one level: max |s|."""
        return (float(np.max(np.abs(model.partials(state.rho, state.theta, ("s",))["s"]))),)

    def window(state, sol):
        """Claim 1 at one level: the rho and theta ranges and max |s|."""
        rho, theta = state.rho, state.theta
        s_abs = np.abs(model.partials(rho, theta, ("s",))["s"])
        return (float(np.min(rho)), float(np.max(rho)), float(np.min(theta)),
                float(np.max(theta)), float(np.max(s_abs)))

    def chain(state, sol):
        """Claim 2 at one level of its first run: max |s| and the two
        quotients of the temperature and pressure chains."""
        rho, theta = state.rho, state.theta
        eos = model.partials(rho, theta, ("s", "e", "p"))
        s_abs = np.abs(eos["s"])
        return (float(np.max(s_abs)),
                float(np.max(theta ** model.c_v / (rho * np.exp(_ENTROPY_CAP)))),
                float(np.max(np.abs(eos["p"]) / (1.0 + rho * eos["e"] + rho * s_abs))))

    n_collapse = len(spec.grids)
    runs = claim_runs(spec)
    idx = spec.eps_list.index(runs[-1][1])  # the size the cross-check repeats
    if spec.theorem == "1":
        reads = [window] * len(runs)
    elif spec.theorem == "2":
        reads = [chain] + [s_max] * (len(runs) - 1)
    else:
        reads = [None] * len(runs)
        reads[n_collapse] = _velocity_control_terms
    summaries, rows = zip(*_run_tasks(run, [(n, eps, read) for (n, eps), read
                                             in zip(runs, reads)]))

    sup_e = summaries[:n_collapse]
    hs = [max(gridmod.Grid(cells=(n,) * dim).h) for n in spec.grids]
    order = _fit_order(np.asarray(hs), np.asarray(sup_e))

    fine = gridmod.Grid(cells=(spec.grids[-1],) * dim)
    e0, cs, growth = zip(*summaries[n_collapse:-1])
    scale = float(np.max(np.abs(cs)))
    c_spread = 0.0 if scale == 0.0 else float(np.ptp(cs)) / scale

    c_coarse = summaries[-1][1]
    denom = max(abs(cs[idx]), abs(c_coarse), 1e-12)
    c_grid_spread = abs(c_coarse - cs[idx]) / denom

    bounds = [Bound("dirac_order", order, ">=", _DIRAC_ORDER_MIN),
              Bound("growth_factor", float(np.maximum.reduce(growth)), "<=", _ENVELOPE_FACTOR),
              Bound("c_spread", c_spread, "<=", _GRONWALL_BAND),
              Bound("c_grid_spread", c_grid_spread, "<=", _GRID_BAND)]
    if spec.theorem == "1":
        # each column folded pairwise by its reducer, which gives min(column)
        # and max(column) bit for bit with no Python-level call per column
        columns = zip(*(row for run_rows in rows for row in run_rows))
        *extrema, s_abs_max = map(functools.reduce, (min, max, min, max, max), columns)
        names = ("rho_min", "rho_max", "theta_min", "theta_max")
        state_window = list(map(Bound, names, extrema, (">=", "<=") * 2, _STATE_WINDOW))
        checks = dict(zip(names, extrema), s_abs_max=s_abs_max,
                      state_window_ok=float(Bound.judge(state_window)[0]))
        bounds += state_window
    elif spec.theorem == "2":
        s_abs_max = max(row[0] for run_rows in rows for row in run_rows)
        _, margin, quotient = map(max, zip(*rows[0]))  # the first run's largest quotients
        cap = Bound("s_abs_max", s_abs_max, "<=", _ENTROPY_CAP)
        checks = {"s_abs_max": s_abs_max, "entropy_cap": _ENTROPY_CAP,
                  "entropy_cap_ok": float(cap.holds),
                  "temperature_chain_margin": margin,
                  "pressure_quotient_max": quotient}
        bounds += [cap, Bound("temperature_chain_margin", margin, "<=", 1.0 + 1e-12)]
    else:
        u_max = max(float(np.max(np.sqrt(np.sum(u * u, axis=-1))))
                    for _, u, _ in (sol.on_grid(fine, t) for t in (0.0, spec.solver.t_end)))
        e1 = _radiation_flux_ratio(spec.model.a, u_max)
        e2 = _kernel_entropy_quotient(spec.model)
        kp_const = young.calibrate_kp_constant(fine)
        # the velocity-control quotient integral|u-u_ref|**2 / integral|D0 gap|**2,
        # time-aggregated over the run's levels with trapezoid weights; bounded
        # by the grid's worst-mode constant when the velocity gap vanishes on
        # the boundary
        times, num, den = zip(*rows[n_collapse])
        den_t = float(np.trapezoid(den, times))
        kp_ratio = 0.0 if den_t <= 0.0 else float(np.trapezoid(num, times)) / den_t
        checks = {"flux_absorption_max": e1, "flux_absorption_cap": _E1_CAP,
                  "entropy_quotient_max": e2, "entropy_quotient_cap": _E2_CAP,
                  "velocity_control_ratio": kp_ratio,
                  "velocity_control_constant": kp_const,
                  "kernel_third_law": float(spec.model.kernel.third_law)}
        bounds += [Bound("flux_absorption_max", e1, "<=", _E1_CAP),
                   Bound("entropy_quotient_max", e2, "<=", _E2_CAP),
                   Bound("velocity_control_ratio", kp_ratio, "<=", kp_const)]

    return TheoremReport(
        theorem=spec.theorem, gate=gate, profile=profile,
        dirac_cells=tuple(spec.grids), dirac_sup=tuple(sup_e),
        dirac_order=order, eps=tuple(spec.eps_list), e0=tuple(e0),
        gronwall_c=tuple(cs), growth_factor=tuple(growth), c_spread=c_spread,
        c_grid_spread=c_grid_spread, hypothesis_checks=checks, bounds=tuple(bounds),
        ok=Bound.judge(bounds)[0])


# --------------------------------------------------------------------------
# a priori energy/entropy budget
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AprioriReport:
    """Budget terms per refinement level against one calibrated constant."""

    gate: GateResult
    cells: tuple[int, ...]
    totals: tuple[float, ...]
    terms: dict[str, tuple[float, ...]]
    c_theta_b: float
    calibrated: bool
    needs_recalibration: bool
    theta_b: float
    theta_tilt: float
    max_principle_margin: float
    harmonic_range: tuple[float, float]
    entropy_bound_margin: float
    entropy_flux_c: float
    theta_sq_c: float
    q_exponent: float
    beta: float
    bounds: tuple[Bound, ...]
    ok: bool


def _budget_terms(states: Iterable[solver.FlowState], spec: ExperimentSpec,
                  theta_hat: gridmod.Field, boundary: gridmod.BoundaryData
                  ) -> tuple[dict[str, float], float, float, float, float]:
    """The budget of one run: its terms, their total, the entropy-flux and
    theta**2 coupling constants and the entropy-bound margin.  Each level
    gives one row of scalars as ``states`` yields it, and the rows are
    reduced once the run ends."""
    g = theta_hat.grid
    model = spec.model
    tm = spec.transport_model
    mu_lo = min(tm.mu0, tm.mu1)
    kap_lo = min(tm.kappa1, tm.kappa2)
    beta = tm.beta

    grad_hat = gridmod.gradient(theta_hat)
    hat = theta_hat.interior
    rows = []
    for state in states:
        t = float(state.t)
        rho, u, theta = state.rho, state.u, state.theta
        rho_f, u_f, th_f = gridmod.sync_physical(g, rho, u, theta, boundary, t)
        grad_u = gridmod.gradient(u_f)
        grad_th = gridmod.gradient(th_f)
        div_u = np.einsum("...ii->...", grad_u)
        u_sq = np.sum(u * u, axis=-1)

        eos = model.partials(rho, theta, ("e", "s", "s_mol"))
        e, s = eos["e"], eos["s"]
        rho_s_mol = rho * eos["s_mol"]
        rhs_e = thermo.entropy_growth_bound(model, rho, theta)
        mass = float(gridmod.integrate(g, rho))
        kin = float(gridmod.integrate(g, rho * u_sq))
        internal = float(gridmod.integrate(g, rho * e))
        ent_pow = float(gridmod.integrate(g, np.abs(rho * s) ** _ENTROPY_Q))

        # |grad u + grad u^T - (2/d) div u I|^2, exactly (scalings by 2 and 4)
        shear_sq = 4.0 * np.sum(transport.traceless_sym(grad_u) ** 2, axis=(-2, -1))
        lam = tm.lam(rho, theta)

        # quotients realizing the two coupling estimates; the additive data
        # constant keeps both denominators positive, so a negative ballistic
        # balance weakens the reading instead of flipping its sign
        flux = abs(float(gridmod.integrate(
            g, rho_s_mol * np.sum(u * grad_hat, axis=-1))))
        ball = float(gridmod.integrate(
            g, 0.5 * rho * u_sq + rho * e - hat * rho * s))
        th_sq = float(gridmod.integrate(g, theta ** 2))
        ball_still = float(gridmod.integrate(g, rho * e - hat * rho * s))
        u_h1 = float(gridmod.integrate(
            g, u_sq + np.sum(grad_u ** 2, axis=(-2, -1))))

        rows.append((
            t, mass + kin + internal + ent_pow, mass, kin, internal, ent_pow,
            gridmod.integrate(g, mu_lo * (1.0 + 1.0 / theta) * shear_sq),
            gridmod.integrate(g, lam / (2.0 * theta) * div_u ** 2),
            gridmod.integrate(g, kap_lo * (theta ** -2.0 + theta ** (beta - 2.0))
                              * np.sum(grad_th * grad_th, axis=-1)),
            flux / (1.0 + max(ball, 0.0)),
            th_sq / (1.0 + max(ball_still, 0.0) + u_h1),
            float(np.min(rhs_e - np.abs(rho_s_mol)))))

    times, *sups, visc, bulk, cond, flux_c, theta_sq_c, margin = zip(*rows)
    terms = dict(zip(("state_sup", "mass_sup", "kinetic_sup", "internal_sup",
                      "entropy_power_sup"), map(max, sups)))
    for key, rate in (("shear_block", visc), ("bulk_block", bulk),
                      ("conduction_block", cond)):
        terms[key] = float(np.trapezoid(rate, times))
    total = (terms["state_sup"] + terms["shear_block"] + terms["bulk_block"]
             + terms["conduction_block"])
    return terms, total, max(flux_c), max(theta_sq_c), min(margin)


def run_apriori(spec: ExperimentSpec) -> AprioriReport:
    """Check the decaying-flow energy/entropy budget across a grid ladder.

    The budget constant is calibrated on the coarsest run (total times the
    safety factor) and every finer run must stay below it.  A spec's
    ``c_fixed`` skips calibration and validates against the given constant
    instead — the report's ``needs_recalibration`` flag goes up whenever a
    run exceeds it, which is the expected outcome after raising the boundary
    temperature.  The runs are spread over processes by :func:`_run_tasks`;
    each reduces its levels, read as the solver yields them, to one budget
    (:func:`_budget_terms`), so at most two consecutive levels are alive per
    process.  Once every run is back, a budget blow-up is checked in grid
    order and each reported quantity is reduced over the runs in one
    expression.
    """

    if spec.theorem != "apriori":
        raise ValueError("run_apriori requires a spec built for claim 'apriori'")
    gate = spec.gate
    sol = manufactured(spec.profile, spec.model, spec.transport_model)
    theta_b = spec.theta_scale
    tilt = spec.theta_tilt
    boundary = gridmod.affine_boundary(theta_b, theta_b * tilt)

    def run(n: int):
        """The budget of one run on n x n cells (:func:`_budget_terms`), the
        interior range of its harmonic extension and its maximum-principle
        margin."""
        grid = gridmod.Grid(cells=(n, n))
        theta_hat = gridmod.harmonic_extension(grid, boundary, t=0.0)
        hat_int = theta_hat.interior
        bvals = [np.asarray(boundary.theta(0.0, pts), dtype=float)
                 for pts in gridmod.boundary_face_points(grid).values()]
        b_lo = min(float(np.min(v)) for v in bvals)
        b_hi = max(float(np.max(v)) for v in bvals)
        hat_lo, hat_hi = float(np.min(hat_int)), float(np.max(hat_int))

        rho0, u0, th0 = sol.on_grid(grid, 0.0)
        x = grid_points(grid)[..., 0]
        # the initial state goes straight to the solver, so no level is held
        # here while the run marches on
        states = solver.levels(
            grid, replace(spec.solver, source=None), spec.model, spec.transport_model,
            boundary=boundary, initial=solver.FlowState(
                grid=grid, rho=rho0, u=u0, theta=theta_b * (th0 + tilt * x), t=0.0))
        return (*_budget_terms(states, spec, theta_hat, boundary), hat_lo, hat_hi,
                min(hat_lo - b_lo, b_hi - hat_hi))

    terms, totals, flux_c, theta_sq_c, entropy_margin, hat_lo, hat_hi, max_margin = zip(
        *_run_tasks(run, spec.grids))
    limit = 1e6 * max(1.0, totals[0])
    for n, total in zip(spec.grids, totals):
        if total > limit:
            raise RuntimeError(
                f"budget blow-up at {n} cells: total {total:.3e} exceeds a "
                "million times the calibration level")

    if spec.c_fixed is None:
        c_bound = _CALIBRATION_SAFETY * totals[0]
        calibrated = True
    else:
        c_bound = float(spec.c_fixed)
        calibrated = False
    bounds = (Bound("total", float(np.maximum.reduce(totals)), "<=", c_bound),
              Bound("max_principle_margin", min(max_margin), ">=", -1e-12),
              Bound("entropy_bound_margin", min(entropy_margin), ">=", 0.0))

    return AprioriReport(
        gate=gate, cells=tuple(spec.grids), totals=totals,
        terms={key: tuple(run_terms[key] for run_terms in terms) for key in terms[0]},
        c_theta_b=c_bound, calibrated=calibrated,
        needs_recalibration=not bounds[0].holds, theta_b=theta_b, theta_tilt=tilt,
        max_principle_margin=min(max_margin), harmonic_range=(min(hat_lo), max(hat_hi)),
        entropy_bound_margin=min(entropy_margin), entropy_flux_c=max(flux_c),
        theta_sq_c=max(theta_sq_c), q_exponent=_ENTROPY_Q,
        beta=spec.transport_model.beta, bounds=bounds, ok=Bound.judge(bounds)[0])


# --------------------------------------------------------------------------
# defect coarse-graining study
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectStudyReport:
    """Coarse-graining evidence: vanishing smooth defects, resolved gaps."""

    gate: GateResult
    smooth_cells: tuple[int, ...]
    smooth_d: tuple[float, ...]
    smooth_vanishing: bool
    osc_eps: float
    osc_d: float
    osc_oracle: float
    osc_rel_err: float
    theta_spread: float
    xi_osc: float
    compat_ok: bool
    compat_margin: float
    entropy_defect_rel: float
    bounds: tuple[Bound, ...]
    ok: bool


def _decay_run(spec: ExperimentSpec, n: int) -> solver.Trajectory:
    grid = gridmod.Grid(cells=(n,))
    x = grid_points(grid)[..., 0]
    init = solver.FlowState(
        grid=grid, rho=1.0 + 0.2 * np.sin(2.0 * np.pi * x),
        u=np.zeros(grid.interior_shape((1,))),
        theta=1.0 + 0.3 * np.sin(np.pi * x), t=0.0)
    cfg = replace(spec.solver, source=None, t_end=min(spec.solver.t_end, 0.02),
                  save_every=1000)
    return solver.simulate(grid, cfg, spec.model, spec.transport_model,
                           boundary=gridmod.constant_boundary(1.0), initial=init)


def _oscillation_snapshot(spec: ExperimentSpec, n: int, eps: float) -> solver.Trajectory:
    grid = gridmod.Grid(cells=(n,))
    x = grid_points(grid)[..., 0]
    u = np.zeros(grid.interior_shape((1,)))
    u[..., 0] = np.sin(x / eps) * np.sin(np.pi * x)
    return solver.Trajectory(
        grid=grid, times=np.array([0.0]),
        rho=(1.0 + 0.05 * np.sin(2.0 * np.pi * x))[None],
        u=u[None],
        theta=(1.0 + 0.1 * np.sin(np.pi * x))[None],
        model=spec.model, transport_model=spec.transport_model,
        boundary=gridmod.constant_boundary(1.0),
        cfg=solver.SolverConfig(t_end=1.0))


def _entropy_coarsening_gap(fine: solver.Trajectory, factor: int,
                            model: thermo.ThermoModel) -> float:
    """Relative gap between averaged rho*s and rho*s of plainly averaged state.

    Uses arithmetic block means of (rho, theta) — deliberately not the
    entropy-matched coarse temperature — so the quotient is an independent
    reading of whether the entropy observable concentrates.  Equi-integrable
    families keep it at the smooth-variation (second-order) level.
    """

    rho = fine.rho[0]
    theta = fine.theta[0]
    avg_rs, rho_bar, th_bar = (young._block_average(a, (factor,))
                               for a in (rho * model.s(rho, theta), rho, theta))
    gap = np.abs(avg_rs - rho_bar * model.s(rho_bar, th_bar))
    denom = float(np.sum(np.abs(avg_rs))) + 1e-300
    return float(np.sum(gap)) / denom


def run_defect_study(spec: ExperimentSpec) -> DefectStudyReport:
    """Coarse-grain fine runs onto coarse grids and audit the defects.

    Each grid n of ``spec.grids`` runs a smooth decay on n cells, which is
    coarse-grained onto n // 4 cells; these dissipation defects must shrink
    as n grows.  An order-one oscillatory velocity on 512 cells, coarse-
    grained onto 16, must produce the kinetic energy gap predicted by period
    averaging; its defect bundle must pass the compatibility bound; and the
    entropy observable must show no concentration.  The solver runs only on
    the grids of ``spec.grids``, one process per run where CPUs allow
    (:func:`_run_tasks`).
    """

    if spec.theorem != "defect":
        raise ValueError("run_defect_study requires a spec built for claim 'defect'")
    gate = spec.gate

    def run(n: int) -> float:
        bundle, _ = young.defect_from_refinement(_decay_run(spec, n), gridmod.Grid(cells=(n // 4,)))
        return float(np.max(bundle.d_diss))

    smooth_cells = [n // 4 for n in spec.grids]
    smooth_d = _run_tasks(run, spec.grids)

    eps = _OSC_EPS
    n_fine, n_coarse = 512, 16
    fine = _oscillation_snapshot(spec, n_fine, eps)
    # only this run's report is read, so only it is given the theta references
    refs = testfuns.theta_refs(1, base=(1.0, 0.0, 0.0), amps=(0.0, 0.15, -0.1))
    bundle, report = young.defect_from_refinement(fine, gridmod.Grid(cells=(n_coarse,)), refs)
    osc_d = float(bundle.d_diss[0])

    # the kinetic defect in the limit eps -> 0: the fast factor averages to
    # <sin^2> = 1/2 over a period, leaving int 1/2 rho * 1/2 * sin^2(pi x) dx
    # with rho = 1 + 0.05 sin(2 pi x); int sin^2(pi x) dx = 1/2 and
    # int sin(2 pi x) sin^2(pi x) dx = 0, so the oracle is 1/4 * 1/2 = 1/8
    oracle = 0.125
    rel_err = abs(osc_d - oracle) / oracle

    compat = young.defect_compat_check(bundle, testfuns.velocity_tests(1))
    entropy_rel = _entropy_coarsening_gap(fine, n_fine // n_coarse, spec.model)

    # each smooth defect below the one before, the last below 3/4 of the first
    bounds = (Bound("smooth_d_rise_max", float(np.max(np.diff(smooth_d))), "<", 0.0),
              Bound("smooth_d_last", smooth_d[-1], "<", 0.75 * smooth_d[0]),
              Bound("osc_rel_err", rel_err, "<=", 0.05),
              Bound("theta_spread", float(report.theta_spread), "<=", 0.05),
              Bound("compat_margin", float(compat.worst_margin), ">=", 0.0),
              Bound("entropy_defect_rel", entropy_rel, "<=", 0.05))
    return DefectStudyReport(
        gate=gate, smooth_cells=tuple(smooth_cells), smooth_d=tuple(smooth_d),
        smooth_vanishing=Bound.judge(bounds[:2])[0], osc_eps=eps, osc_d=osc_d,
        osc_oracle=oracle, osc_rel_err=rel_err,
        theta_spread=float(report.theta_spread),
        xi_osc=float(bundle.xi[0]), compat_ok=bounds[4].holds,
        compat_margin=float(compat.worst_margin),
        entropy_defect_rel=entropy_rel, bounds=bounds, ok=Bound.judge(bounds)[0])
