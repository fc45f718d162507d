"""Flat INI run configuration: schema, defaults, and object builders.

A run is reproducible from its config file plus a seed, so the schema is
strict: unknown sections or keys are rejected by name, values are parsed by
declared type (finite numbers, closed sets, floors) and refused by their
key: this module is the one place a configured value is refused, at parse or
by a builder, before anything runs.  Saving a loaded config reproduces it
exactly (floats in shortest round-trip form).  Each command starts from its
own row of defaults (:func:`default_config`), reads its file over that row
and its flags over both, so the echo of what it ran is one complete config.
The builders take the values as they are: a study refuses an emptied grid
list, eps list or profile rather than fall back to its claim's row.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Optional

from . import grid as gridmod
from . import experiments, solver, thermo, transport
from .experiments import CLAIM_DEFAULTS, ExperimentSpec, HypothesisGateError
from .manufactured import StrongSolution, manufactured, profile_names

__all__ = [
    "ConfigError",
    "MODEL_KINDS",
    "TRANSPORT_KINDS",
    "CHOICES",
    "RunConfig",
    "parse_value",
    "default_config",
    "load_config",
    "loads_config",
    "save_config",
    "dumps_config",
    "build_model",
    "build_transport",
    "build_grid",
    "build_source",
    "build_solver_config",
    "build_perturbation",
    "build_experiment_spec",
]


class ConfigError(ValueError):
    """A configuration file failed to parse or violates the schema."""


MODEL_KINDS = ("perfect_gas", "molecular_radiation")
TRANSPORT_KINDS = ("affine_theta", "power_kappa")
# (section, key) -> the closed value set of a str key, as the builders read it
CHOICES = {("model", "kind"): MODEL_KINDS, ("model", "kernel"): tuple(thermo.KERNELS),
           ("transport", "kind"): TRANSPORT_KINDS, ("solver", "profile"): profile_names()}
# (section, key) -> the least value of a number key, in every command that reads it or not
_FLOORS = {("run", "seed"): 0, ("run", "samples"): 2, ("experiment", "tol_scale"): 0}

# section -> key -> (kind, default); the kind says how a raw string is parsed
# and rendered, and an "opt_float" left empty is None
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "model": {
        "kind": ("str", "perfect_gas"),
        "c_v": ("float", 1.5),
        "a": ("float", 1.0),
        "kernel": ("str", "degenerate"),
    },
    "transport": {
        "kind": ("str", "affine_theta"),
        "c_mu": ("float", 0.05),
        "c_lambda": ("float", 0.05),
        "kappa0": ("float", 0.05),
        "mu0": ("float", 0.05),
        "mu1": ("float", 0.05),
        "lambda0": ("float", 0.05),
        "lambda1": ("float", 0.05),
        "kappa1": ("float", 0.05),
        "kappa2": ("float", 0.05),
        "beta": ("float", 2.0),
    },
    "grid": {
        "cells": ("ints", (64,)),
    },
    "solver": {
        "cfl": ("float", 0.4),
        "t_end": ("float", 0.05),
        "floor": ("float", 1e-10),
        "save_every": ("int", 2),
        "max_steps": ("int", 200_000),
        "profile": ("str", ""),
    },
    "experiment": {
        "eps": ("floats", ()),
        "grids": ("ints", ()),
        "theta_scale": ("float", 1.0),
        "theta_tilt": ("float", 0.2),
        "tol_scale": ("float", 1.0),
        "c_fixed": ("opt_float", None),
    },
    "run": {
        "seed": ("int", 0),
        "samples": ("int", 10_000),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: every schema key present with a typed value."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def replace_value(self, section: str, key: str, value) -> "RunConfig":
        """Copy with one value swapped (validated against the schema kind)."""

        out = {s: dict(vals) for s, vals in self.sections.items()}
        out[section][key] = parse_value(section, key,
                                        _render(_SCHEMA[section][key][0], value))
        return RunConfig(sections=out)


def parse_value(section: str, key: str, raw: str, floor: bool = True):
    """``raw`` parsed by the schema kind of ``section.key``, as a file value
    or a flag is.  A malformed or non-finite number, a closed-set value outside
    ``CHOICES`` other than the key's schema default, or (with ``floor``) one
    below ``_FLOORS`` is a ``ConfigError`` that starts with the key.  The
    empty solver.profile default parses, so ``build_source`` refuses it by name."""

    kind, default = _SCHEMA[section][key]
    path = f"{section}.{key}"
    value = _parse(kind, raw.strip(), path)
    choices = CHOICES.get((section, key))
    if choices is not None and value != default and value not in choices:
        raise ConfigError(f"{path} must be one of {', '.join(choices)}, got {value!r}")
    if floor and (section, key) in _FLOORS and value < _FLOORS[section, key]:
        raise ConfigError(f"{path}: must be >= {_FLOORS[section, key]}, got {value!r}")
    return value


# kind -> what a value of that kind must be, as a refusal names it
_KINDS = {"int": "an integer", "float": "a finite number", "opt_float": "a finite number or empty",
          "ints": "a comma-separated list of integers",
          "floats": "a comma-separated list of finite numbers"}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse(kind: str, raw: str, path: str):
    items = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        match kind:
            case "str": return raw
            case "int": return int(raw)
            case "float": return _finite(raw)
            case "opt_float": return _finite(raw) if raw else None
            case "ints": return tuple(int(p) for p in items)
            case "floats": return tuple(_finite(p) for p in items)
    except ValueError:
        raise ConfigError(f"{path} must be {_KINDS[kind]}, got {raw!r}") from None
    raise ConfigError(f"unknown value kind {kind!r} for {path}")


def _render(kind: str, value) -> str:
    if kind in ("ints", "floats"):
        return ", ".join(repr(v) for v in value)
    if kind == "opt_float":
        return "" if value is None else repr(float(value))
    return str(value) if kind != "float" else repr(float(value))


# command -> (section, key) -> the value the command runs where neither its
# file nor a flag sets one; a key its row leaves out keeps the schema default.
# A claim's row is its line of experiments.CLAIM_DEFAULTS.
_ONE_RUN = {("solver", "profile"): "shear"}
_ROWS = {
    "simulate": _ONE_RUN,
    "verify-thermo": {},
    "mv-check": {**_ONE_RUN, ("solver", "t_end"): 0.02, ("grid", "cells"): (48,)},
    "relenergy": {**_ONE_RUN, ("grid", "cells"): (64,), ("experiment", "eps"): (5e-3,),
                  ("experiment", "tol_scale"): 1e-3},
    **{claim: {("model", "kind"): row.model, ("transport", "kind"): row.transport,
               ("solver", "profile"): row.profile, ("experiment", "grids"): row.grids,
               ("experiment", "eps"): row.eps}
       for claim, row in CLAIM_DEFAULTS.items()},
}


def default_config(command: Optional[str] = None) -> RunConfig:
    """The schema defaults, or with ``command`` that command's whole row:
    ``simulate``, ``verify-thermo``, ``mv-check``, ``relenergy``, or a claim
    id of ``experiments.CLAIM_DEFAULTS``, whose row fills the model and
    transport kinds, the profile, the grids and the perturbation sizes."""

    sections = {section: {key: default for key, (_, default) in keys.items()}
                for section, keys in _SCHEMA.items()}
    for (section, key), value in (_ROWS[command] if command else {}).items():
        sections[section][key] = value
    return RunConfig(sections=sections)


def loads_config(text: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Parse configuration text over ``base`` (the schema defaults when
    None): a key the text does not set keeps its value in ``base``."""

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"configuration parse error: {err}") from None

    sections = {s: dict(vals) for s, vals in (base or default_config()).sections.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(
                f"unknown configuration section [{section}]; known sections: {known}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                known = ", ".join(sorted(_SCHEMA[section]))
                raise ConfigError(
                    f"unknown configuration key {section}.{key}; "
                    f"known keys in [{section}]: {known}")
            sections[section][key] = parse_value(section, key, raw)
    return RunConfig(sections=sections)


def load_config(path, base: Optional[RunConfig] = None) -> RunConfig:
    """Parse the UTF-8 file ``path`` over ``base``; an unreadable one is refused by name."""

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        why = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
        raise ConfigError(f"configuration file {path}: {why}") from None
    return loads_config(text, base)


def dumps_config(cfg: RunConfig) -> str:
    """Render the full effective configuration (defaults included)."""

    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (kind, _) in keys.items():
            parser.set(section, key, _render(kind, cfg.sections[section][key]))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_config(cfg))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _construct(section: str, cls, **fields):
    """``cls(**fields)``: the one place a constructor's refusal becomes a
    config error.  Its ``ValueError`` starts with the field at fault, so
    ``section.`` before it names the key; a hypothesis-gate rejection is no
    config error and passes through, to be written as a verdict."""

    try:
        return cls(**fields)
    except HypothesisGateError:
        raise
    except ValueError as err:
        raise ConfigError(f"{section}.{err}") from None


def build_model(cfg: RunConfig) -> thermo.ThermoModel:
    block = cfg["model"]
    if block["kind"] == "perfect_gas":
        return _construct("model", thermo.PerfectGas, c_v=block["c_v"])
    return _construct("model", thermo.MolecularRadiation, a=block["a"],
                      kernel=thermo.KERNELS[block["kernel"]])


def build_transport(cfg: RunConfig) -> transport.TransportModel:
    block = cfg["transport"]
    if block["kind"] == "affine_theta":
        return _construct("transport", transport.AffineTheta, c_mu=block["c_mu"],
                          c_lambda=block["c_lambda"], kappa0=block["kappa0"])
    return _construct("transport", transport.PowerKappa, **{
        key: block[key] for key in ("mu0", "mu1", "lambda0", "lambda1", "kappa1",
                                    "kappa2", "beta")})


def build_grid(cfg: RunConfig, dim: int) -> gridmod.Grid:
    """The grid of grid.cells for a comparison flow of dimension ``dim``: a
    single count applies to every axis, any other list gives one per axis."""

    cells = cfg["grid"]["cells"]
    if len(cells) == 1:
        cells = cells * dim
    elif len(cells) != dim:
        raise ConfigError(
            f"grid.cells: {len(cells)} counts do not fit the {dim}D comparison flow: "
            "give one count, or one per axis")
    return _construct("grid", gridmod.Grid, cells=cells)


def build_source(cfg: RunConfig) -> StrongSolution:
    """The manufactured comparison flow of solver.profile; an empty profile
    is refused."""

    name = cfg["solver"]["profile"]
    if not name:
        raise ConfigError("solver.profile: this command runs one comparison flow; "
                          f"choose from {', '.join(profile_names())}")
    try:
        return manufactured(name, build_model(cfg), build_transport(cfg))
    except TypeError as err:  # a profile the configured models cannot carry
        raise ConfigError(f"solver.profile {name!r}: {err}") from None


def build_solver_config(cfg: RunConfig,
                        source: Optional[StrongSolution] = None) -> solver.SolverConfig:
    block = cfg["solver"]
    return _construct("solver", solver.SolverConfig, cfl=block["cfl"], t_end=block["t_end"],
                      floor=block["floor"], save_every=block["save_every"],
                      max_steps=block["max_steps"], source=source)


def build_perturbation(cfg: RunConfig, sol: StrongSolution, grid: gridmod.Grid,
                       eps: Optional[float] = None) -> solver.FlowState:
    """``experiments.perturbed_state`` of size ``eps``, else of relenergy's one size;
    refused unless there is one size, > 0, that leaves rho and theta positive."""

    sizes = cfg["experiment"]["eps"] if eps is None else (eps,)
    if len(sizes) != 1:
        raise ConfigError("experiment.eps: relenergy runs exactly one perturbation size")
    eps = sizes[0]
    if not eps > 0.0:
        raise ConfigError(f"experiment.eps: the perturbation size must be > 0, got {eps!r}")
    init = experiments.perturbed_state(sol, grid, eps)
    if not init.is_positive():
        raise ConfigError(
            f"experiment.eps: the perturbation size {eps!r} leaves the initial state "
            "nonpositive at " + solver._first_nonpositive(init.rho, init.theta))
    return init


def build_experiment_spec(cfg: RunConfig, theorem: str) -> ExperimentSpec:
    """The gated spec of claim ``theorem`` with the grids, perturbation sizes
    and profile the config lists, as given: an emptied grid or eps list is refused
    by the spec, an emptied profile or one the models cannot carry by
    :func:`build_source` after the gate, and an eps that leaves a claim run's
    initial state nonpositive by :func:`build_perturbation`."""

    block = cfg["experiment"]
    spec = _construct(
        "experiment", ExperimentSpec, theorem=theorem, model=build_model(cfg),
        transport_model=build_transport(cfg), profile=cfg["solver"]["profile"],
        eps_list=block["eps"], grids=block["grids"],
        solver=build_solver_config(cfg), theta_scale=block["theta_scale"],
        theta_tilt=block["theta_tilt"], c_fixed=block["c_fixed"])
    sol = build_source(cfg)
    for n, eps in experiments.claim_runs(spec) if theorem in ("1", "2", "3") else ():
        if eps is not None:
            build_perturbation(cfg, sol, gridmod.Grid(cells=(n,) * sol.dim), eps)
    return spec
