"""Flat INI run configuration: schema, defaults, and object builders.

A run is reproducible from its config file plus a seed, so the schema is
strict: unknown sections or keys are rejected by name, values are parsed by
declared type, and saving a loaded config reproduces it exactly (floats are
written in shortest round-trip form).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional

from . import grid as gridmod
from . import solver, thermo, transport
from .experiments import ExperimentSpec
from .manufactured import StrongSolution, manufactured, profile_names

__all__ = [
    "ConfigError",
    "RunConfig",
    "default_config",
    "load_config",
    "loads_config",
    "save_config",
    "dumps_config",
    "build_model",
    "build_transport",
    "build_grid",
    "build_boundary",
    "build_source",
    "build_solver_config",
    "build_experiment_spec",
]


class ConfigError(ValueError):
    """A configuration file failed to parse or violates the schema."""


# value kinds: how a raw string is parsed and rendered
_KINDS = ("str", "int", "float", "ints", "floats")

# section -> key -> (kind, default)
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "model": {
        "kind": ("str", "perfect_gas"),
        "c_v": ("float", 1.5),
        "a": ("float", 1.0),
        "kernel": ("str", "degenerate"),
        "radiation_exponent": ("int", 2),
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
        "mu_lo": ("float", 0.01),
        "mu_hi": ("float", 1.0),
        "lam_hi": ("float", 1.0),
        "kappa_lo": ("float", 0.01),
        "kappa_hi": ("float", 1.0),
    },
    "grid": {
        "cells": ("ints", (64,)),
        "lo": ("floats", ()),
        "hi": ("floats", ()),
    },
    "boundary": {
        "kind": ("str", "constant"),
        "value": ("float", 1.0),
        "c0": ("float", 1.0),
        "cx": ("float", 0.0),
        "cy": ("float", 0.0),
    },
    "solver": {
        "cfl": ("float", 0.4),
        "t_end": ("float", 0.05),
        "floor": ("float", 1e-10),
        "save_every": ("int", 2),
        "max_steps": ("int", 200_000),
        "profile": ("str", "shear"),
    },
    "experiment": {
        "theorem": ("str", "1"),
        "profile": ("str", ""),
        "eps": ("floats", ()),
        "grids": ("ints", ()),
        "theta_scale": ("float", 1.0),
        "theta_tilt": ("float", 0.2),
    },
    "run": {
        "seed": ("int", 0),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: every schema key present with a typed value."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def replace_value(self, section: str, key: str, value) -> "RunConfig":
        """Copy with one value swapped (validated against the schema kind)."""

        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown configuration key {section}.{key}")
        kind = _SCHEMA[section][key][0]
        rendered = _render(kind, value)
        out = {s: dict(vals) for s, vals in self.sections.items()}
        out[section][key] = _parse(kind, rendered, f"{section}.{key}")
        return RunConfig(sections=out)


def _parse(kind: str, raw: str, path: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        items = [p.strip() for p in raw.split(",") if p.strip()]
        if kind == "ints":
            return tuple(int(p) for p in items)
        if kind == "floats":
            return tuple(float(p) for p in items)
    except ValueError:
        raise ConfigError(
            f"value {raw!r} for {path} is not a valid {kind}") from None
    raise ConfigError(f"unknown value kind {kind!r} for {path}")


def _render(kind: str, value) -> str:
    if kind in ("ints", "floats"):
        return ", ".join(repr(v) for v in value)
    return str(value) if kind != "float" else repr(float(value))


def default_config() -> RunConfig:
    sections = {section: {key: default for key, (_, default) in keys.items()}
                for section, keys in _SCHEMA.items()}
    return RunConfig(sections=sections)


def loads_config(text: str) -> RunConfig:
    """Parse configuration text; missing keys take schema defaults."""

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"configuration parse error: {err}") from None

    sections = {section: {key: default for key, (_, default) in keys.items()}
                for section, keys in _SCHEMA.items()}
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
            kind = _SCHEMA[section][key][0]
            sections[section][key] = _parse(kind, raw, f"{section}.{key}")
    return RunConfig(sections=sections)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


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


def build_model(cfg: RunConfig) -> thermo.ThermoModel:
    block = cfg["model"]
    kind = block["kind"]
    if kind == "perfect_gas":
        return thermo.PerfectGas(c_v=block["c_v"])
    if kind == "molecular_radiation":
        try:
            kernel = thermo.kernel_by_name(block["kernel"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"model.kernel: {err}") from None
        return thermo.MolecularRadiation(
            a=block["a"], kernel=kernel,
            radiation_exponent=block["radiation_exponent"])
    raise ConfigError(
        f"model.kind must be 'perfect_gas' or 'molecular_radiation', got {kind!r}")


def build_transport(cfg: RunConfig) -> transport.TransportModel:
    block = cfg["transport"]
    kind = block["kind"]
    if kind == "affine_theta":
        return transport.AffineTheta(c_mu=block["c_mu"],
                                     c_lambda=block["c_lambda"],
                                     kappa0=block["kappa0"])
    if kind == "power_kappa":
        return transport.PowerKappa(
            mu0=block["mu0"], mu1=block["mu1"], lambda0=block["lambda0"],
            lambda1=block["lambda1"], kappa1=block["kappa1"],
            kappa2=block["kappa2"], beta=block["beta"])
    if kind == "bounded_general":
        return transport.BoundedGeneral(
            mu_lo=block["mu_lo"], mu_hi=block["mu_hi"], lam_hi=block["lam_hi"],
            kappa_lo=block["kappa_lo"], kappa_hi=block["kappa_hi"],
            beta=block["beta"])
    raise ConfigError(
        "transport.kind must be 'affine_theta', 'power_kappa' or "
        f"'bounded_general', got {kind!r}")


def build_grid(cfg: RunConfig) -> gridmod.Grid:
    block = cfg["grid"]
    cells = block["cells"]
    lo = block["lo"] or None
    hi = block["hi"] or None
    return gridmod.Grid(cells=cells, lo=lo, hi=hi)


def build_boundary(cfg: RunConfig) -> gridmod.BoundaryData:
    block = cfg["boundary"]
    kind = block["kind"]
    if kind == "constant":
        return gridmod.constant_boundary(block["value"])
    if kind == "affine":
        return gridmod.affine_boundary(block["c0"], block["cx"], block["cy"])
    raise ConfigError(
        f"boundary.kind must be 'constant' or 'affine', got {kind!r}")


def build_source(cfg: RunConfig) -> Optional[StrongSolution]:
    """The manufactured comparison flow named by solver.profile, if any."""

    name = cfg["solver"]["profile"]
    if name in ("", "none"):
        return None
    if name not in profile_names():
        raise ConfigError(
            f"solver.profile {name!r} is not a known comparison profile; "
            f"choose from {profile_names()} or 'none'")
    model, transport_model = build_model(cfg), build_transport(cfg)
    try:
        return manufactured(name, model, transport_model)
    except TypeError as err:  # a profile the configured models cannot carry
        raise ConfigError(f"solver.profile {name!r}: {err}") from None


def build_solver_config(cfg: RunConfig,
                        source: Optional[StrongSolution] = None) -> solver.SolverConfig:
    block = cfg["solver"]
    return solver.SolverConfig(cfl=block["cfl"], t_end=block["t_end"],
                               floor=block["floor"],
                               save_every=block["save_every"],
                               max_steps=block["max_steps"], source=source)


def build_experiment_spec(cfg: RunConfig) -> ExperimentSpec:
    block = cfg["experiment"]
    return ExperimentSpec(
        theorem=block["theorem"],
        model=build_model(cfg),
        transport_model=build_transport(cfg),
        profile=block["profile"] or None,
        eps_list=block["eps"] or None,
        grids=block["grids"] or None,
        solver=build_solver_config(cfg),
        theta_scale=block["theta_scale"],
        theta_tilt=block["theta_tilt"])
