"""Golden values: key verdict numbers of the commands at their defaults.

``golden/defaults.json`` maps a command line -> output file -> key -> the
pinned ``value`` with its own ``rtol`` and ``atol``.  A ``verdict.json`` key
is a dotted path into the verdict, where an integer part indexes a list; a
``series.csv`` key names a column and pins its last row.  A ``null`` pin,
a non-finite value that the verdict writes as ``null``, must match
exactly.  A change that moves a value updates the file and explains the
move in ``CHANGES.md``; it does not widen a tolerance.

``golden/clauses.json`` pins every residual of every ``mv-check`` clause,
in order, for the default 1D run and a 2D molecular-radiation run: each
must equal its repr float bit for bit, so a reordered or swapped test
function fails even where the pinned ``max_abs``/``min`` would not.

Every default ``verdict.json`` decides from its ``bounds`` records:
``ok`` is every record holding, each record holds as its relation says,
its value is the verdict key it mirrors, and ``BOUNDS_PINNED`` pins each
command's record names, relations and constant bounds in order, so a
widened band or a dropped check fails here in the same diff.

Every output opens without nsflab: each CSV with ``np.loadtxt``, the
snapshot with ``np.load``, and each ``verdict.json`` as RFC 8259 JSON, which
has no ``NaN`` or ``Infinity``.

``tests/test_acceptance.py`` is pinned by its SHA-256, so an edit to the
acceptance file, which the ROADMAP keeps unchanged, fails here in the same
diff.
"""

import hashlib
import json
import operator
import os

import numpy as np
import pytest

from nsflab import cli, reports

with open(os.path.join(os.path.dirname(__file__), "golden", "defaults.json"),
          encoding="utf-8") as fh:
    PINNED = json.load(fh)

with open(os.path.join(os.path.dirname(__file__), "golden", "clauses.json"),
          encoding="utf-8") as fh:
    CLAUSES_PINNED = json.load(fh)

CASES = [(argv, source, key)
         for argv, files in PINNED.items()
         for source, keys in files.items()
         for key in keys]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each command line's output root and exit code.

    Every command line gets its own root: ``wsu --theorem 1`` and
    ``wsu --theorem 2`` both write ``<out>/wsu/``.
    """
    out = {}
    for argv in PINNED:
        root = tmp_path_factory.mktemp("golden")
        out[argv] = (root, cli.main(argv.split() + ["--out", str(root)]))
    return out


def _read(root, command: str, source: str) -> dict:
    path = os.path.join(root, command, source)
    if source == "series.csv":
        return {name: float(col[-1]) for name, col in reports.read_series(path).items()}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv,source,key", CASES,
                         ids=[f"{a}:{k}" for a, _, k in CASES])
def test_default_output_matches_golden_value(runs, argv, source, key):
    root, code = runs[argv]
    assert code == 0
    got = _read(root, argv.split()[0], source)
    for part in key.split(".") if source == "verdict.json" else (key,):
        got = got[int(part)] if isinstance(got, list) else got[part]
    pin = PINNED[argv][source][key]
    if pin["value"] is None:
        assert got is None, f"{argv} {source} {key}: {got!r} is not null"
        return
    assert abs(got - pin["value"]) <= pin["atol"] + pin["rtol"] * abs(pin["value"]), (
        f"{argv} {source} {key}: {got!r} moved from the golden {pin['value']!r}")


def _outputs(runs, argv: str, suffix: str) -> list:
    out = os.path.join(runs[argv][0], argv.split()[0])
    return [os.path.join(out, name) for name in sorted(os.listdir(out)) if name.endswith(suffix)]


@pytest.mark.parametrize("argv", list(PINNED))
def test_default_series_and_snapshot_open_with_plain_numpy(runs, argv):
    for path in _outputs(runs, argv, ".csv"):
        with open(path, encoding="utf-8") as fh:
            names = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        series = reports.read_series(path)
        assert list(series) == names and data.shape[1] == len(names), path
        for j, col in enumerate(series.values()):
            assert data[:, j].tobytes() == col.tobytes(), f"{path} {names[j]}"
    for path in _outputs(runs, argv, ".npy"):
        record, state = np.load(path), reports.read_snapshot(path)
        assert record.shape == () and record.dtype.names == tuple(state), path
        for name, arr in state.items():
            assert (record[name].dtype, record[name].shape) == (arr.dtype, arr.shape), name
            assert record[name].tobytes() == arr.tobytes(), name


def _not_json(token: str):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("argv", list(PINNED))
def test_default_verdict_is_strict_json(runs, argv):
    (path,) = _outputs(runs, argv, "verdict.json")
    with open(path, encoding="utf-8") as fh:
        assert isinstance(json.loads(fh.read(), parse_constant=_not_json), dict)


def _clauses(root) -> dict:
    verdict = reports.read_verdicts(os.path.join(root, "mv-check", "verdict.json"))
    return {name: entry["residuals"] for name, entry in verdict["clauses"].items()}


def test_default_mv_check_residuals_match_golden_bits(runs):
    root, code = runs["mv-check"]
    assert code == 0
    assert _clauses(root) == CLAUSES_PINNED["mv-check"]


def test_two_dimensional_mv_check_residuals_match_golden_bits(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nkind = molecular_radiation\n"
                   "[transport]\nkind = power_kappa\n")
    code = cli.main(["mv-check", "--config", str(ini), "--profile", "radiative_decay",
                     "--cells", "16", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert _clauses(tmp_path) == CLAUSES_PINNED["mv-check-2d"]


_CLAIMS = [("dirac_order", ">=", 1.0), ("growth_factor", "<=", 1.2),
           ("c_spread", "<=", 0.2), ("c_grid_spread", "<=", 0.3)]


def _key(verdict: dict, path: str):
    for part in path.split("."):
        verdict = verdict[part]
    return verdict


def _at(path: str, sign: float = 1.0):
    """A computed bound: ``sign`` times the verdict's value at the dotted key ``path``."""
    return lambda verdict: sign * _key(verdict, path)


# command line -> its records in order: (name, relation, bound), where a
# callable bound computes the bound from the verdict
BOUNDS_PINNED = {
    "simulate": [],
    "verify-thermo": [("stability_dp_drho", "<=", 0), ("stability_de_dtheta", "<=", 0),
                      ("convexity_violations", "<=", 0), ("gibbs_max_residual", "<=", 1e-8)],
    "mv-check": [("continuity.max_abs", "<=", _at("tol_h")),
                 ("momentum.max_abs", "<=", _at("tol_h")),
                 ("entropy.min", ">=", _at("tol_h", -1.0)),
                 ("ballistic.min", ">=", _at("tol_h", -1.0)),
                 ("velocity_compat.max_abs", "<=", _at("tol_h")),
                 ("temperature_compat.max_abs", "<=", _at("tol_h"))],
    "relenergy": [("slack_min", ">=", _at("tol_h", -1.0))],
    "wsu --theorem 1": _CLAIMS + [("rho_min", ">=", 0.25), ("rho_max", "<=", 4.0),
                                  ("theta_min", ">=", 0.25), ("theta_max", "<=", 4.0)],
    "wsu --theorem 2": _CLAIMS + [("s_abs_max", "<=", 10.0),
                                  ("temperature_chain_margin", "<=", 1.0 + 1e-12)],
    "wsu --theorem 3": _CLAIMS + [
        ("flux_absorption_max", "<=", 4.0), ("entropy_quotient_max", "<=", 5.0),
        ("velocity_control_ratio", "<=", _at("hypothesis_checks.velocity_control_constant"))],
    "apriori": [("total", "<=", _at("c_theta_b")), ("max_principle_margin", ">=", -1e-12),
                ("entropy_bound_margin", ">=", 0.0)],
    "defect-study": [("smooth_d_rise_max", "<", 0.0),
                     ("smooth_d_last", "<", lambda verdict: 0.75 * verdict["smooth_d"][0]),
                     ("osc_rel_err", "<=", 0.05), ("theta_spread", "<=", 0.05),
                     ("compat_margin", ">=", 0.0), ("entropy_defect_rel", "<=", 0.05)],
}

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _mirrored(verdict: dict, name: str):
    """The verdict value that the record ``name`` reads."""
    if name in ("total", "growth_factor"):
        return max(verdict["totals" if name == "total" else name])
    smooth = verdict.get("smooth_d")
    if name == "smooth_d_rise_max":
        return max(b - a for a, b in zip(smooth, smooth[1:]))
    if name == "smooth_d_last":
        return smooth[-1]
    if "." in name:
        return _key(verdict["clauses"], name)
    for scope in ("checks", "hypothesis_checks"):
        if name in verdict.get(scope, {}):
            return verdict[scope][name]
    return verdict[name]


@pytest.mark.parametrize("argv", list(PINNED))
def test_default_verdict_decides_from_its_bounds(runs, argv):
    (path,) = _outputs(runs, argv, "verdict.json")
    verdict = reports.read_verdicts(path)
    bounds = verdict["bounds"]
    names = [b["name"] for b in bounds]
    assert len(set(names)) == len(names), names
    # simulate checks nothing and writes no ``ok``
    assert verdict.get("ok", True) == all(b["holds"] for b in bounds)
    for b in bounds:
        assert b["value"] == _mirrored(verdict, b["name"]), b["name"]
        if b["value"] is not None:  # a non-finite value is written as null
            assert b["holds"] == _RELATIONS[b["relation"]](b["value"], b["bound"]), b


@pytest.mark.parametrize("argv", list(PINNED))
def test_default_bounds_match_the_pinned_table(runs, argv):
    (path,) = _outputs(runs, argv, "verdict.json")
    verdict = reports.read_verdicts(path)
    got = [(b["name"], b["relation"], b["bound"]) for b in verdict["bounds"]]
    want = [(name, relation, bound(verdict) if callable(bound) else bound)
            for name, relation, bound in BOUNDS_PINNED[argv]]
    assert got == want


# SHA-256 of tests/test_acceptance.py at its last intended edit
ACCEPTANCE_SHA256 = "7b4fa8db99e66065c8f7c22058d8087ebdf1de76746a9f68dbb7e43adcc34927"


def test_acceptance_file_is_unchanged():
    with open(os.path.join(os.path.dirname(__file__), "test_acceptance.py"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ACCEPTANCE_SHA256, (
        "tests/test_acceptance.py changed: the ROADMAP keeps the acceptance "
        "file byte-unchanged under every gate")
