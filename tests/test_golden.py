"""Golden values: key verdict numbers of the commands at their defaults.

``golden/defaults.json`` maps a command line -> output file -> key -> the
pinned ``value`` with its own ``rtol`` and ``atol``.  A ``verdict.json`` key
is a dotted path into the verdict, where an integer part indexes a list; a
``series.csv`` key names a column and pins its last row.  Non-finite values
must match exactly.  A change that moves a value updates the file and
explains the move in ``CHANGES.md``; it does not widen a tolerance.
"""

import json
import math
import os

import pytest

from nsflab import cli, reports

with open(os.path.join(os.path.dirname(__file__), "golden", "defaults.json"),
          encoding="utf-8") as fh:
    PINNED = json.load(fh)

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
    if not math.isfinite(pin["value"]):
        assert got == pin["value"], f"{argv} {source} {key}: {got!r} is not {pin['value']!r}"
        return
    assert abs(got - pin["value"]) <= pin["atol"] + pin["rtol"] * abs(pin["value"]), (
        f"{argv} {source} {key}: {got!r} moved from the golden {pin['value']!r}")
