"""Golden values: key verdict numbers of four commands at their defaults.

``golden/defaults.json`` maps command -> output file -> key -> the pinned
``value`` with its own ``rtol`` and ``atol``.  A ``verdict.json`` key is a
dotted path into the verdict; a ``series.csv`` key names a column and pins
its last row.  A change that moves a value updates the file and explains the
move in ``CHANGES.md``; it does not widen a tolerance.
"""

import json
import os

import pytest

from nsflab import cli, reports

with open(os.path.join(os.path.dirname(__file__), "golden", "defaults.json"),
          encoding="utf-8") as fh:
    PINNED = json.load(fh)

CASES = [(command, source, key)
         for command, files in PINNED.items()
         for source, keys in files.items()
         for key in keys]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output root and each command's exit code."""
    root = tmp_path_factory.mktemp("golden")
    return root, {command: cli.main([command, "--out", str(root)]) for command in PINNED}


def _read(root, command: str, source: str) -> dict:
    path = os.path.join(root, command, source)
    if source == "series.csv":
        return {name: float(col[-1]) for name, col in reports.read_series(path).items()}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command,source,key", CASES,
                         ids=[f"{c}:{k}" for c, _, k in CASES])
def test_default_output_matches_golden_value(runs, command, source, key):
    root, codes = runs
    assert codes[command] == 0
    got = _read(root, command, source)
    for part in key.split(".") if source == "verdict.json" else (key,):
        got = got[part]
    pin = PINNED[command][source][key]
    assert abs(got - pin["value"]) <= pin["atol"] + pin["rtol"] * abs(pin["value"]), (
        f"{command} {source} {key}: {got!r} moved from the golden {pin['value']!r}")
