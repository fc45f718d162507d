"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmarks/tests

They run small configurations of the real commands (a few seconds each), so
they are kept out of the package's own test suite.
"""

import filecmp
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# small configurations that still reach every traced layer: inversion,
# forcings, relative-energy reports and the Korn-Poincare calibration (wsu 3),
# the harmonic extension (apriori), the weak-form clauses (mv-check), and the
# CSV and snapshot writers (simulate)
SMALL = {
    "wsu-3": ["wsu", "--theorem", "3", "--grids", "8,16", "--t-end", "0.005"],
    "apriori": ["apriori", "--grids", "4,8", "--t-end", "0.005"],
    "mv-check": ["mv-check", "--cells", "16", "--t-end", "0.005"],
    "simulate": ["simulate", "--cells", "32", "--t-end", "0.005"],
}


def _spawn(tmp_path: Path, name: str, cli: list[str], trace_id=None):
    runner = run.Runner(tmp_path / name, seed=3, deadline=time.monotonic() + 120.0)
    rundir, data = runner.spawn(cli, trace_id)
    assert data is not None, (rundir / "log.txt").read_text()
    return rundir, data


def _same_tree(a: Path, b: Path) -> list[str]:
    cmp = filecmp.dircmp(a, b)
    diffs = cmp.left_only + cmp.right_only + cmp.funny_files
    diffs += [f for f in cmp.common_files if not filecmp.cmp(a / f, b / f, shallow=False)]
    return diffs + [d for sub in cmp.common_dirs for d in _same_tree(a / sub, b / sub)]


@pytest.mark.parametrize("label", sorted(SMALL))
def test_traced_outputs_are_byte_identical(tmp_path, label):
    plain, _ = _spawn(tmp_path, "plain", SMALL[label])
    traced, _ = _spawn(tmp_path, "traced", SMALL[label], trace_id=label)
    assert list((plain / "OUT").iterdir())
    assert _same_tree(plain / "OUT", traced / "OUT") == []
    layers, spans, _ = tracer.load(str(traced / "result.json.spans"))
    assert tracer.layer_totals(layers, spans)["cli.main"]["calls"] == 1


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for name in ("first", "second"):
        rundir, _ = _spawn(tmp_path, name, SMALL["wsu-3"], trace_id=name)
        layers, spans, counters = tracer.load(str(rundir / "result.json.spans"))
        totals = tracer.layer_totals(layers, spans)
        counts.append(({k: v["calls"] for k, v in totals.items()}, dict(counters)))
    calls, counters = counts[0]
    assert calls["solver.step"] > 0 and calls["solver.rhs"] > 0
    assert calls["manufactured.forcing"] > 0
    assert counters["thermo.invert_internal_energy.iterations"] > 0
    assert counts[0] == counts[1]


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    made = run.layer_metrics({}, {}, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in made.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_reference_covers_every_command():
    ref = json.loads(run.REFERENCE.read_text())
    assert set(ref) == set(run.COMMANDS)
    for label, keys in run.CHECKED.items():
        assert set(ref[label]) == set(keys)


def test_check_admits_drift_and_catches_changed_verdicts():
    ref = {"ok": True, "gronwall_c": [-2.0457221214343297], "slack_min": 0.0}
    drift = {"ok": True, "gronwall_c": [-2.0457221214343297 * (1 + 3e-10)], "slack_min": -1e-18}
    assert run.mismatches(ref, drift) == []
    assert run.mismatches(ref, dict(drift, ok=False))
    assert run.mismatches(ref, dict(drift, gronwall_c=[-2.05]))
    assert run.mismatches(ref, dict(drift, gronwall_c=[]))
    assert run.mismatches({"n": 0}, {"n": False})


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "apriori",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
