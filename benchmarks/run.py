"""nsflab benchmark: the CLI studies as a user runs them, end to end and per layer.

    python3 benchmarks/run.py --workload wsu3 --seed 0 --seconds 10 --trace 0

Every command runs in a fresh interpreter (``benchmarks/child.py``), one at
a time, single-threaded (``OMP_NUM_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``),
with nsflab imported from ``src/`` of this checkout; nothing is installed.
``--seed`` is forwarded as ``--seed`` to every command.  Only
``verify-thermo`` samples with it; every other study is deterministic by
design, so the seed changes no other input.

``--trace 0`` repeats whole passes over the workload's commands until
``--seconds`` have gone by (at least one pass) and reports, as medians over
passes: ``study_s`` (summed ``cli.main`` entry-to-return seconds),
``setup_s`` (the command count times the median seconds from process spawn
to ``nsflab.cli`` imported, over at least ``SETUP_SAMPLES`` processes) and
``peak_rss_mb`` (the largest peak resident set of one command).

``--trace 1`` runs one pass with every layer wrapped (``tracer.py``) and
reports per-layer counts and times, plus the tracing overhead against the
untraced ``study_s`` medians recorded earlier in this checkout (or against
an untraced pass run first, when there are none).

Every command's outputs are checked against ``reference.json``; a command
fails when it exits non-zero or misses that check.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the environment,
``failed_share`` and per-command details, which are also kept under
``.bench_runs/`` with the command outputs and spans.

``--record-reference`` reruns every command at seed 0 and rewrites
``reference.json``; do that only for a verdict change that is meant.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCE = HERE / "reference.json"

# label -> nsflab arguments; each workload is a sequence of labels
COMMANDS = {
    "wsu-3": ["wsu", "--theorem", "3"],
    "apriori": ["apriori"],
    "wsu-1": ["wsu", "--theorem", "1"],
    "wsu-2": ["wsu", "--theorem", "2"],
    "simulate": ["simulate"],
    "verify-thermo": ["verify-thermo"],
    "mv-check": ["mv-check"],
    "relenergy": ["relenergy"],
    "defect-study": ["defect-study"],
}
WORKLOADS = {
    # molecular-radiation EOS, forced 2D radiative_decay runs: forcings,
    # Newton inversion and the relative-energy report dominate
    "wsu3": ["wsu-3"],
    # same EOS on 2D grids but unforced: inversion without forcings or
    # relative-energy reports (the bypass case for those layers)
    "apriori": ["apriori"],
    # perfect-gas 1D studies: closed-form inversion (the bypass case for an
    # inversion change), weak-form clauses, defect bundles, EOS validator,
    # snapshot and CSV writers, and seven sympy profile builds
    "pg-suite": ["wsu-1", "wsu-2", "simulate", "verify-thermo", "mv-check",
                 "relenergy", "defect-study"],
}

# verdict keys compared with reference.json; "series.final" is the last row
# of series.csv (the final conserved totals), "seed" is compared with the
# forwarded seed.  The apriori block terms and the smooth defects integrate
# whole trajectories, so they register a changed time step that the budget
# totals and the oscillation defect do not.
CHECKED = {
    "wsu-1": ("ok", "accepted", "dirac_sup", "gronwall_c"),
    "wsu-2": ("ok", "accepted", "dirac_sup", "gronwall_c"),
    "wsu-3": ("ok", "accepted", "dirac_sup", "gronwall_c"),
    "apriori": ("ok", "accepted", "totals", "terms.shear_block", "terms.bulk_block",
                "terms.conduction_block"),
    "simulate": ("completed", "levels", "series.final"),
    "verify-thermo": ("ok", "seed", "checks.convexity_violations",
                      "checks.stability_de_dtheta", "checks.stability_dp_drho"),
    "mv-check": ("ok", "clauses.continuity.max_abs", "clauses.momentum.max_abs",
                 "clauses.entropy.min", "clauses.ballistic.min",
                 "clauses.velocity_compat.max_abs", "clauses.temperature_compat.max_abs"),
    "relenergy": ("ok", "slack_min", "gronwall_c"),
    "defect-study": ("ok", "accepted", "osc_d", "smooth_d"),
}
# admits the <= 3e-10 relative drift of a reordered but equivalent
# computation; a changed verdict moves these numbers far more
RTOL = 1e-8
ATOL = 1e-13

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
ENV_OVERRIDES = {"PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
                 "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Runner:
    """Spawns commands one at a time under a common deadline."""

    def __init__(self, workdir: Path, seed: int, deadline: float):
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "NSFLAB_OUT"}
        self.env.update(ENV_OVERRIDES)
        self.spawned = 0

    def spawn(self, cli_args: list[str], trace_id: str | None = None) -> tuple[Path, dict | None]:
        """Run ``child.py`` once; return its directory and result (None on failure).

        A command writes its outputs under ``OUT`` in that directory.
        """
        self.spawned += 1
        rundir = self.workdir / f"{self.spawned:03d}"
        rundir.mkdir(parents=True)
        result = rundir / "result.json"
        if cli_args:
            cli_args = [*cli_args, "--out", str(rundir / "OUT"), "--seed", str(self.seed)]
        trace = ["--trace", trace_id] if trace_id is not None else []
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(result), *trace, "--", *cli_args]
        start = time.monotonic()
        try:
            with open(rundir / "log.txt", "wb") as log:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            return rundir, None
        if proc.returncode != 0 or not result.is_file():
            return rundir, None
        data = json.loads(result.read_text())
        data["setup_s"] = data["ready"] - start
        return rundir, data

    def probe(self) -> float:
        """Seconds from spawn to ``nsflab.cli`` imported, in a process that stops there."""
        _, data = self.spawn([])
        if data is None:
            raise RuntimeError("set-up probe failed; see the logs under " + str(self.workdir))
        return data["setup_s"]

    def command(self, label: str, trace_id: str | None = None) -> dict:
        """Run one labelled command and check its outputs."""
        rundir, data = self.spawn(COMMANDS[label], trace_id)
        rec = {"label": label, "dir": str(rundir.relative_to(ROOT)), "ok": False}
        if data is None:
            rec["problems"] = ["no result (crashed or timed out)"]
            return rec
        rec.update(study_s=data["study_s"], setup_s=data["setup_s"], rc=data["rc"],
                   rss_mb=data["maxrss_kb"] / 1024.0, cpu_s=data["cpu_s"])
        problems = [] if data["rc"] == 0 else [f"exit code {data['rc']}"]
        problems += check_outputs(label, rundir / "OUT", self.seed)
        rec["ok"] = not problems
        rec["problems"] = problems
        return rec


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def key_numbers(label: str, out: Path, seed: int) -> dict:
    """The verdict values named in ``CHECKED`` for one command's output root."""
    (cmd_dir,) = [p for p in out.iterdir() if p.is_dir()]
    verdict = json.loads((cmd_dir / "verdict.json").read_text())
    got = {}
    for key in CHECKED[label]:
        if key == "series.final":
            with open(cmd_dir / "series.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            got[key] = dict(zip(rows[0], map(float, rows[-1])))
            continue
        value = verdict
        for part in key.split("."):
            value = value[part]
        got[key] = (value == seed) if key == "seed" else value
    return got


def mismatches(ref, got, path: str = "") -> list[str]:
    """Differences between reference and output values, as readable lines."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}" if path else k)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: {got!r} != {ref!r}"]
        return [m for k, (r, g) in enumerate(zip(ref, got)) for m in mismatches(r, g, f"{path}[{k}]")]
    if isinstance(ref, (bool, str)) or ref is None:
        return [] if type(got) is type(ref) and got == ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if got == ref or math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL):
        return []
    return [f"{path}: {got!r} differs from reference {ref!r}"]


def check_outputs(label: str, out: Path, seed: int) -> list[str]:
    try:
        got = key_numbers(label, out, seed)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable outputs: {err!r}"]
    return mismatches(json.loads(REFERENCE.read_text())[label], got)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_pass(runner: Runner, labels: list[str], trace_id: str | None = None) -> list[dict]:
    return [runner.command(label, None if trace_id is None else f"{trace_id}/{label}")
            for label in labels]


def untraced(runner: Runner, workload: str, seconds: float) -> tuple[list[list[dict]], dict]:
    labels = WORKLOADS[workload]
    start = time.monotonic()
    runner.probe()  # warm-up, not measured: bytecode and page caches
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(runner, labels))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > runner.deadline - 10.0:
            break
    setups = [r["setup_s"] for p in passes for r in p if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.probe())
    complete = [p for p in passes if all(r["ok"] for r in p)] or passes
    metrics = {
        "study_s": (statistics.median(sum(r.get("study_s", 0.0) for r in p) for p in complete), "s"),
        "setup_s": (len(labels) * statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(r.get("rss_mb", 0.0) for r in p) for p in complete), "MB"),
    }
    history = RUNS / workload / "untraced-study-s.json"
    recorded = json.loads(history.read_text()) if history.is_file() else []
    history.write_text(json.dumps(recorded + [metrics["study_s"][0]]))
    return passes, metrics


def traced(runner: Runner, workload: str, seed: int) -> tuple[list[list[dict]], dict]:
    labels = WORKLOADS[workload]
    history = RUNS / workload / "untraced-study-s.json"
    runner.probe()  # warm-up, not measured
    if history.is_file():
        baseline = statistics.median(json.loads(history.read_text()))
        passes = []
    else:
        passes = [run_pass(runner, labels)]
        baseline = sum(r.get("study_s", 0.0) for r in passes[0])
    traced_pass = run_pass(runner, labels, trace_id=f"{workload}/seed-{seed}")
    passes.append(traced_pass)

    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for rec in traced_pass:
        path = ROOT / rec["dir"] / "result.json.spans"
        if not Path(str(path) + ".json").is_file():
            continue
        layers, spans, counts = tracer.load(str(path))
        for layer, vals in tracer.layer_totals(layers, spans).items():
            acc = totals.setdefault(layer, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            for k, v in vals.items():
                acc[k] += v
        for k, v in counts.items():
            counters[k] = counters.get(k, 0) + v
    study = sum(r.get("study_s", 0.0) for r in traced_pass)
    return passes, layer_metrics(totals, counters, study, baseline)


def layer_metrics(totals: dict, counters: dict, study: float, baseline: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from summed spans and counters."""
    def get(layer: str, field: str) -> float:
        return totals.get(layer, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    inv = "thermo.invert_internal_energy"
    for layer in (inv, "thermo.eos", "manufactured.forcing", "manufactured.field",
                  "manufactured.build", "grid.sync_physical", "grid.operators",
                  "grid.harmonic_extension", "relenergy.report"):
        m[f"{layer}.calls"] = (get(layer, "calls"), "count")
        m[f"{layer}.time_s"] = (get(layer, "time_s"), "s")
    m[f"{inv}.iterations"] = (counters.get(f"{inv}.iterations", 0), "count")
    m[f"{inv}.evals_per_cell"] = (ratio(counters.get(f"{inv}.cells_evaluated", 0),
                                        counters.get(f"{inv}.cells", 0)), "ratio")
    m["solver.simulate.calls"] = (get("solver.simulate", "calls"), "count")
    m["solver.step.calls"] = (get("solver.step", "calls"), "count")
    m["solver.step.time_s"] = (get("solver.step", "time_s"), "s")
    m["solver.rhs.calls"] = (get("solver.rhs", "calls"), "count")
    m["solver.rhs.self_s"] = (get("solver.rhs", "self_s"), "s")
    m["solver.rhs_per_step"] = (ratio(get("solver.rhs", "calls"), get("solver.step", "calls")), "ratio")
    m["solver.cell_steps"] = (counters.get("solver.cell_steps", 0), "count")
    m["solver.stable_dt.time_s"] = (get("solver.stable_dt", "time_s"), "s")
    m["relenergy.report.levels"] = (counters.get("relenergy.report.levels", 0), "count")
    for layer in ("young.dirac_from_trajectory", "young.clause.continuity",
                  "young.clause.momentum", "young.clause.entropy", "young.clause.ballistic",
                  "young.clause.velocity_compat", "young.clause.temperature_compat",
                  "young.defect_from_refinement", "young.calibrate_kp_constant"):
        m[f"{layer}.time_s"] = (get(layer, "time_s"), "s")
    m["experiments.run.self_s"] = (get("experiments.run", "self_s"), "s")
    m["reports.write.time_s"] = (get("reports.write", "time_s"), "s")
    m["reports.write.bytes"] = (counters.get("reports.write.bytes", 0), "B")
    m["trace.study_s"] = (study, "s")
    m["trace.overhead_s"] = (study - baseline, "s")
    return m


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for dist in ("numpy", "scipy", "sympy"):
        env[dist] = metadata.version(dist)
    return env


def record_reference() -> int:
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workdir, 0, time.monotonic() + 600.0)
    ref = {}
    for label in COMMANDS:
        rundir, data = runner.spawn(COMMANDS[label])
        if data is None or data["rc"] != 0:
            print(f"{label} failed; see {rundir}", file=sys.stderr)
            return 1
        ref[label] = key_numbers(label, rundir / "OUT", 0)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "nsflab" / "cli.py").is_file():
        print(f"no nsflab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    workdir = RUNS / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, args.seed, start + RUN_LIMIT_S)
    if args.trace:
        passes, metrics = traced(runner, args.workload, args.seed)
    else:
        passes, metrics = untraced(runner, args.workload, args.seconds)

    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "failed_share": failed / len(records),
              "environment": environment(), "commands": records,
              "wall_s": time.monotonic() - start}
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
