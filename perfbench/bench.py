"""Whole-``Scenario`` benchmark of the Air-FedGA simulator.

One invocation measures one workload (a ``Scenario`` spec under
``perfbench/workloads/``) for one ``--seed``.  The seed fixes the scenario
seeds of ``SUB_SEEDS`` whole runs, ``seed * SUB_SEEDS + i``; the runs cycle
through them until ``--seconds`` have passed and each has run once.  Each
run is a fresh child process (``run.py`` started again with ``--child-seed``)
that the parent waits for, so its peak memory is its own, no run inherits
another's caches and no process outlives the invocation.  Every run is checked (:mod:`perfbench.checks`); a run
that fails a check counts as failed and the benchmark carries on.

``--trace 0`` reports the end-to-end metrics: each is the median of a
sub-seed's runs, averaged over the sub-seeds.  ``--trace 1`` runs pairs of
one untraced and one traced run of the first sub-seed, checks that their
histories are bit-identical, reports the per-layer metrics (medians over
the pairs) and writes the traced spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.scenario import Scenario

from .checks import (
    EnergyObserver,
    check_records,
    check_schedule,
    history_fingerprint,
    replay_schedule,
)
from .layers import PER_LAYER_UNITS, layer_metrics, trace_targets
from .spans import Span, Tracer, patched, write_spans

__all__ = ["SUB_SEEDS", "Workload", "RunRecord", "run_scenario", "main"]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
OUT_DIR = BENCH_DIR / "out"

#: Whole runs per invocation with distinct scenario seeds.
SUB_SEEDS = 3

#: A run's child process is killed (and the run counted as failed) after
#: this long; one run takes about 10 s.
RUN_TIMEOUT_S = 150.0

#: Builds timed per run for ``setup_s``: the median drops a fresh process's
#: one-off costs and most of the host's scheduling noise.
SETUPS = 3

#: End-to-end metrics and their units, in report order (``BENCHMARK.json``).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rate": "1",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not bounded: their seed-to-seed
#: spread is far wider than any bound (see README.md).
QUALITY_UNITS = {
    "final_accuracy": "ratio",
    "sim_time_to_target_s": "s",
    "energy_to_target_j": "J",
    "target_missed": "runs",
    "error_rate": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """A stored ``Scenario`` spec (seed left open), its reason and its accuracy target."""

    name: str
    why: str
    accuracy_target: float
    spec: Dict[str, Any]

    @classmethod
    def load(cls, name: str) -> "Workload":
        data = json.loads((WORKLOAD_DIR / f"{name}.json").read_text())
        if "seed" in data["scenario"]:
            raise ValueError(f"workload {name!r} must leave the seed to the caller")
        return cls(name, data["why"], float(data["accuracy_target"]), data["scenario"])

    def scenario(self, seed: int) -> Scenario:
        return Scenario.from_dict({**self.spec, "seed": seed})


def workload_names() -> List[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


def sub_seeds(seed: int) -> List[int]:
    return [seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]


@dataclass
class RunRecord:
    """Measurements and check results of one whole run."""

    seed: int
    setup_s: float
    run_s: float
    sim_time_s: float
    final_accuracy: float
    time_to_target_s: float
    energy_to_target_j: float
    target_reached: bool
    peak_rss_mb: float
    fingerprint: str
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_scenario(
    scenario: Scenario,
    accuracy_target: float,
    tracer: Optional[Tracer] = None,
    setups: int = 1,
) -> Tuple[RunRecord, Any, Any]:
    """Build and run one scenario; return its record, trainer and history.

    Set-up is ``Scenario.build`` (dataset, partition, latency, channel,
    client-state model, population and trainer with its grouping).  It is
    timed ``setups`` times and ``setup_s`` is the median; the last build is
    the one that runs.  The run is ``trainer.run`` under the scenario's
    budget.  With a tracer, the layer boundaries are wrapped during the last
    build and the run only (the checks afterwards run untraced), and those
    two phases are the root spans ``setup`` and ``fl.run``.
    """
    training = scenario.training

    def phase(name: str) -> Any:
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    setup_times = []
    for _ in range(setups - 1):
        t0 = time.perf_counter()
        scenario.build().close()
        setup_times.append(time.perf_counter() - t0)
    wrappers = patched(trace_targets(tracer, scenario)) if tracer else contextlib.nullcontext()
    with wrappers:
        t0 = time.perf_counter()
        with phase("setup"):
            trainer = scenario.build()
        t1 = time.perf_counter()
        setup_times.append(t1 - t0)
        with trainer:
            energy = EnergyObserver(trainer.energy, trainer.exp.config.aircomp.energy_budget_j)
            with phase("fl.run"):
                history = trainer.run(max_rounds=training.max_rounds, max_time=training.max_time)
            t2 = time.perf_counter()

    commits = trainer.scheduler.current_round
    problems = check_records(history) + energy.problems()
    problems += check_schedule(
        trainer, history, replay_schedule(trainer, training.max_rounds, training.max_time)
    )
    if energy.rounds != commits:
        problems.append(f"energy recorded on {energy.rounds} of {commits} commits")
    if training.max_time is None or commits >= training.max_rounds:
        problems.append("run ended on its round budget, so it did not simulate max_time")
    target = accuracy_target
    reached = history.time_to_accuracy(target)
    record = RunRecord(
        seed=scenario.seed,
        setup_s=statistics.median(setup_times),
        run_s=t2 - t1,
        sim_time_s=float(training.max_time or 0.0),
        final_accuracy=history.final_accuracy,
        # A target the run never reaches is censored at the budget.
        time_to_target_s=reached if reached is not None else float(training.max_time or 0.0),
        energy_to_target_j=(
            history.energy_to_accuracy(target) if reached is not None else history.total_energy
        ),
        target_reached=reached is not None,
        # ru_maxrss (KiB on Linux): the run's own peak in a fresh process.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        fingerprint=history_fingerprint(history),
        problems=problems,
    )
    return record, trainer, history


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:  # not a git checkout, or a packed ref
        return "unknown"


def environment(workload: Workload, seed: int) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed,
        "sub_seeds": sub_seeds(seed),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": workload.scenario(seed).algorithm.dtype,
        "git_sha": _git_sha(),
    }


@dataclass
class RunOutcome:
    """What a run's process sends back: its record, and its layer figures if traced."""

    record: RunRecord
    layer: Dict[str, float]
    spans: List[Span]


def isolated_run(workload_name: str, seed: int, trace_run: Optional[int]) -> RunOutcome:
    """One whole run; traced (as span run ``trace_run``) unless that is ``None``."""
    workload = Workload.load(workload_name)
    tracer = Tracer(trace_run) if trace_run is not None else None
    record, trainer, history = run_scenario(
        workload.scenario(seed), workload.accuracy_target, tracer, setups=SETUPS
    )
    if tracer is None:
        return RunOutcome(record, {}, [])
    spans = tracer.finished()
    layer = layer_metrics(spans, tracer.counters, trainer, history)
    layer["quality.final_accuracy"] = record.final_accuracy
    layer["quality.sim_time_to_target_s"] = record.time_to_target_s
    layer["quality.energy_to_target_j"] = record.energy_to_target_j
    return RunOutcome(record, layer, spans)


class Session:
    """Runs of one invocation: counts attempts and failures, checks determinism."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.fingerprints: Dict[int, str] = {}

    def run(self, seed: int, trace_run: Optional[int] = None) -> Optional[RunOutcome]:
        """One checked run in a fresh child process; ``None`` if it failed to finish.

        ``subprocess.run`` waits for the child on every path out, and kills
        it first on a timeout or an interrupt, so no process outlives a run.
        """
        self.attempted += 1
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", self.workload.name,
                   "--seed", "0", "--child-seed", str(seed)]
        if trace_run is not None:
            command += ["--child-trace-run", str(trace_run)]
        try:
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                                   timeout=RUN_TIMEOUT_S)
            outcome: RunOutcome = pickle.loads(child.stdout)
        except Exception:  # a crashing run is a failed run, not a crashed benchmark
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        record = outcome.record
        first = self.fingerprints.setdefault(seed, record.fingerprint)
        if record.fingerprint != first:
            record.problems.append(
                f"seed {seed}: history differs from this seed's first run "
                f"({'traced' if trace_run is not None else 'untraced'} run)"
            )
        if record.problems:
            self.failed += 1
            for problem in record.problems:
                print(f"check failed (seed {seed}): {problem}", file=sys.stderr)
        return outcome


def _mean_of_medians(records: List[RunRecord], value: Any) -> float:
    """Median per sub-seed, then the mean over sub-seeds."""
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for r in records:
        by_seed[r.seed].append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def measure(workload: Workload, seed: int, seconds: float) -> Tuple[Session, Dict[str, float], Dict[str, float]]:
    """``--trace 0``: end-to-end metrics, plus the quality figures for the report."""
    session = Session(workload)
    seeds = sub_seeds(seed)
    records: List[RunRecord] = []
    start = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        outcome = session.run(seeds[i % len(seeds)])
        if outcome is not None:
            records.append(outcome.record)
        i += 1
    if not records:
        return session, {}, {}
    metrics = {
        "wall_s": _mean_of_medians(records, lambda r: r.wall_s),
        "setup_s": _mean_of_medians(records, lambda r: r.setup_s),
        "sim_rate": _mean_of_medians(records, lambda r: r.sim_time_s / r.run_s),
        "peak_rss_mb": _mean_of_medians(records, lambda r: r.peak_rss_mb),
    }
    quality = {
        "final_accuracy": _mean_of_medians(records, lambda r: r.final_accuracy),
        "sim_time_to_target_s": _mean_of_medians(records, lambda r: r.time_to_target_s),
        "energy_to_target_j": _mean_of_medians(records, lambda r: r.energy_to_target_j),
        "target_missed": float(sum(not r.target_reached for r in records)),
    }
    return session, metrics, quality


def measure_traced(workload: Workload, seed: int, seconds: float) -> Tuple[Session, Dict[str, float], List[Span]]:
    """``--trace 1``: untraced/traced pairs; per-layer metrics are medians over pairs.

    Every pair runs the first sub-seed, so counts repeat exactly and the
    medians only smooth the timings.
    """
    session = Session(workload)
    s = sub_seeds(seed)[0]
    samples: Dict[str, List[float]] = defaultdict(list)
    spans: List[Span] = []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        walls: Dict[bool, float] = {}
        # Alternate which run of the pair goes first, so drift in machine
        # speed is not charged to one side.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            outcome = session.run(s, pair if traced else None)
            if outcome is None:
                continue
            walls[traced] = outcome.record.wall_s
            # Parent indices point into this one file, across all runs.
            offset = len(spans)
            spans += [replace(sp, parent=sp.parent + offset) if sp.parent >= 0 else sp
                      for sp in outcome.spans]
            for name, value in outcome.layer.items():
                samples[name].append(value)
        if len(walls) == 2:
            samples["trace.overhead"].append(walls[True] / walls[False] - 1.0)
        pair += 1
    metrics = {name: statistics.median(samples[name]) for name in PER_LAYER_UNITS if samples[name]}
    return session, metrics, spans


def _result_line(session: Session, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def _child(workload_name: str, seed: int, trace_run: Optional[int]) -> int:
    """Body of a run's child process: stdout carries only the pickled outcome."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # anything the simulator prints must not corrupt it
    outcome = isolated_run(workload_name, seed, trace_run)
    pickle.dump(outcome, out)
    out.flush()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one scenario seed and write its pickled outcome to stdout.
    parser.add_argument("--child-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-trace-run", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.child_seed is not None:
        return _child(args.workload, args.child_seed, args.child_trace_run)

    workload = Workload.load(args.workload)
    env = environment(workload, args.seed)
    print("env " + json.dumps(env))
    if args.trace:
        session, metrics, spans = measure_traced(workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
        write_spans(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json", spans, env)
    else:
        session, metrics, quality = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
        if quality:
            shown = {**metrics, **quality, "error_rate": session.failed / session.attempted}
            shown_units = {**END_TO_END_UNITS, **QUALITY_UNITS}
            for name, value in shown.items():
                print(f"{name:<22} {value:>14.6g} {shown_units[name]}")
    if set(metrics) != set(units):
        print(f"no complete measurement: {session.failed} of {session.attempted} runs failed",
              file=sys.stderr)
        return 1
    print(_result_line(session, metrics, units))
    return 0
