"""Self-tests of the benchmark: specs, output checks, span maths, entry point.

Each test runs in seconds: the workload specs run with a short simulated
budget (a handful of commits), everything else uses hand-built inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import run_mechanism
from repro.fl.history import RoundRecord, TrainingHistory
from repro.channel.energy import EnergyTracker

from benchmarks.workloads import fig4_config
from perfbench import bench
from perfbench.bench import END_TO_END_UNITS, ROOT, Workload, run_scenario, workload_names
from perfbench.checks import (
    EnergyObserver,
    Schedule,
    check_records,
    check_schedule,
    history_fingerprint,
)
from perfbench.layers import PER_LAYER_UNITS
from perfbench.spans import Span, Tracer, patched, self_times, totals_by_name

#: A few commits per workload: the first aggregations land at ~60 s (fig4),
#: ~6 s (fig8) and ~150 s (fig5) of simulated time.
SHORT_BUDGET = {"fig4_cnn_mnist": 200.0, "fig8_lr_n100_xi0": 15.0, "fig5_cnn_cifar_faults": 400.0}


def short_scenario(name: str, seed: int = 0):
    return Workload.load(name).scenario(seed).with_(**{"training.max_time": SHORT_BUDGET[name]})


# ----------------------------------------------------------------------
# Workload specs
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workload_names()
    for w in spec["workloads"]:
        assert w["why"] == Workload.load(w["name"]).why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(SHORT_BUDGET))
def test_spec_builds_and_runs_a_few_commits(name):
    workload = Workload.load(name)
    record, trainer, _ = run_scenario(short_scenario(name, seed=1), workload.accuracy_target)
    assert record.problems == []
    assert trainer.scheduler.current_round >= 2
    assert record.seed == 1


def test_fig4_spec_matches_the_experiment_config_path():
    budget = SHORT_BUDGET["fig4_cnn_mnist"]
    _, _, history = run_scenario(short_scenario("fig4_cnn_mnist"), 0.5)
    legacy = run_mechanism(fig4_config(max_time=budget), "air_fedga")
    assert len(history.records) >= 3
    assert history_fingerprint(history) == history_fingerprint(legacy)


def test_traced_run_is_bit_identical_and_spans_every_layer():
    scenario = short_scenario("fig5_cnn_cifar_faults")
    plain, _, _ = run_scenario(scenario, 0.15)
    tracer = Tracer()
    traced, _, _ = run_scenario(scenario, 0.15, tracer)
    assert traced.problems == []
    assert traced.fingerprint == plain.fingerprint
    names = {s.name for s in tracer.spans}
    assert {
        "setup", "fl.run", "data.dataset", "data.partition", "core.population",
        "core.grouping", "fl.local_update", "fl.evaluate", "fl.aggregate",
        "channel.aircomp", "channel.gains", "core.power_control", "sim.latency",
        "sim.clientstate",
    } <= names
    assert tracer.counters["nn.samples_trained"] > 0


# ----------------------------------------------------------------------
# Output checks fire on bad outputs
# ----------------------------------------------------------------------
def _history(*accuracies_and_losses):
    history = TrainingHistory(mechanism="test")
    for i, (acc, loss) in enumerate(accuracies_and_losses):
        history.append(RoundRecord(round_index=i, time=float(i), loss=loss, accuracy=acc))
    return history


def test_record_check_fires_on_nan():
    assert check_records(_history((0.1, 2.3), (0.2, 2.0))) == []
    problems = check_records(_history((0.1, 2.3), (math.nan, 2.0), (0.3, math.inf)))
    assert len(problems) == 2
    assert "round 1" in problems[0] and "round 2" in problems[1]


def test_energy_check_fires_on_an_over_budget_round():
    tracker = EnergyTracker(num_workers=3)
    observer = EnergyObserver(tracker, budget_j=10.0)
    tracker.record_round([0, 1], [9.5, 10.0])
    assert observer.problems() == []
    tracker.record_round([1, 2], [3.0, 10.5])
    assert observer.rounds == 2
    assert len(observer.problems()) == 1 and "worker 2" in observer.problems()[0]
    # The tracker still records every round it is given.
    assert tracker.per_worker.tolist() == [9.5, 13.0, 10.5]


def test_schedule_check_fires_on_a_wrong_commit_count():
    _, trainer, history = run_scenario(short_scenario("fig4_cnn_mnist"), 0.5)
    commits = trainer.scheduler.current_round
    expected = Schedule(commits, 0, 0, 0, 0, 0)
    assert check_schedule(trainer, history, expected) == []
    wrong = Schedule(commits + 1, 0, 0, 0, 0, 0)
    assert len(check_schedule(trainer, history, wrong)) == 1


# ----------------------------------------------------------------------
# Span maths
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),   # overlaps a: [1, 5] counts once
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped to [8, 10]
        Span("d", 2.5, 3.5, 2, 0),   # grandchild: only its own parent loses it
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])
    assert totals_by_name(spans + [Span("a", 20.0, 21.0, -1, 0)])["a"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_counts():
    tracer = Tracer(run=3)
    wrapped = tracer.wrap("call", lambda x: x + 1, lambda t, a, k, r: t.counters.update(n=r))
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert wrapped(41) == 42
    with tracer.span("outer"):
        pass
    assert [(s.name, s.parent, s.run) for s in tracer.finished()] == [
        ("outer", -1, 3), ("inner", 0, 3), ("call", 1, 3), ("outer", -1, 3)
    ]
    assert tracer.counters["n"] == 42


class _Base:
    def hook(self):
        return "base"


class _Child(_Base):
    pass


def test_patched_restores_module_and_inherited_attributes():
    import perfbench.checks as module

    original = module.check_records
    with patched([
        (module, "check_records", lambda fn: "patched"),
        (_Child, "hook", lambda fn: lambda self: "child"),
    ]):
        assert module.check_records == "patched"
        assert _Child().hook() == "child" and _Base().hook() == "base"
    assert module.check_records is original
    assert "hook" not in vars(_Child) and _Child().hook() == "base"


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _child_pids() -> set:
    """Processes, zombies included, whose parent is this one (Linux ``/proc``)."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]
        except OSError:  # the process ended meanwhile
            continue
        if ppid == str(os.getpid()):
            pids.add(stat.parent.name)
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs Linux /proc")
def test_a_run_that_times_out_is_failed_and_leaves_no_process(monkeypatch):
    monkeypatch.setattr(bench, "RUN_TIMEOUT_S", 0.5)
    before = _child_pids()
    session = bench.Session(Workload.load("fig4_cnn_mnist"))
    assert session.run(0) is None
    assert (session.attempted, session.failed) == (1, 1)
    assert _child_pids() == before


def test_entry_point_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_cnn_mnist",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
