"""Which layer boundaries the traced run times, and the per-layer metrics.

:func:`trace_targets` lists every function the traced run wraps, at the
name its caller resolves: ``Scenario.build_experiment`` calls
``registry.create`` through the module, ``BaseTrainer`` calls
``aircomp_aggregate`` and ``solve_power_control`` through its own module
globals, and the trainer reaches its hooks, the channel, the latency table
and the client-state model through class attributes.

:func:`layer_metrics` turns one traced run's spans and counters into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import registry
from repro.core import power_control
from repro.core.power_control import PowerControlCache
from repro.experiments.scenario import Scenario
from repro.fl import base
from repro.fl.base import FLExperiment
from repro.sim.latency import LatencyTable

from .spans import Span, Tracer, self_times, totals_by_name

__all__ = ["LAYER_SPANS", "PER_LAYER_UNITS", "layer_metrics", "trace_targets"]

#: Layer spans, by name; each gives the per-layer metrics ``<name>_s`` and
#: ``<name>_share``.
LAYER_SPANS = (
    "data.dataset",
    "data.partition",
    "core.population",
    "core.grouping",
    "fl.local_update",
    "fl.evaluate",
    "fl.aggregate",
    "channel.aircomp",
    "channel.gains",
    "core.power_control",
    "sim.latency",
    "sim.clientstate",
)

#: Which span each ``registry.create`` kind is timed as.
_CREATE_SPANS = {"dataset": "data.dataset", "partitioner": "data.partition"}


def _units() -> Dict[str, str]:
    units = {}
    for name in LAYER_SPANS + ("fl.event_loop_self",):
        units[f"{name}_s"] = "s"
        units[f"{name}_share"] = "ratio"
    units.update({
        "core.groups": "count",
        "core.group_size_max": "count",
        "nn.samples_trained": "count",
        "nn.us_per_sample": "us",
        "nn.samples_evaluated": "count",
        "core.power_control_iters": "count",
        "core.power_control_cache_hit_ratio": "ratio",
        "sim.workers_dropped": "count",
        "sim.partial_updates": "count",
        "sim.quorum_retries": "count",
        "fl.commits": "count",
        "fl.staleness_mean": "rounds",
        "fl.commit_interval_ms.p50": "ms",
        "fl.commit_interval_ms.p99": "ms",
        "trace.wall_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
        "quality.final_accuracy": "ratio",
        "quality.sim_time_to_target_s": "s",
        "quality.energy_to_target_j": "J",
    })
    return units


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = _units()


def _count_samples(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Mini-batch samples one ``local_update_group`` call trained on."""
    trainer, worker_ids = args[0], args[1]
    exp = trainer.exp
    sizes = trainer.worker_state.sizes[np.asarray(list(worker_ids), dtype=np.int64)]
    per_step = np.minimum(exp.batch_size, np.floor(sizes)).sum()
    tracer.counters["nn.samples_trained"] += float(per_step) * exp.local_steps


def _count_evaluated(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    exp = args[0].exp
    tracer.counters["nn.samples_evaluated"] += min(exp.max_eval_samples, exp.dataset.num_test)


def _count_iterations(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["core.power_control_iters"] += result.iterations


def trace_targets(tracer: Tracer, scenario: Scenario) -> List[Tuple[Any, str, Callable[..., Any]]]:
    """``(owner, attribute, make_wrapper)`` for every timed boundary."""
    trainer_cls = registry.get("mechanism", scenario.mechanism.name)
    channel_cls = registry.get("channel", scenario.channel.name)
    clientstate_cls = registry.get("clientstate", scenario.faults.clientstate.name)

    def create(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced_create(kind: str, *args: Any, **kwargs: Any) -> Any:
            with tracer.span(_CREATE_SPANS.get(kind, f"setup.{kind}")):
                return original(kind, *args, **kwargs)

        return traced_create

    def timed(name: str, count: Any = None) -> Callable[[Callable[..., Any]], Any]:
        return lambda original: tracer.wrap(name, original, count)

    return [
        (registry, "create", create),
        (FLExperiment, "ensure_population", timed("core.population")),
        (trainer_cls, "build_groups", timed("core.grouping")),
        (trainer_cls, "local_update_group", timed("fl.local_update", _count_samples)),
        (trainer_cls, "evaluate_vector", timed("fl.evaluate", _count_evaluated)),
        (trainer_cls, "aggregate_group", timed("fl.aggregate")),
        (base, "aircomp_aggregate", timed("channel.aircomp")),
        (channel_cls, "gains", timed("channel.gains")),
        (PowerControlCache, "solve", timed("core.power_control")),
        (base, "solve_power_control", timed("core.power_control", _count_iterations)),
        # The cache's own misses: counted, and timed inside its parent span.
        (power_control, "solve_power_control", timed("core.power_control.solve", _count_iterations)),
        (LatencyTable, "sample_times", timed("sim.latency")),
        (clientstate_cls, "availability_mask", timed("sim.clientstate")),
        (clientstate_cls, "survival_mask", timed("sim.clientstate")),
        (clientstate_cls, "completion_fractions", timed("sim.clientstate")),
    ]


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def layer_metrics(
    spans: Sequence[Span], counters: Dict[str, float], trainer: Any, history: Any
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``spans`` and ``counters`` of that run only).

    Layer times are inclusive (a span with its children); shares are those
    times over the run's wall time.  ``trace.coverage`` is the share of wall
    time that falls inside some layer span or the event loop's own code,
    i.e. everything but the set-up glue outside any layer.
    """
    selfs = self_times(spans)
    totals = totals_by_name(spans)
    own = totals_by_name(spans, selfs)
    wall = totals.get("setup", 0.0) + totals.get("fl.run", 0.0)
    out: Dict[str, float] = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = totals.get(name, 0.0)
    out["fl.event_loop_self_s"] = own.get("fl.run", 0.0)
    for name in LAYER_SPANS + ("fl.event_loop_self",):
        out[f"{name}_share"] = out[f"{name}_s"] / wall
    out["trace.wall_s"] = wall
    out["trace.coverage"] = (sum(selfs) - own.get("setup", 0.0)) / wall

    groups = trainer.groups
    out["core.groups"] = float(len(groups))
    out["core.group_size_max"] = float(max(len(g) for g in groups))
    trained = counters.get("nn.samples_trained", 0.0)
    out["nn.samples_trained"] = trained
    out["nn.us_per_sample"] = out["fl.local_update_s"] / trained * 1e6 if trained else 0.0
    out["nn.samples_evaluated"] = counters.get("nn.samples_evaluated", 0.0)
    out["core.power_control_iters"] = counters.get("core.power_control_iters", 0.0)
    lookups = trainer.pc_cache_hits + trainer.pc_cache_misses
    out["core.power_control_cache_hit_ratio"] = trainer.pc_cache_hits / lookups if lookups else 0.0
    out["sim.workers_dropped"] = float(history.workers_dropped)
    out["sim.partial_updates"] = float(history.partial_updates)
    out["sim.quorum_retries"] = float(history.quorum_retries)

    events = trainer.scheduler.history
    out["fl.commits"] = float(len(events))
    out["fl.staleness_mean"] = statistics.fmean(e.staleness for e in events) if events else 0.0
    ends = sorted(s.end for s in spans if s.name == "fl.aggregate")
    intervals = [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]
    out["fl.commit_interval_ms.p50"] = _percentile(intervals, 50)
    out["fl.commit_interval_ms.p99"] = _percentile(intervals, 99)
    return out
