"""Output checks applied to every benchmark run.

Each check returns a list of problems (empty when the run is correct), so a
run that fails counts as a failed run instead of stopping the benchmark.

* :func:`check_records` — finite loss and accuracy at every history record.
* :class:`EnergyObserver` — watches ``EnergyTracker.record_round`` from the
  outside and flags any worker whose per-round transmit energy exceeds the
  budget ``energy_budget_j``.
* :func:`replay_schedule` / :func:`check_schedule` — the commit count (and
  the fault counters) that the latency and client-state models fix, found
  by replaying the event loop's timing without training anything.
* :func:`history_fingerprint` — an exact text form of a history, so two
  runs can be compared bit for bit.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "EnergyObserver",
    "Schedule",
    "check_records",
    "check_schedule",
    "history_fingerprint",
    "replay_schedule",
]


def check_records(history: Any) -> List[str]:
    """Every record must carry a finite loss and an accuracy in [0, 1]."""
    problems = []
    if not history.records:
        problems.append("history has no records")
    for r in history.records:
        if not (math.isfinite(r.loss) and math.isfinite(r.accuracy)):
            problems.append(
                f"round {r.round_index}: non-finite loss/accuracy ({r.loss}, {r.accuracy})"
            )
        elif not 0.0 <= r.accuracy <= 1.0:
            problems.append(f"round {r.round_index}: accuracy {r.accuracy} outside [0, 1]")
    return problems


class EnergyObserver:
    """Wraps one ``EnergyTracker`` instance's ``record_round`` and checks it.

    The tracker's behaviour is unchanged: the observer forwards every call
    and only reads the per-worker energies it was given.
    """

    #: Relative slack for float rounding in ``(d·σ/h)²·‖w‖²`` at the cap.
    REL_TOL = 1e-9

    def __init__(self, tracker: Any, budget_j: float) -> None:
        self.budget_j = float(budget_j)
        self.rounds = 0
        self.max_energy_j = 0.0
        self.violations: List[str] = []
        inner = tracker.record_round

        def record_round(worker_ids: Sequence[int], energies: Sequence[float]) -> float:
            self.observe(worker_ids, energies)
            return inner(worker_ids, energies)

        tracker.record_round = record_round

    def observe(self, worker_ids: Sequence[int], energies: Sequence[float]) -> None:
        self.rounds += 1
        values = np.asarray(energies, dtype=np.float64)
        if values.size == 0:
            return
        self.max_energy_j = max(self.max_energy_j, float(values.max()))
        limit = self.budget_j * (1.0 + self.REL_TOL)
        for wid, e in zip(worker_ids, values.tolist()):
            if not e <= limit:  # also catches NaN
                self.violations.append(
                    f"aggregation {self.rounds}: worker {wid} spent {e:.6g} J "
                    f"> budget {self.budget_j:g} J"
                )

    def problems(self) -> List[str]:
        return list(self.violations)


@dataclass
class Schedule:
    """What the timing and client-state models fix for one run."""

    commits: int
    workers_dropped: int
    partial_updates: int
    quorum_retries: int
    quorum_skips: int
    groups_parked: int


def replay_schedule(trainer: Any, max_rounds: int, max_time: Optional[float]) -> Schedule:
    """Replay the grouped event loop's timing with no training at all.

    Group ready times come from the latency table, uploads from the
    mechanism's ``upload_time`` and the shared-uplink queue, and faults from
    the client-state model's keyed draws — all pure functions of their
    keys — so the replay needs nothing the run computed.
    """
    exp = trainer.exp
    groups = [np.asarray(g, dtype=np.int64) for g in trainer.groups]
    latency = exp.latency
    cs = exp.clientstate
    if cs is not None and cs.is_always_on:
        cs = None
    fault = exp.fault
    n_groups = len(groups)
    seqs = [0] * n_groups
    retries = [0] * n_groups
    failures = [0] * n_groups
    rosters: Dict[int, tuple] = {}
    counts = dict(dropped=0, partial=0, retries=0, skips=0, parked=0)

    def compute_time(g: int, label: int, members: np.ndarray) -> float:
        return float(latency.sample_times(members, label).max())

    def quorum(g: int) -> int:
        return max(1, math.ceil(fault.quorum_fraction * len(groups[g])))

    def register_failure(g: int) -> str:
        failures[g] += 1
        if failures[g] >= fault.max_consecutive_failures:
            counts["parked"] += 1
            return "park"
        if retries[g] < fault.max_retries:
            retries[g] += 1
            counts["retries"] += 1
            return "retry"
        retries[g] = 0
        counts["skips"] += 1
        return "skip"

    def dispatch(queue: list, g: int, start: float, label: int) -> None:
        if cs is None:
            heapq.heappush(queue, (start + compute_time(g, label, groups[g]), g))
            return
        while True:
            seq = seqs[g]
            seqs[g] += 1
            mask = np.asarray(cs.availability_mask(groups[g], label, seq), dtype=bool)
            active = groups[g][mask]
            if active.size >= quorum(g):
                retries[g] = failures[g] = 0
                rosters[g] = (active, label, seq)
                heapq.heappush(queue, (start + compute_time(g, label, active), g))
                return
            action = register_failure(g)
            if action == "park":
                return
            start += fault.retry_backoff
            if action == "skip":
                start += compute_time(g, label, groups[g])

    queue: list = []
    for g in range(n_groups):
        dispatch(queue, g, 0.0, 1)
    commits = 0
    busy_until = 0.0
    while queue:
        ready, g = heapq.heappop(queue)
        if max_time is not None and ready > max_time:
            break
        members = groups[g]
        if cs is not None:
            roster, label, seq = rosters[g]
            survive = np.asarray(cs.survival_mask(roster, label, seq), dtype=bool)
            survivors = roster[survive]
            counts["dropped"] += int(roster.size - survivors.size)
            if survivors.size < quorum(g):
                if register_failure(g) != "park":
                    dispatch(queue, g, ready + fault.retry_backoff, commits + 1)
                continue
            retries[g] = failures[g] = 0
            fractions = np.asarray(cs.completion_fractions(survivors, label, seq))
            counts["partial"] += int(np.count_nonzero(fractions < 1.0))
            members = survivors
        commits += 1
        update = max(ready, busy_until) + float(trainer.upload_time(members.tolist(), commits))
        busy_until = update
        dispatch(queue, g, update, commits + 1)
        if commits >= max_rounds or (max_time is not None and update >= max_time):
            break
    return Schedule(
        commits=commits,
        workers_dropped=counts["dropped"],
        partial_updates=counts["partial"],
        quorum_retries=counts["retries"],
        quorum_skips=counts["skips"],
        groups_parked=counts["parked"],
    )


def check_schedule(trainer: Any, history: Any, expected: Schedule) -> List[str]:
    """The run's commit count and fault counters must match the replay."""
    observed = Schedule(
        commits=int(trainer.scheduler.current_round),
        workers_dropped=history.workers_dropped,
        partial_updates=history.partial_updates,
        quorum_retries=history.quorum_retries,
        quorum_skips=history.quorum_skips,
        groups_parked=history.groups_parked,
    )
    if observed == expected:
        return []
    return [f"schedule mismatch: run {observed} vs timing replay {expected}"]


def history_fingerprint(history: Any) -> str:
    """Exact JSON text of a history (floats keep every digit; NaN is spelled out)."""
    return json.dumps(history.to_dict(), sort_keys=True)
