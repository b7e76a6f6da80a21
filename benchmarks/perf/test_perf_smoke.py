"""Perf-harness smoke tests: the benchmark tiers run and the vectorized
paths are not slower than the scalar reference.

These are CI guards, not the real measurement — they use the ``--quick``
sizes and assert loose bounds so machine noise cannot flake them.  The
real numbers live in BENCH_perf_v1.json (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.experiments.bench import (
    bench_aggregation_micro,
    bench_cnn_mnist_mini,
    bench_grouped_round,
    bench_grouped_round_cnn,
    write_bench_results,
)


def test_grouped_round_tier_reports_speedup():
    result = bench_grouped_round(10, rounds_per_group=1, repeats=1)
    assert result["num_workers"] == 10
    assert result["scalar_s_per_round"] > 0
    assert result["batched_s_per_round"] > 0
    # The batched engine must not regress below the scalar path (the real
    # ≥3x acceptance check at 50 workers runs in the non-quick bench).
    assert result["speedup"] > 1.0


def test_grouped_round_cnn_tier_reports_speedup():
    result = bench_grouped_round_cnn(10, rounds_per_group=1, repeats=1)
    assert result["num_workers"] == 10
    assert result["scalar_s_per_round"] > 0
    assert result["batched_s_per_round"] > 0
    # The batched Conv2D/MaxPool2D kernels must not regress below the
    # scalar path (the ≥2x acceptance check runs in the non-quick bench).
    assert result["speedup"] > 1.0


def test_aggregation_micro_tier_reports_speedup():
    result = bench_aggregation_micro(dim=20_000, group_size=8, repeats=2)
    assert result["aircomp_vectorized_s"] > 0
    assert result["aircomp_speedup"] > 1.0
    assert result["average_speedup"] > 1.0


def test_cnn_mini_tier_runs():
    result = bench_cnn_mnist_mini(max_rounds=2)
    assert result["scalar_s"] > 0 and result["vectorized_s"] > 0


def test_bench_suite_appends_json(tmp_path):
    record = {
        "timestamp": "t",
        "quick": True,
        "grouped_round": [],
        "cnn_mnist_mini": {},
        "aggregation_micro": {},
    }
    path = write_bench_results(record, label="smoke", output_dir=tmp_path)
    assert path.name == "BENCH_smoke.json"
    path2 = write_bench_results(record, label="smoke", output_dir=tmp_path)
    import json

    data = json.loads(path2.read_text())
    assert len(data["runs"]) == 2
