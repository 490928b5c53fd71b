"""Self-tests of the benchmark, on shrunken copies of its workloads.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from bench import DETERMINISTIC_UNITS, measure, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _small(name):
    """A copy of a workload small enough for a test (same code paths)."""
    workload = copy.copy(WORKLOADS[name])
    if name == "stencil_chain":
        workload.n, workload.iterations = 4096 * 4096, 2
    elif name == "kmeans_ooc":
        # 2 x 64 MiB GPUs and 192 MiB of host for 256 MiB of points: the
        # dataset still streams through host memory and the disk tier
        workload.n, workload.iterations = 16_000_000, 4
        workload.chunk_elems = 2_000_000
        workload.gpu_cap, workload.host_cap = 64 << 20, 192 << 20
        workload.variant_count = 2
    else:
        workload.jobs, workload.variant_count, workload.setup_repeats = 12, 2, 1
    return workload


@pytest.fixture(scope="module")
def runs():
    """Two untraced and two traced runs with one seed, per workload."""
    return {
        name: [run(_small(name), 7, 0, trace) for trace in (False, False, True, True)]
        for name in WORKLOADS
    }


def _deterministic(result, trace):
    metrics = result["metrics"]
    if trace:
        names = [n for n, m in metrics.items() if m["unit"] in DETERMINISTIC_UNITS]
    else:
        names = ["virtual_s", "job_p50_vs", "job_p90_vs"]
    return {name: metrics[name]["value"] for name in names}, result["attempted"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_correct_and_no_op_fails(runs, name):
    for result in runs[name]:
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_virtual_metrics_and_counts_repeat_exactly(runs, name):
    untraced_a, untraced_b, traced_a, traced_b = runs[name]
    assert _deterministic(untraced_a, False) == _deterministic(untraced_b, False)
    assert _deterministic(traced_a, True) == _deterministic(traced_b, True)


def test_serving_changes_with_the_seed(runs):
    other = run(_small("serving_mix"), 8, 0, False)
    assert _deterministic(other, False) != _deterministic(runs["serving_mix"][0], False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_within_the_traced_pass(name):
    _, passes = measure(_small(name), 3, 0, traced=True)
    traced = [result for _, timed, result in passes if timed]
    assert traced
    for result in traced:
        assert all(value >= 0 for value in result.self_s.values())
        assert sum(result.self_s.values()) <= result.wall_s


def test_printed_names_match_benchmark_json(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for key, index in (("end_to_end", 0), ("per_layer", 2)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            printed = runs[name][index]["metrics"]
            assert set(printed) == set(declared), (key, name)
            for metric, body in printed.items():
                assert NAME.match(metric)
                assert body["unit"] == declared[metric]
                assert isinstance(body["value"], (int, float))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stencil_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
