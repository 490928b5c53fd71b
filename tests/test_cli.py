"""Tests for the repro-bench command-line interface."""

import dataclasses
import json
import os
import re

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.runtime.memory import MemoryStats
from repro.runtime.system import RuntimeStats

GLOSSARY = os.path.join(os.path.dirname(__file__), "..", "docs", "operations.md")


def test_describe_prints_cluster(capsys):
    assert main(["describe", "--nodes", "2", "--gpus", "4"]) == 0
    out = capsys.readouterr().out
    assert "2 node(s) x 4 GPU(s)" in out
    assert "GPU memory" in out and "InfiniBand" in out


def test_run_workload_prints_table(capsys):
    assert main(["run", "black_scholes", "--n", "2e8", "--nodes", "1", "--gpus", "2"]) == 0
    out = capsys.readouterr().out
    assert "black_scholes" in out
    assert "throughput" in out
    assert "GPU memory limit" in out


def test_functional_run_checks_its_answer(capsys, monkeypatch):
    args = ["run", "hotspot3", "--n", "4096", "--nodes", "2", "--gpus", "2",
            "--mode", "functional"]
    assert main(args) == 0
    capsys.readouterr()
    from repro.kernels.hotspot import HotSpotTripleWorkload

    monkeypatch.setattr(HotSpotTripleWorkload, "verify", lambda self: False)
    assert main(args) == 1
    assert "does not match the NumPy reference" in capsys.readouterr().err


def test_functional_serve_checks_its_answers(capsys, monkeypatch, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([
        {"arrival": 0.0, "tenant": 0, "workload": "hotspot3", "n": 128 * 128,
         "params": {"iterations": 2}},
        {"arrival": 0.0, "tenant": 1, "workload": "kmeans2", "n": 8192,
         "params": {"iterations": 2}},
    ]))
    args = ["serve", "--trace", str(trace), "--tenants", "2", "--gpus", "2",
            "--mode", "functional"]
    assert main(args) == 0
    capsys.readouterr()
    from repro.kernels.kmeans import KMeansTwoPhaseWorkload

    monkeypatch.setattr(KMeansTwoPhaseWorkload, "verify", lambda self: False)
    assert main(args) == 1
    assert capsys.readouterr().err.endswith(
        "does not match the NumPy reference: 1 (kmeans2, tenant 1)\n")


def test_serve_stats_json_is_runtime_stats_with_tenant_views(tmp_path):
    path = tmp_path / "serve.json"
    assert main(["serve", "--trace", "seed=1,jobs=6,rate=200", "--tenants", "2",
                 "--gpus", "2", "--mode", "simulate", "--stats-json", str(path)]) == 0
    payload = json.loads(path.read_text())
    # the schema of run --stats-json, plus the serving report and tenant views
    assert set(payload) == set(RuntimeStats().to_dict()) | {"serving", "tenants"}
    assert payload["serving"]["jobs_completed"] == 6
    tenants = payload["tenants"]
    assert set(tenants) == {"tenant-0", "tenant-1"}
    assert payload["window_flushes"] == sum(t["window_flushes"] for t in tenants.values()) > 0


def test_counter_glossary_names_every_stats_field():
    """Every RuntimeStats and MemoryStats field has a row in the glossary of
    ``--stats-json`` output, and its tables' first column names only fields."""
    with open(GLOSSARY, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## RuntimeStats counter glossary", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    fields = {f.name for cls in (RuntimeStats, MemoryStats) for f in dataclasses.fields(cls)}
    assert names == fields


def test_sweep_prints_one_row_per_size(capsys):
    assert main(["sweep", "md5", "--sizes", "1e9,4e9", "--gpus", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 4
    assert "1e+09" in out or "1e+9" in out or "1e9" in out or " 1e" in out


def test_sweep_rejects_empty_sizes(capsys):
    assert main(["sweep", "md5", "--sizes", ","]) == 2


def test_figures_lists_every_figure(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for key in FIGURES:
        assert key in out
    assert out.count("-> python benchmarks/gates.py paper\n") == len(FIGURES) - 1
    assert "-> python benchmarks/gates.py paper_full\n" in out
    assert "pytest" not in out


def test_advise_prints_distributions(capsys):
    code = main([
        "advise",
        "--annotation", "global i => read input[i-1:i+1], write output[i]",
        "--shape", "input=1000000",
        "--shape", "output=1000000",
        "--grid", "1000000",
        "--block", "256",
        "--gpus", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "StencilDist" in out
    assert "work:" in out and "BlockWorkDist" in out


def test_advise_requires_shapes_for_all_arrays(capsys):
    code = main([
        "advise",
        "--annotation", "global i => read a[i], write b[i]",
        "--shape", "a=100",
    ])
    assert code == 2
    assert "missing --shape" in capsys.readouterr().err


def test_advise_rejects_malformed_shape(capsys):
    code = main([
        "advise",
        "--annotation", "global i => write b[i]",
        "--shape", "b",
    ])
    assert code == 2


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "not-a-workload", "--n", "1"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "repro" in capsys.readouterr().out
