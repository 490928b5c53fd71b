"""The gate harness (``benchmarks/gates.py``): its self-tests.

Against a baseline edited in memory, a one-ulp drift, a deleted record and a
ratio below its constant each fail and name the gate, arm, config and field;
the result JSON and the step summary are written before the failing exit; a
refreshed baseline passes the next run.  The paper gates' checks run on
edited copies of their committed records, with no simulation, and name the
gate, figure, config and field.  ``tests/test_serving.py`` replays the
engine gate against the committed baseline; CI's gate job replays the rest.
"""

import copy
import importlib.util
import json
import math
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "gates.py")
_SPEC = importlib.util.spec_from_file_location("gates", _PATH)
gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gates)

EXPR = f"n{gates.EXPR_N}/chunk{gates.EXPR_CHUNK}/rounds{gates.EXPR_ROUNDS}"


def _baseline():
    with open(gates.BASELINE, encoding="utf-8") as handle:
        return json.load(handle)


def _broken(baseline):
    """The baseline with one ulp on lazy's virtual time, eager's record gone and
    lazy's tasks/s far above anything this run can reach."""
    edited = copy.deepcopy(baseline)
    lazy = edited["expr"]["lazy"][EXPR]
    lazy["virtual_time"] = math.nextafter(lazy["virtual_time"], math.inf)
    lazy["tasks_per_second"] = 1e12
    del edited["expr"]["eager"][EXPR]
    return edited


def test_gate_failures_name_gate_arm_config_and_field():
    _, failures = gates.check(["expr"], _broken(_baseline()))
    report = "\n".join(failures)
    assert f"expr/lazy/{EXPR}: virtual_time " in report
    assert f"expr/eager/{EXPR}: events_processed 1950 != baseline '<missing>'" in report
    assert f"expr/lazy/{EXPR}: tasks_per_second " in report
    assert f"is below {gates.MIN_THROUGHPUT} of the baseline's" in report
    # the ulp, every field of the deleted record, the tasks/s floor
    assert len(failures) == 1 + (1 + len(gates.EXPR_COUNTERS)) + 1


def test_results_and_summary_are_written_before_the_failing_exit(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH_gates.json"
    baseline.write_text(json.dumps(_broken(_baseline())))
    summary = tmp_path / "summary.md"
    monkeypatch.setattr(gates, "BASELINE", str(baseline))
    monkeypatch.setattr(gates, "RESULT", str(tmp_path / "gates.json"))
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert gates.main(["expr"]) == 1
    result = json.loads((tmp_path / "gates.json").read_text())
    assert result["failures"] == result["gates"]["expr"]["failures"] != []
    table = summary.read_text()
    assert "| expr |" in table and "failures |" in table
    assert f"- expr/lazy/{EXPR}: virtual_time " in table


def test_a_refreshed_baseline_passes_the_next_run(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH_gates.json"
    baseline.write_text(json.dumps(_broken(_baseline())))
    monkeypatch.setattr(gates, "BASELINE", str(baseline))
    monkeypatch.setattr(gates, "RESULT", str(tmp_path / "gates.json"))
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    # The lazy arm is far below the edited tasks/s floor, so the refresh run
    # itself fails; the refreshed baseline holds this machine's rate.
    assert gates.main(["--refresh", "expr"]) == 1
    refreshed = json.loads(baseline.read_text())
    assert refreshed["engine"] == _baseline()["engine"]
    assert gates.main(["expr"]) == 0


def test_smoke_runs_the_paper_gate_and_full_adds_fig15():
    assert "paper" in gates.SUITES["smoke"]
    assert "paper_full" not in gates.SUITES["smoke"]
    assert gates.SUITES["full"] == gates.SUITES["smoke"] + ["hotpath_full", "paper_full"]


def test_paper_checks_pass_on_the_committed_records():
    baseline = _baseline()
    assert gates.paper_checks(baseline["paper"]) == []
    assert gates.fig15_checks(baseline["paper_full"]) == []


def test_paper_checks_name_gate_figure_config_and_field():
    records = copy.deepcopy(_baseline()["paper"])
    one, four = (gates._key("md5", gates.FIG13_SIZES["md5"], 1, gpus) for gpus in (1, 4))
    fig13 = records["fig13"]
    fig13[four]["throughput"] = 2.7 * fig13[one]["throughput"]
    big = records["fig16"]["cgc/80GB"]
    big["lightning_4x4"] = big["numpy"] / 14.9
    assert gates.paper_checks(records) == [
        f"paper/fig13/{four}: throughput is 2.700x the 1-GPU point's (needs > 2.8x)",
        "paper/fig16/cgc/80GB: lightning_4x4 is 14.90x faster than numpy (needs > 15x)",
    ]


def test_fig15_checks_name_gate_figure_config_and_field():
    records = copy.deepcopy(_baseline()["paper_full"])
    fig15, sizes = records["fig15"], gates.FIG15_SIZES
    hotspot = gates._key("hotspot", sizes["hotspot"] * 32, 8, 4)
    fig15[hotspot]["elapsed"] = fig15[gates._key("hotspot", sizes["hotspot"])]["elapsed"] / 0.69
    gemm = gates._key("gemm", sizes["gemm"] * 32, 8, 4)
    fig15[gemm]["elapsed"] = fig15[gates._key("gemm", sizes["gemm"])]["elapsed"]
    assert gates.fig15_checks(records) == [
        f"paper_full/fig15/{hotspot}: elapsed gives a weak-scaling efficiency of 0.690 "
        "(needs > 0.7)",
        f"paper_full/fig15/{gemm}: elapsed gives a weak-scaling efficiency of 1.000, not below "
        "K-Means' 0.958",
    ]
