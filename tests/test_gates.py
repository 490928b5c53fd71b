"""The gate harness (``benchmarks/gates.py``): its self-tests.

Against a baseline edited in memory, a one-ulp drift, a deleted record and a
ratio below its constant each fail and name the gate, arm, config and field;
the result JSON and the step summary are written before the failing exit; a
refreshed baseline passes the next run.  The smoke suite's engine, hotpath,
expr and faults gates are replayed against the committed baseline by the
single-tenant regression tests in ``tests/test_serving.py``.
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
