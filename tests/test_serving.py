"""Multi-tenant serving: fairness properties, tenant isolation, determinism.

Five groups, mirroring the serving layer's contract:

* **Fair-share properties** (Hypothesis): on random weight/charge/eligibility
  sequences the WFQ clock never starves an eligible tenant, converges to the
  weighted shares, and keeps every per-tenant virtual clock (and the global
  virtual time) monotone.
* **Tenant isolation under faults**: a device failure mid-trace is recovered
  for the affected tenant only; unaffected tenants' plan counters are
  untouched and their results stay bit-identical to solo runs.  The disk
  tier, configured on the serving system, leaves results bit-identical.
* **Single-tenant regression**: the engine gate (``benchmarks/gates.py``)
  replayed in-process against ``benchmarks/BENCH_gates.json`` — the serving
  layer merged but unused must leave the single-tenant path bit-identical
  (event counts, virtual times, counters).  CI's gate job replays every
  other smoke gate against the same baseline.
* **Stall reports**: a served job that can never finish raises the same
  stall report as the single-tenant path, naming the unfinished dependency.
* **Determinism**: the same serving seed replays the identical Poisson
  trace, interleaving and per-run results, including the CGC ensemble
  workload.
"""

import importlib.util
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps  # noqa: F401  (registers the cgc/ensemble workloads)
from repro.apps import EnsembleWorkload
from repro.core import tasks as T
from repro.core.context import Context
from repro.core.distributions import BlockDist
from repro.core.tasks import ExecutionPlan
from repro.errors import ArgumentValueError, FaultError, SimulationStalled
from repro.hardware import DeviceId, MemoryKind, MemorySpace
from repro.hardware.specs import azure_nc24rsv2
from repro.kernels import WORKLOADS, Workload, create_workload
from repro.runtime.serving import (
    DEFAULT_MIX,
    FairShareClock,
    JobSpec,
    ServingSystem,
    poisson_trace,
)
from repro.runtime.system import CONTEXT_COUNTERS

_GATES_SPEC = importlib.util.spec_from_file_location(
    "gates", os.path.join(os.path.dirname(__file__), "..", "benchmarks", "gates.py"))
gates = importlib.util.module_from_spec(_GATES_SPEC)
_GATES_SPEC.loader.exec_module(gates)


def small_serving(nodes=1, gpus=2, **kwargs):
    return ServingSystem(
        cluster=azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), **kwargs
    )


# --------------------------------------------------------------------------- #
# FairShareClock: unit behaviour
# --------------------------------------------------------------------------- #
def test_clock_validates_arguments():
    clock = FairShareClock()
    clock.add_tenant(0, 1.0)
    with pytest.raises(ArgumentValueError):
        clock.add_tenant(0, 1.0)  # duplicate
    with pytest.raises(ArgumentValueError):
        clock.add_tenant(1, 0.0)  # non-positive weight
    with pytest.raises(ArgumentValueError):
        clock.charge(0, -1.0)


def test_clock_select_prefers_smallest_tag_and_skips_ineligible():
    clock = FairShareClock()
    for tenant in range(3):
        clock.add_tenant(tenant, 1.0)
    clock.charge(0, 10.0)
    clock.charge(1, 5.0)
    clock.charge(2, 1.0)
    assert clock.select({0, 1, 2}) == 2
    assert clock.select({0, 1}) == 1
    # A skipped tenant keeps its place in line.
    assert clock.select({2}) == 2
    assert clock.select(set()) is None


def test_clock_idle_tenant_does_not_hoard_credit():
    clock = FairShareClock()
    clock.add_tenant(0, 1.0)
    clock.add_tenant(1, 1.0)
    # Tenant 0 works alone for a while; virtual time follows its tag.
    for _ in range(50):
        winner = clock.select({0})
        clock.charge(winner, 1.0)
    # When tenant 1 wakes up its next charge starts from *current* virtual
    # time, not from its ancient zero tag: it gets one catch-up selection,
    # then service alternates instead of tenant 1 monopolising the clock.
    wins = []
    for _ in range(10):
        winner = clock.select({0, 1})
        wins.append(winner)
        clock.charge(winner, 1.0)
    assert wins.count(1) <= 6  # near 50/50, never a monopoly


# --------------------------------------------------------------------------- #
# FairShareClock: Hypothesis properties
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=2, max_size=5),
    charges=st.lists(st.integers(min_value=1, max_value=8), min_size=50, max_size=200),
)
def test_no_eligible_tenant_starves(weights, charges):
    """Every always-eligible tenant is selected within a bounded window."""
    clock = FairShareClock()
    for tenant, weight in enumerate(weights):
        clock.add_tenant(tenant, weight)
    eligible = set(range(len(weights)))
    gap = {tenant: 0 for tenant in eligible}
    # Worst case: a tenant's rivals all carry maximal weight and minimal
    # charges; its turn still comes within ~(max_charge / min_charge) *
    # (max_weight / min_weight) * ntenants selections.
    bound = 8 * 8 * len(weights) + len(weights)
    for index, charge in enumerate(charges):
        winner = clock.select(eligible)
        assert winner in eligible
        for tenant in eligible:
            gap[tenant] = 0 if tenant == winner else gap[tenant] + 1
            assert gap[tenant] <= bound, f"tenant {tenant} starved"
        clock.charge(winner, float(charge))


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=2, max_size=4),
)
def test_weighted_shares_converge(weights):
    """With unit charges, selection counts converge to the weight shares."""
    clock = FairShareClock()
    for tenant, weight in enumerate(weights):
        clock.add_tenant(tenant, weight)
    eligible = set(range(len(weights)))
    counts = {tenant: 0 for tenant in eligible}
    rounds = 1000
    for _ in range(rounds):
        winner = clock.select(eligible)
        counts[winner] += 1
        clock.charge(winner, 1.0)
    total_weight = sum(weights)
    for tenant, weight in enumerate(weights):
        share = counts[tenant] / rounds
        expected = weight / total_weight
        assert abs(share - expected) < 0.05, (
            f"tenant {tenant}: share {share:.3f}, expected {expected:.3f}"
        )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.0, max_value=16.0),
            st.sets(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=120,
    ),
)
def test_virtual_clocks_monotone(ops):
    """Per-tenant tags and the global virtual time never move backwards."""
    clock = FairShareClock()
    for tenant in range(3):
        clock.add_tenant(tenant, 1.0 + tenant)
    last_tags = {tenant: clock.tag_of(tenant) for tenant in range(3)}
    last_virtual = clock.virtual_time
    for tenant, service, eligible in ops:
        clock.charge(tenant, service)
        clock.select(eligible)
        assert clock.virtual_time >= last_virtual
        last_virtual = clock.virtual_time
        for t in range(3):
            assert clock.tag_of(t) >= last_tags[t]
            last_tags[t] = clock.tag_of(t)
        # The clock never runs ahead of every busy tenant's tag.
        assert clock.virtual_time <= max(last_tags.values()) + 1e-9


# --------------------------------------------------------------------------- #
# serving integration: mixed trace end to end
# --------------------------------------------------------------------------- #
def test_serving_mixed_trace_completes_and_verifies():
    serving = small_serving(nodes=1, gpus=2)
    for tenant in range(3):
        serving.add_tenant(f"t{tenant}", memory_fraction=0.6)
    mix = [
        ("hotspot3", 32 * 32, {"iterations": 2}),
        ("kmeans2", 2048, {"quantize": True, "iterations": 2}),
        ("cgc", 64, {"iterations": 1}),
    ]
    serving.submit_trace(poisson_trace(seed=5, njobs=6, rate=500.0, tenants=3, mix=mix))
    report = serving.run()
    assert report.to_dict()["jobs_completed"] == 6
    assert all(job.finished is not None for job in report.jobs)
    assert all(job.latency >= 0.0 for job in report.jobs)
    assert all(job.workload.verify() for job in report.jobs)
    # No tenant starves: every tenant that submitted jobs completed them all,
    # and the per-tenant ledgers balance.
    for counters in report.tenant_counters.values():
        assert counters["outstanding"] == 0
        assert counters["tasks_submitted"] == counters["tasks_completed"]
    # Per-tenant virtual clocks are monotone from zero and end positive for
    # every tenant that did work.
    for tenant, tag in report.tenant_tags.items():
        if report.tenant_counters.get(tenant, {}).get("tasks_submitted", 0):
            assert tag > 0.0


def test_serving_weighted_tenant_finishes_backlog_faster():
    """With equal backlogs, the weight-3 tenant's jobs finish first."""

    def run(weights):
        serving = small_serving(nodes=1, gpus=2)
        for tenant, weight in enumerate(weights):
            serving.add_tenant(f"t{tenant}", weight=weight)
        for tenant in range(2):
            for _ in range(3):
                serving.submit(JobSpec(arrival=0.0, tenant=tenant,
                                       workload="hotspot3", n=32 * 32,
                                       params={"iterations": 2}))
        report = serving.run()
        done = {0: [], 1: []}
        for job in report.jobs:
            done[job.spec.tenant].append(job.finished)
        return max(done[0]), max(done[1])

    t0_heavy, t1_heavy = run([3.0, 1.0])
    t0_flat, t1_flat = run([1.0, 1.0])
    # Favouring tenant 0 must not slow tenant 0 down relative to the flat
    # run, and its backlog drains no later than the unweighted tenant's.
    assert t0_heavy <= t0_flat + 1e-9
    assert t0_heavy <= t1_heavy + 1e-9


def test_serving_rejects_unknown_tenant_and_tenant_faults():
    serving = small_serving()
    serving.add_tenant("only")
    with pytest.raises(ArgumentValueError):
        serving.submit(JobSpec(arrival=0.0, tenant=3, workload="hotspot3", n=64))
    with pytest.raises(FaultError, match="fault tolerance is not enabled"):
        serving.fail_device((0, 0))  # faults not enabled, as for a Context
    with pytest.raises(ArgumentValueError):
        Context(runtime=serving.runtime, tenant=1, faults="transfer=0.01")


@pytest.mark.parametrize("option, value", [
    ("cluster", azure_nc24rsv2(nodes=1, gpus_per_node=1)),
    ("stage_threshold", 1024),
    ("enable_trace", False),
    ("memory_capacities", {DeviceId(0, 0).memory_space: 1024 ** 2}),
    ("scheduler_policy", "smallest"),
    ("record_plans", True),
    ("faults", "transfer=0.01"),
    ("fault_seed", 3),
    ("disk", True),
    ("disk_seed", 3),
])
def test_tenant_rejects_runtime_wide_options(option, value):
    """A tenant context attaches to the shared runtime, so an option the
    runtime is built from must fail loudly there instead of being ignored."""
    serving = small_serving()
    with pytest.raises(ArgumentValueError,
                       match=rf"option {option} must be configured with ServingSystem\("):
        serving.add_tenant("a", **{option: value})
    assert serving.contexts == []
    assert serving.add_tenant("a", weight=2.0, memory_fraction=0.5).tenant == 0


def test_tenant_memory_quota_validation_and_accounting():
    serving = small_serving(nodes=1, gpus=2)
    ctx = serving.add_tenant("a", memory_fraction=0.5)
    with pytest.raises(ArgumentValueError):
        serving.runtime.set_tenant_quota(0, 0.0)
    with pytest.raises(ArgumentValueError):
        serving.runtime.set_tenant_quota(0, 1.5)
    serving.submit(JobSpec(arrival=0.0, tenant=0, workload="hotspot3", n=32 * 32,
                           params={"iterations": 1}))
    serving.run()
    # The quota book-keeping attributed this tenant's resident bytes.
    memory = serving.runtime.workers[0].memory
    spaces = {space for (_tenant, space) in memory._tenant_used}
    assert sum(memory.tenant_used_bytes(0, space) for space in spaces) > 0
    assert ctx.tenant == 0


# --------------------------------------------------------------------------- #
# tenant isolation under device failure
# --------------------------------------------------------------------------- #
#: tenant -> (workload, n, params); tenant 1's job is the long one whose home
#: device the test kills mid-trace (rotation puts tenant 1 on device (0, 1))
ISOLATION_JOBS = {
    0: ("hotspot3", 32 * 32, {"iterations": 3, "seed": 3}),
    1: ("kmeans2", 4096, {"quantize": True, "iterations": 6, "seed": 0}),
    2: ("hotspot3", 32 * 32, {"iterations": 3, "seed": 5}),
    3: ("hotspot3", 32 * 32, {"iterations": 3, "seed": 7}),
}


def _isolation_serving(only_tenant=None, faults=None):
    serving = small_serving(nodes=2, gpus=2, faults=faults)
    for tenant in range(4):
        serving.add_tenant(f"t{tenant}")
    for tenant, (workload, n, params) in ISOLATION_JOBS.items():
        if only_tenant is not None and tenant != only_tenant:
            continue
        serving.submit(JobSpec(arrival=0.0, tenant=tenant, workload=workload,
                               n=n, params=dict(params)))
    return serving


def _result_of(job):
    workload = job.workload
    attr = "centroids" if job.spec.workload == "kmeans2" else "_final"
    return workload.ctx.gather(getattr(workload, attr))


def test_device_failure_recovers_only_affected_tenant():
    # Reference: the same trace with no injector at all.
    clean = _isolation_serving()
    clean_report = clean.run()
    clean_results = {job.spec.tenant: _result_of(job) for job in clean_report.jobs}
    clean_counters = clean_report.tenant_counters

    # Faulted run: kill tenant 1's home GPU (the second device in rotation
    # order) mid-trace.
    faulted = _isolation_serving(faults="")
    victim = faulted.runtime.cluster.device_ids()[1]
    faulted.runtime.engine.schedule_at(
        0.3 * clean_report.makespan, lambda: faulted.fail_device(victim)
    )
    report = faulted.run()
    stats = faulted.runtime.stats()
    assert stats.devices_failed == 1
    assert all(job.workload.verify() for job in report.jobs)

    results = {job.spec.tenant: _result_of(job) for job in report.jobs}
    for tenant in (0, 2, 3):
        # Unaffected tenants: bit-identical results.  Device rotation spreads
        # every tenant's chunks over all devices, so recovery may re-materialise
        # a lost chunk of theirs — but that work is charged to the owning
        # tenant's own ledger, never hidden or misattributed, and the ledger
        # still balances.
        assert np.array_equal(results[tenant], clean_results[tenant])
        counters = report.tenant_counters[tenant]
        assert (counters["plans_submitted"]
                >= clean_counters[tenant]["plans_submitted"])
        assert counters["outstanding"] == 0
        assert counters["tasks_submitted"] == counters["tasks_completed"]
    # The affected tenant still converges to the right answer (verify above)
    # and its ledger balances after recovery.
    assert report.tenant_counters[1]["outstanding"] == 0


def test_serving_fail_device_validates_like_context():
    """A tuple names a device; an unknown one fails at the call, not in run()."""
    serving = _isolation_serving(faults="")
    with pytest.raises(FaultError, match="unknown device"):
        serving.fail_device((7, 3))
    serving.fail_device((0, 1))
    report = serving.run()
    assert serving.runtime.stats().devices_failed == 1
    assert serving.runtime.cluster.is_failed(DeviceId(0, 1))
    assert all(job.workload.verify() for job in report.jobs)


def test_unaffected_tenants_bit_identical_to_solo_runs():
    faulted = _isolation_serving(faults="")
    victim = faulted.runtime.cluster.device_ids()[1]
    faulted.runtime.engine.schedule_at(1e-4, lambda: faulted.fail_device(victim))
    report = faulted.run()
    results = {job.spec.tenant: _result_of(job) for job in report.jobs}
    for tenant in (0, 2, 3):
        solo = _isolation_serving(only_tenant=tenant)
        solo_report = solo.run()
        (solo_job,) = solo_report.jobs
        assert np.array_equal(results[tenant], _result_of(solo_job))


# --------------------------------------------------------------------------- #
# the disk tier under serving
# --------------------------------------------------------------------------- #
KiB = 1024

#: three tenants whose data overflows 48 KiB per GPU and a 64 KiB host pool
DISK_JOBS = [
    ("kmeans2", 4096, {"iterations": 3, "seed": 0, "chunk_elems": 1024}),
    ("hotspot3", 64 * 64, {"iterations": 3, "seed": 3, "chunk_elems": 1024}),
    ("kmeans2", 4096, {"iterations": 3, "seed": 1, "chunk_elems": 1024}),
]


#: a second hotspot3 tenant
H4 = ("hotspot3", 64 * 64, {"iterations": 3, "seed": 4, "chunk_elems": 1024})


def _disk_serving(memory_fraction=None, jobs=DISK_JOBS, stagger=0.0, gpu_kib=48, **kwargs):
    capacities = {DeviceId(0, local).memory_space: gpu_kib * KiB for local in range(2)}
    capacities[MemorySpace(0, MemoryKind.HOST)] = 64 * KiB
    serving = small_serving(nodes=1, gpus=2, memory_capacities=capacities, **kwargs)
    for tenant, (workload, n, params) in enumerate(jobs):
        serving.add_tenant(f"t{tenant}", memory_fraction=memory_fraction)
        serving.submit(JobSpec(arrival=tenant * stagger, tenant=tenant, workload=workload,
                               n=n, params=dict(params)))
    return serving


@pytest.mark.parametrize("faults", [None, ""], ids=["clean", "faults"])
def test_disk_tier_under_serving_bit_identical(faults):
    reference = [_result_of(job) for job in _disk_serving().run().jobs]
    # 40 KiB GPUs overflow enough for the window to stage disk→host promotions
    serving = _disk_serving(memory_fraction=0.3, gpu_kib=40, disk=True, disk_seed=3,
                            faults=faults)
    report = serving.run()
    assert all(job.workload.verify() for job in report.jobs)
    for job, expected in zip(report.jobs, reference):
        assert np.array_equal(_result_of(job), expected)
    stats = serving.runtime.stats()
    raw = sum(memory.bytes_to_disk for memory in stats.memory.values())
    assert 0 < stats.disk_stored_bytes_written < raw
    assert sum(ctx.stats().disk_promotions_staged for ctx in serving.contexts) > 0
    # The disk tier is runtime-wide: a tenant context cannot turn it on.
    with pytest.raises(ArgumentValueError, match=r"ServingSystem\(faults=\.\.\., disk"):
        Context(runtime=serving.runtime, tenant=3, disk=True)


def test_runtime_stats_under_serving_are_the_tenants_sum():
    serving = _disk_serving(gpu_kib=40, disk=True, disk_seed=3)
    report = serving.run()
    total = serving.runtime.stats()
    views = [ctx.stats() for ctx in serving.contexts]
    owned = [*CONTEXT_COUNTERS, "plan_cache_invalidations", "tasks_completed"]
    for name in owned:
        values = [getattr(view, name) for view in views]
        expected = max(values) if name == "fused_chain_max_len" else sum(values)
        assert getattr(total, name) == expected, name
    assert total.window_flushes > 0 and total.disk_promotions_staged > 0
    # A tenant's view owns only those fields; every other one is runtime-wide.
    runtime_wide = {k: v for k, v in total.to_dict().items() if k not in owned}
    for tenant, view in enumerate(views):
        assert view.tasks_completed == report.tenant_counters[tenant]["tasks_completed"]
        assert {k: v for k, v in view.to_dict().items() if k not in owned} == runtime_wide


def test_next_use_index_is_empty_after_a_served_disk_run():
    serving = _disk_serving(disk=True)
    serving.run()
    workers = serving.runtime.workers
    assert [worker.memory._uses for worker in workers] == [{}] * len(workers)


@pytest.mark.parametrize("disk", [False, True], ids=["no_disk", "disk"])
def test_tenant_quotas_under_memory_pressure(disk):
    """Three tenants at 0.3 each: admission asks the walk that evicts, so a
    request whose room the walk cannot free waits instead of running out of
    memory."""
    kwargs = {"disk": True, "disk_seed": 3} if disk else {}
    report = _disk_serving(memory_fraction=0.3, **kwargs).run()
    assert len(report.jobs) == len(DISK_JOBS)
    assert all(job.workload.verify() for job in report.jobs)


#: case -> (jobs, arrival stagger, quota fractions).  The first 1 to 3
#: ``DISK_JOBS`` sweep every quota; the ``pins_*`` runs stalled while window
#: reserves pinned a group's resident chunks until the group finished, two
#: tenants' reserves each pinning the room the other's stagings needed.
QUOTA_SWEEP = {
    **{str(n): (DISK_JOBS[:n], 0.0, (0.2, 0.3, 0.5, 1.0)) for n in (1, 2, 3)},
    "pins_a": ((DISK_JOBS[2], DISK_JOBS[1], H4), 1e-4, (0.5,)),
    "pins_b": ((H4, DISK_JOBS[0], DISK_JOBS[1]), 1e-4, (0.5,)),
}


@pytest.mark.parametrize("disk", [False, True], ids=["no_disk", "disk"])
@pytest.mark.parametrize("case", sorted(QUOTA_SWEEP))
def test_quota_sweep_matches_quota_free_runs(case, disk):
    """Every quota, from a fifth of each pool to all of it, completes with
    results bit-identical to the quota-free run of the same tenants: a
    quota protects only a busy tenant's residency, so finished tenants
    never stall the rest."""
    kwargs = {"disk": True, "disk_seed": 3} if disk else {}
    jobs, stagger, fractions = QUOTA_SWEEP[case]
    reference = [_result_of(job) for job in
                 _disk_serving(jobs=jobs, stagger=stagger, **kwargs).run().jobs]
    for fraction in fractions:
        report = _disk_serving(fraction, jobs=jobs, stagger=stagger, **kwargs).run()
        assert len(report.jobs) == len(jobs), fraction
        assert all(job.workload.verify() for job in report.jobs), fraction
        for job, expected in zip(report.jobs, reference):
            assert np.array_equal(_result_of(job), expected), fraction


def test_a_tenant_going_idle_wakes_the_stagings_its_quota_blocked():
    """The second tenant, arriving later, queues a staging on gpu0, where the
    first tenant's residency sits within its quota.  The first tenant's last
    task then finishes with no unstage to follow: only the retry its going
    idle triggers lets the queued staging evict that residency."""
    jobs = DISK_JOBS[:2]
    reference = [_result_of(job) for job in _disk_serving(jobs=jobs, stagger=1e-4).run().jobs]
    report = _disk_serving(0.5, jobs=jobs, stagger=1e-4).run()
    assert len(report.jobs) == 2
    for job, expected in zip(report.jobs, reference):
        assert job.workload.verify()
        assert np.array_equal(_result_of(job), expected)


# --------------------------------------------------------------------------- #
# single-tenant regression: the engine gate replayed against its baseline
# --------------------------------------------------------------------------- #
def test_single_tenant_engine_bench_bit_identical():
    """Serving merged but unused: the engine gate must not drift a bit."""
    with open(gates.BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    _, failures = gates.check(["engine"], baseline)
    assert failures == [], (
        "gate engine drifted from its committed baseline:\n" + "\n".join(failures)
    )


# --------------------------------------------------------------------------- #
# stall reports: a served job that can never finish
# --------------------------------------------------------------------------- #
class _StuckJoin(Workload):
    """One quantum: a join on a finished task and a receive whose message never comes."""

    name = "stuck_join"

    def prepare(self):
        self.x = self.ctx.ones(64, BlockDist(32), name="x")

    def submit(self):
        runtime, chunk = self.ctx.runtime, self.x.chunks[0]
        plan = ExecutionPlan(tenant=self.ctx.tenant)
        done = plan.add(T.CombineTask(task_id=runtime.task_ids.next_id(), worker=0))
        self.recv = plan.add(T.RecvTask(
            task_id=runtime.task_ids.next_id(), worker=0, chunk_id=chunk.chunk_id,
            region=chunk.region, src_worker=0, tag=runtime.message_tags.next_id(),
            nbytes=chunk.nbytes,
        ))
        self.join = plan.add(T.CombineTask(
            task_id=runtime.task_ids.next_id(), worker=0,
            deps=(done.task_id, self.recv.task_id),
        ))
        runtime.submit_plan(plan)

    def data_bytes(self):
        return 0


def test_stalled_serving_loop_names_the_unfinished_dependency(monkeypatch):
    monkeypatch.setitem(WORKLOADS, _StuckJoin.name, _StuckJoin)
    serving = small_serving(gpus=1)
    serving.add_tenant("t0")
    serving.submit(JobSpec(arrival=0.0, tenant=0, workload=_StuckJoin.name, n=64))
    with pytest.raises(SimulationStalled) as exc:
        serving.run()
    report = str(exc.value)
    job = serving._records[0].workload
    assert report.startswith("serving loop stalled")
    assert "worker 0: 1 waiting tasks" in report
    assert f"{job.join} waiting on 1 unfinished dependencies [{job.recv.task_id}]" in report


# --------------------------------------------------------------------------- #
# determinism: traces, interleavings and ensemble results replay exactly
# --------------------------------------------------------------------------- #
def test_poisson_trace_is_deterministic_and_validated():
    a = poisson_trace(seed=9, njobs=12, rate=100.0, tenants=3)
    b = poisson_trace(seed=9, njobs=12, rate=100.0, tenants=3)
    assert a == b
    assert a != poisson_trace(seed=10, njobs=12, rate=100.0, tenants=3)
    arrivals = [job.arrival for job in a]
    assert arrivals == sorted(arrivals)
    assert {job.workload for job in a} <= {name for name, _, _ in DEFAULT_MIX}
    with pytest.raises(ArgumentValueError):
        poisson_trace(seed=0, njobs=0, rate=1.0, tenants=1)
    with pytest.raises(ArgumentValueError):
        poisson_trace(seed=0, njobs=1, rate=0.0, tenants=1)
    with pytest.raises(ArgumentValueError):
        poisson_trace(seed=0, njobs=1, rate=1.0, tenants=0)


def _ensemble_serving_run():
    serving = small_serving(nodes=1, gpus=2)
    for tenant in range(2):
        serving.add_tenant(f"t{tenant}")
    mix = [
        ("ensemble", 64, {"nruns": 2, "iterations": 2, "seed": 11}),
        ("kmeans2", 1024, {"quantize": True, "iterations": 2}),
    ]
    serving.submit_trace(poisson_trace(seed=3, njobs=4, rate=400.0, tenants=2, mix=mix))
    report = serving.run()
    timeline = [
        (job.job_id, job.spec.tenant, job.spec.workload, job.spec.arrival,
         job.started, job.finished)
        for job in report.jobs
    ]
    ensemble_results = []
    for job in report.jobs:
        if job.spec.workload == "ensemble":
            for app in job.workload.apps:
                ensemble_results.append(app.assignments())
    return report, timeline, ensemble_results


def test_serving_seed_replays_identical_interleaving_and_results():
    report_a, timeline_a, runs_a = _ensemble_serving_run()
    report_b, timeline_b, runs_b = _ensemble_serving_run()
    # Identical trace, identical interleaving (start/finish instants), and
    # identical per-tenant accounting.
    assert timeline_a == timeline_b
    assert report_a.tenant_counters == report_b.tenant_counters
    assert report_a.tenant_tags == report_b.tenant_tags
    assert report_a.makespan == report_b.makespan
    # ... and the ensemble's per-run co-clustering results replay exactly.
    assert len(runs_a) == len(runs_b) > 0
    for (rows_a, cols_a), (rows_b, cols_b) in zip(runs_a, runs_b):
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(cols_a, cols_b)


def test_ensemble_workload_registered_and_verifies():
    assert "ensemble" in WORKLOADS
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional")
    # n=1024 (a 32x32 matrix): large enough that different member seeds
    # produce distinct co-clusterings (tiny matrices collapse to the same
    # trivial assignment for every seed).
    workload = create_workload("ensemble", ctx, 1024, nruns=2, iterations=2, seed=4)
    assert isinstance(workload, EnsembleWorkload)
    workload.prepare()
    workload._prepared = True
    steps = sum(1 for _ in workload.steps())
    assert steps == workload.nruns * workload.iterations
    ctx.synchronize()
    assert workload.verify()
    assert workload.data_bytes() > 0
    # Independent seeds: the ensemble's member runs differ from each other.
    rows = [app.assignments()[0] for app in workload.apps]
    assert not np.array_equal(rows[0], rows[1])
