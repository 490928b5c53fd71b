"""Fault-injection, retry, lineage-recovery and watchdog tests.

The contract under test: a functional-mode run with injected faults —
transient transfer failures, degradation windows, and permanent device
failures recovered through lineage replay + rehoming + forced
redistribution — produces results *bit-identical* to the fault-free run.
"""

import random

import numpy as np
import pytest

from repro import BlockDist, Context, azure_nc24rsv2
from repro.core import tasks as T
from repro.core.chunk import ChunkMeta
from repro.core.geometry import Region
from repro.core.tasks import ExecutionPlan
from repro.errors import (
    ArgumentTypeError,
    ArgumentValueError,
    FaultError,
    PlanningError,
    ReproError,
    SimulationStalled,
)
from repro.kernels import create_workload
from repro.simulator.engine import Engine
from repro.simulator.faults import (
    Degradation,
    DeviceFailure,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)
from repro.simulator.resources import BandwidthResource


def make_ctx(nodes=1, gpus=2, **kw):
    return Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), **kw)


HOTSPOT = dict(n=64 * 64, chunk_elems=64 * 32, iterations=4, seed=3)


def run_hotspot(nodes, gpus, faults=None, fail=None, fail_after_events=None, seed=0):
    """Run the hotspot3 workload, optionally failing a device, and gather."""
    kw = {"mode": "functional"}
    if faults is not None:
        kw.update(faults=faults, fault_seed=seed)
    ctx = make_ctx(nodes=nodes, gpus=gpus, **kw)
    params = dict(HOTSPOT)
    n = params.pop("n")
    workload = create_workload("hotspot3", ctx, n, **params)
    if fail_after_events is not None:
        workload.prepare()
        workload._prepared = True
        workload.submit()
        ctx.runtime.engine.run(max_events=fail_after_events)
        ctx.fail_device(fail)
        ctx.synchronize()
    else:
        workload.run()
        if fail is not None:
            ctx.fail_device(fail)
        ctx.synchronize()
    final = ctx.gather(workload._final)
    assert workload.verify()
    return final, ctx.stats()


# --------------------------------------------------------------------------- #
# FaultSpec parsing
# --------------------------------------------------------------------------- #
def test_parse_full_grammar():
    spec = FaultSpec.parse(
        "transfer=0.01, compute=0.002, device=0.1@2.5, device=1.0@3.0,"
        "degrade=nic@1.0:2.0x0.25, retry=6, deadline=0.5"
    )
    assert spec.transfer_fault_rate == 0.01
    assert spec.compute_fault_rate == 0.002
    assert spec.device_failures == (
        DeviceFailure(0, 1, 2.5),
        DeviceFailure(1, 0, 3.0),
    )
    assert spec.degradations == (Degradation("nic", 1.0, 2.0, 0.25),)
    assert spec.retry.max_attempts == 6 and spec.retry.deadline == 0.5


def test_parse_empty_spec_is_empty():
    spec = FaultSpec.parse("")
    assert spec == FaultSpec()


@pytest.mark.parametrize(
    "text",
    [
        "bogus",                 # no key=value
        "warp=0.1",              # unknown clause
        "transfer=lots",         # not a float
        "transfer=1.5",          # rate out of range
        "device=0@x",            # bad time
        "degrade=nic@oops",      # bad window
    ],
)
def test_parse_rejects_bad_clause(text):
    with pytest.raises(FaultError):
        FaultSpec.parse(text)


def test_fault_error_is_repro_and_runtime_error():
    assert issubclass(FaultError, ReproError)
    assert issubclass(FaultError, RuntimeError)
    assert issubclass(SimulationStalled, ReproError)
    assert issubclass(PlanningError, ReproError)
    assert issubclass(ArgumentTypeError, TypeError)
    assert issubclass(ArgumentValueError, ValueError)


# --------------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------------- #
def test_retry_delay_exponential_and_bounded():
    policy = RetryPolicy(base_delay=1e-3, max_delay=4e-3, jitter=0.0)
    rng = random.Random(0)
    assert policy.delay(1, rng) == pytest.approx(1e-3)
    assert policy.delay(2, rng) == pytest.approx(2e-3)
    assert policy.delay(3, rng) == pytest.approx(4e-3)
    assert policy.delay(10, rng) == pytest.approx(4e-3)  # capped at max_delay


def test_retry_delay_jitter_range():
    policy = RetryPolicy(base_delay=1e-3, max_delay=1e-3, jitter=0.5)
    rng = random.Random(42)
    for attempt in range(1, 6):
        d = policy.delay(attempt, rng)
        assert 1e-3 <= d < 1.5e-3


# --------------------------------------------------------------------------- #
# transfer retry / giveup on a bare BandwidthResource
# --------------------------------------------------------------------------- #
class _AlwaysFail(random.Random):
    """rng stub: random() always below any positive fault rate."""

    def random(self):
        return 0.0


class _NeverFail(random.Random):
    def random(self):
        return 1.0


def _link_with_injector(rate, **retry_kwargs):
    engine = Engine()
    link = BandwidthResource(engine, "pcie_test", bandwidth=1e9, latency=0.0)
    spec = FaultSpec(
        transfer_fault_rate=rate,
        retry=RetryPolicy(jitter=0.0, **retry_kwargs),
    )
    injector = FaultInjector(spec, seed=0)
    link.injector = injector
    return engine, link, injector


def test_transfer_retries_until_success():
    engine, link, injector = _link_with_injector(0.5, max_attempts=4)
    # fail twice, then succeed; the backoff jitter consumes one roll per retry
    rolls = iter([0.0, 0.5, 0.0, 0.5, 1.0])
    injector.rng = type("R", (), {"random": staticmethod(lambda: next(rolls))})()
    done = []
    link.request(1e6, lambda: done.append(engine.now))
    engine.run()
    assert done, "transfer never completed"
    assert injector.transfer_faults_injected == 2
    assert injector.transfers_retried == 2
    assert injector.transfers_failed_permanently == 0
    # two full service periods were redone plus two backoff delays
    assert done[0] > 3 * (1e6 / 1e9)


def test_transfer_gives_up_after_max_attempts():
    engine, link, injector = _link_with_injector(1.0, max_attempts=3)
    injector.rng = _AlwaysFail()
    link.request(1e6, lambda: pytest.fail("callback must not fire"))
    with pytest.raises(FaultError, match="failed permanently"):
        engine.run()
    assert injector.transfers_failed_permanently == 1
    assert injector.transfers_retried == 2  # attempts 1 and 2 were retried


def test_transfer_gives_up_after_deadline():
    engine, link, injector = _link_with_injector(
        1.0, max_attempts=1000, deadline=5e-3, base_delay=2e-3, max_delay=2e-3
    )
    injector.rng = _AlwaysFail()
    link.request(1e6, lambda: pytest.fail("callback must not fire"))
    with pytest.raises(FaultError, match="failed permanently"):
        engine.run()
    assert injector.transfers_failed_permanently == 1


def test_no_injection_when_rng_spares_transfer():
    engine, link, injector = _link_with_injector(0.5)
    injector.rng = _NeverFail()
    done = []
    link.request(1e6, lambda: done.append(engine.now))
    engine.run()
    assert done and injector.transfer_faults_injected == 0


# --------------------------------------------------------------------------- #
# degradation windows
# --------------------------------------------------------------------------- #
def test_degradation_window_slows_then_restores():
    engine = Engine()
    link = BandwidthResource(engine, "nic_test", bandwidth=1e9)
    spec = FaultSpec(degradations=(Degradation("nic", 1e-3, 2e-3, 0.5),))
    injector = FaultInjector(spec, seed=0)
    injector._schedule_degradation(engine, spec.degradations[0], [link])
    done = {}
    # transfer inside the window takes 2x as long per byte
    engine.schedule_at(1e-3, lambda: link.request(5e5, lambda: done.update(t=engine.now)))
    engine.run()
    assert injector.degradations_applied == 1
    assert done["t"] == pytest.approx(2e-3)  # 0.5ms of data at half speed = 1ms
    assert link.bandwidth == pytest.approx(1e9)  # restored after the window


def test_outage_clamps_to_positive_floor():
    engine = Engine()
    link = BandwidthResource(engine, "nic_test", bandwidth=1e9)
    link.rescale_bandwidth(0.0)
    assert link.bandwidth > 0.0
    link.rescale_bandwidth(1.0)
    assert link.bandwidth == pytest.approx(1e9)


def test_degrade_unknown_kind_rejected():
    with pytest.raises(FaultError, match="matches no link resource"):
        make_ctx(mode="functional", faults="degrade=warp_drive@0:1x0.5")


# --------------------------------------------------------------------------- #
# watchdog / stall detection
# --------------------------------------------------------------------------- #
def test_simulation_stalled_reports_outstanding_tasks():
    ctx = make_ctx(mode="functional")
    runtime = ctx.runtime
    runtime._outstanding += 2  # simulate tasks that never complete
    with pytest.raises(SimulationStalled, match="deadlock") as exc:
        runtime.run_until_idle()
    runtime._outstanding -= 2
    assert "2 tasks still outstanding" in str(exc.value)
    assert "worker 0" in str(exc.value)


def test_simulation_stalled_reports_what_a_staging_request_waits_for():
    """Task 2 can never stage: task 1 pins 5/8 of the GPU and never unstages."""
    ctx = make_ctx(mode="functional")
    runtime = ctx.runtime
    memory = runtime.workers[0].memory
    device = ctx.cluster.device_ids()[0]
    space = device.memory_space
    elems = memory.capacity(space) * 5 // 8 // 4
    metas = [
        ChunkMeta(chunk_id=cid, region=Region((0,), (elems,)), dtype=np.float32,
                  home=device)
        for cid in (10_001, 10_002)
    ]
    for meta in metas:
        memory.register(meta)
    memory.stage(1, [(10_001, "gpu")], lambda: None)
    memory.stage(2, [(10_002, "gpu")], lambda: None)
    runtime._outstanding += 1
    with pytest.raises(SimulationStalled) as exc:
        runtime.run_until_idle()
    runtime._outstanding -= 1
    nbytes = metas[0].nbytes
    assert (
        f"task 2 stalled in memory staging on [chunk#10002(gpu)]: blocked on "
        f"{space} with {nbytes} bytes pinned "
        f"(limit {memory.capacity(space) - nbytes})"
    ) in str(exc.value)


def test_simulation_stalled_names_only_the_unfinished_dependency():
    """A join waits on a finished task and on a receive whose message never comes."""
    ctx = make_ctx(mode="functional")
    runtime = ctx.runtime
    x = ctx.ones(64, BlockDist(32), name="x")
    ctx.synchronize()
    chunk = x.chunks[0]
    plan = ExecutionPlan()
    done = plan.add(T.CombineTask(task_id=runtime.task_ids.next_id(), worker=0))
    recv = plan.add(T.RecvTask(
        task_id=runtime.task_ids.next_id(), worker=0, chunk_id=chunk.chunk_id,
        region=chunk.region, src_worker=0, tag=runtime.message_tags.next_id(),
        nbytes=chunk.nbytes,
    ))
    join = plan.add(T.CombineTask(
        task_id=runtime.task_ids.next_id(), worker=0, deps=(done.task_id, recv.task_id),
    ))
    runtime.submit_plan(plan)
    with pytest.raises(SimulationStalled) as exc:
        runtime.run_until_idle()
    report = str(exc.value)
    assert "worker 0: 1 waiting tasks" in report
    assert f"{join} waiting on 1 unfinished dependencies [{recv.task_id}]" in report


# --------------------------------------------------------------------------- #
# blacklisting
# --------------------------------------------------------------------------- #
def test_blacklisted_device_rejects_tasks():
    ctx = make_ctx(gpus=2, mode="functional", faults=FaultSpec())
    dead = ctx.cluster.device_ids()[1]
    scheduler = ctx.runtime.workers[dead.worker].scheduler
    scheduler.blacklist.add(dead)

    class _Task:
        device = dead
        task_id = 999

        def __repr__(self):
            return "stub-task"

    with pytest.raises(FaultError, match="blacklisted"):
        scheduler.submit([_Task()])


def test_failed_device_removed_from_cluster_views():
    ctx = make_ctx(gpus=2, mode="functional", faults=FaultSpec())
    before = ctx.cluster.device_count
    dev = ctx.cluster.device_ids()[1]
    ctx.cluster.mark_failed(dev)
    assert ctx.cluster.device_count == before - 1
    assert dev not in ctx.cluster.device_ids()
    assert ctx.cluster.is_failed(dev)
    assert ctx.cluster.device(dev) is not None  # still resolvable for cleanup


# --------------------------------------------------------------------------- #
# end-to-end device failure + lineage recovery
# --------------------------------------------------------------------------- #
def test_fail_device_requires_injector():
    ctx = make_ctx(mode="functional")
    with pytest.raises(FaultError, match="fault tolerance is not enabled"):
        ctx.fail_device((0, 0))


def test_fail_device_unknown_device_rejected():
    ctx = make_ctx(mode="functional", faults=FaultSpec())
    with pytest.raises(FaultError):
        ctx.fail_device((7, 3))


def test_device_failure_same_worker_recovery_bit_identical():
    baseline, _ = run_hotspot(1, 4)
    recovered, stats = run_hotspot(1, 4, faults=FaultSpec(), fail=(0, 1))
    assert np.array_equal(baseline, recovered)
    assert stats.devices_failed == 1
    assert stats.chunks_lost + stats.replicas_promoted > 0
    assert stats.redistributes_forced > 0


def test_device_failure_cross_worker_recovery_bit_identical():
    baseline, _ = run_hotspot(2, 1)
    recovered, stats = run_hotspot(2, 1, faults=FaultSpec(), fail=(0, 0))
    assert np.array_equal(baseline, recovered)
    assert stats.devices_failed == 1
    assert stats.redistributes_forced > 0


def test_timed_device_failure_mid_run_bit_identical():
    baseline, _ = run_hotspot(1, 4)
    # measure total virtual time, then fail device (0,1) halfway through
    ctx = make_ctx(nodes=1, gpus=4, mode="functional")
    params = dict(HOTSPOT)
    w = create_workload("hotspot3", ctx, params.pop("n"), **params)
    w.run()
    total = ctx.synchronize()
    recovered, stats = run_hotspot(
        1, 4, faults=f"device=0.1@{0.5 * total}"
    )
    assert np.array_equal(baseline, recovered)
    assert stats.devices_failed == 1


def test_transient_transfer_faults_bit_identical():
    baseline, _ = run_hotspot(1, 4)
    recovered, stats = run_hotspot(1, 4, faults="transfer=0.05", seed=11)
    assert np.array_equal(baseline, recovered)
    assert stats.transfers_failed_permanently == 0


def test_stats_dict_exposes_fault_counters():
    _, stats = run_hotspot(1, 4, faults=FaultSpec(), fail=(0, 1))
    d = stats.to_dict()
    for key in (
        "transfers_retried",
        "transfers_failed_permanently",
        "compute_faults_injected",
        "compute_retried",
        "devices_failed",
        "chunks_lost",
        "replicas_promoted",
        "tasks_replayed",
        "redistributes_forced",
    ):
        assert key in d, f"missing counter {key} in stats dict"
    assert d["devices_failed"] == 1


def _twice_bound_kernel(ctx):
    """``a`` and ``b`` read one element each, ``c`` a halo: bound to one
    array, ``a`` and ``b`` name the same chunk and ``c`` gathers a temp from
    three chunks."""
    from repro import KernelCost, KernelDef

    def body(lc, n, out, a, b, c):
        i = lc.global_indices(0)
        i = i[i < n]
        left = c.gather(np.maximum(i - 1, 0))
        right = c.gather(np.minimum(i + 1, n - 1))
        out.scatter(i, (a.gather(i) * b.gather(i) + left + right).astype(np.float32))

    return (
        KernelDef("replay_twice_bound", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("a", "float32")
        .param_array("b", "float32")
        .param_array("c", "float32")
        .annotate("global i => read a[i], read b[i], read c[i-1:i+1], write out[i]")
        .with_cost(KernelCost(1, 16))
        .compile(ctx)
    )


def _replay_kind(task):
    """What replay applied, in the terms of the observed task."""
    if isinstance(task, T.LaunchTask):
        if task.segment_count == 1:
            return "one-segment launch"
        return "launch with epilogue" if task.reduce_epilogues else "multi-segment launch"
    if isinstance(task, T.FillTask) and task.data is not None:
        return "fill with data"
    return task.kind


def _replay_program(faults, monkeypatch=None):
    """hotspot3 chains, a kmeans2 reduction tail and one launch binding an
    array to three parameters on 2 x 2 GPUs; with ``faults`` set, device
    (1, 0) fails after the run.  Returns the gathered results, the kinds
    replay applied and, per twice-bound launch task, the chunks bound to
    ``a`` and ``b`` and the chunk ids the task pinned."""
    from repro import BlockWorkDist
    from repro.runtime.memory import MemoryManager

    applied, pinned = [], {}
    if monkeypatch is not None:
        for cls in vars(T).values():
            if isinstance(cls, type) and issubclass(cls, T.Task) and "apply" in vars(cls):
                def recorded(task, storage, kernels, original=cls.apply):
                    applied.append((task, storage))
                    original(task, storage, kernels)
                monkeypatch.setattr(cls, "apply", recorded)
        unstage = MemoryManager.unstage

        def recorded_unstage(memory, task_id):
            pinned[task_id] = list(memory._staged.get(task_id, ()))
            unstage(memory, task_id)
        monkeypatch.setattr(MemoryManager, "unstage", recorded_unstage)

    ctx = make_ctx(nodes=2, gpus=2, mode="functional", faults=faults, record_plans=True)
    hot = create_workload("hotspot3", ctx, 64 * 64, chunk_elems=64 * 16, iterations=3, seed=3)
    km = create_workload("kmeans2", ctx, 2048, chunk_elems=512, iterations=2, k=5,
                         quantize=True)
    hot.run()
    km.run()
    n = 1024
    x = ctx.from_numpy(np.arange(n, dtype=np.float32) / n, BlockDist(n // 4), name="x")
    out = ctx.zeros(n, BlockDist(n // 4), dtype=np.float32, name="out")
    _twice_bound_kernel(ctx).launch(n, 32, BlockWorkDist(n // 4), (n, out, x, x, x))
    ctx.synchronize()
    del applied[:]
    if faults is not None:
        ctx.fail_device((1, 0))
        ctx.synchronize()
    results = [ctx.gather(hot._final), ctx.gather(km.centroids), ctx.gather(out)]

    tasks = {t.task_id: t for plan in ctx.recorded_plans for t in plan.all_tasks()}
    workers = [worker.storage for worker in ctx.runtime.workers]
    kinds = {
        _replay_kind(tasks[task.task_id])
        for task, storage in applied
        if not any(storage is own for own in workers)
    }
    twice_bound = []
    for task in tasks.values():
        if isinstance(task, T.LaunchTask) and task.kernel_names == ("replay_twice_bound",):
            chunks = {b.param: b.chunk_id for b in task.array_args_list[0]}
            twice_bound.append((chunks["a"], chunks["b"], pinned.get(task.task_id)))
    return results, kinds, twice_bound


def test_lineage_replay_applies_each_tasks_own_effect(monkeypatch):
    """Replay runs the executor's own task effects (``Task.apply``) against
    a scratch storage: after a device failure on two workers it rebuilds
    every lost chunk bit for bit, through every kind of task that changes
    chunk data."""
    expected, _, _ = _replay_program(None)
    recovered, kinds, twice_bound = _replay_program("", monkeypatch)
    for want, got in zip(expected, recovered):
        assert np.array_equal(want, got)
    assert kinds >= {
        "createchunk", "fill with data", "one-segment launch", "launch with epilogue",
        "copy", "reduce", "recv",
    }
    # A launch that binds one chunk to two parameters stages and pins it once.
    assert len(twice_bound) == 4
    for a, b, staged in twice_bound:
        assert a == b and staged.count(a) == 1


# --------------------------------------------------------------------------- #
# failure at any point of the run recovers bit-identically
# --------------------------------------------------------------------------- #
def test_failure_at_any_event_index_recovers():
    """Fail a device after a share of the fault-free run's events: at its
    start, at each quarter, at its end and long after it.  Recovery waits for
    quiescence, so the failure point moves only the timing; every share must
    recover the fault-free result."""
    baseline, fault_free = run_hotspot(1, 2)
    for share in (0, 0.25, 0.5, 0.75, 1, 40):
        events = int(share * fault_free.events_processed)
        recovered, stats = run_hotspot(
            1, 2, faults=FaultSpec(), fail=(0, 1), fail_after_events=events
        )
        assert np.array_equal(baseline, recovered), f"failed after {events} events"
        assert stats.devices_failed == 1


# --------------------------------------------------------------------------- #
# argument errors surface as ReproError subclasses (and legacy builtins)
# --------------------------------------------------------------------------- #
def test_launch_scalar_for_array_is_argument_type_error():
    from repro import BlockDist, BlockWorkDist, KernelCost, KernelDef

    ctx = make_ctx(mode="functional")

    def body(lc, n, out):
        pass

    kern = (
        KernelDef("noop_fault_test", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .annotate("global i => write out[i]")
        .with_cost(KernelCost(1, 4))
        .compile(ctx)
    )
    with pytest.raises(ArgumentTypeError):
        kern.launch((64,), (32,), BlockWorkDist(32), (64, 3.14))


def test_redistribute_deleted_array_is_argument_value_error():
    from repro import BlockDist

    ctx = make_ctx(mode="functional")
    x = ctx.zeros(128, BlockDist(64))
    ctx.synchronize()
    x.delete()
    with pytest.raises(ArgumentValueError):
        x.redistribute(BlockDist(32))


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
def test_cli_rejects_bad_fault_spec(capsys):
    from repro.cli import main

    rc = main(
        ["run", "hotspot3", "--n", "4096", "--gpus", "2",
         "--inject-faults", "bogus"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_runs_with_fault_injection(capsys):
    from repro.cli import main

    rc = main(
        ["run", "hotspot3", "--n", "4096", "--gpus", "2",
         "--inject-faults", "transfer=0.01", "--fault-seed", "7"]
    )
    assert rc == 0
    assert "hotspot3" in capsys.readouterr().out
