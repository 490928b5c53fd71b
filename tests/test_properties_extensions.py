"""Property-based tests for the extension modules (policies, weighted work
distributions, chunk-size advice, plan-graph invariants)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import WeightedBlockWorkDist
from repro.autotune import recommend_chunk_bytes
from repro.core import tasks as T
from repro.core.geometry import Region
from repro.hardware.topology import DeviceId
from repro.runtime.policies import POLICIES

MB = 1024 ** 2
GB = 1024 ** 3


# --------------------------------------------------------------------------- #
# WeightedBlockWorkDist invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    extent=st.integers(min_value=1, max_value=100_000),
    block=st.sampled_from([1, 16, 32, 128, 256]),
    weights=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
)
def test_weighted_work_dist_partitions_grid(extent, block, weights):
    if sum(weights) <= 0:
        weights = [w + 1.0 for w in weights]
    devices = [DeviceId(0, i) for i in range(len(weights))]
    dist = WeightedBlockWorkDist(tuple(weights))
    superblocks = dist.superblocks((extent,), (block,), devices)

    # disjoint, ordered, covering [0, extent)
    assert superblocks, "at least one superblock expected"
    assert superblocks[0].thread_region.lo[0] == 0
    assert superblocks[-1].thread_region.hi[0] == extent
    for a, b in zip(superblocks, superblocks[1:]):
        assert a.thread_region.hi[0] == b.thread_region.lo[0]
    total = sum(sb.thread_region.shape[0] for sb in superblocks)
    assert total == extent
    # every interior boundary respects the thread-block granularity
    for sb in superblocks[:-1]:
        assert sb.thread_region.hi[0] % block == 0
    # block offsets agree with the regions
    for sb in superblocks:
        assert sb.block_offset[0] == sb.thread_region.lo[0] // block
    # each superblock is assigned to a device that was actually offered
    offered = set(devices)
    assert all(sb.device in offered for sb in superblocks)


# --------------------------------------------------------------------------- #
# analytic chunk-size model invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    budget=st.floats(min_value=0.005, max_value=0.2),
    throttle=st.integers(min_value=64 * MB, max_value=8 * GB),
    buffers=st.integers(min_value=2, max_value=16),
)
def test_chunk_size_advice_is_consistent(budget, throttle, buffers):
    advice = recommend_chunk_bytes(
        overhead_budget=budget, stage_threshold=throttle, buffers_in_gpu=buffers
    )
    assert 0 < advice.min_bytes <= advice.max_bytes
    assert advice.contains(advice.recommended_bytes)
    assert advice.max_bytes <= max(throttle // 2, advice.min_bytes)


@settings(max_examples=20, deadline=None)
@given(
    tight=st.floats(min_value=0.005, max_value=0.05),
    slack=st.floats(min_value=0.05, max_value=0.5),
)
def test_chunk_size_lower_bound_monotone_in_budget(tight, slack):
    a = recommend_chunk_bytes(overhead_budget=tight)
    b = recommend_chunk_bytes(overhead_budget=slack)
    assert a.min_bytes >= b.min_bytes


# --------------------------------------------------------------------------- #
# scheduling policies never invent or lose work
# --------------------------------------------------------------------------- #
class _Memory:
    def __init__(self, rng):
        self._rng = rng

    def staging_bytes_needed(self, requirements):
        return int(self._rng.integers(0, 1_000_000)) if requirements else 0

    def footprint(self, requirements):
        return int(self._rng.integers(1, 1_000_000)) if requirements else 0


class _Sched:
    def __init__(self, memory):
        self.memory = memory


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=12),
    policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_policies_always_return_valid_index(seed, size, policy_name):
    rng = np.random.default_rng(seed)
    backlog = []
    for k in range(size):
        task = T.LaunchTask(
            task_id=k + 1,
            worker=0,
            kernel_names=("k",),
            device=None,
            array_args_list=((
                T.ArrayArgBinding("a", chunk_id=int(rng.integers(1, 50)),
                                  access_region=Region.from_shape((4,)), mode="read"),
            ),),
            launch_id=int(rng.integers(0, 5)),
        )
        backlog.append(task)
    policy = POLICIES[policy_name]()
    scheduler = _Sched(_Memory(rng))
    index = policy.select(backlog, scheduler)
    assert 0 <= index < len(backlog)
    # Draining the whole backlog through repeated selection visits every task
    # exactly once (no starvation, no duplication).
    remaining = list(backlog)
    seen = []
    while remaining:
        i = policy.select(remaining, scheduler)
        seen.append(remaining.pop(i).task_id)
    assert sorted(seen) == [t.task_id for t in backlog]
