"""The user-facing driver API (Sec. 3.1, 3.6).

A :class:`Context` plays the role of Lightning's driver program: it owns the
cluster, the planner, the wrapper-kernel cache and the runtime system.  The
application creates distributed arrays, compiles kernels, launches them with
explicit work distributions, and synchronises — exactly the programming model
of the host-code sample in Fig. 9::

    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=4))
    input_ = ctx.ones(n, StencilDist(64_000, halo=1), dtype="float32")
    output = ctx.zeros(n, StencilDist(64_000, halo=1), dtype="float32")
    stencil = kernel_def.compile(ctx)
    for _ in range(10):
        stencil.launch(n, 256, BlockWorkDist(64_000), (n, output, input_))
        input_, output = output, input_
    ctx.synchronize()

Everything is asynchronous until :meth:`Context.synchronize` (or a gather)
drives the simulated runtime to completion.  Launches are additionally
*windowed*: they are analysed eagerly but stamped and submitted in bounded
groups (see :mod:`repro.core.planning.window`), which is where the
cross-launch kernel-fusion and memory-planning passes run.  ``with
Context(...) as ctx:`` synchronises on exit, so scripts never leave work
pending in the window.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ArgumentTypeError, ArgumentValueError
from ..hardware.specs import ClusterSpec, azure_nc24rsv2
from ..hardware.topology import DeviceId
from ..runtime.scheduler import DEFAULT_STAGE_THRESHOLD
from ..runtime.system import ExecutionMode, RuntimeStats, RuntimeSystem
from .array import DistributedArray
from .chunk import ChunkMeta
from .distributions import DataDistribution, WorkDistribution
from .expr.graph import LazyExpr
from .expr.lowering import ExprEngine
from .geometry import Region, regions_cover
from .kernel import CompiledKernel, KernelDef
from .planning import DEFAULT_LOOKAHEAD, LaunchWindow, PendingLaunch, Planner
from .wrapper import WrapperCache

__all__ = ["Context"]


def _normalize_dims(value: Union[int, Sequence[int]]) -> Tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        return (int(value),)
    return tuple(int(v) for v in value)


class Context:
    """Driver handle: array factory, kernel compiler and launch front-end."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        mode: Union[str, ExecutionMode] = ExecutionMode.FUNCTIONAL,
        stage_threshold: int = DEFAULT_STAGE_THRESHOLD,
        enable_trace: bool = True,
        memory_capacities=None,
        record_plans: bool = False,
        plan_cache: bool = True,
        lookahead: int = DEFAULT_LOOKAHEAD,
        fusion: bool = True,
        window_memory: bool = True,
        faults: object = None,
        fault_seed: int = 0,
        disk: bool = False,
        disk_seed: int = 0,
        lazy: bool = True,
        runtime: Optional[RuntimeSystem] = None,
        tenant: Optional[int] = None,
        tenant_name: str = "",
    ):
        if runtime is not None:
            # Multi-tenant serving: attach to an existing runtime instead of
            # building one.  The options the runtime is built from are
            # runtime-wide, so they are configured where the shared runtime
            # is built.  ``mode`` is not checked: its default cannot be told
            # apart from an explicit value.
            set_away = {
                "cluster": cluster is not None,
                "stage_threshold": stage_threshold != DEFAULT_STAGE_THRESHOLD,
                "enable_trace": not enable_trace,
                "memory_capacities": memory_capacities is not None,
                "record_plans": record_plans,
                "faults": faults is not None,
                "fault_seed": fault_seed != 0,
                "disk": disk,
                "disk_seed": disk_seed != 0,
            }
            rejected = [name for name, changed in set_away.items() if changed]
            if rejected:
                raise ArgumentValueError(
                    f"runtime-wide option{'s' if len(rejected) > 1 else ''} "
                    f"{', '.join(rejected)} must be configured with "
                    f"ServingSystem(faults=..., disk=..., ...), not on a tenant "
                    f"context attached to a shared runtime"
                )
            self.runtime = runtime
            self.mode = runtime.mode
        else:
            if cluster is None:
                cluster = azure_nc24rsv2(nodes=1, gpus_per_node=1)
            if isinstance(mode, str):
                mode = ExecutionMode(mode)
            self.mode = mode
            # Fault tolerance (``faults``: a FaultSpec, a ``--inject-faults``
            # spec string or None) and the compressed disk tier (``disk``,
            # ratios drawn from ``disk_seed``) are owned by the runtime.
            self.runtime = RuntimeSystem(
                cluster,
                mode=mode,
                stage_threshold=stage_threshold,
                enable_trace=enable_trace,
                memory_capacities=memory_capacities,
                record_plans=record_plans,
                faults=faults,
                fault_seed=fault_seed,
                disk=disk,
                disk_seed=disk_seed,
            )
        self.cluster = self.runtime.cluster
        #: tenant identity under multi-tenant serving; ``None`` single-tenant
        self.tenant = tenant
        self.tenant_name = tenant_name or (
            f"tenant-{tenant}" if tenant is not None else ""
        )
        #: rotate the device list by the tenant id so co-resident tenants
        #: spread their single-chunk arrays across different GPUs instead of
        #: piling on 0 (no rotation single-tenant)
        self._device_rotation = tenant or 0
        #: kernel-namespace prefix keeping one runtime registry collision-free
        #: across tenants compiling identically-named kernels
        self._kernel_prefix = f"t{tenant}__" if tenant is not None else ""
        # Id allocators are shared runtime-wide so every context attached to
        # the same runtime draws globally unique task/chunk/array ids.
        self._task_ids = self.runtime.task_ids
        self._chunk_ids = self.runtime.chunk_ids
        self._array_ids = self.runtime.array_ids
        self.planner = Planner(
            self.cluster, self._task_ids, self._chunk_ids, plan_cache=plan_cache
        )
        self.planner.tenant = tenant
        self.planner.device_rotation = self._device_rotation
        self.planner.tag_allocator = self.runtime.message_tags
        #: the counters this context's launch window, window memory planner
        #: and expression engine increment (``RuntimeStats``' per-context ones)
        self.counters = RuntimeStats()
        #: bounded lookahead over pending launches: deferred submission with
        #: cross-launch kernel fusion and memory planning at drain time
        self.window = LaunchWindow(
            self.runtime,
            self.planner,
            self.counters,
            depth=lookahead,
            fusion=fusion,
            memory_planning=window_memory,
        )
        self.wrappers = WrapperCache()
        self.kernels: Dict[str, CompiledKernel] = {}
        self.arrays: Dict[int, DistributedArray] = {}
        self._launch_counter = 0
        #: lazy expression frontend: operators on DistributedArray record DAGs
        #: here; ``lazy=False`` makes every operator launch one kernel eagerly
        self.expr = ExprEngine(self, lazy=lazy)
        #: registered last, once fully built: device recovery sweeps every
        #: attached context's arrays and planner
        self.runtime.contexts.append(self)

    # ------------------------------------------------------------------ #
    # cluster information
    # ------------------------------------------------------------------ #
    def devices(self) -> List[DeviceId]:
        """All GPUs in the cluster (the default target of data/work distributions).

        Under multi-tenant serving each tenant sees the list rotated by its
        tenant id, so tenants' small arrays land on different GPUs by default
        instead of all piling onto device 0.
        """
        devs = self.cluster.device_ids()
        rotation = self._device_rotation
        if rotation and devs:
            rotation %= len(devs)
            devs = devs[rotation:] + devs[:rotation]
        return devs

    @property
    def device_count(self) -> int:
        """Total GPUs in the context's cluster."""
        return self.cluster.device_count

    @property
    def functional(self) -> bool:
        """True when chunks are NumPy-backed and kernels really compute."""
        return self.mode is ExecutionMode.FUNCTIONAL

    @property
    def virtual_time(self) -> float:
        """Current simulated time in seconds."""
        return self.runtime.virtual_time

    def describe(self) -> str:
        """One-line human-readable description of the simulated cluster."""
        return self.cluster.describe()

    # ------------------------------------------------------------------ #
    # array creation
    # ------------------------------------------------------------------ #
    def _build_array(
        self,
        shape: Union[int, Sequence[int]],
        distribution: DataDistribution,
        dtype,
        name: str,
    ) -> DistributedArray:
        shape = _normalize_dims(shape)
        dtype = np.dtype(dtype)
        placements = distribution.chunks(shape, self.devices())
        if not placements:
            raise ValueError(f"distribution produced no chunks for array of shape {shape}")
        array_id = self._array_ids.next_id()
        chunks = [
            ChunkMeta(
                chunk_id=self._chunk_ids.next_id(),
                region=p.region,
                dtype=dtype,
                home=p.device,
                array_id=array_id,
            )
            for p in placements
        ]
        array = DistributedArray(array_id, shape, dtype, distribution, chunks, self, name=name)
        array.validate_coverage()
        if self.tenant is not None:
            for chunk in chunks:
                self.runtime.chunk_tenants[chunk.chunk_id] = self.tenant
        self.arrays[array_id] = array
        return array

    def empty(self, shape, distribution: DataDistribution, dtype="float32", name="") -> DistributedArray:
        """Create an uninitialised distributed array."""
        array = self._build_array(shape, distribution, dtype, name)
        self.runtime.submit_plan(self.planner.plan_create_array(array))
        return array

    def full(self, shape, value: float, distribution: DataDistribution, dtype="float32", name="") -> DistributedArray:
        """Create a distributed array filled with ``value``."""
        array = self._build_array(shape, distribution, dtype, name)
        self.runtime.submit_plan(self.planner.plan_create_array(array, value=value))
        return array

    def zeros(self, shape, distribution: DataDistribution, dtype="float32", name="") -> DistributedArray:
        """Create a distributed array filled with zeros."""
        return self.full(shape, 0.0, distribution, dtype, name)

    def ones(self, shape, distribution: DataDistribution, dtype="float32", name="") -> DistributedArray:
        """Create a distributed array filled with ones."""
        return self.full(shape, 1.0, distribution, dtype, name)

    def from_numpy(self, data: np.ndarray, distribution: DataDistribution, name="") -> DistributedArray:
        """Create a distributed array initialised from a NumPy array."""
        data = np.asarray(data)
        array = self._build_array(data.shape, distribution, data.dtype, name)
        upload = data if self.functional else None
        self.runtime.submit_plan(self.planner.plan_create_array(array, data=upload))
        return array

    # ------------------------------------------------------------------ #
    # array access / lifecycle
    # ------------------------------------------------------------------ #
    def gather(self, array: Union[DistributedArray, LazyExpr]) -> np.ndarray:
        """Synchronise and return the array's contents (functional mode only).

        Accepts a lazy expression too, forcing it first.  A concrete array
        needs no forcing: pending DAGs only ever write buffers that are
        provably private, so they cannot change what this gather observes.
        """
        if isinstance(array, LazyExpr):
            array = array.evaluate()
        if not self.functional:
            raise RuntimeError("gather() requires functional execution mode")
        if array.deleted:
            raise RuntimeError(f"array {array.name} has been deleted")
        # Pending launches may write this array: drain the window so the
        # gather observes them (program order), before planning the downloads.
        self.window.flush("gather")
        self.runtime.submit_plan(self.planner.plan_gather(array))
        self.synchronize()
        out = np.zeros(array.shape, dtype=array.dtype)
        for chunk, region in array.covering_chunks():
            worker = self.runtime.workers[chunk.worker]
            data = worker.storage.read_region(chunk.chunk_id, region)
            out[region.as_slices()] = data
        return out

    def delete_array(self, array: DistributedArray) -> None:
        """Free the array's chunks (asynchronously, after their last use)."""
        if array.deleted:
            return
        # Deferred expressions reading this array must observe its current
        # contents (program order): force them before the chunks go away.
        self.expr.force_pending_for(array.array_id)
        if self.window.references(array.array_id):
            self.window.flush("delete-array")
        self.runtime.submit_plan(self.planner.plan_delete_array(array))
        array.deleted = True
        self.arrays.pop(array.array_id, None)

    def redistribute(
        self, array: DistributedArray, new_distribution: DataDistribution
    ) -> DistributedArray:
        """Re-chunk ``array`` in place to ``new_distribution``.

        Plans an all-to-all: the new chunks are created and filled from the
        cheapest old sources, then the old chunks are deleted (after their
        last use).  The array's ``layout_epoch`` is bumped, so the next launch
        on it looks up the plan-template cache under the new layout; entries
        of the old layout stay, for any array in that layout.  Asynchronous
        like any other plan; returns the same (mutated) array handle.
        """
        if array.deleted:
            raise ArgumentValueError(f"array {array.name} has been deleted")
        # Deferred expressions were recorded against the old layout/contents.
        self.expr.force_pending_for(array.array_id)
        placements = new_distribution.chunks(array.shape, self.devices())
        if not placements:
            raise ArgumentValueError(
                f"distribution produced no chunks for array of shape {array.shape}"
            )
        if not regions_cover(array.domain, [p.region for p in placements]):
            raise ArgumentValueError(
                f"new distribution of {array.name} does not cover the array domain"
            )
        self._relayout(array, [(p.region, p.device) for p in placements], copy=True)
        array.distribution = new_distribution
        return array

    def _relayout(
        self,
        array: DistributedArray,
        placements: Sequence[Tuple[Region, DeviceId]],
        copy: bool,
    ) -> None:
        """Replace ``array``'s chunks with new ones at ``placements``.

        The new chunks are tagged with this context's tenant and, with
        ``copy``, filled from the old ones; the old chunks are deleted after
        their last use.  The layout epoch is bumped, which refreshes the
        array's layout signature in plan-cache keys.
        """
        if self.window.references(array.array_id):
            # Pending launches were prepared against the old chunk layout.
            self.window.flush("redistribute")
        new_chunks = [
            ChunkMeta(
                chunk_id=self._chunk_ids.next_id(),
                region=region,
                dtype=array.dtype,
                home=device,
                array_id=array.array_id,
            )
            for region, device in placements
        ]
        if self.tenant is not None:
            for chunk in new_chunks:
                self.runtime.chunk_tenants[chunk.chunk_id] = self.tenant
        self.runtime.submit_plan(self.planner.plan_redistribute(array, new_chunks, copy))
        array.chunks = new_chunks
        array.layout_epoch += 1

    def _rechunk_written(self, recipe, arrays: Dict[str, DistributedArray]) -> bool:
        """Re-chunk the arrays a launch only writes.

        :meth:`~.planning.planner.Planner.prepare_launch` calls this for
        every recipe, cached or planned cold, that names misaligned writes,
        and looks the launch up again when it returns True.  An array
        qualifies when the launch binds it to one plain ``write`` parameter
        (:attr:`~.planning.ir.PlanRecipe.misaligned_writes`: some superblock
        writes it through a temporary) and the superblock write regions are
        disjoint and cover it, so the launch overwrites every element: its
        chunks become those regions, each on its superblock's GPU, created
        empty, and the launch then writes them in place.  An array is
        re-chunked at most once, so writers with different work distributions
        cannot ping-pong it, and ``array.distribution`` stays the declared one
        (checkpoints encode it; device recovery re-evaluates it and clears
        the mark).  Returns True when some array was re-chunked.
        """
        rechunked = False
        for param, placements in recipe.misaligned_writes.items():
            array = arrays[param]
            if array.rechunked:
                continue
            regions = [region for region, _ in placements]
            if sum(region.size for region in regions) != array.size or not regions_cover(
                array.domain, regions
            ):
                continue
            self._relayout(array, placements, copy=False)
            array.rechunked = True
            self.counters.arrays_rechunked += 1
            rechunked = True
        return rechunked

    # ------------------------------------------------------------------ #
    # fault tolerance (device failure and recovery)
    # ------------------------------------------------------------------ #
    def fail_device(self, device: Union[DeviceId, Tuple[int, int]]) -> None:
        """Mark one GPU permanently failed; see :meth:`RuntimeSystem.fail_device`.

        Recovery runs inside the next :meth:`synchronize` (or gather) and
        requires the context to have been constructed with ``faults=...``.
        """
        self.runtime.fail_device(device)

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    @property
    def disk_enabled(self) -> bool:
        """True when the compressed disk tier is active on this runtime."""
        return self.runtime.disk_model is not None

    def checkpoint(self, path: str) -> Dict[str, object]:
        """Write every live array to a chunked checkpoint file at ``path``.

        Synchronises first (the checkpoint captures a quiescent point), then
        writes a bloscpack-style container: zlib-compressed per-chunk
        payloads plus a JSON footer index recording each chunk's offset,
        length, CRC-32 and region alongside per-array metadata (shape, dtype,
        name and serialised distribution).  The simulated cost — compression
        at the codec lane's throughput plus the *stored* bytes over the disk
        write link — is charged on each chunk's owning worker.

        When fault tolerance is enabled, every captured chunk version is
        marked *durable* in the lineage tracker: a later device failure
        reloads it from the file instead of replaying its producers, so only
        non-checkpointed lineage is recomputed.  Returns the manifest.
        """
        from ..runtime import checkpoint as _ckpt

        self.synchronize()
        runtime = self.runtime
        manifest: Dict[str, object] = {
            "format": "repro-checkpoint",
            "version": _ckpt.CHECKPOINT_VERSION,
            "mode": self.mode.value,
            "cluster": {
                "nodes": self.cluster.spec.node_count,
                "gpus_per_node": self.cluster.spec.node.gpu_count,
            },
            "arrays": [],
        }
        captured: List[Tuple[ChunkMeta, Dict[str, object]]] = []
        total_raw = total_stored = 0
        for array in sorted(self.arrays.values(), key=lambda a: a.array_id):
            array_entry: Dict[str, object] = {
                "name": array.name,
                "array_id": array.array_id,
                "shape": list(array.shape),
                "dtype": array.dtype.name,
                "distribution": _ckpt.encode_distribution(array.distribution),
                "chunks": [],
            }
            for chunk in array.chunks:
                worker = runtime.workers[chunk.worker]
                raw = chunk.nbytes
                entry: Dict[str, object] = {
                    "chunk_id": chunk.chunk_id,
                    "region": [list(chunk.region.lo), list(chunk.region.hi)],
                    "home": [chunk.home.worker, chunk.home.local_index],
                    "raw": raw,
                }
                if self.functional:
                    payload = _ckpt.compress_payload(
                        worker.storage.buffer(chunk.chunk_id)
                    )
                    stored = len(payload)
                    entry["payload"] = payload
                else:
                    model = runtime.disk_model
                    stored = (
                        model.stored_bytes(chunk.chunk_id, chunk.dtype, raw)
                        if model is not None
                        else raw
                    )
                entry["stored"] = stored
                array_entry["chunks"].append(entry)
                captured.append((chunk, entry))
                total_raw += raw
                total_stored += stored
                # Charge the capture in virtual time on the owning worker:
                # raw bytes through the codec, stored bytes onto disk.
                worker.resources.compress.request(
                    raw, lambda: None, label="checkpoint compress"
                )
                worker.resources.disk_write.request(
                    stored, lambda: None, label="checkpoint write"
                )
            manifest["arrays"].append(array_entry)
        _ckpt.write_checkpoint(path, manifest)
        runtime.run_until_idle()
        runtime.counters.checkpoints_written += 1
        runtime.counters.chunks_checkpointed += len(captured)
        runtime.counters.checkpoint_bytes_raw += total_raw
        runtime.counters.checkpoint_bytes_stored += total_stored
        if runtime.lineage is not None and self.functional:
            for chunk, entry in captured:
                runtime.lineage.note_durable(
                    chunk.chunk_id,
                    _ckpt.make_loader(
                        path, entry, chunk.dtype, chunk.region.shape
                    ),
                )
        return manifest

    def restore(self, path: str) -> Dict[str, "DistributedArray"]:
        """Rebuild every array recorded in the checkpoint at ``path``.

        Each array is recreated under its serialised distribution, evaluated
        against *this* context's device list — a checkpoint taken on one
        cluster restores onto another (including a shrunken post-failure
        one).  In functional mode the chunk payloads are checksum-verified,
        decompressed and reassembled, so restored contents are bit-identical
        to what :meth:`checkpoint` captured.  The simulated cost — stored
        bytes over the disk read link, raw bytes through the decompress
        lane — is charged on each recorded home worker (clamped to the
        current cluster).  Returns ``{name_or_array_<id>: array}``.
        """
        from ..runtime import checkpoint as _ckpt

        manifest = _ckpt.read_manifest(path)
        runtime = self.runtime
        restored: Dict[str, DistributedArray] = {}
        worker_count = len(runtime.workers)
        for array_entry in manifest["arrays"]:
            distribution = _ckpt.decode_distribution(array_entry["distribution"])
            dtype = np.dtype(array_entry["dtype"])
            shape = tuple(int(s) for s in array_entry["shape"])
            entries = array_entry["chunks"]
            has_payload = any(entry["length"] for entry in entries)
            if self.functional and has_payload:
                data = np.zeros(shape, dtype=dtype)
                for entry in entries:
                    data[_ckpt.region_slices(entry["region"])] = _ckpt.load_chunk(
                        path, entry, dtype, _ckpt.region_shape(entry["region"])
                    )
                array = self.from_numpy(data, distribution, name=array_entry["name"])
            else:
                array = self.empty(
                    shape, distribution, dtype=dtype, name=array_entry["name"]
                )
            for entry in entries:
                worker = runtime.workers[int(entry["home"][0]) % worker_count]
                worker.resources.disk_read.request(
                    int(entry["stored"]), lambda: None, label="restore read"
                )
                worker.resources.decompress.request(
                    int(entry["raw"]), lambda: None, label="restore decompress"
                )
            runtime.counters.chunks_restored += len(entries)
            key = array_entry["name"] or f"array_{array_entry['array_id']}"
            restored[key] = array
        self.synchronize()
        return restored

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def compile(self, definition: KernelDef) -> CompiledKernel:
        """Runtime-compile a kernel: generate its wrapper and register it with every worker.

        Compiling the *identical* definition again is idempotent and returns
        the already-compiled kernel; only a **different** definition reusing a
        name is an error (it would silently change what launches execute).
        """
        if self._kernel_prefix and not definition.name.startswith(self._kernel_prefix):
            definition = _dc_replace(
                definition, name=self._kernel_prefix + definition.name
            )
        existing = self.kernels.get(definition.name)
        if existing is not None:
            if existing.definition == definition:
                return existing
            raise ValueError(
                f"kernel {definition.name!r} is already compiled in this context "
                "with a different definition"
            )
        wrapper = self.wrappers.get(definition.name, [p.name for p in definition.params])
        kernel = CompiledKernel(definition, self, wrapper)
        self.kernels[definition.name] = kernel
        self.runtime.register_kernel(definition.name, kernel)
        return kernel

    def launch(
        self,
        kernel: CompiledKernel,
        grid: Union[int, Sequence[int]],
        block: Union[int, Sequence[int]],
        work_dist: WorkDistribution,
        args: Sequence[object],
    ) -> None:
        """Append one distributed kernel launch to the launch window.

        The launch is *analysed* now (planning errors surface here, and the
        plan-template cache is consulted) but stamped and submitted only when
        the window drains — at a barrier, or when the lookahead depth is
        reached — so the window's fusion and memory-planning passes can look
        across consecutive launches.
        """
        grid_dims = _normalize_dims(grid)
        block_dims = _normalize_dims(block)
        if len(block_dims) == 1 and len(grid_dims) > 1:
            block_dims = block_dims + (1,) * (len(grid_dims) - 1)
        if len(block_dims) != len(grid_dims):
            raise ArgumentValueError("grid and block dimensionality mismatch")
        scalars, arrays = kernel.bind_args(args)
        for name, array in arrays.items():
            if not isinstance(array, DistributedArray):
                raise ArgumentTypeError(f"argument {name!r} must be a DistributedArray")
            if array.deleted:
                raise ArgumentValueError(f"argument {name!r} refers to a deleted array")
        # Deferred expressions reading an array this launch writes must be
        # lowered first so they observe the pre-launch contents.
        self.expr.force_before_launch(kernel, arrays)
        self._launch_counter += 1
        array_bindings = {name: arr for name, arr in arrays.items()}
        # Plans are cached by kernel, dimensions and the arrays' names and
        # chunk layouts, so a launch on new arrays of a known layout (a
        # served tenant's next job) restamps a cached plan.  Any plan naming
        # misaligned writes offers the re-chunk step, cached or not.
        prepared = self.planner.prepare_launch(
            kernel, grid_dims, block_dims, work_dist, array_bindings,
            rechunk=self._rechunk_written,
        )
        self.window.submit(
            PendingLaunch(
                kernel=kernel,
                grid=grid_dims,
                block=block_dims,
                work_dist=work_dist,
                scalars=scalars,
                arrays=array_bindings,
                launch_id=self._launch_counter,
                prepared=prepared,
                array_ids=frozenset(a.array_id for a in array_bindings.values()),
            )
        )

    # ------------------------------------------------------------------ #
    # synchronisation and statistics
    # ------------------------------------------------------------------ #
    def flush_launches(self) -> None:
        """Drain the launch window without waiting for completion."""
        self.window.flush("explicit")

    def synchronize(self) -> float:
        """Block until all submitted work has finished; returns the virtual time."""
        self.expr.force_pending()
        self.window.flush("synchronize")
        return self.runtime.run_until_idle()

    # ------------------------------------------------------------------ #
    # context-manager protocol
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Context":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        # Synchronise (which drains the launch window) on a clean exit so
        # ``with Context(...) as ctx:`` blocks never leave work pending.  On
        # an exception the pending work is abandoned rather than masking the
        # original error with a secondary runtime failure.
        if exc_type is None:
            self.synchronize()
        return False

    def stats(self) -> RuntimeStats:
        """This context's view of the run so far (:meth:`RuntimeSystem.stats`)."""
        return self.runtime.stats(self)

    def trace(self):
        """The resource busy-interval trace (``enable_trace=True``)."""
        return self.runtime.trace

    @property
    def recorded_plans(self):
        """Execution plans submitted so far (requires ``record_plans=True``)."""
        return self.runtime.recorded_plans
