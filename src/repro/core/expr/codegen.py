"""Generated map/reduce kernels for lowered expression groups.

A fused elementwise group is described by a :class:`MapKernelSpec` — a pure
*structural* description (operations, input slots with their read offsets,
scalar kinds, dtypes) with no array identities in it.  Two groups with the
same structure share one generated kernel, which is what lets lowered
launches participate in the plan-template cache: the kernel name is stable
per structure and scalar values are kernel *parameters*, not constants baked
into the source, so the cache key (kernel name, grid, block, work dist,
array bindings + layout epochs) behaves exactly like a hand-written kernel's.

The generated function follows the repository's kernel model: one Python
call per superblock, global indices from the :class:`LaunchContext`,
``gather``/``scatter`` element access.  Every instruction casts its value to
the dtype recorded for the corresponding DAG node, which is what makes a
fused evaluation bit-identical to the eager one-kernel-per-op evaluation of
the same DAG.  The matching CUDA skeleton of a generated kernel comes from
:func:`repro.core.cudagen.generate_device_kernel_skeleton`, same as for any
hand-declared kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...perfmodel.costs import KernelCost
from ..cudagen import generate_device_kernel_skeleton
from ..kernel import KernelDef
from .graph import OP_TEMPLATES, REDUCE_SYMBOLS

__all__ = ["MapKernelSpec", "build_kernel_def", "generate_map_source", "cuda_skeleton"]

#: index-variable names per grid axis in generated annotations
_VARS = "ijkl"

#: a reference into the generated program: ("in", slot), ("reg", instr),
#: ("scalar", index)
Ref = Tuple[str, int]


@dataclass(frozen=True)
class MapKernelSpec:
    """Structural description of one fused elementwise (or reduce) group.

    Hashable and array-free: the engine memoises compiled kernels by spec, so
    re-evaluating the same expression *shape* — same ops, same slot/aliasing
    pattern, any arrays, any scalar values — reuses both the generated kernel
    and (through the planner's template cache) its plan recipe.
    """

    kind: str  # 'map' | 'reduce'
    ndim: int
    scalar_kinds: Tuple[str, ...]  # 'i' | 'f' per scalar parameter
    #: input slots: (per-axis read offsets, dtype string); slots are deduped
    #: by (array, offsets), so the aliasing pattern is part of the structure
    slots: Tuple[Tuple[Tuple[int, ...], str], ...]
    #: program in dependency order: (op, operand refs, result dtype string)
    instrs: Tuple[Tuple[str, Tuple[Ref, ...], str], ...]
    #: the ref holding the group's final value (usually the last instruction,
    #: but a bare slot for a materialised shift/leaf reduction)
    result_ref: Ref
    out_dtype: str
    reduce_op: Optional[str] = None  # 'sum' | 'prod' | 'max' | 'min'
    #: input slot whose (dead) buffer doubles as the output, if any
    inplace_slot: Optional[int] = None


def _ref_expr(ref: Ref) -> str:
    tag, index = ref
    if tag == "in":
        return f"v{index}"
    if tag == "reg":
        return f"r{index}"
    return f"s{index}"


def _index_expr(var: str, offset: int) -> str:
    if offset == 0:
        return var
    return f"{var}+{offset}" if offset > 0 else f"{var}{offset}"


def _gather_args(spec: MapKernelSpec, offsets: Tuple[int, ...]) -> str:
    return ", ".join(
        f"g{d}" if off == 0 else f"g{d} + {off}" if off > 0 else f"g{d} - {-off}"
        for d, off in enumerate(offsets)
    )


def generate_map_source(spec: MapKernelSpec, name: str) -> str:
    """Python source of the generated per-superblock kernel function."""
    params = [f"s{i}" for i in range(len(spec.scalar_kinds))]
    params += [
        f"in{k}" for k in range(len(spec.slots)) if k != spec.inplace_slot
    ]
    params.append("out")
    lines = [f"def {name}(lc, {', '.join(params)}):"]
    # Weak scalar promotion: the runtime may hand back NumPy scalar types,
    # which NEP 50 treats as strongly typed; plain Python scalars restore the
    # promotion behaviour the DAG's dtypes were computed with.
    for i, kind in enumerate(spec.scalar_kinds):
        cast = "float" if kind == "f" else "int"
        lines.append(f"    s{i} = {cast}(s{i})")
    if spec.ndim == 1:
        lines.append("    g0 = lc.global_indices(0)")
    else:
        lines.append("    g = lc.global_grid()")
        for d in range(spec.ndim):
            lines.append(f"    g{d} = g[{d}]")
    for k, (offsets, _) in enumerate(spec.slots):
        source = "out" if k == spec.inplace_slot else f"in{k}"
        lines.append(f"    v{k} = {source}.gather({_gather_args(spec, offsets)})")
    for j, (op, refs, _) in enumerate(spec.instrs):
        value = OP_TEMPLATES[op].format(*[_ref_expr(r) for r in refs])
        lines.append(f"    r{j} = {value}.astype(DT[{j}], copy=False)")
    result = _ref_expr(spec.result_ref)
    if spec.reduce_op is None:
        out_args = ", ".join(f"g{d}" for d in range(spec.ndim))
        lines.append(f"    out.scatter({out_args}, {result})")
    else:
        if spec.reduce_op in ("sum", "prod"):
            lines.append(f"    part = {result}.{spec.reduce_op}(dtype=ODT)")
        else:
            lines.append(f"    part = {result}.{spec.reduce_op}()")
        lines.append("    zero = np.zeros(1, dtype=np.intp)")
        lines.append("    cur = out.gather(zero)")
        combine = {
            "sum": "cur + part",
            "prod": "cur * part",
            "max": "np.maximum(cur, part)",
            "min": "np.minimum(cur, part)",
        }[spec.reduce_op]
        lines.append(f"    out.scatter(zero, ({combine}).astype(ODT, copy=False))")
    return "\n".join(lines) + "\n"


def _compile_func(spec: MapKernelSpec, name: str):
    source = generate_map_source(spec, name)
    namespace = {
        "np": np,
        "DT": tuple(np.dtype(d) for _, _, d in spec.instrs),
        "ODT": np.dtype(spec.out_dtype),
    }
    code = compile(source, f"<expr-kernel {name}>", "exec")
    exec(code, namespace)
    return namespace[name]


def _annotation_text(spec: MapKernelSpec) -> str:
    variables = _VARS[: spec.ndim]
    if spec.ndim == 1:
        head = f"global {variables[0]}"
    else:
        head = f"global [{', '.join(variables)}]"
    terms = []
    for k, (offsets, _) in enumerate(spec.slots):
        if k == spec.inplace_slot:
            continue
        index = ",".join(_index_expr(v, o) for v, o in zip(variables, offsets))
        terms.append(f"read in{k}[{index}]")
    point = ",".join(variables)
    if spec.reduce_op is not None:
        terms.append(f"reduce({REDUCE_SYMBOLS[spec.reduce_op]}) out[0]")
    elif spec.inplace_slot is not None:
        terms.append(f"readwrite out[{point}]")
    else:
        terms.append(f"write out[{point}]")
    return f"{head} => {', '.join(terms)}"


def _cost(spec: MapKernelSpec) -> KernelCost:
    bytes_per_thread = float(np.dtype(spec.out_dtype).itemsize)
    for k, (_, dtype) in enumerate(spec.slots):
        if k != spec.inplace_slot:
            bytes_per_thread += np.dtype(dtype).itemsize
    flops = 2.0 * max(1, len(spec.instrs)) + (4.0 if spec.reduce_op else 0.0)
    return KernelCost(flops_per_thread=flops, bytes_per_thread=bytes_per_thread)


def build_kernel_def(spec: MapKernelSpec, name: str) -> KernelDef:
    """A complete :class:`KernelDef` for one group structure."""
    definition = KernelDef(name, func=_compile_func(spec, name))
    for i, kind in enumerate(spec.scalar_kinds):
        definition = definition.param_value(f"s{i}", "float64" if kind == "f" else "int64")
    for k, (_, dtype) in enumerate(spec.slots):
        if k != spec.inplace_slot:
            definition = definition.param_array(f"in{k}", dtype)
    definition = definition.param_array("out", spec.out_dtype)
    return definition.annotate(_annotation_text(spec)).with_cost(_cost(spec))


def cuda_skeleton(definition: KernelDef) -> str:
    """CUDA source skeleton of a generated kernel (cudagen tie-in)."""
    return generate_device_kernel_skeleton(definition)
