"""Lazy expressions: whole formulas fused into a handful of generated kernels.

Array operators (``+ - * /``, ``repro.core.expr.sqrt``/``exp``/``log``,
slicing, ``.sum()``) record a DAG instead of launching anything.  At a
barrier — ``gather``, ``synchronize`` or ``.evaluate()`` — the DAG is lowered:
elementwise subgraphs fuse into generated map kernels, interior temporaries
are never allocated, and a dead input buffer can be reused in place.  The
same script under ``Context(lazy=False)`` launches one kernel per operator,
which is exactly what the ``expr`` gate of ``benchmarks/gates.py`` measures
against.

Run with:  python examples/expressions.py
"""

import numpy as np

from repro import BlockDist, Context, azure_nc24rsv2
from repro.bench import scaled
from repro.core.expr import graph as ex


def smooth_norm(ctx, n):
    """A small pipeline: neighbour average, then a normalised exponential."""
    dist = BlockDist(max(256, n // 8))
    rng = np.random.default_rng(7)
    data = rng.uniform(0.5, 2.0, n).astype(np.float32)
    x = ctx.from_numpy(data, dist, name="x")

    # Neighbour average via aliased slices of the same array (one fused
    # kernel reads x at three offsets), then exp-normalise.  None of the
    # intermediates below allocates distributed storage.
    smooth = (x[:-2] + x[1:-1] + x[2:]) / 3.0
    weight = ex.exp(-smooth * smooth)
    total = weight.sum()

    values = ctx.gather(weight)  # the barrier: the whole DAG lowers here
    total = ctx.gather(total)[0]

    padded = data
    ref_smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / np.float32(3.0)
    ref_weight = np.exp(-ref_smooth * ref_smooth)
    return values, total, ref_weight


def main():
    n = scaled(1_000_000, floor=4_096)
    with Context(azure_nc24rsv2(nodes=1, gpus_per_node=4)) as ctx:
        values, total, ref = smooth_norm(ctx, n)
        stats = ctx.stats()
        print(f"cluster             : {ctx.describe()}")
        print(f"expressions lowered : {stats.exprs_lowered}")
        print(f"nodes fused         : {stats.expr_nodes_fused}")
        print(f"temporaries elided  : {stats.temporaries_elided} "
              f"({stats.temporaries_elided_bytes} bytes never allocated)")
        print(f"matches NumPy       : "
              f"{np.allclose(values, ref, rtol=1e-5, atol=1e-6)}")
        print(f"sum(weight)         : {total:.4f} "
              f"(reference {ref.astype(np.float64).sum():.4f})")


if __name__ == "__main__":
    main()
