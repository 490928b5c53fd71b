"""Operator-API Black-Scholes: an elementwise-heavy *expression* workload.

Unlike :mod:`.black_scholes` (one hand-written kernel), this workload prices
the same options through the lazy expression frontend: the whole formula is
written with ``+ - * /`` and :func:`repro.core.expr.sqrt`/``exp``/``log`` on
:class:`~repro.core.array.DistributedArray` handles, producing a ~26-node DAG
per pricing round.  Under ``Context(lazy=True)`` the DAG is lowered at the
synchronisation barrier into a handful of fused generated map kernels —
interior temporaries elided, launches batched into one window drain — while
``Context(lazy=False)`` turns every operator into an eager per-op launch.
The two arms are bit-identical by construction, which is exactly what the
``expr`` gate of ``benchmarks/gates.py`` checks.

The cumulative normal uses the logistic approximation ``1 / (1 +
exp(-1.702 x))`` instead of the Abramowitz-Stegun polynomial because the
expression API (deliberately) has no ``where``; the reference below applies
the same approximation.
"""

from __future__ import annotations

import numpy as np

from ..core.distributions import BlockDist
from ..core.expr import graph as ex
from .base import Workload, align_extent, register_workload
from .black_scholes import RISK_FREE, VOLATILITY

__all__ = ["ExpressionsWorkload", "expressions_reference", "build_price_expressions"]

#: logistic CND steepness (Bowling et al. approximation of the normal CDF)
_LOGISTIC_K = 1.702


def build_price_expressions(price, strike, years):
    """Call/put price expressions over three distributed (or lazy) operands.

    Pure operator code — works identically in lazy and eager mode.  The
    intermediates are locals of this function, so by the time the DAG is
    lowered (at a barrier, after the frame is gone) the only nodes user code
    still references are the returned roots: everything reachable exactly
    once from them fuses and its temporary is elided.
    """
    sqrt_t = ex.sqrt(years)
    vol_sqrt = VOLATILITY * sqrt_t
    d1 = (ex.log(price / strike) + (RISK_FREE + 0.5 * VOLATILITY**2) * years) / vol_sqrt
    d2 = d1 - vol_sqrt
    disc = ex.exp((-RISK_FREE) * years)
    nd1 = 1.0 / (1.0 + ex.exp(-_LOGISTIC_K * d1))
    nd2 = 1.0 / (1.0 + ex.exp(-_LOGISTIC_K * d2))
    strike_disc = strike * disc
    call = price * nd1 - strike_disc * nd2
    put = strike_disc * (1.0 - nd2) - price * (1.0 - nd1)
    return call, put


def expressions_reference(price, strike, years):
    """NumPy (float64) reference applying the same logistic-CND formula."""
    price = np.asarray(price, dtype=np.float64)
    strike = np.asarray(strike, dtype=np.float64)
    years = np.asarray(years, dtype=np.float64)
    sqrt_t = np.sqrt(years)
    vol_sqrt = VOLATILITY * sqrt_t
    d1 = (np.log(price / strike) + (RISK_FREE + 0.5 * VOLATILITY**2) * years) / vol_sqrt
    d2 = d1 - vol_sqrt
    disc = np.exp(-RISK_FREE * years)
    nd1 = 1.0 / (1.0 + np.exp(-_LOGISTIC_K * d1))
    nd2 = 1.0 / (1.0 + np.exp(-_LOGISTIC_K * d2))
    strike_disc = strike * disc
    call = price * nd1 - strike_disc * nd2
    put = strike_disc * (1.0 - nd2) - price * (1.0 - nd1)
    return call, put


@register_workload
class ExpressionsWorkload(Workload):
    """n options priced through the operator API (lazy or eager per context)."""

    name = "expressions"
    compute_intensive = False
    iterations = 1

    DEFAULT_CHUNK = 100_000_000

    def __init__(self, ctx, n, chunk_elems: int | None = None, **params):
        super().__init__(ctx, n, **params)
        chunk_elems = chunk_elems or min(self.DEFAULT_CHUNK, max(1, self.n))
        self.chunk_elems = align_extent(chunk_elems, 256)

    def prepare(self) -> None:
        """Create the three input arrays (no kernels to compile: all generated)."""
        ctx = self.ctx
        dist = BlockDist(self.chunk_elems)
        self.price = ctx.full(self.n, 100.0, dist, dtype="float32", name="ex_price")
        self.strike = ctx.full(self.n, 95.0, dist, dtype="float32", name="ex_strike")
        self.years = ctx.full(self.n, 1.0, dist, dtype="float32", name="ex_years")
        self.call = None
        self.put = None

    def submit(self) -> None:
        """Record one pricing round; lowering happens at the barrier."""
        self.call, self.put = build_price_expressions(
            self.price, self.strike, self.years
        )

    def data_bytes(self) -> int:
        """Problem size in bytes (3 inputs + call + put, float32)."""
        return 5 * self.n * 4

    def verify(self) -> bool:
        """Check gathered results against the logistic-CND NumPy reference."""
        call = self.ctx.gather(self.call)
        put = self.ctx.gather(self.put)
        ref_call, ref_put = expressions_reference(
            np.full(self.n, 100.0), np.full(self.n, 95.0), np.full(self.n, 1.0)
        )
        return bool(
            np.allclose(call, ref_call, rtol=1e-3, atol=1e-3)
            and np.allclose(put, ref_put, rtol=1e-3, atol=1e-3)
        )
