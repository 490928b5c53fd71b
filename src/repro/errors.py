"""Exception hierarchy for the reproduction.

Every error the library raises deliberately derives from :class:`ReproError`,
so applications (and the CLI) can catch one type and print an actionable
message instead of a traceback.  The concrete classes also co-inherit from
``RuntimeError`` so code (and tests) written against the historical
``RuntimeError``-based failures keeps working.

* :class:`PlanningError` — the planner cannot build a valid execution plan
  (bad launch arguments, non-covering distributions, unsatisfiable layouts).
* :class:`ArgumentTypeError` / :class:`ArgumentValueError` — argument errors
  on the driver API (``Context.launch``, ``redistribute``); they co-inherit
  the builtin ``TypeError``/``ValueError`` callers historically caught.
* :class:`FaultError` — an *injected* fault became fatal: a transfer exhausted
  its retry budget, a task was scheduled onto a blacklisted device, or
  recovery could not rematerialize a lost chunk.
* :class:`SimulationStalled` — the event queue drained while tasks were still
  outstanding (a latent deadlock); the message lists the stuck tasks and the
  resources they wait on.
* :class:`CheckpointError` — a checkpoint file is missing, truncated, corrupt
  (checksum mismatch), or written by an incompatible format version.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PlanningError",
    "ArgumentTypeError",
    "ArgumentValueError",
    "FaultError",
    "SimulationStalled",
    "CheckpointError",
    "VerificationError",
]


class ReproError(Exception):
    """Base class for every deliberate error raised by the library."""


class PlanningError(ReproError, RuntimeError):
    """The planner cannot construct a valid plan for the requested operation."""


class ArgumentTypeError(PlanningError, TypeError):
    """A driver-API argument has the wrong type (e.g. a scalar where a
    :class:`~repro.core.array.DistributedArray` is required)."""


class ArgumentValueError(PlanningError, ValueError):
    """A driver-API argument has an invalid value (e.g. a distribution that
    does not cover the array domain)."""


class FaultError(ReproError, RuntimeError):
    """An injected fault became fatal (retries exhausted, lineage gap,
    blacklisted device)."""


class SimulationStalled(ReproError, RuntimeError):
    """The simulator ran out of events while tasks were still pending."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file cannot be read back: bad magic, truncated footer,
    per-chunk checksum mismatch, or an unknown distribution type."""


class VerificationError(ReproError, RuntimeError):
    """A functional run's result does not match its NumPy reference."""
