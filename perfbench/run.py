"""The repository benchmark: three simulate-mode workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stencil_chain --seed 1 --seconds 15 --trace 0

A run first checks the workload's outputs in functional mode at a small
size, then repeats rounds of *set up, one timed pass* until ``--seconds``
have passed and every seeded input variant has run once.  With
``--trace 0`` it prints the end-to-end metrics, measured with no layer
wrapped; with ``--trace 1`` it alternates untraced and traced rounds and
prints the per-layer metrics of the traced passes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; progress goes to standard error.  See
``perfbench/README.md`` for the metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    """Put the program's sources on the path; fail when they are missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["stencil_chain", "kmeans_ooc", "serving_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()
    from bench import run
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
