#!/usr/bin/env python3
"""One workload set-up: import synthtop from this checkout, build the
workload's fixed input set for a seed, load its golden.

    python3 bench/ready.py WORKLOAD SEED

Run as a script, it sets up in a fresh interpreter and prints the
`time.monotonic()` reading at which the workload is ready; `run.py`
starts it several times and takes, for ``setup_s``, the time from just
before each process starts to that reading.
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
GOLDENS = os.path.join(BENCH, "goldens.json")


def load_golden(workload: str, seed: int) -> dict | None:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)[workload].get(str(seed))


def setup(workload: str, seed: int):
    """Import synthtop and the workload module; return the module, the
    workload's fixed input set and the golden for the seed (or None)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    origin = os.path.abspath(sys.modules["synthtop"].__file__)
    if not origin.startswith(os.path.join(SRC, "synthtop") + os.sep):
        raise ImportError(f"synthtop imported from {origin}, not from {SRC}")
    return workloads, workloads.WORKLOADS[workload](seed), load_golden(workload, seed)


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
    print(repr(time.monotonic()))
