#!/usr/bin/env python3
"""Record the goldens the benchmark checks its passes against.

    python3 bench/make_goldens.py --seeds 0-31

For each workload and seed it runs one untraced pass and stores the
pass's logical-step total with, for ``gate``, the stable JSON line of
every law report and, for the other workloads, a digest of every answer
observed.  A pass with a failed check is never recorded.  Existing
entries for other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run as runner  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = ap.parse_args()
    with open(runner.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for name in runner.NAMES:
        for seed in args.seeds:
            run = workloads.Run(NullTracer())
            (_, wall), summary = runner.timed_pass(workloads.WORKLOADS[name](seed), run)
            if run.failed:
                print(f"{name} seed {seed}: {run.failed} failed checks; "
                      "not recorded", file=sys.stderr)
                return 1
            goldens.setdefault(name, {})[str(seed)] = summary
            print(f"{name} seed {seed}: {summary['steps']} steps, {wall:.1f} s",
                  file=sys.stderr)
            with open(runner.GOLDENS, "w", encoding="utf-8") as fh:
                json.dump(goldens, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
