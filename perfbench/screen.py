"""Screen couplings for the pool G_POOL in workloads.py.

Candidate k is the k-th draw of random.Random(SCREEN_SEED).uniform(*G_RANGE),
for k below SCREEN_CANDIDATES.  A candidate is kept when one pass of every
workload at that coupling passes all output checks (run.check_op), which
allow no failed operation but the known one at (3, 4).  Prints one line per
candidate.

    python3 perfbench/screen.py
"""

import os
import random

import run
import workloads

SCREEN_SEED = 2106
SCREEN_CANDIDATES = 44


def candidates() -> list:
    rng = random.Random(SCREEN_SEED)
    return [rng.uniform(*workloads.G_RANGE) for _ in range(SCREEN_CANDIDATES)]


def screen(cli, g: float) -> list:
    """Reasons to reject coupling g; empty when it may join the pool."""
    out_path = run.OUT / f"screen-{os.getpid()}.json"
    reasons = []
    for workload in workloads.WORKLOADS:
        run.run_pass(cli, workloads.make_pass(workload, g), out_path, reasons)
    out_path.unlink(missing_ok=True)
    return reasons


def main():
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    for k, g in enumerate(candidates()):
        reasons = screen(cli, g)
        print(k, repr(g), "keep" if not reasons else f"reject: {reasons[0]}", flush=True)


if __name__ == "__main__":
    main()
