"""Pin the digest of exact outputs for a set of seeds into ``digests.json``.

Run from the repository root, only on a commit whose answers are known
to be right (every oracle check passes):

    python3 bench/pin_digests.py

A later run on a pinned seed fails every query of the digest prefix if
any value, scheduler, quantile or Monte Carlo hit count differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

# Seeds 1 to 20, which tuning used, plus the held-out seed.
SEEDS = list(range(1, 21)) + [run.HELD_OUT_SEED]


def digest(name: str, seed: int, workdir: str) -> str:
    _, queries, _ = run.setup(name, seed, workdir)
    del queries[run.DIGEST_QUERIES:]
    gate = run.Gate(queries)
    run.timed_loop(queries, gate, 0, 1)
    if gate.failed:
        raise SystemExit(f"{name} seed {seed}: refusing to pin wrong answers: {gate.bad}")
    prefix, value = gate.digest()
    assert prefix == run.DIGEST_QUERIES
    return value


def main() -> int:
    workdir = os.path.join(run.OUT_DIR, f"pin-{os.getpid()}")
    pinned: dict = {"queries": run.DIGEST_QUERIES}
    try:
        for name in run.WORKLOADS:
            pinned[name] = {str(seed): digest(name, seed, workdir) for seed in SEEDS}
            print(f"pinned {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
