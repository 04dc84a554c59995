"""Rebuild pool.json, the descriptors carrier_dump draws from.

    python3 perfbench/calibrate.py

Generates in-band descriptors from a fixed seed, times each with
`proccat dump <descriptor> 0 2` in fresh interpreters (median of three),
and keeps those that take between MIN_S and MAX_S.  The measured seconds
let each seeded draw ask for the same total work, so that the seed picks
which carriers are built without moving wall_s.  Rerun only when the
workload itself is redefined: the draw must stay the same on every commit
it compares.
"""
import json
import random
import statistics
import sys
import time
from pathlib import Path

import oracle
import run

POOL_SEED = 1406
CANDIDATES = 90
MIN_S, MAX_S = 0.05, 1.5


def main() -> None:
    run.fresh_workdir()
    pool = []
    for k, node in enumerate(oracle.candidates(random.Random(POOL_SEED), CANDIDATES)):
        text = oracle.render(node)
        walls = []
        for rep in range(3):
            result = run.spawn(["dump", text, "0", "2"], False, f"cal{k}_{rep}",
                               time.monotonic() + 60)
            if result["code"] != 0:
                sys.exit(f"dump failed: {text}")
            walls.append(result["wall_s"])
        secs = statistics.median(walls)
        print(f"{secs:8.3f}  {text}", flush=True)
        if MIN_S <= secs <= MAX_S:
            pool.append({"descriptor": text, "tree": node, "seed_s": round(secs, 4)})
    pool.sort(key=lambda d: d["descriptor"])
    out = Path(__file__).with_name("pool.json")
    out.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pool)} of {CANDIDATES} kept in {out.name}")


if __name__ == "__main__":
    main()
