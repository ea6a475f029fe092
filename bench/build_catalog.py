"""Build the committed input catalogue of one workload.

    python3 bench/build_catalog.py families

Candidates come from the workload's generator in ``workloads.py`` under a
fixed seed, at most CANDIDATES of them, until KEEP are kept.  Each
candidate job runs with a wall-clock cap; a candidate over the cap is left
out and counted (NOTES.md gives the reason and the counts).  A candidate whose job raises or fails a check stops the build: the
catalogue must not hide a wrong answer.  Each kept entry records its cost, the
fastest of three runs, by which ``workloads.schedule`` cuts the catalogue
into strata, and the SHA-256 of its job's canonical text output, which later
runs must reproduce.

The output file records the interpreter, numpy and commit it was built with.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from envinfo import environment  # noqa: E402

CAPS_S = {"families": 1.0, "lattices": 1.5, "moment": 5.0}
KEEP = 192
CANDIDATES = 2000


class _OverCap(Exception):
    pass


def _alarm(signum, frame):
    raise _OverCap()


def _timed(fn, inp, cap):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        out = fn(inp)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, time.perf_counter() - t0


def build(workload: str) -> dict:
    runner = wl.RUNNERS[workload]
    if workload == "fixtures":
        out, cost = _timed(runner, {}, 60.0)
        return {"workload": workload, "environment": environment(),
                "entries": [{"input": {}, "digest": wl.digest(out), "cost_s": round(cost, 4)}]}
    rng = random.Random(f"catalog:{workload}")
    cap = CAPS_S[workload]
    kept, over_cap, seen = [], 0, set()
    for i in range(CANDIDATES):
        inp = wl.GENERATORS[workload](rng)
        key = json.dumps(inp, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        try:
            out, cost = _timed(runner, inp, cap)
        except _OverCap:
            over_cap += 1
            print(f"{i}: over the {cap} s cap", file=sys.stderr)
            continue
        # the cost ranks entries into strata: take the fastest of three runs
        cost = min([cost] + [_timed(runner, inp, 10 * cap)[1] for _ in range(2)])
        kept.append({"input": inp, "digest": wl.digest(out), "cost_s": round(cost, 4)})
        print(f"{i}: {cost:.3f} s", file=sys.stderr)
        if len(kept) == KEEP:
            break
    if len(kept) < KEEP:
        raise SystemExit(f"only {len(kept)} of {KEEP} entries under the cap")
    kept.sort(key=lambda e: e["cost_s"])
    return {
        "workload": workload,
        "environment": environment(),
        "generator_seed": f"catalog:{workload}",
        "cap_s": cap,
        "candidates_run": len(seen),
        "over_cap": over_cap,
        "entries": kept,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=wl.WORKLOADS)
    args = ap.parse_args(argv)
    cat = build(args.workload)
    path = wl.CATALOG_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(cat['entries'])} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
