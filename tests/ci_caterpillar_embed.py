"""Embed the Gr(2,n) Pluecker ideal under its caterpillar-tree matrix with
`toricdeg embed --convention max`, within a wall-time bound and optionally a
peak-RSS bound and a pinned host list; exit 1 when a bound or the hosts
fail.  Writes the ideal and matrix under $RUNNER_TEMP and appends one
summary line to $GITHUB_STEP_SUMMARY.

    python3 tests/ci_caterpillar_embed.py N TIMEOUT_S [--max-rss-mb MB] [--hosts 0,1,...]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from reference_embedding import caterpillar_matrix, plucker_ideal

from toricdeg.ioformats import ideal_to_text


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("n", type=int)
    parser.add_argument("timeout", type=float, help="wall-time bound in seconds")
    parser.add_argument("--max-rss-mb", type=float)
    parser.add_argument("--hosts", help="the expected independent_vars, comma-separated")
    args = parser.parse_args()
    n, tmp = args.n, os.environ["RUNNER_TEMP"]
    ideal, matrix = f"{tmp}/gr2{n}.ideal", f"{tmp}/gr2{n}.json"
    with open(ideal, "w") as fh:
        fh.write(ideal_to_text(plucker_ideal(n)))
    with open(matrix, "w") as fh:
        json.dump(caterpillar_matrix(n).rows_list(), fh)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "toricdeg.cli", "embed", "--in", ideal,
                          "--matrix", matrix, "--convention", "max"],
                         stdout=subprocess.PIPE, check=True, timeout=args.timeout).stdout
    wall_s = time.perf_counter() - start
    # Linux reports kilobytes: the largest waited-for child, here the embed
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    hosts = json.loads(out)["independent_vars"]
    line = f"Gr(2,{n}) embed: {wall_s:.1f} s wall, {peak_mb:.1f} MB peak RSS"
    if args.hosts is not None:
        line += f", hosts {hosts}"
    print(line)
    with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as fh:
        fh.write(line + "\n")
    too_big = args.max_rss_mb is not None and peak_mb > args.max_rss_mb
    moved = args.hosts is not None and hosts != [int(h) for h in args.hosts.split(",")]
    return 1 if too_big or moved else 0


if __name__ == "__main__":
    sys.exit(main())
