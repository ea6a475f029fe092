"""Set-up as a user pays it, in a fresh interpreter: import toricdeg and
toricdeg.cli, build the CLI parser, and make one workload's inputs.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON object with the phase times in seconds.  ``run.py`` starts
this several times for ``setup_s``, and for the traced run several more
times under ``-X importtime``, whose report on standard error gives numpy's
import time.
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import toricdeg  # noqa: E402,F401
import toricdeg.cli  # noqa: E402

t1 = time.perf_counter()
toricdeg.cli.build_parser()
t2 = time.perf_counter()
import workloads  # noqa: E402

workloads.schedule(sys.argv[1], int(sys.argv[2]), workloads.load_catalog(sys.argv[1]))
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parser_s": t2 - t1, "generate_s": t3 - t2,
                  "total_s": t3 - t0}))
