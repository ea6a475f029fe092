"""The benchmark harness runs end to end: one job of each workload, traced,
with correct outputs and a passing binding check; and a short untraced run
reports exactly the end-to-end metrics BENCHMARK.json lists."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=HERE.parent,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "smoke: ok"


def test_untraced_run():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "moment", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=HERE.parent,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        expected = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
