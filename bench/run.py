"""Benchmark of toricdeg: one workload as a closed loop with one client, in a
single-threaded process.  Each job starts when the previous one ends.

    python3 bench/run.py --workload families --seed 1 --seconds 14 --trace 0
    python3 bench/run.py --workload all      # every workload, one table
    python3 bench/run.py --smoke             # one job of each workload

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of a
separate traced run.  Every run also writes a results file under
``bench/results/``.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_library():
    package = SRC / "toricdeg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {package}; "
                         "run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import toricdeg

    if Path(toricdeg.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported toricdeg from {toricdeg.__file__}, not {package}")


# ---------------------------------------------------------------------------
# set-up


def _numpy_import_s(importtime_report: str) -> float:
    """numpy's cumulative import time from a ``-X importtime`` report, 0 when
    numpy was not imported."""
    for line in importtime_report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def _probe(workload: str, seed: int, importtime: bool):
    """One fresh interpreter running setup_probe: its phase times and stderr."""
    flags = ["-X", "importtime"] if importtime else []
    res = subprocess.run(
        [sys.executable, *flags, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.splitlines()[-1]), res.stderr


def measure_setup(workload: str, seed: int, repeats: int, numpy_time: bool) -> dict:
    """Median phase times of `repeats` fresh interpreters running setup_probe,
    and the median of their total times scaled to the reference speed, which
    the reference loop gives just before and after each interpreter.

    With `numpy_time`, also the median of numpy's import time over as many
    further interpreters run under ``-X importtime``; that report slows every
    import, so those interpreters do not count in the phase times.
    """
    from speed import speed_factor

    runs = []
    for _ in range(repeats):
        before = speed_factor()
        probe = _probe(workload, seed, False)[0]
        probe["speed_factor"] = (before + speed_factor()) / 2
        probe["scaled_s"] = probe["total_s"] / probe["speed_factor"]
        runs.append(probe)
    setup = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    if numpy_time:
        setup["numpy_s"] = statistics.median(
            _numpy_import_s(_probe(workload, seed, True)[1]) for _ in range(repeats))
    return setup


# ---------------------------------------------------------------------------
# measurement


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it;
    the maximum when there are too few samples.  Returns (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import workloads as wl
    from envinfo import environment
    from speed import SpeedProbe
    from tracer import Tracer

    setup = measure_setup(workload, seed, 1 if smoke else SETUP_REPEATS, numpy_time=trace)
    catalog = wl.load_catalog(workload)
    for i, e in enumerate(catalog["entries"]):
        e["id"] = i
    if smoke:
        jobs = [min(catalog["entries"], key=lambda e: e["cost_s"])]
    else:
        jobs = wl.schedule(workload, seed, catalog)
    runner = wl.RUNNERS[workload]

    tracer = binding = None
    if trace:
        tracer = Tracer().install([wl])
        if not (smoke and workload == "fixtures"):
            binding = tracer.binding_check(lambda: runner(jobs[0]["input"]))
        tracer.spans.clear()

    # the untraced run samples the machine's speed and reports times scaled
    # to a fixed reference speed (speed.py says why)
    probe = None if trace or smoke else SpeedProbe()

    def execute(entry):
        root = tracer.begin_job(len(records)) if tracer else None
        error = out = None
        probe_s = probe.spent_s if probe else 0.0
        t0 = time.perf_counter()
        try:
            out = runner(entry["input"])
        except Exception as exc:  # a failed job is counted, and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latency = t1 - t0 - ((probe.spent_s - probe_s) if probe else 0.0)
        if tracer:
            tracer.close(root, {"entry": entry["id"], **wl.input_sizes(workload, entry["input"], out)})
        if error is None and wl.digest(out) != entry["digest"]:
            error = "output digest differs from the catalogue"
        records.append({"entry": entry["id"], "start": t0, "end": t1, "latency_s": latency,
                        "error": error})
        return records[-1]

    # A run measures the seed's first n_jobs jobs, sized from the catalogue
    # so that one pass takes about half of `seconds`: one seed always
    # measures the same jobs, and job_tail_ms sits at the same rank.  The
    # first pass stops early only on a machine so slow that it outlasts
    # twice `seconds` (the machine the catalogue was built on runs 1-2.5
    # times slower than the catalogue at times).  The second pass runs the same jobs again, and a job's
    # latency is the faster of its two runs, each scaled to the reference
    # speed (speed.py), so that a run slowed by what the scaling misses
    # does not count.
    n_jobs, runs = (1, 1) if smoke else (wl.job_count(catalog, seconds / 2), 2)
    records, selected, first = [], [], []
    with probe or contextlib.nullcontext():
        t_start = time.perf_counter()
        while len(selected) < n_jobs and (not selected
                                          or time.perf_counter() - t_start < 2 * seconds):
            selected.append(jobs[len(selected) % len(jobs)])
            first.append(execute(selected[-1]))
        timed = [first] + [[execute(e) for e in selected] for _ in range(runs - 1)]
        elapsed = time.perf_counter() - t_start
    for r in records:
        r["speed_factor"] = probe.factor(r["start"], r["end"]) if probe else 1.0
        r["scaled_s"] = r["latency_s"] / r["speed_factor"]
    latencies = [min(r["scaled_s"] for r in per_job) for per_job in zip(*timed)]
    unscaled = [min(r["latency_s"] for r in per_job) for per_job in zip(*timed)]
    ok_jobs = sum(all(r["error"] is None for r in per_job) for per_job in zip(*timed))
    # before the environment stamp and the result are built, which must not
    # count in the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(r["error"] is not None for r in records)
    tail, tail_pct = _tail(latencies)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "measured_s": elapsed,
        "trace": trace,
        "environment": environment(),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "jobs": len(latencies),
        "tail_percentile": tail_pct,
        "speed_factor": statistics.median(r["speed_factor"] for r in records),
        "unscaled": {"jobs_per_s": ok_jobs / sum(unscaled),
                     "job_p50_ms": statistics.median(unscaled) * 1e3,
                     "job_tail_ms": _tail(unscaled)[0] * 1e3},
        "executions": records,
        "setup": setup,
    }
    if not trace:
        result["metrics"] = {
            "jobs_per_s": (ok_jobs / sum(latencies), "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_tail_ms": (tail * 1e3, "ms"),
            "setup_s": (setup["scaled_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_span = tracer.calibrate()
        metrics = tracer.per_layer()
        metrics["setup.import_numpy_s"] = (setup["numpy_s"], "s")
        metrics["setup.import_toricdeg_s"] = (setup["import_s"], "s")
        metrics["trace.overhead_s"] = (len(tracer.spans) * per_span + tracer.attr_s, "s")
        result["metrics"] = metrics
        result["binding_check"] = binding
        result["spans"] = tracer.spans
        tracer.uninstall()
    bad_bindings = {k: v for k, v in (binding or {}).items() if v[0] != v[1]}
    result["binding_mismatch"] = bad_bindings
    result["correct"] = failed == 0 and not bad_bindings
    return result


# ---------------------------------------------------------------------------
# output


def _write_results(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if result["trace"] else ""
    path = RESULTS / f"{result['workload']}-seed{result['seed']}{suffix}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return path


def _report(result: dict, metrics: bool = True) -> None:
    w = result["workload"]
    for name, (value, unit) in result["metrics"].items() if metrics else ():
        print(f"{w} {name} = {value:.6g} {unit}")
    print(f"{w} fail_ratio = {result['fail_ratio']:.6g} ({result['failed']} of {result['attempted']})")
    if not result["trace"]:
        n = result["jobs"]
        print(f"{w} job_tail_ms is p{result['tail_percentile']:.4g} of {n} jobs"
              + ("" if n > TAIL_BEYOND else f" (the maximum: fewer than {TAIL_BEYOND + 1} jobs)"))
        print(f"{w} times above are at the reference speed; the reference loop ran "
              f"{result['speed_factor']:.3g} times slower; unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in result["unscaled"].items())
              + f", setup_s = {result['setup']['total_s']:.6g}")
    if result.get("binding_check"):
        bb = result["binding_check"]["groebner.buchberger"]
        print(f"{w} binding check: groebner.buchberger wrapped {bb[0]}, profiled {bb[1]}")
    for name, (wrapped, profiled) in result["binding_mismatch"].items():
        print(f"{w} BINDING MISMATCH {name}: wrapped {wrapped}, profiled {profiled}")
    for r in result["executions"]:
        if r["error"]:
            print(f"{w} FAILED job on entry {r['entry']}: {r['error']}")


def _summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def _run_all(args) -> int:
    """Each workload in a fresh interpreter; one table of every metric."""
    import workloads as wl

    ok = True
    for w in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            print(f"{w}: exit code {res.returncode}\n{res.stderr}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def _smoke(args) -> int:
    import workloads as wl

    ok = True
    for w in wl.WORKLOADS:
        result = measure(w, args.seed, 0, trace=True, smoke=True)
        _report(result, metrics=False)
        ok = ok and result["correct"]
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _run_seconds() -> float:
    """run_seconds of BENCHMARK.json, the run length its bounds were measured at."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toricdeg benchmark")
    ap.add_argument("--workload", choices=("fixtures", "families", "lattices", "moment", "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=_run_seconds(),
                    help="how long one run measures; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run one job of each workload, traced, and exit non-zero on any failure")
    args = ap.parse_args(argv)
    _import_library()
    if args.smoke:
        return _smoke(args)
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = _write_results(result)
    _report(result)
    print(f"results: {path.relative_to(ROOT)}")
    print(_summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
