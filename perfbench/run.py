"""Run one workload of the oomid benchmark and print its result line.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (``harness.py``) with OpenBLAS, OpenMP and MKL pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics and also starts
further set-up-only workers, so that ``setup_s`` is a median.  ``--trace 1``
reports the per-layer metrics from a run with layer wrappers installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record, with
machine details, per-item digests and failures, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.  The exit
code is 0 only when every item ran and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import RESULTS, ROOT, WORKLOADS  # noqa: E402
from tracing import UNITS as PER_LAYER_UNITS  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "setup_s": "s",
}
# set-ups per timed run: the timed worker plus set-up-only workers; the
# short paper-grid set-up (~0.3 s, mostly imports) needs more samples for a
# steady median
SETUP_REPEATS = {"paper-grid": 11, "exact-solve": 5}
DEADLINE_S = 170.0  # every worker of one invocation must end by then
COVERAGE_FLOOR = 0.9


class WorkerFailed(Exception):
    pass


def run_worker(args, started: float, *extra: str) -> dict:
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
    remaining = DEADLINE_S - (time.monotonic() - started)
    cmd = [
        sys.executable, str(BENCH_DIR / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launch-time", repr(launch)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker still running after {DEADLINE_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()
    RESULTS.mkdir(exist_ok=True)

    try:
        report = run_worker(args, started)
        setups = [report["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_REPEATS[args.workload] - 1):
                setups.append(run_worker(args, started, "--setup-only")["setup_s"])
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = report["records"]
    failures = [f"{r['key']}: {r['error']}" for r in records if r["error"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(report["numpy"]),
        "attempted": len(records),
        "failed": len(failures),
        "fail_frac": len(failures) / len(records),
        "failures": failures,
        "digest": report["digest"],
        "pinned_checked": report["pinned_checked"],
        "setup_s_samples": setups,
    }
    if args.trace:
        values = report["per_layer"]
        units = PER_LAYER_UNITS
        coverage = values["trace.coverage"]
        result["coverage_below_floor"] = coverage < COVERAGE_FLOOR
        if coverage < COVERAGE_FLOOR:
            print(f"warning: trace coverage {coverage:.3f} is below the floor "
                  f"{COVERAGE_FLOOR}", file=sys.stderr)
    else:
        timing = report["timing"]
        values = {
            "items_per_s": timing["items_per_s"],
            "item_s_p50": timing["item_s_p50"],
            "item_s_tail": timing["item_s_tail"],
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
        for key in ("tail_percentile", "items", "items_above_tail"):
            result[key] = timing[key]
        result["peak_rss_mib"] = report["peak_rss_mib"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result["metrics"] = metrics
    result["records"] = records
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for name, m in metrics.items():
        note = ""
        if name == "item_s_tail":
            note = (f"  (p{result['tail_percentile']} of {result['items']} items,"
                    f" {result['items_above_tail']} above it)")
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"peak_rss_mib = {result['peak_rss_mib']:.6g} MiB  (recorded, not gated)")
    print(f"fail_frac = {result['fail_frac']:g}  ({len(failures)} of {len(records)} items)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"digest {result['digest']}  pinned items checked: {result['pinned_checked']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
