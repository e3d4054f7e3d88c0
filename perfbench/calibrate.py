"""Regenerate the benchmark's recorded data files.

    python3 perfbench/calibrate.py strata   # -> perfbench/strata.json
    python3 perfbench/calibrate.py pins     # -> perfbench/pins.json

``strata`` takes the estimated solve cost (``harness.elimination_cells``) of
1000 generated instances per size and records, for each cost octile, the
band of its middle quarter; the run draws its instances from these bands,
one per band in turn.  ``pins`` records the output
digest of the first items of every workload for seed 0, which every run on
seed 0 checks its items against.

Both files describe the program as it was when they were recorded.  Re-pin
only when the benchmark's items change, never to accept changed outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness

STRATA_SAMPLE = 1000
STRATA_SEED = 10**9  # far from the seeds any run draws
PINNED_ITEMS = {"paper-grid": 144, "exact-solve": harness.EXACT_POOL}


def strata() -> dict[str, list[list[int]]]:
    from oomid.generator import generate

    out = {}
    for n in harness.PAPER_SIZES:
        costs = []
        for j in range(STRATA_SAMPLE):
            seed = (STRATA_SEED + j) * harness.INSTANCE_SEED_FACTOR
            costs.append(harness.elimination_cells(generate(harness.params(n, "P", seed))))
        # cut i is the (i + 1)/64 quantile; octile k's middle quarter is
        # the (8k + 3)/64 to (8k + 5)/64 quantiles
        cuts = statistics.quantiles(costs, n=64)
        out[str(n)] = [[round(cuts[8 * k + 2]), round(cuts[8 * k + 4])] for k in range(8)]
        print(n, out[str(n)], flush=True)
    return out


def pins() -> dict[str, dict[str, str]]:
    out = {}
    harness.RESULTS.mkdir(exist_ok=True)
    for name, count in PINNED_ITEMS.items():
        workload = harness.make_workload(name, 0)
        records = harness.run_items(workload, range(count), {})
        failed = [r for r in records if r.error]
        if failed:
            raise SystemExit(f"{name}: {failed[0].key}: {failed[0].error}")
        out[name] = {r.key: r.digest for r in records}
        print(name, len(records), "items pinned", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("strata", "pins"))
    what = parser.parse_args().what
    harness.import_program()
    data = strata() if what == "strata" else pins()
    path = harness.BENCH_DIR / f"{what}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
