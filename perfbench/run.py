"""End-to-end benchmark of the XED reproduction.

    python3 perfbench/run.py --workload paper_quick --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Names, units and workloads are listed in
``BENCHMARK.json`` and explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import ROOT, SRC, WORK, log

#: No run may take longer than this, whatever ``--seconds`` says: every
#: child, request and job is bounded by it and counts as failed past it.
HARD_LIMIT_S = 160.0
WORKLOADS = ("paper_quick", "perf_grid", "service_mixed")


def _units() -> dict:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result document."""
    hard_stop = time.monotonic() + HARD_LIMIT_S
    if workload == "service_mixed":
        from service import run_service

        outcome = run_service(seed, seconds, trace, hard_stop)
    else:
        from batch import run_batch

        kind = "paper" if workload == "paper_quick" else "grid"
        outcome = run_batch(kind, seed, seconds, trace, hard_stop)
    units = _units()["per_layer" if trace else "end_to_end"]
    values = outcome["metrics"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    tally = outcome["tally"]
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A layer the workload never enters reports 0.
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
