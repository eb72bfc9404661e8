"""The batch workloads, ``paper_quick`` and ``perf_grid``.

Each iteration is one fresh ``child.py`` process.  Iterations repeat
until ``--seconds`` have passed, with at least ``min_iterations``; in a
traced run every iteration is a pair, untraced then traced, on the same
seed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    ROOT,
    Tally,
    bad_ratios,
    child_env,
    log,
    median,
    paper_err,
    peak_children_rss_mb,
)

#: Iterations whose headline ratios ``paper_err`` averages, and the
#: fewest an untraced run makes.  A fixed count, so the value depends on
#: the seed alone: one reproduction's error moves by ~14% (sd) from seed
#: to seed at quick scale, one grid's by ~15%, and host time varies
#: ~10% between iterations.
PAPER_ERR_RUNS = {"paper": 6, "grid": 10}


def iteration_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th iteration of a run seeded ``seed``."""
    return seed * 1000 + index


def run_child(kind: str, seed: int, traced: bool, hard_stop: float):
    """Run one child iteration; returns ``(launch_time, result)`` with
    ``result`` None when the child failed or ran out of time."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), kind,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(hard_stop - launch, 1.0),
        )
    except subprocess.TimeoutExpired:
        log(f"{kind} seed {seed}: timed out and was killed")
        return launch, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{kind} seed {seed}: exit {proc.returncode}\n"
            f"{proc.stderr[-2000:]}")
        return launch, None
    return launch, json.loads(lines[-1])


def replay_check(first: dict, seed: int, index_seed: int,
                 tally: Tally) -> None:
    """Replay one seeded grid cell on the scalar engine (outside the
    timed region) and require the grid's cycle count exactly."""
    from child import GRID_SCHEMES
    from repro.perfsim.differential import PerfsimMismatch, replay_cell
    from repro.perfsim.workloads import WORKLOADS

    rng = random.Random(seed)
    workload = rng.choice(WORKLOADS).name
    scheme = rng.choice(GRID_SCHEMES)
    try:
        cert = replay_cell(
            workload, scheme,
            instructions_per_core=first["instructions_per_core"],
            seed=index_seed,
        )
    except PerfsimMismatch as exc:
        tally.fail(f"replay of {workload}/{scheme}: {exc}")
        return
    grid_cycles = first["cycles"][f"{workload}/{scheme}"]
    if cert.exec_bus_cycles != grid_cycles:
        tally.fail(
            f"replay of {workload}/{scheme}: scalar {cert.exec_bus_cycles} "
            f"cycles, grid {grid_cycles}"
        )
    else:
        tally.ok()


def _ops_per_iteration(kind: str) -> int:
    """Operations in one iteration: artefacts or grid cells."""
    from child import ARTEFACTS, GRID_SCHEMES
    from repro.perfsim.workloads import WORKLOADS

    if kind == "paper":
        return len(ARTEFACTS)
    return len(WORKLOADS) * len(GRID_SCHEMES)


def run_batch(
    kind: str, seed: int, seconds: float, trace: bool, hard_stop: float,
) -> Dict[str, object]:
    """Run a batch workload; returns ``{tally, metrics}``."""
    tally = Tally()
    min_iterations = 1 if trace else PAPER_ERR_RUNS[kind]
    begin = time.monotonic()
    deadline = begin + seconds
    runs: Dict[bool, List[dict]] = {False: [], True: []}
    setups: List[float] = []
    ops_done = 0
    index = 0
    while index < min_iterations or time.monotonic() < deadline:
        index_seed = iteration_seed(seed, index)
        pair: Dict[bool, dict] = {}
        for traced in ((False, True) if trace else (False,)):
            launch, result = run_child(kind, index_seed, traced, hard_stop)
            if result is None:
                tally.fail(f"{kind} seed {index_seed} failed",
                           _ops_per_iteration(kind))
                break
            ops = result["ops"]
            if result["problems"]:
                tally.fail(f"{kind} seed {index_seed}: {result['problems']}",
                           ops)
            else:
                tally.ok(ops)
                ops_done += ops
            setups.append(result["start"] - launch)
            runs[traced].append(result)
            pair[traced] = result
        if len(pair) != (2 if trace else 1):
            break
        if trace and kind == "paper":
            if pair[False]["digest"] != pair[True]["digest"]:
                tally.fail(f"paper seed {index_seed}: traced and untraced "
                           "stdout differ")
        index += 1
    elapsed = time.monotonic() - begin
    untraced = runs[False]
    if kind == "grid" and untraced:
        replay_check(untraced[0], seed, iteration_seed(seed, 0), tally)
    if trace:
        return {"tally": tally, "metrics": _layer_metrics(runs)}
    ratios = [r["ratios"] for r in untraced[:PAPER_ERR_RUNS[kind]]]
    broken = [name for r in ratios for name in bad_ratios(r)]
    err = 0.0
    if len(ratios) < PAPER_ERR_RUNS[kind]:
        tally.fail(f"{kind}: fewer than {PAPER_ERR_RUNS[kind]} runs finished",
                   wrong=False)
    elif broken:
        tally.fail(f"{kind}: ratios without failures: {broken}")
    else:
        err = sum(paper_err(r) for r in ratios) / len(ratios)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": median(setups),
            "run_s": median(r["run_s"] for r in untraced),
            "ops_per_s": ops_done / elapsed,
            "paper_err": err,
            "peak_rss_mb": peak_children_rss_mb(),
        },
    }


def _layer_metrics(runs: Dict[bool, List[dict]]) -> Dict[str, float]:
    """Median of every layer metric over the traced iterations, plus the
    tracing overhead against the untraced ones."""
    traced = [r["layers"] for r in runs[True]]
    names = traced[0].keys() if traced else ()
    metrics = {name: median(layers[name] for layers in traced)
               for name in names}
    metrics["trace.overhead_s"] = (
        median(r["run_s"] for r in runs[True])
        - median(r["run_s"] for r in runs[False])
    )
    return metrics
