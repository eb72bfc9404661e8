"""One iteration of a batch workload, in a fresh process.

    python3 perfbench/child.py paper --seed N [--trace]
    python3 perfbench/child.py grid --seed N [--trace]

Every iteration runs in its own process, as a user's command does: the
program's in-process caches (the perf-grid memo, the trace LRU) start
empty each time.  The last stdout line is a JSON document with the
iteration's timings (``time.monotonic``, which is CLOCK_MONOTONIC on
Linux and so comparable with the parent's launch time), its outputs'
digests and headline ratios, and the checks that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time

from tracer import Tracer

#: Experiment ids ``repro all`` regenerates, in the paper's order.
ARTEFACTS = (
    "table1", "table2", "table3", "table4",
    "fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14",
)
#: perf_grid: every scheme plotted in Figures 11-14.
GRID_SCHEMES = (
    "ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill",
    "extra_burst_chipkill", "extra_txn_chipkill",
    "extra_burst_double_chipkill", "extra_txn_double_chipkill", "lotecc",
)


def cli_backends() -> dict:
    """The backends ``repro all`` uses when given no flags, read from
    the CLI's own argument parser so the benchmark follows it."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["all"])
    return {
        "ecc_backend": args.ecc_backend,
        "faultsim_backend": args.faultsim_backend,
        "perfsim_backend": args.perfsim_backend,
    }


# -- layer instrumentation ------------------------------------------------

def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    import repro.analysis.experiments as experiments
    import repro.faultsim.analytical as analytical
    import repro.perfsim.pipeline as pipeline
    import repro.perfsim.runner as runner
    from repro.ecc.detection import DetectionReport
    from repro.runtime.distributed import SCHEME_CLASSES

    scheme_keys = {cls: key for key, cls in SCHEME_CLASSES.items()}

    def simulated(args, kwargs, result):
        scheme = args[0] if args else kwargs["scheme"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {
            "scheme": scheme_keys[type(scheme).__name__],
            "systems": config.num_systems,
        }

    def cell(args, kwargs, result):
        return {
            "cycles": result.exec_bus_cycles,
            "instructions": result.total_instructions,
        }

    tracer.wrap(experiments, "detection_table", "ecc.detection_table")
    tracer.wrap(experiments, "simulate", "faultsim.simulate", simulated)
    tracer.wrap(analytical, "table_iii", "faultsim.analytical")
    tracer.wrap(analytical, "table_iv", "faultsim.analytical")
    tracer.wrap(experiments, "run_suite", "perfsim.run_suite")
    tracer.wrap(runner, "run_suite", "perfsim.run_suite")
    tracer.wrap(runner, "simulate_system", "perfsim.simulate_system", cell)
    tracer.wrap(pipeline, "build_trace_arrays", "perfsim.trace")
    for name in (
        "format_reliability_table", "format_series", "format_figure_table",
    ):
        tracer.wrap(experiments, name, "analysis.format")
    tracer.wrap(DetectionReport, "format_table", "analysis.format")
    tracer.wrap(analytical.TableIV, "format_table", "analysis.format")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced iteration (root span first)."""
    from repro.runtime.distributed import SCHEME_CLASSES

    totals = tracer.totals()
    root = totals["root"]
    layers = {
        "ecc.detection_table_s": totals.get("ecc.detection_table", 0.0),
        "faultsim.simulate_s": totals.get("faultsim.simulate", 0.0),
        "faultsim.analytical_s": totals.get("faultsim.analytical", 0.0),
        "perfsim.run_suite_s": totals.get("perfsim.run_suite", 0.0),
        "analysis.format_s": totals.get("analysis.format", 0.0),
    }
    unattributed = root - tracer.root_children_s()
    added = sum(layers.values()) + unattributed
    sims = tracer.calls("faultsim.simulate")
    sim_times = tracer.durations("faultsim.simulate")
    cells = tracer.calls("perfsim.simulate_system")
    simulate_s = layers["faultsim.simulate_s"]
    suite_s = layers["perfsim.run_suite_s"]
    system_s = totals.get("perfsim.simulate_system", 0.0)
    trace_s = totals.get("perfsim.trace", 0.0)
    instructions = sum(c["instructions"] for c in cells)
    layers.update({
        "analysis.unattributed_s": unattributed,
        "trace.root_s": root,
        "ecc.detection_table_calls": len(
            tracer.calls("ecc.detection_table")
        ),
        "faultsim.simulate_calls": len(sims),
        "faultsim.systems_per_s": (
            sum(s["systems"] for s in sims) / simulate_s if simulate_s else 0.0
        ),
        "perfsim.simulate_system_s": system_s,
        "perfsim.trace_s": trace_s,
        "perfsim.engine_s": system_s - trace_s,
        "perfsim.trace_calls": len(tracer.calls("perfsim.trace")),
        "perfsim.cells": len(cells),
        "perfsim.sim_cycles": sum(c["cycles"] for c in cells),
        "sim_minstr_per_s": instructions / suite_s / 1e6 if suite_s else 0.0,
    })
    for key in SCHEME_CLASSES:
        layers[f"faultsim.simulate_s.{key}"] = sum(
            t for s, t in zip(sims, sim_times) if s["scheme"] == key
        )
    problems = []
    if abs(added - root) > 1e-6:
        problems.append(
            f"layer times add up to {added:.6f} s, root is {root:.6f} s"
        )
    return {"layers": layers, "problems": problems}


# -- paper_quick ----------------------------------------------------------

def paper_checks(reports: dict) -> tuple:
    """Artefacts present and the paper's orderings; returns
    ``(problems, headline ratios)``."""
    if list(reports) != list(ARTEFACTS) or not all(
            r.lines for r in reports.values()):
        raise RuntimeError(f"artefacts missing or empty: {list(reports)}")
    problems = []

    def pfail(exp_id, prefix):
        for name, result in reports[exp_id].data["results"].items():
            if name.startswith(prefix):
                return result.probability_of_failure
        raise KeyError(f"{exp_id} has no {prefix!r} result")

    rates = reports["table2"].data["aligned"].rates
    if not all(r == 1.0 for r in rates["CRC8-ATM"]["burst"]):
        problems.append("table2: CRC8-ATM misses a burst")
    if not min(rates["Hamming"]["burst"]) < 1.0:
        problems.append("table2: Hamming detects every burst")
    if not pfail("fig1", "Chipkill") < pfail("fig1", "ECC-DIMM"):
        problems.append("fig1: Chipkill not better than ECC-DIMM")
    for exp_id in ("fig7", "fig8"):
        xed, ck, ecc = (
            pfail(exp_id, p) for p in ("XED", "Chipkill", "ECC-DIMM")
        )
        if not xed < ck < ecc:
            problems.append(f"{exp_id}: order XED < CK < ECC-DIMM broken")
    for exp_id in ("fig9", "fig10"):
        xck, dck, ck = (
            pfail(exp_id, p) for p in ("XED + Single", "Double", "Chipkill")
        )
        if not xck <= dck < ck:
            problems.append(f"{exp_id}: order XED+CK <= Double-CK < CK broken")
    time_g = reports["fig11"].data["gmeans"]
    if not time_g["xed"] < time_g["chipkill"] < time_g["double_chipkill"]:
        problems.append("fig11: order XED < CK < Double-CK time broken")
    power_g = reports["fig12"].data["gmeans"]
    if not power_g["chipkill"] < 1.0 < power_g["double_chipkill"]:
        problems.append("fig12: CK < 1 < Double-CK power broken")
    fig13 = reports["fig13"].data
    for alt in ("extra_burst_chipkill", "extra_txn_chipkill"):
        if not (fig13["time"][alt] > fig13["time"]["xed"]
                and fig13["power"][alt] > fig13["power"]["xed"]):
            problems.append(f"fig13: {alt} not costlier than XED")
    fig14 = reports["fig14"].data
    if not fig14["gmean_lotecc"] > fig14["gmean_xed"]:
        problems.append("fig14: LOT-ECC not slower than XED")
    fig1, fig7 = reports["fig1"].data, reports["fig7"].data
    ratios = {
        "fig1.chipkill_vs_eccdimm": fig1["chipkill_vs_eccdimm"],
        "fig7.xed_vs_eccdimm": fig7["xed_vs_eccdimm"],
        "fig7.xed_vs_chipkill": fig7["xed_vs_chipkill"],
        "fig11.chipkill_time": time_g["chipkill"],
        "fig11.double_chipkill_time": time_g["double_chipkill"],
        "fig14.lotecc_vs_xed_time": (
            fig14["gmean_lotecc"] / fig14["gmean_xed"]
        ),
    }
    return problems, ratios


def paper(seed: int, traced: bool) -> dict:
    """``repro all --scale quick`` through the CLI's own ``main``.

    The traced run passes the parser's default backends as explicit
    flags; the untraced run gives no flags and checks that the CLI
    handed ``reproduce_all`` those same defaults.  Timing starts when
    ``reproduce_all`` is entered and ends when ``main`` has printed
    every artefact.
    """
    import repro.analysis as analysis
    from repro import cli

    backends = cli_backends()
    argv = ["all", "--scale", "quick", "--seed", str(seed)]
    tracer = Tracer()
    if traced:
        instrument(tracer)
        for key, value in backends.items():
            argv += ["--" + key.replace("_", "-"), value]
    reproduce_all = analysis.reproduce_all
    seen: dict = {}

    def recording(*args, **kwargs):
        seen["start"] = time.monotonic()
        seen["kwargs"] = kwargs
        tracer.begin("root")
        seen["reports"] = reproduce_all(*args, **kwargs)
        return seen["reports"]

    analysis.reproduce_all = recording
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    tracer.end()
    end = time.monotonic()
    problems = [] if code == 0 else [f"repro all exited {code}"]
    used = {k: seen["kwargs"].get(k) for k in backends}
    if used != backends:
        problems.append(
            f"CLI ran backends {used}, parser defaults are {backends}"
        )
    checks, ratios = paper_checks(seen["reports"])
    view = layer_metrics(tracer) if traced else None
    return {
        "start": seen["start"],
        "run_s": end - seen["start"],
        "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "ratios": ratios,
        "ops": len(ARTEFACTS),
        "problems": problems + checks + (view["problems"] if view else []),
        "layers": view["layers"] if view else None,
    }


# -- perf_grid ------------------------------------------------------------

def grid(seed: int, traced: bool) -> dict:
    """``run_suite`` over every perfsim workload x every Fig 11-14
    scheme, at the quick instruction budget, on the CLI's engine."""
    import repro.perfsim.runner as runner
    from repro.analysis.experiments import QUICK_INSTRUCTIONS
    from repro.perfsim.workloads import WORKLOADS

    backend = cli_backends()["perfsim_backend"]
    tracer = Tracer()
    if traced:
        instrument(tracer)
    start = time.monotonic()
    with tracer.span("root"):
        cells = runner.run_suite(
            GRID_SCHEMES, workloads=WORKLOADS,
            instructions_per_core=QUICK_INSTRUCTIONS, seed=seed,
            backend=backend,
        )
    end = time.monotonic()
    cycles = {
        f"{w}/{s}": run.exec_bus_cycles
        for w, row in cells.items() for s, run in row.items()
    }
    expected = len(WORKLOADS) * len(GRID_SCHEMES)
    if len(cycles) != expected or not all(c > 0 for c in cycles.values()):
        raise RuntimeError(f"grid has {len(cycles)}/{expected} cells or "
                           "cells without cycles")
    problems = []
    time_g = {
        key: runner.geometric_mean(
            runner.normalized_metric(cells, key).values()
        )
        for key in ("xed", "chipkill", "double_chipkill", "lotecc")
    }
    if not time_g["xed"] < time_g["chipkill"] < time_g["double_chipkill"]:
        problems.append("grid: order XED < CK < Double-CK time broken")
    if not time_g["lotecc"] > time_g["xed"]:
        problems.append("grid: LOT-ECC not slower than XED")
    view = layer_metrics(tracer) if traced else None
    return {
        "start": start,
        "run_s": end - start,
        "cycles": cycles,
        "instructions_per_core": QUICK_INSTRUCTIONS,
        "ratios": {
            "fig11.chipkill_time": time_g["chipkill"],
            "fig11.double_chipkill_time": time_g["double_chipkill"],
            "fig14.lotecc_vs_xed_time": time_g["lotecc"] / time_g["xed"],
        },
        "ops": expected,
        "problems": problems + (view["problems"] if view else []),
        "layers": view["layers"] if view else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=("paper", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    run = paper if args.kind == "paper" else grid
    print(json.dumps(run(args.seed, args.trace)))


if __name__ == "__main__":
    main()
