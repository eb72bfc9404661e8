"""Experiment driver for the performance/power figures (11-14).

Runs (workload, scheme) grids, normalises against the ECC-DIMM
baseline, and formats the per-benchmark / geometric-mean tables the
paper's figures plot.

Grid cells are independent simulations, so :func:`run_suite` fans them
out on the shard pool (``workers > 1``) and, when a
:class:`~repro.runtime.executor.RuntimePolicy` is active (the CLI's
``--checkpoint``/``--resume``/``--keep-going`` flags), through the
fault-tolerant executor with per-cell checkpointing.  Cell results are
deterministic for any worker count and either engine backend, so the
checkpoint fingerprint excludes both.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import span
from repro.obs.progress import progress
from repro.perfsim.configs import SCHEME_CONFIGS, SchemeConfig
from repro.perfsim.engine import (
    SimulationResult,
    simulate_system,
    validate_perfsim_backend,
)
from repro.perfsim.power import PowerBreakdown, PowerModel
from repro.perfsim.timing import SystemTiming
from repro.perfsim.workloads import WORKLOADS, Workload, workload_by_name
from repro.runtime.checkpoint import RunFingerprint, config_digest
from repro.runtime.executor import RuntimePolicy, run_resilient
from repro.version import __version__


@dataclass
class BenchmarkRun:
    """One workload under one scheme, with derived power."""

    workload: str
    scheme_key: str
    result: SimulationResult
    power: PowerBreakdown

    @property
    def exec_bus_cycles(self) -> float:
        """Simulated execution time in DRAM bus cycles."""
        return self.result.exec_bus_cycles

    def to_payload(self) -> dict:
        """JSON-serialisable checkpoint payload for one grid cell.

        Self-describing (workload and scheme ride along), so a grid
        resumed under ``--keep-going`` can be reassembled even when
        quarantined cells leave holes in the plan-order list.
        """
        return {
            "workload": self.workload,
            "scheme_key": self.scheme_key,
            "result": self.result.to_payload(),
            "power": {
                "background": float(self.power.background),
                "activate": float(self.power.activate),
                "read_write": float(self.power.read_write),
                "refresh": float(self.power.refresh),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BenchmarkRun":
        """Rebuild a grid cell from :meth:`to_payload` output."""
        power = payload["power"]
        return cls(
            workload=payload["workload"],
            scheme_key=payload["scheme_key"],
            result=SimulationResult.from_payload(payload["result"]),
            power=PowerBreakdown(
                background=float(power["background"]),
                activate=float(power["activate"]),
                read_write=float(power["read_write"]),
                refresh=float(power["refresh"]),
            ),
        )


def run_benchmark(
    workload: Workload | str,
    config: SchemeConfig | str,
    system: Optional[SystemTiming] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    power_model: Optional[PowerModel] = None,
    backend: str = "scalar",
) -> BenchmarkRun:
    """Simulate one (workload, scheme) pair and compute its power.

    ``backend`` picks the engine (``"scalar"`` golden reference or the
    bit-identical ``"pipeline"``; see :mod:`repro.perfsim.pipeline`).
    """
    if isinstance(workload, str):
        workload = workload_by_name(workload)
    if isinstance(config, str):
        config = SCHEME_CONFIGS[config]
    system = system or SystemTiming()
    with span("perfsim.benchmark_s"):
        result = simulate_system(
            workload, config, system, instructions_per_core, seed,
            backend=backend,
        )
        model = power_model or PowerModel(timing=system.ddr)
        power = model.compute(result, config)
    return BenchmarkRun(workload.name, config.key, result, power)


def _suite_cell(
    workload: Workload,
    scheme_key: str,
    system: SystemTiming,
    instructions_per_core: int,
    seed: int,
    backend: str,
) -> BenchmarkRun:
    """Simulate one grid cell (module-level so the spawn pool can pickle)."""
    return run_benchmark(
        workload,
        SCHEME_CONFIGS[scheme_key],
        system=system,
        instructions_per_core=instructions_per_core,
        seed=seed,
        backend=backend,
    )


def suite_fingerprint(
    scheme_keys: Sequence[str],
    workloads: Sequence[Workload],
    instructions_per_core: int,
    seed: int,
    system: SystemTiming,
) -> RunFingerprint:
    """Run-identity fingerprint of one performance grid.

    Everything that can change a cell's contents goes into the config
    hash -- the scheme list, every workload's behaviour parameters, the
    instruction budget and the full machine timing.  The engine backend
    and worker count are deliberately *excluded*: cells are bit-identical
    across both (enforced by :mod:`repro.perfsim.differential`), so a
    grid checkpointed under one backend resumes under the other.
    """
    description = {
        "schemes": list(scheme_keys),
        "workloads": [
            [w.name, w.mpki, w.row_buffer_hit_rate, w.write_fraction,
             w.bank_locality, w.footprint_lines]
            for w in workloads
        ],
        "instructions_per_core": instructions_per_core,
        "system": asdict(system),
    }
    return RunFingerprint(
        kind="perfsim.grid",
        seed=seed,
        total=len(scheme_keys) * len(workloads),
        shard_size=1,
        config_hash=config_digest(description),
        code_version=__version__,
    )


def run_suite(
    scheme_keys: Sequence[str],
    workloads: Optional[Iterable[Workload]] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    system: Optional[SystemTiming] = None,
    backend: str = "scalar",
    workers: int = 1,
    runtime: Optional[RuntimePolicy] = None,
) -> Dict[str, Dict[str, BenchmarkRun]]:
    """Run a grid: {workload: {scheme_key: BenchmarkRun}}.

    Cells fan out one per shard on :func:`repro.runtime.run_resilient`
    (``workers`` processes), with results assembled in plan order so
    the grid is identical for any worker count.  ``runtime`` (or the
    ambient policy installed by :func:`repro.runtime.use_policy`)
    tunes it: per-cell checkpoints, resume, retry and quarantine.
    ``backend`` selects the engine per cell (``scalar``/``pipeline``;
    results are bit-identical).
    """
    validate_perfsim_backend(backend)
    workloads = list(workloads) if workloads is not None else list(WORKLOADS)
    system = system or SystemTiming()
    cells: List[Tuple[Workload, str]] = [
        (workload, key) for workload in workloads for key in scheme_keys
    ]
    shard_args = [
        (workload, key, system, instructions_per_core, seed, backend)
        for workload, key in cells
    ]
    reporter = progress(len(cells), "perf grid")

    def _cell_done(_i: int) -> None:
        reporter.update()

    try:
        with span(
            "perfsim.suite",
            backend=backend,
            workers=workers,
            cells=len(cells),
        ):
            runs, _outcome = run_resilient(
                _suite_cell,
                shard_args,
                workers=workers,
                fingerprint=suite_fingerprint(
                    scheme_keys, workloads, instructions_per_core,
                    seed, system,
                ),
                policy=runtime,
                encode=lambda r: r.to_payload(),
                decode=BenchmarkRun.from_payload,
                on_shard_done=_cell_done,
            )
    finally:
        reporter.close()

    # Assemble from each run's own labels (not plan-order zip): under
    # --keep-going, quarantined cells leave holes in the result list.
    grid: Dict[str, Dict[str, BenchmarkRun]] = {}
    for workload, _key in cells:
        grid.setdefault(workload.name, {})
    for run in runs:
        if run is not None:
            grid[run.workload][run.scheme_key] = run
    return grid


def normalized_metric(
    grid: Dict[str, Dict[str, BenchmarkRun]],
    scheme_key: str,
    baseline_key: str = "ecc_dimm",
    metric: str = "time",
) -> Dict[str, float]:
    """Per-workload metric normalised to the baseline scheme.

    ``metric`` is ``"time"`` (Figure 11/13/14) or ``"power"``
    (Figure 12/13).
    """
    out: Dict[str, float] = {}
    for name, row in grid.items():
        base = row[baseline_key]
        run = row[scheme_key]
        if metric == "time":
            out[name] = run.exec_bus_cycles / base.exec_bus_cycles
        elif metric == "power":
            out[name] = run.power.total / base.power.total
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return out


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's cross-workload summary statistic."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_figure_table(
    grid: Dict[str, Dict[str, BenchmarkRun]],
    scheme_keys: Sequence[str],
    metric: str = "time",
    baseline_key: str = "ecc_dimm",
    title: str = "Normalized Execution Time",
) -> str:
    """Render a Figure-11/12-style table: workloads x schemes + Gmean."""
    per_scheme: Dict[str, Dict[str, float]] = {
        key: normalized_metric(grid, key, baseline_key, metric)
        for key in scheme_keys
    }
    names = list(grid.keys())
    header = f"{title} (baseline: {SCHEME_CONFIGS[baseline_key].name})"
    col_heads = " | ".join(f"{SCHEME_CONFIGS[k].name[:26]:>26}" for k in scheme_keys)
    lines = [header, f"{'benchmark':>12} | {col_heads}"]
    for name in names:
        cells = " | ".join(
            f"{per_scheme[key][name]:26.3f}" for key in scheme_keys
        )
        lines.append(f"{name:>12} | {cells}")
    gmeans = " | ".join(
        f"{geometric_mean(per_scheme[key].values()):26.3f}" for key in scheme_keys
    )
    lines.append(f"{'Gmean':>12} | {gmeans}")
    return "\n".join(lines)
