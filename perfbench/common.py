"""Pieces shared by the benchmark's parent process and its children."""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, List

#: Root of the checkout the benchmark runs in (the directory holding
#: ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server data dirs and temp files; listed in
#: ``.gitignore`` and removed at the end of every run.
WORK = ROOT / ".perfbench_work"

#: The paper's headline ratios that EXPERIMENTS.md's summary table
#: checks.  ``paper_err`` is the mean |log10(reproduced / paper)| over
#: the ones a workload's outputs contain.
PAPER_RATIOS: Dict[str, float] = {
    "fig1.chipkill_vs_eccdimm": 43.0,
    "fig7.xed_vs_eccdimm": 172.0,
    "fig7.xed_vs_chipkill": 4.0,
    "fig11.chipkill_time": 1.21,
    "fig11.double_chipkill_time": 1.82,
    "fig14.lotecc_vs_xed_time": 1.066,
}


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the package
    from ``src/`` and temp files inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def paper_err(ratios: Dict[str, float]) -> float:
    """Mean |log10(reproduced / paper)| over the given headline ratios."""
    return statistics.fmean(
        abs(math.log10(value / PAPER_RATIOS[name]))
        for name, value in ratios.items()
    )


def bad_ratios(ratios: Dict[str, float]) -> List[str]:
    """Names of ratios that cannot enter ``paper_err`` (a scheme with no
    failures gives an infinite improvement ratio)."""
    return [
        name for name, value in ratios.items()
        if not (math.isfinite(value) and value > 0)
    ]


def median(values: Iterable[float]) -> float:
    """Median, or 0.0 for no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values: Iterable[float]) -> float:
    """90th percentile (``statistics.quantiles``' exclusive method)."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def peak_children_rss_mb() -> float:
    """Peak resident set of the largest reaped child process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, plus output checks that failed.

    A failed operation is one that errored, timed out or returned wrong
    output; a wrong output also clears ``correct``.  Client threads
    share one tally.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    @property
    def correct(self) -> bool:
        return not self.problems

    def ok(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, reason: str, count: int = 1, wrong: bool = True) -> None:
        """Count ``count`` failed operations; ``wrong`` marks a wrong
        output (as opposed to an error or timeout)."""
        with self._lock:
            self.attempted += count
            self.failed += count
            if wrong:
                self.problems.append(reason)
        log(f"failed ({count}): {reason}")


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout carries the result."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
