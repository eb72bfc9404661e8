"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs execute every workload once at its smallest size (about
two minutes in all); the rest are fast.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import Tally  # noqa: E402
from service import Entry, Loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every metric the benchmark's definition names; each must be printed.
NAMED = {
    "setup_s", "run_s", "paper_err", "peak_rss_mb", "sim_minstr_per_s",
    "miss_p50_s", "hit_p50_ms", "hit_p90_ms",
    "ecc.detection_table_s", "ecc.detection_table_calls",
    "faultsim.simulate_s", "faultsim.simulate_calls",
    "faultsim.systems_per_s", "faultsim.analytical_s",
    "perfsim.run_suite_s", "perfsim.simulate_system_s", "perfsim.cells",
    "perfsim.trace_s", "perfsim.trace_calls", "perfsim.engine_s",
    "perfsim.sim_cycles", "analysis.format_s", "analysis.unattributed_s",
    "service.submit_ms", "service.result_get_ms", "service.cache_get_ms",
    "service.job_queue_s", "service.job_run_s",
    "service.status_polls_per_miss", "service.cache_hit_ratio",
    "runtime.shards", "runtime.attempts", "runtime.retries",
    "trace.overhead_s",
} | {
    f"faultsim.simulate_s.{scheme}"
    for scheme in ("non_ecc", "ecc_dimm", "xed", "chipkill",
                   "xed_chipkill", "double_chipkill")
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_definition_names_every_metric():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert NAMED <= set(names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]]
)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in group
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


class _FakeClient:
    """Answers every request with fixed bytes."""

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def request(self, endpoint, method, path, body=None):
        return 200, self.raw, 0.001


@pytest.mark.parametrize("kind", [0, 1])
def test_corrupted_cache_read_is_a_failed_operation(kind):
    good = b'{"body": {}}'
    entry = Entry("ab" * 32, "job-00000001", {},
                  hashlib.sha256(good).hexdigest())
    tally = Tally()
    loop = Loop(1, 0, [entry], tally)
    loop.read_once(_FakeClient(good), entry, kind)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)
    loop.read_once(_FakeClient(good.replace(b"{}", b"[]")), entry, kind)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
    assert len(loop.hit_ms) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "perf_grid", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
