"""The warm shard pool: one idle worker pool per worker count, reused.

``run_resilient`` parks its pool after a clean finish and the next run
with the same worker count checks it out again, so a process pays the
``spawn`` and import cost once.  These tests pin when a pool is reused
(worker PIDs survive from one run to the next), when it is torn down
(a crash or a hang replaces every worker, with bit-identical merged
results), that a worker dying while idle costs no shard a failure, that
a pool narrower than the run is replaced, that a run aborted by a
hang parks no pool, that worker counts and concurrent runs never
share a pool, the
``runtime.pool_starts``/``runtime.pool_reuses`` counters, and that the
campaign service leaves no child process behind at shutdown.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.obs import TelemetryScope
from repro.runtime import (
    ChaosPolicy,
    RunFingerprint,
    RuntimePolicy,
    ShardFailure,
    close_pools,
    config_digest,
    run_resilient,
)
from repro.service import CampaignService


def _pid_shard(value, delay_s=0.0):
    """One shard: a deterministic value and the PID of the worker that ran it."""
    if delay_s:
        time.sleep(delay_s)
    return value * value, os.getpid()


def _run(values, workers=2, delay_s=0.0, **policy):
    """Run one ``_pid_shard`` per value; returns (values, PIDs, outcome)."""
    results, outcome = run_resilient(
        _pid_shard,
        [(value, delay_s) for value in values],
        workers=workers,
        fingerprint=RunFingerprint(
            kind="test.warm_pool", seed=1, total=len(values), shard_size=1,
            config_hash=config_digest({"values": list(values)}),
            code_version="1.0.0",
        ),
        policy=RuntimePolicy(backoff_base_s=0.01, **policy),
        encode=lambda result: {"result": list(result)},
        decode=lambda payload: tuple(payload["result"]),
    )
    return [value for value, _ in results], {pid for _, pid in results}, outcome


def _children():
    """PIDs of this process's child processes that are still running.

    A torn-down pool's manager thread may reap a worker a moment after
    the executor returns; until it does, ``active_children()`` still
    lists the worker, but its PID is already gone.
    """
    pids = set()
    for proc in multiprocessing.active_children():
        try:
            os.kill(proc.pid, 0)
        except ProcessLookupError:
            continue
        pids.add(proc.pid)
    return pids


VALUES = list(range(6))
SQUARES = [value * value for value in VALUES]


@pytest.fixture(autouse=True)
def no_idle_pools():
    """Every test starts and ends with no warm pool and no children."""
    close_pools()
    yield
    close_pools()
    assert not _children()


@pytest.mark.timeout(120)
class TestReuse:
    def test_consecutive_runs_share_worker_pids(self):
        first, first_pids, _ = _run(VALUES)
        pool = _children()
        second, second_pids, _ = _run(VALUES)
        assert first == second == SQUARES
        assert len(pool) == 2
        assert first_pids | second_pids <= pool
        assert _children() == pool

    def test_worker_counts_do_not_share_a_pool(self):
        _run(VALUES, workers=2)
        pool_two = _children()
        squares, pids_three, _ = _run(VALUES, workers=3)
        assert squares == SQUARES
        assert not pids_three & pool_two
        assert len(_children() - pool_two) == 3

    def test_pool_narrower_than_the_run_is_replaced(self):
        # A one-shard run spawns one worker.  A wider run must not
        # reuse that pool: spawning into it mid-run races the teardown
        # of a pool whose warm worker just crashed.
        squares, _, _ = _run([3])
        assert squares == [9]
        narrow = _children()
        assert len(narrow) == 1
        squares, _, _ = _run(VALUES)
        assert squares == SQUARES
        assert len(_children()) == 2 and not narrow & _children()

    def test_concurrent_runs_get_their_own_pools(self):
        _run(VALUES)  # park a warm pool for one of the two runs to take
        barrier = threading.Barrier(2)
        runs = {}

        def run(offset):
            values = [offset + value for value in VALUES]
            barrier.wait(timeout=10)
            runs[offset] = (values, _run(values, delay_s=0.2))

        threads = [threading.Thread(target=run, args=(o,)) for o in (0, 100)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        pids = []
        for values, (squares, run_pids, outcome) in runs.values():
            assert squares == [value * value for value in values]
            assert outcome.completeness == 1.0
            pids.append(run_pids)
        assert not pids[0] & pids[1]
        # One pool was parked again; the concurrent spare was shut.
        assert len(_children()) == 2


@pytest.mark.timeout(120)
class TestTearDown:
    def test_crash_replaces_the_pool_bit_identically(self):
        _run(VALUES)
        warm = _children()
        squares, _, outcome = _run(VALUES, chaos=ChaosPolicy(crash_shards=(1,)))
        assert squares == SQUARES
        assert outcome.crashes >= 1
        assert _children() and not _children() & warm

    def test_hang_replaces_the_pool_bit_identically(self):
        _run(VALUES)
        warm = _children()
        squares, _, outcome = _run(
            VALUES,
            shard_timeout_s=2.0,
            chaos=ChaosPolicy(hang_shards=(1,), hang_s=60.0),
        )
        assert squares == SQUARES
        assert outcome.timeouts >= 1
        assert _children() and not _children() & warm

    def test_idle_worker_death_charges_no_shard(self):
        _run(VALUES)
        victim = multiprocessing.active_children()[0]
        victim.kill()
        victim.join(timeout=10)
        assert not victim.is_alive()
        squares, pids, outcome = _run(VALUES)
        assert squares == SQUARES
        assert outcome.crashes == 0 and outcome.retries == 0
        assert victim.pid not in pids

    def test_timeout_that_aborts_the_run_is_not_parked(self):
        # The hung shard is the only one in flight when the retry
        # budget runs out: the run must terminate its hung worker, not
        # park the pool with that worker still asleep in it.
        with pytest.raises(ShardFailure):
            _run(
                [3],
                shard_timeout_s=1.0,
                max_retries=0,
                chaos=ChaosPolicy(hang_shards=(0,), hang_s=60.0),
            )
        start = time.monotonic()
        close_pools()
        assert time.monotonic() - start < 5.0
        assert not _children()


@pytest.mark.timeout(120)
class TestCounters:
    def test_pool_starts_then_reuses(self):
        counters = []
        for workers in (2, 2, 1):
            with TelemetryScope() as scope:
                _run(VALUES, workers=workers)
            counters.append(scope.snapshot()["counters"])
        started, reused, inproc = counters
        assert started["runtime.pool_starts"] == 1
        assert "runtime.pool_reuses" not in started
        assert reused["runtime.pool_reuses"] == 1
        assert "runtime.pool_starts" not in reused
        assert not {"runtime.pool_starts", "runtime.pool_reuses"} & set(inproc)


@pytest.mark.timeout(120)
class TestServiceLifecycle:
    def test_job_metrics_and_shutdown_leave_no_children(self, tmp_path):
        service = CampaignService(tmp_path)
        service.start()
        counters = []
        try:
            for seed in (1, 2):
                _, submitted = service.submit({
                    "schemes": ["xed"], "systems": 400, "shard_size": 100,
                    "seed": seed, "workers": 2,
                })
                deadline = time.monotonic() + 60
                while True:
                    _, doc = service.job_status(submitted["job_id"])
                    if doc["state"] in ("done", "failed"):
                        break
                    assert time.monotonic() < deadline, "job never finished"
                    time.sleep(0.05)
                assert doc["state"] == "done"
                counters.append(doc["metrics"]["counters"])
            assert _children()
        finally:
            service.shutdown()
        assert multiprocessing.active_children() == []
        assert counters[0]["runtime.pool_starts"] == 1
        assert counters[1]["runtime.pool_reuses"] == 1
        assert "runtime.pool_starts" not in counters[1]
