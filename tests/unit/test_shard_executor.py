"""Contract tests for the one shard executor, ``run_resilient``.

Every sharded engine (reliability, campaigns, the perfsim grid) runs on
:func:`repro.runtime.run_resilient`, policy or not, and the executor
keeps its books in the same :class:`~repro.runtime.checkpoint.LeaseBook`
the distributed coordinator drives.  These tests pin what a run with no
runtime flags now promises: worker-count validation, the
retry-then-``ShardFailure`` failure contract, trace drop accounting
that does not depend on the worker count, and the book/checkpoint
helpers both schedulers share.
"""

import pytest

from repro.faultsim import simulator
from repro.faultsim.campaign import run_xed_campaign
from repro.faultsim.schemes import XedScheme
from repro.faultsim.simulator import MonteCarloConfig, simulate
from repro.obs import OBS
from repro.obs.events import EventTrace, RunSignalled
from repro.runtime import (
    CheckpointStore,
    RunFingerprint,
    RunOutcome,
    RuntimePolicy,
    ShardFailure,
    config_digest,
    run_resilient,
)
from repro.runtime.checkpoint import LeaseBook, open_checkpoint

CFG = MonteCarloConfig(num_systems=2_000, seed=3)


def _fingerprint(total: int = 3) -> RunFingerprint:
    return RunFingerprint(
        kind="test.executor", seed=1, total=total, shard_size=1,
        config_hash=config_digest({"x": 1}), code_version="1.0.0",
    )


class TestWorkerValidation:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_simulate_rejects_non_positive_workers_under_policy(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate(XedScheme(), CFG, workers=bad, runtime=RuntimePolicy())

    @pytest.mark.parametrize("bad", [0, -1])
    def test_run_resilient_rejects_non_positive_workers(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_resilient(
                lambda x: x, [(1,)], workers=bad,
                fingerprint=_fingerprint(1), policy=RuntimePolicy(),
                encode=lambda r: r, decode=lambda p: p,
            )


class TestFlaglessFailureContract:
    def test_raising_shard_ends_in_shard_failure(self, monkeypatch):
        # No policy anywhere: the default RuntimePolicy() retries the
        # shard max_retries times, then aborts with ShardFailure.
        calls = []

        def boom(*args):
            calls.append(args)
            raise ZeroDivisionError("shard exploded")

        monkeypatch.setattr(simulator, "_simulate_shard", boom)
        with pytest.raises(ShardFailure) as exc:
            simulate(XedScheme(), CFG, workers=1)
        assert exc.value.shard_index == 0 and exc.value.reason == "fault"
        assert len(calls) == RuntimePolicy().max_retries + 1
        cause = exc.value.__cause__ or exc.value.__context__
        assert isinstance(cause, ZeroDivisionError)
        assert str(cause) == "shard exploded"


class TestTraceDropAccounting:
    """len(trace) + dropped counts every recorded event, any worker count."""

    @staticmethod
    def _recorded(workers, capacity):
        saved_trace = OBS.trace
        OBS.reset()
        OBS.enable()
        OBS.progress_enabled = False
        OBS.trace = EventTrace(capacity=capacity)
        try:
            run_xed_campaign(
                trials=40, seed=5, shard_size=20, workers=workers
            )
            return len(OBS.trace) + OBS.trace.dropped, OBS.trace.dropped
        finally:
            OBS.trace = saved_trace
            OBS.reset()
            OBS.disable()

    def test_drop_counts_survive_shard_capture(self):
        uncapped, uncapped_dropped = self._recorded(1, 1_000_000)
        inproc, inproc_dropped = self._recorded(1, 5)
        pooled, pooled_dropped = self._recorded(2, 5)
        assert uncapped_dropped == 0
        assert inproc_dropped > 0 and pooled_dropped > 0
        assert inproc == pooled == uncapped

    def test_delta_records_round_trip_the_drop_count(self):
        source = EventTrace(capacity=2)
        for _ in range(5):
            source.record(RunSignalled("SIGINT"))
        sink = EventTrace(capacity=10)
        sink.merge_records(source.delta_records())
        assert len(sink) == 2 and sink.dropped == 3
        assert all(e.kind != "trace_dropped" for e in sink)


class TestLeaseBookRequeue:
    def test_requeue_charges_no_failure_and_keeps_attempt(self):
        book = LeaseBook(2, seed=1, lease_shards=1, clock=lambda: 0.0)
        first = book.grant("local")
        second = book.grant("local")
        assert book.fail(first.shards[0], "fault") == "retry"
        assert book.requeue(second.lease_id) == (1,)
        assert book.failures.get(1, 0) == 0
        assert not book.active_leases
        regrant = book.grant("local")
        assert regrant.shards == (1,) and regrant.attempts == (1,)

    def test_grant_prefers_lowest_ready_index(self):
        now = [0.0]
        book = LeaseBook(
            3, seed=1, lease_shards=1, backoff_base_s=1.0,
            clock=lambda: now[0],
        )
        lease = book.grant("local")
        book.fail(lease.shards[0], "fault")
        # shard 0 is backing off, so shard 1 is next
        assert book.grant("local").shards == (1,)
        now[0] = 10.0
        assert book.grant("local").shards == (0,)


class TestOpenCheckpoint:
    def test_no_storage_means_no_store(self):
        outcome = RunOutcome(kind="t", total_shards=3)
        store, records = open_checkpoint(
            RuntimePolicy(), _fingerprint(), outcome
        )
        assert store is None and records == {}
        assert outcome.checkpoint_path is None

    def test_resume_skips_out_of_plan_indices(self, tmp_path):
        fingerprint = _fingerprint()
        policy = RuntimePolicy(resume_dir=str(tmp_path))
        path = policy.checkpoint_path_for(fingerprint)
        store = CheckpointStore.create(path, fingerprint)
        for index in (2, 0, 7):
            store.add(index, {"v": index})
        outcome = RunOutcome(kind="t", total_shards=3)
        resumed, records = open_checkpoint(policy, fingerprint, outcome)
        assert list(records) == [0, 2]
        assert outcome.resumed_shards == 2
        assert outcome.checkpoint_path == str(path)
        assert resumed is not None and resumed.path == path
