"""The shard executor (retry, timeout, resume, drain).

:func:`run_resilient` is the one local executor every sharded engine
runs on (Monte-Carlo reliability, behavioural campaigns, the perfsim
grid).  It executes a deterministic shard plan in-process
(``workers=1``) or on a process pool, keeps its books in the same
:class:`~repro.runtime.checkpoint.LeaseBook` the distributed
coordinator uses, and survives the failure modes that kill a
multi-hour campaign in practice --

* **Worker crashes** (OOM kill, segfault, ``os._exit``) surface as
  ``BrokenProcessPool``; the pool is rebuilt and the affected shards
  retried with exponential backoff plus deterministic jitter, up to a
  per-shard retry budget.
* **Hangs** are bounded by a per-shard timeout; a deadline miss
  terminates the pool (the only way to reclaim a truly wedged worker),
  re-queues the innocent in-flight shards without penalty, and charges
  a failure to the hung one.
* **Permanent failures** either abort the run with the checkpoint
  flushed (:class:`ShardFailure`) or -- under ``keep_going`` -- are
  quarantined so the run completes with an explicit completeness
  fraction instead of dying at 99%.
* **Signals**: SIGINT/SIGTERM stop dispatch, drain in-flight shards,
  flush a final checkpoint and raise :class:`RunInterrupted`; a second
  signal aborts immediately.
* **Checkpoint/resume**: every completed shard is atomically persisted
  (result payload + obs delta) through
  :class:`repro.runtime.checkpoint.CheckpointStore`; a resumed run
  replays completed shards from disk and re-executes exactly the
  missing ones, so the merged result is bit-identical to an
  uninterrupted run.
* **Warm pool**: a process keeps one idle pool per worker count and
  the next run with that count reuses it, so the ``spawn`` and import
  cost is paid once per process, not once per run.  A pool is parked
  only after a run ends with nothing in flight; the crash, hang and
  drain paths above terminate it, and a pool whose workers died while
  idle is discarded before use.  :func:`close_pools` shuts idle pools
  down.

Because shard outcomes depend only on the plan (never on scheduling,
retries, or which attempt finally succeeded), every recovery path
preserves bit-identical merged results -- the property the chaos suite
(:mod:`repro.runtime.chaos`) asserts end to end.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import OBS, events
from repro.obs.events import EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext, current_context, shard_span
from repro.runtime.chaos import ChaosCrash, ChaosHang, ChaosPolicy
from repro.runtime.checkpoint import (
    CheckpointStore,
    LeaseBook,
    RunFingerprint,
    ShardLease,
    open_checkpoint,
)

__all__ = [
    "RuntimePolicy",
    "RunOutcome",
    "ShardFailure",
    "RunInterrupted",
    "close_pools",
    "run_resilient",
    "use_policy",
    "current_policy",
]

#: Granularity of interruptible sleeps / future polling, seconds.
_POLL_S = 0.05

#: Failure reason -> (counter metric, :class:`RunOutcome` field) it bumps.
_FAILURE_ACCOUNTS = {
    "timeout": ("runtime.shard_timeouts", "timeouts"),
    "crash": ("runtime.worker_crashes", "crashes"),
    "fault": ("runtime.shard_faults", "faults"),
}


class ShardFailure(RuntimeError):
    """A shard exhausted its retry budget with ``keep_going`` off.

    By the time this propagates the checkpoint (if any) holds every
    shard that *did* complete, so the run is resumable after the root
    cause is fixed; ``checkpoint_path`` says from where.
    """

    def __init__(
        self,
        message: str,
        shard_index: int,
        reason: str,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.reason = reason
        self.checkpoint_path = checkpoint_path


class RunInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped a run after a clean drain and flush.

    ``checkpoint_path`` (when checkpointing was on) is the file a
    ``--resume`` can continue from; the CLI prints the exact command.
    """

    def __init__(
        self,
        message: str,
        signal_name: str,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.signal_name = signal_name
        self.checkpoint_path = checkpoint_path


@dataclass
class RunOutcome:
    """What actually happened to one resilient run.

    ``completeness`` is the fraction of planned shards whose results
    made it into the merged output -- 1.0 for a clean or fully-recovered
    run, less when ``keep_going`` quarantined permanently-failing
    shards.  Counters mirror the ``runtime.*`` metrics.
    """

    kind: str
    total_shards: int
    completed_shards: int = 0
    resumed_shards: int = 0
    quarantined_shards: Tuple[int, ...] = ()
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    faults: int = 0
    interrupted: bool = False
    signal_name: Optional[str] = None
    checkpoint_path: Optional[str] = None
    discarded_records: int = 0

    @property
    def completeness(self) -> float:
        """Completed fraction of the shard plan (1.0 when nothing lost)."""
        if self.total_shards == 0:
            return 1.0
        return self.completed_shards / self.total_shards

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image (exported as result provenance)."""
        return {
            "kind": self.kind,
            "total_shards": self.total_shards,
            "completed_shards": self.completed_shards,
            "resumed_shards": self.resumed_shards,
            "quarantined_shards": list(self.quarantined_shards),
            "completeness": self.completeness,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "faults": self.faults,
            "interrupted": self.interrupted,
            "signal": self.signal_name,
            "checkpoint": self.checkpoint_path,
            "discarded_records": self.discarded_records,
        }


@dataclass
class RuntimePolicy:
    """Fault-tolerance knobs for a run (the CLI's runtime flag bundle).

    ``checkpoint_dir``/``resume_dir`` name a *directory*; each sub-run
    (one scheme of a reliability sweep, one campaign) derives its own
    file inside it from its :meth:`RunFingerprint.slug`, so one
    ``--checkpoint`` flag covers multi-run commands.  When only
    ``resume_dir`` is given, new checkpoints keep flowing to the same
    directory so an interrupted resume is itself resumable.  Completed
    runs append their :class:`RunOutcome` to ``outcomes`` for exit-code
    and provenance reporting.

    ``on_shard_complete``/``on_shard_retry`` are live progress hooks
    for a supervising caller (the campaign service's job status
    endpoint): the executor invokes them in the dispatching process --
    never in pool workers -- as ``(shard_index, completed_count,
    total_shards)`` after every completed or replayed shard and
    ``(shard_index, failure_count, reason)`` after every scheduled
    retry.  Hooks must be fast and must not raise; they observe the
    run, they do not steer it.
    """

    checkpoint_dir: Optional[str] = None
    resume_dir: Optional[str] = None
    shard_timeout_s: Optional[float] = None
    max_retries: int = 3
    keep_going: bool = False
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    chaos: Optional[ChaosPolicy] = None
    outcomes: List[RunOutcome] = field(default_factory=list)
    on_shard_complete: Optional[Callable[[int, int, int], None]] = None
    on_shard_retry: Optional[Callable[[int, int, str], None]] = None

    @property
    def storage_dir(self) -> Optional[str]:
        """Directory that receives checkpoints (checkpoint or resume)."""
        return self.checkpoint_dir or self.resume_dir

    def checkpoint_path_for(self, fingerprint: RunFingerprint) -> Optional[Path]:
        """This run's checkpoint file, or ``None`` when not persisting."""
        directory = self.storage_dir
        if directory is None:
            return None
        return Path(directory) / f"{fingerprint.slug()}.ckpt"

    @property
    def quarantined_total(self) -> int:
        """Quarantined shard count across every recorded outcome."""
        return sum(len(o.quarantined_shards) for o in self.outcomes)

    @property
    def worst_completeness(self) -> float:
        """Lowest completeness across recorded outcomes (1.0 if none)."""
        if not self.outcomes:
            return 1.0
        return min(o.completeness for o in self.outcomes)


#: Ambient policy installed by :func:`use_policy`; with ``None``,
#: :func:`run_resilient` builds a fresh ``RuntimePolicy()`` per run.
_AMBIENT: List[Optional[RuntimePolicy]] = [None]


@contextmanager
def use_policy(policy: Optional[RuntimePolicy]) -> Iterator[Optional[RuntimePolicy]]:
    """Install an ambient :class:`RuntimePolicy` for the ``with`` block.

    :func:`run_resilient` resolves its policy as ``explicit argument or
    ambient or a fresh RuntimePolicy()``; the CLI wraps a whole command
    in ``use_policy`` so nested experiment runners (which call
    :func:`simulate` many levels down) inherit the checkpoint/retry
    flags without threading a parameter through every signature.
    Yields the policy; the previously ambient one is restored on exit.
    """
    _AMBIENT.append(policy)
    try:
        yield policy
    finally:
        _AMBIENT.pop()


def current_policy() -> Optional[RuntimePolicy]:
    """The ambient :class:`RuntimePolicy`, or ``None`` outside one."""
    return _AMBIENT[-1]


# ---------------------------------------------------------------------------
# Worker entry points
# ---------------------------------------------------------------------------

def _run_shard_captured(
    shard_fn: Callable[..., Any],
    args: Tuple[Any, ...],
    ctx: Optional[TraceContext] = None,
    index: int = 0,
    attempt: int = 1,
) -> Tuple[Any, Optional[Dict], Optional[List[Dict]]]:
    """Run one shard, capturing its obs delta in isolation.

    Both execution paths (in-process and pool worker) run every shard
    through here: the shard runs against a fresh registry/trace and
    returns its delta, so (a) checkpoints carry exactly this shard's
    telemetry and (b) a failed attempt's partial metrics are discarded
    rather than double-counted on retry -- the same all-or-nothing
    semantics as a crashed worker process.  The shard's
    :func:`~repro.obs.tracing.shard_span` opens inside the captured
    delta so only successful attempts contribute spans.  The delta's
    trace records carry the capture ring's eviction count
    (:meth:`~repro.obs.events.EventTrace.delta_records`), so a small
    ring loses no drop accounting when it is folded.
    """
    if not OBS.enabled:
        return shard_fn(*args), None, None
    saved_registry, saved_trace = OBS.registry, OBS.trace
    OBS.registry = MetricsRegistry()
    OBS.trace = EventTrace(capacity=saved_trace.capacity)
    try:
        with shard_span(ctx, index, attempt=attempt):
            result = shard_fn(*args)
        return result, OBS.registry.state(), OBS.trace.delta_records()
    finally:
        OBS.registry, OBS.trace = saved_registry, saved_trace


def _resilient_worker(payload: Tuple) -> Tuple[Any, Optional[Dict], Optional[List[Dict]]]:
    """Pool entry point: run one shard (after any chaos injection).

    The worker's observability mirrors the parent's ``enabled`` flag
    at dispatch time, and the shard's delta is captured exactly as
    in-process (:func:`_run_shard_captured`).  The plan index and
    attempt number let a :class:`ChaosPolicy` target "shard 3, first
    attempt" deterministically, and the attempt number is encoded into
    the shard span's ID (``s<i>a<n>``) so retried executions are
    distinguishable in the trace tree.
    """
    index, attempt, shard_fn, args, obs_enabled, chaos, ctx = payload
    if chaos is not None:
        chaos.apply_in_worker(index, attempt)
    OBS.reset()
    OBS.enabled = obs_enabled
    OBS.progress_enabled = False
    return _run_shard_captured(shard_fn, args, ctx, index, attempt)


def _charge_failure(outcome: RunOutcome, reason: str) -> None:
    """Count one failed attempt on ``outcome`` and its ``runtime.*`` metric."""
    metric, field_name = _FAILURE_ACCOUNTS[reason]
    setattr(outcome, field_name, getattr(outcome, field_name) + 1)
    if OBS.enabled:
        OBS.registry.counter(metric).inc()


def _terminate_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, reclaiming hung or crashed workers.

    ``ProcessPoolExecutor`` has no supported way to cancel a *running*
    task, so a deadline miss can only be enforced by killing the worker
    processes; the executor object is discarded afterwards and a fresh
    pool built for the retries.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate nearly always lands
            proc.kill()
            proc.join(timeout=1.0)


# ---------------------------------------------------------------------------
# The warm pool
# ---------------------------------------------------------------------------

#: Idle worker pools by worker count.  A run checks its pool out (so
#: two concurrent runs never share in-flight work) and checks it back
#: in only when it ends with no shard in flight.
_IDLE_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _checkout_pool(workers: int, processes: int) -> ProcessPoolExecutor:
    """The idle pool for ``workers``, or a new one.

    An idle pool is reused only when it is unbroken and already holds
    ``processes`` (the run's in-flight limit) live workers.  One that
    broke or lost a worker while idle is discarded here, before any
    shard is submitted to it, so no shard is charged for it.  A
    narrower one is discarded too, so a reused pool never spawns a
    worker mid-run: a warm worker can crash within milliseconds, and
    spawning while CPython tears the broken pool down fails with a
    ``ValueError`` instead of ``BrokenProcessPool``.
    """
    from repro.faultsim.parallel import pool_context

    with _POOLS_LOCK:
        executor = _IDLE_POOLS.pop(workers, None)
    if executor is not None:
        alive = [proc.is_alive() for proc in executor._processes.values()]
        if not executor._broken and len(alive) >= processes and all(alive):
            if OBS.enabled:
                OBS.registry.counter("runtime.pool_reuses").inc()
            return executor
        _terminate_executor(executor)
    if OBS.enabled:
        OBS.registry.counter("runtime.pool_starts").inc()
    return ProcessPoolExecutor(max_workers=workers, mp_context=pool_context())


def _checkin_pool(workers: int, executor: ProcessPoolExecutor) -> None:
    """Park an idle pool for the next run; a concurrent run's spare is shut."""
    with _POOLS_LOCK:
        if workers not in _IDLE_POOLS:
            _IDLE_POOLS[workers] = executor
            return
    executor.shutdown(wait=True)


def close_pools() -> None:
    """Shut down every idle warm pool and wait for its workers to exit.

    A pool checked out by a running run is not touched; it is torn
    down or parked when that run ends.  Long-lived callers (the
    campaign service) call this on their exit path; at interpreter
    exit ``concurrent.futures`` would shut idle pools down anyway.
    """
    with _POOLS_LOCK:
        pools = list(_IDLE_POOLS.values())
        _IDLE_POOLS.clear()
    for executor in pools:
        executor.shutdown(wait=True)


class _SignalGuard:
    """Installs drain-and-flush SIGINT/SIGTERM handlers around a run.

    The first signal is counted (``runtime.interrupts`` and a
    ``run_signalled`` event) and invokes ``on_signal(name)`` (the
    scheduler stops dispatching and drains); a second signal raises
    ``KeyboardInterrupt`` for an immediate abort.  Handlers are only
    installed in the main thread (Python forbids otherwise) and always
    restored on exit.
    """

    def __init__(self, on_signal: Callable[[str], None]) -> None:
        self._on_signal = on_signal
        self._previous: Dict[int, object] = {}
        self._fired = False

    def __enter__(self) -> "_SignalGuard":
        """Install handlers (no-op off the main thread)."""
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def _handle(self, signum: int, frame: object) -> None:
        if self._fired:
            raise KeyboardInterrupt
        self._fired = True
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        if OBS.enabled:
            OBS.registry.counter("runtime.interrupts").inc()
            OBS.trace.record(events.RunSignalled(name))
        self._on_signal(name)

    def __exit__(self, *exc_info: object) -> None:
        """Restore whatever handlers were active before the run."""
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)


# ---------------------------------------------------------------------------
# The resilient run
# ---------------------------------------------------------------------------

class _ResilientRun:
    """One :func:`run_resilient` invocation, booked on a :class:`LeaseBook`.

    Every shard moves through the book as a one-shard lease: a grant
    is an attempt, a fault or crash is :meth:`LeaseBook.fail` (retry
    behind the book's backoff, quarantine, or abort), a deadline miss
    is :meth:`LeaseBook.expire`, and shards torn down with a killed
    pool go back through :meth:`LeaseBook.requeue` uncharged.
    """

    def __init__(
        self,
        shard_fn: Callable[..., Any],
        shard_args: Sequence[Tuple[Any, ...]],
        workers: int,
        fingerprint: RunFingerprint,
        policy: RuntimePolicy,
        encode: Callable[[Any], Dict],
        decode: Callable[[Dict], Any],
        on_shard_done: Optional[Callable[[int], None]],
    ) -> None:
        self.shard_fn = shard_fn
        self.shard_args = [tuple(args) for args in shard_args]
        self.workers = workers
        self.fingerprint = fingerprint
        self.policy = policy
        self.encode = encode
        self.decode = decode
        self.on_shard_done = on_shard_done
        self.outcome = RunOutcome(
            kind=fingerprint.kind, total_shards=len(self.shard_args)
        )
        #: Trace parent for every shard span, captured at construction
        #: (dispatch) time so both execution paths and every retry graft
        #: onto the same node of the caller's trace tree.
        self.trace_ctx = current_context()
        self.results: Dict[int, Any] = {}
        self.telemetry: Dict[int, Tuple[Optional[Dict], Optional[List[Dict]]]] = {}
        self.store: Optional[CheckpointStore] = None
        self.book: Optional[LeaseBook] = None
        self.stop_signal: Optional[str] = None

    # -- bookkeeping --------------------------------------------------------

    def _on_signal(self, name: str) -> None:
        self.stop_signal = name

    @property
    def _stopping(self) -> bool:
        return self.stop_signal is not None

    def _grant(self) -> Optional[Tuple[ShardLease, int, int]]:
        """Lease the next ready shard: ``(lease, index, attempt)``."""
        lease = self.book.grant("local")
        if lease is None:
            return None
        if OBS.enabled:
            OBS.registry.counter("runtime.shard_attempts").inc()
        return lease, lease.shards[0], lease.attempts[0]

    def _fail(self, index: int, reason: str) -> None:
        """Account one failed attempt and let the book decide its fate.

        Raises :class:`ShardFailure` when the retry budget is exhausted
        without ``keep_going``; otherwise the shard is either queued
        behind its backoff window or quarantined.
        """
        _charge_failure(self.outcome, reason)
        action = self.book.fail(index, reason)
        count = self.book.failures[index]
        if action == "abort":
            raise ShardFailure(
                f"shard {index} failed {count} time(s) ({reason}) and "
                f"--max-retries={self.policy.max_retries} is exhausted",
                shard_index=index,
                reason=reason,
                checkpoint_path=self.outcome.checkpoint_path,
            )
        if action == "quarantine":
            if OBS.enabled:
                OBS.registry.counter("runtime.shards_quarantined").inc()
                OBS.trace.record(events.ShardQuarantined(index, count, reason))
            return
        self.outcome.retries += 1
        if OBS.enabled:
            OBS.registry.counter("runtime.shard_retries").inc()
            OBS.trace.record(
                events.ShardRetried(
                    index, count, reason, self.book.backoff_delay(index, count)
                )
            )
        if self.policy.on_shard_retry is not None:
            self.policy.on_shard_retry(index, count, reason)

    def _complete(self, index: int, result: Any, metrics, trace) -> None:
        self.book.complete(index)
        self.results[index] = result
        self.telemetry[index] = (metrics, trace)
        if self.store is not None:
            self.store.add(index, self.encode(result), metrics, trace)
            if OBS.enabled:
                OBS.registry.counter("runtime.checkpoint_writes").inc()
        self._notify_done(index)

    def _notify_done(self, index: int) -> None:
        """Fire the progress hooks for a completed or resumed shard."""
        if self.on_shard_done is not None:
            self.on_shard_done(index)
        if self.policy.on_shard_complete is not None:
            self.policy.on_shard_complete(
                index, len(self.results), self.outcome.total_shards
            )

    def _wait_for_backoff(self) -> None:
        """Interruptible sleep until the book's next retry is ready."""
        deadline = time.monotonic() + (self.book.next_ready_in() or 0.0)
        while not self._stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(_POLL_S, remaining))

    # -- in-process execution (workers == 1) --------------------------------

    def _run_inproc(self) -> None:
        chaos = self.policy.chaos
        while not self._stopping and not self.book.done:
            granted = self._grant()
            if granted is None:
                self._wait_for_backoff()
                continue
            _lease, index, attempt = granted
            try:
                if chaos is not None:
                    chaos.apply_in_process(index, attempt)
                result, metrics, trace = _run_shard_captured(
                    self.shard_fn,
                    self.shard_args[index],
                    ctx=self.trace_ctx,
                    index=index,
                    attempt=attempt,
                )
            except ChaosHang:
                self._fail(index, "timeout")
            except ChaosCrash:
                self._fail(index, "crash")
            except Exception:
                self._fail(index, "fault")
            else:
                self._complete(index, result, metrics, trace)

    # -- pool execution (workers > 1) ---------------------------------------

    def _run_pool(self) -> None:
        processes = min(self.workers, max(1, self.book.pending_count))
        inflight: Dict[Any, ShardLease] = {}
        executor: Optional[ProcessPoolExecutor] = None

        def kill_pool(charge: Optional[str] = None) -> None:
            # Every in-flight shard dies with the pool: each is charged
            # a ``charge`` failure or, with None, requeued uncharged.
            nonlocal executor
            for lease in list(inflight.values()):
                if charge is None:
                    self.book.requeue(lease.lease_id)
                else:
                    self._fail(lease.shards[0], charge)
            inflight.clear()
            if executor is not None:
                _terminate_executor(executor)
                executor = None

        try:
            while not self.book.done:
                if self._stopping and not inflight:
                    break
                while not self._stopping and len(inflight) < processes:
                    granted = self._grant()
                    if granted is None:
                        break
                    lease, index, attempt = granted
                    if executor is None:
                        executor = _checkout_pool(self.workers, processes)
                    try:
                        future = executor.submit(
                            _resilient_worker,
                            (
                                index,
                                attempt,
                                self.shard_fn,
                                self.shard_args[index],
                                OBS.enabled,
                                self.policy.chaos,
                                self.trace_ctx,
                            ),
                        )
                    except BrokenProcessPool:
                        # A worker died between wait() rounds and the
                        # pool noticed before we resubmitted.  Charge a
                        # crash to this shard and everything in flight
                        # (their futures are doomed with the pool),
                        # then rebuild on the next pass.
                        self._fail(index, "crash")
                        kill_pool("crash")
                        break
                    inflight[future] = lease
                if not inflight:
                    self._wait_for_backoff()
                    continue
                next_deadline = min(l.deadline for l in inflight.values())
                wait_s = min(
                    max(0.0, next_deadline - time.monotonic()), _POLL_S * 2
                )
                done, _ = wait(
                    set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done:
                    index = inflight.pop(future).shards[0]
                    try:
                        result, metrics, trace = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        self._fail(index, "crash")
                    except Exception:
                        self._fail(index, "fault")
                    else:
                        self._complete(index, result, metrics, trace)
                if pool_broken:
                    # Every other in-flight future is doomed with the
                    # pool; they also count a crash failure (we cannot
                    # know which worker died) and get rescheduled.
                    kill_pool("crash")
                    continue
                hung = {lease.lease_id for lease, _ in self.book.expire()}
                if hung:
                    # Killing the pool is the only way to reclaim a hung
                    # worker; innocent in-flight shards are re-queued
                    # with no failure charged.
                    for future, lease in list(inflight.items()):
                        if lease.lease_id in hung:
                            del inflight[future]
                            self._fail(lease.shards[0], "timeout")
                    kill_pool()
            if executor is not None and not inflight:
                # The run ended normally and the pool is idle, so the
                # next run may reuse it instead of paying the spawn
                # again.  A run that aborts (a ShardFailure or any other
                # exception) never gets here: its pool is terminated.
                _checkin_pool(self.workers, executor)
                executor = None
        finally:
            kill_pool()

    # -- driver -------------------------------------------------------------

    def run(self) -> Tuple[List[Any], RunOutcome]:
        """Execute the plan; returns (plan-ordered results, outcome)."""
        self.store, replayed = open_checkpoint(
            self.policy, self.fingerprint, self.outcome
        )
        for index, record in replayed.items():
            self.results[index] = self.decode(record.payload)
            self.telemetry[index] = (record.metrics, record.trace)
            self._notify_done(index)
        timeout = self.policy.shard_timeout_s
        self.book = LeaseBook(
            len(self.shard_args),
            seed=self.fingerprint.seed,
            lease_shards=1,
            lease_timeout_s=math.inf if timeout is None else timeout,
            max_retries=self.policy.max_retries,
            keep_going=self.policy.keep_going,
            backoff_base_s=self.policy.backoff_base_s,
            backoff_cap_s=self.policy.backoff_cap_s,
            completed=list(replayed),
        )
        error: Optional[ShardFailure] = None
        with _SignalGuard(self._on_signal):
            try:
                if self.workers == 1:
                    self._run_inproc()
                else:
                    self._run_pool()
            except ShardFailure as exc:
                error = exc
            finally:
                self._fold_telemetry()
        self.outcome.completed_shards = len(self.results)
        self.outcome.quarantined_shards = tuple(sorted(self.book.quarantined))
        self.outcome.interrupted = self._stopping and error is None
        self.outcome.signal_name = self.stop_signal
        if OBS.enabled and self.store is not None:
            OBS.trace.record(
                events.CheckpointWritten(
                    str(self.store.path), len(self.store.completed)
                )
            )
        self.policy.outcomes.append(self.outcome)
        if error is not None:
            raise error
        if self._stopping:
            raise RunInterrupted(
                f"run interrupted by {self.stop_signal} after "
                f"{len(self.results)}/{len(self.shard_args)} shards",
                signal_name=self.stop_signal or "signal",
                checkpoint_path=self.outcome.checkpoint_path,
            )
        ordered = [
            self.results[i]
            for i in range(len(self.shard_args))
            if i in self.results
        ]
        return ordered, self.outcome

    def _fold_telemetry(self) -> None:
        """Merge per-shard obs deltas into the live OBS, in plan order.

        Folding in plan order (not completion order) keeps the merged
        trace/metrics identical across worker counts, retries and
        resumes; folding in a ``finally`` keeps partial telemetry from
        an aborted run.
        """
        if not OBS.enabled:
            return
        for index in sorted(self.telemetry):
            metrics, trace = self.telemetry[index]
            if metrics:
                OBS.registry.merge_state(metrics)
            if trace:
                OBS.trace.merge_records(trace)


def run_resilient(
    shard_fn: Callable[..., Any],
    shard_args: Sequence[Tuple[Any, ...]],
    *,
    workers: int,
    fingerprint: RunFingerprint,
    policy: Optional[RuntimePolicy] = None,
    encode: Callable[[Any], Dict],
    decode: Callable[[Dict], Any],
    on_shard_done: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Any], RunOutcome]:
    """Run ``shard_fn(*args)`` for every entry of ``shard_args``.

    ``workers=1`` runs the shards in-process, more workers on a process
    pool.  Results come back **in plan order** (minus any quarantined
    shards -- see the returned :class:`RunOutcome`), and each shard's
    obs delta is folded in plan order, so results, metrics and the
    trace tree are identical for any worker count.
    ``on_shard_done(shard_index)`` fires after every completed or
    resumed shard.  ``policy`` (default: the ambient one, else a fresh
    ``RuntimePolicy()``) sets checkpoint/resume, retries with backoff,
    timeouts and quarantine; a shard that exhausts its retries ends
    the run with :class:`ShardFailure`, whose ``__context__`` is the
    last error.  ``encode``/``decode`` convert a shard result to/from
    its JSON checkpoint payload and must round-trip bit-identically
    (that is what makes resume exact).  Raises ``ValueError`` for
    ``workers < 1``.
    """
    from repro.faultsim.parallel import validate_workers

    return _ResilientRun(
        shard_fn,
        shard_args,
        validate_workers(workers),
        fingerprint,
        policy or current_policy() or RuntimePolicy(),
        encode,
        decode,
        on_shard_done,
    ).run()
