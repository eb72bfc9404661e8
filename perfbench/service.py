"""The ``service_mixed`` workload: ``repro serve`` under a closed loop.

Two client threads, each on its own persistent keep-alive connection:

* the writer submits a fresh spec, polls the job until it is done and
  fetches the result -- a cache miss -- then submits the next;
* the reader picks a result the writer already received and reads it
  again, in turn through ``GET /v1/cache/<fingerprint>``,
  ``GET /v1/jobs/<id>/result`` and a resubmission of the same spec --
  cache hits.  Every read must return exactly the bytes the writer got.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional

from common import (
    WORK,
    Tally,
    bad_ratios,
    child_env,
    median,
    p90,
    paper_err,
    peak_children_rss_mb,
)
from tracer import Tracer

#: One spec per miss; ECC-DIMM takes the per-system RNG replay path.
SPEC_SCHEMES = ("ecc_dimm", "xed", "chipkill", "xed_chipkill")
SPEC_SYSTEMS = 500_000
SPEC_SCALING_RATE = 1e-4
SPEC_WORKERS = 2
#: Population of the untimed job that warms a fresh server up (its
#: first job pays the engine imports once) and seeds the reader.  It
#: runs in-process (``workers: 1``): a pool would only add start-up.
WARMUP_SYSTEMS = 20_000
#: Servers started per run; ``setup_s`` is the median of their start-up
#: times and the last one serves the workload.
SETUP_LAUNCHES = 9
#: Misses whose results ``paper_err`` averages (fixed, so the value
#: depends on the seed alone).
PAPER_ERR_MISSES = 6
POLL_INTERVAL_S = 0.02
REQUEST_TIMEOUT_S = 60.0


def spec_for(seed: int, index: int) -> dict:
    """The ``index``-th fresh spec of a run seeded ``seed``."""
    return {
        "schemes": list(SPEC_SCHEMES),
        "systems": SPEC_SYSTEMS,
        "scaling_rate": SPEC_SCALING_RATE,
        "seed": seed * 10_000 + index,
        "workers": SPEC_WORKERS,
    }


class Entry(NamedTuple):
    """A result the writer received: what the reader may ask for again."""

    fingerprint: str
    job_id: str
    spec: dict
    sha256: str


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: str) -> None:
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--bind", "127.0.0.1:0", "--data-dir", data_dir],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: deque = deque(maxlen=40)
        self.port: Optional[int] = None
        self._bound = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"serving campaigns on [\d.]+:(\d+)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._bound.set()
        self._bound.set()

    def wait_ready(self, hard_stop: float) -> float:
        """Seconds from launch until ``/readyz`` answers 200."""
        self._bound.wait(max(hard_stop - time.monotonic(), 0.0))
        while self.port is not None and time.monotonic() < hard_stop:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.monotonic() - self.launched
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError(
            "repro serve never became ready:\n" + "".join(self.stderr)
        )

    def stop(self) -> None:
        """SIGTERM (the service drains), then kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)


class Client:
    """One persistent keep-alive connection; reconnects after an error.

    Every request is timed; with a tracer, each one is also a span named
    after its endpoint.
    """

    def __init__(self, port: int, tracer: Optional[Tracer]) -> None:
        self.port = port
        self.tracer = tracer
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, endpoint: str, method: str, path: str,
                body: Optional[dict] = None):
        """Returns ``(status, raw body bytes, seconds)``; raises
        ``OSError``/``http.client.HTTPException`` on transport errors."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        payload = None if body is None else json.dumps(body).encode()
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.begin(endpoint)
        try:
            self.conn.request(method, path, body=payload,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        finally:
            if self.tracer is not None:
                self.tracer.end()
        return response.status, raw, time.perf_counter() - start

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Loop:
    """One closed-loop session: writer and reader threads."""

    def __init__(self, seed: int, first_index: int, entries: List[Entry],
                 tally: Tally) -> None:
        self.seed = seed
        self.next_index = first_index
        self.entries = entries
        self.tally = tally
        self.lock = threading.Lock()
        self.writer_done = threading.Event()
        self.created = 0
        self.miss_s: List[float] = []
        self.hit_ms: List[float] = []
        self.queue_s: List[float] = []
        self.job_run_s: List[float] = []
        self.polls = 0
        self.progress: List[dict] = []
        self.job_metrics: List[dict] = []
        self.ratios: List[Dict[str, float]] = []
        self.reads = 0
        self.tracers: List[Tracer] = []

    # -- writer -------------------------------------------------------

    def write(self, client: Client, deadline: float, hard_stop: float,
              min_misses: int) -> None:
        try:
            for tried in itertools.count():
                now = time.monotonic()
                if now >= hard_stop or (tried >= min_misses
                                        and now >= deadline):
                    break
                spec = spec_for(self.seed, self.next_index)
                self.next_index += 1
                try:
                    self._miss(client, spec, hard_stop)
                except (OSError, http.client.HTTPException,
                        TimeoutError) as exc:
                    self.tally.fail(f"miss seed {spec['seed']}: {exc!r}",
                                    wrong=False)
                except (ValueError, KeyError) as exc:
                    self.tally.fail(f"miss seed {spec['seed']}: malformed "
                                    f"answer {exc!r}")
        finally:
            self.writer_done.set()

    def warm_up(self, port: int, hard_stop: float) -> None:
        """Run one small untimed miss so the reader has a cached entry
        and the server's one-off imports are done before timing."""
        client = Client(port, None)
        try:
            spec = dict(spec_for(self.seed, self.next_index),
                        systems=WARMUP_SYSTEMS, workers=1)
            self._miss(client, spec, hard_stop, timed=False)
        finally:
            client.close()
        self.next_index += 1

    def _miss(self, client: Client, spec: dict, hard_stop: float,
              timed: bool = True) -> None:
        start = time.monotonic()
        status, raw, _ = client.request("service.submit", "POST",
                                        "/v1/jobs", spec)
        submitted = json.loads(raw)
        if status != 202 or submitted.get("disposition") != "created":
            self.tally.fail(f"fresh spec answered {status} {submitted}")
            return
        self.created += 1
        job_id = submitted["job_id"]
        seen: Dict[str, float] = {}
        while True:
            if time.monotonic() > hard_stop:
                raise TimeoutError(f"job {job_id} still running")
            status, raw, _ = client.request(
                "service.status", "GET", f"/v1/jobs/{job_id}"
            )
            self.polls += 1
            job = json.loads(raw)
            seen.setdefault(job["state"], time.monotonic())
            if job["state"] in ("done", "failed"):
                break
            time.sleep(POLL_INTERVAL_S)
        status, raw, _ = client.request(
            "service.result_get", "GET", f"/v1/jobs/{job_id}/result"
        )
        end = time.monotonic()
        problems = _check_result(status, raw, submitted["fingerprint"],
                                 spec["systems"])
        if job["state"] != "done" or problems:
            self.tally.fail(f"job {job_id} ({job['state']}): {problems}")
            return
        self.tally.ok()
        if timed:
            self.miss_s.append(end - start)
            left_queue = min(t for s, t in seen.items() if s != "queued")
            self.queue_s.append(left_queue - start)
            self.job_run_s.append(seen["done"] - left_queue)
            self.progress.append(job["progress"])
            self.job_metrics.append(job["metrics"] or {})
            self.ratios.append(_ratios(json.loads(raw)["body"]["results"]))
        with self.lock:
            self.entries.append(Entry(
                submitted["fingerprint"], job_id, spec,
                hashlib.sha256(raw).hexdigest(),
            ))

    # -- reader -------------------------------------------------------

    def read(self, client: Client, rng: random.Random,
             hard_stop: float) -> None:
        turn = 0
        while not self.writer_done.is_set() and time.monotonic() < hard_stop:
            with self.lock:
                entry = rng.choice(self.entries) if self.entries else None
            if entry is None:
                self.writer_done.wait(POLL_INTERVAL_S)
                continue
            try:
                self.read_once(client, entry, turn % 3)
            except (OSError, http.client.HTTPException) as exc:
                self.tally.fail(f"read of {entry.job_id}: {exc!r}",
                                wrong=False)
            except (ValueError, KeyError) as exc:
                self.tally.fail(f"read of {entry.job_id}: malformed answer "
                                f"{exc!r}")
            turn += 1

    def read_once(self, client: Client, entry: Entry, kind: int) -> None:
        """One cache read (``kind`` 0: by fingerprint, 1: by job, 2:
        resubmission); a wrong answer is a failed operation."""
        if kind == 2:
            status, raw, _ = client.request(
                "service.submit", "POST", "/v1/jobs", entry.spec
            )
            answer = json.loads(raw) if status == 202 else {}
            if (answer.get("disposition"), answer.get("job_id")) != (
                    "cached", entry.job_id):
                self.tally.fail(
                    f"resubmitted {entry.job_id}: {status} {answer}"
                )
                return
        else:
            endpoint, path = (
                ("service.cache_get", f"/v1/cache/{entry.fingerprint}")
                if kind == 0 else
                ("service.result_get", f"/v1/jobs/{entry.job_id}/result")
            )
            status, raw, seconds = client.request(endpoint, "GET", path)
            digest = hashlib.sha256(raw).hexdigest()
            if status != 200 or digest != entry.sha256:
                self.tally.fail(f"{path}: status {status}, bytes differ from "
                                "the first copy")
                return
            self.hit_ms.append(seconds * 1000.0)
        self.tally.ok()
        self.reads += 1

    # -- session ------------------------------------------------------

    def run(self, port: int, seconds: float, hard_stop: float,
            traced: bool, min_misses: int = 1) -> float:
        """Run writer and reader for ``seconds`` and at least
        ``min_misses`` misses; returns elapsed seconds (the writer
        finishes its last miss before stopping).  A traced session gives
        each client thread its own tracer."""
        if traced:
            self.tracers = [Tracer(), Tracer()]
        writer_client, reader_client = (
            Client(port, tracer) for tracer in self.tracers or (None, None)
        )
        begin = time.monotonic()
        threads = [
            threading.Thread(target=self.write, daemon=True,
                             args=(writer_client, begin + seconds, hard_stop,
                                   min_misses)),
            threading.Thread(target=self.read, daemon=True,
                             args=(reader_client, random.Random(self.seed),
                                   hard_stop)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(hard_stop - time.monotonic(), 0.0) + 5.0)
            if thread.is_alive():
                self.tally.fail("client thread did not stop", wrong=False)
        writer_client.close()
        reader_client.close()
        return time.monotonic() - begin


def _check_result(status: int, raw: bytes, fingerprint: str,
                  systems: int) -> List[str]:
    """Problems with a fresh result envelope (empty when it is right)."""
    if status != 200:
        return [f"result status {status}"]
    envelope = json.loads(raw)
    body = envelope["body"]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    problems = []
    if envelope["fingerprint"] != fingerprint:
        problems.append("fingerprint differs from the submission's")
    if hashlib.sha256(canonical.encode()).hexdigest() != envelope["digest"]:
        problems.append("body digest does not verify")
    rows = body["results"]
    if [r["num_systems"] for r in rows] != [systems] * len(SPEC_SCHEMES):
        problems.append("wrong schemes or population")
    elif not body["provenance"]["complete"]:
        problems.append("incomplete run")
    else:
        ecc, xed, chipkill = (r["probability_of_failure"] for r in rows[:3])
        if not xed < chipkill < ecc:
            problems.append("order XED < Chipkill < ECC-DIMM broken")
    return problems


def _ratios(rows: List[dict]) -> Dict[str, float]:
    """The paper's Fig 1/7 headline ratios from one result (rows are in
    ``SPEC_SCHEMES`` order)."""
    ecc, xed, chipkill = (r["probability_of_failure"] for r in rows[:3])

    def ratio(a: float, b: float) -> float:
        return a / b if b else float("inf")

    return {
        "fig1.chipkill_vs_eccdimm": ratio(ecc, chipkill),
        "fig7.xed_vs_eccdimm": ratio(ecc, xed),
        "fig7.xed_vs_chipkill": ratio(chipkill, xed),
    }


def _stats(port: int) -> dict:
    client = Client(port, None)
    try:
        _, raw, _ = client.request("service.stats", "GET", "/v1/stats")
    finally:
        client.close()
    return json.loads(raw)


def run_service(seed: int, seconds: float, trace: bool,
                hard_stop: float) -> Dict[str, object]:
    """Run ``service_mixed``; returns ``{tally, metrics}``.  A traced run
    spends half its time untraced and half traced, on one server."""
    tally = Tally()
    data_root = WORK / f"service-{os.getpid()}"
    setups: List[float] = []
    server: Optional[Server] = None
    entries: List[Entry] = []
    loops: List[Loop] = []
    try:
        for launch in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server = Server(str(data_root / f"launch-{launch}"))
            setups.append(server.wait_ready(hard_stop))
        warm = Loop(seed, 0, entries, tally)
        warm.warm_up(server.port, hard_stop)
        phases = (False, True) if trace else (False,)
        elapsed = 0.0
        for traced in phases:
            loop = Loop(seed, 1000 * (len(loops) + 1), entries, tally)
            elapsed += loop.run(server.port, seconds / len(phases), hard_stop,
                                traced, 1 if trace else PAPER_ERR_MISSES)
            loops.append(loop)
        stats = _stats(server.port)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(data_root, ignore_errors=True)
    created = warm.created + sum(loop.created for loop in loops)
    if stats.get("cache.corruptions") != 0:
        tally.fail(f"service counted {stats.get('cache.corruptions')} "
                   "corrupt cache entries")
    if stats.get("jobs.executed") != created:
        tally.fail(f"service executed {stats.get('jobs.executed')} jobs "
                   f"for {created} distinct specs")
    if trace:
        return {"tally": tally, "metrics": _layer_metrics(loops, stats)}
    loop = loops[0]
    ratios = loop.ratios[:PAPER_ERR_MISSES]
    err = 0.0
    if len(ratios) < PAPER_ERR_MISSES:
        tally.fail(f"fewer than {PAPER_ERR_MISSES} misses finished",
                   wrong=False)
    elif any(bad_ratios(r) for r in ratios):
        tally.fail(f"ratios without failures: {ratios}")
    else:
        err = sum(paper_err(r) for r in ratios) / len(ratios)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": median(setups),
            "run_s": median(loop.miss_s),
            "ops_per_s": (len(loop.miss_s) + loop.reads) / elapsed,
            "paper_err": err,
            "peak_rss_mb": peak_children_rss_mb(),
        },
    }


def _layer_metrics(loops: List[Loop], stats: dict) -> dict:
    untraced, traced = loops
    misses = len(traced.miss_s)
    hits, lookups = stats.get("cache.hits", 0), stats.get("cache.misses", 0)

    def per_miss(values) -> float:
        return sum(values) / misses if misses else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def ms(name: str) -> float:
        return median(
            d for tracer in traced.tracers for d in tracer.durations(name)
        ) * 1000.0

    simulate = [m.get("timers", {}).get("faultsim.simulate_s", {})
                for m in traced.job_metrics]
    simulate_s = median(t.get("sum", 0.0) for t in simulate)
    systems = per_miss(
        m.get("counters", {}).get("faultsim.systems", 0)
        for m in traced.job_metrics
    )
    return {
        "miss_p50_s": median(traced.miss_s),
        "hit_p50_ms": median(traced.hit_ms),
        "hit_p90_ms": p90(traced.hit_ms),
        "service.hit_samples": len(traced.hit_ms),
        "service.submit_ms": ms("service.submit"),
        "service.result_get_ms": ms("service.result_get"),
        "service.cache_get_ms": ms("service.cache_get"),
        "service.job_queue_s": median(traced.queue_s),
        "service.job_run_s": median(traced.job_run_s),
        "service.status_polls_per_miss": share(traced.polls, misses),
        "service.cache_hit_ratio": share(hits, hits + lookups),
        "runtime.shards": per_miss(p["total_shards"] for p in traced.progress),
        "runtime.attempts": per_miss(p["attempts"] for p in traced.progress),
        "runtime.retries": per_miss(p["retries"] for p in traced.progress),
        "faultsim.simulate_s": simulate_s,
        "faultsim.simulate_calls": per_miss(
            t.get("count", 0) for t in simulate
        ),
        "faultsim.systems_per_s": share(systems, simulate_s),
        "trace.overhead_s": median(traced.miss_s) - median(untraced.miss_s),
    }
