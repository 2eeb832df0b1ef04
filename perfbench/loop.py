"""Seeded workload inputs and the single-threaded request loops.

Every request is one ``KnapsackService.answer_batch`` call made from the
calling thread: no coalescing, no thread-pool or event-loop hop sits on
the timed path.  The open loop sends on a Poisson schedule and times
each request from when it was *due*, so a stall also charges the
requests queued behind it.  The closed loop sends back to back and
measures capacity.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np

# Runs at the lowest scheduling class, so it takes a CPU only when
# nothing else wants it, and exits when its parent goes away.
_FILLER = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class IdleFillers:
    """Idle-priority spinners, one per CPU beyond the first.

    They keep CPUs busy during open loops only.  On a small VM a vCPU
    that halts in the gaps between requests comes back slow:
    process-pool requests ran 1.7x slower for seconds at a time.  The
    spinners yield to real work at once; closed loops leave no gaps and
    run with the spinners stopped.  They are reaped only after
    ``peak_rss_mb`` is read, so their memory never counts in it."""

    def __init__(self) -> None:
        self._procs = [
            subprocess.Popen([sys.executable, "-c", _FILLER])
            for _ in range(max(0, (os.cpu_count() or 1) - 1))
        ]
        self._signal(signal.SIGSTOP)

    def _signal(self, sig) -> None:
        for proc in self._procs:
            os.kill(proc.pid, sig)

    @contextlib.contextmanager
    def running(self):
        self._signal(signal.SIGCONT)
        try:
            yield
        finally:
            self._signal(signal.SIGSTOP)

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait(timeout=30)


@dataclass(frozen=True)
class Requests:
    """One stream of requests: due times (open loop only), indices, nonces."""

    due_s: np.ndarray  # offsets from the start of the phase
    indices: np.ndarray  # shape (count, request_size)
    nonces: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def workload_rng(name: str, seed: int, stream: str) -> np.random.Generator:
    """The benchmark's own generator for one (workload, seed, stream).

    Inputs never come from the program's RNG helpers, so a change to
    them cannot change what the benchmark sends."""
    return np.random.default_rng(
        [zlib.crc32(name.encode()), int(seed), zlib.crc32(stream.encode())]
    )


def pinned_nonce(name: str, seed: int) -> int:
    """The one nonce a pinned-nonce workload sends with every request."""
    return int(workload_rng(name, seed, "nonce").integers(1, 2**62))


def make_requests(
    name: str, seed: int, stream: str, spec: dict, count: int, *, rate: float | None
) -> Requests:
    """``count`` requests of the workload's shape from ``stream``.

    With ``rate`` the requests get Poisson due times at that rate;
    without, they are meant to be sent back to back."""
    rng = workload_rng(name, seed, stream)
    if rate is None:
        due = np.zeros(count)
    else:
        due = np.cumsum(rng.exponential(1.0 / rate, count))
    indices = rng.integers(0, spec["n"], size=(count, spec["request_size"]))
    if spec["nonce"] == "pinned":
        nonces = np.full(count, pinned_nonce(name, seed), dtype=np.int64)
    else:
        nonces = rng.integers(1, 2**62, size=count)
    return Requests(due, indices, nonces)


@dataclass
class PhaseResult:
    """What one loop saw; latencies and service times in seconds."""

    latency: np.ndarray
    service: np.ndarray
    late: np.ndarray  # send lateness of requests due while the loop was idle
    wall_s: float
    indices_answered: int
    requests: int
    failed: set  # request numbers that raised or came back degraded
    samples: dict  # request number -> per-answer keys, for the gate
    digest: str
    # Sums over answered requests: cache hits, cache misses, pipelines
    # run, samples spent, point queries spent.
    totals: np.ndarray

    @property
    def utilization(self) -> float:
        return float(self.service.sum() / self.wall_s) if self.wall_s > 0 else 0.0


def _wait_until(t: float) -> None:
    # A busy wait, not a sleep: on a small VM a sleeping vCPU halts, and
    # a sleep's wake-up then lands milliseconds late; requests sent after
    # a halt also run up to 1.7x slower for seconds.
    clock = time.perf_counter
    while clock() < t:
        pass


def _answer_key(answer) -> bytes:
    run = getattr(answer, "run", None)
    if run is None:  # a DegradedAnswer
        return b"D"
    return (b"1" if answer.include else b"0") + run.signature_hash.encode()


class Dispatcher:
    """Sends requests to one service from the calling thread.

    ``after`` (optional) is called with ``(number, report, service_s)``
    after each request and before the next; the traced run uses it to
    read per-request telemetry the service exposes."""

    def __init__(self, service, workers: int, *, after=None) -> None:
        self._service = service
        self._workers = workers
        self._after = after
        self.errors: list[str] = []  # tracebacks of the first few failures

    def _send(self, idx: list, nonce: int):
        try:
            return self._service.answer_batch(
                idx, nonce=nonce, workers=self._workers
            )
        except Exception as exc:  # noqa: BLE001 - a failed request, reported
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
            return exc

    def open_loop(self, reqs: Requests, keep: frozenset = frozenset()) -> PhaseResult:
        n = len(reqs)
        latency = np.empty(n)
        service = np.empty(n)
        late: list[float] = []
        digest = hashlib.sha256()
        samples: dict = {}
        totals = np.zeros(5, dtype=np.int64)
        failed: set = set()
        answered = 0
        start = time.perf_counter() + 0.05
        prev_done = 0.0
        for i in range(n):
            idx = reqs.indices[i].tolist()
            nonce = int(reqs.nonces[i])
            due = start + float(reqs.due_s[i])
            idle = prev_done < due
            if idle:
                _wait_until(due)
            sent = time.perf_counter()
            report = self._send(idx, nonce)
            done = time.perf_counter()
            prev_done = done
            latency[i] = done - due
            service[i] = done - sent
            if idle:
                late.append(sent - due)
            if self._account(i, report, digest, samples, totals, keep):
                failed.add(i)
            answered += len(idx)
            if self._after is not None:
                self._after(i, report, done - sent)
        return PhaseResult(
            latency, service, np.asarray(late), prev_done - start, answered,
            n, failed, samples, digest.hexdigest(), totals,
        )

    def closed_loop(self, reqs: Requests, seconds: float) -> PhaseResult:
        service: list[float] = []
        digest = hashlib.sha256()
        totals = np.zeros(5, dtype=np.int64)
        failed: set = set()
        answered = 0
        start = time.perf_counter()
        stop = start + seconds
        i = 0
        done = start
        while done < stop:
            k = i % len(reqs)
            idx = reqs.indices[k].tolist()
            sent = time.perf_counter()
            report = self._send(idx, int(reqs.nonces[k]))
            done = time.perf_counter()
            service.append(done - sent)
            if self._account(i, report, digest, {}, totals, frozenset()):
                failed.add(i)
            answered += len(idx)
            i += 1
        svc = np.asarray(service)
        return PhaseResult(
            svc, svc, np.empty(0), done - start, answered, i, failed, {},
            digest.hexdigest(), totals,
        )

    @staticmethod
    def _account(i, report, digest, samples, totals, keep) -> bool:
        """Fold one request into the digest and totals; True if it failed."""
        if isinstance(report, Exception):
            digest.update(b"E")
            return True
        keys = [_answer_key(a) for a in report.answers]
        digest.update(b"|".join(keys))
        totals += (
            report.cache_hits, report.cache_misses, report.pipelines_run,
            report.samples_spent, report.queries_spent,
        )
        if i in keep:
            samples[i] = keys
        return report.degraded > 0
