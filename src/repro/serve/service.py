"""`KnapsackService`: the high-throughput LCA-KP query engine.

The LCA model promises that any number of stateless runs over one
``(instance, seed)`` pair describe a single solution C.  The serving
layer exploits the contrapositive: since a run is a *deterministic*
function of ``(instance, seed, nonce, params)``, distinct queries that
agree on that tuple may legally share one run — the answers are
identical either way, only the sample bill changes.  The engine stacks
three such amortizations, none of which touches the output law:

* **memoization** — pipeline results live in a seed/nonce-keyed LRU
  (:class:`~repro.serve.cache.PipelineCache`); a cache hit answers a
  query with one point query and zero weighted samples;
* **vectorization** — batches are answered through
  :meth:`~repro.core.LCAKP.answers_from`, which applies the decision
  rule as one numpy pass over the batch's index/profit/weight arrays;
* **parallelism** — large batches are sharded across a
  ``concurrent.futures`` thread or process pool; shard ``w`` of a batch
  with base nonce ``b`` runs under the *derived* nonce
  ``derive_worker_nonce(seed, b, w)``, so the shards are exactly N
  independent fleet copies sharing the read-only seed r (the
  :class:`~repro.lca.LCAFleet` semantics), and every shard's answers
  can be replayed serially from its recorded nonce.

On top of the amortizations sits the **resilience layer** (see
``docs/robustness.md``): the service can treat oracle access as an
unreliable resource (:class:`~repro.faults.FaultPlan` wraps its access
objects in fault injectors), recover transient probe failures with a
budget-honest :class:`~repro.faults.RetryPolicy`, requeue or hedge
process-pool shards whose workers die, and — when ``strict=False`` —
answer through the reason-coded degradation ladder
(:class:`~repro.serve.degraded.DegradedAnswer`) instead of raising when
the budget runs dry or faults persist past retry.

From the caller's perspective each non-degraded answer is still a
stateless Definition 2.2 run — see ``docs/serving.md`` for why the
cache does not constitute forbidden cross-run state.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from ..access.oracle import QueryOracle
from ..access.seeds import SeedChain, fresh_nonce
from ..access.weighted_sampler import WeightedSampler
from ..core.lca_kp import LCAKP, LCAAnswer, PipelineResult
from ..core.parameters import LCAParameters
from ..errors import (
    DeadlineExceededError,
    FaultInjectionError,
    QueryBudgetExceededError,
    ReproError,
    ShardFailureError,
    WatchdogTimeoutError,
)
from ..faults.audit import ProbeAuditor
from ..faults.injectors import FaultyOracle, FaultySampler
from ..faults.plan import FaultPlan
from ..faults.retry import RetryingOracle, RetryingSampler, RetryPolicy
from ..knapsack.instance import KnapsackInstance
from ..knapsack.shm import (
    SharedInstanceHandle,
    SharedInstanceStore,
    attach_cached,
    process_memory,
)
from ..obs import runtime as _obs
from ..obs.trace import span_from_payload, span_to_payload
from .cache import CacheKey, PipelineCache, instance_fingerprint
from .degraded import DegradedAnswer, GreedyFallback, reason_code_for
from .overload import BreakerConfig, guard_access

__all__ = [
    "BatchReport",
    "KnapsackService",
    "MEMORY_SAMPLE_EVERY",
    "POOL_START_METHOD",
    "derive_worker_nonce",
]

#: Failures the degradation ladder absorbs; anything else is a bug and
#: propagates regardless of strictness.
_DEGRADABLE = (QueryBudgetExceededError, FaultInjectionError)

#: Start method of every worker pool, pinned here rather than left to
#: the interpreter default (Python 3.14 moves Linux to ``forkserver``).
#: ``fork`` where the platform has it: a forked worker starts with the
#: parent's modules imported, while a ``forkserver`` or ``spawn`` worker
#: re-imports them.  Answers do not depend on it — every chunk's state
#: travels in its payload.
POOL_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: A pool worker reads ``/proc/self/smaps_rollup`` on its first chunk and
#: on every this-many-th chunk after it; chunks in between ship the last
#: snapshot, which carries the chunk ordinal it was read at.
MEMORY_SAMPLE_EVERY = 32

#: This worker process's chunk ledger: pid it belongs to (a forked
#: child inherits its parent's ledger and must not continue it), chunks
#: served, and the latest memory snapshot.
_LEDGER: dict = {"pid": None, "chunks": 0, "memory": None}


def derive_worker_nonce(seed: SeedChain, base_nonce: int, worker: int) -> int:
    """Deterministic fresh-randomness nonce for one parallel shard.

    Derived through the seed chain so that (a) every worker draws
    independent samples (distinct label paths), (b) the derivation is
    reproducible from ``(seed, base_nonce, worker)`` alone — a parallel
    batch can be replayed shard by shard with plain serial
    :meth:`~repro.core.LCAKP.answer` calls.
    """
    node = seed.child("__serve__").child(int(base_nonce)).child(int(worker))
    return int.from_bytes(node.digest()[:8], "big")


def _wrap_access(sampler, oracle, plan, policy, labels: tuple, audit=None):
    """Stack the fault injectors and retry decorators over raw access.

    ``audit`` (a :class:`~repro.faults.ProbeAuditor`) rides inside the
    retry wrappers so an implausible delivery retries like a lost one.
    """
    timeout = policy.probe_timeout_s if policy is not None else None
    if plan is not None:
        sampler = FaultySampler(
            sampler, plan.stream(*labels, "sampler"), timeout_s=timeout
        )
        oracle = FaultyOracle(
            oracle, plan.stream(*labels, "oracle"), timeout_s=timeout
        )
    if policy is not None:
        sampler = RetryingSampler(sampler, policy, audit=audit)
        oracle = RetryingOracle(oracle, policy, audit=audit)
    return sampler, oracle


def _chunk_memory() -> dict:
    """This worker's memory snapshot for the chunk ending now.

    Re-read on the worker's first chunk and whenever the chunk ordinal
    is a multiple of :data:`MEMORY_SAMPLE_EVERY`; otherwise the last
    snapshot is reused.  ``chunk`` is the ordinal it was read at and
    ``age_chunks`` how many chunks ago that was."""
    pid = os.getpid()
    if _LEDGER["pid"] != pid:
        _LEDGER.update(pid=pid, chunks=0, memory=None)
    ordinal = _LEDGER["chunks"]
    _LEDGER["chunks"] = ordinal + 1
    if ordinal % MEMORY_SAMPLE_EVERY == 0:
        _LEDGER["memory"] = {**process_memory(), "chunk": ordinal}
    memory = _LEDGER["memory"]
    return {**memory, "age_chunks": ordinal - memory["chunk"]}


def _serve_chunk(payload) -> tuple:
    """Process-pool entry: answer one shard in a long-lived pool worker.

    Builds the shard's access objects (the chunk reads no state the
    parent left behind — the strongest possible form of the fleet's
    independence claim), applies the shard's fault/retry wiring, and
    returns the slim answers plus the shard's full bill:
    ``(answers, samples, queries, blocks, degraded, probe_retries, obs)``
    where ``obs`` carries the chunk's full observability state — its
    registry (mergeable histogram buckets, not quantile summaries), its
    finished ``serve.shard`` span tree (when the parent propagated a
    trace context), and its flight-recorder events — so the parent can
    fold the shard's telemetry in exactly, not just its cost totals.

    The worker resets the global runtime first: a forked worker inherits
    the parent's counter values, open span stack, and recorded events,
    and a reused worker still holds its previous chunk's, all of which
    would double-count if shipped home.  Tracing and timeline capture
    are switched on per chunk from the payload alone (the trace context
    and the parent's timeline spec), never from inherited globals.

    Under a plan with ``shard_kill_rate`` the child may deterministically
    kill itself *before* doing any work (``os._exit`` => the parent sees
    ``BrokenProcessPool`` — real worker death, not an exception), which
    is how the requeue/hedge path is exercised end to end.

    Slot 0 of the payload is either the pickled instance (legacy path:
    O(n) per shard) or a :class:`SharedInstanceHandle` (shared-memory
    path: the worker attaches zero-copy views once per worker lifetime
    and re-wraps the segment's prebuilt alias table — O(1) per chunk in
    n).  The attach — including its digest verification, which happens
    *before* any access object exists, so no query is ever billed
    against a wrong segment — runs before ``reset_worker_runtime`` so
    the worker's shipped-home registry is identical between the two
    paths; the parent-facing setup/memory measurements travel in
    dedicated ``obs_state`` keys instead.
    """
    (
        instance, epsilon, seed, params, tie_breaking, mode, nonce, indices,
        plan, policy, attempt, strict, trace_ctx, audit_bounds, breaker_cfg,
        timeline,
    ) = payload
    if plan is not None and plan.shard_kill(nonce, attempt):
        os._exit(17)
    if plan is not None:
        # A stalled shard is alive but not progressing: it sleeps through
        # its deadline and the parent's watchdog requeues it.
        stall = plan.shard_stall(nonce, attempt)
        if stall > 0.0:
            time.sleep(stall)
    shared_store = None
    setup_start = time.perf_counter()
    if isinstance(instance, SharedInstanceHandle):
        shared_store = attach_cached(instance)
        instance = shared_store.instance
    _obs.reset_worker_runtime(timeline)
    if trace_ctx is not None:
        _obs.TRACER.enable()
        _obs.TRACER.adopt(*trace_ctx)
    audit = ProbeAuditor(*audit_bounds) if audit_bounds is not None else None
    if shared_store is not None:
        sampler = shared_store.sampler()
    else:
        sampler = WeightedSampler(instance)
    oracle = QueryOracle(instance)
    setup_s = time.perf_counter() - setup_start
    sampler, oracle = _wrap_access(
        sampler, oracle, plan, policy, ("shard", nonce, attempt), audit=audit
    )
    sampler, oracle, _breaker = guard_access(
        sampler, oracle, breaker_cfg, ("shard", nonce, attempt)
    )
    lca = LCAKP(
        sampler,
        oracle,
        epsilon,
        seed,
        params=params,
        tie_breaking=tie_breaking,
        large_item_mode=mode,
    )
    degraded = 0
    with _obs.span("serve.shard"):
        try:
            pipeline = lca.run_pipeline(nonce=nonce)
            answers = lca.answers_from(pipeline, indices)
        except _DEGRADABLE as exc:
            if strict:
                raise
            # The child has no pipeline cache; its ladder starts at greedy.
            fallback = GreedyFallback(instance)
            code = reason_code_for(exc)
            _obs.record_event(
                "serve.degraded",
                queries=len(indices),
                reason=code,
                source=fallback.source,
            )
            answers = [
                DegradedAnswer(
                    index=int(i), include=inc, reason_code=code,
                    source=fallback.source, detail=str(exc),
                )
                for i, inc in zip(indices, fallback.decide_many(indices))
            ]
            degraded = len(answers)
    retries = getattr(sampler, "retries_used", 0) + getattr(oracle, "retries_used", 0)
    root = _obs.TRACER.last_root() if trace_ctx is not None else None
    obs_state = {
        "registry": _obs.REGISTRY.state(),
        "trace": span_to_payload(root) if root is not None else None,
        "events": [e.to_dict() for e in _obs.RECORDER.events()],
        "dropped_events": _obs.RECORDER.dropped,
        # Shard-local timeline ticks (None unless the payload carried
        # the parent's timeline spec).
        "timeline": _obs.timeline_state(),
        # Parent-facing scale telemetry (not part of the merged registry,
        # so thread-vs-process registry parity is unaffected).
        "setup_s": setup_s,
        "memory": _chunk_memory(),
        "shared": shared_store is not None,
    }
    return (
        answers,
        sampler.cost_counter,
        oracle.cost_counter,
        getattr(sampler, "blocks_used", 0),
        degraded,
        retries,
        obs_state,
    )


def _first_result(
    futures: list, *, timeout_s: float | None = None, shard: int = -1
) -> tuple:
    """First successful result of a (possibly hedged) future list.

    First-result-wins with a deterministic tie-break: among futures
    completed at the same wait wake-up, the earliest submission (the
    primary) is preferred.  Returns ``(result, winner_future, None)`` on
    success or ``(None, None, last_error)`` when every attempt failed —
    the winner identity is what lets ``merge_losers`` harvest the
    *other* futures without double-counting the winner.

    ``timeout_s`` is the stuck-shard watchdog: when no attempt settles
    within the deadline the verdict is a
    :class:`~repro.errors.WatchdogTimeoutError` — the caller treats it
    exactly like a dead worker (requeue or give up), because a wedged
    shard and a killed one look identical from out here.
    """
    pending = set(futures)
    err: Exception | None = None
    deadline = None if timeout_s is None else time.monotonic() + float(timeout_s)
    while pending:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None, None, WatchdogTimeoutError(shard, float(timeout_s))
        done, pending = wait(
            pending, timeout=remaining, return_when=FIRST_COMPLETED
        )
        if not done and deadline is not None and time.monotonic() >= deadline:
            return None, None, WatchdogTimeoutError(shard, float(timeout_s))
        for fut in futures:  # submission order = deterministic tie-break
            if fut in done:
                try:
                    return fut.result(), fut, None
                except Exception as exc:  # worker death, pickling, ...
                    err = exc
    return None, None, err


class _WorkerPools:
    """A service's persistent process pools, one per lane.

    Lane 0 serves every shard; hedged services add lane 1 for the
    duplicate submissions.  A lane's pool is built on first use and kept
    across batches, so its workers keep their segment attachment and
    warm page tables.  It is replaced only when it broke (a worker
    died), when the watchdog escalated, or on :meth:`shutdown`.  Holds
    no reference to the service, so the service's GC finalizer can call
    :meth:`shutdown` without keeping the service alive.
    """

    def __init__(self, lanes: int, workers: int) -> None:
        self._workers = workers
        self._lanes: list = [None] * lanes
        self._lock = threading.Lock()

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def _pool(self, lane: int):
        with self._lock:
            pool = self._lanes[lane]
            if pool is None:
                pool = self._lanes[lane] = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=multiprocessing.get_context(POOL_START_METHOD),
                )
            return pool

    def submit(self, lane: int, payload) -> tuple:
        """Submit one chunk on ``lane``; returns ``(pool, future)``.

        A pool found broken at submit (a worker died while idle) is
        replaced and the chunk goes to the new one."""
        pool = self._pool(lane)
        try:
            return pool, pool.submit(_serve_chunk, payload)
        except BrokenProcessPool:
            self.retire(pool)
            pool = self._pool(lane)
            return pool, pool.submit(_serve_chunk, payload)

    def retire(self, pool, *, terminate: bool = False) -> None:
        """Take ``pool`` out of its lane (if still there) and shut it
        down; the lane's next submit builds a replacement.

        ``terminate`` escalates: cancel what never started, terminate
        what runs (a wedged worker would make ``shutdown(wait=True)``
        hang for its stall's full duration), and reap the workers."""
        with self._lock:
            self._lanes = [None if p is pool else p for p in self._lanes]
        if not terminate:
            pool.shutdown(wait=True, cancel_futures=True)
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(5.0)

    def shutdown(self) -> None:
        """Shut every lane's pool down and reap its workers."""
        with self._lock:
            pools = [p for p in self._lanes if p is not None]
            self._lanes = [None] * len(self._lanes)
        for pool in pools:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except RuntimeError:  # collected on the pool's own manager thread
                pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class _ShardTotals:
    """Folded outcome of one parallel batch's shards."""

    answers: list
    samples: int = 0
    queries: int = 0
    blocks: int = 0
    hits: int = 0
    misses: int = 0
    runs: int = 0
    degraded: int = 0
    probe_retries: int = 0
    shard_retries: int = 0
    hedges: int = 0


@dataclass(frozen=True)
class BatchReport:
    """Outcome and bill of one served batch.

    ``degraded`` counts answers served off the degradation ladder
    (always 0 under ``strict=True``); ``stale_served`` counts the subset
    of those the cache rung answered off a pipeline at least one batch
    stale; ``shard_retries``/``hedges`` count process-pool shard
    requeues after worker death and hedged duplicate submissions;
    ``probe_retries`` counts budget-charged re-probes the retry policy
    performed on the batch's behalf.
    """

    answers: tuple[LCAAnswer, ...]
    mode: str  # "serial", "thread", "process" or "shed"
    workers: int
    cache_hits: int
    cache_misses: int
    pipelines_run: int
    samples_spent: int
    queries_spent: int
    wall_clock_s: float
    degraded: int = 0
    probe_retries: int = 0
    shard_retries: int = 0
    hedges: int = 0
    stale_served: int = 0

    @property
    def queries_per_sec(self) -> float:
        """Answered queries per wall-clock second (0.0 on a zero-time run)."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return len(self.answers) / self.wall_clock_s

    @property
    def availability(self) -> float:
        """Fraction of the batch answered non-degraded."""
        if not self.answers:
            return 0.0
        return 1.0 - self.degraded / len(self.answers)

    def to_dict(self) -> dict:
        """JSON-ready summary (answers are counted, not dumped)."""
        return {
            "queries": len(self.answers),
            "mode": self.mode,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pipelines_run": self.pipelines_run,
            "samples_spent": self.samples_spent,
            "queries_spent": self.queries_spent,
            "wall_clock_s": self.wall_clock_s,
            "queries_per_sec": self.queries_per_sec,
            "degraded": self.degraded,
            "availability": self.availability,
            "probe_retries": self.probe_retries,
            "shard_retries": self.shard_retries,
            "hedges": self.hedges,
            "stale_served": self.stale_served,
        }


class KnapsackService:
    """Cache-accelerated, batch-capable front end to one LCA-KP config.

    Parameters
    ----------
    instance, epsilon, seed, params, tie_breaking, large_item_mode:
        Forwarded to the underlying :class:`~repro.core.LCAKP`.
    cache:
        ``None`` (default) builds a private
        :class:`~repro.serve.cache.PipelineCache` of ``cache_capacity``
        entries; pass an existing cache to share it between services
        (keys embed the instance fingerprint, so sharing is safe); pass
        ``False`` to disable memoization entirely.
    cache_capacity:
        Size of the private cache when ``cache`` is ``None``.
    max_workers:
        Default shard count for parallel batches (defaults to CPU count
        capped at 8).
    executor:
        ``"thread"`` (default) or ``"process"`` — how parallel batches
        run.  Thread shards share the parent's cache; process shards
        cannot (results stay in the child), but exercise true
        zero-shared-state execution and rely on answers being cheap to
        pickle.  Process shards run on one pool of ``max_workers``
        workers per service, started with :data:`POOL_START_METHOD` on
        the first process batch and kept until :meth:`close` (or until
        a worker dies or the watchdog escalates, which replace it).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; wraps every access
        object (the service's own and each shard's) in deterministic
        fault injectors.  ``None`` (default) injects nothing.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`; retries transient
        probe faults, re-charging the budget per re-probe.
    strict:
        ``True`` (default) preserves the historical raise-on-failure
        behavior exactly.  ``False`` absorbs budget exhaustion and
        unrecovered faults into reason-coded
        :class:`~repro.serve.degraded.DegradedAnswer` objects instead of
        raising.  Overridable per call.
    max_shard_retries:
        Times a process-pool shard is requeued after worker death before
        the batch gives up on it (raise under strict, degrade otherwise).
    hedge:
        When true, each process-pool shard is also submitted to a second
        persistent pool; first result wins with a deterministic
        tie-break (primary preferred).
    max_staleness:
        Bound (in served batches) on how stale a memoized pipeline the
        degradation ladder's cache rung may answer from; ``None``
        (default) keeps the historical any-age behavior.  An entry older
        than this falls through to the greedy rung.
    probe_audit:
        When true, every delivered probe response passes a
        :class:`~repro.faults.ProbeAuditor` plausibility check (bounds
        taken from the parameters' efficiency domain); an implausible
        delivery raises a retryable
        :class:`~repro.errors.CorruptProbeError` instead of being
        trusted.  Requires ``retry_policy`` — detection without recovery
        would just turn corruption into an outage.
    merge_losers:
        Opt-in telemetry completeness for hedged/requeued process-pool
        shards.  By default only the *winning* attempt's observability
        ships home (matching how losing cost bills are discarded, so
        merged telemetry reconciles with the budget).  With
        ``merge_losers=True`` the obs state of losing attempts that
        still ran to completion is merged too — their trace roots
        renamed with an ``.abandoned`` suffix and their events tagged
        ``abandoned=true`` — and their probe bills are accumulated in
        separate ``abandoned_*`` counters (:meth:`stats`), never in
        ``samples_used``/``queries_used``.  Attributed work then
        legitimately *exceeds* billed work: that surplus is exactly the
        cluster-wide cost of hedging, which is the thing this flag
        exists to measure.  Answer values and budget accounting are
        unchanged either way.
    shared_instance:
        When truthy, process-pool shards receive an O(1)
        :class:`~repro.knapsack.shm.SharedInstanceHandle` instead of the
        pickled instance and attach zero-copy views of one shared
        segment (columns plus the service's alias table), making
        per-shard setup independent of n.  ``True`` creates the segment
        lazily on the first process batch; pass an existing
        :class:`~repro.knapsack.shm.SharedInstanceStore` to share one
        segment between services (the caller keeps unlink ownership).
        Answers, probe bills and per-phase obs totals are bit-identical
        to the pickled path.  Call :meth:`close` (or use the service as
        a context manager) to unlink a lazily-created segment.
    breaker:
        Optional :class:`~repro.serve.overload.BreakerConfig` (or
        ``True`` for defaults): wraps every access stack — the service's
        own and each shard's — in one shared
        :class:`~repro.serve.overload.CircuitBreaker` per stack.  A
        streak of injected-fault failures opens the circuit and
        subsequent probes fail fast with
        :class:`~repro.errors.CircuitOpenError` (absorbed by the
        degradation ladder under ``strict=False``) until the virtual
        cool-down lapses.  Budget-honest: tripping never un-charges the
        probes that tripped it.
    shard_deadline_s:
        Optional stuck-shard watchdog deadline (seconds) on process-pool
        shard futures.  A shard that neither finishes nor dies within
        the deadline is abandoned as a
        :class:`~repro.errors.WatchdogTimeoutError` and requeued through
        the existing worker-death path; the wedged pool is terminated
        without waiting and replaced, so its shared-memory attachments
        release (the parent keeps unlink ownership — no segment leaks).
    """

    def __init__(
        self,
        instance,
        epsilon: float,
        seed: int | SeedChain = 0,
        *,
        params: LCAParameters | None = None,
        tie_breaking: bool = False,
        large_item_mode: str = "coupon",
        cache: PipelineCache | bool | None = None,
        cache_capacity: int = 64,
        max_workers: int | None = None,
        executor: str = "thread",
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        strict: bool = True,
        max_shard_retries: int = 2,
        hedge: bool = False,
        max_staleness: int | None = None,
        probe_audit: bool = False,
        merge_losers: bool = False,
        shared_instance: bool | SharedInstanceStore = False,
        breaker: BreakerConfig | bool | None = None,
        shard_deadline_s: float | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ReproError(f"executor must be 'thread' or 'process', got {executor!r}")
        if shard_deadline_s is not None and shard_deadline_s <= 0:
            raise ReproError(
                f"shard_deadline_s must be > 0, got {shard_deadline_s}"
            )
        if shared_instance and not isinstance(instance, KnapsackInstance):
            raise ReproError(
                "shared_instance requires an explicit KnapsackInstance "
                "(implicit instances have no columns to share)"
            )
        if max_shard_retries < 0:
            raise ReproError(f"max_shard_retries must be >= 0, got {max_shard_retries}")
        if max_staleness is not None and max_staleness < 0:
            raise ReproError(f"max_staleness must be >= 0, got {max_staleness}")
        if probe_audit and retry_policy is None:
            raise ReproError(
                "probe_audit requires a retry_policy: a detected corruption "
                "is recovered by re-probing, not by raising"
            )
        self._instance = instance
        if isinstance(shared_instance, SharedInstanceStore):
            self._store: SharedInstanceStore | None = shared_instance
            self._shared = True
            self._owns_store = False
        else:
            self._store = None
            self._shared = bool(shared_instance)
            self._owns_store = True
        self._worker_setup_s: list[float] = []
        self._worker_memory: list[dict] = []
        self._epsilon = float(epsilon)
        self._seed = seed if isinstance(seed, SeedChain) else SeedChain(seed)
        self._tie_breaking = bool(tie_breaking)
        self._large_item_mode = large_item_mode
        self._executor_kind = executor
        self._max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        self._strict = bool(strict)
        self._max_shard_retries = int(max_shard_retries)
        self._hedge = bool(hedge)
        self._merge_losers = bool(merge_losers)
        self._pools = _WorkerPools(2 if self._hedge else 1, self._max_workers)
        # A service dropped without close() still reaps its workers.
        weakref.finalize(self, self._pools.shutdown)
        if breaker is True:
            self._breaker_cfg: BreakerConfig | None = BreakerConfig()
        elif breaker is False:
            self._breaker_cfg = None
        else:
            self._breaker_cfg = breaker
        self._shard_deadline_s = (
            None if shard_deadline_s is None else float(shard_deadline_s)
        )
        self._deadline_shed = 0
        self._watchdog_timeouts = 0
        self._abandoned_samples = 0
        self._abandoned_queries = 0
        self._abandoned_blocks = 0
        self._abandoned_shards = 0
        self._max_staleness = None if max_staleness is None else int(max_staleness)
        if probe_audit:
            dom = params.domain if params is not None else None
            self._audit_bounds: tuple[float, float] | None = (
                (float(dom.lo), float(dom.hi)) if dom is not None else (1e-12, 1e12)
            )
            self._audit: ProbeAuditor | None = ProbeAuditor(*self._audit_bounds)
        else:
            self._audit_bounds = None
            self._audit = None
        sampler = WeightedSampler(instance)
        # Built once: thread shards and the shared-memory segment reuse it.
        self._alias_table = sampler.table
        oracle = QueryOracle(instance)
        self._faulty_sampler: FaultySampler | None = None
        self._faulty_oracle: FaultyOracle | None = None
        sampler, oracle = _wrap_access(
            sampler, oracle, fault_plan, retry_policy, ("serve",), audit=self._audit
        )
        if fault_plan is not None:
            self._faulty_sampler = (
                sampler.inner if retry_policy is not None else sampler
            )
            self._faulty_oracle = (
                oracle.inner if retry_policy is not None else oracle
            )
        # The breaker sits OUTSIDE the retry wrapper: retries happen inside
        # one admitted probe, and a streak of retries-exhausted failures is
        # exactly the signal that should trip the circuit.
        sampler, oracle, self._breaker = guard_access(
            sampler, oracle, self._breaker_cfg, ("serve",)
        )
        self._sampler = sampler
        self._oracle = oracle
        self._lca = LCAKP(
            self._sampler,
            self._oracle,
            self._epsilon,
            self._seed,
            params=params,
            tie_breaking=tie_breaking,
            large_item_mode=large_item_mode,
        )
        if cache is False:
            self._cache: PipelineCache | None = None
        elif cache is None or cache is True:
            self._cache = PipelineCache(capacity=cache_capacity)
        else:
            self._cache = cache
        self._fingerprint = instance_fingerprint(instance)
        self._fallback: GreedyFallback | None = None
        self._extra_samples = 0  # spent by parallel shards, not self._sampler
        self._extra_queries = 0
        self._extra_blocks = 0
        self._extra_retries = 0
        self._degraded_total = 0
        self._requests = _obs.REGISTRY.counter("serve.requests")
        self._batch_size = _obs.REGISTRY.histogram("serve.batch_size")
        self._batch_latency = _obs.REGISTRY.histogram("serve.batch_latency_s")

    # ------------------------------------------------------------------
    # Configuration and accounting faces
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The accuracy parameter."""
        return self._epsilon

    @property
    def seed(self) -> SeedChain:
        """The shared random string r."""
        return self._seed

    @property
    def instance(self):
        """The knapsack instance (or access-only stand-in) served."""
        return self._instance

    @property
    def params(self) -> LCAParameters:
        """The static LCA parameters in force."""
        return self._lca.params

    @property
    def cache(self) -> PipelineCache | None:
        """The pipeline cache (``None`` when memoization is disabled)."""
        return self._cache

    @property
    def lca(self) -> LCAKP:
        """The underlying algorithm (for audits and fleet harnesses)."""
        return self._lca

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The fault plan in force (``None`` when injection is off)."""
        return self._fault_plan

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The retry policy in force (``None`` when retries are off)."""
        return self._retry_policy

    @property
    def strict(self) -> bool:
        """Default failure posture: raise (True) or degrade (False)."""
        return self._strict

    @property
    def audit(self) -> ProbeAuditor | None:
        """The probe auditor (``None`` unless ``probe_audit=True``)."""
        return self._audit

    @property
    def max_staleness(self) -> int | None:
        """Staleness bound on the degradation ladder's cache rung."""
        return self._max_staleness

    @property
    def samples_used(self) -> int:
        """Weighted samples spent by this service, including shards."""
        return self._sampler.cost_counter + self._extra_samples

    @property
    def blocks_used(self) -> int:
        """Columnar sample blocks charged by this service, including shards.

        The cold (cache-miss) path draws samples in blocks — see
        :meth:`~repro.access.WeightedSampler.sample_block` — so this
        counts pipeline-phase batches, not draws.  Shard block counts
        (thread and process alike) are folded back in through the shard
        payloads, so the total is exact fleet-wide."""
        return getattr(self._sampler, "blocks_used", 0) + self._extra_blocks

    @property
    def queries_used(self) -> int:
        """Point queries spent by this service, including shards."""
        return self._oracle.cost_counter + self._extra_queries

    @property
    def cost_counter(self) -> int:
        """Uniform CostMeter face: samples plus queries, cumulative."""
        return self.samples_used + self.queries_used

    @property
    def retries_used(self) -> int:
        """Budget-charged re-probes performed, including shards."""
        total = self._extra_retries
        total += getattr(self._sampler, "retries_used", 0)
        total += getattr(self._oracle, "retries_used", 0)
        return total

    @property
    def probe_hedges_used(self) -> int:
        """Backup probes fired by a hedging retry policy (serial path;
        process-shard hedges surface via the merged metrics registry)."""
        return getattr(self._sampler, "hedges_used", 0) + getattr(
            self._oracle, "hedges_used", 0
        )

    @property
    def hedge_latency_saved_s(self) -> float:
        """Virtual tail latency cut by hedged backups beating slow
        primaries (serial path)."""
        return getattr(self._sampler, "hedge_latency_saved_s", 0.0) + getattr(
            self._oracle, "hedge_latency_saved_s", 0.0
        )

    @property
    def degraded_total(self) -> int:
        """Answers served off the degradation ladder so far."""
        return self._degraded_total

    @property
    def abandoned_work(self) -> dict[str, int]:
        """Probe work done by losing shard attempts (only populated
        under ``merge_losers=True``; never part of the budget bill)."""
        return {
            "shards": self._abandoned_shards,
            "samples": self._abandoned_samples,
            "queries": self._abandoned_queries,
            "blocks": self._abandoned_blocks,
        }

    @property
    def faults_injected(self) -> dict[str, int]:
        """Faults injected into this service's own access objects.

        (Shard subprocess injections are visible in their returned
        bills and the chaos report, not here.)"""
        out = {"probe_failures": 0, "timeouts": 0, "corruptions": 0}
        for injector in (self._faulty_sampler, self._faulty_oracle):
            if injector is None:
                continue
            out["probe_failures"] += injector.probe_failures
            out["timeouts"] += injector.timeouts
            out["corruptions"] += injector.corruptions
        if self._audit is not None:
            out["corruptions_detected"] = self._audit.violations
        return out

    # ------------------------------------------------------------------
    # Pipeline acquisition
    # ------------------------------------------------------------------
    def cache_key(self, nonce: int) -> CacheKey:
        """The full cache key this service derives for ``nonce``."""
        return CacheKey.derive(
            fingerprint=self._fingerprint,
            seed=self._seed,
            nonce=nonce,
            params=self._lca.params,
            tie_breaking=self._tie_breaking,
            large_item_mode=self._large_item_mode,
        )

    def pipeline_for(
        self, nonce: int | None = None, *, lca: LCAKP | None = None
    ) -> tuple[PipelineResult, bool]:
        """Return ``(pipeline, was_cached)`` for ``nonce``.

        ``nonce=None`` draws OS entropy (a guaranteed miss, cached for
        any later caller that learns the nonce from the result).  The
        optional ``lca`` runs a miss on a specific copy (the thread
        shards use their own copies for accounting isolation).
        """
        resolved = int(nonce) if nonce is not None else fresh_nonce()
        key = self.cache_key(resolved)
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached, True
        pipeline = (lca or self._lca).run_pipeline(nonce=resolved)
        if self._cache is not None:
            self._cache.put(key, pipeline)
        return pipeline, False

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _resolve_strict(self, strict: bool | None) -> bool:
        return self._strict if strict is None else bool(strict)

    def _note_degraded(self, n: int) -> None:
        self._degraded_total += n
        _obs.record_degraded(n)

    def _raw_attributes(self, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Item attributes read straight off the instance (outside the
        fault domain — degradation must not itself be degradable)."""
        if isinstance(self._instance, KnapsackInstance):
            arr = np.asarray(idx, dtype=np.int64)
            return self._instance.profits[arr], self._instance.weights[arr]
        profits = np.array([self._instance.profit(int(i)) for i in idx], dtype=float)
        weights = np.array([self._instance.weight(int(i)) for i in idx], dtype=float)
        return profits, weights

    def _degrade(self, idx: list[int], exc: BaseException) -> list[DegradedAnswer]:
        """Serve ``idx`` off the degradation ladder (pure: no counters).

        Rung 1 — a memoized pipeline for this exact configuration (same
        fingerprint/seed/params, any nonce) still encodes a valid
        solution; apply its rule, but only if it is at most
        ``max_staleness`` batches off the warm path (the answer carries
        its staleness age).  Rung 2 — the once-computed greedy fallback
        mask.  Rung 3 (implicit instances) — the trivial empty solution.
        """
        code = reason_code_for(exc)
        detail = str(exc)
        found = (
            self._cache.find_config(self.cache_key(0), max_age=self._max_staleness)
            if self._cache is not None
            else None
        )
        staleness: int | None = None
        if found is not None:
            pipeline, staleness = found
            profits, weights = self._raw_attributes(idx)
            include = pipeline.rule.decide_many(
                profits, weights, np.asarray(idx, dtype=np.int64)
            )
            source = "cache"
            verdicts = [bool(b) for b in include]
        else:
            if self._fallback is None:
                self._fallback = GreedyFallback(self._instance)
            verdicts = self._fallback.decide_many(idx)
            source = self._fallback.source
        _obs.record_event(
            "serve.degraded",
            queries=len(idx),
            reason=code,
            source=source,
            **({} if staleness is None else {"staleness": staleness}),
        )
        return [
            DegradedAnswer(
                index=int(i), include=inc, reason_code=code,
                source=source, detail=detail, staleness=staleness,
            )
            for i, inc in zip(idx, verdicts)
        ]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def answer(
        self, index: int, *, nonce: int | None = None, strict: bool | None = None
    ) -> LCAAnswer | DegradedAnswer:
        """Answer one query (memoized pipeline, vectorized rule).

        Under ``strict=False`` (argument or service default) a budget-
        or fault-doomed query returns a reason-coded
        :class:`~repro.serve.degraded.DegradedAnswer` instead of raising.
        """
        with _obs.span("serve.answer"):
            self._requests.inc()
            try:
                pipeline, _ = self.pipeline_for(nonce)
                return self._lca.answers_from(pipeline, [index])[0]
            except _DEGRADABLE as exc:
                if self._resolve_strict(strict):
                    raise
                self._note_degraded(1)
                return self._degrade([index], exc)[0]

    def answer_many(
        self, indices, *, nonce: int | None = None, strict: bool | None = None
    ) -> list[bool]:
        """Protocol face: boolean batch answers via :meth:`answer_batch`."""
        return [
            a.include
            for a in self.answer_batch(indices, nonce=nonce, strict=strict).answers
        ]

    def answer_batch(
        self,
        indices,
        *,
        nonce: int | None = None,
        workers: int | None = None,
        strict: bool | None = None,
        deadline_s: float | None = None,
        clock=None,
    ) -> BatchReport:
        """Answer a batch, optionally sharded across a worker pool.

        ``workers`` <= 1 (default) serves the whole batch from one
        pipeline run (or cache hit).  ``workers`` > 1 splits the batch
        into contiguous shards, each served under its own derived nonce
        by an independent LCA copy — the parallel execution path.
        Process-pool shards whose workers die are requeued (and
        optionally hedged); queries that cannot be answered the honest
        way are degraded rather than aborted unless ``strict``.

        ``deadline_s`` is the overload governor's admission gate: an
        absolute deadline on ``clock``'s timeline (``time.monotonic``
        when ``clock`` is ``None``).  A batch whose deadline has already
        passed at dispatch is *shed* — no probe is charged, no pipeline
        runs — raising :class:`~repro.errors.DeadlineExceededError`
        under strict and returning a ``mode="shed"`` report of
        reason-coded answers otherwise.
        """
        idx = [int(i) for i in indices]
        if not idx:
            raise ReproError("answer_batch needs at least one index")
        resolved_strict = self._resolve_strict(strict)
        w = 1 if workers is None else int(workers)
        if deadline_s is not None:
            now = float(clock() if clock is not None else time.monotonic())
            if now >= float(deadline_s):
                return self._shed_batch(
                    idx, float(deadline_s), now, resolved_strict
                )
        if self._cache is not None:
            self._cache.advance_batch()
        start = time.perf_counter()
        with _obs.span("serve.batch"):
            if w <= 1 or len(idx) < 2:
                report = self._batch_serial(idx, nonce, start, resolved_strict)
            else:
                report = self._batch_parallel(
                    idx, nonce, min(w, len(idx)), start, resolved_strict
                )
        self._requests.inc(len(idx))
        self._batch_size.observe(len(idx))
        self._batch_latency.observe(report.wall_clock_s)
        return report

    def _shed_batch(
        self, idx: list[int], deadline_s: float, now: float, strict: bool
    ) -> BatchReport:
        """Refuse an already-doomed batch at the admission gate.

        Nothing runs and nothing is billed — serving an answer nobody is
        waiting for only starves the queue behind it.  The shed is
        honestly accounted: ``overload.deadline_shed`` counts queries,
        the flight recorder keeps the event, and every answer is a
        reason-coded :class:`DegradedAnswer` (``source="shed"``) that can
        never be mistaken for a Theorem 4.1 answer.
        """
        if strict:
            raise DeadlineExceededError(deadline_s, now)
        self._deadline_shed += len(idx)
        _obs.REGISTRY.counter("overload.deadline_shed").inc(len(idx))
        _obs.record_event(
            "overload.deadline_shed",
            queries=len(idx),
            deadline_s=deadline_s,
            now_s=now,
        )
        self._note_degraded(len(idx))
        detail = f"deadline {deadline_s:.6g}s passed at dispatch (now {now:.6g}s)"
        answers = tuple(
            DegradedAnswer(
                index=int(i),
                include=False,
                reason_code="deadline-exceeded",
                source="shed",
                detail=detail,
            )
            for i in idx
        )
        self._requests.inc(len(idx))
        self._batch_size.observe(len(idx))
        return BatchReport(
            answers=answers,
            mode="shed",
            workers=0,
            cache_hits=0,
            cache_misses=0,
            pipelines_run=0,
            samples_spent=0,
            queries_spent=0,
            wall_clock_s=0.0,
            degraded=len(idx),
        )

    @staticmethod
    def _count_stale(answers) -> int:
        """Answers the cache rung served at least one batch stale."""
        return sum(
            1
            for a in answers
            if getattr(a, "staleness", None) not in (None, 0)
        )

    def _batch_serial(
        self, idx: list[int], nonce: int | None, start: float, strict: bool
    ) -> BatchReport:
        samples_before = self.samples_used
        queries_before = self.queries_used
        retries_before = self.retries_used
        degraded = 0
        try:
            pipeline, hit = self.pipeline_for(nonce)
            answers: list = self._lca.answers_from(pipeline, idx)
        except _DEGRADABLE as exc:
            if strict:
                raise
            hit = False
            answers = self._degrade(idx, exc)
            degraded = len(idx)
            self._note_degraded(degraded)
        return BatchReport(
            answers=tuple(answers),
            mode="serial",
            workers=1,
            cache_hits=1 if hit else 0,
            cache_misses=0 if hit else 1,
            pipelines_run=0 if hit or degraded else 1,
            samples_spent=self.samples_used - samples_before,
            queries_spent=self.queries_used - queries_before,
            wall_clock_s=time.perf_counter() - start,
            degraded=degraded,
            probe_retries=self.retries_used - retries_before,
            stale_served=self._count_stale(answers),
        )

    def _batch_parallel(
        self, idx: list[int], nonce: int | None, w: int, start: float, strict: bool
    ) -> BatchReport:
        base = int(nonce) if nonce is not None else fresh_nonce()
        shards = [idx[k::w] for k in range(w)]
        nonces = [derive_worker_nonce(self._seed, base, k) for k in range(w)]
        if self._executor_kind == "process":
            agg = self._run_process(shards, nonces, w, strict)
        else:
            agg = self._run_threads(shards, nonces, w, strict)
        self._extra_samples += agg.samples
        self._extra_queries += agg.queries
        self._extra_blocks += agg.blocks
        self._extra_retries += agg.probe_retries
        if agg.degraded:
            self._note_degraded(agg.degraded)
        # Re-interleave shard answers back into request order.
        ordered: list = [None] * len(idx)
        for k, shard_answers in enumerate(agg.answers):
            for j, ans in enumerate(shard_answers):
                ordered[k + j * w] = ans
        return BatchReport(
            answers=tuple(ordered),
            mode=self._executor_kind,
            workers=w,
            cache_hits=agg.hits,
            cache_misses=agg.misses,
            pipelines_run=agg.runs,
            samples_spent=agg.samples,
            queries_spent=agg.queries,
            wall_clock_s=time.perf_counter() - start,
            degraded=agg.degraded,
            probe_retries=agg.probe_retries,
            shard_retries=agg.shard_retries,
            hedges=agg.hedges,
            stale_served=self._count_stale(ordered),
        )

    def _run_threads(self, shards, nonces, w, strict) -> _ShardTotals:
        # The batch span's identity, captured once on the calling thread;
        # each shard adopts a slot-keyed child id so its pool-thread-local
        # subtree slots deterministically into the parent tree.
        parent_trace, parent_span = _obs.TRACER.current_ids()

        def serve_shard(shard, shard_nonce, slot):
            if parent_trace is not None:
                _obs.TRACER.adopt(parent_trace, f"{parent_span}.s{slot}")
            sampler = WeightedSampler(self._instance, table=self._alias_table)
            oracle = QueryOracle(self._instance)
            sampler, oracle = _wrap_access(
                sampler, oracle, self._fault_plan, self._retry_policy,
                ("shard", shard_nonce, 0), audit=self._audit,
            )
            sampler, oracle, _breaker = guard_access(
                sampler, oracle, self._breaker_cfg, ("shard", shard_nonce, 0)
            )
            lca = LCAKP(
                sampler,
                oracle,
                self._epsilon,
                self._seed,
                params=self._lca.params,
                tie_breaking=self._tie_breaking,
                large_item_mode=self._large_item_mode,
            )
            degraded = 0
            hit = False
            shard_span = None
            with _obs.span("serve.shard") as shard_span:
                try:
                    pipeline, hit = self.pipeline_for(shard_nonce, lca=lca)
                    answers = lca.answers_from(pipeline, shard)
                except _DEGRADABLE as exc:
                    if strict:
                        raise
                    answers = self._degrade(shard, exc)
                    degraded = len(shard)
            retries = getattr(sampler, "retries_used", 0)
            retries += getattr(oracle, "retries_used", 0)
            return (
                answers,
                sampler.cost_counter,
                oracle.cost_counter,
                getattr(sampler, "blocks_used", 0),
                hit,
                degraded,
                retries,
                shard_span,
            )

        with ThreadPoolExecutor(max_workers=w) as pool:
            results = list(pool.map(serve_shard, shards, nonces, range(w)))
        parent = _obs.TRACER.current()
        if parent is not None:
            for r in results:  # slot order => deterministic child order
                if r[7] is not None:
                    _obs.TRACER.graft(parent, r[7])
        hits = sum(1 for r in results if r[4])
        degraded = sum(r[5] for r in results)
        return _ShardTotals(
            answers=[r[0] for r in results],
            samples=sum(r[1] for r in results),
            queries=sum(r[2] for r in results),
            blocks=sum(r[3] for r in results),
            hits=hits,
            misses=w - hits,
            runs=sum(1 for r in results if not r[4] and not r[5]),
            degraded=degraded,
            probe_retries=sum(r[6] for r in results),
        )

    def _ensure_store(self) -> SharedInstanceStore:
        """Lazily lay the instance into shared memory (first process batch)."""
        if self._store is None or self._store.closed:
            self._store = SharedInstanceStore.create(
                self._instance, table=self._alias_table
            )
            self._owns_store = True
        return self._store

    def _chunk_payload(self, shard, shard_nonce, attempt, strict, slot):
        # Trace context crosses the process boundary as plain ids: the
        # child adopts (trace_id, "<batch-span>.s<slot>") so its subtree
        # slots into the parent tree at a deterministic position.
        trace_id, span_id = _obs.TRACER.current_ids()
        trace_ctx = None if trace_id is None else (trace_id, f"{span_id}.s{slot}")
        # Shared mode ships the O(1) handle; workers attach zero-copy.
        payload_instance = (
            self._ensure_store().handle if self._shared else self._instance
        )
        return (
            payload_instance,
            self._epsilon,
            self._seed,
            self._lca.params,
            self._tie_breaking,
            self._large_item_mode,
            shard_nonce,
            shard,
            self._fault_plan,
            self._retry_policy,
            attempt,
            strict,
            trace_ctx,
            self._audit_bounds,
            # Config only, never breaker *state*: each shard attempt
            # builds its own breaker in the child, because a circuit is
            # a per-process health verdict, not shared global state.
            self._breaker_cfg,
            # Timeline capture is opted into per chunk, like tracing.
            _obs.timeline_spec(),
        )

    def _merge_worker_obs(self, obs: dict | None, *, abandoned: bool = False) -> None:
        """Fold one shard attempt's shipped observability state into the
        parent runtime: registry (exact bucket-wise histogram merge),
        trace subtree (grafted under the current batch span), and flight
        events (re-stamped into the parent's total order).

        By default only winning attempts are merged, matching how losing
        cost bills are discarded.  Under ``merge_losers`` losing
        attempts arrive with ``abandoned=True``: their trace root is
        renamed with an ``.abandoned`` suffix and their events tagged,
        so abandoned work is visible but never mistakable for the
        serving path.
        """
        if not obs:
            return
        registry = obs.get("registry")
        if registry:
            _obs.REGISTRY.merge_state(registry)
        trace = obs.get("trace")
        if trace is not None:
            parent = _obs.TRACER.current()
            if parent is not None:
                root = span_from_payload(trace)
                if abandoned:
                    root.name = f"{root.name}.abandoned"
                _obs.TRACER.graft(parent, root)
        events = obs.get("events")
        if events:
            if abandoned:
                events = [
                    {**e, "attrs": {**(e.get("attrs") or {}), "abandoned": True}}
                    for e in events
                ]
            _obs.RECORDER.ingest(events)
        # Winners only: an abandoned attempt's trajectory would
        # double-count ticks the winning attempt already represents,
        # the same reason losing cost bills never reach the budget.
        timeline = obs.get("timeline")
        if timeline and not abandoned and _obs.TIMELINE is not None:
            _obs.TIMELINE.merge_state(timeline)

    def _absorb_loser(self, res: tuple) -> None:
        """Account one losing-but-completed shard attempt's telemetry.

        Its probe bill goes to the ``abandoned_*`` counters — *not* to
        ``samples_used``/``queries_used``, which stay reconciled with
        the budget — and its obs state merges tagged as abandoned."""
        self._abandoned_shards += 1
        self._abandoned_samples += int(res[1])
        self._abandoned_queries += int(res[2])
        self._abandoned_blocks += int(res[3])
        self._merge_worker_obs(
            res[6] if len(res) > 6 else None, abandoned=True
        )

    def _settle_round(self, owner: dict, *, escalate: bool) -> None:
        """End one requeue round on the persistent pools.

        Normally: cancel the attempts that never started, wait for the
        running ones, and retire any pool a dead worker broke.  After a
        watchdog expiry: terminate and retire every pool the round used.
        """
        if escalate:
            for pool in {id(p): p for p in owner.values()}.values():
                self._pools.retire(pool, terminate=True)
            return
        for fut in owner:
            fut.cancel()
        wait(list(owner))
        broken = {
            id(pool): pool
            for fut, pool in owner.items()
            if not fut.cancelled() and isinstance(fut.exception(), BrokenProcessPool)
        }
        for pool in broken.values():
            self._pools.retire(pool)

    def _run_process(self, shards, nonces, w, strict) -> _ShardTotals:
        """Submit shards to the service's process pool with requeue-on-death.

        The pool outlives the batch (see :class:`_WorkerPools`).  A dead
        worker breaks its whole pool, so a round that saw one retires
        that pool and the requeue round runs on its replacement; the
        failed shard is resubmitted with an incremented attempt index
        (its fault coins are attempt-keyed, so a requeue is a genuinely
        new roll, not a replay of its killer).  Hedged mode mirrors
        every submission into a second pool — first result wins,
        primaries break ties.  At the end of each round attempts that
        never started are cancelled and running ones are waited for, so
        every loser has settled before ``merge_losers`` harvests it.

        Under ``shard_deadline_s`` a stuck-shard watchdog bounds each
        shard's wait: an attempt that neither finishes nor dies in time
        is abandoned (``WatchdogTimeoutError``) and rides the same
        requeue path as a dead worker.  A round that fired the watchdog
        escalates instead of waiting — the round's pools are terminated
        and replaced, not joined — so a stall can never hold the batch
        hostage, and the parent (which owns any shared-memory segment)
        still unlinks on close: no segment leaks.
        """
        n_shards = len(shards)
        results: dict[int, tuple | None] = {}
        submissions = {k: 0 for k in range(n_shards)}
        requeues = {k: 0 for k in range(n_shards)}
        last_error: dict[int, Exception] = {}
        shard_retries = 0
        hedges = 0
        todo = list(range(n_shards))
        while todo:
            failed: list[int] = []
            watchdog_fired = False
            futures: dict[int, list] = {}
            owner: dict = {}  # future -> the pool it was submitted to
            winners: dict[int, object] = {}
            try:
                for k in todo:
                    subs = []
                    for lane in range(self._pools.lanes):
                        payload = self._chunk_payload(
                            shards[k], nonces[k], submissions[k], strict, k
                        )
                        pool, fut = self._pools.submit(lane, payload)
                        owner[fut] = pool
                        subs.append(fut)
                        submissions[k] += 1
                    if len(subs) > 1:
                        hedges += 1
                        _obs.record_hedges(1)
                        _obs.record_event("shard.hedge", shard=k, nonce=nonces[k])
                    futures[k] = subs
                for k in todo:
                    res, winner, err = _first_result(
                        futures[k], timeout_s=self._shard_deadline_s, shard=k
                    )
                    if err is None:
                        results[k] = res
                        winners[k] = winner
                    else:
                        if isinstance(err, WatchdogTimeoutError):
                            watchdog_fired = True
                            self._watchdog_timeouts += 1
                            _obs.REGISTRY.counter(
                                "overload.watchdog_timeouts"
                            ).inc()
                            _obs.record_event(
                                "overload.watchdog",
                                shard=k,
                                nonce=nonces[k],
                                deadline_s=self._shard_deadline_s,
                            )
                        last_error[k] = err
                        failed.append(k)
            finally:
                self._settle_round(owner, escalate=watchdog_fired)
            if self._merge_losers:
                # The round's futures are settled: losing attempts that
                # ran to completion (hedge runners-up, or late finishers
                # the winner beat) are harvestable; cancelled-before-start
                # ones are not — nothing ran.
                for k, subs in futures.items():
                    for fut in subs:
                        if fut is winners.get(k) or fut.cancelled():
                            continue
                        if fut.done() and fut.exception() is None:
                            self._absorb_loser(fut.result())
            todo = []
            for k in failed:
                if requeues[k] >= self._max_shard_retries:
                    if strict:
                        raise ShardFailureError(
                            k, submissions[k], last_error[k]
                        ) from last_error[k]
                    _obs.record_event(
                        "shard.failed",
                        shard=k,
                        nonce=nonces[k],
                        attempts=submissions[k],
                    )
                    results[k] = None
                else:
                    requeues[k] += 1
                    shard_retries += 1
                    _obs.record_shard_retries(1)
                    _obs.record_event(
                        "shard.requeue",
                        shard=k,
                        nonce=nonces[k],
                        attempt=requeues[k],
                    )
                    todo.append(k)
        answers: list = []
        samples = queries = blocks = degraded = retries = runs = 0
        self._worker_setup_s = []
        self._worker_memory = []
        for k in range(n_shards):
            res = results[k]
            if res is None:
                # Dead past requeue: degrade the shard in the parent.
                failure = ShardFailureError(k, submissions[k], last_error[k])
                answers.append(self._degrade(shards[k], failure))
                degraded += len(shards[k])
                continue
            answers.append(res[0])
            samples += res[1]
            queries += res[2]
            blocks += res[3]
            degraded += res[4]
            retries += res[5]
            obs_state = res[6] if len(res) > 6 else None
            self._merge_worker_obs(obs_state)
            if obs_state and "setup_s" in obs_state:
                self._worker_setup_s.append(float(obs_state["setup_s"]))
                self._worker_memory.append(obs_state.get("memory") or {})
            runs += 1
        # Child processes cannot see the parent cache: all misses.
        return _ShardTotals(
            answers=answers,
            samples=samples,
            queries=queries,
            blocks=blocks,
            hits=0,
            misses=w,
            runs=runs,
            degraded=degraded,
            probe_retries=retries,
            shard_retries=shard_retries,
            hedges=hedges,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready service counters (cache + cost + resilience)."""
        return {
            "samples_used": self.samples_used,
            "queries_used": self.queries_used,
            "blocks_used": self.blocks_used,
            "cost_counter": self.cost_counter,
            "retries_used": self.retries_used,
            "probe_hedges": self.probe_hedges_used,
            "degraded_total": self.degraded_total,
            "faults_injected": self.faults_injected,
            "abandoned_work": self.abandoned_work,
            "overload": {
                "deadline_shed": self._deadline_shed,
                "watchdog_timeouts": self._watchdog_timeouts,
                "breaker": self._breaker.stats()
                if self._breaker is not None
                else None,
            },
            "cache": self._cache.stats() if self._cache is not None else None,
            "shm": self.shm_stats(),
        }

    @property
    def worker_setup_s(self) -> list[float]:
        """Per-winning-shard access-setup seconds, most recent process batch.

        Covers segment attach (shared mode) or sampler construction
        (pickled mode) — the per-shard cost the shared tier makes O(1)."""
        return list(self._worker_setup_s)

    @property
    def worker_memory(self) -> list[dict]:
        """Per-winning-shard :func:`~repro.knapsack.shm.process_memory`
        snapshots, most recent process batch.

        A worker re-reads its memory only every
        :data:`MEMORY_SAMPLE_EVERY` chunks; each snapshot carries the
        worker's chunk ordinal it was read at (``chunk``) and how many
        chunks old it is (``age_chunks``)."""
        return list(self._worker_memory)

    def shm_stats(self) -> dict | None:
        """Shared-memory tier accounting, or ``None`` when not in use.

        ``worker_setup_s``/``worker_memory`` reflect the winning shards
        of the most recent process batch: with the tier on, setup is
        O(1) in n and per-worker *private* memory stays bounded by
        block-size working state, not by the instance (shared pages are
        excluded from ``private_kb``).
        """
        if not self._shared:
            return None
        out: dict = {
            "store": self._store.stats()
            if self._store is not None and not self._store.closed
            else None,
            "owns_store": self._owns_store,
        }
        if self._worker_setup_s:
            out["worker_setup_s"] = list(self._worker_setup_s)
            out["worker_memory"] = list(self._worker_memory)
        return out

    def close(self) -> None:
        """Shut the worker pools down, then release the shared-memory
        segment if this service owns one.

        Every worker is reaped before the segment is unlinked.
        Idempotent; the segment step is a no-op for non-shared services
        and for services given a caller-owned
        :class:`SharedInstanceStore`.  After close, the next process
        batch lazily creates a new pool (and, if owned, a new segment).
        """
        self._pools.shutdown()
        if self._store is not None and self._owns_store:
            self._store.close()
        if self._owns_store:
            self._store = None

    def __enter__(self) -> "KnapsackService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
