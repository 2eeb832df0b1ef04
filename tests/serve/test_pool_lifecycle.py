"""The process executor's persistent worker pool.

A service builds its pool on the first process batch and keeps it: the
same workers serve every later batch, so their segment attachment and
page tables stay warm.  The pool is replaced only when a worker dies or
the watchdog escalates, and ``close()`` (or garbage collection of a
service nobody closed) reaps every worker — before the segment is
unlinked, and leaving no ``repro-shm-*`` entry behind.
"""

import gc
import multiprocessing

import pytest

import repro.serve.service as service_mod
from repro.faults import FaultPlan
from repro.knapsack.shm import orphaned_system_segments
from repro.serve import KnapsackService

INDICES = list(range(0, 60, 3))
KILL = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
STALL = FaultPlan(seed=5, shard_stall_rate=1.0, shard_stall_s=2.0,
                  shard_stall_attempts=1)


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as dead)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def pool_count(monkeypatch):
    """Counts executors built through the service module's binding."""
    built = []
    real = service_mod.ProcessPoolExecutor

    def counting(*args, **kwargs):
        pool = real(*args, **kwargs)
        built.append(pool)
        return pool

    monkeypatch.setattr(service_mod, "ProcessPoolExecutor", counting)
    return built


def process_service(instance, params, **kw):
    kw.setdefault("cache", False)
    return KnapsackService(
        instance, 0.1, seed=42, params=params, executor="process", **kw
    )


def includes(report):
    return [(a.index, a.include) for a in report.answers]


def thread_answers(instance, params, nonce=31):
    svc = KnapsackService(instance, 0.1, seed=42, params=params, cache=False)
    return includes(svc.answer_batch(INDICES, nonce=nonce, workers=2))


@pytest.mark.slow
class TestPersistentPool:
    def test_five_batches_share_one_pool_and_its_workers(
        self, tiers_instance, fast_params, pool_count
    ):
        before = child_pids()
        with process_service(
            tiers_instance, fast_params, shared_instance=True, max_workers=2
        ) as svc:
            workers = None
            for nonce in range(31, 36):
                report = svc.answer_batch(INDICES, nonce=nonce, workers=2)
                assert report.shard_retries == 0
                if workers is None:
                    workers = child_pids() - before
                assert child_pids() - before == workers
                if nonce == 31:
                    assert includes(report) == thread_answers(
                        tiers_instance, fast_params, nonce
                    )
            assert len(pool_count) == 1
            assert len(workers) == 2
            assert all(alive(pid) for pid in workers)

    def test_warm_worker_reports_sampled_memory(
        self, tiers_instance, fast_params
    ):
        with process_service(
            tiers_instance, fast_params, shared_instance=True, max_workers=1
        ) as svc:
            ages = []
            for nonce in range(3):
                svc.answer_batch(INDICES, nonce=nonce, workers=2)
                for mem in svc.worker_memory:
                    assert mem["rss_kb"] > 0
                    assert mem["chunk"] % service_mod.MEMORY_SAMPLE_EVERY == 0
                    ages.append(mem["age_chunks"])
            # One worker served all six chunks; memory was read on the first.
            assert ages == [0, 1, 2, 3, 4, 5]

    def test_shard_kill_recycles_the_pool(
        self, tiers_instance, fast_params, pool_count
    ):
        before = child_pids()
        svc = process_service(
            tiers_instance, fast_params, fault_plan=KILL, max_workers=2
        )
        try:
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            assert report.shard_retries >= 1 and report.degraded == 0
            assert len(pool_count) >= 2  # the broken pool was replaced
            assert includes(report) == thread_answers(tiers_instance, fast_params)
            # Only the replacement's workers are left.
            assert 0 < len(child_pids() - before) <= 2
        finally:
            svc.close()

    def test_watchdog_escalation_recycles_the_pool(
        self, tiers_instance, fast_params, pool_count
    ):
        before = child_pids()
        svc = process_service(
            tiers_instance, fast_params, fault_plan=STALL, shard_deadline_s=0.75,
            max_workers=2,
        )
        try:
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            assert svc.stats()["overload"]["watchdog_timeouts"] >= 1
            assert report.degraded == 0
            assert includes(report) == thread_answers(tiers_instance, fast_params)
            assert len(pool_count) == 2
            # The wedged workers were terminated and reaped; only the
            # replacement's workers are left.
            assert 0 < len(child_pids() - before) <= 2
        finally:
            svc.close()

    def test_close_reaps_workers_before_unlinking(
        self, tiers_instance, fast_params
    ):
        before = child_pids()
        svc = process_service(tiers_instance, fast_params, shared_instance=True)
        svc.answer_batch(INDICES, nonce=31, workers=2)
        workers = child_pids() - before
        assert workers
        store = svc._store
        unlink = store.close
        alive_at_unlink = []

        def spy():
            alive_at_unlink.extend(pid for pid in workers if alive(pid))
            unlink()

        store.close = spy
        svc.close()
        assert alive_at_unlink == []
        assert not any(alive(pid) for pid in workers)
        assert not (child_pids() & workers)
        assert orphaned_system_segments() == []

    def test_dropped_service_leaves_no_live_worker(
        self, tiers_instance, fast_params
    ):
        before = child_pids()
        svc = process_service(tiers_instance, fast_params, shared_instance=True)
        svc.answer_batch(INDICES, nonce=31, workers=2)
        workers = child_pids() - before
        assert workers
        del svc
        gc.collect()
        assert not any(alive(pid) for pid in workers)
        assert orphaned_system_segments() == []

    def test_batch_after_close_builds_a_new_pool(
        self, tiers_instance, fast_params, pool_count
    ):
        svc = process_service(tiers_instance, fast_params, shared_instance=True)
        first = includes(svc.answer_batch(INDICES, nonce=31, workers=2))
        svc.close()
        second = includes(svc.answer_batch(INDICES, nonce=31, workers=2))
        svc.close()
        assert first == second
        assert len(pool_count) == 2
        assert orphaned_system_segments() == []
