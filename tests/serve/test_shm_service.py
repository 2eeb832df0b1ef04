"""Service-level shared-memory tier: parity, lifecycle, fault safety.

The tier's acceptance bar: process batches answer bit-identically
whether shards received the pickled instance or a shared handle, the
service's lazily-created segment is unlinked exactly once, and a
worker killed mid-batch (fault-plan ``shard_kill``) leaks no segments
— workers never own them, and the requeued round re-attaches.
"""

import pytest

from repro.errors import ReproError
from repro.knapsack.shm import SharedInstanceStore, orphaned_system_segments
from repro.obs import runtime as rt
from repro.serve import KnapsackService

INDICES = list(range(0, 60, 3))
NONCE = 31


def _counter(name):
    return rt.snapshot()["counters"].get(name, 0)


def _answers(svc):
    report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    return [(a.index, a.include) for a in report.answers]


@pytest.mark.slow
class TestSharedServiceParity:
    def test_shm_answers_bit_identical_to_pickled(self, tiers_instance, fast_params):
        pickled = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process",
        )
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
        ) as shared:
            assert _answers(shared) == _answers(pickled)
            assert shared.samples_used == pickled.samples_used
            assert shared.queries_used == pickled.queries_used

    def test_worker_telemetry_populated(self, tiers_instance, fast_params):
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
        ) as svc:
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            assert svc.worker_setup_s and all(s >= 0 for s in svc.worker_setup_s)
            assert svc.worker_memory and all(
                m["rss_kb"] > 0 for m in svc.worker_memory
            )
            shm = svc.stats()["shm"]
            assert shm["owns_store"] and shm["store"]["n"] == tiers_instance.n

    def test_worker_kill_requeues_without_leaking(self, tiers_instance, fast_params):
        from repro.faults import FaultPlan

        created0 = _counter("shm.segments_created")
        unlinked0 = _counter("shm.segments_unlinked")
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
            fault_plan=FaultPlan(seed=3, shard_kill_rate=0.5),
            max_shard_retries=8, strict=False,
        ) as svc:
            report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            assert len(report.answers) == len(INDICES)
            assert _counter("serve.shard_retries") > 0  # kills actually fired
        assert _counter("shm.segments_created") - created0 == 1
        assert _counter("shm.segments_unlinked") - unlinked0 == 1
        assert orphaned_system_segments() == []


@pytest.mark.slow
def test_caller_owned_store_shared_between_services(tiers_instance, fast_params):
    with SharedInstanceStore.create(tiers_instance) as store:
        for seed in (42, 43):
            svc = KnapsackService(
                tiers_instance, 0.1, seed=seed, params=fast_params,
                cache=False, executor="process", shared_instance=store,
            )
            svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
            svc.close()  # must NOT unlink the caller's store
            assert not store.closed
            assert not svc.stats()["shm"]["owns_store"]
    assert orphaned_system_segments() == []


def test_shared_instance_requires_explicit_instance():
    class Implicit:
        n = 100
        capacity = 1.0

        def profit(self, i):
            return 1.0 / self.n

        def weight(self, i):
            return 1.0 / self.n

    with pytest.raises(ReproError, match="explicit KnapsackInstance"):
        KnapsackService(Implicit(), 0.1, shared_instance=True)


def test_thread_executor_ignores_shared_store(tiers_instance, fast_params):
    """Thread shards share memory natively; no segment is ever created."""
    created0 = _counter("shm.segments_created")
    with KnapsackService(
        tiers_instance, 0.1, seed=42, params=fast_params,
        cache=False, executor="thread", shared_instance=True,
    ) as svc:
        svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
    assert _counter("shm.segments_created") == created0


def test_close_is_idempotent(tiers_instance, fast_params):
    svc = KnapsackService(
        tiers_instance, 0.1, seed=42, params=fast_params,
        cache=False, executor="process", shared_instance=True,
    )
    svc.close()
    svc.close()
    assert svc.shm_stats()["store"] is None


class TestStoreReusesServiceTable:
    def test_shared_setup_builds_one_alias_table(
        self, tiers_instance, fast_params, monkeypatch
    ):
        from repro.access.weighted_sampler import AliasTable

        builds = []
        init = AliasTable.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AliasTable, "__init__", counting)
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
        ) as svc:
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            store = svc.stats()["shm"]["store"]
            assert store is not None
        assert len(builds) == 1  # the service's; the segment copies it
        assert orphaned_system_segments() == []

    def test_zero_profit_instance_is_rejected_at_store_creation(self):
        from repro.errors import OracleError
        from repro.knapsack.instance import KnapsackInstance

        zero = KnapsackInstance([0.0, 0.0, 0.0], [0.1, 0.2, 0.3], 1.0, normalize=False)
        created = _counter("shm.segments_created")
        with pytest.raises(OracleError):
            SharedInstanceStore.create(zero)
        assert _counter("shm.segments_created") == created
        assert orphaned_system_segments() == []
