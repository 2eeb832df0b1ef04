"""KnapsackService: batching, caching, parallel sharding, accounting."""

import pytest

from repro.errors import ReproError
from repro.lca.base import LocalComputationAlgorithm
from repro.serve import KnapsackService, PipelineCache, derive_worker_nonce


@pytest.fixture()
def service(tiers_instance, fast_params):
    return KnapsackService(
        tiers_instance, fast_params.epsilon, seed=3, params=fast_params
    )


class TestSingleAnswers:
    def test_answer_fields(self, service, tiers_instance):
        ans = service.answer(4, nonce=9)
        assert ans.index == 4
        assert isinstance(ans.include, bool)
        assert ans.item.profit == tiers_instance.profit(4)
        assert ans.run.nonce == 9

    def test_repeat_nonce_hits_cache(self, service):
        service.answer(0, nonce=9)
        spent_before = service.samples_used
        service.answer(1, nonce=9)
        # A hit spends no weighted samples, only the point query.
        assert service.samples_used == spent_before
        assert service.cache.hits == 1

    def test_fresh_nonce_misses(self, service):
        service.answer(0)
        service.answer(0)
        assert service.cache.hits == 0
        assert service.cache.misses == 2

    def test_satisfies_lca_protocol(self, service):
        assert isinstance(service, LocalComputationAlgorithm)


class TestSerialBatch:
    def test_one_pipeline_per_batch(self, service):
        report = service.answer_batch(range(10), nonce=5)
        assert report.mode == "serial"
        assert report.pipelines_run == 1
        assert len(report.answers) == 10
        assert report.queries_spent == 10

    def test_cached_batch_spends_no_samples(self, service):
        service.answer_batch(range(10), nonce=5)
        report = service.answer_batch(range(10, 20), nonce=5)
        assert report.cache_hits == 1
        assert report.pipelines_run == 0
        assert report.samples_spent == 0

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ReproError):
            service.answer_batch([])

    def test_answer_many_protocol_face(self, service):
        out = service.answer_many([0, 1, 2], nonce=5)
        assert out == [a.include for a in service.answer_batch([0, 1, 2], nonce=5).answers]

    def test_report_throughput_fields(self, service):
        report = service.answer_batch(range(10), nonce=5)
        assert report.wall_clock_s > 0
        assert report.queries_per_sec > 0
        d = report.to_dict()
        assert d["queries"] == 10
        assert d["mode"] == "serial"


class TestParallelBatch:
    def test_preserves_request_order(self, service):
        indices = list(range(30))
        report = service.answer_batch(indices, nonce=5, workers=3)
        assert report.mode == "thread"
        assert report.workers == 3
        assert [a.index for a in report.answers] == indices

    def test_one_pipeline_per_shard(self, service):
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.pipelines_run == 3

    def test_shard_nonces_are_derived(self, service):
        report = service.answer_batch(range(30), nonce=5, workers=3)
        expected = {derive_worker_nonce(service.seed, 5, w) for w in range(3)}
        assert {a.run.nonce for a in report.answers} == expected

    def test_shard_accounting_rolls_up(self, service):
        before = service.samples_used
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.samples_spent > 0
        assert service.samples_used == before + report.samples_spent

    def test_repeat_parallel_batch_hits_cache(self, service):
        service.answer_batch(range(30), nonce=5, workers=3)
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.cache_hits == 3
        assert report.samples_spent == 0

    def test_worker_nonces_deterministic(self, service):
        a = derive_worker_nonce(service.seed, 5, 0)
        b = derive_worker_nonce(service.seed, 5, 0)
        assert a == b
        assert a != derive_worker_nonce(service.seed, 5, 1)
        assert a != derive_worker_nonce(service.seed, 6, 0)


class TestProcessExecutor:
    def test_process_batch_matches_thread_batch(self, tiers_instance, fast_params):
        kwargs = dict(seed=3, params=fast_params)
        thread_svc = KnapsackService(
            tiers_instance, fast_params.epsilon, executor="thread", **kwargs
        )
        process_svc = KnapsackService(
            tiers_instance, fast_params.epsilon, executor="process", **kwargs
        )
        t = thread_svc.answer_batch(range(20), nonce=5, workers=2)
        p = process_svc.answer_batch(range(20), nonce=5, workers=2)
        assert [a.include for a in t.answers] == [a.include for a in p.answers]
        assert p.mode == "process"
        # The child's bill crossed the process boundary.
        assert p.samples_spent > 0
        assert process_svc.samples_used == p.samples_spent

    def test_unknown_executor_rejected(self, tiers_instance, fast_params):
        with pytest.raises(ReproError):
            KnapsackService(
                tiers_instance, fast_params.epsilon, executor="fiber"
            )


class TestSharedCache:
    def test_two_services_share_one_cache(self, tiers_instance, fast_params):
        shared = PipelineCache(capacity=8)
        a = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=shared
        )
        b = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=shared
        )
        a.answer(0, nonce=9)
        before = b.samples_used
        b.answer(1, nonce=9)  # b reuses a's pipeline
        assert b.samples_used == before
        assert shared.hits == 1

    def test_cache_disabled(self, tiers_instance, fast_params):
        svc = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=False
        )
        assert svc.cache is None
        svc.answer(0, nonce=9)
        before = svc.samples_used
        svc.answer(1, nonce=9)
        assert svc.samples_used > before  # pipeline re-ran

    def test_stats_shape(self, service):
        service.answer(0, nonce=9)
        stats = service.stats()
        assert stats["samples_used"] > 0
        assert stats["queries_used"] == 1
        assert stats["cache"]["misses"] == 1


class TestSharedAliasTable:
    """Thread shards reuse the service's alias table instead of
    rebuilding an O(n) one per shard per batch (answers stay equal to a
    serial replay: see ``test_invariance.py``)."""

    def test_thread_batch_builds_no_alias_table(
        self, tiers_instance, fast_params, monkeypatch
    ):
        from repro.access.weighted_sampler import AliasTable

        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False
        )
        builds = []
        init = AliasTable.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AliasTable, "__init__", counting)
        svc.answer_batch(list(range(0, 60, 3)), nonce=31, workers=2)
        svc.answer_batch(list(range(0, 60, 3)), nonce=32, workers=3)
        assert builds == []

    def test_zero_profit_instance_is_rejected_at_construction(self, fast_params):
        from repro.errors import OracleError
        from repro.knapsack.instance import KnapsackInstance

        zero = KnapsackInstance([0.0, 0.0, 0.0], [0.1, 0.2, 0.3], 1.0, normalize=False)
        with pytest.raises(OracleError):
            KnapsackService(zero, 0.1, params=fast_params)
