"""Tests for shard requeue and shard-level degradation.

Process-pool shards are killed via seeded, attempt-keyed coins
(``FaultPlan.shard_kill``), so kill-then-recover is a deterministic
scenario, not a flaky one: with ``shard_kill_rate=1.0`` and
``shard_kill_attempts=1`` every shard's first attempt dies and every
requeue survives.
"""

import pytest

from repro.errors import ShardFailureError
from repro.faults import FaultPlan
from repro.obs import runtime as rt
from repro.serve import KnapsackService

INDICES = list(range(0, 60, 3))


def service(instance, params, **kw):
    kw.setdefault("cache", False)
    return KnapsackService(
        instance, 0.1, seed=42, params=params, executor="process", **kw
    )


@pytest.mark.slow
class TestRequeue:
    def test_killed_workers_are_requeued_and_batch_completes(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        svc = service(tiers_instance, fast_params, fault_plan=kill_plan)
        report = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert len(report.answers) == len(INDICES)
        assert report.shard_retries >= 1
        assert report.degraded == 0  # recovered honestly, not degraded

    def test_recovered_answers_match_thread_executor(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        killed = service(tiers_instance, fast_params, fault_plan=kill_plan)
        threaded = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False
        )
        got = killed.answer_batch(INDICES, nonce=31, workers=2)
        want = threaded.answer_batch(INDICES, nonce=31, workers=2)
        assert [a.index for a in got.answers] == [a.index for a in want.answers]
        assert [a.include for a in got.answers] == [a.include for a in want.answers]

    def test_exhausted_retries_degrade_the_shard(
        self, tiers_instance, fast_params
    ):
        # Kill every attempt: with retries exhausted a non-strict batch
        # still completes, serving the dead shards off the ladder.
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=64)
        svc = service(
            tiers_instance, fast_params, fault_plan=kill_plan,
            strict=False, max_shard_retries=1,
        )
        report = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert len(report.answers) == len(INDICES)
        assert report.degraded == len(INDICES)
        assert {a.reason_code for a in report.answers} == {"shard-failure"}
        assert report.availability == 0.0

    def test_exhausted_retries_raise_when_strict(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=64)
        svc = service(
            tiers_instance, fast_params, fault_plan=kill_plan,
            strict=True, max_shard_retries=1,
        )
        with pytest.raises(ShardFailureError):
            svc.answer_batch(INDICES, nonce=31, workers=2)


def billed_counters() -> tuple[int, int]:
    counters = rt.snapshot()["counters"]
    return counters.get("sampler.samples", 0), counters.get("oracle.queries", 0)


@pytest.mark.slow
class TestWinnersOnlyBilling:
    @pytest.mark.parametrize("kill_rate", [0.0, 1.0], ids=["clean", "killed"])
    def test_registry_delta_equals_the_bill(
        self, tiers_instance, fast_params, kill_rate
    ):
        # A killed attempt ships nothing home: the merged registry counts
        # exactly the work the batch report bills, requeue or not.
        plan = FaultPlan(seed=5, shard_kill_rate=kill_rate, shard_kill_attempts=1)
        svc = service(tiers_instance, fast_params, fault_plan=plan)
        before = billed_counters()
        report = svc.answer_batch(INDICES, nonce=31, workers=2)
        after = billed_counters()
        assert report.shard_retries == (2 if kill_rate else 0)
        assert report.samples_spent > 0
        assert (after[0] - before[0], after[1] - before[1]) == (
            report.samples_spent, report.queries_spent,
        )

