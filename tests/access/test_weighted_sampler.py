"""Tests for profit-proportional sampling (the IKY12 access model)."""

import numpy as np
import pytest

from repro.access.weighted_sampler import AliasTable, CustomSampler, WeightedSampler
from repro.errors import OracleError, QueryBudgetExceededError
from repro.knapsack.instance import KnapsackInstance


@pytest.fixture()
def inst():
    return KnapsackInstance([0.5, 0.3, 0.2], [0.1, 0.2, 0.3], 0.5, normalize=False)


class TestAliasTable:
    def test_distribution_matches(self):
        p = np.array([0.5, 0.3, 0.2])
        table = AliasTable(p)
        rng = np.random.default_rng(0)
        draws = table.draw_many(200_000, rng)
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freq, p, atol=0.01)

    def test_scalar_and_batch_agree_in_law(self):
        p = np.array([0.1, 0.9])
        table = AliasTable(p)
        rng = np.random.default_rng(1)
        singles = np.array([table.draw(rng) for _ in range(50_000)])
        assert abs(singles.mean() - 0.9) < 0.01

    def test_unnormalized_input(self):
        table = AliasTable([5.0, 15.0])
        rng = np.random.default_rng(2)
        draws = table.draw_many(50_000, rng)
        assert abs(draws.mean() - 0.75) < 0.01

    def test_zero_probability_never_drawn(self):
        table = AliasTable([0.0, 1.0, 0.0])
        rng = np.random.default_rng(3)
        assert set(table.draw_many(10_000, rng)) == {1}

    def test_degenerate_single_atom(self):
        table = AliasTable([1.0])
        assert table.draw(np.random.default_rng(0)) == 0

    def test_invalid_inputs(self):
        with pytest.raises(OracleError):
            AliasTable([])
        with pytest.raises(OracleError):
            AliasTable([-0.1, 1.0])
        with pytest.raises(OracleError):
            AliasTable([0.0, 0.0])


class TestWeightedSampler:
    def test_samples_carry_attributes(self, inst):
        ws = WeightedSampler(inst)
        s = ws.sample(np.random.default_rng(0))
        assert s.item.profit == inst.profit(s.index)
        assert s.item.weight == inst.weight(s.index)
        assert s.efficiency == pytest.approx(s.profit / s.weight)

    def test_profit_proportional_law(self, inst):
        ws = WeightedSampler(inst)
        rng = np.random.default_rng(1)
        samples = ws.sample_many(100_000, rng)
        freq = np.bincount([s.index for s in samples], minlength=3) / 100_000
        assert np.allclose(freq, [0.5, 0.3, 0.2], atol=0.01)

    def test_accounting_and_budget(self, inst):
        ws = WeightedSampler(inst, budget=10)
        rng = np.random.default_rng(0)
        ws.sample_many(8, rng)
        assert ws.samples_used == 8
        ws.sample(rng)
        ws.sample(rng)
        with pytest.raises(QueryBudgetExceededError):
            ws.sample(rng)
        ws.reset()
        assert ws.samples_used == 0

    def test_batch_budget_checked_upfront(self, inst):
        ws = WeightedSampler(inst, budget=5)
        with pytest.raises(QueryBudgetExceededError):
            ws.sample_many(6, np.random.default_rng(0))

    def test_zero_profit_items_never_sampled(self):
        inst = KnapsackInstance([0.0, 1.0], [0.1, 0.1], 0.2, normalize=False)
        ws = WeightedSampler(inst)
        samples = ws.sample_many(5000, np.random.default_rng(0))
        assert {s.index for s in samples} == {1}

    def test_requires_positive_total_profit(self):
        inst = KnapsackInstance([0.0], [0.1], 0.2, normalize=False)
        with pytest.raises(OracleError):
            WeightedSampler(inst)

    def test_metadata(self, inst):
        ws = WeightedSampler(inst)
        assert ws.n == 3
        assert ws.capacity == 0.5
        assert ws.budget is None

    def test_prebuilt_table_skips_the_profit_sum(self, inst, monkeypatch):
        import repro.access.weighted_sampler as ws

        table = AliasTable(inst.profits)

        def no_sum(*args, **kwargs):
            raise AssertionError("O(n) profit sum with a prebuilt table")

        monkeypatch.setattr(ws.np, "sum", no_sum)
        sampler = WeightedSampler(inst, table=table)
        assert sampler.table is table


class TestCustomSampler:
    def test_custom_law(self, inst):
        # Deterministic index law: always item 2.
        cs = CustomSampler(inst, lambda rng: 2)
        s = cs.sample(np.random.default_rng(0))
        assert s.index == 2 and s.profit == 0.2
        assert cs.samples_used == 1

    def test_out_of_range_law_rejected(self, inst):
        cs = CustomSampler(inst, lambda rng: 7)
        with pytest.raises(OracleError):
            cs.sample(np.random.default_rng(0))

    def test_budget(self, inst):
        cs = CustomSampler(inst, lambda rng: 0, budget=2)
        rng = np.random.default_rng(0)
        cs.sample_many(2, rng)
        with pytest.raises(QueryBudgetExceededError):
            cs.sample(rng)
