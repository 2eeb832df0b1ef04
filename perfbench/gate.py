"""Correctness gate: replay sampled requests on a fresh serial LCA.

A run's answer is a deterministic function of (instance, seed, nonce,
params), so a fresh :class:`~repro.core.LCAKP` over its own
``WeightedSampler``/``QueryOracle`` must reproduce every served answer
bit for bit.  Process shards ran under ``derive_worker_nonce`` nonces
and their answers were re-interleaved into request order; the replay
does the same.
"""

from __future__ import annotations

from loop import Requests, _answer_key, workload_rng


def replay(instance, epsilon: float, seed: int, params, workers: int,
           reqs: Requests, sample: dict) -> set:
    """Request numbers in ``sample`` whose served answers differ from a
    serial replay (compared on ``include`` and ``run.signature_hash``)."""
    from repro.access.oracle import QueryOracle
    from repro.access.seeds import SeedChain
    from repro.access.weighted_sampler import WeightedSampler
    from repro.core.lca_kp import LCAKP
    from repro.serve import derive_worker_nonce

    chain = SeedChain(seed)
    lca = LCAKP(
        WeightedSampler(instance), QueryOracle(instance), epsilon, chain,
        params=params,
    )
    pipelines: dict = {}

    def pipeline(nonce: int):
        if nonce not in pipelines:
            pipelines[nonce] = lca.run_pipeline(nonce=nonce)
        return pipelines[nonce]

    wrong = set()
    for i in sorted(sample):
        idx = reqs.indices[i].tolist()
        base = int(reqs.nonces[i])
        w = min(workers, len(idx)) if workers > 1 else 1
        expected: list = [None] * len(idx)
        for k in range(w):
            nonce = base if w == 1 else derive_worker_nonce(chain, base, k)
            answers = lca.answers_from(pipeline(nonce), idx[k::w])
            for j, ans in enumerate(answers):
                expected[k + j * w] = _answer_key(ans)
        if expected != sample[i]:
            wrong.add(i)
    return wrong


def sample_ids(name: str, seed: int, count: int, size: int) -> frozenset:
    """The seeded subset of open-loop request numbers the gate replays."""
    rng = workload_rng(name, seed, "gate")
    return frozenset(
        int(i) for i in rng.choice(count, size=min(size, count), replace=False)
    )

