"""Outside-in layer tracing for the traced run.

Each wrapper replaces one public function of a layer (a class attribute
or a module binding), times and counts its calls, and keeps the samples
in memory.  Nothing inside ``src/`` changes.  Wrapped calls nest on the
one dispatch thread, so a call's self time is its duration minus the
durations of the wrapped calls made inside it.

Patches live only in this process.  Process-pool workers report through
what the service already exposes (``worker_setup_s``, ``worker_memory``
and the ``serve.shard`` spans its tracer ships home).
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict


def _targets():
    """(owner, attribute, layer name) for every wrapped function."""
    import repro.core.lca_kp as lca_kp
    import repro.serve.service as service
    from repro.access.oracle import QueryOracle
    from repro.access.seeds import SeedChain
    from repro.access.weighted_sampler import AliasTable, WeightedSampler
    from repro.core.lca_kp import LCAKP, PipelineResult
    from repro.knapsack.shm import SharedInstanceStore
    from repro.reproducible.rquantile import ReproducibleQuantileEstimator
    from repro.serve.cache import PipelineCache

    return [
        (service.KnapsackService, "answer_batch", "service.answer_batch"),
        (service.KnapsackService, "cache_key", "cache.key"),
        (PipelineCache, "get", "cache.get"),
        (PipelineCache, "put", "cache.put"),
        (LCAKP, "run_pipeline", "lca.run_pipeline"),
        (LCAKP, "answers_from", "lca.answers_from"),
        (PipelineResult, "summary", "lca.summary"),
        (WeightedSampler, "sample_block", "sampler.sample_block"),
        (WeightedSampler, "__init__", "sampler.init"),
        (AliasTable, "__init__", "sampler.alias_build"),
        (SeedChain, "rng", "seeds.rng"),
        (QueryOracle, "query_block", "oracle.query_block"),
        (ReproducibleQuantileEstimator, "quantiles", "rquantile.quantiles"),
        # Timed at the bindings LCAKP calls them through.
        (lca_kp, "build_simplified_instance", "greedy.simplified"),
        (lca_kp, "convert_greedy", "greedy.convert"),
        (SharedInstanceStore, "create", "shm.create"),
        (service, "ProcessPoolExecutor", "pool.create"),
    ]


class LayerTrace:
    """Installable set of timing wrappers plus a GC pause recorder."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.gc_pauses: list[tuple[int, float]] = []  # (generation, seconds)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._timed(name, raw.__func__))
            else:
                patched = self._timed(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def reset(self) -> None:
        """Drop every sample recorded so far."""
        self.durations.clear()
        self.self_times.clear()
        self.gc_pauses.clear()

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn):
        stack = self._stack
        durations = self.durations
        self_times = self.self_times
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in wrapped calls nested in this one
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                durations[name].append(elapsed)
                self_times[name].append(elapsed - frame[0])

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(
                (info["generation"], time.perf_counter() - self._gc_start)
            )

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))
