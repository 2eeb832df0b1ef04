"""Deterministic time-series sampling: the ``timeline/v1`` plane.

Everything the observability stack records today is an end-of-run
aggregate — counters, histograms, a flight-recorder event stream.  The
paper's claims, though, are *trajectory* claims: brownout levels step
up and back down as queueing pressure crosses the controller's
hysteresis bands, breaker state flips as failures accumulate, and the
Section 3 impossibility results bite exactly *when* the queue outruns
the worker pool.  :class:`TimelineSampler` captures that trajectory as
a bounded ring of tick samples:

* **counter deltas** — what changed in the
  :class:`~repro.obs.metrics.MetricsRegistry` since the previous tick
  (only non-zero deltas are stored, so an idle registry costs nothing);
* **gauge levels** — current values of every registered gauge;
* **governor state** — queue depth, head-of-queue wait, inflight
  workers, brownout level, breaker state, and the cumulative
  offered/completed/dropped/degraded ledgers the availability story is
  told from.

Two clock regimes, same discipline as ``bench-load/v1``:

* ``clock="virtual"`` — ticks sit on a fixed grid of virtual seconds
  (``tick_s``) inside the discrete-event simulation, so a timeline is a
  pure function of the seeds and replays **byte-identically** (the CI
  ``cmp`` contract).
* ``clock="wall"`` — ticks fire on a wall interval in live runs (the
  load harness's asyncio sampler, the NDJSON endpoint's background
  task, ``repro top``'s poll loop).

**Shard-local capture.**  The parent ships its active sampler's
:meth:`spec` (or ``None``) in every shard chunk's payload;
:func:`~repro.obs.runtime.reset_worker_runtime` builds a fresh sampler
from it for that chunk (or none), the worker captures locally from
zero, and the parent folds the shipped :meth:`state` back with
:meth:`merge_state` —
winners only, through the same ``obs_state`` path that merges the
registry and trace (losing shard attempts are dropped, exactly like
their cost bills).  Merge semantics per tick index: counter deltas and
occupancy counts **add**, brownout level and gauges take the **max**,
breaker state takes the **worst** — so K shard timelines merge into
the timeline one process observing all K streams would have recorded.
"""

from __future__ import annotations

from collections import deque

from ..errors import ReproError

__all__ = ["TIMELINE_SCHEMA", "TimelineSampler", "merge_timeline_states"]

TIMELINE_SCHEMA = "timeline/v1"

#: Worst-first ordering for breaker state merges.
_BREAKER_RANK = {None: 0, "closed": 1, "half_open": 2, "open": 3}

_CLOCK_DEFAULT_TICK_S = {"virtual": 0.05, "wall": 0.25}


def _merge_samples(into: dict, other: dict) -> None:
    """Fold one shard's tick sample into ``into`` (same tick index)."""
    counters = into["counters"]
    for name, delta in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + int(delta)
    gauges = into["gauges"]
    for name, value in other.get("gauges", {}).items():
        value = float(value)
        if name not in gauges or value > gauges[name]:
            gauges[name] = value
    for key in ("queue_depth", "inflight", "offered", "completed",
                "dropped", "degraded"):
        into[key] = int(into.get(key, 0)) + int(other.get(key, 0))
    into["queue_wait_ms"] = round(
        max(float(into.get("queue_wait_ms", 0.0)),
            float(other.get("queue_wait_ms", 0.0))),
        4,
    )
    into["brownout_level"] = max(
        int(into.get("brownout_level", 0)), int(other.get("brownout_level", 0))
    )
    if _BREAKER_RANK.get(other.get("breaker_state"), 0) > _BREAKER_RANK.get(
        into.get("breaker_state"), 0
    ):
        into["breaker_state"] = other["breaker_state"]
    into["t"] = round(max(float(into.get("t", 0.0)), float(other.get("t", 0.0))), 9)


class TimelineSampler:
    """A bounded ring of tick samples over one run.

    Parameters
    ----------
    clock:
        ``"virtual"`` (deterministic grid) or ``"wall"`` (live interval).
    tick_s:
        Grid spacing (virtual seconds) or sampling interval (wall
        seconds).  Defaults per clock: 0.05 virtual, 0.25 wall.
    capacity:
        Ring bound; when full, the *oldest* tick is evicted and counted
        in ``dropped_ticks`` — the ring keeps the most recent window,
        honestly labelled, never silently truncated.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to diff on
        every tick.  ``None`` records governor state only (the virtual
        harness passes the global registry; its counters only move
        between runs, so virtual deltas stay empty and byte-stable).
    """

    def __init__(
        self,
        *,
        clock: str = "virtual",
        tick_s: float | None = None,
        capacity: int = 512,
        registry=None,
    ) -> None:
        if clock not in ("virtual", "wall"):
            raise ReproError(f"clock must be 'wall' or 'virtual', got {clock!r}")
        if tick_s is None:
            tick_s = _CLOCK_DEFAULT_TICK_S[clock]
        if tick_s <= 0:
            raise ReproError(f"tick_s must be > 0, got {tick_s}")
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.tick_s = float(tick_s)
        self.capacity = int(capacity)
        self._registry = registry
        self._ring: deque[dict] = deque()
        self._seq = 0
        self._dropped = 0
        self._prev_counters: dict[str, int] = (
            dict(registry.counter_values()) if registry is not None else {}
        )

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Ticks currently held in the ring."""
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Ticks evicted because the ring was full."""
        return self._dropped

    def fresh(self) -> "TimelineSampler":
        """An empty sampler with this one's configuration and registry."""
        return TimelineSampler(**self.spec(), registry=self._registry)

    def spec(self) -> dict:
        """Picklable configuration (clock, grid, ring bound) — what a
        shard worker needs to build its own empty sampler."""
        return {"clock": self.clock, "tick_s": self.tick_s, "capacity": self.capacity}

    # ------------------------------------------------------------------
    def tick(
        self,
        t: float,
        *,
        queue_depth: int = 0,
        queue_wait_s: float = 0.0,
        inflight: int = 0,
        brownout_level: int = 0,
        breaker_state: str | None = None,
        offered: int = 0,
        completed: int = 0,
        dropped: int = 0,
        degraded: int = 0,
    ) -> dict:
        """Record one tick at time ``t`` (seconds since the run began).

        Counter deltas against the previous tick come from the attached
        registry; everything else is governor state the caller observed.
        Returns the recorded sample.
        """
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        if self._registry is not None:
            current = self._registry.counter_values()
            for name, value in current.items():
                delta = value - self._prev_counters.get(name, 0)
                if delta:
                    counters[name] = delta
            self._prev_counters = current
            gauges = {
                name: value
                for name, value in self._registry.gauge_values().items()
                if value
            }
        sample = {
            "tick": self._seq,
            "t": round(float(t), 9),
            "counters": counters,
            "gauges": gauges,
            "queue_depth": int(queue_depth),
            "queue_wait_ms": round(float(queue_wait_s) * 1e3, 4),
            "inflight": int(inflight),
            "brownout_level": int(brownout_level),
            "breaker_state": breaker_state,
            "offered": int(offered),
            "completed": int(completed),
            "dropped": int(dropped),
            "degraded": int(degraded),
        }
        self._seq += 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self._dropped += 1
        self._ring.append(sample)
        return sample

    def capture(self, t: float = 0.0) -> dict:
        """Registry-only tick: counter deltas and gauge levels, no
        governor state.  What a shard worker records around one batch."""
        return self.tick(t)

    def samples(self) -> list[dict]:
        """The retained ticks, oldest first."""
        return list(self._ring)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Trajectory aggregates: the brownout staircase condensed.

        ``time_at_level`` maps each brownout level seen to the fraction
        of retained ticks spent there (rounded to 1e-6); the fractions
        are the dimensionless "ratio" rows the diff sentinel compares
        across hardware.
        """
        ticks = list(self._ring)
        total = len(ticks)
        if not total:
            return {
                "ticks": 0,
                "max_brownout_level": 0,
                "max_queue_depth": 0,
                "max_inflight": 0,
                "time_at_level": {},
            }
        at_level: dict[int, int] = {}
        for s in ticks:
            level = int(s["brownout_level"])
            at_level[level] = at_level.get(level, 0) + 1
        return {
            "ticks": total,
            "max_brownout_level": max(at_level),
            "max_queue_depth": max(int(s["queue_depth"]) for s in ticks),
            "max_inflight": max(int(s["inflight"]) for s in ticks),
            "time_at_level": {
                str(level): round(n / total, 6)
                for level, n in sorted(at_level.items())
            },
        }

    def fragment(self) -> dict:
        """The embeddable ``timeline/v1`` block a bench row carries."""
        return {
            "schema": TIMELINE_SCHEMA,
            "clock": self.clock,
            "tick_s": self.tick_s,
            "capacity": self.capacity,
            "count": len(self._ring),
            "dropped_ticks": self._dropped,
            "ticks": self.samples(),
            "summary": self.summary(),
        }

    def document(
        self,
        *,
        name: str = "timeline",
        title: str = "Telemetry timeline: sampled governor and registry state",
        **context,
    ):
        """A standalone ``timeline/v1`` :class:`~repro.obs.schema.BenchDocument`.

        Virtual timelines are written with the deterministic byte
        discipline (sorted keys, trailing newline) so two runs of the
        same seeds ``cmp`` equal.
        """
        from .context import RunContext
        from .schema import BenchDocument

        return BenchDocument.build(
            "timeline",
            name=name,
            title=title,
            context=RunContext(bench="timeline", config=context),
            deterministic=self.clock == "virtual",
            **self.fragment(),
        )

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Picklable shard-local capture for the ``obs_state`` path."""
        return {
            "clock": self.clock,
            "tick_s": self.tick_s,
            "capacity": self.capacity,
            "dropped_ticks": self._dropped,
            "ticks": self.samples(),
        }

    def merge_state(self, state: dict) -> None:
        """Fold one shard's :meth:`state` into this sampler, tick-for-tick.

        Samples align on their ``tick`` index: deltas and occupancy add,
        levels take the max, breaker state takes the worst — see the
        module docstring for why a merged timeline equals the timeline
        of one process that observed every stream.
        """
        by_tick = {int(s["tick"]): s for s in self._ring}
        for other in state.get("ticks", ()):
            idx = int(other["tick"])
            mine = by_tick.get(idx)
            if mine is None:
                sample = {
                    "tick": idx,
                    "t": round(float(other.get("t", 0.0)), 9),
                    "counters": dict(other.get("counters", {})),
                    "gauges": dict(other.get("gauges", {})),
                    "queue_depth": int(other.get("queue_depth", 0)),
                    "queue_wait_ms": round(float(other.get("queue_wait_ms", 0.0)), 4),
                    "inflight": int(other.get("inflight", 0)),
                    "brownout_level": int(other.get("brownout_level", 0)),
                    "breaker_state": other.get("breaker_state"),
                    "offered": int(other.get("offered", 0)),
                    "completed": int(other.get("completed", 0)),
                    "dropped": int(other.get("dropped", 0)),
                    "degraded": int(other.get("degraded", 0)),
                }
                if len(self._ring) >= self.capacity:
                    self._ring.popleft()
                    self._dropped += 1
                self._ring.append(sample)
                by_tick[idx] = sample
                self._seq = max(self._seq, idx + 1)
            else:
                _merge_samples(mine, other)
        self._dropped += int(state.get("dropped_ticks", 0))
        # Ring order is tick order; merged-in ticks may interleave.
        self._ring = deque(sorted(self._ring, key=lambda s: s["tick"]))


def merge_timeline_states(states, **sampler_kwargs) -> TimelineSampler:
    """Merge shard-local :meth:`TimelineSampler.state` blocks into one
    sampler — the convenience form the parity tests exercise."""
    states = [s for s in states if s]
    if states and "clock" not in sampler_kwargs:
        sampler_kwargs["clock"] = str(states[0].get("clock", "virtual"))
    if states and "tick_s" not in sampler_kwargs:
        sampler_kwargs["tick_s"] = float(states[0].get("tick_s") or 0.05)
    merged = TimelineSampler(**sampler_kwargs)
    for state in states:
        merged.merge_state(state)
    return merged
