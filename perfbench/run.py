"""Repository benchmark: drive ``KnapsackService`` with seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(repeated, median reported), an open loop at the workload's Poisson
rate, then a closed loop for capacity.  ``--trace 1`` is the separate
traced run: an untraced open loop as the baseline, in the time the
closed loop would take, then the untraced run's open-loop schedule
again with every layer wrapped (see ``layers.py``).
Either way the run ends with an untimed correctness gate that replays a
seeded sample of requests on a fresh serial LCA.  Workload shapes live
in ``workloads.json`` beside this file.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "within_limit_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "driver.late_p99_ms": "ms",
    "driver.utilization": "ratio",
    "service.answer_batch_ms": "ms",
    "service.self_ms": "ms",
    "cache.hit_frac": "ratio",
    "cache.key_us": "us",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "lca.pipelines_per_request": "count",
    "lca.run_pipeline_ms": "ms",
    "lca.answers_from_ms": "ms",
    "lca.summary_us": "us",
    "lca.summary_calls_per_request": "count",
    "sampler.samples_per_pipeline": "count",
    "sampler.sample_block_ms": "ms",
    "sampler.inits_per_request": "count",
    "sampler.init_ms": "ms",
    "sampler.alias_builds": "count",
    "seeds.rng_calls_per_pipeline": "count",
    "seeds.rng_ms_per_pipeline": "ms",
    "oracle.queries_per_request": "count",
    "oracle.query_block_us": "us",
    "rquantile.quantiles_ms": "ms",
    "greedy.build_ms": "ms",
    "shm.create_s": "s",
    "shm.worker_setup_ms": "ms",
    "shm.worker_private_mb": "MB",
    "pool.creations_per_request": "count",
    "pool.shard_ms": "ms",
    "pool.overhead_ms": "ms",
    "gc.gen2_collections": "count",
    "gc.pause_ms_max": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.untraced_tail_ms": "ms",
    "trace.overhead_ms": "ms",
    "setup.instance_gen_s": "s",
}


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _per(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


class Workload:
    """One workload's configuration, instance and service factory."""

    def __init__(self, config: dict, name: str, seed: int, seconds: float) -> None:
        from repro.core.parameters import LCAParameters

        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.config = config
        self.spec = config["workloads"][name]
        svc = config["service"]
        self.epsilon = float(svc["epsilon"])
        self.service_seed = int(svc["seed"])
        self.params = LCAParameters.calibrated(self.epsilon, **self.spec["params"])
        self.workers = int(self.spec["workers"])
        share = float(config["open_share"])
        self.open_count = max(1, round(self.spec["rate_per_s"] * seconds * share))
        self.closed_seconds = seconds * (1.0 - share)
        self.instance = None
        self.instance_gen_s = 0.0

    def build_instance(self) -> None:
        """Generate the instance and check it against the recorded one."""
        from repro.knapsack import generators
        from repro.serve import instance_fingerprint

        family = getattr(generators, self.config["instance"]["family"])
        start = time.perf_counter()
        self.instance = family(self.spec["n"], seed=self.config["instance"]["seed"])
        self.instance_gen_s = time.perf_counter() - start
        found = instance_fingerprint(self.instance)
        if found != self.spec["fingerprint"]:
            raise SystemExit(
                f"perfbench: {self.name} instance fingerprint {found} differs "
                f"from the recorded {self.spec['fingerprint']}; the generator "
                "changed, so this workload is no longer the one benchmarked"
            )

    def service(self):
        from repro.serve import KnapsackService

        extra = {}
        if self.spec["executor"] == "process":
            extra = {"executor": "process", "shared_instance": True}
        return KnapsackService(
            self.instance,
            self.epsilon,
            self.service_seed,
            params=self.params,
            cache_capacity=int(self.config["service"]["cache_capacity"]),
            **extra,
        )

    def requests(self, stream: str, count: int, *, paced: bool):
        from loop import make_requests

        rate = float(self.spec["rate_per_s"]) if paced else None
        return make_requests(self.name, self.seed, stream, self.spec, count, rate=rate)

    def setup(self, reps: int):
        """Build the service ``reps`` times; keep the last one.

        Each time runs from the constructor call until the warm-up
        request returns through the workload's own dispatch shape."""
        times = []
        svc = None
        for r in range(reps):
            if svc is not None:
                svc.close()
                svc = None
            gc.collect()
            warm = self.requests(f"setup{r}", 1, paced=False)
            start = time.perf_counter()
            svc = self.service()
            svc.answer_batch(
                warm.indices[0].tolist(), nonce=int(warm.nonces[0]),
                workers=self.workers,
            )
            times.append(time.perf_counter() - start)
        return svc, times

    def gate(self, reqs, result) -> set:
        from gate import replay

        return replay(
            self.instance, self.epsilon, self.service_seed, self.params,
            self.workers, reqs, result.samples,
        )

    def gate_sample(self) -> frozenset:
        from gate import sample_ids

        return sample_ids(
            self.name, self.seed, self.open_count, int(self.config["gate_sample"])
        )


def _driver_validity(w: Workload, res, p50_ms: float) -> tuple[float, float, list]:
    """Send lateness p99 (ms), utilisation, and flags for an invalid run.

    The flag tests p90 lateness: the p99 also catches the VM pausing the
    whole process for milliseconds, which delays the service as much as
    the driver and is not a driver fault."""
    late_ms = res.late * 1e3 if len(res.late) else np.zeros(1)
    late_p99_ms = float(np.percentile(late_ms, 99))
    late_p90_ms = float(np.percentile(late_ms, 90))
    util = res.utilization
    flags = []
    limit = float(w.config["late_share_limit"]) * p50_ms
    if late_p90_ms > limit:
        flags.append(f"driver ran late: p90 {late_p90_ms:.4f} ms > {limit:.4f} ms")
    lo, hi = w.spec["utilization_band"]
    if not lo <= util <= hi:
        flags.append(f"utilization {util:.3f} outside [{lo}, {hi}]")
    return late_p99_ms, util, flags


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_untraced(w: Workload, fillers) -> tuple[dict, dict]:
    from loop import Dispatcher

    w.build_instance()
    svc, setup_times = w.setup(int(w.spec["setup_reps"]))
    open_reqs = w.requests("open", w.open_count, paced=True)
    # Capacity requests cycle; at ~25% utilisation the closed loop runs
    # about 4x the offered rate, so 8x covers it with room to spare.
    closed_reqs = w.requests(
        "closed", max(16, int(w.spec["rate_per_s"] * w.closed_seconds * 8)),
        paced=False,
    )
    keep = w.gate_sample()
    disp = Dispatcher(svc, w.workers)
    gc.collect()
    with fillers.running():
        opened = disp.open_loop(open_reqs, keep)
    gc.collect()
    closed = disp.closed_loop(closed_reqs, w.closed_seconds)
    svc.close()
    peak = _peak_rss_mb()
    errors = disp.errors
    del svc, disp
    gc.collect()
    wrong = w.gate(open_reqs, opened)

    lat_ms = opened.latency * 1e3
    p50 = float(np.median(lat_ms))
    limit = float(w.spec["latency_limit_ms"])
    missed = opened.failed | wrong
    within = sum(
        1 for i, v in enumerate(lat_ms) if v <= limit and i not in missed
    )
    failed = len(missed) + len(closed.failed)
    attempted = opened.requests + closed.requests
    tail = float(np.percentile(lat_ms, w.spec["tail_percentile"]))
    metrics = {
        "setup_s": _p50(setup_times),
        "latency_p50_ms": p50,
        "within_limit_frac": within / opened.requests,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak,
    }
    late_p99, util, flags = _driver_validity(w, opened, p50)
    info = {
        "attempted": attempted,
        "failed": failed,
        "wrong": len(wrong),
        "digest": opened.digest,
        "flags": flags,
        "errors": errors,
        "notes": [
            f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup_times)}",
            f"instance_gen_s = {w.instance_gen_s:.4f} s (input, not set-up)",
            f"open loop: {opened.requests} requests at {w.spec['rate_per_s']}/s, "
            f"p{w.spec['tail_percentile']} = {tail:.4f} ms (no bound: too noisy)",
            f"closed loop: {closed.requests} requests in {closed.wall_s:.3f} s, "
            f"capacity_qps = {closed.indices_answered / closed.wall_s:.1f} "
            "queries/s (no bound: too noisy)",
            f"failed_frac = {failed / attempted:.6f} ({failed}/{attempted})",
            f"driver.late_p99_ms = {late_p99:.4f}, "
            f"driver.utilization = {util:.4f}",
        ],
    }
    return metrics, info


def _shard_spans(root) -> tuple[float, list[float]]:
    """Longest ``serve.shard`` span and all worker ``lca.pipeline`` spans."""
    shard = 0.0
    pipelines = []
    for span, _depth in root.walk():
        if span.name == "serve.shard":
            shard = max(shard, span.duration)
        elif span.name == "lca.pipeline":
            pipelines.append(span.duration)
    return shard, pipelines


def run_traced(w: Workload, fillers) -> tuple[dict, dict]:
    from layers import LayerTrace
    from loop import Dispatcher
    from repro.obs import runtime as obs

    trace = LayerTrace()
    w.build_instance()
    trace.install()
    try:
        svc, _ = w.setup(1)
    finally:
        trace.uninstall()
    setup_calls = {k: list(v) for k, v in trace.durations.items()}
    trace.reset()

    # The untraced baseline takes the time the closed loop takes in an
    # untraced run; the traced loop replays the untraced run's schedule.
    base_count = max(1, round(w.spec["rate_per_s"] * w.closed_seconds))
    base_disp = Dispatcher(svc, w.workers)
    with fillers.running():
        baseline = base_disp.open_loop(
            w.requests("baseline", base_count, paced=True)
        )

    process = w.spec["executor"] == "process"
    per_request: dict[str, list[float]] = {
        "worker_setup_ms": [], "worker_private_mb": [], "shard_ms": [],
        "overhead_ms": [], "pipeline_ms": [],
    }

    def after(_i, report, service_s):
        if not process or isinstance(report, Exception):
            return
        root = obs.TRACER.last_root()
        if root is not None:
            shard, pipes = _shard_spans(root)
            per_request["shard_ms"].append(shard * 1e3)
            per_request["overhead_ms"].append((service_s - shard) * 1e3)
            per_request["pipeline_ms"].extend(p * 1e3 for p in pipes)
        obs.TRACER.clear()
        per_request["worker_setup_ms"].extend(s * 1e3 for s in svc.worker_setup_s)
        per_request["worker_private_mb"].extend(
            (m.get("private_kb") or 0) / 1024.0 for m in svc.worker_memory
        )

    open_reqs = w.requests("open", w.open_count, paced=True)
    keep = w.gate_sample()
    disp = Dispatcher(svc, w.workers, after=after)
    gc.collect()
    trace.install()
    if process:
        obs.TRACER.enable()
    try:
        with fillers.running():
            traced = disp.open_loop(open_reqs, keep)
    finally:
        obs.TRACER.disable()
        trace.uninstall()
    svc.close()
    del svc
    gc.collect()
    wrong = w.gate(open_reqs, traced)

    n_req = traced.requests
    hits, misses, pipelines, samples, queries = (int(t) for t in traced.totals)
    parent_pipelines = trace.calls("lca.run_pipeline")
    d = trace.durations
    base_p50 = float(np.median(baseline.latency)) * 1e3
    traced_p50 = float(np.median(traced.latency)) * 1e3
    late_p99, util, flags = _driver_validity(w, baseline, base_p50)
    run_pipeline_ms = (
        _p50(per_request["pipeline_ms"]) if process
        else _p50(d.get("lca.run_pipeline", [])) * 1e3
    )
    metrics = {
        "driver.late_p99_ms": late_p99,
        "driver.utilization": util,
        "service.answer_batch_ms": _p50(d.get("service.answer_batch", [])) * 1e3,
        "service.self_ms": _p50(trace.self_times.get("service.answer_batch", [])) * 1e3,
        "cache.hit_frac": _per(hits, hits + misses),
        "cache.key_us": _p50(d.get("cache.key", [])) * 1e6,
        "cache.get_us": _p50(d.get("cache.get", [])) * 1e6,
        "cache.put_us": _p50(d.get("cache.put", [])) * 1e6,
        "lca.pipelines_per_request": _per(pipelines, n_req),
        "lca.run_pipeline_ms": run_pipeline_ms,
        "lca.answers_from_ms": _p50(d.get("lca.answers_from", [])) * 1e3,
        "lca.summary_us": _p50(d.get("lca.summary", [])) * 1e6,
        "lca.summary_calls_per_request": _per(trace.calls("lca.summary"), n_req),
        "sampler.samples_per_pipeline": _per(samples, pipelines),
        "sampler.sample_block_ms": _p50(d.get("sampler.sample_block", [])) * 1e3,
        "sampler.inits_per_request": _per(trace.calls("sampler.init"), n_req),
        "sampler.init_ms": _p50(
            setup_calls.get("sampler.init", []) + d.get("sampler.init", [])
        ) * 1e3,
        "sampler.alias_builds": float(
            len(setup_calls.get("sampler.alias_build", []))
            + trace.calls("sampler.alias_build")
        ),
        "seeds.rng_calls_per_pipeline": _per(trace.calls("seeds.rng"), parent_pipelines),
        "seeds.rng_ms_per_pipeline": _per(trace.total("seeds.rng") * 1e3, parent_pipelines),
        "oracle.queries_per_request": _per(queries, n_req),
        "oracle.query_block_us": _p50(d.get("oracle.query_block", [])) * 1e6,
        "rquantile.quantiles_ms": _per(
            trace.total("rquantile.quantiles") * 1e3, parent_pipelines
        ),
        "greedy.build_ms": _per(
            (trace.total("greedy.simplified") + trace.total("greedy.convert")) * 1e3,
            parent_pipelines,
        ),
        "shm.create_s": _p50(setup_calls.get("shm.create", [])),
        "shm.worker_setup_ms": _p50(per_request["worker_setup_ms"]),
        "shm.worker_private_mb": _p50(per_request["worker_private_mb"]),
        "pool.creations_per_request": _per(trace.calls("pool.create"), n_req),
        "pool.shard_ms": _p50(per_request["shard_ms"]),
        "pool.overhead_ms": _p50(per_request["overhead_ms"]),
        "gc.gen2_collections": float(sum(1 for g, _ in trace.gc_pauses if g == 2)),
        "gc.pause_ms_max": max((p for _, p in trace.gc_pauses), default=0.0) * 1e3,
        "trace.untraced_p50_ms": base_p50,
        "trace.untraced_tail_ms": float(np.percentile(
            baseline.latency * 1e3, w.spec["tail_percentile"]
        )),
        "trace.overhead_ms": traced_p50 - base_p50,
        "setup.instance_gen_s": w.instance_gen_s,
    }
    failed = len(traced.failed | wrong) + len(baseline.failed)
    info = {
        "attempted": traced.requests + baseline.requests,
        "failed": failed,
        "wrong": len(wrong),
        "digest": traced.digest,
        "flags": flags,
        "errors": base_disp.errors + disp.errors,
        "notes": [
            f"traced open loop: {n_req} requests, p50 {traced_p50:.4f} ms; "
            f"untraced baseline p50 {base_p50:.4f} ms",
        ],
    }
    return metrics, info


def _child_pids() -> list[int]:
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in children.read_text().split())
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    ``multiprocessing.shared_memory`` starts a resource tracker that by
    design outlives its parent; stop it once the segments are unlinked.
    Any other child still alive (none, on a clean run) is killed."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(config['workloads'])}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    from loop import IdleFillers

    fillers = IdleFillers()
    try:
        w = Workload(config, args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, info = run_traced(w, fillers)
            units = PER_LAYER
        else:
            metrics, info = run_untraced(w, fillers)
            units = END_TO_END
    finally:
        fillers.close()
        stop_children()

    print(f"workload {w.name}  seed {w.seed}  seconds {w.seconds:g}  trace {args.trace}")
    for note in info["notes"]:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  answer digest {info['digest']}")
    for flag in info["flags"]:
        print(f"  FLAG: {flag} (this run measured the driver, not the service)")
    for err in info["errors"]:
        print(err, file=sys.stderr)
    correct = info["failed"] == 0
    if info["wrong"]:
        print(f"  GATE: {info['wrong']} sampled requests differ from a serial replay")
    result = {
        "correct": correct,
        "attempted": int(info["attempted"]),
        "failed": int(info["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
