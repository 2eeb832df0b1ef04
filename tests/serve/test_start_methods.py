"""Process shards behave the same under every multiprocessing start method.

The pool's start method is one constant, ``POOL_START_METHOD``; these
tests monkeypatch it to ``fork``, ``forkserver`` and ``spawn``.  Under
each, answers equal a serial replay of every shard's derived nonce, a
killed shard is requeued, a stalled one is torn down by the watchdog,
nothing is left in ``/dev/shm``, and the resource tracker stays quiet:
a worker that attaches the segment must neither register it nor drop
the owner's registration.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.serve.service as service_mod
from repro.faults import FaultPlan
from repro.knapsack.shm import orphaned_system_segments
from repro.serve import KnapsackService, derive_worker_nonce

INDICES = list(range(0, 60, 3))
NONCE = 31
METHODS = [
    pytest.param(
        m,
        marks=pytest.mark.skipif(
            m not in multiprocessing.get_all_start_methods(),
            reason=f"no {m} start method on this platform",
        ),
    )
    for m in ("fork", "forkserver", "spawn")
]

pytestmark = [pytest.mark.slow, pytest.mark.parametrize("method", METHODS)]


@pytest.fixture(autouse=True)
def start_method(monkeypatch, method):
    monkeypatch.setattr(service_mod, "POOL_START_METHOD", method)
    return method


def serial_replay(instance, params, workers=2):
    """Each shard answered serially under its recorded derived nonce."""
    replay = KnapsackService(instance, 0.1, seed=42, params=params, cache=False)
    out = [None] * len(INDICES)
    for k in range(workers):
        nonce = derive_worker_nonce(replay.seed, NONCE, k)
        shard = INDICES[k::workers]
        report = replay.answer_batch(shard, nonce=nonce)
        for j, ans in enumerate(report.answers):
            out[k + j * workers] = (ans.index, ans.include)
    return out


def answers(report):
    return [(a.index, a.include) for a in report.answers]


def shared_service(instance, params, **kw):
    return KnapsackService(
        instance, 0.1, seed=42, params=params, cache=False,
        executor="process", shared_instance=True, **kw,
    )


def test_answers_match_serial_replay(tiers_instance, fast_params):
    with shared_service(tiers_instance, fast_params) as svc:
        first = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
        second = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    want = serial_replay(tiers_instance, fast_params)
    assert answers(first) == want
    assert answers(second) == want
    assert orphaned_system_segments() == []


def test_shard_kill_requeues(tiers_instance, fast_params):
    plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
    with shared_service(tiers_instance, fast_params, fault_plan=plan) as svc:
        report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    assert report.shard_retries >= 1
    assert report.degraded == 0
    assert answers(report) == serial_replay(tiers_instance, fast_params)
    assert orphaned_system_segments() == []


def test_watchdog_teardown(tiers_instance, fast_params):
    plan = FaultPlan(seed=5, shard_stall_rate=1.0, shard_stall_s=4.0,
                     shard_stall_attempts=1)
    with shared_service(
        tiers_instance, fast_params, fault_plan=plan, shard_deadline_s=1.5,
    ) as svc:
        report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
        assert svc.stats()["overload"]["watchdog_timeouts"] >= 1
    assert report.degraded == 0
    assert answers(report) == serial_replay(tiers_instance, fast_params)
    assert orphaned_system_segments() == []


_TRACKER_SCRIPT = textwrap.dedent(
    """
    import repro.serve.service as service_mod
    from repro.core.parameters import LCAParameters
    from repro.knapsack import generators
    from repro.reproducible.domains import EfficiencyDomain
    from repro.serve import KnapsackService

    service_mod.POOL_START_METHOD = {method!r}
    params = LCAParameters.calibrated(
        0.1, domain=EfficiencyDomain(bits=12), max_nrq=4000, max_m_large=4000
    )
    inst = generators.efficiency_tiers(600, seed=11, tiers=6)
    for _ in range(2):
        with KnapsackService(
            inst, 0.1, seed=42, params=params, cache=False,
            executor="process", shared_instance=True,
        ) as svc:
            svc.answer_batch(list(range(0, 60, 3)), nonce=31, workers=2)
    """
)


def test_no_resource_tracker_error(method):
    """Run in a fresh interpreter so its resource tracker (which writes
    to the interpreter's stderr) is this test's to read."""
    src = str(Path(service_mod.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACKER_SCRIPT.format(method=method)],
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr
    assert orphaned_system_segments() == []
