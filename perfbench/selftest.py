"""Self-test of the benchmark: determinism of counts and answers.

Run from the repository root::

    python3 perfbench/selftest.py [--seconds 3] [--seed 5] [workload ...]

For each workload it makes two brief traced runs and one brief
untraced run with one seed, and checks that

* every count metric is identical across the two traced runs;
* the answer digest is identical across all three runs, so the traced
  run's wrappers change no answer;
* every run passes its correctness gate;
* ``BENCHMARK.json`` names exactly the metrics and workloads that
  ``run.py`` and ``workloads.json`` define, with the same units.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNT_METRICS = (
    "cache.hit_frac",
    "lca.pipelines_per_request",
    "sampler.samples_per_pipeline",
    "seeds.rng_calls_per_pipeline",
    "oracle.queries_per_request",
    "pool.creations_per_request",
)


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    digest = next(
        line.split()[-1] for line in lines if line.strip().startswith("answer digest")
    )
    return json.loads(lines[-1]), digest


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_declarations() -> list[str]:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, PER_LAYER

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        _check(listed == declared, f"BENCHMARK.json {key} matches run.py")
    names = [w["name"] for w in bench["workloads"]]
    _check(names == list(config["workloads"]), "workloads match workloads.json")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench self-test")
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    names = check_declarations()
    for workload in args.workloads or names:
        first, digest1 = _run(workload, args.seed, args.seconds, 1)
        second, digest2 = _run(workload, args.seed, args.seconds, 1)
        untraced, digest0 = _run(workload, args.seed, args.seconds, 0)
        for result in (first, second, untraced):
            _check(result["correct"] and result["failed"] == 0,
                   f"{workload}: run passes its correctness gate")
        for name in COUNT_METRICS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            _check(a == b, f"{workload}: {name} repeats ({a} == {b})")
        _check(digest1 == digest2, f"{workload}: answer digest repeats")
        _check(digest0 == digest1,
               f"{workload}: traced and untraced runs give one digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
