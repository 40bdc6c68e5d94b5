"""Benchmark of linquo: one workload per run, correctness gated, metrics as JSON.

    python3 benchmarks/run.py --workload {repro,tower,scan5} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; linquo is imported from ``src/``.
The workload repeats for ``--seconds`` seconds with tracing off.  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1`` a
further traced pass supplies the per-layer metrics and the spans are written
to ``.bench_out/trace-<workload>.json``.  Every pass's outputs go through the
workload's correctness gate, and the verifier is cross-checked against its
slow oracle; all of that happens outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every gate passes and 1 when one fails; when linquo cannot be imported
from the checkout the run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

# Set-up is measured in this many fresh interpreters; setup_s is the median.
SETUP_PROBES = 5
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_workloads():
    """Import the workloads with linquo taken from this checkout's src/."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import linquo
        import workloads
    except ImportError as e:
        raise SystemExit(f"cannot import linquo from {SRC}: {e}") from None
    if Path(linquo.__file__).resolve().parent != (SRC / "linquo").resolve():
        raise SystemExit(f"linquo was imported from {linquo.__file__}, not from {SRC}")
    return workloads


def _setup_seconds(workload: str) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _timed_passes(wl, fx, seconds: float) -> tuple[list[float], list[str], int, int]:
    """Repeat the workload for about ``seconds``: stop when another pass
    would end more than half a pass past the deadline."""
    walls: list[float] = []
    fails: list[str] = []
    attempted = undecided = 0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out = wl.run(fx)
        walls.append(time.perf_counter() - t0)
        fails += wl.check(fx, out)
        jobs, unknown = wl.jobs(out)
        attempted += jobs
        undecided += unknown
        if sum(walls) + statistics.median(walls) / 2 > seconds:
            return walls, fails, attempted, undecided


def _generator_count(power_ideals):
    """Generator count of the k-th power of an ideal, cached per graph."""
    cache: dict = {}

    def count(ideal, k: int) -> int:
        key = (ideal.graph.n, ideal.graph.edge_set, k)
        if key not in cache:
            cache[key] = power_ideals.power_generators(ideal, k).count
        return cache[key]

    return count


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    setup_s = _setup_seconds(args.workload) if args.trace == 0 else None
    fx = wl.setup()
    walls, fails, attempted, undecided = _timed_passes(wl, fx, args.seconds)
    wall_s = statistics.median(walls)
    print(f"{args.workload}: {len(walls)} passes, wall s {walls}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "decided_frac": 1 - undecided / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        tracer = tracing.Tracer()
        gc.collect()
        with tracer.installed():
            t0 = time.perf_counter()
            out = wl.run(fx)
            traced_wall = time.perf_counter() - t0
        fails += wl.check(fx, out)
        values = tracer.metrics(traced_wall, wall_s, _generator_count(workloads.power_ideals))
        units = tracing.METRICS
        tracer.write(OUT / f"trace-{args.workload}.json", t0)

    fails += workloads.verifier_oracle_check(rng)
    for msg in fails:
        print(f"gate: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        # A job that raises ends the run; an "unknown" verdict is a finished
        # job whose budget ran out, counted by decided_frac instead.
        "failed": 0,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
