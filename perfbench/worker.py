"""One workload in one fresh process: set up, warm up, run, report.

Started by ``run.py``. Prints ``ready <json>`` as soon as set-up (imports
and generation of the first inputs) is done, and one JSON result line when
it ends. With ``--setup-only`` it stops after the ready line, so the caller
can time set-up in fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds per cycle at the commit that added the benchmark, on a 2-core Xeon
# with Python 3.11.7 and numpy 2.4.6. A run executes a fixed number of whole
# cycles, derived from --seconds and these, so every run and every commit
# does the same work; a faster commit just finishes sooner.
NOMINAL_CYCLE_S = {
    "large-ladders": 1.7,
    "app-solvers": 2.6,
    "small-exact": 0.45,
    "bootstrap": 0.24,
}
WALL_LIMIT_S = 120.0

# The host runs other tenants' work on the same cores, and its speed moves
# by up to 1.5x in phases that last from seconds to minutes, so whole runs
# land in a fast or a slow phase. A fixed probe, which calls nothing of the
# library, runs before every op; each op time is scaled by PROBE_REF_S over
# the median of the probes around it (PROBE_WINDOW ops each side), raised to
# the workload's PROBE_EXPONENT: the probe is interpreted Python, and the
# workloads whose time goes to numpy kernels on large arrays move less than
# it with the host. Times are then in seconds at the host's usual speed, and
# a change to the library moves them in full. Unscaled times are kept in the
# record beside them.
PROBE_REF_S = 2.4e-4  # the probe's median in runs on the host named above
PROBE_WINDOW = 15


class HostProbe:
    """A fixed piece of the kinds of work the workloads do: a small
    pure-Python dynamic program and numpy calls on small arrays. Its data
    fits in the L1 cache, and it runs once untimed before the timed pass,
    so what the op before it left in the caches does not move it."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.random.default_rng(0).random(64)

    def _kernel(self) -> None:
        np = self._np
        best = [0.0] * 40
        for i in range(1, 40):
            for j in range(i):
                v = best[j] + (i - j) * 0.5
                if v > best[i]:
                    best[i] = v
        for _ in range(20):
            np.maximum(np.cumsum(self._small), 3.0).sum()

    def __call__(self) -> float:
        self._kernel()
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0


def normalised(times, probes, exponent: float) -> list:
    """Scale each time by PROBE_REF_S over the median probe around it,
    raised to ``exponent``."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(t * (PROBE_REF_S / statistics.median(near)) ** exponent)
    return out


def import_library() -> float:
    """Import the package from this checkout's ``src``; return the time
    ``import coarse_bounds.cli`` took, which loads every layer and scipy."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import coarse_bounds.cli  # noqa: F401
    cli_import_s = perf_counter() - t0
    import coarse_bounds
    import coarse_bounds.applications  # noqa: F401

    where = Path(coarse_bounds.__file__).resolve().parent
    if where != SRC / "coarse_bounds":
        raise SystemExit(f"coarse_bounds imported from {where}, not from {SRC}")
    return cli_import_s


def run_cycles(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[name]))


class Runner:
    """Runs ops, times each one, and checks its output outside the timing."""

    def __init__(self, probe_exponent: float = 1.0):
        import coarse_bounds.learning as ln

        cached = getattr(ln, "_resample_indices", None)
        self._cache_info = getattr(cached, "cache_info", None)
        self.probe = HostProbe()
        self.probe_exponent = probe_exponent
        self.records = []
        self.failures = []

    def run(self, ops, tracer=None, keep=True) -> float:
        """Run ``ops`` in order and return the summed op time. With
        ``keep=False`` (warm-up) nothing is checked or recorded."""
        total = 0.0
        for op in ops:
            speed = self.probe()
            watch_cache = self._cache_info is not None and op.resamples
            before = self._cache_info() if watch_cache else None
            if tracer is not None:
                tracer.begin_op(len(self.records))
            status, out = "ok", None
            t0 = perf_counter()
            try:
                out = op.run()
            except op.documented:
                status = "documented"
            except Exception as err:  # an undocumented error fails the op
                status = f"{type(err).__name__}: {err}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(t0, t1)
            total += t1 - t0
            if not keep:
                continue
            cross_hit = None
            if watch_cache:
                after = self._cache_info()
                # the op's resample key was already cached: served by another op
                cross_hit = after.misses == before.misses and after.hits > before.hits
            if status == "ok":
                try:
                    problems = op.check(out)
                except Exception as err:  # a check that cannot run fails its op
                    problems = [f"check raised {type(err).__name__}: {err}"]
                if problems:
                    self.failures.append((op.kind, "; ".join(problems)))
            elif status != "documented":
                self.failures.append((op.kind, status))
            self.records.append((op.kind, op.app, status, t1 - t0, cross_hit, speed))
        return total

    def normalised_times(self) -> list:
        return normalised([r[3] for r in self.records], [r[5] for r in self.records],
                          self.probe_exponent)


def tail(sorted_vals):
    """The highest (nearest-rank) percentile with at least 10 samples beyond
    it: the 11th largest sample. Returns (value, percentile, samples beyond)."""
    n = len(sorted_vals)
    rank = max(1, n - 10)
    return sorted_vals[rank - 1], 100.0 * rank / n, n - rank


def timed_run(cycle, runner: Runner, cycles: int) -> dict:
    """Closed loop with one caller over ``cycles`` whole cycles, cut short
    only if the wall-clock limit is reached."""
    cycle_s, wall0 = [], perf_counter()
    while len(cycle_s) < cycles and perf_counter() - wall0 < WALL_LIMIT_S:
        cycle_s.append(runner.run(cycle(len(cycle_s))))
    c = len(cycle_s)
    norm = runner.normalised_times()
    by_kind = {}
    for (kind, *_), dt in zip(runner.records, norm):
        by_kind.setdefault(kind, []).append(1e3 * dt)
    result = {
        "by_kind_p50_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        **latency_metrics(norm),
        "cycles": c,
        "truncated": c < cycles,
        "cycle_s": cycle_s,
        "latencies_ms": [round(1e3 * r[3], 4) for r in runner.records],
        "probes_ms": [round(1e3 * r[5], 4) for r in runner.records],
    }
    result["raw"] = latency_metrics([r[3] for r in runner.records])
    return result


def latency_metrics(times) -> dict:
    lat = sorted(times)
    tail_s, pct, beyond = tail(lat)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "op_time_s": sum(lat),
    }


def traced_run(cycle, runner: Runner, cycles: int, spans_path) -> dict:
    """The same number of whole cycles untraced, then traced."""
    import tracing

    for c in range(cycles):
        runner.run(cycle(c))
    first = len(runner.records)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for c in range(cycles, 2 * cycles):
            runner.run(cycle(c), tracer=tracer)
    finally:
        tracer.uninstall()
    recs = runner.records[first:]
    apps = [None] * first + [r[1] for r in recs]
    layer = tracing.analyse(tracer, apps)
    norm = runner.normalised_times()
    layer["trace.overhead_ratio"] = sum(norm[first:]) / sum(norm[:first])
    bait = [r for r in recs if r[0] == "ct.bait_feasibility_bound"]
    layer["contracts.bait_feasible_ratio"] = (
        sum(r[2] == "ok" for r in bait) / len(bait) if bait else 0.0
    )
    boot = [r for r in recs if r[4] is not None]
    layer["learning.resample_cache_hit_ratio"] = (
        sum(r[4] for r in boot) / len(boot) if boot else 0.0
    )
    layer["_cycles_per_half"] = cycles
    tracer.save(spans_path)
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    cli_import_s = import_library()
    from workloads import TIMED, WARMUP, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    warmup = wl.cycle(WARMUP, 0)
    first = wl.cycle(TIMED, 0)
    cycle = lambda c: first if c == 0 else wl.cycle(TIMED, c)
    print("ready", json.dumps({"cli_import_s": cli_import_s}), flush=True)
    if args.setup_only:
        return 0

    runner = Runner(wl.PROBE_EXPONENT)
    runner.run(warmup, keep=False)
    cycles = run_cycles(args.workload, args.seconds)
    if args.trace:
        result = traced_run(cycle, runner, max(1, cycles // 2), args.spans)
    else:
        result = timed_run(cycle, runner, cycles)
    result["attempted"] = len(runner.records)
    result["failed"] = len(runner.failures)
    result["documented"] = sum(r[2] == "documented" for r in runner.records)
    result["failures"] = runner.failures[:50]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
