"""Benchmark of coarse-bounds: four seeded workloads, each in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each exists): ``large-ladders``,
``app-solvers``, ``small-exact`` and ``bootstrap``. Each run is a closed
loop with one caller and no threads of its own; BLAS libraries are held to
one thread.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the same whole cycles untraced and then traced, and
prints per-layer calls, self times and counts. Either way every output is
checked, the environment is recorded, and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record, and in traced runs the spans, are written to ``.perfbench_out/``.

Op times are scaled to the host's usual speed by a fixed probe that runs
before every op (see ``worker.py``); the unscaled figures are printed beside
them. Set-up time is measured from process start to the ready line of the
workload process, in that process and in fresh set-up-only interpreters,
and reported unscaled as the median. The run exits non-zero without a
result when the library sources are missing or any process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    # fixed str hashing: set iteration order, and so every count, repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline):
    """Start a worker; return (process, seconds from spawn to its ready line, ready payload)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env(),
    )
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if readable else ""
    setup = perf_counter() - t0
    try:
        if not line.startswith("ready "):
            raise ValueError(line)
        return proc, setup, json.loads(line[len("ready "):])
    except ValueError:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker did not get ready (exit {proc.returncode})") from None


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the full record. Raises RunError on failure."""
    if not (ROOT / "src" / "coarse_bounds" / "__init__.py").is_file():
        raise RunError(f"library sources not found under {ROOT / 'src'}")
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        proc, setup, ready = _spawn([*base, "--setup-only"], deadline)
        _finish(proc, deadline)
        setups.append(setup)
        imports.append(ready["cli_import_s"])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}.spans.npz"
    proc, setup, ready = _spawn(
        [*base, "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)], deadline
    )
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    setups.append(setup)
    imports.append(ready["cli_import_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["cli.import_s"] = statistics.median(imports)
    result["env"] = {
        **result.get("env", {}),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
    }
    return result


def report(workload, seed, trace, record, specs) -> dict:
    """Print every metric by name and unit; return the final JSON object."""
    attempted, failed = record["attempted"], record["failed"]
    values = dict(record)
    values["fail_ratio"] = failed / attempted if attempted else 1.0
    print(f"perfbench {workload} seed={seed} trace={trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if trace:
        print("engine.bound by bucket/N " + json.dumps(record.get("_engine_table", {}), sort_keys=True))
    for spec in specs:
        note = ""
        if spec["name"] == "op_tail_ms":
            note = (f"  (p{record['tail_pct']:.2f}, {record['tail_beyond']} samples beyond, "
                    f"{attempted} ops)")
        elif spec["name"] == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh interpreters)"
        if spec["name"] in record.get("raw", {}):
            note += f"  (unscaled {record['raw'][spec['name']]:.6g})"
        print(f"{spec['name']} = {values[spec['name']]:.6g} {spec['unit']}{note}")
    if not trace:
        print(f"fail_ratio = {values['fail_ratio']:.6g} 1  ({failed} of {attempted} ops; "
              f"{record['documented']} documented outcomes)")
    for kind, cause in record["failures"]:
        print(f"FAILED {kind}: {cause}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        end_to_end, per_layer = _metric_specs()
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    final = report(args.workload, args.seed, args.trace, record, per_layer if args.trace else end_to_end)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, **final}, fh, indent=1, sort_keys=True)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
