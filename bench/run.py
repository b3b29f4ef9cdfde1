#!/usr/bin/env python3
"""pfmattack benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, each in a fresh process

Workloads (bench/NOTES.md says why each exists and what it judges):
  grid_sweep    2000 pfm points + 50 remap points through the README library path
  oracle_bulk   closed form + run_oracle at 1e7 trials at (1 deg, pi/2), as `verify` does
  sweep_oracle  the README QBER sweep with --trials 100000, through pfmattack.cli.main

Load: a closed loop with one caller in one thread; each call starts when the
previous one returned, and BLAS is held to one thread. After one untimed
warm-up pass the workload repeats its pass until --seconds have elapsed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. The last stdout line is one
JSON object {correct, attempted, failed, metrics}. Every pass's outputs are
checked; any miss makes the exit code 1. Results and traced spans go to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads its BLAS; inherited by every child process
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("grid_sweep", "oracle_bulk", "sweep_oracle")
#: Fresh interpreters timed for setup_s, spread over the run rather than in one burst that a short
#: slowdown of the host can cover.
SETUP_SAMPLES = 20
#: Yardstick time before and after each setup sample.
SETUP_YARDSTICK_S = 0.02
#: setup_s is given in seconds on a host where one yardstick unit takes this long.
REFERENCE_UNIT_S = 0.01
#: Minimum measured passes per run (per side in a traced run), whatever --seconds says.
MIN_PASSES = 3
#: Traced passes stop once this many spans are held (~60 MB), so a faster program cannot exhaust memory.
MAX_SPANS = 300_000
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pfmattack, pfmattack.cli; print(time.perf_counter() - t)"
)
#: Yardstick time after each pass, as a share of that pass's time.
YARDSTICK_SHARE = 0.25
_YARDSTICK_MATRIX = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]])
_YARDSTICK_N = 100_000
#: The yardstick's arrays, allocated once. Fresh 800 kB arrays would be mmapped or taken from the
#: heap depending on what the workload freed before (glibc raises its mmap threshold after large
#: frees), which made the same unit ~20% faster in the oracle_bulk process than in grid_sweep's.
_YARDSTICK_BUFFERS = (np.empty(_YARDSTICK_N), np.empty(_YARDSTICK_N), np.empty(_YARDSTICK_N),
                      np.empty(_YARDSTICK_N, dtype=bool))


def yardstick_unit() -> None:
    """One unit (~8 ms) of fixed numpy work that shares no code with pfmattack.

    It mixes the two kinds of work the workloads do: streaming numpy array
    operations and many small LAPACK calls from Python.
    """
    u, k, t, mask = _YARDSTICK_BUFFERS
    rng = np.random.default_rng(0)
    for _ in range(3):
        rng.random(out=u)
        rng.random(out=k)
        np.floor(np.multiply(k, 4.0, out=k), out=k)
        np.less(u, 0.5, out=mask)
        t.fill(3.0)
        np.copyto(t, k, where=mask)
        np.count_nonzero(np.equal(t, k, out=mask))
    for _ in range(150):
        w, v = np.linalg.eigh(_YARDSTICK_MATRIX)
        (v * w) @ v.T


def yardstick(min_seconds: float) -> tuple[int, float]:
    """Run whole yardstick units for at least min_seconds; returns (units, seconds).

    On a shared virtual machine (measured: 2-vCPU Xeon) the speed of all work
    drifted by up to 1.7x over minutes. The yardstick, timed between passes,
    moves with that drift and not with changes to pfmattack, so pass time over
    yardstick-unit time is far steadier than raw seconds. Memory-bound work
    (oracle_bulk) follows the drift less closely than compute-bound work.
    """
    units, t0 = 0, time.perf_counter()
    while True:
        yardstick_unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return units, elapsed


def import_runs(n: int, importtime: bool = False) -> list[subprocess.CompletedProcess]:
    """Import pfmattack and pfmattack.cli in n fresh interpreters, one after another."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", IMPORT_CODE, str(SRC)]
    return [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120) for _ in range(n)]


def setup_sample() -> float:
    """Seconds one fresh interpreter takes to import pfmattack and pfmattack.cli."""
    return float(import_runs(1)[0].stdout)


def paired_setup_sample() -> tuple[float, float]:
    """(setup seconds, yardstick unit seconds timed just before and after it).

    Import time follows the host's speed drift as pass time does, so setup_s
    is the median ratio of a sample to its adjacent yardstick unit.
    """
    n1, t1 = yardstick(SETUP_YARDSTICK_S)
    seconds = setup_sample()
    n2, t2 = yardstick(SETUP_YARDSTICK_S)
    return seconds, (t1 + t2) / (n1 + n2)


def import_split() -> dict[str, float]:
    """Median cumulative import time of numpy, and of pfmattack + pfmattack.cli without numpy."""
    numpy_s, package_s = [], []
    for run in import_runs(SETUP_SAMPLES, importtime=True):
        cumulative = {}
        for line in run.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        numpy_s.append(cumulative["numpy"])
        package_s.append(cumulative["pfmattack"] + cumulative["pfmattack.cli"] - cumulative["numpy"])
    return {"import.numpy_s": statistics.median(numpy_s), "import.pfmattack_s": statistics.median(package_s)}


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:  # a benchmark checkout need not be a git repository, nor have git installed
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pfmattack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    if Path("/proc/cpuinfo").is_file():
        models = [ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                  if ln.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "load": "closed loop, 1 caller, 1 thread",
    }


def os_threads() -> int | None:
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of an ascending sequence."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return float(sorted_values[rank - 1])


def tail_percentile(n: int) -> float | None:
    """Highest percentile (0.1 steps) with at least ten of n samples above it; None below 20 samples."""
    return math.floor(1000 * (n - 10) / n) / 10 if n >= 20 else None


def make_workload(name: str, seed: int):
    import workloads

    if name == "grid_sweep":
        return workloads.GridSweep(seed)
    if name == "oracle_bulk":
        return workloads.OracleBulk(seed)
    return workloads.SweepOracle(seed, OUT_DIR / f"sweep_oracle-seed{seed}.csv")


def run_passes(work, seconds: float, tracer) -> dict:
    """Warm up once, then repeat passes for `seconds`.

    An untraced run times the yardstick before the first pass and after every
    pass (YARDSTICK_SHARE of its time), and takes setup_s samples between
    passes, spread evenly over the run.
    A traced run alternates untraced and traced passes.
    """
    import workloads

    attempted, failed = work.check(work.run_pass(0, None))
    untraced = tracer is None
    if untraced:
        setup_sample()  # fills the bytecode cache
    setup, next_setup = [], 0.0
    yard = [yardstick(0.1)] if untraced else []
    times = {"untraced": [], "traced": []}
    latency = workloads.LatencyHistogram()
    start = time.perf_counter()
    index = 1
    while True:
        traced = not untraced and index % 2 == 0 and len(tracer.spans) < MAX_SPANS
        with tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter()
            out = work.run_pass(index, tracer if traced else None)
            times["traced" if traced else "untraced"].append(time.perf_counter() - t0)
        if untraced:
            yard.append(yardstick(YARDSTICK_SHARE * times["untraced"][-1]))
        if untraced and isinstance(out, dict):
            latency.add(out["latency_ns"])
        a, f = work.check(out)
        attempted, failed = attempted + a, failed + f
        if untraced and time.perf_counter() - start >= next_setup:
            setup.append(paired_setup_sample())
            next_setup += seconds / SETUP_SAMPLES
        index += 1
        enough = len(times["untraced"]) >= MIN_PASSES and (
            untraced or len(times["traced"]) >= MIN_PASSES or len(tracer.spans) >= MAX_SPANS
        )
        if enough and time.perf_counter() - start >= seconds:
            break
    a, f = work.finish()
    attempted, failed = attempted + a, failed + f
    if untraced:
        setup += [paired_setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    return {"times": times, "yardstick": yard, "latency": latency, "setup": setup,
            "attempted": attempted, "failed": failed}


def end_to_end(work, run: dict) -> tuple[dict, dict]:
    """(declared metrics, further figures) as name -> (value, unit)."""
    times, setup = run["times"]["untraced"], run["setup"]
    total = sum(times)
    yard_unit_s = sum(s for _, s in run["yardstick"]) / sum(n for n, _ in run["yardstick"])
    metrics = {
        "setup_s": (statistics.median(s / unit for s, unit in setup) * REFERENCE_UNIT_S, "s"),
        "wall_per_yardstick": (total / len(times) / yard_unit_s, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    figures = {
        "setup_s.samples": (len(setup), "count"),
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s"),
        "wall_s": (statistics.median(times), "s"),
        "wall_s.samples": (len(times), "count"),
        "yardstick_unit_s": (yard_unit_s, "s"),
        "yardstick_units": (sum(n for n, _ in run["yardstick"]), "count"),
        "points_per_s": (work.points_per_pass * len(times) / total, "1/s"),
        "failed_frac": (run["failed"] / run["attempted"], "ratio"),
    }
    q = tail_percentile(len(times))
    if q:
        figures[f"wall_s.p{q}"] = (percentile(sorted(times), q), "s")
    if work.trials_per_pass:
        figures["trials_per_s"] = (work.trials_per_pass * len(times) / total, "1/s")
    latency = run["latency"]
    if latency.n:
        q = tail_percentile(latency.n)
        figures["point_p50_us"] = (latency.percentile(50) / 1e3, "us")
        figures["point_p99_us"] = (latency.percentile(99) / 1e3, "us")
        figures[f"point_p{q}_us"] = (latency.percentile(q) / 1e3, "us")
        figures["point_us.samples"] = (latency.n, "count")
    return metrics, figures


def per_layer(run: dict, tracer, split: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes (calls and self time per pass), and further figures."""
    import tracing

    passes = len(run["times"]["traced"])
    stats = tracer.layer_stats()
    metrics = {}
    for s in stats:
        name = s["layer"]
        metrics[f"{name}.calls"] = (s["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / passes, "s")
        metrics[f"{name}.p50_us"] = (s["p50_us"], "us")
        metrics[f"{name}.failed"] = (s["failed"], "count")
    by_layer = {s["layer"]: s for s in stats}
    points = by_layer["attack.build_suboptimal_povm"]["calls"] + by_layer["attack.build_phase_remapping_povm"]["calls"]
    metrics["numkernel.hermitian_eig.calls_per_point"] = (by_layer["numkernel.hermitian_eig"]["calls"] / points, "count")
    oracle = by_layer[tracing.ORACLE_LAYER]
    metrics["mcoracle.run_oracle.trials_per_s"] = (
        tracer.oracle_trials / oracle["incl_s"] if oracle["incl_s"] else 0.0, "1/s")
    metrics["mcoracle.run_oracle.peak_alloc_mb"] = (tracer.oracle_peak_alloc_bytes / 2**20, "MB")
    for key, value in split.items():
        metrics[key] = (value, "s")
    traced_wall = statistics.median(run["times"]["traced"])
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(run["times"]["untraced"]) - 1, "ratio")
    traced_total = sum(run["times"]["traced"])
    figures = {"traced_passes": (passes, "count"), "spans": (len(tracer.spans), "count"),
               "traced_wall_in_layer_self_time": (sum(s["self_s"] for s in stats) / traced_total, "ratio")}
    for s in stats:
        if s["calls"]:
            figures[f"{s['layer']}.self_share"] = (s["self_s"] / traced_total, "ratio")
            figures[f"{s['layer']}.incl_share"] = (s["incl_s"] / traced_total, "ratio")
    return metrics, figures


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    split = import_split() if trace else {}
    work = make_workload(name, seed)
    tracer = tracing.Tracer() if trace else None
    run = run_passes(work, seconds, tracer)
    metrics, figures = per_layer(run, tracer, split) if trace else end_to_end(work, run)
    if hasattr(work, "gate"):
        figures["oracle_max_dev_sigma"] = (work.gate.max_sigma, "sigma")
        figures["oracle_pooled_dev_sigma"] = (work.gate.pooled_sigma(), "sigma")
    figures["os_threads"] = (os_threads(), "count")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {
        "provenance": provenance(name, seed, seconds, trace), **result,
        "figures": {key: {"value": value, "unit": unit} for key, (value, unit) in figures.items()},
        "pass_times_s": run["times"], "yardstick_s": run["yardstick"], "setup_s": run["setup"],
        "errors": work.errors[:20],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.csv.gz")

    print(f"{name}  seed={seed}  {'traced' if trace else 'untraced'}  attempted={run['attempted']}  failed={run['failed']}")
    for key, (value, unit) in {**metrics, **figures}.items():
        print(f"  {key:<46} {value:>14.6g} {unit}")
    for err in work.errors[:5]:
        print(f"  miss: {err}", file=sys.stderr)
    print(json.dumps(result, default=float))
    return 0 if run["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pfmattack" / "__init__.py").is_file():
        print(f"error: no pfmattack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))
    import pfmattack

    if Path(pfmattack.__file__).resolve().parent != SRC / "pfmattack":
        print(f"error: imported pfmattack from {pfmattack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
