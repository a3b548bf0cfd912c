"""SpotFi benchmark: end-to-end metrics per workload, and a traced per-layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload locate-music2d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
inputs with every other fix (or serving round) traced and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the machine block and the details behind the metrics.  The exit
code is 1 when a correctness check fails, and 2 when the program's
source (``src/repro``) is not in the checkout.

The harness sets no BLAS thread limits: oversubscription on the
parallel workloads is part of what it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "fixes_per_s": "1/s",
    "fix_p50_ms": "ms",
    "fix_tail_ms": "ms",
    "mean_error_m": "m",
    "fix_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics beyond each layer's calls_per_fix, self_ms_per_fix
#: and share, with their units (``--trace 1``).
LAYER_EXTRAS = {
    "unattributed.share": "ratio",
    "spectrum.ops_per_call": "flop",
    "spectrum.bytes_per_call": "B",
    "peaks.per_packet": "count",
    "cluster.clusters_per_ap": "count",
    "solve.iterations_per_fix": "count",
    "executor.map_ms_per_fix": "ms",
    "executor.item_p50_ms": "ms",
    "executor.busy_share": "ratio",
    "executor.task_bytes": "B",
    "cache.hit_ratio": "ratio",
    "encode.bytes_per_fix": "B",
    "dist.frames_per_batch": "count",
    "shard.fix_p50_ms": "ms",
    "shard.estimate_p50_ms": "ms",
    "shard.ingest_accepted": "count",
    "shard.drops": "count",
    "track.confirmed": "count",
    "track.gated": "count",
    "shard_wait_ms": "ms",
    "gen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units(layers: Sequence[str]) -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in layers:
        units[f"{layer}.calls_per_fix"] = "count"
        units[f"{layer}.self_ms_per_fix"] = "ms"
        units[f"{layer}.share"] = "ratio"
    units.update(LAYER_EXTRAS)
    return units


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest quantile with at least 10 samples beyond it (p50 floor)."""
    return min(0.999, max(0.5, 1.0 - 10.0 / n)) if n else 0.5


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's own thread count, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(seed: int) -> Dict[str, Any]:
    import multiprocessing

    import numpy
    import scipy

    blas: Dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def end_to_end(result: Any) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metric values, and the details printed beside them."""
    latencies = result.latencies_ms
    q = tail_quantile(len(latencies))
    values = {
        "fixes_per_s": result.ok / result.elapsed_s if result.elapsed_s else 0.0,
        "fix_p50_ms": _median(latencies),
        "fix_tail_ms": quantile(latencies, q),
        "mean_error_m": statistics.fmean(result.errors_m) if result.errors_m else 0.0,
        "fix_ok_ratio": result.ok / result.attempted if result.attempted else 0.0,
        "setup_s": _median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
    }
    details = {
        "fix_tail_percentile": round(100 * q, 2),
        "fix_samples": len(latencies),
        "fix_fail_ratio": result.failed / result.attempted if result.attempted else 0.0,
        "error_samples": len(result.errors_m),
        "median_error_m": _median(result.errors_m),
        "setup_runs_s": result.setup_s,
        "gen_lag_p99_ms": quantile(result.gen_lag_ms, 0.99) if result.gen_lag_ms else None,
    }
    return values, details


def per_layer(result: Any, tracer: Any, serve: bool) -> Dict[str, float]:
    """Per-layer metric values from the traced half of a run."""
    fixes = max(1, result.traced_fixes)
    root = result.traced_root_s
    values: Dict[str, float] = {}
    for layer, stat in tracer.stats.items():
        values[f"{layer}.calls_per_fix"] = stat.calls / fixes
        values[f"{layer}.self_ms_per_fix"] = 1e3 * stat.self_s / fixes
        values[f"{layer}.share"] = stat.self_s / root if root else 0.0
    values["unattributed.share"] = 1.0 - tracer.covered_s() / root if root else 0.0
    stats = tracer.stats
    spectrum, peaks, cluster = stats["spectrum"], stats["peaks"], stats["cluster"]
    calls = max(1, spectrum.calls)
    values["spectrum.ops_per_call"] = spectrum.extra.get("ops", 0.0) / calls
    values["spectrum.bytes_per_call"] = spectrum.extra.get("bytes", 0.0) / calls
    values["peaks.per_packet"] = peaks.extra.get("peaks", 0) / max(1, peaks.extra.get("packets", 0))
    aps = max(1, cluster.extra.get("aps", 0))
    values["cluster.clusters_per_ap"] = cluster.extra.get("clusters", 0) / aps
    values["solve.iterations_per_fix"] = stats["solve"].extra.get("iterations", 0) / fixes
    values["executor.map_ms_per_fix"] = 1e3 * stats["executor"].inclusive_s / fixes
    values["encode.bytes_per_fix"] = stats["encode"].extra.get("bytes", 0) / fixes
    for name in LAYER_EXTRAS:
        values.setdefault(name, 0.0)
    values.update(result.layer_extra)
    untraced_p50 = _median(result.latencies_ms)
    traced_p50 = _median(result.traced_latencies_ms)
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50 if untraced_p50 else 0.0
    if serve:
        # Derived, not measured: what the fix spent outside the shard's
        # own fix time and the router's own work.
        router_ms = 1e3 * root / fixes
        values["shard_wait_ms"] = untraced_p50 - values["shard.fix_p50_ms"] - router_ms
        values["gen.lag_p99_ms"] = quantile(result.gen_lag_ms, 0.99)
    return values


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def bootstrap() -> Optional[str]:
    """Import the program from this checkout's ``src``; say why not."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = bootstrap()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    from layers import LAYERS, LayerTracer
    from workloads import WORKLOADS, ServeSpec, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # Constructed in both modes so both import the same modules up front;
    # only a traced run installs its wrappers.
    tracer = LayerTracer()
    result = run_workload(args.workload, args.seed, args.seconds, tracer if args.trace else None)
    values, details = end_to_end(result)
    if args.trace:
        serve = isinstance(WORKLOADS[args.workload], ServeSpec)
        metrics = metric_block(per_layer(result, tracer, serve), per_layer_units(list(LAYERS)))
    else:
        metrics = metric_block(values, END_TO_END)
    correct = not result.violations
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
        **details,
        "violations": result.violations[:20],
        "missing_wrap_targets": tracer.missing,
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
