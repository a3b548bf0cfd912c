"""Self-tests of the benchmark at toy size (about 20 s on 2 CPUs).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics the harness
prints, that every workload emits each metric with its unit in both
modes, that layer shares plus ``unattributed.share`` sum to 1, that the
traced split agrees with the known profile (spectrum is the largest
layer of 2-D MUSIC; ESPRIT and serving never compute a spectrum; the
locate workloads never touch the dist layers), that a missing wrap
target is a 0-call layer, and that the correctness checks reject a fix
nudged by 1 mm and a duplicated ``WireFix``.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from typing import Dict, List

import run

FAILURES: List[str] = []

DIST_LAYERS = ("route", "encode", "send", "recv", "decode")


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def check_benchmark_json(layers: List[str], workloads: List[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, f"BENCHMARK.json end_to_end {declared}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == run.per_layer_units(layers), "BENCHMARK.json per_layer differs")
    names = [w["name"] for w in bench["workloads"]]
    expect(names == workloads, f"workloads in BENCHMARK.json {names} != {workloads}")


def toy(spec):
    from workloads import ServeSpec

    if isinstance(spec, ServeSpec):
        return replace(spec, sources=4, packets=4, rate_fps=400.0)
    return replace(spec, spots=2, aps=3, packets=6, warm_packets=4)


def check_workload(name: str, spec, layers: List[str]) -> None:
    from layers import LayerTracer
    from workloads import ServeSpec, run_workload

    serve = isinstance(spec, ServeSpec)
    untraced = run_workload(name, seed=3, seconds=1.0, tracer=None, spec=toy(spec))
    expect(not untraced.violations, f"{name}: violations {untraced.violations}")
    values, _details = run.end_to_end(untraced)
    metrics = run.metric_block(values, run.END_TO_END)
    for metric, unit in run.END_TO_END.items():
        entry = metrics.get(metric, {})
        expect(entry.get("unit") == unit and math.isfinite(entry.get("value", math.nan)),
               f"{name}: end-to-end {metric} missing or without unit")
        expect(entry.get("value", 0.0) > 0.0, f"{name}: end-to-end {metric} is 0")

    tracer = LayerTracer()
    traced = run_workload(name, seed=3, seconds=1.0, tracer=tracer, spec=toy(spec))
    expect(not traced.violations, f"{name} traced: violations {traced.violations}")
    expect(not tracer.installed, f"{name}: wrappers left installed")
    units = run.per_layer_units(layers)
    values = run.per_layer(traced, tracer, serve)
    metrics = run.metric_block(values, units)
    expect(set(metrics) == set(units), f"{name}: per-layer metrics differ from the declared list")
    total = sum(values[f"{layer}.share"] for layer in layers) + values["unattributed.share"]
    expect(abs(total - 1.0) < 1e-6, f"{name}: shares sum to {total}")
    calls: Dict[str, float] = {layer: values[f"{layer}.calls_per_fix"] for layer in layers}
    dist_calls = [calls[layer] for layer in DIST_LAYERS]
    if name.startswith("locate-"):
        expect(not any(dist_calls), f"{name}: dist layers called {calls}")
    if name in ("locate-esprit", "serve-sharded"):
        expect(not calls["spectrum"] and not calls["peaks"], f"{name}: spectrum called {calls}")
    if name == "locate-music2d":
        shares = {layer: values[f"{layer}.share"] for layer in layers}
        expect(max(shares, key=shares.get) == "spectrum", f"{name}: largest layer {shares}")
        # One spectrum per packet: a wrapper at the wrong binding misses calls.
        packets = toy(spec).aps * toy(spec).packets
        expect(calls["spectrum"] == packets, f"{name}: {calls['spectrum']} spectra per fix")
    if name == "locate-esprit":
        packets = toy(spec).aps * toy(spec).packets
        expect(calls["esprit"] == calls["sanitize"] == packets, f"{name}: calls {calls}")
    if serve:
        expect(all(dist_calls), f"{name}: a dist layer was not called {calls}")
    unattributed = values["unattributed.share"]
    print(f"ok   {name}: {traced.attempted} traced-run fixes, unattributed {unattributed:.4f}")


def check_missing_target() -> None:
    from layers import LayerTracer

    tracer = LayerTracer({"gone": {"targets": [("repro.core.pipeline", "no_such_function")]}})
    tracer.install()
    tracer.uninstall()
    expect(tracer.missing == ["repro.core.pipeline.no_such_function"], f"missing {tracer.missing}")
    expect(tracer.stats["gone"].calls == 0, "a missing target recorded calls")


def check_checks() -> None:
    from checks import check_one_fix_per_burst, check_positions, check_same_positions
    from repro.dist import WireFix

    fix = (3.25, 4.5)
    expect(not check_same_positions([fix], [fix]), "identical fixes rejected")
    nudged = (fix[0] + 0.001, fix[1])
    expect(bool(check_same_positions([nudged], [fix])), "a fix nudged by 1 mm passed the oracle")
    wire = WireFix(source="src-00", timestamp_s=1.5, ok=True, x=1.0, y=2.0)
    bursts = {("src-00", 1.5)}
    expect(not check_one_fix_per_burst([wire], bursts), "a single fix per burst rejected")
    expect(bool(check_one_fix_per_burst([wire, wire], bursts)), "a duplicated WireFix passed")
    expect(bool(check_one_fix_per_burst([], bursts)), "a lost fix passed")
    expect(bool(check_positions([(math.nan, 1.0)], (0, 0, 10, 10))), "a non-finite fix passed")
    expect(bool(check_positions([(11.0, 1.0)], (0, 0, 10, 10))), "a fix outside the bounds passed")


def main() -> int:
    problem = run.bootstrap()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    from layers import LAYERS
    from workloads import WORKLOADS

    layers = list(LAYERS)
    check_benchmark_json(layers, list(WORKLOADS))
    check_checks()
    check_missing_target()
    for name, spec in WORKLOADS.items():
        check_workload(name, spec, layers)
    print("selftest:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
