"""The benchmark's workloads: inputs from the simulator, timed loops.

Inputs come from ``repro.testbed`` and are built from the seed before
any timing starts.  The load comes from this one process.

* ``locate-*``: a closed loop with one caller.  ``SpotFi.locate`` runs
  on the office testbed's six office APs, 20 packets per AP per fix,
  cycling over a fixed list of office target spots until the run's time
  is up, and at least once over the whole list.  The pipeline keeps its
  clustering RNG across fixes, so fix ``k`` is a pure function of the
  seed, and so is the accuracy, taken over the first pass.
* ``serve-sharded``: an open loop.  Sixteen static sources stream frame
  by frame at a fixed offered rate through one ``ShardRouter`` into two
  shard processes.  A fix's latency runs from the due time of the frame
  that completed its burst until it leaves ``take_fixes()`` or the final
  ``flush()``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.dist import ShardConfig, ShardRouter, merge_snapshots, start_shards
from repro.errors import LocalizationError
from repro.runtime import create_executor, default_steering_cache
from repro.testbed.layout import office_testbed, small_testbed

from checks import check_one_fix_per_burst, check_positions, check_same_positions
from layers import LayerTracer

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Directory, relative to the working directory, for the shards' Unix
#: sockets (relative keeps the path under the socket-path length limit).
SOCKET_DIR = ".perfbench-run"


@dataclass(frozen=True)
class LocateSpec:
    """A closed-loop ``SpotFi.locate`` workload."""

    estimator: Optional[str]
    workers: int
    spots: int
    aps: int = 6
    packets: int = 20
    warm_packets: int = 5
    oracle: bool = False


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop sharded-serving workload."""

    shards: int = 2
    sources: int = 16
    aps: int = 4
    packets: int = 10
    rate_fps: float = 200.0


WORKLOADS: Dict[str, Any] = {
    "locate-music2d": LocateSpec(estimator=None, workers=1, spots=12),
    "locate-esprit": LocateSpec(estimator="esprit", workers=1, spots=25),
    "locate-music2d-2w": LocateSpec(estimator=None, workers=2, spots=12, oracle=True),
    "serve-sharded": ServeSpec(),
}


@dataclass
class RunResult:
    """Everything one workload run measured."""

    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    traced_latencies_ms: List[float] = field(default_factory=list)
    errors_m: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    gen_lag_ms: List[float] = field(default_factory=list)
    #: Traced-phase denominators: fixes and the harness-timed seconds
    #: the layer shares divide (locate calls, or router API calls).
    traced_fixes: int = 0
    traced_root_s: float = 0.0
    layer_extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def _vm_hwm_kb(pid: str) -> int:
    """Peak resident set of one process in KiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live child process, in MiB."""
    import multiprocessing

    total = _vm_hwm_kb("self")
    if total == 0:
        import resource

        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        total += _vm_hwm_kb(str(child.pid))
    return total / 1024.0


def _try_locate(spotfi: SpotFi, pairs: list, estimator: Optional[str]) -> Any:
    try:
        return spotfi.locate(pairs, estimator=estimator)
    except LocalizationError:
        return None


def _position(fix: Any) -> Optional[Tuple[float, float]]:
    return None if fix is None else (float(fix.position.x), float(fix.position.y))


# ----------------------------------------------------------------------
# locate-*
# ----------------------------------------------------------------------
def synth_locate(spec: LocateSpec, seed: int) -> Tuple[Any, Any, list]:
    """(testbed, simulator, [(truth, [(ap, trace), ...]), ...])."""
    testbed = office_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(seed)
    aps = testbed.office_aps()[: spec.aps]
    spots = testbed.targets_in_zone("office")[: spec.spots]
    inputs = [
        (
            spot.position,
            [(ap, sim.generate_trace(spot.position, ap, spec.packets, rng=rng)) for ap in aps],
        )
        for spot in spots
    ]
    return testbed, sim, inputs


def _new_pipeline(spec: LocateSpec, grid: Any, bounds: Any, workers: int) -> SpotFi:
    return SpotFi(
        grid,
        bounds=bounds,
        config=SpotFiConfig(packets_per_fix=spec.packets),
        rng=np.random.default_rng(0),
        executor=create_executor(workers),
    )


def run_locate(
    spec: LocateSpec, seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> RunResult:
    testbed, sim, inputs = synth_locate(spec, seed)
    warm = [(ap, trace[: spec.warm_packets]) for ap, trace in inputs[0][1]]
    result = RunResult()
    spotfi: Optional[SpotFi] = None
    try:
        for _ in range(SETUP_REPEATS):
            if spotfi is not None:
                spotfi.executor.close()
            # Each set-up starts cold: the steering grids are rebuilt.
            default_steering_cache().clear()
            start = time.perf_counter()
            spotfi = _new_pipeline(spec, sim.grid, testbed.bounds, spec.workers)
            warm_fix = _try_locate(spotfi, warm, spec.estimator)
            result.setup_s.append(time.perf_counter() - start)
        spotfi.executor.metrics.reset()
        cache_before = default_steering_cache().stats()

        positions: List[Optional[Tuple[float, float]]] = []
        errors: List[Tuple[int, float]] = []
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while k < len(inputs) or time.perf_counter() < deadline:
            truth, pairs = inputs[k % len(inputs)]
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            fix = _try_locate(spotfi, pairs, spec.estimator)
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                result.traced_fixes += 1
                result.traced_root_s += dt
            result.attempted += 1
            positions.append(_position(fix))
            if fix is None:
                result.failed += 1
            else:
                latencies = result.traced_latencies_ms if traced else result.latencies_ms
                latencies.append(1e3 * dt)
                errors.append((k, fix.error_to(truth)))
            k += 1
        result.elapsed_s = time.perf_counter() - start
        # Accuracy covers the first pass over the input list only, so it
        # does not depend on how many fixes fit in the run.
        result.errors_m = [error for index, error in errors if index < len(inputs)]

        result.layer_extra.update(_executor_extra(spotfi, inputs, cache_before))
        result.peak_rss_mb = peak_rss_mb()
        result.violations += check_positions(positions, testbed.bounds)
        if spec.oracle:
            result.violations += _serial_oracle(
                spec, sim, testbed, warm, inputs, warm_fix, positions[0]
            )
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        if spotfi is not None:
            spotfi.executor.close()
    return result


def _serial_oracle(
    spec: LocateSpec,
    sim: Any,
    testbed: Any,
    warm: list,
    inputs: list,
    warm_fix: Any,
    first: Optional[Tuple[float, float]],
) -> List[str]:
    """Replay the warm-up and first timed fix serially; demand equality."""
    serial = _new_pipeline(spec, sim.grid, testbed.bounds, workers=1)
    expected = [
        _position(_try_locate(serial, warm, spec.estimator)),
        _position(_try_locate(serial, inputs[0][1], spec.estimator)),
    ]
    return check_same_positions([_position(warm_fix), first], expected)


def _executor_extra(spotfi: SpotFi, inputs: list, cache_before: dict) -> Dict[str, float]:
    """Executor and cache figures from the program's public metrics."""
    timing = spotfi.executor.metrics.snapshot()["timings"].get("estimate")
    extra = {"executor.item_p50_ms": 0.0, "executor.busy_share": 0.0}
    if timing and timing["total_s"] > 0:
        workers = spotfi.executor.workers
        extra["executor.item_p50_ms"] = 1e3 * float(timing["quantiles"].get("p50", 0.0))
        busy_s = float(timing["histogram"]["sum"])
        extra["executor.busy_share"] = busy_s / (workers * float(timing["total_s"]))
    if spotfi.executor.workers > 1:
        array, trace = inputs[0][1][0]
        task = (spotfi.estimator_for(array), trace[0].csi, 0)
        extra["executor.task_bytes"] = float(len(pickle.dumps(task)))
    else:
        extra["executor.task_bytes"] = 0.0
    cache = default_steering_cache().stats()
    hits = cache["hits"] - cache_before["hits"]
    lookups = hits + cache["misses"] - cache_before["misses"]
    extra["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return extra


# ----------------------------------------------------------------------
# serve-sharded
# ----------------------------------------------------------------------
@dataclass
class _Schedule:
    """Pre-built frames in send order, and the bursts they complete."""

    frames: List[Tuple[str, Any]]
    #: (source, timestamp of the completing frame) -> (due offset, round)
    bursts: Dict[Tuple[str, float], Tuple[float, int]]
    truth: Dict[str, Tuple[float, float]]
    frames_per_round: int


def synth_serve(spec: ServeSpec, seed: int, seconds: float) -> Tuple[Any, _Schedule]:
    """Whole rounds of bursts, one burst per source per round."""
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = testbed.bounds
    # Sources stand still on a fixed 4 x 4 grid; the seed draws the CSI.
    grid = [
        (float(x), float(y))
        for y in np.linspace(y0 + 1.5, y1 - 1.5, 4)
        for x in np.linspace(x0 + 1.5, x1 - 1.5, 4)
    ]
    names = [f"src-{j:02d}" for j in range(spec.sources)]
    truth = {name: grid[j % len(grid)] for j, name in enumerate(names)}
    aps = testbed.aps[: spec.aps]
    per_round = spec.sources * spec.aps * spec.packets
    rounds = max(1, int(seconds * spec.rate_fps) // per_round)
    frames: List[Tuple[str, Any]] = []
    bursts: Dict[Tuple[str, float], Tuple[float, int]] = {}
    for r in range(rounds):
        traces = {
            name: [
                sim.generate_trace(truth[name], ap, spec.packets, rng=rng, source=name)
                for ap in aps
            ]
            for name in names
        }
        # One transmission is heard by every AP: packet-major order.
        for p in range(spec.packets):
            for name in names:
                for i, trace in enumerate(traces[name]):
                    due = len(frames) / spec.rate_fps
                    frames.append((f"ap{i}", replace(trace[p], timestamp_s=due)))
                    if p == spec.packets - 1 and i == len(aps) - 1:
                        bursts[(name, due)] = (due, r)
    return testbed, _Schedule(frames, bursts, truth, per_round)


def synth_warm(spec: ServeSpec, seed: int) -> Dict[str, List[Tuple[str, Any]]]:
    """Warm-up bursts at the room centre for eight candidate sources.

    Eight names are enough for the hash ring to give every shard one.
    """
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(seed + 1)
    x0, y0, x1, y1 = testbed.bounds
    center = ((x0 + x1) / 2, (y0 + y1) / 2)
    warm = {}
    for k in range(8):
        name = f"warm-{k}"
        warm[name] = [
            (f"ap{i}", frame)
            for i, ap in enumerate(testbed.aps[: spec.aps])
            for frame in sim.generate_trace(center, ap, spec.packets, rng=rng, source=name)
        ]
    return warm


def _warm_up(router: ShardRouter, warm: Dict[str, List[Tuple[str, Any]]]) -> None:
    """One burst for a source on each shard, so every shard is warm."""
    owners: Dict[str, str] = {}
    for name in warm:
        owners.setdefault(router.owner_of(name), name)
    for name in owners.values():
        for ap_id, frame in warm[name]:
            router.ingest(ap_id, frame)
    router.flush()


def _stop_cluster(shards: Dict[str, Any], router: Optional[ShardRouter]) -> None:
    try:
        if router is not None:
            router.shutdown()
            router.close()
    finally:
        for proc in shards.values():
            if proc.join(10.0) is None:
                proc.kill()
                proc.join(10.0)


def _shard_totals(router: ShardRouter) -> Dict[str, Any]:
    replies = router.pull_metrics()
    snapshots = [r["snapshot"] for r in replies if isinstance(r.get("snapshot"), dict)]
    return merge_snapshots(snapshots) if snapshots else {"counters": {}, "timings": {}}


def run_serve(
    spec: ServeSpec, seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> RunResult:
    testbed, schedule = synth_serve(spec, seed, seconds)
    warm = synth_warm(spec, seed)
    config = ShardConfig(
        shard_id="bench",
        testbed="small",
        packets_per_fix=spec.packets,
        min_aps=2,
        estimator="coarse",
        track=True,
        seed=seed,
    )
    result = RunResult()
    os.makedirs(SOCKET_DIR, exist_ok=True)
    shards: Dict[str, Any] = {}
    router: Optional[ShardRouter] = None
    try:
        for _ in range(SETUP_REPEATS):
            if router is not None:
                _stop_cluster(shards, router)
                router = None
            start = time.perf_counter()
            shards = start_shards(spec.shards, config, SOCKET_DIR)
            router = ShardRouter({shard_id: proc.spec for shard_id, proc in shards.items()})
            _warm_up(router, warm)
            result.setup_s.append(time.perf_counter() - start)
        before = _shard_totals(router)
        sent_before = dict(router.metrics.snapshot()["counters"])

        received: List[Any] = []
        arrival: List[float] = []
        traced_rounds = set()
        api_s = 0.0
        start = time.perf_counter()
        for i, (ap_id, frame) in enumerate(schedule.frames):
            if tracer is not None and i % schedule.frames_per_round == 0:
                # Alternate rounds: even rounds untraced, odd rounds traced.
                r = i // schedule.frames_per_round
                if r % 2 == 1:
                    tracer.install()
                    traced_rounds.add(r)
                elif tracer.installed:
                    tracer.uninstall()
            due = start + frame.timestamp_s
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            result.gen_lag_ms.append(1e3 * (now - due))
            router.ingest(ap_id, frame)
            fixes = router.take_fixes()
            done = time.perf_counter()
            if tracer is not None and tracer.installed:
                api_s += done - now
            received += fixes
            arrival += [done] * len(fixes)
        t0 = time.perf_counter()
        fixes = router.flush()
        done = time.perf_counter()
        if tracer is not None and tracer.installed:
            api_s += done - t0
            tracer.uninstall()
        received += fixes
        arrival += [done] * len(fixes)
        result.elapsed_s = done - start

        result.violations += check_one_fix_per_burst(received, set(schedule.bursts))
        result.attempted = len(schedule.bursts)
        seen = set()
        positions = []
        for fix, when in zip(received, arrival):
            key = (fix.source, fix.timestamp_s)
            if key not in schedule.bursts or key in seen:
                continue
            seen.add(key)
            if not fix.ok:
                continue
            positions.append((fix.x, fix.y))
            due, r = schedule.bursts[key]
            latency = 1e3 * (when - (start + due))
            latencies = result.traced_latencies_ms if r in traced_rounds else result.latencies_ms
            latencies.append(latency)
            tx, ty = schedule.truth[fix.source]
            result.errors_m.append(float(np.hypot(fix.x - tx, fix.y - ty)))
        result.failed = result.attempted - len(positions)
        result.violations += check_positions(positions, testbed.bounds)
        result.traced_fixes = sum(1 for _due, r in schedule.bursts.values() if r in traced_rounds)
        result.traced_root_s = api_s
        result.layer_extra.update(_serve_extra(router, before, sent_before))
        result.peak_rss_mb = peak_rss_mb()
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        _stop_cluster(shards, router)
        shutil.rmtree(SOCKET_DIR, ignore_errors=True)
    return result


def _serve_extra(
    router: ShardRouter, before: Dict[str, Any], sent_before: Dict[str, int]
) -> Dict[str, float]:
    """Router counters and shard snapshots, as deltas over the timed phase."""
    after = _shard_totals(router)
    sent = router.metrics.snapshot()["counters"]

    def delta(counters_after: Dict[str, int], counters_before: Dict[str, int], name: str) -> float:
        return float(counters_after.get(name, 0) - counters_before.get(name, 0))

    def p50_ms(stage_prefix: str) -> float:
        for stage, timing in after["timings"].items():
            if stage == stage_prefix or stage.startswith(stage_prefix + "."):
                return 1e3 * float(timing["quantiles"].get("p50", 0.0))
        return 0.0

    shard_after, shard_before = after["counters"], before["counters"]
    batches = delta(sent, sent_before, "dist.batches.sent")
    drops = sum(
        delta(shard_after, shard_before, name) for name in shard_after if name.startswith("drop.")
    )
    return {
        "dist.frames_per_batch": delta(sent, sent_before, "dist.frames.sent") / max(1.0, batches),
        "shard.fix_p50_ms": p50_ms("fix"),
        "shard.estimate_p50_ms": p50_ms("estimate"),
        "shard.ingest_accepted": delta(shard_after, shard_before, "ingest.accepted"),
        "shard.drops": drops,
        "track.confirmed": delta(shard_after, shard_before, "track.confirmed"),
        "track.gated": delta(shard_after, shard_before, "track.gated"),
    }


def run_workload(
    name: str, seed: int, seconds: float, tracer: Optional[LayerTracer], spec: Any = None
) -> RunResult:
    """Run one workload; ``spec`` overrides its sizes (self-tests)."""
    spec = spec or WORKLOADS[name]
    if isinstance(spec, ServeSpec):
        return run_serve(spec, seed, seconds, tracer)
    return run_locate(spec, seed, seconds, tracer)
