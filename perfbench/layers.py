"""Per-layer timing by wrapping the program's functions from outside.

Every layer is named after the module it times.  ``LAYERS`` maps each
layer to the bindings its callers look up at call time (the importing
module's attribute, or the class attribute for methods), so a wrapper
installed there sees every call the pipeline makes.  A binding that no
longer exists is recorded as missing and the layer reports 0 calls.

``LayerTracer`` keeps one span stack for the calling thread (the
pipeline and the router are single-threaded).  A layer's self time is
its inclusive time minus the inclusive time of the wrapped calls made
inside it; the self times of all layers therefore partition the time
spent inside top-level wrapped calls, and whatever the harness measured
around them that no layer covers is reported as ``unattributed``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> (module path, attribute path) bindings to wrap, plus what
#: the layer is expected to move: (end-to-end metric, workloads).
LAYERS: Dict[str, Dict[str, Any]] = {
    "sanitize": {
        "module": "repro.core.sanitize",
        "targets": [
            ("repro.core.estimator", "sanitize_csi"),
            ("repro.core.esprit", "sanitize_csi"),
        ],
        "moves": ("fixes_per_s", ["locate-esprit"]),
    },
    "smooth": {
        "module": "repro.core.smoothing",
        "targets": [
            ("repro.core.estimator", "smooth_csi"),
            ("repro.core.esprit", "smooth_csi"),
        ],
        "moves": ("fixes_per_s", ["locate-esprit"]),
    },
    "subspace": {
        "module": "repro.core.music (covariance, subspaces)",
        "targets": [
            ("repro.core.estimator", "covariance"),
            ("repro.core.estimator", "subspaces"),
            ("repro.core.esprit", "covariance"),
            ("repro.core.esprit", "forward_backward_average"),
        ],
        "moves": ("fixes_per_s", ["locate-esprit"]),
    },
    "spectrum": {
        "module": "repro.core.music (spectrum)",
        "targets": [
            ("repro.core.estimator", "music_spectrum"),
            ("repro.core.estimator", "music_spectrum_from_signal"),
        ],
        "moves": (
            "fixes_per_s, fix_p50_ms",
            ["locate-music2d", "locate-music2d-2w"],
        ),
    },
    "peaks": {
        "module": "repro.core.peaks",
        "targets": [
            ("repro.core.estimator", "find_peaks_2d"),
            ("repro.core.estimator", "merge_close_peaks"),
        ],
        "moves": (
            "fixes_per_s, fix_p50_ms",
            ["locate-music2d", "locate-music2d-2w"],
        ),
    },
    "esprit": {
        "module": "repro.core.esprit",
        "targets": [("repro.core.esprit", "EspritEstimator.estimate_packet")],
        "moves": ("fixes_per_s", ["locate-esprit"]),
    },
    "cluster": {
        "module": "repro.core.clustering + repro.core.direct_path",
        "targets": [
            ("repro.core.pipeline", "cluster_estimates"),
            ("repro.core.pipeline", "select_direct_path"),
        ],
        "moves": ("fixes_per_s, fix_p50_ms", ["locate-esprit", "serve-sharded"]),
    },
    "solve": {
        "module": "repro.core.localization",
        "targets": [
            ("repro.core.localization", "Localizer.locate"),
            ("repro.core.localization", "Localizer.locate_aoa_only"),
        ],
        "moves": ("fixes_per_s, fix_p50_ms", ["locate-esprit", "serve-sharded"]),
    },
    "adapt": {
        "module": "repro.estimators.base",
        "targets": [
            ("repro.estimators", "to_report"),
            ("repro.estimators", "from_report"),
            ("repro.estimators.music2d", "from_report"),
        ],
        "moves": ("fixes_per_s, fix_p50_ms", ["locate-esprit", "serve-sharded"]),
    },
    "executor": {
        "module": "repro.runtime.executor",
        "targets": [
            ("repro.runtime.executor", "SerialExecutor.map_ordered"),
            ("repro.runtime.executor", "ParallelExecutor.map_ordered"),
        ],
        "moves": ("fixes_per_s, fix_p50_ms", ["locate-music2d-2w"]),
    },
    "route": {
        "module": "repro.dist.router",
        "targets": [("repro.dist.router", "ShardRouter._route")],
        "moves": ("fix_p50_ms, fix_tail_ms", ["serve-sharded"]),
    },
    "encode": {
        "module": "repro.dist.protocol (encode)",
        "targets": [
            ("repro.dist.protocol", "encode_frames"),
            ("repro.dist.protocol", "encode_traced_ingest"),
            ("repro.dist.protocol", "encode_json"),
        ],
        "moves": ("fix_p50_ms, fix_tail_ms", ["serve-sharded"]),
    },
    "send": {
        "module": "repro.dist.protocol (send)",
        "targets": [("repro.dist.protocol", "send_message")],
        "moves": ("fix_p50_ms, fix_tail_ms", ["serve-sharded"]),
    },
    "recv": {
        "module": "repro.dist.protocol (recv)",
        "targets": [("repro.dist.protocol", "recv_message")],
        "moves": ("fix_p50_ms, fix_tail_ms", ["serve-sharded"]),
    },
    "decode": {
        "module": "repro.dist.protocol (decode)",
        "targets": [
            ("repro.dist.protocol", "decode_fixes"),
            ("repro.dist.protocol", "decode_json"),
        ],
        "moves": ("fix_p50_ms, fix_tail_ms", ["serve-sharded"]),
    },
}


def _spectrum_cost(args: tuple, kwargs: dict) -> Tuple[float, float]:
    """(flops, bytes) of one spectrum call, from its operand shapes.

    The kernel contracts phi (A, M) with the subspace (M*N, K) into
    (A, N, K), then with omega (T, N) into (A, T, K), and reduces
    ``|.|^2`` over K.  A complex multiply-add is 8 real flops.  Bytes
    count every operand, both complex intermediates and the float64
    result once each.
    """
    e, phi, omega = args[0], kwargs.get("phi"), kwargs.get("omega")
    if phi is None or omega is None:
        return 0.0, 0.0
    a, m = phi.shape
    t, n = omega.shape
    k = e.shape[1]
    flops = 8.0 * (a * m * n * k + a * n * k * t) + 3.0 * a * t * k
    moved = 16.0 * (a * m + t * n + m * n * k + a * n * k + a * t * k) + 8.0 * a * t
    return flops, moved


def _count_spectrum(stat: "LayerStat", args: tuple, kwargs: dict, result: Any) -> None:
    flops, moved = _spectrum_cost(args, kwargs)
    stat.extra["ops"] = stat.extra.get("ops", 0.0) + flops
    stat.extra["bytes"] = stat.extra.get("bytes", 0.0) + moved


def _count_peaks(stat: "LayerStat", args: tuple, kwargs: dict, result: Any) -> None:
    # Counted once per packet, on the merge step that ends peak search.
    stat.extra["packets"] = stat.extra.get("packets", 0) + 1
    stat.extra["peaks"] = stat.extra.get("peaks", 0) + len(result)


def _count_clusters(stat: "LayerStat", args: tuple, kwargs: dict, result: Any) -> None:
    if isinstance(result, list):
        stat.extra["aps"] = stat.extra.get("aps", 0) + 1
        stat.extra["clusters"] = stat.extra.get("clusters", 0) + len(result)


def _count_solve(stat: "LayerStat", args: tuple, kwargs: dict, result: Any) -> None:
    stat.extra["iterations"] = stat.extra.get("iterations", 0) + int(
        getattr(result, "iterations", 0)
    )


def _count_encode(stat: "LayerStat", args: tuple, kwargs: dict, result: Any) -> None:
    if isinstance(result, bytes):
        stat.extra["bytes"] = stat.extra.get("bytes", 0) + len(result)


COUNTERS: Dict[Tuple[str, str], Callable[..., None]] = {
    ("repro.core.estimator", "music_spectrum"): _count_spectrum,
    ("repro.core.estimator", "music_spectrum_from_signal"): _count_spectrum,
    ("repro.core.estimator", "merge_close_peaks"): _count_peaks,
    ("repro.core.pipeline", "cluster_estimates"): _count_clusters,
    ("repro.core.localization", "Localizer.locate"): _count_solve,
    ("repro.core.localization", "Localizer.locate_aoa_only"): _count_solve,
    ("repro.dist.protocol", "encode_frames"): _count_encode,
    ("repro.dist.protocol", "encode_traced_ingest"): _count_encode,
}


@dataclass
class LayerStat:
    """Calls, inclusive and self seconds of one layer, plus its counts."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


def _resolve(module_path: str, attr_path: str) -> Optional[Tuple[Any, str, Any]]:
    """(owner, attribute name, current value) of a binding, or None."""
    try:
        owner: Any = importlib.import_module(module_path)
    except ImportError:
        return None
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(name)  # the class's own function, unbound
    else:
        value = getattr(owner, name, None)
    if value is None or not callable(value):
        return None
    return owner, name, value


class LayerTracer:
    """Installs timing wrappers at every binding in ``LAYERS``.

    ``install()`` and ``uninstall()`` may alternate between fixes, so
    one run can time traced and untraced fixes on the same inputs.
    """

    def __init__(self, layers: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self.layers = LAYERS if layers is None else layers
        self.stats: Dict[str, LayerStat] = {name: LayerStat() for name in self.layers}
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        wrappers: Dict[int, Any] = {}
        for layer, spec in self.layers.items():
            for module_path, attr_path in spec["targets"]:
                found = _resolve(module_path, attr_path)
                if found is None:
                    self.missing.append(f"{module_path}.{attr_path}")
                    continue
                owner, name, original = found
                counter = COUNTERS.get((module_path, attr_path))
                key = id(original)
                if key not in wrappers:
                    # Methods receive ``self`` first; counters want operands.
                    skip = 1 if isinstance(owner, type) else 0
                    wrappers[key] = self._wrap(layer, original, counter, skip)
                self._patches.append((owner, name, original, wrappers[key]))
        self.installed = False

    def _wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        counter: Optional[Callable[..., None]],
        skip: int,
    ) -> Callable[..., Any]:
        stat = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.inclusive_s += elapsed
                stat.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                counter(stat, args[skip:], kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in reversed(self._patches):
            setattr(owner, name, original)
        self.installed = False

    def covered_s(self) -> float:
        """Seconds spent inside wrapped calls (sum of all self times)."""
        return sum(stat.self_s for stat in self.stats.values())

