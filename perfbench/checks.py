"""Correctness checks on the program's outputs.

Each check returns a list of human-readable violations; an empty list
means the outputs are correct.  A failed fix (``None`` position, or a
``WireFix`` with ``ok`` false) is counted as a failure, not a violation.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

#: Parallel and serial fixes must agree to within this many metres.
ORACLE_TOLERANCE_M = 1e-9

Position = Optional[Tuple[float, float]]


def check_positions(
    positions: Iterable[Position], bounds: Tuple[float, float, float, float]
) -> List[str]:
    """Every fix is finite and inside the testbed's bounds."""
    x0, y0, x1, y1 = bounds
    violations = []
    for k, position in enumerate(positions):
        if position is None:
            continue
        x, y = position
        if not (math.isfinite(x) and math.isfinite(y)):
            violations.append(f"fix {k}: non-finite position ({x}, {y})")
        elif not (x0 <= x <= x1 and y0 <= y <= y1):
            violations.append(f"fix {k}: ({x:.3f}, {y:.3f}) outside bounds {bounds}")
    return violations


def check_same_positions(actual: Sequence[Position], expected: Sequence[Position]) -> List[str]:
    """Fixes from two executors on the same inputs are identical."""
    violations = []
    for k, (a, e) in enumerate(zip(actual, expected)):
        if (a is None) != (e is None):
            violations.append(f"oracle fix {k}: {a} vs serial {e}")
        elif a is not None and e is not None:
            distance = math.hypot(a[0] - e[0], a[1] - e[1])
            if not distance <= ORACLE_TOLERANCE_M:
                violations.append(f"oracle fix {k}: {a} is {distance:.3g} m from serial {e}")
    if len(actual) != len(expected):
        violations.append(f"oracle: {len(actual)} fixes vs {len(expected)} serial fixes")
    return violations


def check_one_fix_per_burst(fixes: Iterable[Any], bursts: Set[Tuple[str, float]]) -> List[str]:
    """Exactly one fix per (source, completing-frame timestamp) burst."""
    violations = []
    seen: Set[Tuple[str, float]] = set()
    for fix in fixes:
        key = (fix.source, fix.timestamp_s)
        if key not in bursts:
            violations.append(f"fix for unknown burst {key}")
        elif key in seen:
            violations.append(f"duplicate fix for burst {key}")
        seen.add(key)
    missing = len(bursts - seen)
    if missing:
        violations.append(f"{missing} of {len(bursts)} bursts produced no fix")
    return violations
