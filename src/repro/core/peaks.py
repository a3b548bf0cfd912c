"""2-D spectrum peak extraction (paper Alg. 2 line 7).

Finds local maxima of the MUSIC pseudospectrum, refines them with a
quadratic (log-domain) interpolation around the grid cell, and returns the
strongest few as (AoA, ToF, power) triples.

A separable running maximum over shifted views of the edge-padded
spectrum finds the candidate cells (only the interior ones when the
grid border is excluded, which is how the pipeline calls it), and the
plateau test (strictly above the window minimum) runs on the candidates
alone.  The cells are those of ``scipy.ndimage``'s maximum/minimum
filters with ``mode="nearest"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.indexcache import index_vector
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SpectrumPeak:
    """One local maximum of the MUSIC spectrum.

    Attributes
    ----------
    aoa_deg, tof_s:
        Refined peak coordinates.
    power:
        Pseudospectrum value at the peak (linear).
    """

    aoa_deg: float
    tof_s: float
    power: float


def _parabolic_offset(left: float, center: float, right: float) -> float:
    """Sub-cell offset in [-0.5, 0.5] of a parabola through three samples."""
    denom = left - 2.0 * center + right
    if denom >= -1e-300:  # not strictly concave; stay on the grid point
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


#: A peak must exceed its window minimum by this relative margin.
_PLATEAU_REL = 1e-12


def _peak_cells(
    spec: np.ndarray, neighborhood: int, exclude_border: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the local maxima of ``spec``.

    Same cells as the ``mode="nearest"`` ndimage filters, with the outer
    ring dropped when ``exclude_border``.  A cell is a candidate when it
    is >= the maximum of its window, computed separably (rows, then
    columns) over shifted views of the spectrum padded with its edge
    rows/columns, which is the "nearest" boundary rule; only candidates
    pay for the positivity and plateau tests.
    """
    num_rows, num_cols = spec.shape
    border = 1 if exclude_border else 0
    out_rows, out_cols = num_rows - 2 * border, num_cols - 2 * border
    if out_rows < 1 or out_cols < 1:
        return index_vector(0), index_vector(0)
    # After padding by radius - border, searched cell (i, j) sits at
    # (i + radius - border, j + radius - border) and its window starts at
    # (i - border, j - border).
    pad = neighborhood // 2 - border
    padded = spec if pad == 0 else np.pad(spec, pad, mode="edge")
    row_max = np.maximum(padded[:out_rows], padded[1 : out_rows + 1])
    for d in range(2, neighborhood):
        np.maximum(row_max, padded[d : out_rows + d], out=row_max)
    local_max = np.maximum(row_max[:, :out_cols], row_max[:, 1 : out_cols + 1])
    for d in range(2, neighborhood):
        np.maximum(local_max, row_max[:, d : out_cols + d], out=local_max)
    center = spec[border : num_rows - border, border : num_cols - border]
    rows, cols = np.nonzero(center >= local_max)
    rows += border
    cols += border
    values = spec[rows, cols]
    keep = values > 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    # Window minimum at the candidates only; clipping the window to the
    # grid is the "nearest" boundary rule.  A constant plateau makes every
    # cell a maximum; strictly above the window minimum rejects it.
    d_rows, d_cols = _window_offsets(neighborhood)
    win_rows = np.clip(rows[:, None] + d_rows, 0, num_rows - 1)
    win_cols = np.clip(cols[:, None] + d_cols, 0, num_cols - 1)
    local_min = spec[win_rows, win_cols].min(axis=1)
    keep = values > local_min * (1.0 + _PLATEAU_REL)
    return rows[keep], cols[keep]


def _window_offsets(neighborhood: int) -> Tuple[np.ndarray, np.ndarray]:
    """(row, col) offsets of every cell of a square window, flattened."""
    cells = index_vector(neighborhood * neighborhood)
    d_rows, d_cols = np.divmod(cells, neighborhood)
    radius = neighborhood // 2
    return d_rows - radius, d_cols - radius


def find_peaks_2d(
    spectrum: np.ndarray,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    max_peaks: int = 8,
    min_rel_height_db: float = 20.0,
    neighborhood: int = 3,
    exclude_border: bool = True,
) -> List[SpectrumPeak]:
    """Extract local maxima from a 2-D pseudospectrum.

    Parameters
    ----------
    spectrum:
        (len(aoa_grid), len(tof_grid)) positive values.
    aoa_grid_deg, tof_grid_s:
        The grids the spectrum was evaluated on.
    max_peaks:
        Keep at most this many strongest peaks.
    min_rel_height_db:
        Drop peaks more than this many dB below the strongest peak.
    neighborhood:
        Odd size of the local-maximum window (3 = 8-connected).
    exclude_border:
        Drop maxima on the outermost grid rows/columns.  A maximum pinned
        to the grid border is almost always the clipped shoulder of an
        out-of-window ridge, not a real path; such artifacts recur
        identically across packets and would otherwise form deceptively
        tight clusters.

    Returns
    -------
    list of :class:`SpectrumPeak`, strongest first.  Empty only for a
    flat spectrum.
    """
    spec = np.asarray(spectrum, dtype=float)
    if spec.ndim != 2:
        raise ConfigurationError(f"spectrum must be 2-D, got shape {spec.shape}")
    if spec.shape != (len(aoa_grid_deg), len(tof_grid_s)):
        raise ConfigurationError(
            f"spectrum shape {spec.shape} does not match grids "
            f"({len(aoa_grid_deg)}, {len(tof_grid_s)})"
        )
    if neighborhood % 2 == 0 or neighborhood < 3:
        raise ConfigurationError(f"neighborhood must be odd and >= 3, got {neighborhood}")

    rows, cols = _peak_cells(spec, neighborhood, exclude_border)
    if rows.size == 0:
        return []
    powers = spec[rows, cols]
    order = np.argsort(powers)[::-1]
    strongest = powers[order[0]]
    floor = strongest * 10.0 ** (-min_rel_height_db / 10.0)

    peaks: List[SpectrumPeak] = []
    for idx in order:
        if len(peaks) >= max_peaks:
            break
        power = float(powers[idx])
        if power < floor:
            break
        i, j = int(rows[idx]), int(cols[idx])
        aoa = _refine_axis(spec, aoa_grid_deg, i, j, axis=0)
        tof = _refine_axis(spec, tof_grid_s, i, j, axis=1)
        peaks.append(SpectrumPeak(aoa_deg=float(aoa), tof_s=float(tof), power=power))
    return peaks


def _refine_axis(spec: np.ndarray, grid: np.ndarray, i: int, j: int, axis: int) -> float:
    """Quadratic sub-grid refinement of a peak along one axis (log domain)."""
    n = spec.shape[axis]
    k = i if axis == 0 else j
    if k == 0 or k == n - 1:
        return float(grid[k])
    if axis == 0:
        left, center, right = spec[i - 1, j], spec[i, j], spec[i + 1, j]
    else:
        left, center, right = spec[i, j - 1], spec[i, j], spec[i, j + 1]
    # Log-domain interpolation: MUSIC peaks are sharp, near-Gaussian in log.
    logs = np.log(np.maximum([left, center, right], 1e-300))
    offset = _parabolic_offset(logs[0], logs[1], logs[2])
    step = grid[k + 1] - grid[k] if offset >= 0 else grid[k] - grid[k - 1]
    return float(grid[k] + offset * step)


def merge_close_peaks(
    peaks: List[SpectrumPeak],
    min_aoa_sep_deg: float = 5.0,
    min_tof_sep_s: float = 10e-9,
) -> List[SpectrumPeak]:
    """Collapse peaks closer than the separation thresholds in *both* axes.

    Keeps the stronger peak of each close pair.  Peaks are assumed sorted
    strongest-first (as :func:`find_peaks_2d` returns them).
    """
    kept: List[SpectrumPeak] = []
    for peak in peaks:
        close = any(
            abs(peak.aoa_deg - k.aoa_deg) < min_aoa_sep_deg
            and abs(peak.tof_s - k.tof_s) < min_tof_sep_s
            for k in kept
        )
        if not close:
            kept.append(peak)
    return kept
