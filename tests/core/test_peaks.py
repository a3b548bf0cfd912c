"""Tests for 2-D spectrum peak extraction."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core.peaks import SpectrumPeak, _refine_axis, find_peaks_2d, merge_close_peaks
from repro.errors import ConfigurationError

AOA_GRID = np.arange(-90.0, 91.0, 1.0)
TOF_GRID = np.arange(0.0, 200e-9, 2.5e-9)


def gaussian_bump(center_i, center_j, height, width=3.0):
    ii, jj = np.meshgrid(
        np.arange(len(AOA_GRID)), np.arange(len(TOF_GRID)), indexing="ij"
    )
    return height * np.exp(-((ii - center_i) ** 2 + (jj - center_j) ** 2) / (2 * width**2))


def reference_find_peaks_2d(
    spectrum,
    aoa_grid_deg,
    tof_grid_s,
    max_peaks=8,
    min_rel_height_db=20.0,
    neighborhood=3,
    exclude_border=True,
):
    """The full-grid ``scipy.ndimage`` peak search: test-only oracle."""
    spec = np.asarray(spectrum, dtype=float)
    local_max = ndimage.maximum_filter(spec, size=neighborhood, mode="nearest")
    is_peak = (spec >= local_max) & (spec > 0)
    local_min = ndimage.minimum_filter(spec, size=neighborhood, mode="nearest")
    is_peak &= spec > local_min * (1.0 + 1e-12)
    if exclude_border:
        is_peak[0, :] = is_peak[-1, :] = False
        is_peak[:, 0] = is_peak[:, -1] = False
    rows, cols = np.nonzero(is_peak)
    if rows.size == 0:
        return []
    powers = spec[rows, cols]
    order = np.argsort(powers)[::-1]
    floor = powers[order[0]] * 10.0 ** (-min_rel_height_db / 10.0)
    peaks = []
    for idx in order:
        if len(peaks) >= max_peaks or powers[idx] < floor:
            break
        i, j = int(rows[idx]), int(cols[idx])
        peaks.append(
            SpectrumPeak(
                aoa_deg=float(_refine_axis(spec, aoa_grid_deg, i, j, axis=0)),
                tof_s=float(_refine_axis(spec, tof_grid_s, i, j, axis=1)),
                power=float(powers[idx]),
            )
        )
    return peaks


def assert_matches_reference(spec, aoa_grid=AOA_GRID, tof_grid=TOF_GRID, **kwargs):
    """Exact equality, with limits loose enough to compare every peak."""
    kwargs.setdefault("max_peaks", 10**6)
    kwargs.setdefault("min_rel_height_db", 1000.0)
    expected = reference_find_peaks_2d(spec, aoa_grid, tof_grid, **kwargs)
    assert find_peaks_2d(spec, aoa_grid, tof_grid, **kwargs) == expected
    return expected


@pytest.fixture(scope="module")
def simulator_spectra():
    """MUSIC spectra of simulated office packets, as the pipeline makes them."""
    from repro.core.pipeline import SpotFi
    from repro.testbed.layout import office_testbed

    testbed = office_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(11)
    spotfi = SpotFi(sim.grid, bounds=testbed.bounds)
    target = testbed.targets_in_zone("office")[0].position
    spectra = []
    for ap in testbed.office_aps()[:3]:
        estimator = spotfi.estimator_for(ap)
        for frame in sim.generate_trace(target, ap, 4, rng=rng):
            spectra.append(estimator.spectrum(frame.csi))
    return spectra


class TestMatchesNdimageReference:
    def test_simulator_spectra(self, simulator_spectra):
        found = 0
        for spectrum, aoa_grid, tof_grid in simulator_spectra:
            found += len(assert_matches_reference(spectrum, aoa_grid, tof_grid))
            # And with the pipeline's own limits.
            assert find_peaks_2d(spectrum, aoa_grid, tof_grid, max_peaks=12) == (
                reference_find_peaks_2d(spectrum, aoa_grid, tof_grid, max_peaks=12)
            )
        assert found > len(simulator_spectra)

    @pytest.mark.parametrize("neighborhood", [3, 5, 7])
    @pytest.mark.parametrize("exclude_border", [True, False])
    def test_simulator_spectra_window_and_border(
        self, simulator_spectra, neighborhood, exclude_border
    ):
        for spectrum, aoa_grid, tof_grid in simulator_spectra[::3]:
            assert_matches_reference(
                spectrum,
                aoa_grid,
                tof_grid,
                neighborhood=neighborhood,
                exclude_border=exclude_border,
            )

    @pytest.mark.parametrize("neighborhood", [3, 5])
    @pytest.mark.parametrize("exclude_border", [True, False])
    def test_plateaus(self, neighborhood, exclude_border):
        rng = np.random.default_rng(5)
        # Quantized noise: flat runs, ties and plateaus of every size.
        quantized = np.round(rng.random((len(AOA_GRID), len(TOF_GRID))) * 3) / 3
        assert_matches_reference(
            quantized, neighborhood=neighborhood, exclude_border=exclude_border
        )
        # A flat floor with raised flat-topped mesas and single spikes.
        mesas = np.full((len(AOA_GRID), len(TOF_GRID)), 0.5)
        mesas[40:44, 20:23] = 2.0
        mesas[100:101, 50:52] = 3.0
        mesas[rng.integers(2, 178, 15), rng.integers(2, 78, 15)] = 4.0
        assert assert_matches_reference(
            mesas, neighborhood=neighborhood, exclude_border=exclude_border
        )
        # Zeros and negative values are never peaks.
        signed = np.round(rng.standard_normal((len(AOA_GRID), len(TOF_GRID))), 1)
        assert_matches_reference(
            signed, neighborhood=neighborhood, exclude_border=exclude_border
        )

    @pytest.mark.parametrize("neighborhood", [3, 5])
    @pytest.mark.parametrize("exclude_border", [True, False])
    def test_border_ridges(self, neighborhood, exclude_border):
        rng = np.random.default_rng(9)
        spec = 0.1 + 0.01 * rng.random((len(AOA_GRID), len(TOF_GRID)))
        spec[0, :] += 5.0  # ridge on the border row
        spec[1, 30:60] += 4.0  # ridge one row in, shadowed by it
        spec[:, -1] += 3.0  # ridge on the border column
        spec[:, -3] += np.linspace(1.0, 2.0, len(AOA_GRID))  # ramp near it
        spec[2, 2] = 9.0  # interior spike whose window reaches the corner
        spec[1:3, 70:73] = 6.0  # mesa whose window minimum is on the border
        spec[-2, -2] = 8.0  # spike next to the far corner
        assert assert_matches_reference(
            spec, neighborhood=neighborhood, exclude_border=exclude_border
        )

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (2, 2), (3, 3), (3, 7), (4, 1), (4, 4), (6, 3)]
    )
    @pytest.mark.parametrize("neighborhood", [3, 5, 7])
    @pytest.mark.parametrize("exclude_border", [True, False])
    def test_tiny_grids(self, shape, neighborhood, exclude_border):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        aoa, tof = np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float)
        for _ in range(20):
            spec = rng.random(shape)
            assert_matches_reference(
                spec, aoa, tof, neighborhood=neighborhood, exclude_border=exclude_border
            )

    def test_random_fields(self):
        rng = np.random.default_rng(13)
        for neighborhood in (3, 5, 7):
            spec = rng.random((len(AOA_GRID), len(TOF_GRID)))
            assert assert_matches_reference(spec, neighborhood=neighborhood)


class TestFindPeaks:
    def test_single_peak_found(self):
        spec = gaussian_bump(60, 30, 100.0) + 0.1
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert len(peaks) == 1
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[60], abs=0.5)
        assert peaks[0].tof_s == pytest.approx(TOF_GRID[30], abs=2.5e-9)

    def test_two_peaks_ordered_by_power(self):
        spec = gaussian_bump(40, 20, 100.0) + gaussian_bump(120, 60, 50.0) + 0.1
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert len(peaks) == 2
        assert peaks[0].power > peaks[1].power
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[40], abs=0.5)

    def test_weak_peak_dropped_by_threshold(self):
        spec = gaussian_bump(40, 20, 100.0) + gaussian_bump(120, 60, 0.5) + 0.01
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID, min_rel_height_db=20.0)
        assert len(peaks) == 1

    def test_max_peaks_cap(self):
        spec = 0.1 + sum(
            gaussian_bump(20 + 30 * k, 10 + 12 * k, 100.0 - k) for k in range(5)
        )
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID, max_peaks=3)
        assert len(peaks) == 3

    def test_border_peaks_excluded(self):
        spec = np.full((len(AOA_GRID), len(TOF_GRID)), 0.1)
        spec[0, 20] = 100.0  # ridge clipped at the -90 deg border
        assert find_peaks_2d(spec, AOA_GRID, TOF_GRID) == []
        kept = find_peaks_2d(spec, AOA_GRID, TOF_GRID, exclude_border=False)
        assert len(kept) == 1

    def test_flat_spectrum_yields_nothing(self):
        spec = np.ones((len(AOA_GRID), len(TOF_GRID)))
        assert find_peaks_2d(spec, AOA_GRID, TOF_GRID) == []

    def test_subcell_refinement(self):
        # A peak whose true center falls between grid cells must be
        # interpolated toward it.
        ii, jj = np.meshgrid(
            np.arange(len(AOA_GRID)), np.arange(len(TOF_GRID)), indexing="ij"
        )
        spec = 0.01 + 100.0 * np.exp(-((ii - 60.4) ** 2 + (jj - 30.0) ** 2) / 8.0)
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[0] + 60.4, abs=0.1)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            find_peaks_2d(np.ones(10), AOA_GRID, TOF_GRID)
        with pytest.raises(ConfigurationError):
            find_peaks_2d(np.ones((5, 5)), AOA_GRID, TOF_GRID)
        with pytest.raises(ConfigurationError):
            find_peaks_2d(
                np.ones((len(AOA_GRID), len(TOF_GRID))),
                AOA_GRID,
                TOF_GRID,
                neighborhood=4,
            )


class TestMerge:
    def test_close_peaks_merged_keeping_strongest(self):
        peaks = [
            SpectrumPeak(10.0, 50e-9, 100.0),
            SpectrumPeak(12.0, 52e-9, 80.0),  # close in both axes
            SpectrumPeak(40.0, 50e-9, 60.0),
        ]
        merged = merge_close_peaks(peaks)
        assert len(merged) == 2
        assert merged[0].power == 100.0

    def test_close_in_one_axis_only_not_merged(self):
        peaks = [
            SpectrumPeak(10.0, 50e-9, 100.0),
            SpectrumPeak(11.0, 150e-9, 80.0),  # same AoA, far ToF
        ]
        assert len(merge_close_peaks(peaks)) == 2

    def test_empty_input(self):
        assert merge_close_peaks([]) == []
