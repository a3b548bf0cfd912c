"""Tests for MUSIC subspaces and the 2-D pseudospectrum."""

import numpy as np
import pytest

from repro.core.music import (
    MusicConfig,
    covariance,
    mdl_signal_dimension,
    music_spectrum,
    music_spectrum_from_signal,
    noise_subspace,
    spectrum_value,
    subspaces,
)
from repro.core.smoothing import PAPER_CONFIG, smooth_csi
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError


@pytest.fixture()
def model():
    return SteeringModel(3, 30, 0.029, 5.19e9, 1.25e6)


@pytest.fixture()
def sub_model(model):
    return model.subarray_model(2, 15)


def reference_energy(basis, model, aoa_grid, tof_grid):
    """``||B^H a||^2 / (M N)`` by the historical two-einsum evaluation.

    Test-only oracle for the GEMM kernel behind both spectrum functions.
    """
    m, n = model.num_antennas, model.num_subcarriers
    phi = model.antenna_vector(aoa_grid)
    omega = model.subcarrier_vector(tof_grid)
    e_grid = np.asarray(basis).conj().reshape(m, n, -1)
    partial = np.einsum("am,mnk->ank", phi, e_grid)
    proj = np.einsum("ank,tn->atk", partial, omega)
    return np.sum(np.abs(proj) ** 2, axis=2) / (m * n)


def random_basis(seed, sensors, k):
    """``k`` orthonormal complex columns in ``sensors`` dimensions."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((sensors, sensors)) + 1j * rng.standard_normal((sensors, sensors))
    q, _ = np.linalg.qr(z)
    return q[:, :k]


def max_rel_error(actual, expected):
    return float(np.max(np.abs(actual - expected) / np.abs(expected)))


def ideal_smoothed(model, aoas, tofs, gains):
    a = model.steering_matrix(aoas, tofs)
    csi = (a @ np.asarray(gains, dtype=complex)).reshape(3, 30)
    return smooth_csi(csi, PAPER_CONFIG)


class TestConfig:
    def test_grids(self):
        cfg = MusicConfig(aoa_grid_deg=(-90, 90, 1.0), tof_grid_s=(0, 100e-9, 10e-9))
        assert len(cfg.aoa_grid()) == 181
        assert len(cfg.tof_grid()) == 11

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MusicConfig(eigenvalue_threshold_ratio=0.0)
        with pytest.raises(ConfigurationError):
            MusicConfig(max_paths=0)
        with pytest.raises(ConfigurationError):
            MusicConfig(aoa_grid_deg=(90, -90, 1))
        with pytest.raises(ConfigurationError):
            MusicConfig(tof_grid_s=(0, 100e-9, 0))


class TestSubspaces:
    def test_signal_dimension_matches_path_count(self, model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, k = subspaces(covariance(x))
        assert k == 2
        assert e_s.shape == (30, 2)
        assert e_n.shape == (30, 28)

    def test_subspaces_orthonormal(self, model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, _ = subspaces(covariance(x))
        full = np.concatenate([e_s, e_n], axis=1)
        assert np.allclose(full.conj().T @ full, np.eye(30), atol=1e-10)

    def test_noise_subspace_orthogonal_to_steering(self, model, sub_model):
        aoas, tofs = [20.0, -40.0], [40e-9, 120e-9]
        x = ideal_smoothed(model, aoas, tofs, [1.0, 0.7j])
        e_n, _ = noise_subspace(covariance(x))
        for aoa, tof in zip(aoas, tofs):
            a = sub_model.steering_vector(aoa, tof)
            # The key MUSIC property: steering vectors of true paths are
            # orthogonal to the noise subspace.
            assert np.linalg.norm(e_n.conj().T @ a) < 1e-6

    def test_zero_covariance_rejected(self):
        with pytest.raises(EstimationError):
            noise_subspace(np.zeros((30, 30), dtype=complex))

    def test_nonsquare_rejected(self):
        with pytest.raises(EstimationError):
            noise_subspace(np.ones((3, 4), dtype=complex))

    def test_max_paths_cap(self, model):
        x = ideal_smoothed(
            model,
            [10.0, -20.0, 40.0, -60.0],
            [20e-9, 60e-9, 110e-9, 200e-9],
            [1.0, 0.9, 0.8, 0.7],
        )
        _, k = noise_subspace(covariance(x), MusicConfig(max_paths=2))
        assert k == 2


class TestMdl:
    def test_mdl_on_clean_eigenvalues(self):
        lam = np.array([100.0, 50.0, 20.0, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9])
        assert mdl_signal_dimension(lam, num_snapshots=30) == 3

    def test_mdl_noisy(self):
        rng = np.random.default_rng(0)
        lam = np.sort(np.concatenate([[50.0, 30.0], rng.uniform(0.9, 1.1, 20)]))[::-1]
        k = mdl_signal_dimension(lam, num_snapshots=100)
        assert k == 2


class TestSpectrum:
    def test_peaks_at_true_parameters(self, model, sub_model):
        aoas, tofs = [20.0, -40.0], [40e-9, 120e-9]
        x = ideal_smoothed(model, aoas, tofs, [1.0, 0.7j])
        e_n, _ = noise_subspace(covariance(x))
        aoa_grid = np.arange(-90.0, 90.5, 1.0)
        tof_grid = np.arange(0.0, 200e-9, 2.5e-9)
        spec = music_spectrum(e_n, sub_model, aoa_grid, tof_grid)
        # Values at true (theta, tau) must dwarf the background median.
        for aoa, tof in zip(aoas, tofs):
            i = int(np.argmin(np.abs(aoa_grid - aoa)))
            j = int(np.argmin(np.abs(tof_grid - tof)))
            assert spec[i, j] > 100 * np.median(spec)

    def test_signal_and_noise_variants_agree(self, model, sub_model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, _ = subspaces(covariance(x))
        aoa_grid = np.arange(-90.0, 91.0, 5.0)
        tof_grid = np.arange(0.0, 200e-9, 20e-9)
        s1 = music_spectrum(e_n, sub_model, aoa_grid, tof_grid)
        s2 = music_spectrum_from_signal(e_s, sub_model, aoa_grid, tof_grid)
        # At the true paths the denominator is ~0 and both variants
        # saturate; compare the denominators, which are exactly the
        # quantity the complement identity equates.
        assert np.allclose(1.0 / s1, 1.0 / s2, atol=1e-9)

    def test_spectrum_positive(self, model, sub_model):
        x = ideal_smoothed(model, [10.0], [50e-9], [1.0])
        e_n, _ = noise_subspace(covariance(x))
        spec = music_spectrum(
            e_n, sub_model, np.arange(-90, 91, 10.0), np.arange(0, 100e-9, 10e-9)
        )
        assert np.all(spec > 0)

    def test_sensor_count_mismatch_rejected(self, model, sub_model):
        with pytest.raises(EstimationError):
            music_spectrum(
                np.ones((10, 2), dtype=complex),
                sub_model,
                np.arange(-90, 91, 10.0),
                np.arange(0, 100e-9, 10e-9),
            )
        with pytest.raises(EstimationError):
            music_spectrum_from_signal(
                np.ones((10, 2), dtype=complex),
                sub_model,
                np.arange(-90, 91, 10.0),
                np.arange(0, 100e-9, 10e-9),
            )

    def test_spectrum_value_matches_grid(self, model, sub_model):
        x = ideal_smoothed(model, [20.0], [40e-9], [1.0])
        e_n, _ = noise_subspace(covariance(x))
        grid_val = music_spectrum(
            e_n, sub_model, np.array([20.0]), np.array([40e-9])
        )[0, 0]
        point_val = spectrum_value(e_n, sub_model, 20.0, 40e-9)
        assert point_val == pytest.approx(grid_val, rel=1e-9)


class TestSpectrumOracle:
    """Both public spectrum functions against the two-einsum reference."""

    DEFAULT_AOA = MusicConfig().aoa_grid()
    DEFAULT_TOF = MusicConfig().tof_grid()
    # Off the default steps and spans, and not symmetric about zero.
    ODD_AOA = np.arange(-63.0, 77.0, 0.7)
    ODD_TOF = np.arange(-20e-9, 180e-9, 3.3e-9)

    @pytest.mark.parametrize("k", range(1, 30))
    def test_noise_spectrum(self, sub_model, k):
        basis = random_basis(100 + k, 30, k)
        expected = 1.0 / np.maximum(
            reference_energy(basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF),
            1e-18,
        )
        spec = music_spectrum(basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF)
        assert spec.shape == (len(self.DEFAULT_AOA), len(self.DEFAULT_TOF))
        assert spec.flags.c_contiguous
        assert max_rel_error(spec, expected) < 1e-12

    @pytest.mark.parametrize("k", range(1, 30))
    def test_signal_spectrum(self, sub_model, k):
        basis = random_basis(200 + k, 30, k)
        energy = reference_energy(basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF)
        expected_denom = np.maximum(1.0 - energy, 1e-18)
        spec = music_spectrum_from_signal(
            basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF
        )
        # 1 - ||E_S^H a||^2 / ||a||^2 cancels when the signal subspace
        # nearly contains a(theta, tau), in the reference as much as in
        # the kernel, so the denominators are compared at the scale of
        # ||a||^2 (here 1).  The estimator only takes this path when the
        # signal side is the smaller one (k <= MN / 2); there the spectrum
        # values themselves agree to 1e-12 as well.
        assert np.max(np.abs(1.0 / spec - expected_denom)) < 1e-12
        if k <= 15:
            assert max_rel_error(spec, 1.0 / expected_denom) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5, 14, 15, 16, 28, 29])
    def test_non_default_grid(self, sub_model, k):
        basis = random_basis(300 + k, 30, k)
        energy = reference_energy(basis, sub_model, self.ODD_AOA, self.ODD_TOF)
        noise = music_spectrum(basis, sub_model, self.ODD_AOA, self.ODD_TOF)
        signal = music_spectrum_from_signal(basis, sub_model, self.ODD_AOA, self.ODD_TOF)
        assert noise.shape == (len(self.ODD_AOA), len(self.ODD_TOF))
        assert max_rel_error(noise, 1.0 / np.maximum(energy, 1e-18)) < 1e-12
        assert np.max(np.abs(1.0 / signal - np.maximum(1.0 - energy, 1e-18))) < 1e-12

    def test_full_array_geometry(self, model):
        # 3 antennas x 30 subcarriers, unsmoothed: M*N = 90 sensors.
        aoa, tof = np.arange(-90.0, 91.0, 3.0), np.arange(0.0, 200e-9, 5e-9)
        for k in (1, 7, 89):
            basis = random_basis(400 + k, 90, k)
            expected = 1.0 / np.maximum(reference_energy(basis, model, aoa, tof), 1e-18)
            assert max_rel_error(music_spectrum(basis, model, aoa, tof), expected) < 1e-12

    def test_cached_operands_change_nothing(self, sub_model):
        basis = random_basis(7, 30, 3)
        phi = sub_model.antenna_vector(self.DEFAULT_AOA)
        omega = sub_model.subcarrier_vector(self.DEFAULT_TOF)
        for fn in (music_spectrum, music_spectrum_from_signal):
            computed = fn(basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF)
            cached = fn(
                basis, sub_model, self.DEFAULT_AOA, self.DEFAULT_TOF, phi=phi, omega=omega
            )
            np.testing.assert_array_equal(cached, computed)
