"""Noise synthesis: white and 1/f generators match their target PSDs."""

import numpy as np
import pytest

from repro.circuits import Signal, pink_noise, white_noise
from repro.circuits.noise import amplifier_input_noise, noise_signal
from repro.analysis import psd_slope, welch_psd


class TestWhite:
    def test_variance_matches_density(self, rng):
        density = 1e-12  # V^2/Hz
        fs = 100e3
        x = white_noise(density, 200000, fs, rng)
        assert np.var(x) == pytest.approx(density * fs / 2.0, rel=0.05)

    def test_zero_density_silent(self, rng):
        x = white_noise(0.0, 100, 1e3, rng)
        assert np.all(x == 0.0)

    def test_flat_spectrum(self, rng):
        fs = 100e3
        x = Signal(white_noise(1e-12, 400000, fs, rng), fs)
        slope = psd_slope(x, 100.0, 40e3)
        assert abs(slope) < 0.1

    def test_reproducible_with_seed(self):
        a = white_noise(1e-12, 100, 1e3, np.random.default_rng(1))
        b = white_noise(1e-12, 100, 1e3, np.random.default_rng(1))
        assert np.array_equal(a, b)


class TestPink:
    def test_slope_minus_one(self, rng):
        fs = 10e3
        x = Signal(pink_noise(1e-10, 400000, fs, rng), fs)
        slope = psd_slope(x, 1.0, 1e3)
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_density_level(self, rng):
        fs = 10e3
        density_1hz = 1e-10
        x = Signal(pink_noise(density_1hz, 400000, fs, rng), fs)
        freqs, psd = welch_psd(x, segments=16)
        # around 10 Hz the PSD should be ~ density/10
        mask = (freqs > 8.0) & (freqs < 12.0)
        assert np.mean(psd[mask]) == pytest.approx(density_1hz / 10.0, rel=0.5)

    def test_zero_density_silent(self, rng):
        assert np.all(pink_noise(0.0, 100, 1e3, rng) == 0.0)

    def test_single_sample(self, rng):
        assert pink_noise(1e-10, 1, 1e3, rng)[0] == 0.0


#: A prime record length (the worst case for a plain inverse FFT) and a
#: 2·3-smooth one; both must keep the 1/f PSD.
AWKWARD_N = 399_989
SMOOTH_N = 393_216


class TestPinkRecordLength:
    @pytest.mark.parametrize("n", [AWKWARD_N, SMOOTH_N])
    def test_slope_minus_one(self, rng, n):
        fs = 10e3
        x = Signal(pink_noise(1e-10, n, fs, rng), fs)
        slope = psd_slope(x, 1.0, 1e3)
        assert slope == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("n", [AWKWARD_N, SMOOTH_N])
    def test_density_level(self, rng, n):
        fs = 10e3
        density_1hz = 1e-10
        x = Signal(pink_noise(density_1hz, n, fs, rng), fs)
        freqs, psd = welch_psd(x, segments=16)
        mask = (freqs > 8.0) & (freqs < 12.0)
        assert np.mean(psd[mask]) == pytest.approx(density_1hz / 10.0, rel=0.5)

    def test_synthesized_at_smooth_length(self, rng, monkeypatch):
        from scipy.fft import next_fast_len

        lengths = []
        irfft = np.fft.irfft

        def spy(a, n=None, *args, **kwargs):
            lengths.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        x = pink_noise(1e-10, AWKWARD_N, 10e3, rng)
        assert lengths == [next_fast_len(AWKWARD_N, real=True)]
        assert lengths[0] > AWKWARD_N
        assert x.shape == (AWKWARD_N,)


class TestAmplifierNoise:
    def test_corner_behaviour(self, rng):
        fs = 100e3
        white_density = 1e-15
        corner = 1e3
        x = Signal(
            amplifier_input_noise(white_density, corner, 800000, fs, rng), fs
        )
        freqs, psd = welch_psd(x, segments=16)
        low = np.mean(psd[(freqs > 50) & (freqs < 100)])
        high = np.mean(psd[(freqs > 20e3) & (freqs < 40e3)])
        # well below the corner the PSD is much larger than the floor
        assert low > 5.0 * high
        assert high == pytest.approx(white_density, rel=0.3)

    def test_no_corner_is_white(self, rng):
        fs = 10e3
        x = Signal(amplifier_input_noise(1e-14, 0.0, 200000, fs, rng), fs)
        assert abs(psd_slope(x, 10.0, 4e3)) < 0.1

    def test_noise_signal_wrapper(self, rng):
        s = noise_signal(1e-14, 100.0, 0.1, 10e3, rng)
        assert isinstance(s, Signal)
        assert len(s) == 1000
