import numpy as np
import pytest

from audiokv.spectral import (
    SssConfig,
    build_mask,
    default_transition_bins,
    energy_cutoff,
    smooth_rows,
)

from dft_oracle import direct_irfft, direct_rfft


def total_variation(x):
    return np.sum(np.abs(np.diff(x)))


# `smooth_rows` transforms with np.fft.rfft and np.fft.irfft; these pin the
# convention it relies on (unnormalized forward, 1/L inverse) to the oracle.
class TestRfft:
    def test_constant_signal_is_dc_only(self):
        assert np.allclose(np.fft.rfft(np.full(4, 2.5)), [10.0, 0.0, 0.0])

    def test_unit_impulse_has_flat_spectrum(self):
        assert np.allclose(np.fft.rfft(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 1.0, 1.0])

    def test_matches_direct_summation_oracle_length_7(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=7)
        expected = direct_rfft(x)
        assert np.max(np.abs(np.fft.rfft(x) - expected)) / np.max(np.abs(expected)) < 1e-9

    def test_rejects_non_finite(self):
        for signal in ([1.0, np.nan], [np.inf, 0.0], []):
            with pytest.raises(ValueError):
                smooth_rows(np.array(signal), SssConfig())


class TestIrfft:
    def test_inverse_of_constant(self):
        bins = np.array([4.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(np.fft.irfft(bins, n=4), [1.0, 1.0, 1.0, 1.0])

    def test_roundtrip_identity_lengths_1_to_64(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            length = int(rng.integers(1, 65))
            x = rng.normal(size=length)
            assert np.max(np.abs(np.fft.irfft(np.fft.rfft(x), n=length) - x)) < 1e-9

    def test_even_length_hermitian_extension_matches_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=6)
        bins = direct_rfft(x)
        assert np.max(np.abs(np.fft.irfft(bins, n=6) - direct_irfft(bins, 6))) < 1e-9


class TestEnergyCutoff:
    def test_hand_computed_cumulative_sum(self):
        # energies [4, 3, 2, 1], cumsum [4, 7, 9, 10], 0.7 * 10 = 7 -> k = 1
        bins = np.sqrt(np.array([4.0, 3.0, 2.0, 1.0])).astype(complex)
        assert energy_cutoff(bins, 0.7) == 1

    def test_full_ratio_keeps_all_bins(self):
        bins = np.fft.rfft(np.random.default_rng(3).normal(size=10))
        assert energy_cutoff(bins, 1.0) == bins.size - 1

    def test_zero_spectrum_keeps_all_bins(self):
        assert energy_cutoff(np.zeros(5, dtype=complex), 0.5) == 4

    def test_monotone_in_ratio(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            bins = np.fft.rfft(rng.normal(size=int(rng.integers(2, 48))))
            ratios = np.linspace(0.05, 1.0, 20)
            cuts = [energy_cutoff(bins, float(r)) for r in ratios]
            assert all(a <= b for a, b in zip(cuts, cuts[1:]))


class TestBuildMask:
    def test_hard_mask(self):
        assert np.array_equal(build_mask(1, 4, transition_bins=0), [1.0, 1.0, 0.0, 0.0])

    def test_cosine_transition_half_band(self):
        assert np.allclose(build_mask(0, 5, transition_bins=2), [1.0, 0.5, 0.0, 0.0, 0.0])

    def test_last_bin_cutoff_is_all_ones(self):
        assert np.array_equal(build_mask(3, 4, transition_bins=2), np.ones(4))

    def test_default_transition_width(self):
        assert default_transition_bins(10) == 2
        assert default_transition_bins(100) == 5


class TestSss:
    def test_alpha_zero_is_exact_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=33)
        out = smooth_rows(x, SssConfig(cutoff_ratio=0.3, mix_alpha=0.0))
        assert np.array_equal(out, x)

    def test_full_ratio_hard_mask_is_all_pass(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=17)
        out = smooth_rows(x, SssConfig(cutoff_ratio=1.0, mix_alpha=0.8, transition_bins=0))
        assert np.max(np.abs(out - x)) < 1e-9

    def test_matches_oracle_pipeline_on_spike_plus_ramp(self):
        length = 64
        x = np.linspace(0.0, 1.0, length)
        x[20] += 2.0  # single-bin high-frequency spike
        cfg = SssConfig(cutoff_ratio=0.7, mix_alpha=0.5, transition_bins=0)

        bins = direct_rfft(x)
        energy = np.abs(bins) ** 2
        cum = np.cumsum(energy)
        cut = int(np.searchsorted(cum, cum[-1] * 0.7, side="left"))
        masked = bins.copy()
        masked[cut + 1 :] = 0.0
        expected = 0.5 * x + 0.5 * direct_irfft(masked, length)

        assert np.max(np.abs(smooth_rows(x, cfg) - expected)) < 1e-9

    def test_length_one_signal_unchanged(self):
        out = smooth_rows(np.array([3.25]), SssConfig())
        assert np.allclose(out, [3.25])

    def test_mean_preserved_under_hard_mask(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(2, 100)))
            out = smooth_rows(x, SssConfig(cutoff_ratio=0.4, mix_alpha=1.0, transition_bins=0))
            assert abs(np.mean(out) - np.mean(x)) < 1e-9

    def test_total_variation_usually_reduced_by_pure_lowpass(self):
        rng = np.random.default_rng(9)
        cfg = SssConfig(cutoff_ratio=0.7, mix_alpha=1.0, transition_bins=0)
        passes = 0
        for _ in range(1000):
            x = rng.normal(size=int(rng.integers(16, 128)))
            out = smooth_rows(x, cfg)
            if total_variation(out) <= total_variation(x) + 1e-9:
                passes += 1
            # Gibbs-ringing exceptions stay close to the original variation.
            assert total_variation(out) <= 1.1 * total_variation(x) + 1e-9
        assert passes >= 990

    def test_smooth_rows_applies_per_row(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(3, 20))
        cfg = SssConfig(cutoff_ratio=0.6, mix_alpha=0.5)
        out = smooth_rows(rows, cfg)
        assert out.shape == rows.shape
        for i in range(3):
            assert np.array_equal(out[i], smooth_rows(rows[i], cfg))
