"""Spectral score smoothing: low-pass filtering of per-head importance signals.

A head's importance signal (e.g. window-averaged attention over past tokens)
is transformed with a real-input FFT, truncated at an energy-driven cutoff,
optionally softened with a cosine transition band, transformed back, and mixed
with the original signal. Forward transform is unnormalized, inverse carries
the 1/L factor, matching the usual numerical-library convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SssConfig:
    """Smoothing parameters.

    transition_bins=None selects the adaptive default max(2, ceil(0.05 * num_bins));
    0 gives the hard rectangular mask.
    """

    cutoff_ratio: float = 0.7
    mix_alpha: float = 0.5
    transition_bins: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.cutoff_ratio <= 1.0:
            raise ValueError(f"cutoff_ratio must be in (0, 1], got {self.cutoff_ratio}")
        if not 0.0 <= self.mix_alpha <= 1.0:
            raise ValueError(f"mix_alpha must be in [0, 1], got {self.mix_alpha}")
        if self.transition_bins is not None and self.transition_bins < 0:
            raise ValueError("transition_bins must be >= 0")


def energy_cutoff(bins: np.ndarray, cutoff_ratio: float) -> int | np.ndarray:
    """Smallest bin index k whose cumulative |bin|^2 energy reaches the ratio.

    `bins` holds half spectra along the last axis. Returns num_bins-1 (keep
    everything) for a zero-energy spectrum, and for cutoff_ratio >= 1 so
    trailing zero-energy bins never shrink the full mask. A 1-D spectrum
    gives an int; stacked spectra give one index per signal.
    """
    if not 0.0 < cutoff_ratio <= 1.0:
        raise ValueError(f"cutoff_ratio must be in (0, 1], got {cutoff_ratio}")
    cum = np.cumsum(np.abs(bins) ** 2, axis=-1)
    total = cum[..., -1]
    reached = np.argmax(cum >= (total * cutoff_ratio)[..., None], axis=-1)
    keep_all = (total <= 0.0) | (cutoff_ratio >= 1.0)
    cutoff = np.where(keep_all, cum.shape[-1] - 1, reached)
    return int(cutoff) if cutoff.ndim == 0 else cutoff


def default_transition_bins(num_bins: int) -> int:
    """Adaptive transition width: 5% of the band, at least 2 bins."""
    return max(2, math.ceil(0.05 * num_bins))


def build_mask(cutoff_index: int | np.ndarray, num_bins: int, transition_bins: int) -> np.ndarray:
    """Low-pass weights: ones through cutoff_index, cosine roll-off, zeros beyond.

    An array of cutoffs gives one mask row per cutoff.
    """
    cutoff = np.asarray(cutoff_index)
    if np.any((cutoff < 0) | (cutoff >= num_bins)):
        raise ValueError(f"cutoff_index {cutoff_index} out of range for {num_bins} bins")
    # profile[d] weighs the bin d bins past the cutoff; d is clipped to [0, T+1].
    profile = np.zeros(transition_bins + 2, dtype=np.float64)
    profile[0] = 1.0
    offsets = np.arange(1, transition_bins + 1)
    profile[1:-1] = 0.5 * (1.0 + np.cos(np.pi * offsets / transition_bins))
    distance = np.arange(num_bins) - cutoff[..., None]
    return profile[np.clip(distance, 0, transition_bins + 1)]


def smooth_rows(signals: np.ndarray, config: SssConfig) -> np.ndarray:
    """Smooth every signal along the last axis at once:
    (1-alpha)*x + alpha*irfft(rfft(x)*mask)."""
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("signals must have a non-empty last axis")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal values must be finite")
    if config.mix_alpha == 0.0:
        return x.copy()
    bins = np.fft.rfft(x)
    num_bins = bins.shape[-1]
    transition = (
        default_transition_bins(num_bins)
        if config.transition_bins is None
        else config.transition_bins
    )
    mask = build_mask(energy_cutoff(bins, config.cutoff_ratio), num_bins, transition)
    smoothed = np.fft.irfft(bins * mask, n=x.shape[-1])
    return (1.0 - config.mix_alpha) * x + config.mix_alpha * smoothed
