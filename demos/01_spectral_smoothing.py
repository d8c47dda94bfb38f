"""Spectral score smoothing, step by step.

Builds a noisy importance signal with a transient spike cluster on top of a
broad plateau, walks it through the transform -> energy cutoff -> mask ->
inverse -> residual mix pipeline, and shows how the spike cluster loses its
grip on the top-k selection.
"""

import numpy as np

from audiokv import SssConfig, build_mask, energy_cutoff, smooth_rows

rng = np.random.default_rng(0)

length = 120
signal = np.full(length, 0.01)
signal[40:90] = 0.3 * (1.0 + 0.05 * rng.standard_normal(50))  # broad plateau
signal[12:16] = 0.42  # narrow transient cluster

print("signal: plateau on [40, 90), spike cluster on [12, 16)")

bins = np.fft.rfft(signal)
print(f"spectrum: {bins.size} bins for length {length}")

cutoff = energy_cutoff(bins, cutoff_ratio=0.7)
energy = np.abs(bins) ** 2
kept = energy[: cutoff + 1].sum() / energy.sum()
print(f"energy cutoff at bin {cutoff} ({kept:.1%} of spectral energy kept)")

mask = build_mask(cutoff, bins.size, transition_bins=3)
lowpass = np.fft.irfft(bins * mask, n=length)
print(f"low-pass reconstruction: spike site now {lowpass[13]:.3f} vs plateau {lowpass[60]:.3f}")

for alpha in (0.0, 0.5, 1.0):
    smoothed = smooth_rows(signal, SssConfig(cutoff_ratio=0.7, mix_alpha=alpha))
    top10 = np.argsort(-smoothed)[:10]
    in_spike = int(np.sum((top10 >= 12) & (top10 < 16)))
    in_plateau = int(np.sum((top10 >= 40) & (top10 < 90)))
    print(
        f"alpha={alpha:.1f}: top-10 selection has {in_spike} spike indices, "
        f"{in_plateau} plateau indices"
    )

print("mean preserved:", np.isclose(smooth_rows(signal, SssConfig()).mean(), signal.mean()))
