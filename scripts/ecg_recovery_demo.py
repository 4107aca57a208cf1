"""Recover a heartbeat hidden in multichannel EEG.

Mixes a synthetic ECG source into eight EEG-like channels at -10 dB
relative amplitude, extracts the most skewed directions of the whitened
channels one at a time, picks the first whose skewness on held-out
epochs passes the gate and whose beat train is regular, and compares the
recovered R-R series against the planted beats.

Usage: python scripts/ecg_recovery_demo.py
"""

import sys

import numpy as np

from earpipe.artifact import extract_ecg
from earpipe.cardiac import match_beats, paired_rr
from earpipe.ingest import Recording
from earpipe.stats import bland_altman
from earpipe.synth import EcgSynthSpec, EegSynthSpec, gen_ecg, gen_eeg


def main() -> int:
    rate = 250.0
    eeg = gen_eeg(
        EegSynthSpec(rate=rate, duration_s=60.0, seed=60, n_channels=8,
                     pink_noise_rms=3.0, band_components=((10.0, 2.0),))
    )
    ecg_rec, truth = gen_ecg(EcgSynthSpec(rate=rate, duration_s=60.0, seed=61, bpm=72.0))
    ecg = ecg_rec.data[0]

    rng = np.random.default_rng(62)
    eeg_rms = np.sqrt(np.mean(eeg.data**2, axis=1))
    weights = eeg_rms * 10 ** (-10.0 / 20.0) / np.sqrt(np.mean(ecg**2))
    weights *= rng.choice([-1.0, 1.0], size=len(weights))
    rec = Recording(
        rate=rate,
        labels=list(eeg.labels),
        data=eeg.data + weights[:, None] * ecg[None, :],
    )
    print(f"mixed {len(truth)} planted beats into {rec.n_channels} channels at -10 dB")

    picked = extract_ecg(rec)
    if picked is None:
        print("no cardiac component found")
        return 1
    beats = picked.beats
    print(f"extracted unit {picked.index}: {len(beats)} beats detected")

    match = match_beats(truth, beats, tolerance_s=0.05)
    sens = len(match.pairs) / len(truth)
    rr_ref, rr_alt = paired_rr(match, truth, beats)
    report = bland_altman(rr_ref, rr_alt)
    print(f"recovered {sens:.1%} of planted beats "
          f"({len(match.pairs)}/{len(truth)}, {match.unmatched_alt} false alarms)")
    print(f"R-R agreement over {report['n']} pairs: bias {report['mean_diff_ms']:+.2f} ms, "
          f"95% limits +/-{report['gaussian_loa_ms']:.2f} ms, r = {report['pearson_r']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
