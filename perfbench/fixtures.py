"""Seeded input generators for the benchmark workloads.

Each builder writes the files one `earpipe` command reads into a
directory and returns a Fixture: the command line (minus the output
directory) plus the ground truth the output checks compare against.
The program sees only the written files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from earpipe.ingest import Event, encode_stream, microvolts_to_counts, save_events_csv
from earpipe.synth import BergerSpec, EcgSynthSpec, EegSynthSpec, berger_session, gen_ecg, gen_eeg

RATE = 125.0
N_CHANNELS = 16

# The Berger recording is the ROADMAP item-4 target (BergerSpec seed 0,
# 2 x 15 min), whatever the benchmark seed. Its signal is a mixture of
# Gaussian sources, so ICA on it is unidentifiable and its cost is
# chaotic in the realization: over Berger seeds 0-3 one segment's ICA
# took 45 to 1455 iterations, wall time ranged 6.4-34 s, and the
# heartless recording gave 0 to 2029 false R-R rows. Re-seeding would
# swamp every bound and hide the false-heartbeat defect on half the
# seeds.
BERGER_SEED = 0

CARDIAC_SEGMENTS = ("rest1", "task1", "rest2", "task2")
BURST_PERIOD_S = 30.0
BURST_FIRST_S = 15.0
BURST_UV = 25.0


@dataclass
class Fixture:
    workload: str
    argv: list  # earpipe arguments; --out-dir is appended
    input_bytes: int
    truth: dict = field(default_factory=dict)

    def command(self, out_dir) -> list:
        return [*self.argv, "--out-dir", str(out_dir)]


def write_session_csv(path, rate: float, labels, data: np.ndarray) -> None:
    """Write the documented session format: `#rate=`, header, `%.6f` rows."""
    rows = np.column_stack([np.arange(data.shape[1]) / rate, data.T])
    fmt = ",".join(["%.6f"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"#rate={rate:g}\n")
        fh.write("t_s," + ",".join(labels) + "\n")
        for start in range(0, len(rows), 10_000):  # bounded Python-object memory
            fh.writelines(fmt % tuple(r) for r in rows[start : start + 10_000].tolist())


def _write_rr(path, beats: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("beat_time_s,rr_ms,flag\n")
        for a, b in zip(beats[:-1], beats[1:]):
            fh.write(f"{a:.6f},{(b - a) * 1000.0:.3f},ok\n")


def _write_ini(path, sections: dict) -> None:
    with open(path, "w") as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def berger_long(seed: int, d: Path, smoke: bool = False) -> Fixture:
    """Heartless eyes-open/eyes-closed session from CSV, full default chain."""
    spec = BergerSpec(seed=BERGER_SEED, segment_s=60.0 if smoke else 900.0)
    rec = berger_session(spec)
    write_session_csv(d / "session.csv", rec.rate, rec.labels, rec.data)
    save_events_csv(rec.events, d / "events.csv")
    _write_ini(
        d / "run.ini",
        {
            "input": {"session": d / "session.csv", "events": d / "events.csv"},
            "pipeline": {"ica_seed": 1},
        },
    )
    return Fixture(
        workload="berger_long",
        argv=["run", "--config", str(d / "run.ini")],
        input_bytes=(d / "session.csv").stat().st_size,
        truth={"alpha_ratio": spec.alpha_ratio},
    )


def cardiac_capture(seed: int, d: Path, smoke: bool = False) -> Fixture:
    """Packet capture with an ECG source at -10 dB, mains and EMG bursts.

    Alternating rest/task segments; the planted beats are written as the
    reference R-R series and a surveys file makes the regressions run.
    """
    seg_s = 30.0 if smoke else 60.0
    dur = seg_s * len(CARDIAC_SEGMENTS)
    eeg = gen_eeg(
        EegSynthSpec(
            rate=RATE,
            duration_s=dur,
            seed=seed,
            n_channels=N_CHANNELS,
            pink_noise_rms=3.0,
            band_components=((10.0, 2.0),),
            line_noise=(50.0, 4.0),
        )
    )
    ecg_rec, beats = gen_ecg(EcgSynthSpec(rate=RATE, duration_s=dur, seed=seed + 1, bpm=72.0))
    rng = np.random.default_rng(seed + 2)
    ecg = ecg_rec.data[0]
    eeg_rms = np.sqrt(np.mean(eeg.data**2, axis=1))
    weights = eeg_rms * 10 ** (-10.0 / 20.0) / np.sqrt(np.mean(ecg**2))
    data = eeg.data + (weights * rng.choice([-1.0, 1.0], N_CHANNELS))[:, None] * ecg[None, :]

    bursts = []
    width = int(RATE)
    for start_s in np.arange(BURST_FIRST_S, dur - 1.0, BURST_PERIOD_S):
        i0 = int(round(start_s * RATE))
        mix = rng.normal(0.0, 1.0, N_CHANNELS)
        data[:, i0 : i0 + width] += BURST_UV * mix[:, None] * rng.normal(0.0, 1.0, (1, width))
        bursts.append([float(start_s), float(start_s) + 1.0])

    capture = encode_stream(microvolts_to_counts(data.T))
    (d / "capture.bin").write_bytes(capture)
    save_events_csv(
        [Event(name, k * seg_s, (k + 1) * seg_s) for k, name in enumerate(CARDIAC_SEGMENTS)],
        d / "events.csv",
    )
    _write_rr(d / "reference_rr.csv", beats.beat_times)
    with open(d / "surveys.csv", "w", newline="") as fh:
        fh.write("participant,condition,tlx_total,flow_mean\n")
        for name in CARDIAC_SEGMENTS:
            fh.write(f"P01,{name},{rng.uniform(10.0, 90.0):.2f},{rng.uniform(1.0, 7.0):.2f}\n")
    _write_ini(
        d / "run.ini",
        {
            "input": {
                "raw": d / "capture.bin",
                "rate": RATE,
                "events": d / "events.csv",
                "reference_rr": d / "reference_rr.csv",
                "surveys": d / "surveys.csv",
            },
            "pipeline": {"ica_seed": 1},
        },
    )
    truth = {"beat_times_s": beats.beat_times.tolist(), "bursts_s": bursts}
    (d / "truth.json").write_text(json.dumps(truth))
    return Fixture(
        workload="cardiac_capture",
        argv=["run", "--config", str(d / "run.ini")],
        input_bytes=len(capture),
        truth=truth,
    )


BUILDERS = {"berger_long": berger_long, "cardiac_capture": cardiac_capture}
