"""Output checks and quality figures for each workload.

A check returns the problems it found (empty when the output is right)
and the quality figures it measured. The expected values come from the
fixture's ground truth, never from earpipe code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ALPHA_MIN_DB = 6.0  # acceptance 1: eyes-closed alpha at least 6 dB up
FLAT_BAND_DB = 0.5  # acceptance 1: theta, beta, gamma within +/-0.5 dB
BEAT_F1_FLOOR = 0.95
BEAT_TOLERANCE_S = 0.15  # the pipeline's default match_tolerance_s

# quality figure -> the layer whose output it grades
QUALITY = {
    "alpha_contrast_err_db": "spectral",
    "false_rr_intervals": "cardiac",
    "beat_f1": "cardiac",
    "beat_timing_err_ms": "cardiac",
    "rr_loa_ms": "stats",
}


def report_hashes(out_dir: Path) -> dict:
    """SHA-256 of every report except run_meta.json, which holds timings."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "run_meta.json"
    }


def _rr_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [(float(r["beat_time_s"]), float(r["rr_ms"])) for r in csv.DictReader(fh)]


def check_berger_long(fx, out: Path):
    problems = []
    cells: dict = {}
    with open(out / "bands.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            cells.setdefault((r["band"], r["condition"]), []).append(float(r["power_db"]))
    contrast = {}
    for band in ("theta", "alpha", "beta", "gamma"):
        closed, opened = cells.get((band, "eyes_closed")), cells.get((band, "eyes_open"))
        if not closed or not opened or len(closed) != len(opened):
            problems.append(f"bands.csv lacks paired {band} rows")
            continue
        contrast[band] = float(np.mean(np.array(closed) - np.array(opened)))
    if "alpha" in contrast and contrast["alpha"] < ALPHA_MIN_DB:
        problems.append(f"alpha contrast {contrast['alpha']:.3f} dB < {ALPHA_MIN_DB} dB")
    for band in ("theta", "beta", "gamma"):
        if band in contrast and abs(contrast[band]) > FLAT_BAND_DB:
            problems.append(f"{band} contrast {contrast[band]:.3f} dB outside +/-{FLAT_BAND_DB} dB")
    expected = 20.0 * math.log10(fx.truth["alpha_ratio"])
    quality = {
        "alpha_contrast_err_db": abs(contrast.get("alpha", 0.0) - expected),
        # the recording has no heart, so every R-R row is false
        "false_rr_intervals": len(_rr_rows(out / "rr.csv")),
    }
    return problems, quality


def _reported_beats(rows: list) -> np.ndarray:
    """Beats from rr.csv: each row's anchor and the beat it points to."""
    times = sorted([t for t, _ in rows] + [t + rr / 1000.0 for t, rr in rows])
    beats: list = []
    for t in times:
        if not beats or t - beats[-1] > 1e-3:
            beats.append(t)
    return np.array(beats)


def match_beats(truth: np.ndarray, found: np.ndarray, tol: float = BEAT_TOLERANCE_S):
    """F1 of one-to-one matches within tol between two sorted beat lists,
    and the mean absolute timing error of the matches in ms."""
    i = j = 0
    errors = []
    while i < len(truth) and j < len(found):
        d = found[j] - truth[i]
        if abs(d) <= tol:
            errors.append(abs(d))
            i += 1
            j += 1
        elif d < 0:
            j += 1
        else:
            i += 1
    total = len(truth) + len(found)
    f1 = 2.0 * len(errors) / total if total else 0.0
    return f1, 1000.0 * float(np.mean(errors)) if errors else 0.0


def check_cardiac_capture(fx, out: Path):
    problems = []
    truth = np.array(fx.truth["beat_times_s"])
    f1, timing_ms = match_beats(truth, _reported_beats(_rr_rows(out / "rr.csv")))
    if f1 < BEAT_F1_FLOOR:
        problems.append(f"beat F1 {f1:.4f} < {BEAT_F1_FLOOR}")
    ba = json.loads((out / "bland_altman.json").read_text())
    if ba.get("status") != "ok":
        problems.append(f"bland_altman.json status {ba.get('status')!r}: {ba.get('reason')}")
    reg = json.loads((out / "regression.json").read_text())
    if reg.get("status") != "ok":
        problems.append(f"regression.json status {reg.get('status')!r}: {reg.get('reason')}")
    quality = {
        "beat_f1": f1,
        "beat_timing_err_ms": timing_ms,
        "rr_loa_ms": float(ba.get("nonparametric_loa_ms") or 0.0),
    }
    return problems, quality


CHECKS = {
    "berger_long": check_berger_long,
    "cardiac_capture": check_cardiac_capture,
}


def check(fx, out: Path):
    """Run the workload's check; a missing or unreadable report is a problem."""
    try:
        return CHECKS[fx.workload](fx, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
