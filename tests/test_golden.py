"""Golden outputs that a refactor must leave unchanged.

The stored values in golden/reports.json are the reports of the 2 x 60 s
Berger run (BergerSpec seed 0, ica_seed = 1), the beats found on the
acceptance-9 ECG mixture and the group analysis of a seeded band table
with scores (analysis_tables). The Berger recording has no heart: the stored
qc.json leaves out its ECG fields, and test_berger_run_finds_no_heartbeat
checks instead that no segment has an ECG component and that rr.csv
holds only its header.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only for an
intended change of behaviour, and say so in the change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from earpipe.analysis import analyze_tables
from earpipe.artifact import extract_ecg
from earpipe.ingest import save_events_csv, save_session_csv
from earpipe.pipeline import _jsonable, load_config, run_pipeline
from earpipe.spectral import BandPowerRow
from earpipe.synth import BergerSpec, berger_session

from test_acceptance import ecg_eeg_mixture

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
ECG_RATE = 250.0
BAND_DB_TOL = 1e-6  # one unit of the last digit bands.csv prints
QC_REL_TOL = 1e-9
# the intercepts of within-participant z scores are round-off, about 1e-16
ANALYSIS_ABS_TOL = 1e-12


def run_berger(work: Path) -> Path:
    """Run the pipeline on the Berger session; returns the output directory."""
    rec = berger_session(BergerSpec(seed=0))
    save_session_csv(rec, work / "session.csv")
    save_events_csv(rec.events, work / "events.csv")
    (work / "run.ini").write_text(
        f"[input]\nsession = {work / 'session.csv'}\nevents = {work / 'events.csv'}\n\n"
        f"[output]\ndir = {work / 'out'}\n\n[pipeline]\nica_seed = 1\n"
    )
    run_pipeline(load_config(work / "run.ini"))
    return work / "out"


def berger_reports(out: Path) -> dict:
    header, *rows = (out / "bands.csv").read_text().splitlines()
    qc = json.loads((out / "qc.json").read_text())
    for seg in qc["segments"]:
        del seg["ecg_component"], seg["ecg_score"]
    return {
        "bands_header": header,
        "bands": [[key, float(value)] for key, value in (row.rsplit(",", 1) for row in rows)],
        "qc": qc,
    }


def ecg_beat_times() -> list:
    rec, _ = ecg_eeg_mixture(ECG_RATE)
    pick = extract_ecg(rec)
    return pick.beats.beat_times.tolist()


def analysis_tables() -> tuple[list, dict]:
    """Band rows and scores of 6 participants x 4 conditions x 2 channels.

    Alpha rises with workload and has an inverted U in flow. Theta is held
    on a 1/8 dB grid so that channel means and differences are exact:
    hard is medium + 1.5 dB and rest equals easy in every participant,
    which gives the two zero-spread contrasts (t = inf and t = 0).
    """
    rng = np.random.default_rng(14)
    conditions = ("easy", "medium", "hard", "rest")
    rows, scores = [], {}
    for k in range(6):
        p = f"P{k + 1}"
        offset = rng.normal(0.0, 2.0)
        theta = {c: np.round(rng.normal(5.0, 1.0, size=2) * 8) / 8 for c in conditions[:2]}
        theta["hard"] = theta["medium"] + 1.5
        theta["rest"] = theta["easy"]
        for j, c in enumerate(conditions):
            tlx = 30.0 + 25.0 * j + rng.normal(0.0, 5.0)
            flow = 4.0 - 0.8 * (j - 1.2) ** 2 + rng.normal(0.0, 0.3)
            scores[(p, c)] = (tlx, flow)
            for i, ch in enumerate(("L1", "R1")):
                alpha = offset + 0.05 * tlx + 0.6 * flow + rng.normal(0.0, 0.3)
                rows.append(BandPowerRow(p, c, ch, "alpha", float(alpha)))
                rows.append(BandPowerRow(p, c, ch, "theta", float(theta[c][i])))
    return rows, scores


def analysis_report() -> dict:
    """analysis.json's payload for analysis_tables, rest left out of the models."""
    rows, scores = analysis_tables()
    payload = analyze_tables(rows, scores, exclude=("rest",))
    return json.loads(json.dumps(_jsonable(payload), allow_nan=False))


def assert_close(actual, expected, where: str, abs_tol: float = 0.0) -> None:
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}", abs_tol)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]", abs_tol)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=QC_REL_TOL, abs=abs_tol), where
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def berger_out(tmp_path_factory) -> Path:
    return run_berger(tmp_path_factory.mktemp("berger"))


def test_berger_bands_and_qc_match_golden(berger_out, golden):
    got = berger_reports(berger_out)
    assert got["bands_header"] == golden["bands_header"]
    assert [key for key, _ in got["bands"]] == [key for key, _ in golden["bands"]]
    for (key, value), (_, expected) in zip(got["bands"], golden["bands"]):
        assert value == pytest.approx(expected, abs=BAND_DB_TOL), key
    assert_close(got["qc"], golden["qc"], "qc")


def test_berger_run_finds_no_heartbeat(berger_out):
    segments = json.loads((berger_out / "qc.json").read_text())["segments"]
    assert len(segments) == 2
    for seg in segments:
        assert seg["ecg_component"] is None, seg["condition"]
        assert seg["ecg_score"] is None, seg["condition"]
    assert (berger_out / "rr.csv").read_text() == "beat_time_s,rr_ms,flag\n"


def test_analysis_matches_golden(golden):
    got = analysis_report()
    for model in ("workload_linear", "flow_quadratic"):
        assert {fit["status"] for fit in got[model].values()} == {"ok"}, model
    assert {table["status"] for table in got["contrasts"].values()} == {"ok"}
    assert_close(got, golden["analysis"], "analysis", ANALYSIS_ABS_TOL)


def test_ecg_mixture_beats_match_golden(golden):
    got = np.array(ecg_beat_times())
    expected = np.array(golden["ecg_beat_times_s"])
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1.0 / ECG_RATE + 1e-9


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stored = {**berger_reports(run_berger(Path(tmp))), "ecg_beat_times_s": ecg_beat_times(),
                  "analysis": analysis_report()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
