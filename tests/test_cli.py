import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import earpipe
from earpipe import ingest
from earpipe.cardiac import BeatSeries, pan_tompkins
from earpipe.cli import main
from earpipe.ingest import (
    Event,
    Recording,
    cut_segments,
    encode_stream,
    load_session_csv,
    save_events_csv,
    save_session_csv,
)
from earpipe.montage import builtin_montage_path
from earpipe.pipeline import StageToggles, rr_rows, write_rr_csv
from earpipe.spectral import band_power, read_band_table, welch_psd_recording
from earpipe.synth import EcgSynthSpec, EegSynthSpec, gen_ecg, gen_eeg

from oracles import detect_beats
from test_acceptance import ecg_eeg_mixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def write_spec(path, body):
    path.write_text(body)
    return str(path)


# ----------------------------------------------------------------- parse


def test_parse_round_trip(tmp_path, capsys):
    counts = np.arange(32 * 16).reshape(32, 16) - 256
    raw = tmp_path / "stream.bin"
    raw.write_bytes(encode_stream(counts))
    code, out, _ = run_cli(capsys, "parse", "--raw", str(raw), "--out-dir", str(tmp_path / "o"))
    assert code == 0
    summary = last_json(out)
    assert summary["frames"] == 32
    assert summary["resyncs"] == 0
    rec = load_session_csv(tmp_path / "o" / "session.csv")
    assert rec.data.shape == (16, 32)
    report = json.loads((tmp_path / "o" / "integrity.json").read_text())
    assert report["dropped_packets"] == 0


def test_parse_reports_gaps(tmp_path, capsys):
    counts = np.arange(32 * 16).reshape(32, 16) - 256
    blob = encode_stream(counts)
    raw = tmp_path / "stream.bin"
    raw.write_bytes(blob[: 10 * 33] + blob[14 * 33 :])  # frames 5 and 6 lost
    code, out, _ = run_cli(capsys, "parse", "--raw", str(raw), "--out-dir", str(tmp_path / "o"))
    assert code == 0
    assert last_json(out)["frames"] == 30
    assert last_json(out)["dropped_packets"] == 4
    report = json.loads((tmp_path / "o" / "integrity.json").read_text())
    assert report["gaps"] == [{"sample": 5, "missing": 2}]
    assert report["expected_samples"] == 32 and report["actual_samples"] == 30
    rec = load_session_csv(tmp_path / "o" / "session.csv")
    assert rec.data.shape == (16, 30)


def test_parse_empty_file(tmp_path, capsys):
    raw = tmp_path / "empty.bin"
    raw.write_bytes(b"")
    code, out, _ = run_cli(capsys, "parse", "--raw", str(raw), "--out-dir", str(tmp_path / "o"))
    assert code == 0
    assert last_json(out)["frames"] == 0
    lines = (tmp_path / "o" / "session.csv").read_text().splitlines()
    assert len(lines) == 2  # rate comment + column header, no data rows
    assert lines[0].startswith("#rate=") and lines[1].startswith("t_s,")


def test_parse_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "parse", "--raw", str(tmp_path / "nope.bin"),
                           "--out-dir", str(tmp_path / "o"))
    assert code == 3
    assert json.loads(err)["error"] == "data"


# ----------------------------------------------------------------- synth


def test_synth_requires_seed(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.ini", "[synth]\nkind = eeg\n\n[eeg]\nduration_s = 2\n")
    code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "o"))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "config" and "seed" in diag["message"]
    # the global --seed flag satisfies the requirement
    code, _, _ = run_cli(capsys, "--seed", "5", "synth", "--spec", spec,
                         "--out-dir", str(tmp_path / "o"))
    assert code == 0


def test_synth_unknown_kind(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.ini", "[synth]\nkind = mri\nseed = 1\n")
    code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "kind" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "kind, section, fragment",
    [
        ("berger", "[berger]\nsegment_s = -1\n", "segment_s"),
        ("eeg", "[eeg]\nduraton_s = 2\n", "duraton_s"),
        ("eeg", "[eeg]\nn_channels = two\n", "n_channels"),
        ("berger", "[berger]\nalpha_band = 8:70\n", "alpha band"),
        ("berger", "[ecg]\nbpm = 72\n", "[ecg]"),
        ("ecg", "[ecg]\nr_width_ms = 0\n", "r_width_ms must be positive, got 0.0"),
        ("eeg", "[eeg]\nrate = nan\n", "rate must be positive, got nan"),
        ("berger", "[berger]\nsegment_s = inf\n", "segment_s must be finite, got inf"),
        ("ecg", "[ecg]\nr_width_ms = inf\n", "r_width_ms must be finite, got inf"),
        ("eeg", "[eeg]\nduration_s = 1e-9\n", "duration_s of 1e-09 s holds no sample at 125.0 Hz"),
        ("ecg", "[ecg]\nduration_s = nan\n", "ecg: duration_s must be positive, got nan"),
        # an accepted rate whose jittered beats fall inside one refractory period
        ("ecg", "[ecg]\nbpm = 220\nduration_s = 120\n",
         "ecg: planted beats closer than the refractory period"),
        # amplitudes, noise levels and jitter are finite and non-negative
        ("eeg", "[eeg]\nduration_s = 2\npink_noise_rms = nan\n",
         "eeg: pink_noise_rms must be finite and non-negative, got nan"),
        ("eeg", "[eeg]\nduration_s = 2\ncomponents = 10:inf\n",
         "eeg: components amplitude must be finite and non-negative, got inf"),
        ("eeg", "[eeg]\nduration_s = 2\nline = 50:nan\n",
         "eeg: line amplitude must be finite and non-negative, got nan"),
        ("ecg", "[ecg]\nr_amplitude_uv = inf\n",
         "ecg: r_amplitude_uv must be finite and non-negative, got inf"),
        ("ecg", "[ecg]\nrr_jitter_ms = nan\n",
         "ecg: rr_jitter_ms must be finite and non-negative, got nan"),
        ("berger", "[berger]\npink_noise_rms = -1\n",
         "berger: pink_noise_rms must be finite and non-negative, got -1.0"),
        ("berger", "[berger]\nalpha_open_uv = inf\n",
         "berger: alpha_open_uv must be finite and non-negative, got inf"),
        ("berger", "[berger]\nline = nan:1\n",
         "berger: line frequency must be finite and non-negative, got nan"),
        ("berger", "[berger]\nalpha_ratio = 0\n",
         "berger: alpha_ratio must be positive and finite, got 0.0"),
        ("berger", "[berger]\nalpha_ratio = nan\n",
         "berger: alpha_ratio must be positive and finite, got nan"),
    ],
)
def test_synth_bad_spec_names_the_key(tmp_path, capsys, kind, section, fragment):
    spec = write_spec(tmp_path / "s.ini", f"[synth]\nkind = {kind}\nseed = 1\n\n{section}")
    code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "o"))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "config" and fragment in diag["message"]
    assert not (tmp_path / "o").exists()


def test_synth_berger_deterministic(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "b.ini",
        "[synth]\nkind = berger\nseed = 3\n\n[berger]\nsegment_s = 5\nn_channels = 2\n",
    )
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "a" / "session.csv").read_bytes() == (tmp_path / "b" / "session.csv").read_bytes()
    truth = json.loads((tmp_path / "a" / "truth.json").read_text())
    assert truth["alpha_ratio"] == 3.0
    events = (tmp_path / "a" / "events.csv").read_text()
    assert "eyes_open" in events and "eyes_closed" in events


def test_synth_ecg_truth_files(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "e.ini",
        "[synth]\nkind = ecg\nseed = 7\n\n[ecg]\nduration_s = 20\nbpm = 72\n",
    )
    code, out, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "o"))
    assert code == 0
    assert last_json(out)["channels"] == 1
    truth = json.loads((tmp_path / "o" / "truth.json").read_text())
    assert truth["bpm"] == 72.0
    assert len(truth["beat_times_s"]) >= 20
    rr_lines = (tmp_path / "o" / "rr_truth.csv").read_text().splitlines()
    assert rr_lines[0] == "beat_time_s,rr_ms,flag"
    assert len(rr_lines) == len(truth["beat_times_s"])  # header + (n-1) intervals


# ------------------------------------------------------------------- run


def synth_berger(tmp_path, capsys, segment_s=10, out="data"):
    spec = write_spec(
        tmp_path / "fixture.ini",
        f"[synth]\nkind = berger\nseed = 11\n\n[berger]\nsegment_s = {segment_s}\n",
    )
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / out))
    assert code == 0
    return tmp_path / out


def test_run_needs_config(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_run_end_to_end(tmp_path, capsys):
    data = synth_berger(tmp_path, capsys)
    cfg = write_spec(
        tmp_path / "run.ini",
        f"""
[input]
session = {data / 'session.csv'}
events = {data / 'events.csv'}

[output]
dir = {tmp_path / 'out'}

[pipeline]
ica_seed = 2
""",
    )
    # config accepted both as a global flag and as a subcommand flag
    code, out, _ = run_cli(capsys, "--config", cfg, "run")
    assert code == 0
    assert last_json(out)["n_segments"] == 2
    code, _, _ = run_cli(capsys, "run", "--config", cfg, "--out-dir", str(tmp_path / "out2"))
    assert code == 0
    rows = read_band_table(tmp_path / "out" / "bands.csv")
    alpha = {
        cond: np.median([r.power_db for r in rows if r.band == "alpha" and r.condition == cond])
        for cond in ("eyes_open", "eyes_closed")
    }
    assert alpha["eyes_closed"] > alpha["eyes_open"]


def test_quick_start_run_writes_nothing_to_stderr(tmp_path, capsys):
    # the README quick start: a 16-channel Berger session whose re-reference
    # leaves one null direction, dropped without a word
    spec = write_spec(tmp_path / "berger.ini", "[synth]\nkind = berger\nseed = 0\n")
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "data"))
    assert code == 0
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {tmp_path / 'data' / 'session.csv'}\n"
        f"events = {tmp_path / 'data' / 'events.csv'}\n\n[output]\ndir = {tmp_path / 'out'}\n",
    )
    with warnings_on_stderr():
        code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 0
    assert err == ""


def test_run_reports_do_not_depend_on_the_session_cache(tmp_path, capsys, monkeypatch):
    data = synth_berger(tmp_path, capsys)
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    runs = [("no_cache", blocker, "not stored"), ("cold", tmp_path / "cache", "stored"),
            ("warm", tmp_path / "cache", "hit")]
    for out, cache, status in runs:
        monkeypatch.setenv("EARPIPE_CACHE_DIR", str(cache))
        code, _, err = run_cli(capsys, "run", "--config", cfg, "--out-dir", str(tmp_path / out))
        assert (code, err) == (0, "")
        meta = json.loads((tmp_path / out / "run_meta.json").read_text())
        assert meta["session_cache"] == status
    names = sorted(p.name for p in (tmp_path / "no_cache").iterdir())
    assert len(names) == 7
    for out, _, _ in runs[1:]:
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == names
        for name in names:
            if name != "run_meta.json":
                assert (tmp_path / out / name).read_bytes() == (tmp_path / "no_cache" / name).read_bytes()
    assert blocker.read_text() == ""


def test_run_on_a_malformed_session_fails_alike_twice_and_caches_nothing(tmp_path, capsys,
                                                                         monkeypatch):
    data = synth_berger(tmp_path, capsys)
    lines = (data / "session.csv").read_text().splitlines()
    lines[100] = lines[100].rsplit(",", 1)[0]
    (data / "session.csv").write_text("\n".join(lines) + "\n")
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(tmp_path / "cache"))
    results = [run_cli(capsys, "run", "--config", cfg) for _ in range(2)]
    assert results[0] == results[1]
    code, _, err = results[0]
    assert code == 3
    assert json.loads(err)["message"].startswith(f"{data / 'session.csv'}:101: ")
    assert not (tmp_path / "cache").exists() or not list((tmp_path / "cache").iterdir())


@pytest.mark.parametrize("asr", ["on", "off"])
def test_run_rejects_non_finite_sample(tmp_path, capsys, asr):
    data = synth_berger(tmp_path, capsys)
    lines = (data / "session.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = lines[100].split(",")
    row[3] = "nan"
    lines[100] = ",".join(row)
    (data / "session.csv").write_text("\n".join(lines) + "\n")
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n[stages]\nasr = {asr}\n\n[pipeline]\nica_seed = 2\n",
    )
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "data"
    assert f"in {header[3]} at t_s={row[0]}" in diag["message"]


# a name with a control character (a lone carriage return is one the csv
# module leaves unquoted) is refused where it enters, with that input's exit code
@pytest.mark.parametrize(
    "entry, code, message",
    [
        ("events", 3, "events.csv:3: condition 'eyes\\rshut' holds a control character"),
        ("participant", 2, "input: participant 'P\\x1b1' holds a control character"),
        ("montage", 3, "montage.csv:6: label 'L\\t5' holds a control character"),
        ("header", 3, "session.csv:2: column 3 of the header 'c\\th2' holds a control character"),
        ("bands", 2, "pipeline: bad value for bands: band 'al\\x1bpha' holds a control character"),
        ("--bands", 2, "--bands: band 'al\\rpha' holds a control character"),
        ("--participant", 2, "--participant 'P\\r1' holds a control character"),
    ],
)
def test_name_with_a_control_character_is_refused_where_it_enters(tmp_path, capsys, entry, code,
                                                                  message):
    data = synth_berger(tmp_path, capsys)
    session, events = data / "session.csv", data / "events.csv"
    if entry == "events":
        events.write_text('condition,start_s,end_s\n"eyes\rshut",0,10\n')
    elif entry == "header":
        session.write_text(session.read_text().replace(",ch2,", ",c\th2,", 1))
    montage = builtin_montage_path()
    if entry == "montage":
        montage = tmp_path / "montage.csv"
        montage.write_text(builtin_montage_path().read_text().replace("L5", "L\t5", 1))
    if entry.startswith("--"):
        flag = {"--bands": ["--bands", "al\rpha:8:12"], "--participant": ["--participant", "P\r1"]}
        argv = ["bands", "--session", str(session), "--out", str(tmp_path / "out"), *flag[entry]]
    else:
        participant = "P\x1b1" if entry == "participant" else "P1"
        bands = "al\x1bpha:8:12" if entry == "bands" else "alpha:8:12"
        body = (f"[input]\nsession = {session}\nevents = {events}\nmontage = {montage}\n"
                f"participant = {participant}\n\n[output]\ndir = {tmp_path / 'out'}\n\n"
                f"[pipeline]\nbands = {bands}\n")
        argv = ["run", "--config", write_spec(tmp_path / "run.ini", body)]
    got, _, err = run_cli(capsys, *argv)
    assert got == code
    assert json.loads(err)["message"].endswith(message)
    assert not (tmp_path / "out").exists()


def test_plain_names_keep_their_bytes(tmp_path, capsys):
    data = synth_berger(tmp_path, capsys)
    (data / "events.csv").write_text("condition,start_s,end_s\n\"Augen zu, ö\",0,10\n")
    cfg = write_spec(tmp_path / "run.ini",
                     f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n"
                     f"participant = P 1\n\n[output]\ndir = {tmp_path / 'out'}\n\n"
                     "[stages]\nica = off\n")
    assert run_cli(capsys, "run", "--config", cfg)[0] == 0
    rows = read_band_table(tmp_path / "out" / "bands.csv")
    assert {(r.participant, r.condition) for r in rows} == {("P 1", "Augen zu, ö")}


def test_run_checks_every_segment_length_before_any_segment(tmp_path, capsys, monkeypatch):
    data = synth_berger(tmp_path, capsys, segment_s=30)
    (data / "events.csv").write_text(
        "condition,start_s,end_s\neyes_open,0,30\neyes_closed,30,32\n"
    )
    calls = []
    monkeypatch.setattr("earpipe.pipeline.extract_ecg", lambda *a, **k: calls.append(a))
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 3
    assert json.loads(err)["message"] == (
        "segment 1 (eyes_closed): segment length 250 too short for a 601-tap filter; "
        "need more than 601 samples"
    )
    assert calls == []


@pytest.mark.parametrize(
    "events, body, message",
    [
        ("eyes_open,0,30\neyes_closed,30,31.5",
         "[stages]\nhighpass = off\nlowpass = off\nasr = off",
         "segment 1 (eyes_closed): 188 samples is too short for 256-sample windows"),
        ("eyes_open,0,30\neyes_closed,30,50", "[pipeline]\nasr_proc_win_s = 25",
         "segment 1 (eyes_closed): processing window of 25.0 s does not fit the data"),
    ],
)
def test_run_checks_the_welch_and_asr_windows_before_any_segment(
    tmp_path, capsys, monkeypatch, events, body, message
):
    data = synth_berger(tmp_path, capsys, segment_s=30)
    (data / "events.csv").write_text(f"condition,start_s,end_s\n{events}\n")
    calls = []
    monkeypatch.setattr("earpipe.pipeline.extract_ecg", lambda *a, **k: calls.append(a))
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n{body}\n",
    )
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 3
    assert json.loads(err)["message"] == message
    assert calls == []


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = write_spec(tmp_path / "bad.ini", "[input]\nsession = x.csv\n")
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize(
    "rate, rule",
    [
        pytest.param("0", "positive", id="0"),
        pytest.param("-125", "positive", id="-125"),
        pytest.param("inf", "finite", id="inf"),  # a zero sample period
    ],
)
def test_run_raw_rate_not_positive_exits_2(tmp_path, capsys, rate, rule):
    raw = tmp_path / "stream.bin"
    raw.write_bytes(encode_stream(np.zeros((250, 16), dtype=int)))
    (tmp_path / "events.csv").write_text("condition,start_s,end_s\nall,0,1\n")
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nraw = {raw}\nevents = {tmp_path / 'events.csv'}\nrate = {rate}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n[pipeline]\nica_seed = 2\n",
    )
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "config"
    assert f"rate must be {rule}, got {float(rate)}" in diag["message"]


def test_run_without_ecg_detection_needs_no_ica_seed(tmp_path, capsys):
    data = synth_berger(tmp_path, capsys)
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n[stages]\nica = off\n",
    )
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    assert code == 0
    assert last_json(out)["n_segments"] == 2


def test_run_ignores_the_global_seed(tmp_path, capsys):
    # --seed is a synth option that run accepts and ignores: the reports
    # are those of a run without it, and ica_seed keeps the config's value;
    # --line-freq overrides the config
    data = synth_berger(tmp_path, capsys)
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {data / 'session.csv'}\nevents = {data / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n[pipeline]\nica_seed = 2\n",
    )
    code, out, _ = run_cli(capsys, "--line-freq", "60", "run", "--config", cfg)
    assert code == 0 and last_json(out)["n_segments"] == 2
    code, out, _ = run_cli(capsys, "--seed", "5", "--line-freq", "60", "run", "--config", cfg,
                           "--out-dir", str(tmp_path / "seeded"))
    assert code == 0
    reports = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert reports == sorted(p.name for p in (tmp_path / "seeded").iterdir())
    for name in set(reports) - {"run_meta.json"}:
        assert (tmp_path / "seeded" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
    meta = json.loads((tmp_path / "seeded" / "run_meta.json").read_text())
    assert meta["config"]["ica_seed"] == 2 and meta["config"]["line_freq_hz"] == 60.0


@pytest.fixture(scope="module")
def berger_20s(tmp_path_factory):
    root = tmp_path_factory.mktemp("berger20")
    spec = root / "fixture.ini"
    spec.write_text("[synth]\nkind = berger\nseed = 11\n\n[berger]\nsegment_s = 20\n")
    assert main(["synth", "--spec", str(spec), "--out-dir", str(root / "data")]) == 0
    return root / "data"


# [pipeline] values that load_config accepts but no run can use; those
# that depend only on the config, the rate and the montage are config
# errors, the others fail on a segment
@pytest.mark.parametrize(
    "pipeline, codes",
    [
        ("line_win_s = 0", {2}),
        ("line_step_s = -1", {2}),
        ("line_freq_hz = 0", {2}),
        ("asr_calib_win_s = 0", {2}),
        ("asr_proc_win_s = 100", {2, 3}),
        ("asr_calib_win_s = 3", {3}),  # 6 calibration windows in a 20 s segment, 10 needed
        ("reref_left = X9", {2}),
        ("reref_left = L3", {2}),
        ("psd_segment = 4000", {2, 3}),
        ("psd_segment = 5\npsd_overlap = 0", {2, 3}),
        ("line_win_s = 0.008", {2}),  # 1 sample: the fit would wipe every band
        ("line_win_s = 0.001", {2}),  # 0 samples: the stage would be skipped
        ("line_win_s = inf", {2}),
        ("asr_proc_win_s = inf", {2}),
        ("hp_cutoff_hz = nan", {2}),
        ("line_freq_hz = nan", {2}),
        ("asr_burst_k = nan", {2}),
    ],
)
def test_run_bad_stage_value_keeps_cli_contract(tmp_path, capsys, berger_20s, pipeline, codes):
    cfg = write_spec(
        tmp_path / "run.ini",
        f"[input]\nsession = {berger_20s / 'session.csv'}\nevents = {berger_20s / 'events.csv'}\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n\n[pipeline]\nica_seed = 2\n{pipeline}\n",
    )
    code, _, err = run_cli(capsys, "run", "--config", cfg)
    assert code in codes
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    diag = json.loads(lines[0])
    key = pipeline.split()[0]
    if code == 2:
        assert diag["error"] == "config" and diag["message"].startswith("pipeline: ")
        assert key in diag["message"].split(": ")[1]
    else:
        assert diag["error"] == "data" and diag["message"].startswith("segment 0 (eyes_open): ")


def test_line_freq_choices(capsys):
    code, _, err = run_cli(capsys, "--line-freq", "55", "run")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert "--line-freq" in json.loads(lines[0])["message"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_run_with_overlapping_ecg_segments_leaves_agreement_not_computed(tmp_path, capsys):
    rec, truth = ecg_eeg_mixture(125.0)
    save_session_csv(rec, tmp_path / "session.csv")
    write_rr_csv(rr_rows(truth), tmp_path / "rr.csv")
    runs = {"overlap": [Event("rest1", 0.0, 30.0), Event("task1", 30.0, 60.0),
                        Event("all", 0.0, 60.0)],
            "in_order": [Event("rest1", 0.0, 30.0), Event("task1", 30.0, 60.0)],
            "reversed": [Event("task1", 30.0, 60.0), Event("rest1", 0.0, 30.0)]}
    reports = {}
    for name, events in runs.items():
        save_events_csv(events, tmp_path / f"{name}.csv")
        cfg = write_spec(tmp_path / f"{name}.ini", f"""
[input]
session = {tmp_path / 'session.csv'}
events = {tmp_path / f'{name}.csv'}
reference_rr = {tmp_path / 'rr.csv'}

[output]
dir = {tmp_path / name}

[stages]
rereference = off
""")
        code, _, err = run_cli(capsys, "run", "--config", cfg)
        assert code == 0 and "Traceback" not in err, name
        qc = json.loads((tmp_path / name / "qc.json").read_text())
        assert all(seg["ecg_component"] is not None for seg in qc["segments"]), name
        assert len(list((tmp_path / name).iterdir())) == 7
        reports[name] = (tmp_path / name / "bland_altman.json").read_text()
    overlap = json.loads(reports["overlap"])
    assert overlap["status"] == "not_computed" and "overlap" in overlap["reason"]
    # the segments' beats are put in session time order, whatever the event order
    assert json.loads(reports["in_order"])["status"] == "ok"
    assert reports["reversed"] == reports["in_order"]


# ----------------------------------------------------------------- bands


def test_bands_default_event_covers_the_recorded_span(tmp_path, capsys):
    rng = np.random.default_rng(5)
    late = Recording(rate=125.0, labels=["a", "b"], data=rng.normal(size=(2, 5000)), t0=10.0)
    save_session_csv(late, tmp_path / "late.csv")
    # a capture that lost packet 1 starts at its second frame, t0 = 8 ms
    blob = encode_stream(rng.integers(-1000, 1000, size=(1000, 16)))
    (tmp_path / "lost.bin").write_bytes(blob[:33] + blob[66:])
    code, _, err = run_cli(capsys, "parse", "--raw", str(tmp_path / "lost.bin"),
                           "--out-dir", str(tmp_path / "p"))
    assert code == 0, err
    assert load_session_csv(tmp_path / "p" / "session.csv").t0 == 0.008
    for session, frames in ((tmp_path / "late.csv", 5000), (tmp_path / "p" / "session.csv", 999)):
        out = tmp_path / f"{session.stem}_bands.csv"
        code, _, err = run_cli(capsys, "bands", "--session", str(session), "--out", str(out))
        assert code == 0, err
        rows = read_band_table(out)
        assert rows and {r.condition for r in rows} == {"all"}
        rec = load_session_csv(session)
        assert rec.n_samples == frames
        want = band_power(welch_psd_recording(rec))
        got = {(r.channel, r.band): r.power_db for r in rows}
        for band, values in want.items():
            for label, value in zip(rec.labels, values):
                assert got[(label, band)] == pytest.approx(value, abs=1e-6)


def test_run_with_every_stage_off_and_bands_write_the_same_table(tmp_path, capsys):
    # 8 channels on purpose: run relabels a session with the montage's 16
    # channels to electrode names, and bands keeps the session's labels
    spec = write_spec(tmp_path / "s.ini", "[synth]\nkind = berger\nseed = 3\n\n"
                      "[berger]\nsegment_s = 30\nn_channels = 8\n")
    run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "d"))
    session, events = tmp_path / "d" / "session.csv", tmp_path / "d" / "events.csv"
    stages = "".join(f"{f.name} = off\n" for f in fields(StageToggles))
    (tmp_path / "run.ini").write_text(
        f"[input]\nsession = {session}\nevents = {events}\n\n[stages]\n{stages}\n"
        f"[output]\ndir = {tmp_path / 'run'}\n")
    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "run.ini"))
    assert code == 0, err
    code, _, err = run_cli(capsys, "bands", "--session", str(session), "--events", str(events),
                           "--out", str(tmp_path / "bands.csv"))
    assert code == 0, err
    assert (tmp_path / "run" / "bands.csv").read_bytes() == (tmp_path / "bands.csv").read_bytes()


def test_bands_subcommand(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "s.ini",
        "[synth]\nkind = eeg\nseed = 1\n\n"
        "[eeg]\nduration_s = 10\nn_channels = 2\ncomponents = 10:4\n",
    )
    run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "d"))
    out_csv = tmp_path / "bands.csv"
    code, out, _ = run_cli(
        capsys, "bands",
        "--session", str(tmp_path / "d" / "session.csv"),
        "--bands", "alpha:8:12,beta:13:30",
        "--out", str(out_csv),
    )
    assert code == 0
    rows = read_band_table(out_csv)
    assert len(rows) == 2 * 2  # 1 condition x 2 channels x 2 bands
    assert {r.condition for r in rows} == {"all"}
    by_band = {b: np.mean([r.power_db for r in rows if r.band == b]) for b in ("alpha", "beta")}
    assert by_band["alpha"] > by_band["beta"]


def test_bands_averages_a_repeated_condition_like_run(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.ini", "[synth]\nkind = eeg\nseed = 1\n\n[eeg]\nduration_s = 10\n")
    run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "d"))
    session = load_session_csv(tmp_path / "d" / "session.csv")
    (tmp_path / "events.csv").write_text("condition,start_s,end_s\nrest,0,4\nrest,4,10\n")
    code, _, err = run_cli(capsys, "bands", "--session", str(tmp_path / "d" / "session.csv"),
                           "--events", str(tmp_path / "events.csv"), "--out", str(tmp_path / "b.csv"))
    assert code == 0, err
    got = {(r.channel, r.band): r.power_db for r in read_band_table(tmp_path / "b.csv")}
    psds = [welch_psd_recording(seg.recording) for seg in cut_segments(
        session, [Event("rest", 0.0, 4.0), Event("rest", 4.0, 10.0)])]
    mean = replace(psds[0], power=(psds[0].power + psds[1].power) / 2)
    want = band_power(mean)
    assert len(got) == len(want) * len(mean.labels)
    for band, values in want.items():
        for label, value in zip(mean.labels, values):
            assert got[(label, band)] == pytest.approx(value, abs=1e-6)


def test_bands_segment_too_long(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "s.ini",
        "[synth]\nkind = eeg\nseed = 1\n\n[eeg]\nduration_s = 1\nn_channels = 1\n",
    )
    run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "d"))
    code, _, err = run_cli(
        capsys, "bands",
        "--session", str(tmp_path / "d" / "session.csv"),
        "--segment", "256",
        "--out", str(tmp_path / "bands.csv"),
    )
    assert code == 3
    assert "too short" in json.loads(err)["message"]


def test_bands_segment_of_exactly_one_window(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "s.ini",
        "[synth]\nkind = eeg\nseed = 1\n\n[eeg]\nduration_s = 2.048\nn_channels = 1\n",
    )
    run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "d"))
    code, out, _ = run_cli(
        capsys, "bands",
        "--session", str(tmp_path / "d" / "session.csv"),
        "--segment", "256", "--overlap", "0",
        "--out", str(tmp_path / "bands.csv"),
    )
    assert code == 0
    assert last_json(out)["rows"] == 4


@pytest.mark.parametrize("spec", ["foo", "alpha:8", "alpha:x:12", "alpha:12:8",
                                  "alpha:8:12,alpha:1:4"])
def test_bands_bad_spec_exits_2(tmp_path, capsys, spec):
    data = synth_berger(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "bands",
        "--session", str(data / "session.csv"),
        "--bands", spec,
        "--out", str(tmp_path / "bands.csv"),
    )
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "config"
    assert diag["message"].startswith("--bands: ")
    assert not (tmp_path / "bands.csv").exists()


# ------------------------------------------------------------- ecg, agree


def synth_ecg(tmp_path, capsys, out="ecgdata"):
    spec = write_spec(
        tmp_path / "ecg.ini",
        "[synth]\nkind = ecg\nseed = 4\n\n[ecg]\nduration_s = 30\nbpm = 75\n",
    )
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / out))
    assert code == 0
    return tmp_path / out


def test_ecg_then_agree(tmp_path, capsys):
    data = synth_ecg(tmp_path, capsys)
    rr_out = tmp_path / "rr.csv"
    code, out, _ = run_cli(
        capsys, "ecg",
        "--session", str(data / "session.csv"),
        "--channel", "ecg",
        "--out", str(rr_out),
    )
    assert code == 0
    assert last_json(out)["beats"] >= 30

    code, out, _ = run_cli(
        capsys, "agree",
        "--ref", str(data / "rr_truth.csv"),
        "--alt", str(rr_out),
        "--out", str(tmp_path / "agree.json"),
    )
    assert code == 0
    report = last_json(out)
    assert report["rr_pairs"] >= 20
    # the same key as bland_altman.json of earpipe run
    assert report["matched_pairs"] > report["rr_pairs"] and "matched_beats" not in report
    assert abs(report["mean_diff_ms"]) < 5.0
    saved = json.loads((tmp_path / "agree.json").read_text())
    assert saved["mean_diff_ms"] == report["mean_diff_ms"]


def test_ecg_channel_by_index_matches_label(tmp_path, capsys):
    data = synth_ecg(tmp_path, capsys)
    run_cli(capsys, "ecg", "--session", str(data / "session.csv"),
            "--channel", "ecg", "--out", str(tmp_path / "by_label.csv"))
    run_cli(capsys, "ecg", "--session", str(data / "session.csv"),
            "--channel", "1", "--out", str(tmp_path / "by_index.csv"))
    assert (tmp_path / "by_label.csv").read_bytes() == (tmp_path / "by_index.csv").read_bytes()


def _ecg_refuses(tmp_path, capsys, session, channel):
    """Run `ecg` on one channel, expecting the no-heartbeat data error."""
    rr_out = tmp_path / "rr.csv"
    code, out, err = run_cli(capsys, "ecg", "--session", str(session),
                             "--channel", channel, "--out", str(rr_out))
    assert code == 3
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "data"
    assert diag["message"].startswith(f"channel {channel}: no heartbeat by the rule of stage 7")
    assert "held-out skewness >= 0.5 and rhythm score >= 0.5" in diag["message"]
    assert not rr_out.exists()


def test_ecg_heartless_channel_exits_3(tmp_path, capsys):
    # a Berger session has no heart; the detector alone finds ~100 "beats"
    data = synth_berger(tmp_path, capsys, segment_s=30)
    _ecg_refuses(tmp_path, capsys, data / "session.csv", "1")


def test_ecg_refuses_skewed_spikes_without_a_rhythm(tmp_path, capsys):
    # one-sided 80 uV spikes 1.6-4 s apart over 3 uV pink noise: the channel
    # is skewed in every epoch, but its spikes keep no heart's rhythm
    rate = 250.0
    x = gen_eeg(EegSynthSpec(rate=rate, duration_s=60.0, seed=0, n_channels=1)).data[0]
    rng = np.random.default_rng(0)
    spike = 80.0 * np.array([0.25, 0.5, 1.0, 0.5, 0.25])
    t = 1.0 + rng.uniform(1.6, 4.0)
    while (i := int(t * rate)) + len(spike) <= len(x):
        x[i : i + len(spike)] += spike
        t += rng.uniform(1.6, 4.0)
    rec = Recording(rate=rate, labels=["spikes"], data=x[None, :])
    assert len(pan_tompkins(x, rate)) > 20  # the detector alone times every spike
    save_session_csv(rec, tmp_path / "session.csv")
    _ecg_refuses(tmp_path, capsys, tmp_path / "session.csv", "spikes")


def test_ecg_refuses_a_channel_shorter_than_two_epochs(tmp_path, capsys):
    # an 8 s ECG holds a heart, but stage 7 decides only on 10 s or more
    spec = write_spec(tmp_path / "ecg.ini",
                      "[synth]\nkind = ecg\nseed = 3\n\n[ecg]\nduration_s = 8\n")
    code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out-dir", str(tmp_path / "short"))
    assert code == 0
    _ecg_refuses(tmp_path, capsys, tmp_path / "short" / "session.csv", "ecg")


@pytest.mark.parametrize("rate", [125.0, 250.0])
def test_ecg_times_the_beats_of_the_one_channel_detector(tmp_path, capsys, rate):
    # where the heartbeat decision finds a heart, its beats are those the
    # one-channel detector found on the channel's R lobe
    for seed in range(2):
        rec, _ = gen_ecg(EcgSynthSpec(rate=rate, duration_s=30.0, seed=seed))
        noise = gen_eeg(EegSynthSpec(rate=rate, duration_s=30.0, seed=seed, n_channels=1)).data[0]
        for name, x in (("clean", rec.data[0]), ("negated", -rec.data[0]),
                        ("noisy", rec.data[0] + 10.0 * noise + 250.0)):
            session, rr_out, want = (tmp_path / f"{seed}{name}.{suffix}"
                                     for suffix in ("csv", "rr.csv", "want.csv"))
            save_session_csv(Recording(rate=rate, labels=["ecg"], data=x[None, :]), session)
            code, _, _ = run_cli(capsys, "ecg", "--session", str(session),
                                 "--channel", "ecg", "--out", str(rr_out))
            assert code == 0, (seed, name)
            x = load_session_csv(session).data[0]  # the samples `ecg` reads
            write_rr_csv(rr_rows(BeatSeries(detect_beats(x, rate))), want)
            assert rr_out.read_bytes() == want.read_bytes(), (seed, name)


def test_ecg_bad_channel(tmp_path, capsys):
    data = synth_ecg(tmp_path, capsys)
    code, _, err = run_cli(capsys, "ecg", "--session", str(data / "session.csv"),
                           "--channel", "bogus", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_agree_missing_file(tmp_path, capsys):
    data = synth_ecg(tmp_path, capsys)
    code, _, err = run_cli(capsys, "agree", "--ref", str(data / "rr_truth.csv"),
                           "--alt", str(tmp_path / "nope.csv"))
    assert code == 3
    assert json.loads(err)["error"] == "data"


def test_agree_disjoint_series(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("beat_time_s,rr_ms,flag\n1.0,1000.0,ok\n2.0,1000.0,ok\n")
    b.write_text("beat_time_s,rr_ms,flag\n100.0,1000.0,ok\n101.0,1000.0,ok\n")
    code, _, err = run_cli(capsys, "agree", "--ref", str(a), "--alt", str(b))
    assert code == 3
    assert "paired" in json.loads(err)["message"]


@pytest.mark.parametrize("row", ["abc,1000.0,ok", "2.0"], ids=["bad-value", "one-field"])
def test_agree_malformed_rr_row(tmp_path, capsys, row):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    good.write_text("beat_time_s,rr_ms,flag\n1.0,1000.0,ok\n2.0,1000.0,ok\n")
    bad.write_text(f"beat_time_s,rr_ms,flag\n1.0,1000.0,ok\n{row}\n")
    code, _, err = run_cli(capsys, "agree", "--ref", str(good), "--alt", str(bad))
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "data"
    assert f"{bad}:3" in diag["message"]


# --------------------------------------------------------------- analyze


def analysis_table(tmp_path, inline_scores=True):
    lines = ["participant,condition,channel,band,power_db" +
             (",tlx_total,flow_mean" if inline_scores else "")]
    rng = np.random.default_rng(0)
    tlx = {"easy": 40.0, "medium": 70.0, "hard": 100.0}
    flow = {"easy": 3.0, "medium": 5.5, "hard": 3.5}
    for p in ("P1", "P2", "P3"):
        for cond in ("easy", "medium", "hard"):
            for ch in ("L1", "R1"):
                power = 10.0 + 2.0 * tlx[cond] / 40.0 + rng.normal(0, 0.2)
                row = f"{p},{cond},{ch},alpha,{power:.4f}"
                if inline_scores:
                    row += f",{tlx[cond]},{flow[cond]}"
                lines.append(row)
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_analyze_inline_scores(tmp_path, capsys):
    table = analysis_table(tmp_path)
    code, out, _ = run_cli(capsys, "analyze", "--bands", str(table),
                           "--out-dir", str(tmp_path / "o"))
    assert code == 0
    payload = json.loads((tmp_path / "o" / "analysis.json").read_text())
    assert payload["bands"] == ["alpha"]
    workload = payload["workload_linear"]["alpha"]
    assert workload["status"] == "ok"
    slope = next(c for c in workload["coefficients"] if c["name"] == "slope")
    assert slope["estimate"] > 0
    assert payload["contrasts"]["alpha"]["status"] == "ok"
    assert len(payload["contrasts"]["alpha"]["pairs"]) == 3


def test_analyze_without_scores(tmp_path, capsys):
    table = analysis_table(tmp_path, inline_scores=False)
    code, _, _ = run_cli(capsys, "analyze", "--bands", str(table),
                         "--out-dir", str(tmp_path / "o"))
    assert code == 0
    payload = json.loads((tmp_path / "o" / "analysis.json").read_text())
    assert payload["workload_linear"]["status"] == "not_computed"
    assert payload["contrasts"]["alpha"]["status"] == "ok"


def test_analyze_exclude_condition(tmp_path, capsys):
    table = analysis_table(tmp_path)
    code, _, _ = run_cli(capsys, "analyze", "--bands", str(table),
                         "--exclude-condition", "hard",
                         "--out-dir", str(tmp_path / "o"))
    assert code == 0
    payload = json.loads((tmp_path / "o" / "analysis.json").read_text())
    # hard is dropped from the regressions but contrasts keep every pair
    assert payload["workload_linear"]["alpha"]["n"] == 6
    pairs = payload["contrasts"]["alpha"]["pairs"]
    assert any("hard" in (pr["a"], pr["b"]) for pr in pairs)


def test_exclude_condition_help_names_the_rest_conditions():
    """cli spells out the default that analysis.REST_CONDITIONS holds."""
    from earpipe.analysis import REST_CONDITIONS
    from earpipe.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    option = next(action for action in sub.choices["analyze"]._actions
                  if "--exclude-condition" in action.option_strings)
    assert all(condition in option.help for condition in REST_CONDITIONS)


def test_analyze_missing_table(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--bands", str(tmp_path / "nope.csv"),
                           "--out-dir", str(tmp_path / "o"))
    assert code == 3
    assert json.loads(err)["error"] == "data"


# ------------------------------------------------------------- contract


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@contextlib.contextmanager
def warnings_on_stderr():
    """Print every warning to stderr, as outside pytest."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        yield


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    spec = root / "eeg.ini"
    spec.write_text("[synth]\nkind = eeg\nseed = 1\n\n[eeg]\nduration_s = 2.048\nn_channels = 1\n")
    assert main(["synth", "--spec", str(spec), "--out-dir", str(root)]) == 0
    (root / "rr.csv").write_text("beat_time_s,rr_ms,flag\n1.0,800.0,ok\n1.8,800.0,ok\n2.6,800.0,ok\n")
    (root / "dir").mkdir()
    (root / "cap.bin").write_bytes(encode_stream(np.zeros((250, 16), dtype=int)))
    (root / "run.ini").write_text(f"[input]\nsession = {root / 'dir'}\nevents = {root / 'events.csv'}\n")
    for name, row in (("short_row", "all,0"), ("nan_time", "all,nan,1"),
                      ("huge_span", "all,-1e308,1e308"), ("out_of_span", "all,0,1e300")):
        (root / f"{name}.csv").write_text(f"condition,start_s,end_s\n{row}\n")
    session = (root / "session.csv").read_text().splitlines()
    (root / "nan_rate.csv").write_text("\n".join(["#rate=nan", *session[1:]]) + "\n")
    (root / "abc_rate.csv").write_text("\n".join(["#rate=abc", *session[1:]]) + "\n")
    (root / "huge_rate.csv").write_text("\n".join(["#rate=1e308", *session[1:]]) + "\n")
    (root / "rate_1.csv").write_text("\n".join(["#rate=1", *session[1:14]]) + "\n")  # 12 rows
    # 30 s at 125 Hz under a header the session format refuses
    (root / "xy.csv").write_text("condition,start_s,end_s\nx,0,15\ny,15,30\n")
    samples = np.random.default_rng(0).normal(0.0, 10.0, size=(3750, 2))
    for name, header in BAD_HEADERS.items():
        width = len(header.split(",")) - 1
        rows = [",".join([f"{i / 125:.6f}", *(f"{v:.6f}" for v in samples[i, :width])])
                for i in range(3750)]
        (root / f"{name}.csv").write_text("\n".join(["#rate=125", header, *rows]) + "\n")
        (root / f"{name}.ini").write_text(
            f"[input]\nsession = {root / name}.csv\nevents = {root / 'xy.csv'}\n\n"
            f"[stages]\nrereference = off\n\n[output]\ndir = {root / 'out'}\n")
    return root


BAD_HEADERS = {"dup_a": "t_s,a,a", "no_channel": "t_s", "empty_name": "t_s,,b",
               "dup_t_s": "t_s,t_s,a"}
BAD_HEADER_MESSAGES = {
    "dup_a": "{root}/dup_a.csv:2: column 3 of the header repeats 'a'",
    "no_channel": "{root}/no_channel.csv:2: header has no channel column",
    "empty_name": "{root}/empty_name.csv:2: column 2 of the header has no name",
    "dup_t_s": "{root}/dup_t_s.csv:2: column 2 of the header repeats 't_s'",
}
BAD_HEADER_ARGV = {
    "run": "run --config {root}/%s.ini",
    "bands": "bands --session {root}/%s.csv --events {root}/xy.csv --out {root}/b.csv",
    "ecg": "ecg --session {root}/%s.csv --channel 1 --out {root}/rr_h.csv",
}


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        pytest.param("agree --ref {rr} --alt {rr} --tolerance 0", 2, "--tolerance", id="tol-0"),
        pytest.param("agree --ref {rr} --alt {rr} --tolerance -1", 2, "--tolerance", id="tol-neg"),
        pytest.param("agree --ref {rr} --alt {rr} --tolerance nan", 2, "--tolerance", id="tol-nan"),
        pytest.param("agree --ref {rr} --alt {rr} --tolerance inf", 2, "--tolerance", id="tol-inf"),
        pytest.param("parse --raw {root}/cap.bin --rate 0 --out-dir {root}/p", 2, "--rate",
                     id="rate-0"),
        pytest.param("parse --raw {root}/cap.bin --rate nan --out-dir {root}/p", 2, "--rate",
                     id="rate-nan"),
        pytest.param("run --config {root}/run.ini", 3, "session file cannot be read: {dir}",
                     id="run-session-dir"),
        pytest.param("run --config {dir}", 2, "config file cannot be read: {dir}", id="run-config-dir"),
        pytest.param("bands --session {dir} --out {root}/b.csv", 3, "session file cannot be read",
                     id="bands-session-dir"),
        pytest.param("agree --ref {dir} --alt {rr}", 3, "R-R file cannot be read", id="agree-ref-dir"),
        pytest.param("parse --raw {dir} --out-dir {root}/p", 3, "raw stream cannot be read",
                     id="parse-raw-dir"),
        pytest.param("bands --session {session} --out {dir}", 2, "cannot write {dir}",
                     id="bands-out-dir"),
        pytest.param("bands --session {session} --out {root}/missing/b.csv", 2,
                     "cannot write {root}/missing/b.csv", id="bands-out-missing-parent"),
        pytest.param("bands --session {session} --segment abc --out {root}/b.csv", 2,
                     "argument --segment: invalid int value", id="usage-bad-int"),
        pytest.param("frob", 2, "invalid choice: 'frob'", id="usage-unknown-command"),
        pytest.param("bands --session {session} --events {root}/short_row.csv --out {root}/b.csv",
                     3, "{root}/short_row.csv:2: 2 fields, header has 3", id="events-short-row"),
        pytest.param("bands --session {session} --events {root}/nan_time.csv --out {root}/b.csv",
                     3, "[nan, 1.0) cannot be counted in samples", id="events-nan-time"),
        pytest.param("bands --session {session} --events {root}/huge_span.csv --out {root}/b.csv",
                     3, "cannot be counted in samples", id="events-huge-span"),
        pytest.param("bands --session {root}/nan_rate.csv --out {root}/b.csv", 3,
                     "{root}/nan_rate.csv:1: #rate= must be a positive finite number, got 'nan'",
                     id="session-nan-rate"),
        pytest.param("bands --session {root}/abc_rate.csv --out {root}/b.csv", 3,
                     "{root}/abc_rate.csv:1: #rate= must be a positive finite number, got 'abc'",
                     id="session-abc-rate"),
        pytest.param("bands --session {session} --events {root}/out_of_span.csv --out {root}/b.csv",
                     3, "event all [0.0, 1e+300) outside the recorded span [0.0, 2.048)",
                     id="events-out-of-span"),
        # a 1e308 Hz rate overflows Welch's density scale: the default bands
        # fail first, and a band that holds bins meets the rate check
        pytest.param("bands --session {root}/huge_rate.csv --out {root}/b.csv", 2,
                     "band theta contains no frequency bins", id="session-huge-rate"),
        pytest.param("bands --session {root}/huge_rate.csv --bands x:0:1e306 --out {root}/b.csv",
                     3, "rate 1e+308 Hz overflows the Welch density scale",
                     id="session-huge-rate-band"),
        pytest.param("ecg --session {root}/rate_1.csv --channel 1 --out {root}/rr_1.csv", 3,
                     "channel 1: no heartbeat by the rule of stage 7, which needs at least 10 s "
                     "at 100 Hz or more", id="ecg-rate-1"),
        *(pytest.param(argv % name, 3, BAD_HEADER_MESSAGES[name], id=f"{command}-header-{name}")
          for command, argv in BAD_HEADER_ARGV.items() for name in BAD_HEADERS),
    ],
)
def test_bad_flag_or_path_exits_with_one_json_object(capsys, contract_inputs, argv, code, fragment):
    paths = {"root": contract_inputs, "dir": contract_inputs / "dir",
             "rr": contract_inputs / "rr.csv", "session": contract_inputs / "session.csv"}
    with warnings_on_stderr():
        got, out, err = run_cli(capsys, *argv.format(**paths).split())
    assert got == code and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    diag = json.loads(lines[0])
    assert diag["error"] == {2: "config", 3: "data"}[code]
    assert fragment.format(**paths) in diag["message"]


@pytest.fixture(scope="module")
def huge_sample_session(tmp_path_factory):
    """A 2 x 12 s Berger session (seed 3) whose ch3 holds 1e300 uV at row 500."""
    root = tmp_path_factory.mktemp("huge_sample")
    spec = root / "berger.ini"
    spec.write_text("[synth]\nkind = berger\nseed = 3\n\n[berger]\nsegment_s = 12\n")
    assert main(["synth", "--spec", str(spec), "--out-dir", str(root)]) == 0
    lines = (root / "session.csv").read_text().splitlines(keepends=True)
    row = lines[2 + 500].split(",")  # after the rate line and the header
    row[3] = "1e300"
    lines[2 + 500] = ",".join(row)
    (root / "session.csv").write_text("".join(lines))
    (root / "run.ini").write_text(
        f"[input]\nsession = {root / 'session.csv'}\nevents = {root / 'events.csv'}\n")
    return root


@pytest.mark.parametrize(
    "argv, cached",
    [
        pytest.param("run --config {root}/run.ini --out-dir {out}", False, id="run"),
        pytest.param("bands --session {root}/session.csv --events {root}/events.csv "
                     "--out {out}/bands.csv", False, id="bands"),
        pytest.param("ecg --session {root}/session.csv --channel 3 --out {out}/rr.csv", False,
                     id="ecg"),
        pytest.param("bands --session {root}/session.csv --events {root}/events.csv "
                     "--out {out}/bands.csv", True, id="bands-cache-hit"),
    ],
)
def test_sample_past_the_limit_exits_with_one_json_object(capsys, monkeypatch, tmp_path,
                                                          huge_sample_session, argv, cached):
    session = huge_sample_session / "session.csv"
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(tmp_path / "cache"))
    if cached:
        # the rows as a loader without the limit stored them; the load below
        # must take them from the cache, so parsing the file again fails
        state = ingest._file_state(session)
        header = session.read_text().splitlines()[1].split(",")
        rows = ingest._parse_rows(session, header, 2)
        assert ingest._store_rows(ingest._cache_entry(session, state), state, session, rows)

        def no_parse(*args):
            raise AssertionError("the cached rows were not used")

        monkeypatch.setattr(ingest, "_parse_rows", no_parse)
    out = tmp_path / "out"
    with warnings_on_stderr():
        got, stdout, err = run_cli(capsys, *argv.format(root=huge_sample_session, out=out).split())
    assert got == 3 and stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "data",
        "message": f"{session}: value 1e+300 in ch3 at t_s=4.000000 is past the sample "
                   "limit of +-1e+06 uV (1 V)",
    }
    assert not list(tmp_path.rglob("bands.csv")) and not list(tmp_path.rglob("rr.csv"))


def test_import_loads_no_submodule_and_the_cli_no_synth():
    """In a fresh interpreter, `import earpipe` loads neither numpy nor any
    submodule, and `import earpipe.cli` leaves synth to `earpipe synth`."""
    probe = ("import sys, earpipe; "
             "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('earpipe.'))); "
             "import earpipe.cli; print('earpipe.synth' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(earpipe.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "False"]


def test_version_help_and_usage_errors_load_no_numpy_and_no_layer():
    """In a fresh interpreter, the parser's own exits import only the
    standard library, earpipe, earpipe.cli and earpipe.errors; a command
    that argparse accepts loads earpipe.commands, and with it numpy, but
    not synth."""
    probe = """
import contextlib, io, json, sys
from earpipe.cli import main
for argv in (["--version"], ["--help"], ["run", "--help"], ["bogus"], ["run"]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    modules = sorted(m for m in sys.modules if m == "numpy" or m.startswith("earpipe"))
    print(json.dumps([code, err.getvalue(), modules]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(earpipe.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    *runs, (run_code, run_err, run_modules) = map(json.loads, done.stdout.splitlines())
    assert [code for code, _, _ in runs] == [0, 0, 0, 2]
    assert [err for _, err, _ in runs[:3]] == ["", "", ""]
    lines = runs[3][1].strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    for _, _, modules in runs:
        assert "earpipe.commands" not in modules
        assert modules == ["earpipe", "earpipe.cli", "earpipe.errors"]
    # `run` without a config passes argparse and fails in its command
    assert run_code == 2 and "run needs a config" in json.loads(run_err)["message"]
    assert {"numpy", "earpipe.commands", "earpipe.pipeline"} <= set(run_modules)
    assert "earpipe.synth" not in run_modules


def test_every_command_has_its_handler():
    """Each subcommand that the parser offers is a cmd_<name> of
    earpipe.commands, and each cmd_<name> is offered."""
    from earpipe import commands
    from earpipe.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    handlers = {name[4:] for name, value in vars(commands).items()
                if name.startswith("cmd_") and callable(value)}
    assert set(sub.choices) == handlers
    assert len(handlers) == 7


def test_every_command_prints_one_json_line_naming_it(tmp_path, capsys):
    """On success, each of the seven commands writes one line to stdout: a
    JSON object whose `command` is the subcommand."""
    berger = synth_berger(tmp_path, capsys)
    ecg = synth_ecg(tmp_path, capsys)
    (tmp_path / "cap.bin").write_bytes(encode_stream(np.zeros((250, 16), dtype=int)))
    cfg = write_spec(tmp_path / "run.ini", f"[input]\nsession = {berger / 'session.csv'}\n"
                     f"events = {berger / 'events.csv'}\n\n[output]\ndir = {tmp_path / 'run'}\n")
    spec = write_spec(tmp_path / "eeg.ini", "[synth]\nkind = eeg\nseed = 1\n\n[eeg]\nduration_s = 2\n")
    argvs = {
        "parse": ["--raw", tmp_path / "cap.bin", "--out-dir", tmp_path / "parsed"],
        "synth": ["--spec", spec, "--out-dir", tmp_path / "eeg"],
        "run": ["--config", cfg],
        "bands": ["--session", berger / "session.csv", "--events", berger / "events.csv",
                  "--out", tmp_path / "bands.csv"],
        "ecg": ["--session", ecg / "session.csv", "--channel", "ecg", "--out", tmp_path / "rr.csv"],
        "agree": ["--ref", ecg / "rr_truth.csv", "--alt", tmp_path / "rr.csv"],
        "analyze": ["--bands", analysis_table(tmp_path), "--out-dir", tmp_path / "analysis"],
    }
    for command, argv in argvs.items():
        code, out, err = run_cli(capsys, command, *map(str, argv))
        assert code == 0 and err == "", command
        assert out.endswith("\n") and out.count("\n") == 1, command
        summary = json.loads(out)
        assert isinstance(summary, dict) and summary["command"] == command


def test_analyze_writes_null_for_a_non_finite_statistic(tmp_path, capsys):
    # b-c is shared by P1 alone (no t-test: NaN); a-b differs by exactly 2 dB
    # for both participants who hold it (zero spread: t is infinite)
    cells = {("P1", "a"): 10.0, ("P1", "b"): 8.0, ("P1", "c"): 9.0,
             ("P2", "a"): 12.0, ("P2", "b"): 10.0, ("P3", "a"): 11.0, ("P3", "c"): 7.5}
    table = tmp_path / "table.csv"
    table.write_text("participant,condition,channel,band,power_db\n" + "".join(
        f"{p},{c},L1,alpha,{v}\n" for (p, c), v in cells.items()))
    code, _, _ = run_cli(capsys, "analyze", "--bands", str(table), "--out-dir", str(tmp_path / "o"))
    assert code == 0

    def refuse(token):
        raise AssertionError(f"{token} in analysis.json")

    payload = json.loads((tmp_path / "o" / "analysis.json").read_text(), parse_constant=refuse)
    pairs = {(p["a"], p["b"]): p for p in payload["contrasts"]["alpha"]["pairs"]}
    assert pairs[("b", "c")]["mean_diff"] is None
    assert pairs[("a", "b")]["t"] is None and pairs[("a", "b")]["mean_diff"] == 2.0


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "berger.ini"
    spec.write_text("[synth]\nkind = berger\nseed = 3\n\n[berger]\nsegment_s = 12\n")
    assert main(["synth", "--spec", str(spec), "--out-dir", str(root)]) == 0
    (root / "rr.csv").write_text("beat_time_s,rr_ms,flag\n" + "".join(
        f"{0.5 + 0.8 * i:.6f},800.000,ok\n" for i in range(25)))
    shutil.copy(builtin_montage_path(), root / "montage.csv")
    (root / "scores.csv").write_text(
        "participant,condition,tlx_total,flow_mean\nP01,eyes_open,40,3\nP01,eyes_closed,60,4.5\n")
    assert main(["bands", "--session", str(root / "session.csv"), "--events",
                 str(root / "events.csv"), "--out", str(root / "bands.csv")]) == 0
    return root


def _mutate_text(text: str, kind: str, line: int, field: int, value: str) -> str:
    """One edit of a CSV or INI file: drop its lines from one on, drop one
    CSV field, put value into one CSV field or INI value, or append value
    as a line."""
    lines = text.splitlines()
    i = line % len(lines)
    if kind == "truncate":
        lines = lines[:i]
    elif kind == "append":
        lines.append(value)
    elif kind == "drop":
        cells = lines[i].split(",")
        del cells[field % len(cells)]
        lines[i] = ",".join(cells)
    elif " = " in lines[i]:
        lines[i] = lines[i].split(" = ")[0] + " = " + value
    else:
        cells = lines[i].split(",")
        cells[field % len(cells)] = value
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


_FILE_EDITS = st.one_of(
    st.just(("keep",)),
    st.sampled_from([("delete",), ("directory",), ("empty",)]),
    st.tuples(
        st.sampled_from(["truncate", "append", "value", "drop"]),
        st.integers(0, 40),
        st.integers(0, 20),
        st.sampled_from(["nan", "inf", "-1", "0", "", "abc", "1e308", "2.5", "off", "[x]",
                         "eyes_open,0,1e9", "P01,a,b", "9", "0.001", "1_000", " L1 ",
                         "L1,record"]),
    ),
)
_FUZZ_FILES = ("session.csv", "events.csv", "rr.csv", "montage.csv", "scores.csv", "bands.csv")


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["run", "bands", "agree", "ecg", "analyze"]),
    edits=st.fixed_dictionaries({name: _FILE_EDITS for name in (*_FUZZ_FILES, "run.ini")}),
    out_kind=st.sampled_from(["fresh", "file", "under-file", "missing-parent"]),
    extra=st.sampled_from(["", "[pipeline]\npsd_average = pooled\n", "[stages]\nasr = off\n",
                           "[pipeline]\npsd_segment = 2048\n", "[stages]\nica = off\n"]),
)
def test_cli_contract_holds_for_mutated_inputs(fuzz_inputs, tmp_path_factory, command, edits,
                                               out_kind, extra):
    d = tmp_path_factory.mktemp("case")
    for name in _FUZZ_FILES:
        shutil.copy(fuzz_inputs / name, d / name)
    (d / "run.ini").write_text(
        f"[input]\nsession = {d / 'session.csv'}\nevents = {d / 'events.csv'}\n"
        f"montage = {d / 'montage.csv'}\nreference_rr = {d / 'rr.csv'}\n"
        f"surveys = {d / 'scores.csv'}\n\n[output]\ndir = {d / 'out'}\n\n{extra}"
    )
    for name, (kind, *how) in edits.items():
        path = d / name
        if kind == "delete":
            path.unlink()
        elif kind == "directory":
            path.unlink()
            path.mkdir()
        elif kind == "empty":
            path.write_text("")
        elif kind != "keep":
            path.write_text(_mutate_text(path.read_text(), kind, *how))
    (d / "a_file").write_text("x")
    out = {"fresh": d / "o", "file": d / "a_file", "under-file": d / "a_file" / "o",
           "missing-parent": d / "no" / "o"}[out_kind]
    argv = {
        "run": ["run", "--config", d / "run.ini", "--out-dir", out],
        "bands": ["bands", "--session", d / "session.csv", "--events", d / "events.csv",
                  "--out", out],
        "agree": ["agree", "--ref", d / "rr.csv", "--alt", fuzz_inputs / "rr.csv", "--out", out],
        "ecg": ["ecg", "--session", d / "session.csv", "--channel", "1", "--out", out],
        "analyze": ["analyze", "--bands", d / "bands.csv", "--scores", d / "scores.csv",
                    "--out-dir", out],
    }[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    err = stderr.getvalue()
    assert code in (0, 2, 3) and "Traceback" not in err
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == {2: "config", 3: "data"}[code] and diag["message"]
    else:
        assert json.loads(stdout.getvalue().strip().splitlines()[-1])["command"] == command


# table -> (input file, command reading it from {table}, a number column)
_TABLES = {
    "events": ("events.csv", "bands --session {d}/session.csv --events {table} --out {o}/b.csv",
               "end_s"),
    "rr": ("rr.csv", "agree --ref {table} --alt {table}", "rr_ms"),
    "scores": ("scores.csv", "analyze --bands {d}/bands.csv --scores {table} --out-dir {o}",
               "flow_mean"),
    "bands": ("bands.csv", "analyze --bands {table} --out-dir {o}", "power_db"),
    "montage": ("montage.csv", "run --config {o}/run.ini", "channel"),
}


# (table, fault) -> (column, field, message) of a row that the table reader
# takes and the table's loader refuses
_VALUE_FAULTS = {
    ("events", "value"): ("start_s", "1e9", "event eyes_closed: end 24.0 before start 1000000000.0"),
    ("montage", "value"): ("label", "X2", "cannot parse electrode label 'X2'"),
    ("scores", "value"): ("tlx_total", "nan", "'nan' in tlx_total is not finite"),
    ("bands", "value"): ("power_db", "nan", "'nan' in power_db is not finite"),
    # the rows before the last are beats 0.8 s apart, the last one at 19.7 s
    ("rr", "nan-time"): ("beat_time_s", "nan", "'nan' in beat_time_s is not finite"),
    ("rr", "inf-time"): ("beat_time_s", "inf", "'inf' in beat_time_s is not finite"),
    ("rr", "nan-interval"): ("rr_ms", "nan", "'nan' in rr_ms is not finite"),
    ("rr", "early-time"): ("beat_time_s", "19.0", "beats closer than the refractory period"),
    ("rr", "short-interval"): ("rr_ms", "150", "beats closer than the refractory period"),
}


@pytest.mark.parametrize("table, fault", [
    *((table, fault) for table in _TABLES for fault in ("none", "short", "long", "number")),
    *_VALUE_FAULTS,
])
def test_every_table_reader_names_the_bad_line(fuzz_inputs, tmp_path, capsys, table, fault):
    # spaces around the header's names, a blank line, then the last row with its fault
    name, command, column = _TABLES[table]
    header, *rows = (fuzz_inputs / name).read_text().splitlines()
    columns = header.split(",")
    last = dict(zip(columns, rows[-1].split(",")))
    if fault == "number":
        last[column] = "1_000"
    elif (table, fault) in _VALUE_FAULTS:
        column, last[column], problem = _VALUE_FAULTS[table, fault]
    cells = list(last.values())
    if fault == "short":
        cells.pop()
    elif fault == "long":
        cells.append("x")
    path = tmp_path / name
    path.write_text("\n".join([" , ".join(columns), *rows[:-1], "", ",".join(cells)]) + "\n")
    (tmp_path / "run.ini").write_text(
        f"[input]\nsession = {fuzz_inputs / 'session.csv'}\nevents = {fuzz_inputs / 'events.csv'}\n"
        f"montage = {path}\n\n[output]\ndir = {tmp_path / 'out'}\n")
    argv = command.format(d=fuzz_inputs, table=path, o=tmp_path).split()
    code, out, err = run_cli(capsys, *argv)
    if fault == "none":
        assert code == 0 and last_json(out)["command"] == argv[0]
        return
    if fault == "number":
        problem = f"'1_000' in {column} is not a number"
    elif fault in ("short", "long"):
        problem = f"{len(cells)} fields, header has {len(columns)}"
    assert code == 3 and "Traceback" not in err
    assert json.loads(err) == {"error": "data", "message": f"{path}:{len(rows) + 2}: {problem}"}


# the montage and R-R loaders raise plain ValueErrors; run's input loader
# reports each as a data error with the loader's message
@pytest.mark.parametrize("key, body, message", [
    ("montage", builtin_montage_path().read_text().replace("L2,record", "L2,boss", 1),
     "{path}:3: unknown role 'boss' for L2"),
    ("reference_rr", "time,interval\n1,2\n", "{path}: expected header beat_time_s,rr_ms[,flag]"),
    ("reference_rr", "beat_time_s,rr_ms,flag\n", "{path}: no intervals"),
], ids=["montage-bad-row", "rr-bad-header", "rr-no-intervals"])
def test_run_reports_a_bad_montage_or_rr_file_as_a_data_error(fuzz_inputs, tmp_path, capsys, key,
                                                              body, message):
    path = tmp_path / "input.csv"
    path.write_text(body)
    cfg = write_spec(tmp_path / "run.ini",
                     f"[input]\nsession = {fuzz_inputs / 'session.csv'}\n"
                     f"events = {fuzz_inputs / 'events.csv'}\n{key} = {path}\n\n"
                     f"[output]\ndir = {tmp_path / 'out'}\n")
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "data", "message": message.format(path=path)}
    assert not (tmp_path / "out").exists()
