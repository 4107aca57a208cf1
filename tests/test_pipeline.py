import configparser
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from earpipe import pipeline
from earpipe.cardiac import BeatSeries, rr_periods
from earpipe.cli import main as cli_main
from earpipe.filters import FirSpec, apply_zero_phase, design_fir
from earpipe.ingest import (
    Event,
    encode_stream,
    microvolts_to_counts,
    save_events_csv,
    save_session_csv,
)
from earpipe.pipeline import (
    ConfigError,
    DataError,
    _FIELDS,
    _SECTIONS,
    STAGES,
    PipelineConfig,
    compute_run,
    load_config,
    load_rr_beats,
    plan_stages,
    read_sections,
    run_pipeline,
    write_reports,
)
from earpipe.montage import builtin_montage_path, load_montage_csv
from earpipe.spectral import band_power, read_band_table
from earpipe.synth import BergerSpec, berger_session


def write_config(path, body):
    path.write_text(body)
    return path


def berger_inputs(tmp_path, segment_s=20.0, n_channels=16, seed=0):
    rec = berger_session(BergerSpec(seed=seed, segment_s=segment_s, n_channels=n_channels))
    save_session_csv(rec, tmp_path / "session.csv")
    save_events_csv(rec.events, tmp_path / "events.csv")
    return rec


def base_config(tmp_path, extra_pipeline="", extra_stages=""):
    return write_config(
        tmp_path / "run.ini",
        f"""
[input]
session = {tmp_path / 'session.csv'}
events = {tmp_path / 'events.csv'}
participant = P07

[output]
dir = {tmp_path / 'out'}

[stages]
{extra_stages}

[pipeline]
ica_seed = 42
{extra_pipeline}
""",
    )


# --------------------------------------------------------------- config


def test_load_config_full(tmp_path):
    path = write_config(
        tmp_path / "full.ini",
        f"""
[input]
session = s.csv
events = e.csv
participant = P03
rate = 250

[output]
dir = {tmp_path / 'reports'}

[stages]
asr = off
ica = false

[pipeline]
hp_cutoff_hz = 0.5
hp_order = 400
lp_cutoff_hz = 40
line_freq_hz = 60
psd_average = pooled
bands = Slow:1:4,Fast:20:40

[analysis]
match_tolerance_s = 0.2
exclude_conditions = rest, task_a
""",
    )
    cfg = load_config(path)
    assert cfg.session == "s.csv" and cfg.events == "e.csv"
    assert cfg.participant == "P03" and cfg.rate == 250.0
    assert cfg.out_dir == str(tmp_path / "reports")
    assert cfg.stages.asr is False and cfg.stages.ica is False
    assert cfg.stages.highpass is True
    assert cfg.hp_cutoff_hz == 0.5 and cfg.hp_order == 400
    assert cfg.line_freq_hz == 60.0 and cfg.psd_average == "pooled"
    assert [b.name for b in cfg.bands] == ["Slow", "Fast"]
    assert cfg.match_tolerance_s == 0.2
    assert cfg.exclude_conditions == ("rest", "task_a")


def test_load_config_reports_every_problem(tmp_path):
    path = write_config(
        tmp_path / "bad.ini",
        """
[input]
session = s.csv
raw = r.bin
rate = fast

[typo]
x = 1

[pipeline]
hp_order = 501
nonsense = 3

[analysis]
match_tolerance_s = nan
""",
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "match_tolerance_s must be positive" in msg
    assert "unknown section [typo]" in msg
    assert "bad value for rate" in msg
    assert "exactly one of 'session' or 'raw'" in msg
    assert "hp_order" in msg
    assert "unknown key 'nonsense'" in msg
    assert "'events' file is required" in msg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_ica_seed_is_optional(tmp_path):
    # the cardiac-source extraction draws no random numbers
    for extra in ("", "[stages]\nica = off\n"):
        body = f"[input]\nsession = s.csv\nevents = e.csv\n\n{extra}"
        cfg = load_config(write_config(tmp_path / "noseed.ini", body))
        assert cfg.ica_seed is None


def test_validate_collects_pipeline_problems():
    cfg = PipelineConfig(session="s.csv", events="e.csv", ica_seed=1)
    cfg.hp_order = 3
    cfg.psd_overlap = 300
    cfg.asr_burst_k = -1.0
    cfg.psd_average = "weird"
    problems = cfg.validate()
    joined = "; ".join(problems)
    for fragment in ("hp_order", "psd_overlap", "asr_burst_k", "psd_average"):
        assert fragment in joined


def test_validate_names_the_keys_of_a_stage_rule():
    cfg = PipelineConfig(session="s.csv", events="e.csv", ica_seed=1)
    cfg.hp_order = 501
    cfg.psd_segment, cfg.psd_overlap = 100, 200
    cfg.line_freq_hz = 0.0
    problems = cfg.validate()
    assert problems == [
        "pipeline: hp_cutoff_hz, hp_order, fir_window: "
        "order must be a positive even integer, got 501",
        "pipeline: line_freq_hz, line_win_s, line_step_s, line_harmonics: "
        "line frequency must be positive, got 0.0",
        "pipeline: psd_segment, psd_overlap: overlap 200 must satisfy 0 <= overlap < seg (100)",
    ]


@pytest.mark.parametrize(
    "segment, overlap, ok",
    [(512, 256, True), (1024, 1000, True), (64, 8, True), (5, 0, False), (256, 256, False)],
)
def test_validate_checks_the_welch_window_as_a_pair(segment, overlap, ok):
    # the rule links the two keys, so each is judged against the other's value
    cfg = PipelineConfig(session="s.csv", events="e.csv", ica_seed=1)
    cfg.psd_segment, cfg.psd_overlap = segment, overlap
    problems = cfg.validate()
    assert (problems == []) == ok
    assert all(p.startswith("pipeline: psd_segment, psd_overlap: ") for p in problems)


README = Path(__file__).parents[1] / "README.md"


def test_readme_run_config_lists_every_key():
    block = README.read_text().split("## Run config (INI)", 1)[1].split("```ini", 1)[1]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), allow_no_value=True)
    parser.read_string(block.split("```", 1)[0])
    documented = {(s, k) for s in parser.sections() for k in parser[s]}
    accepted = {(s, k) for s, keys in _SECTIONS.items() for k in keys}
    assert documented == accepted
    # every documented value but a file's name and the no-op ica_seed is the default
    sections = {s: {k: _FIELDS[k] for k in keys} for s, keys in _SECTIONS.items()}
    values, problems = read_sections(parser, sections)
    assert problems == []
    defaults = PipelineConfig()
    files = {"session", "raw", "events", "montage", "reference_rr", "surveys"}
    for section, read in values.items():
        owner = defaults.stages if section == "stages" else defaults
        for name in read.keys() - files - {"ica_seed"}:
            assert read[name] == getattr(owner, name), (section, name)


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    # the block as written, in a directory holding the synth session it names
    block = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1]
    spec = tmp_path / "berger.ini"
    spec.write_text("[synth]\nkind = berger\nseed = 0\n")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["synth", "--spec", str(spec), "--out-dir", "data"]) == 0
    exec(compile(block.split("```", 1)[0], str(README), "exec"), {})
    assert len(list((tmp_path / "out").iterdir())) == 7


# ------------------------------------------------------------ run_pipeline


def test_run_from_raw_stream_writes_the_stream_report(tmp_path, monkeypatch):
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(tmp_path / "cache"))
    rec = berger_inputs(tmp_path)
    (tmp_path / "stream.bin").write_bytes(encode_stream(microvolts_to_counts(rec.data.T)))
    ini = base_config(tmp_path).read_text().replace(
        f"session = {tmp_path / 'session.csv'}", f"raw = {tmp_path / 'stream.bin'}\nrate = 125"
    )
    run_pipeline(load_config(write_config(tmp_path / "raw.ini", ini)))
    report = json.loads((tmp_path / "out" / "integrity.json").read_text())
    assert [s["condition"] for s in report["segments"]] == ["eyes_open", "eyes_closed"]
    assert report["stream"] == {
        "expected_samples": rec.n_samples,
        "actual_samples": rec.n_samples,
        "first_t": 0.0,
        "last_t": (rec.n_samples - 1) / 125.0,
        "dropped_packets": 0,
        "resyncs": 0,
        "flags": [],
        "gaps": [],
    }
    # the raw capture never reaches the session cache
    assert json.loads((tmp_path / "out" / "run_meta.json").read_text())["session_cache"] is None

    run_pipeline(load_config(base_config(tmp_path)))  # the same session as CSV
    report = json.loads((tmp_path / "out" / "integrity.json").read_text())
    assert list(report) == ["segments"]
    assert json.loads((tmp_path / "out" / "run_meta.json").read_text())["session_cache"] == "stored"


def test_run_pipeline_berger(tmp_path):
    berger_inputs(tmp_path)
    cfg = load_config(base_config(tmp_path))
    result = run_pipeline(cfg)
    assert result["n_segments"] == 2
    assert result["conditions"] == ["eyes_open", "eyes_closed"]

    out = tmp_path / "out"
    for name in ("bands.csv", "qc.json", "integrity.json", "rr.csv",
                 "bland_altman.json", "regression.json", "run_meta.json"):
        assert (out / name).exists()

    rows = read_band_table(out / "bands.csv")
    alpha = {
        cond: np.median([r.power_db for r in rows if r.band == "alpha" and r.condition == cond])
        for cond in ("eyes_open", "eyes_closed")
    }
    assert alpha["eyes_closed"] - alpha["eyes_open"] >= 6.0
    assert all(r.participant == "P07" for r in rows)
    # ground L6 and reference R6 plus the excluded pair L3/R3 carry no data rows
    expected = {f"{s}{i}" for s in "LR" for i in range(1, 11)} - {"L3", "R3", "L6", "R6"}
    assert {r.channel for r in rows} == expected

    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["n_segments"] == 2
    assert meta["numpy_version"] == np.__version__
    assert meta["config"]["participant"] == "P07"
    assert meta["config"]["ica_seed"] == 42
    assert meta["config"]["stages"]["asr"] is True
    assert meta["config"]["bands"][1] == {"name": "alpha", "lo_hz": 8.0, "hi_hz": 12.0}


def test_run_pipeline_reports_reproducible(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    cfg_a = load_config(base_config(tmp_path))
    cfg_a.out_dir = str(tmp_path / "a")
    cfg_b = load_config(base_config(tmp_path))
    cfg_b.out_dir = str(tmp_path / "b")
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    for name in ("bands.csv", "qc.json", "integrity.json", "rr.csv",
                 "bland_altman.json", "regression.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_asr_toggle_matches_infinite_threshold(tmp_path):
    # disabling a stage must equal its identity configuration
    berger_inputs(tmp_path, segment_s=10.0)
    cfg_off = load_config(base_config(tmp_path, extra_stages="asr = off"))
    cfg_off.out_dir = str(tmp_path / "off")
    cfg_identity = load_config(base_config(tmp_path, extra_pipeline="asr_burst_k = 1e9"))
    cfg_identity.out_dir = str(tmp_path / "ident")
    run_pipeline(cfg_off)
    run_pipeline(cfg_identity)
    off = (tmp_path / "off" / "bands.csv").read_bytes()
    ident = (tmp_path / "ident" / "bands.csv").read_bytes()
    assert off == ident


def test_ecg_detection_off_skips_ica(tmp_path, monkeypatch):
    berger_inputs(tmp_path, segment_s=10.0)

    def extraction_must_not_run(*args, **kwargs):
        raise AssertionError("the extraction ran although the ica stage is off")

    monkeypatch.setattr("earpipe.pipeline.extract_ecg", extraction_must_not_run)
    result = compute_run(load_config(base_config(tmp_path, extra_stages="ica = off")))
    assert [s["ecg_component"] for s in result.qc["segments"]] == [None, None]
    assert result.rr_rows == []


@pytest.mark.parametrize("entry", ["[analysis]\ndetect_ecg = off", "[pipeline]\nica_input = asr",
                                   "[pipeline]\nica_max_iter = 200", "[pipeline]\nica_components = 4"])
def test_removed_cardiac_keys_are_unknown(tmp_path, entry):
    # [stages] ica = off is the one switch of the cardiac-source stage, it
    # always reads the filtered segment, and it takes no tuning keys
    path = write_config(tmp_path / "old.ini", f"[input]\nsession = s.csv\nevents = e.csv\n\n{entry}\n")
    section, key = entry[1:].split("]\n")
    with pytest.raises(ConfigError, match=f"{section}: unknown key '{key.split()[0]}'"):
        load_config(path)


def test_validate_refuses_an_infinite_match_tolerance():
    cfg = PipelineConfig(session="s.csv", events="e.csv", match_tolerance_s=math.inf)
    assert cfg.validate() == ["analysis: match_tolerance_s must be positive and finite"]


def test_band_beyond_nyquist_rejected(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    path = base_config(tmp_path, extra_pipeline="bands = Wide:1:80")
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="Nyquist"):
        run_pipeline(cfg)


def test_run_pipeline_checks_the_config(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    cfg = load_config(base_config(tmp_path))
    cfg.lp_order = 7
    with pytest.raises(ConfigError, match="pipeline: lp_cutoff_hz, lp_order, fir_window: order "):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


def test_stage_objects_built_once_per_run(tmp_path, monkeypatch):
    berger_inputs(tmp_path, segment_s=10.0)
    designed = []
    monkeypatch.setattr(
        "earpipe.pipeline.design_fir", lambda *a: designed.append(a) or design_fir(*a)
    )
    result = run_pipeline(load_config(base_config(tmp_path)))
    assert result["n_segments"] == 2
    assert [spec.kind for spec, _ in designed] == ["highpass", "lowpass"]


@pytest.mark.parametrize("stages", ["", "highpass = off", "lowpass = off",
                                    "highpass = off\nlowpass = off"])
def test_plan_cascades_the_filters_that_are_on_into_one_kernel(tmp_path, stages):
    rec = berger_inputs(tmp_path, segment_s=10.0)
    cfg = load_config(base_config(tmp_path, extra_stages=stages))
    plan = plan_stages(cfg, rec, load_montage_csv(builtin_montage_path()))
    firs = [design_fir(FirSpec(kind, cutoff, order), rec.rate)
            for on, kind, cutoff, order in ((cfg.stages.highpass, "highpass", 1.0, 500),
                                            (cfg.stages.lowpass, "lowpass", 45.0, 100)) if on]
    if not firs:
        assert plan.fir is None
        return
    assert np.array_equal(plan.fir.taps, firs[0].taps if len(firs) == 1
                          else np.convolve(firs[0].taps, firs[1].taps))
    assert plan.fir.group_delay == sum(fir.group_delay for fir in firs)


def test_clean_segment_filters_once(tmp_path, monkeypatch):
    berger_inputs(tmp_path, segment_s=10.0)
    taps = []
    monkeypatch.setattr("earpipe.pipeline.apply_zero_phase",
                        lambda rec, fir: taps.append(fir.n_taps) or apply_zero_phase(rec, fir))
    run_pipeline(load_config(base_config(tmp_path, extra_stages="ica = off")))
    assert taps == [601, 601]


def test_run_meta_gives_each_stage_its_seconds(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    run_pipeline(load_config(base_config(tmp_path, extra_stages="ica = off")))
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    stage_s = meta["stage_s"]
    assert sorted(stage_s) == sorted(STAGES)
    assert all(isinstance(s, float) and s >= 0 for s in stage_s.values())
    assert sum(stage_s.values()) <= meta["elapsed_s"] + 0.01
    assert stage_s["ecg"] == 0.0  # a stage that is off takes no time


def test_filter_longer_than_the_session_is_refused_before_design(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    cfg = load_config(base_config(tmp_path, extra_pipeline="hp_order = 1000000000"))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="pipeline: hp_order: a 1000000001-tap filter needs "
                                              "more samples than the session's 2500"):
            run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6  # the taps alone would take 8 GB
    assert not (tmp_path / "out").exists()


def test_event_shorter_than_highpass_kernel_names_the_segment(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    events = [Event("eyes_open", 0.0, 10.0), Event("blink", 12.0, 14.0)]
    save_events_csv(events, tmp_path / "events.csv")
    cfg = load_config(base_config(tmp_path))
    with pytest.raises(DataError, match=r"segment 1 \(blink\): segment length 250 too short"):
        run_pipeline(cfg)


def test_segment_too_short_for_asr_calibration_fails_before_any_segment(tmp_path, monkeypatch):
    berger_inputs(tmp_path, segment_s=20.0)
    events = [Event("eyes_open", 0.0, 20.0), Event("eyes_closed", 20.0, 28.0)]
    save_events_csv(events, tmp_path / "events.csv")
    cleaned = []
    monkeypatch.setattr("earpipe.pipeline.clean_segment", lambda *a: cleaned.append(a))
    cfg = load_config(base_config(tmp_path, extra_stages="highpass = off\nlowpass = off"))
    with pytest.raises(DataError, match=r"^segment 1 \(eyes_closed\): need at least 10 "
                                        r"calibration windows, data allows 8$"):
        run_pipeline(cfg)
    assert cleaned == []



# a reference R-R series or a surveys file that cannot be read is found
# while the inputs load, before any segment runs or any report is written
@pytest.mark.parametrize(
    "key, content, message",
    [
        ("reference_rr", None, r"^R-R file not found: "),
        ("reference_rr", "t,rr\n1.0,1000.0\n", r"expected header beat_time_s,rr_ms"),
        ("surveys", None, r"^surveys file not found: "),
        ("surveys", "participant,condition,score\nP07,eyes_open,3\n",
         r"expected either item columns"),
    ],
    ids=["missing-reference-rr", "malformed-reference-rr", "missing-surveys", "malformed-surveys"],
)
def test_bad_optional_input_fails_before_any_segment(tmp_path, monkeypatch, key, content, message):
    berger_inputs(tmp_path, segment_s=10.0)
    path = tmp_path / f"{key}.csv"
    if content is not None:
        path.write_text(content)
    cleaned = []
    monkeypatch.setattr("earpipe.pipeline.clean_segment", lambda *a: cleaned.append(a))
    cfg = replace(load_config(base_config(tmp_path)), **{key: str(path)})
    with pytest.raises(DataError, match=message):
        run_pipeline(cfg)
    assert cleaned == []
    assert not (tmp_path / "out").exists()


def test_compute_run_writes_nothing_and_write_reports_gives_the_run_bytes(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    cfg = load_config(base_config(tmp_path))
    result = compute_run(cfg)
    assert not Path(cfg.out_dir).exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "run.ini", "session.csv"]
    summary = write_reports(result, tmp_path / "written")
    assert summary == {**run_pipeline(cfg), "out_dir": str(tmp_path / "written")}
    names = ["bands.csv", "qc.json", "integrity.json", "rr.csv", "bland_altman.json",
             "regression.json"]
    for name in names:
        assert (tmp_path / "written" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
    written = sorted(p.name for p in (tmp_path / "written").iterdir())
    assert written == sorted(names + ["run_meta.json"])


def test_reduced_montage_with_rereference_fails_before_any_segment(tmp_path):
    # R5 maps to channel 4 and L5 to channel 12: eight rows lack L5
    berger_inputs(tmp_path, segment_s=10.0, n_channels=8)
    cfg = load_config(base_config(tmp_path))
    with pytest.raises(DataError, match="needs channel 12 but the recording has 8; disable the "
                                        "rereference stage for reduced montages"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()
    cfg = load_config(base_config(tmp_path, extra_stages="rereference = off"))
    assert run_pipeline(cfg)["n_segments"] == 2


def test_empty_segment_rejected(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    save_events_csv([Event("ghost", 500.0, 510.0)], tmp_path / "events.csv")
    cfg = load_config(base_config(tmp_path))
    with pytest.raises(DataError, match="ghost"):
        run_pipeline(cfg)


def test_missing_session_file_is_data_error(tmp_path):
    berger_inputs(tmp_path, segment_s=10.0)
    (tmp_path / "session.csv").unlink()
    cfg = load_config(base_config(tmp_path))
    with pytest.raises(DataError, match="session"):
        run_pipeline(cfg)


def test_repeated_condition_segments_average(tmp_path):
    rec = berger_session(BergerSpec(seed=1, segment_s=20.0))
    save_session_csv(rec, tmp_path / "session.csv")
    # two repetitions of each condition, interleaved
    events = [
        Event("eyes_open", 0.0, 10.0),
        Event("eyes_closed", 20.0, 30.0),
        Event("eyes_open", 10.0, 20.0),
        Event("eyes_closed", 30.0, 40.0),
    ]
    save_events_csv(events, tmp_path / "events.csv")
    for mode in ("per_segment", "pooled"):
        cfg = load_config(base_config(tmp_path, extra_pipeline=f"psd_average = {mode}"))
        cfg.out_dir = str(tmp_path / mode)
        result = run_pipeline(cfg)
        assert result["n_segments"] == 4
        rows = read_band_table(tmp_path / mode / "bands.csv")
        # one row per (condition, channel, band) even with repeated segments
        assert len(rows) == 2 * 16 * len(cfg.bands)


@pytest.mark.parametrize(
    "bounds, equal",
    [
        pytest.param(((0, 12), (12, 30), (30, 40), (40, 60)), False, id="unequal"),
        pytest.param(((0, 15), (15, 30), (30, 45), (45, 60)), True, id="equal"),
    ],
)
def test_pooled_bands_weight_each_segment_psd_by_its_windows(tmp_path, monkeypatch, bounds, equal):
    rec = berger_session(BergerSpec(seed=1, segment_s=30.0))
    save_session_csv(rec, tmp_path / "session.csv")
    conditions = ("eyes_open", "eyes_open", "eyes_closed", "eyes_closed")
    save_events_csv([Event(c, a, b) for c, (a, b) in zip(conditions, bounds)],
                    tmp_path / "events.csv")
    psds = []
    welch = pipeline.welch_psd_recording

    def recorded_welch(*args, **kwargs):
        psds.append(welch(*args, **kwargs))
        return psds[-1]

    monkeypatch.setattr(pipeline, "welch_psd_recording", recorded_welch)
    band_db = {}
    for mode in ("per_segment", "pooled"):
        cfg = load_config(base_config(tmp_path, extra_stages="ica = off",
                                      extra_pipeline=f"psd_average = {mode}"))
        psds.clear()
        result = compute_run(cfg)
        assert len(psds) == 4  # one Welch pass per segment, none over joined segments
        band_db[mode] = {(r.condition, r.channel, r.band): r.power_db for r in result.band_rows}
    counts = [p.window_count for p in psds]
    for cond, (i, j) in (("eyes_open", (0, 1)), ("eyes_closed", (2, 3))):
        power = (counts[i] * psds[i].power + counts[j] * psds[j].power) / (counts[i] + counts[j])
        want = band_power(replace(psds[i], power=power), cfg.bands)
        for band, values in want.items():
            for label, value in zip(psds[i].labels, values):
                assert band_db["pooled"][(cond, label, band)] == pytest.approx(value, abs=1e-9)
    # equal window counts: pooled and per_segment weight alike
    assert (len(set(counts)) == 1) == equal
    gaps = [abs(band_db["pooled"][key] - band_db["per_segment"][key]) for key in band_db["pooled"]]
    assert (max(gaps) < 1e-9) == equal


# ------------------------------------------------------------- rr file


def test_load_rr_beats_round_trip(tmp_path):
    beats = BeatSeries(beat_times=np.array([1.0, 2.0, 3.02, 3.98, 5.01]))
    rr = rr_periods(beats)
    path = tmp_path / "rr.csv"
    with open(path, "w") as fh:
        fh.write("beat_time_s,rr_ms,flag\n")
        for t, ms in zip(rr.anchored_at_s, rr.intervals_ms):
            fh.write(f"{t:.6f},{ms:.3f},ok\n")
    loaded = load_rr_beats(path)
    assert np.allclose(loaded.beat_times, beats.beat_times, atol=1e-5)


def test_load_rr_beats_rejects_garbage(tmp_path):
    path = tmp_path / "rr.csv"
    path.write_text("time,interval\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_rr_beats(path)
    path.write_text("beat_time_s,rr_ms,flag\n")
    with pytest.raises(ValueError, match="no intervals"):
        load_rr_beats(path)


def test_rr_agreement_raises_a_plain_value_error():
    """The layer's one error kind; `earpipe agree` makes it a data error."""
    ref = BeatSeries(np.array([1.0, 2.0, 3.0]))
    alt = BeatSeries(np.array([100.0, 101.0, 102.0]))
    with pytest.raises(ValueError) as exc:
        pipeline.rr_agreement(ref, alt, 0.15)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "only 0 paired R-R intervals at tolerance 0.15s"
