"""End-to-end processing driven by an INI config.

Stage order per segment: channel mean subtraction, linked-mastoid
re-referencing, line-noise removal, 1 Hz highpass, 45 Hz lowpass, then
burst rejection and cardiac-source extraction (for ECG pickup) on the
filtered data, Welch PSD with flagged windows excluded, and median band
powers. No stage draws random numbers, so two runs of the same config
produce byte-identical reports; wall-clock metadata goes to a separate
sidecar file.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import REST_CONDITIONS, band_score_models, read_scores
from .artifact import (
    AsrConfig,
    asr_calibrate,
    asr_process,
    calibration_windows,
    extract_ecg,
    processing_window,
)
from .cardiac import BeatSeries, match_beats, paired_rr, rr_outlier_filter, rr_periods
from .errors import ConfigError, DataError, envelope, reraise
from .filters import (
    FirFilter,
    FirSpec,
    apply_zero_phase,
    baseline_correct,
    cascade,
    check_fir_length,
    check_line_noise,
    design_fir,
    remove_line_noise,
)
from .ingest import (
    Recording,
    check_name,
    cut_segments,
    load_events_csv,
    load_session_csv,
    parse_stream,
    read_table,
)
from .montage import (
    builtin_montage_path,
    load_montage_csv,
    relabel_by_montage,
    rereference_linked_mastoid,
    validate as validate_montage,
)
from .spectral import (
    BandPowerRow,
    DEFAULT_BANDS,
    band_power,
    check_bands,
    check_welch_length,
    check_welch_window,
    parse_band_spec,
    qc_report,
    welch_psd_recording,
    write_band_table,
)
from .stats import bland_altman


def _as_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"cannot read boolean value {text!r}") from None


def _csv_tuple(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


@dataclass
class StageToggles:
    baseline: bool = True
    rereference: bool = True
    line: bool = True
    highpass: bool = True
    lowpass: bool = True
    ica: bool = True
    asr: bool = True


@dataclass
class PipelineConfig:
    session: str | None = None
    raw: str | None = None
    events: str | None = None
    montage: str | None = None
    participant: str = "P01"
    reference_rr: str | None = None
    surveys: str | None = None
    rate: float = 125.0
    out_dir: str = "out"

    stages: StageToggles = field(default_factory=StageToggles)

    hp_cutoff_hz: float = 1.0
    hp_order: int = 500
    lp_cutoff_hz: float = 45.0
    lp_order: int = 100
    fir_window: str = "hann"
    line_freq_hz: float = 50.0
    line_harmonics: int = 1
    line_win_s: float = 4.0
    line_step_s: float = 1.0
    asr_burst_k: float = 12.0
    asr_window_criterion: float = 0.15
    asr_calib_win_s: float = 1.0
    asr_proc_win_s: float = 0.5
    ica_seed: int | None = None  # accepted, read by no stage
    reref_left: str = "L5"
    reref_right: str = "R5"
    psd_segment: int = 256
    psd_overlap: int = 64
    psd_average: str = "per_segment"  # per_segment | pooled
    bands: tuple = field(default=DEFAULT_BANDS, metadata={"parse": parse_band_spec})

    match_tolerance_s: float = 0.15
    exclude_conditions: tuple = field(default=REST_CONDITIONS, metadata={"parse": _csv_tuple})

    def validate(self) -> list[str]:
        """Every problem that needs only the config; plan_stages checks the rest."""
        problems: list[str] = []
        if (self.session is None) == (self.raw is None):
            problems.append("input: exactly one of 'session' or 'raw' must be set")
        if self.events is None:
            problems.append("input: 'events' file is required")
        _try(problems, "input: ", check_name, "participant", self.participant)
        if self.raw is not None and not 0 < self.rate < float("inf"):
            rule = "finite" if self.rate > 0 else "positive"
            problems.append(f"input: rate must be {rule}, got {self.rate}")
        if self.psd_average not in ("per_segment", "pooled"):
            problems.append(f"pipeline: psd_average must be per_segment or pooled, "
                            f"got {self.psd_average}")
        if not 0 < self.match_tolerance_s < math.inf:  # also refuses nan
            problems.append("analysis: match_tolerance_s must be positive and finite")
        # the other rules live in the stage that uses the values: each stage's
        # object or check is tried once on them, and a problem names their keys
        for make, *keys in (
            (partial(FirSpec, "highpass"), "hp_cutoff_hz", "hp_order", "fir_window"),
            (partial(FirSpec, "lowpass"), "lp_cutoff_hz", "lp_order", "fir_window"),
            (partial(check_line_noise, float("inf")),
             "line_freq_hz", "line_win_s", "line_step_s", "line_harmonics"),
            (AsrConfig, "asr_burst_k", "asr_window_criterion", "asr_calib_win_s", "asr_proc_win_s"),
            (check_welch_window, "psd_segment", "psd_overlap"),
        ):
            _try(problems, f"pipeline: {', '.join(keys)}: ", make,
                 *(getattr(self, key) for key in keys))
        return problems


def _try(problems: list[str], prefix: str, make, *args):
    """make(*args), or None with prefix and its ValueError's message added to problems."""
    try:
        return make(*args)
    except ValueError as exc:
        problems.append(prefix + str(exc))


# INI section -> the keys it accepts. Each key names a PipelineConfig
# field, except [output] dir (out_dir) and the [stages] toggles, which
# name StageToggles fields.
_SECTIONS = {
    "input": (
        "session", "raw", "events", "montage", "participant", "reference_rr", "surveys", "rate",
    ),
    "output": ("dir",),
    "stages": tuple(f.name for f in fields(StageToggles)),
    "pipeline": (
        "hp_cutoff_hz", "hp_order", "lp_cutoff_hz", "lp_order", "fir_window",
        "line_freq_hz", "line_harmonics", "line_win_s", "line_step_s",
        "asr_burst_k", "asr_window_criterion", "asr_calib_win_s", "asr_proc_win_s",
        "ica_seed",
        "reref_left", "reref_right", "psd_segment", "psd_overlap", "psd_average", "bands",
    ),
    "analysis": ("match_tolerance_s", "exclude_conditions"),
}
_PARSE_BY_TYPE = {"str": str, "int": int, "float": float, "bool": _as_bool}
_FIELDS = {f.name: f for f in fields(PipelineConfig) + fields(StageToggles)}
_FIELDS["dir"] = _FIELDS["out_dir"]


def read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse an INI file; a file that cannot be opened or bad syntax is a
    ConfigError that names the file as <what>."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} file cannot be read: {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{what} syntax: {exc}") from None
    return parser


def read_sections(parser: configparser.ConfigParser, sections: dict) -> tuple[dict, list[str]]:
    """Read a parsed INI file against sections (section -> INI key -> dataclass
    field; the field's type or "parse" metadata reads the value) into
    {section: {field name: value}}, plus every unknown section or key and unreadable value."""
    values: dict = {}
    problems: list[str] = []
    for section in parser.sections():
        if section not in sections:
            problems.append(f"unknown section [{section}]")
            continue
        values[section] = {}
        for key, text in parser.items(section):
            if key not in sections[section]:
                problems.append(f"{section}: unknown key {key!r}")
                continue
            f = sections[section][key]
            parse = f.metadata.get("parse") or _PARSE_BY_TYPE[f.type.removesuffix(" | None")]
            value = _try(problems, f"{section}: bad value for {key}: ", parse, text)
            if value is not None:  # no parser returns None
                values[section][f.name] = value
    return values, problems


def load_config(path, **overrides) -> PipelineConfig:
    """Parse an INI config into a PipelineConfig, raising ConfigError with
    every problem found; overrides (field name -> value, None for not
    given) replace config values before the check."""
    sections = {section: {key: _FIELDS[key] for key in keys} for section, keys in _SECTIONS.items()}
    values, problems = read_sections(read_ini(path, "config"), sections)
    stages = StageToggles(**values.pop("stages", {}))
    cfg = PipelineConfig(stages=stages, **{k: v for sec in values.values() for k, v in sec.items()})
    cfg = replace(cfg, **{name: value for name, value in overrides.items() if value is not None})
    problems.extend(cfg.validate())
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def load_input(what: str, load, path, *args):
    """load(path, *args) with the input errors the CLI reports as data
    errors: a missing file becomes "<what> not found: <path>", a file that
    cannot be read names both, and malformed content keeps its message."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"{what} cannot be read: {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _load_inputs(cfg: PipelineConfig):
    """The session, events, montage, stream report, reference beats and
    scores; the stream report is None for a session CSV, the last two
    None when not configured."""
    stream = None
    if cfg.session is not None:
        rec = load_input("session file", load_session_csv, cfg.session)
    else:
        raw = load_input("raw stream", Path.read_bytes, Path(cfg.raw))
        rec, stream = parse_stream(raw, rate=cfg.rate)
    events = load_input("events file", load_events_csv, cfg.events)
    monmap = load_input("montage file", load_montage_csv, cfg.montage or builtin_montage_path())
    violations = validate_montage(monmap)
    if violations:
        raise DataError(f"montage violates constraints: {', '.join(violations)}")
    ref_beats = scores = None
    if cfg.reference_rr:
        ref_beats = load_input("R-R file", load_rr_beats, cfg.reference_rr)
    if cfg.surveys:
        scores = load_input("surveys file", read_scores, cfg.surveys, cfg.participant)
    return rec, events, monmap, stream, ref_beats, scores


@dataclass(frozen=True)
class StagePlan:
    """Stage objects built once per run from the config and the session's rate."""

    fir: FirFilter | None  # the high-pass, the low-pass, or both cascaded into one kernel
    asr: AsrConfig | None


def plan_stages(cfg: PipelineConfig, rec: Recording, monmap) -> StagePlan:
    """Check a valid config against the session's rate and montage and
    build the stage objects; every problem goes into one ConfigError."""
    rate = rec.rate
    problems: list[str] = []
    rows = [_try(problems, f"pipeline: {key}: ", monmap.channel, getattr(cfg, key))
            for key in ("reref_left", "reref_right") if cfg.stages.rereference]
    if cfg.stages.line:
        _try(problems, "pipeline: line_freq_hz, line_win_s, line_harmonics: ", check_line_noise,
             rate, cfg.line_freq_hz, cfg.line_win_s, cfg.line_step_s, cfg.line_harmonics)
    firs = []
    for on, kind, cutoff, order in (
        (cfg.stages.highpass, "highpass", "hp_cutoff_hz", "hp_order"),
        (cfg.stages.lowpass, "lowpass", "lp_cutoff_hz", "lp_order"),
    ):
        if not on:
            continue
        spec = FirSpec(kind, getattr(cfg, cutoff), getattr(cfg, order), cfg.fir_window)
        # a kernel that no segment can hold is refused before its taps,
        # which take memory in proportion to the order, are designed
        if spec.order + 1 >= rec.n_samples:
            problems.append(
                f"pipeline: {order}: a {spec.order + 1}-tap filter needs more samples "
                f"than the session's {rec.n_samples}"
            )
            continue
        firs.append(_try(problems, f"pipeline: {cutoff}: ", design_fir, spec, rate))
    _try(problems, "pipeline: bands: ", check_bands,
         cfg.bands, cfg.psd_segment, rate, rec.n_samples)
    if problems:
        raise ConfigError("; ".join(problems))
    if rows and max(rows) > rec.n_channels:
        raise DataError(
            f"re-referencing needs channel {max(rows)} but the recording has "
            f"{rec.n_channels}; disable the rereference stage for reduced montages"
        )
    asr = AsrConfig(
        cfg.asr_burst_k, cfg.asr_window_criterion, cfg.asr_calib_win_s, cfg.asr_proc_win_s
    )
    # with both filters on, the segment is filtered once, by their cascade
    fir = reduce(cascade, firs) if firs else None
    return StagePlan(fir, asr if cfg.stages.asr else None)


# the stages whose seconds run_meta.json reports as stage_s
STAGES = ("load_inputs", "cut", "baseline", "rereference", "line", "fir", "asr", "ecg", "welch",
          "qc", "write_reports")


class StageClock:
    """Seconds spent in each stage, summed over its calls: `with clock("fir"): ...`."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)

    @contextmanager
    def __call__(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += time.perf_counter() - start


def clean_segment(
    rec: Recording, cfg: PipelineConfig, monmap, plan: StagePlan, clock: StageClock
) -> Recording:
    """Apply the linear cleaning chain to one segment."""
    out = rec
    if cfg.stages.baseline:
        with clock("baseline"):
            out = baseline_correct(out)
    if cfg.stages.rereference:
        with clock("rereference"):
            out = rereference_linked_mastoid(out, monmap, cfg.reref_left, cfg.reref_right)
    if cfg.stages.line:
        with clock("line"):
            out = remove_line_noise(
                out,
                f0=cfg.line_freq_hz,
                win_s=cfg.line_win_s,
                step_s=cfg.line_step_s,
                harmonics=cfg.line_harmonics,
            )
    if plan.fir is not None:
        with clock("fir"):
            out = apply_zero_phase(out, plan.fir)
    return out


def preflight_segments(segments, cfg: PipelineConfig, plan: StagePlan) -> None:
    """Check every segment's length against the planned FIR kernel, the
    ASR calibration minimum and processing window, and the Welch window
    before any segment is processed; the first failure is the DataError
    process_segment would raise."""
    for i, seg in enumerate(segments):
        n = seg.recording.n_samples
        with reraise(DataError, f"segment {i} ({seg.condition}): "):
            if plan.fir is not None:
                check_fir_length(n, plan.fir)
            if plan.asr is not None:
                calibration_windows(n, seg.recording.rate, plan.asr)
                processing_window(n, seg.recording.rate, plan.asr)
            check_welch_length(n, cfg.psd_segment)


def process_segment(
    seg_rec: Recording, condition: str, cfg: PipelineConfig, monmap, plan: StagePlan,
    seg_index: int, clock: StageClock,
):
    """Run every stage on one segment, adding each stage's time to clock.
    Returns the segment's qc.json entry, its linear PSD (flagged windows
    excluded) and its ECG pick or None; a stage failure is a DataError
    naming it."""
    with reraise(DataError, f"segment {seg_index} ({condition}): "):
        cleaned = clean_segment(seg_rec, cfg, monmap, plan, clock)

        flagged = []
        asr_out = cleaned
        if plan.asr is not None:
            with clock("asr"):
                model = asr_calibrate(cleaned, plan.asr)
                asr_out, flagged = asr_process(cleaned, model, plan.asr)

        pick = None
        if cfg.stages.ica:
            with clock("ecg"):
                pick = extract_ecg(cleaned)

        exclude = [(f["start_s"], f["end_s"]) for f in flagged]
        with clock("welch"):
            psd = welch_psd_recording(
                asr_out, seg=cfg.psd_segment, overlap=cfg.psd_overlap, exclude_spans=exclude
            )
        with clock("qc"):
            qc = qc_report(asr_out, psd, line_freq_hz=cfg.line_freq_hz)
    entry = {
        "condition": condition,
        "qc": qc,
        "asr_flagged_windows": flagged,
        "ecg_component": pick.index if pick else None,
        "ecg_score": pick.score if pick else None,
    }
    return entry, psd, pick


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # strict JSON has no NaN or Infinity
    return obj


def _json_dump(obj, path) -> None:
    """Write a report as sorted, indented JSON; numpy values become plain
    numbers and lists, and a NaN or infinity becomes null."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def rr_rows(beats: BeatSeries, offset_s: float = 0.0) -> list:
    """(beat_time_s, rr_ms, flag) per interval, times shifted by offset_s;
    the flag is "outlier" for intervals the deviation filter rejects."""
    if len(beats) < 2:
        return []
    rr = rr_periods(beats)
    kept = rr_outlier_filter(rr).kept_mask
    return [
        (offset_s + float(t), float(ms), "ok" if ok else "outlier")
        for t, ms, ok in zip(rr.anchored_at_s, rr.intervals_ms, kept)
    ]


def write_rr_csv(rows, path) -> None:
    """Write (beat_time_s, rr_ms, flag) rows in the rr.csv format."""
    with open(path, "w", newline="") as fh:
        fh.write("beat_time_s,rr_ms,flag\n")
        for t, rr_ms, flag in rows:
            fh.write(f"{t:.6f},{rr_ms:.3f},{flag}\n")


def condition_band_rows(participant: str, psds: list, bands, pooled=False) -> list[BandPowerRow]:
    """Band-table rows of (condition, linear PSD) pairs, conditions in first-seen
    order: the average of a condition's PSDs, counting each segment once or,
    pooled, each Welch window once, then median dB power per band and channel."""
    rows = []
    for cond in dict.fromkeys(c for c, _ in psds):
        group = [p for c, p in psds if c == cond]
        weights = [p.window_count for p in group] if pooled else None
        psd = replace(group[0], power=np.average([p.power for p in group], axis=0, weights=weights))
        rows.extend(
            BandPowerRow(participant, cond, label, name, float(values[ch]))
            for name, values in band_power(psd, bands).items()
            for ch, label in enumerate(psd.labels)
        )
    return rows


@dataclass
class RunResult:
    """What one run computed: the content of every report but run_meta.json."""

    cfg: PipelineConfig
    started_unix: float  # when compute_run began; run_meta.json's elapsed_s counts from it
    conditions: list[str]
    band_rows: list[BandPowerRow]
    qc: dict
    integrity: dict
    rr_rows: list
    bland_altman: dict
    regression: dict
    session_cache: str | None  # load_session_csv's meta["session_cache"]; None for raw input
    stage_s: dict  # StageClock.seconds of the run; write_reports adds its own


def compute_run(cfg: PipelineConfig) -> RunResult:
    """Load every input, process every segment and build the content of
    every report but run_meta.json; writes no report (loading a session
    CSV may store a session cache entry)."""
    started = time.time()
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    clock = StageClock()
    with clock("load_inputs"):
        rec, events, monmap, stream, ref_beats, scores = _load_inputs(cfg)
    session_cache = rec.meta.get("session_cache")
    plan = plan_stages(cfg, rec, monmap)
    if rec.n_channels == len(monmap.channel_of):
        rec = relabel_by_montage(rec, monmap)

    with reraise(DataError), clock("cut"):
        segments = cut_segments(rec, events)
    # the segments hold copies of their samples; drop the whole session
    rate = rec.rate
    del rec
    if not segments:
        raise DataError("no events to process")
    for seg in segments:
        if seg.report.actual_samples == 0:
            raise DataError(f"event {seg.condition} yields an empty segment")
    preflight_segments(segments, cfg, plan)

    entries, psds, picked = [], [], []
    for i, seg in enumerate(segments):
        entry, psd, pick = process_segment(
            seg.recording, seg.condition, cfg, monmap, plan, i, clock
        )
        entries.append(entry)
        psds.append((seg.condition, psd))
        if pick:
            picked.append((seg.report.first_t, pick.beats))

    conditions = list(dict.fromkeys(s.condition for s in segments))
    band_rows = condition_band_rows(cfg.participant, psds, cfg.bands,
                                    pooled=cfg.psd_average == "pooled")
    qc = {"participant": cfg.participant, "rate": rate, "segments": entries}
    integrity = {"segments": [{"condition": s.condition, **s.report.to_dict()} for s in segments]}
    if stream is not None:
        integrity["stream"] = stream.to_dict()

    ba = envelope(_session_agreement, ref_beats, picked, cfg.match_tolerance_s)
    rr = [row for t0, beats in picked for row in rr_rows(beats, t0)]
    regression = envelope(_run_regressions, cfg, band_rows, scores)
    return RunResult(cfg, started, conditions, band_rows, qc, integrity, rr, ba, regression,
                     session_cache, clock.seconds)


def write_reports(result: RunResult, out_dir) -> dict:
    """Write a run's seven reports into out_dir, made if missing; returns
    the run summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    write_band_table(result.band_rows, out_dir / "bands.csv")
    _json_dump(result.qc, out_dir / "qc.json")
    _json_dump(result.integrity, out_dir / "integrity.json")
    write_rr_csv(result.rr_rows, out_dir / "rr.csv")
    _json_dump(result.bland_altman, out_dir / "bland_altman.json")
    _json_dump(result.regression, out_dir / "regression.json")
    stage_s = {**result.stage_s, "write_reports": time.perf_counter() - start}
    n_segments = len(result.integrity["segments"])
    _json_dump(
        {
            "version": __version__,
            "numpy_version": np.__version__,
            "config": asdict(result.cfg),
            "elapsed_s": round(time.time() - result.started_unix, 3),
            "finished_unix": time.time(),
            "n_segments": n_segments,
            "session_cache": result.session_cache,
            "stage_s": {stage: round(s, 3) for stage, s in stage_s.items()},
        },
        out_dir / "run_meta.json",
    )
    return {
        "out_dir": str(out_dir),
        "n_segments": n_segments,
        "conditions": result.conditions,
        "band_rows": len(result.band_rows),
    }


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the full chain, then write all reports into cfg.out_dir."""
    return write_reports(compute_run(cfg), cfg.out_dir)


def rr_agreement(ref: BeatSeries, alt: BeatSeries, tolerance_s: float) -> dict:
    """Bland-Altman agreement of the R-R intervals between beats matched
    within tolerance_s; a ValueError when fewer than two intervals pair."""
    match = match_beats(ref, alt, tolerance_s)
    rr_ref, rr_alt = paired_rr(match, ref, alt)
    if len(rr_ref) < 2:
        raise ValueError(f"only {len(rr_ref)} paired R-R intervals at tolerance {tolerance_s}s")
    return {
        "matched_pairs": len(match.pairs),
        "unmatched_ref": match.unmatched_ref,
        "unmatched_alt": match.unmatched_alt,
        "rr_pairs": len(rr_ref),
        **bland_altman(rr_ref, rr_alt),
    }


def load_rr_beats(path) -> BeatSeries:
    """Rebuild a beat series from an rr.csv file (anchors plus final beat).
    A time or interval that is not a finite number, or a beat that does not
    follow the one before it by the refractory period, is a ValueError
    naming its row's line."""
    rows = read_table(path, ("beat_time_s", "rr_ms"), "expected header beat_time_s,rr_ms[,flag]")[1]
    if not rows:
        raise ValueError(f"{path}: no intervals")
    beats: list[float] = []
    for row in rows:
        t, rr_ms = row.number("beat_time_s", finite=True), row.number("rr_ms", finite=True)
        row.build(BeatSeries, beats[-1:] + [t])
        beats.append(t)
    # the last row's interval places the final beat
    return rows[-1].build(BeatSeries, beats + [t + rr_ms / 1000.0])


def _session_agreement(ref_beats: BeatSeries | None, picked: list, tolerance_s: float) -> dict:
    """rr_agreement of the reference and every (first_t, beats) pick in session time."""
    if ref_beats is None:
        raise ValueError("no reference R-R series configured")
    if not picked:
        raise ValueError("no ECG component detected")
    with reraise(ValueError, "the ECG segments overlap in session time: "):
        alt = BeatSeries(np.sort(np.concatenate([t0 + b.beat_times for t0, b in picked])))
    return rr_agreement(ref_beats, alt, tolerance_s)


def _run_regressions(cfg: PipelineConfig, band_rows, scores) -> dict:
    if scores is None:
        raise ValueError("no surveys configured")
    return {
        "excluded_conditions": list(cfg.exclude_conditions),
        **band_score_models(band_rows, scores, exclude=cfg.exclude_conditions),
    }
