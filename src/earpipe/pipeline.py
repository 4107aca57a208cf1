"""End-to-end processing driven by an INI config.

Stage order per segment: channel mean subtraction, linked-mastoid
re-referencing, line-noise removal, 1 Hz highpass, 45 Hz lowpass, then
ICA (for ECG pickup) and burst rejection on the filtered data, Welch
PSD with flagged windows excluded, and median band powers. Every
randomized stage takes an explicit seed from the config, so two runs of
the same config produce byte-identical reports; wall-clock metadata
goes to a separate sidecar file.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import band_score_models, read_scores
from .artifact import (
    AsrConfig,
    CalibrationError,
    EcgPick,
    asr_calibrate,
    asr_process,
    ica_decompose,
    select_ecg_ic,
)
from .cardiac import BeatSeries, match_beats, paired_rr, rr_outlier_filter, rr_periods
from .filters import FirSpec, apply_zero_phase, baseline_correct, design_fir, remove_line_noise
from .ingest import (
    Recording,
    cut_segments,
    frames_to_recording,
    load_events_csv,
    load_session_csv,
    parse_stream,
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
    PsdEstimate,
    parse_band_spec,
    qc_report,
    to_db,
    band_power,
    welch_psd_recording,
    write_band_table,
)
from .stats import bland_altman


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 2."""


class DataError(ValueError):
    """Missing or malformed input data; the CLI maps this to exit code 3."""


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot read boolean value {text!r}")


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
    ica_max_iter: int = 2000
    ica_seed: int | None = None
    ica_components: int | None = None
    ica_input: str = "filtered"  # filtered | asr
    reref_left: str = "L5"
    reref_right: str = "R5"
    psd_segment: int = 256
    psd_overlap: int = 64
    psd_average: str = "per_segment"  # per_segment | pooled
    bands: tuple = field(default=DEFAULT_BANDS, metadata={"parse": parse_band_spec})

    detect_ecg: bool = True
    match_tolerance_s: float = 0.15
    exclude_conditions: tuple = field(
        default=("eyes_open", "eyes_closed"), metadata={"parse": _csv_tuple}
    )

    def validate(self) -> list[str]:
        problems: list[str] = []
        if (self.session is None) == (self.raw is None):
            problems.append("input: exactly one of 'session' or 'raw' must be set")
        if self.events is None:
            problems.append("input: 'events' file is required")
        if self.raw is not None and not self.rate > 0:
            problems.append(f"input: rate must be positive, got {self.rate}")
        if self.hp_order <= 0 or self.hp_order % 2:
            problems.append(f"pipeline: hp_order must be positive and even, got {self.hp_order}")
        if self.lp_order <= 0 or self.lp_order % 2:
            problems.append(f"pipeline: lp_order must be positive and even, got {self.lp_order}")
        if self.fir_window not in ("hann", "hamming"):
            problems.append(f"pipeline: fir_window must be hann or hamming, got {self.fir_window}")
        if self.stages.ica and self.detect_ecg and self.ica_seed is None:
            problems.append(
                "pipeline: ica_seed is required while the ica stage and detect_ecg are on"
            )
        if self.ica_input not in ("filtered", "asr"):
            problems.append(f"pipeline: ica_input must be filtered or asr, got {self.ica_input}")
        if self.psd_average not in ("per_segment", "pooled"):
            problems.append(
                f"pipeline: psd_average must be per_segment or pooled, got {self.psd_average}"
            )
        if not 0 <= self.psd_overlap < self.psd_segment:
            problems.append(
                f"pipeline: psd_overlap {self.psd_overlap} must satisfy "
                f"0 <= overlap < segment ({self.psd_segment})"
            )
        if self.asr_burst_k <= 0:
            problems.append(f"pipeline: asr_burst_k must be positive, got {self.asr_burst_k}")
        if not 0 < self.asr_window_criterion <= 1:
            problems.append(
                f"pipeline: asr_window_criterion must lie in (0, 1], got "
                f"{self.asr_window_criterion}"
            )
        if self.line_harmonics < 1:
            problems.append(f"pipeline: line_harmonics must be >= 1, got {self.line_harmonics}")
        if self.match_tolerance_s <= 0:
            problems.append("analysis: match_tolerance_s must be positive")
        for f_hz, name in ((self.hp_cutoff_hz, "hp_cutoff_hz"), (self.lp_cutoff_hz, "lp_cutoff_hz")):
            if f_hz <= 0:
                problems.append(f"pipeline: {name} must be positive, got {f_hz}")
        return problems


# INI section -> the keys it accepts. Each key names a PipelineConfig
# field, except [output] dir (out_dir) and the [stages] toggles, which
# name StageToggles fields; the field's type or "parse" metadata reads
# the value.
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
        "ica_max_iter", "ica_seed", "ica_components", "ica_input",
        "reref_left", "reref_right", "psd_segment", "psd_overlap", "psd_average", "bands",
    ),
    "analysis": ("detect_ecg", "match_tolerance_s", "exclude_conditions"),
}
_PARSE_BY_TYPE = {"str": str, "int": int, "float": float, "bool": _as_bool}
_FIELDS = {f.name: f for f in fields(PipelineConfig) + fields(StageToggles)}


def read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse an INI file; a missing file or bad syntax is a ConfigError
    that names the file as <what>."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{what} syntax: {exc}") from None
    return parser


def load_config(path) -> PipelineConfig:
    """Parse an INI config into a PipelineConfig, raising ConfigError with
    every problem found."""
    parser = read_ini(path, "config")
    cfg = PipelineConfig()
    problems: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        target = cfg.stages if section == "stages" else cfg
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                problems.append(f"{section}: unknown key {key!r}")
                continue
            f = _FIELDS["out_dir" if key == "dir" else key]
            parse = f.metadata.get("parse") or _PARSE_BY_TYPE[f.type.removesuffix(" | None")]
            try:
                setattr(target, f.name, parse(value))
            except ValueError as exc:
                problems.append(f"{section}: bad value for {key}: {exc}")

    problems.extend(cfg.validate())
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def load_input(what: str, load, path, *args):
    """load(path, *args) with the input errors the CLI reports as data
    errors: a missing file becomes "<what> not found: <path>" and
    malformed content (ValueError) keeps its message."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_inputs(cfg: PipelineConfig):
    if cfg.session is not None:
        rec = load_input("session file", load_session_csv, cfg.session)
    else:
        frames, _ = parse_stream(load_input("raw stream", _read_bytes, cfg.raw), rate=cfg.rate)
        rec = frames_to_recording(frames, cfg.rate)
    events = load_input("events file", load_events_csv, cfg.events)
    monmap = load_input("montage file", load_montage_csv, cfg.montage or builtin_montage_path())
    violations = validate_montage(monmap)
    if violations:
        raise DataError(f"montage violates constraints: {', '.join(violations)}")
    return rec, events, monmap


def _check_rates(cfg: PipelineConfig, rate: float):
    nyq = rate / 2.0
    problems = []
    if cfg.stages.highpass and cfg.hp_cutoff_hz >= nyq:
        problems.append(f"hp_cutoff_hz {cfg.hp_cutoff_hz} >= Nyquist {nyq}")
    if cfg.stages.lowpass and cfg.lp_cutoff_hz >= nyq:
        problems.append(f"lp_cutoff_hz {cfg.lp_cutoff_hz} >= Nyquist {nyq}")
    if cfg.stages.line and cfg.line_freq_hz * cfg.line_harmonics >= nyq:
        problems.append(
            f"line_freq_hz {cfg.line_freq_hz} x {cfg.line_harmonics} harmonics >= Nyquist {nyq}"
        )
    for band in cfg.bands:
        if band.hi_hz > nyq:
            problems.append(f"band {band.name} upper edge {band.hi_hz} beyond Nyquist {nyq}")
    if problems:
        raise ConfigError("; ".join(problems))


def clean_segment(rec: Recording, cfg: PipelineConfig, monmap) -> Recording:
    """Apply the linear cleaning chain to one segment."""
    out = rec
    if cfg.stages.baseline:
        out = baseline_correct(out)
    if cfg.stages.rereference:
        rows_needed = max(monmap.channel(cfg.reref_left), monmap.channel(cfg.reref_right))
        if rec.n_channels < rows_needed:
            raise DataError(
                f"re-referencing needs channel {rows_needed} but the recording "
                f"has {rec.n_channels}; disable the rereference stage for reduced montages"
            )
        out = rereference_linked_mastoid(out, monmap, cfg.reref_left, cfg.reref_right)
    if cfg.stages.line:
        out = remove_line_noise(
            out,
            f0=cfg.line_freq_hz,
            win_s=cfg.line_win_s,
            step_s=cfg.line_step_s,
            harmonics=cfg.line_harmonics,
        )
    if cfg.stages.highpass:
        fir = design_fir(FirSpec("highpass", cfg.hp_cutoff_hz, cfg.hp_order, cfg.fir_window), out.rate)
        out = apply_zero_phase(out, fir)
    if cfg.stages.lowpass:
        fir = design_fir(FirSpec("lowpass", cfg.lp_cutoff_hz, cfg.lp_order, cfg.fir_window), out.rate)
        out = apply_zero_phase(out, fir)
    return out


@dataclass
class SegmentResult:
    condition: str
    cleaned: Recording | None  # kept only for psd_average = pooled
    flagged: list
    qc: dict
    ecg: EcgPick | None
    psd: PsdEstimate  # linear, flagged windows excluded


def process_segment(seg_rec: Recording, condition: str, cfg: PipelineConfig, monmap, seg_index: int):
    cleaned = clean_segment(seg_rec, cfg, monmap)

    flagged = []
    asr_out = cleaned
    if cfg.stages.asr:
        asr_cfg = AsrConfig(
            burst_k=cfg.asr_burst_k,
            window_criterion=cfg.asr_window_criterion,
            calib_win_s=cfg.asr_calib_win_s,
            proc_win_s=cfg.asr_proc_win_s,
        )
        try:
            model = asr_calibrate(cleaned, asr_cfg)
        except CalibrationError as exc:
            raise DataError(f"segment {seg_index} ({condition}): {exc}") from None
        asr_out, flagged = asr_process(cleaned, model, asr_cfg)

    # ICA serves only the ECG pickup, so it runs only when that is wanted
    pick = None
    if cfg.stages.ica and cfg.detect_ecg:
        ica = ica_decompose(
            asr_out if cfg.ica_input == "asr" else cleaned,
            n_components=cfg.ica_components,
            seed=cfg.ica_seed + seg_index,
            max_iter=cfg.ica_max_iter,
        )
        pick = select_ecg_ic(ica, cleaned.rate)

    exclude = [(f.start_s, f.end_s) for f in flagged]
    psd = welch_psd_recording(
        asr_out, seg=cfg.psd_segment, overlap=cfg.psd_overlap, exclude_spans=exclude
    )
    qc = qc_report(asr_out, psd, line_freq_hz=cfg.line_freq_hz).to_dict()
    return SegmentResult(
        condition=condition,
        cleaned=asr_out if cfg.psd_average == "pooled" else None,
        flagged=flagged,
        qc=qc,
        ecg=pick,
        psd=psd,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _json_dump(obj, path) -> None:
    """Write a report as sorted, indented JSON; numpy values become plain
    numbers and lists."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
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


def psd_band_rows(participant: str, condition: str, psd, bands) -> list[BandPowerRow]:
    """Band-table rows of a linear PSD: median dB power per band and channel."""
    per_band = band_power(to_db(psd), bands)
    return [
        BandPowerRow(participant, condition, label, name, float(values[ch]))
        for name, values in per_band.items()
        for ch, label in enumerate(psd.labels)
    ]


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the full chain and write all reports into cfg.out_dir."""
    t_start = time.time()
    rec, events, monmap = _load_inputs(cfg)
    _check_rates(cfg, rec.rate)
    if rec.n_channels == len(monmap.channel_of):
        rec = relabel_by_montage(rec, monmap)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    segments = cut_segments(rec, events)
    # the segments hold copies of their samples; drop the whole session
    rate, labels = rec.rate, rec.labels
    del rec
    if not segments:
        raise DataError("no events to process")
    for seg in segments:
        if seg.report.actual_samples == 0:
            raise DataError(f"event {seg.condition} yields an empty segment")

    seg_results = [
        process_segment(seg.recording, seg.condition, cfg, monmap, i)
        for i, seg in enumerate(segments)
    ]

    # band powers per condition: average linear PSDs across a condition's
    # segments (or pool samples before the PSD), then dB and median bands
    conditions: list[str] = []
    for s in segments:
        if s.condition not in conditions:
            conditions.append(s.condition)
    band_rows: list[BandPowerRow] = []
    for cond in conditions:
        idx = [i for i, s in enumerate(segments) if s.condition == cond]
        if cfg.psd_average == "pooled":
            joined = np.concatenate([seg_results[i].cleaned.data for i in idx], axis=1)
            pooled = Recording(rate=rate, labels=list(labels), data=joined)
            exclude: list = []
            offset = 0.0
            for i in idx:
                for f in seg_results[i].flagged:
                    exclude.append((offset + f.start_s, offset + f.end_s))
                offset += seg_results[i].cleaned.duration_s
            psd = welch_psd_recording(
                pooled, seg=cfg.psd_segment, overlap=cfg.psd_overlap, exclude_spans=exclude
            )
        else:
            psd = seg_results[idx[0]].psd
            if len(idx) > 1:
                psd = replace(
                    psd,
                    power=np.mean([seg_results[i].psd.power for i in idx], axis=0),
                    window_count=sum(seg_results[i].psd.window_count for i in idx),
                )
        band_rows.extend(psd_band_rows(cfg.participant, cond, psd, cfg.bands))
    write_band_table(band_rows, out_dir / "bands.csv")

    qc_payload = {
        "participant": cfg.participant,
        "rate": rate,
        "segments": [
            {
                "condition": r.condition,
                "qc": r.qc,
                "asr_flagged_windows": [asdict(f) for f in r.flagged],
                "ecg_component": r.ecg.index if r.ecg else None,
                "ecg_score": r.ecg.score if r.ecg else None,
            }
            for r in seg_results
        ],
    }
    _json_dump(qc_payload, out_dir / "qc.json")
    integrity = [{"condition": seg.condition, **seg.report.to_dict()} for seg in segments]
    _json_dump({"segments": integrity}, out_dir / "integrity.json")

    picked = [
        (seg.report.first_t, res.ecg.beats) for seg, res in zip(segments, seg_results) if res.ecg
    ]
    write_rr_csv([row for t0, beats in picked for row in rr_rows(beats, t0)], out_dir / "rr.csv")

    ba_payload: dict
    if cfg.reference_rr:
        ref_beats = load_input("R-R file", load_rr_beats, cfg.reference_rr)
        alt_times = [t for t0, beats in picked for t in (t0 + beats.beat_times).tolist()]
        if len(alt_times) >= 3:
            alt_beats = BeatSeries(beat_times=np.array(alt_times), rate=rate)
            match = match_beats(ref_beats, alt_beats, cfg.match_tolerance_s)
            rr_ref, rr_alt = paired_rr(match, ref_beats, alt_beats)
            if len(rr_ref) >= 2:
                ba = bland_altman(rr_ref, rr_alt)
                ba_payload = {
                    "status": "ok",
                    "matched_pairs": len(match.pairs),
                    "unmatched_ref": match.unmatched_ref,
                    "unmatched_alt": match.unmatched_alt,
                    "rr_pairs": len(rr_ref),
                    **ba.to_dict(),
                }
            else:
                ba_payload = {"status": "not_computed", "reason": "too few matched R-R pairs"}
        else:
            ba_payload = {"status": "not_computed", "reason": "no ECG component detected"}
    else:
        ba_payload = {"status": "not_computed", "reason": "no reference R-R series configured"}
    _json_dump(ba_payload, out_dir / "bland_altman.json")

    regression_payload = _run_regressions(cfg, band_rows)
    _json_dump(regression_payload, out_dir / "regression.json")

    _json_dump(
        {
            "version": __version__,
            "numpy_version": np.__version__,
            "config": asdict(cfg),
            "elapsed_s": round(time.time() - t_start, 3),
            "finished_unix": time.time(),
            "n_segments": len(segments),
        },
        out_dir / "run_meta.json",
    )
    return {
        "out_dir": str(out_dir),
        "n_segments": len(segments),
        "conditions": conditions,
        "band_rows": len(band_rows),
    }


def load_rr_beats(path) -> BeatSeries:
    """Rebuild a beat series from an rr.csv file (anchors plus final beat)."""
    times: list[float] = []
    rr_last = None
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["beat_time_s", "rr_ms"]:
            raise DataError(f"{path}: expected header beat_time_s,rr_ms[,flag]")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                times.append(float(parts[0]))
                rr_last = float(parts[1])
            except (IndexError, ValueError):
                raise DataError(
                    f"{path}:{line_no}: expected beat_time_s,rr_ms numbers, got {line!r}"
                ) from None
    if not times:
        raise DataError(f"{path}: no intervals")
    beats = times + [times[-1] + rr_last / 1000.0]
    # the source rate is not recorded in rr.csv and nothing downstream needs it
    return BeatSeries(beat_times=np.array(beats), rate=0.0)


def _run_regressions(cfg: PipelineConfig, band_rows) -> dict:
    if not cfg.surveys:
        return {"status": "not_computed", "reason": "no surveys configured"}
    scores = load_input("surveys file", read_scores, cfg.surveys, cfg.participant)
    return {
        "status": "ok",
        "excluded_conditions": list(cfg.exclude_conditions),
        **band_score_models(band_rows, scores, exclude=cfg.exclude_conditions),
    }
