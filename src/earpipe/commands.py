"""The seven `earpipe` commands, one `cmd_<name>(args)` each, which
returns its summary; `run_command` prints it.

`earpipe.cli` parses the command line and imports this module only once
argparse has accepted a command, so `--version`, `--help` and usage
errors never load numpy or a processing layer. Importing it loads every
layer but synth, which `earpipe synth` imports when it runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

from .analysis import REST_CONDITIONS, analyze_tables, read_scores
from .artifact import ECG_SCORE_THRESHOLD, ECG_SKEW_THRESHOLD, SKEW_EPOCH_S, extract_ecg
from .cardiac import MIN_RATE_HZ, rr_periods
from .errors import ConfigError, DataError
from .ingest import (
    Event, Recording, check_name, cut_segments, load_events_csv, load_session_csv, parse_stream,
    read_table, save_events_csv, save_session_csv,
)
from .pipeline import (
    _json_dump, _jsonable, condition_band_rows, load_config, load_input, load_rr_beats,
    read_ini, read_sections, rr_agreement, rr_rows, run_pipeline, write_rr_csv,
)
from .spectral import (
    DEFAULT_BANDS, BandPowerRow, check_bands, check_welch_window, parse_band_spec,
    read_band_table, welch_psd_recording, write_band_table,
)


# --- synth spec parsing ------------------------------------------------------

# spec field -> its INI key, where they differ
_SPEC_KEYS = {"band_components": "components", "line_noise": "line", "alpha_band_hz": "alpha_band"}


def _read_synth_spec(path, seed_override: int | None, spec_of: dict):
    """[synth] kind and seed plus a section named after the kind, whose
    keys are the fields of its class in spec_of; --seed overrides the
    spec's seed."""
    parser = read_ini(path, "spec")
    kind = parser.get("synth", "kind", fallback=None)
    if kind not in spec_of:
        raise ConfigError(f"[synth] kind must be eeg, ecg or berger, got {kind!r}")
    parser.remove_option("synth", "kind")  # read above; it picks the kind's section
    keys = {_SPEC_KEYS.get(f.name, f.name): f for f in fields(spec_of[kind])}
    values, problems = read_sections(parser, {"synth": {"seed": keys.pop("seed")}, kind: keys})
    if problems:
        raise ConfigError("; ".join(problems))
    seed = seed_override if seed_override is not None else values["synth"].get("seed")
    if seed is None:
        raise ConfigError("[synth] seed is required; randomized output must be reproducible")
    try:
        return kind, spec_of[kind](seed=seed, **values.get(kind, {}))
    except ValueError as exc:
        raise ConfigError(f"{kind}: {exc}") from None


# --- subcommands -------------------------------------------------------------


def cmd_parse(args) -> dict:
    if not 0 < args.rate < math.inf:  # also refuses nan
        raise ConfigError(f"--rate must be positive and finite, got {args.rate}")
    raw = load_input("raw stream", Path.read_bytes, Path(args.raw))
    rec, report = parse_stream(raw, rate=args.rate)
    # zero decoded frames is a valid outcome (empty or unrecoverable input):
    # the session CSV is then header-only and the integrity report says why
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_session_csv(rec, out / "session.csv")
    _json_dump(report.to_dict(), out / "integrity.json")
    return {
        "frames": rec.n_samples,
        "dropped_packets": report.dropped_packets,
        "resyncs": report.resyncs,
        "out_dir": str(out),
    }


def cmd_synth(args) -> dict:
    # synth is imported where it is used: only `earpipe synth` needs it, and
    # the other commands skip the 5-8 ms of start-up its import takes
    from . import synth

    spec_of = {"eeg": synth.EegSynthSpec, "ecg": synth.EcgSynthSpec, "berger": synth.BergerSpec}
    kind, spec = _read_synth_spec(args.spec, args.seed, spec_of)
    if kind == "ecg":
        try:
            rec, beats = synth.gen_ecg(spec)
        except ValueError as exc:  # jitter can plant two beats inside one refractory period
            raise ConfigError(f"ecg: planted {exc}; lower bpm or rr_jitter_ms") from None
        truth = {"kind": kind, "beat_times_s": beats.beat_times, "bpm": spec.bpm}
    else:
        rec = synth.berger_session(spec) if kind == "berger" else synth.gen_eeg(spec)
        truth = {"kind": kind, **rec.meta.get("truth", {})}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "ecg":
        truth_rows = []
        if len(beats) >= 2:
            rr = rr_periods(beats)
            truth_rows = [(t, ms, "ok") for t, ms in zip(rr.anchored_at_s, rr.intervals_ms)]
        write_rr_csv(truth_rows, out / "rr_truth.csv")
    save_session_csv(rec, out / "session.csv")
    events = rec.events or [Event("all", *rec.span)]
    save_events_csv(events, out / "events.csv")
    _json_dump(truth, out / "truth.json")
    return {
        "kind": kind,
        "rate": rec.rate,
        "channels": rec.n_channels,
        "samples": rec.n_samples,
        "out_dir": str(out),
    }


def cmd_run(args) -> dict:
    if args.config is None:
        raise ConfigError("run needs a config: pass --config either globally or after 'run'")
    cfg = load_config(args.config, out_dir=args.out_dir, line_freq_hz=args.line_freq)
    return run_pipeline(cfg)


def cmd_bands(args) -> dict:
    try:
        check_name("--participant", args.participant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rec = load_input("session file", load_session_csv, args.session)
    try:
        check_welch_window(args.segment, args.overlap)
    except ValueError as exc:
        raise ConfigError(f"--segment, --overlap: {exc}") from None
    try:
        bands = parse_band_spec(args.bands) if args.bands else DEFAULT_BANDS
        check_bands(bands, args.segment, rec.rate, rec.n_samples)
    except ValueError as exc:
        raise ConfigError(f"--bands: {exc}") from None
    if args.events:
        events = load_input("events file", load_events_csv, args.events)
    else:
        events = [Event("all", *rec.span)]
    try:
        segments = cut_segments(rec, events)
        for ev in events:  # run flags an event outside the span; bands refuses it
            rec.check_span(ev)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    psds = []
    for seg in segments:
        # with the window checked, Welch can only find the segment too short
        try:
            psds.append((seg.condition, welch_psd_recording(
                seg.recording, seg=args.segment, overlap=args.overlap)))
        except ValueError as exc:
            raise DataError(f"segment {seg.condition}: {exc}") from None
    rows = condition_band_rows(args.participant, psds, bands)
    write_band_table(rows, args.out)
    return {"rows": len(rows), "out": args.out}


def cmd_ecg(args) -> dict:
    rec = load_input("session file", load_session_csv, args.session)
    if args.channel in rec.labels:
        row = rec.labels.index(args.channel)
    else:
        try:
            row = int(args.channel) - 1
        except ValueError:
            raise ConfigError(f"channel must be a label or 1-based index, got {args.channel!r}") from None
        if not 0 <= row < rec.n_channels:
            raise ConfigError(f"channel index {args.channel} outside 1..{rec.n_channels}")
    # the channel alone, through the cardiac-source decision of `run`
    channel = Recording(rate=rec.rate, labels=[rec.labels[row]], data=rec.data[row : row + 1])
    try:
        pick = extract_ecg(channel)
    except ValueError as exc:
        raise DataError(f"channel {args.channel}: {exc}") from None
    if pick is None:
        raise DataError(f"channel {args.channel}: no heartbeat by the rule of stage 7, which "
                        f"needs at least {2 * SKEW_EPOCH_S:g} s at {MIN_RATE_HZ:g} Hz or more, "
                        f"held-out skewness >= {ECG_SKEW_THRESHOLD} and rhythm score >= "
                        f"{ECG_SCORE_THRESHOLD}")
    beats = pick.beats
    rows = rr_rows(beats)
    write_rr_csv(rows, args.out)
    return {
        "beats": len(beats),
        "intervals": len(rows),
        "outliers": sum(flag == "outlier" for _, _, flag in rows),
        "out": args.out,
    }


def cmd_agree(args) -> dict:
    if not 0 < args.tolerance < math.inf:  # also refuses nan
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance}")
    ref = load_input("R-R file", load_rr_beats, args.ref)
    alt = load_input("R-R file", load_rr_beats, args.alt)
    payload = {**rr_agreement(ref, alt, args.tolerance), "tolerance_s": args.tolerance}
    if args.out:
        _json_dump(payload, args.out)
    return payload


def _inline_scores(path) -> dict:
    """Scores carried as tlx_total/flow_mean columns inside a band table."""
    header, _ = read_table(path, ())
    return read_scores(path) if {"tlx_total", "flow_mean"} <= set(header) else {}


def cmd_analyze(args) -> dict:
    rows: list[BandPowerRow] = []
    inline: dict = {}
    for path in args.bands:
        rows.extend(load_input("band table", read_band_table, path))
        inline.update(load_input("band table", _inline_scores, path))
    if not rows:
        raise DataError("band tables contain no rows")
    scores = inline or None
    if args.scores:
        scores = load_input("scores file", read_scores, args.scores)
    exclude = REST_CONDITIONS if args.exclude_condition is None else tuple(args.exclude_condition)
    payload = analyze_tables(rows, scores, exclude=exclude)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(payload, out / "analysis.json")
    return {"rows": len(rows), "bands": payload["bands"], "out_dir": str(out)}


def run_command(args) -> int:
    """Run args.command's handler and print its summary, named by the
    command, as one JSON line on stdout."""
    summary = globals()[f"cmd_{args.command}"](args)
    print(json.dumps(_jsonable({"command": args.command, **summary}), sort_keys=True, allow_nan=False))
    return 0
