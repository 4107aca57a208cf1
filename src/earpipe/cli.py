"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems (bad flags,
malformed or inconsistent config files, an output path that cannot be
written), 3 for data problems (missing or unreadable inputs).
Diagnostics go to stderr as a single JSON object so callers can parse
failures; result summaries go to stdout.

`--version`, `--help` and usage errors import no numpy and no
processing layer: each command loads its layers when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError

# Every function below imports the earpipe names it uses when it is
# called, not here: importing numpy and the layers costs a fresh process
# 0.15-0.25 s, which `--version`, `--help` and a usage error would
# otherwise pay for nothing. A command still loads every layer it uses.


def _emit(payload: dict) -> None:
    from .pipeline import _jsonable

    print(json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False))


# --- synth spec parsing ------------------------------------------------------

# spec field -> its INI key, where they differ
_SPEC_KEYS = {"band_components": "components", "line_noise": "line", "alpha_band_hz": "alpha_band"}


def _read_synth_spec(path, seed_override: int | None):
    """[synth] kind and seed plus a section named after the kind, whose
    keys are the kind's spec fields; --seed overrides the spec's seed."""
    from . import synth
    from .pipeline import read_ini, read_sections

    spec_of = {"eeg": synth.EegSynthSpec, "ecg": synth.EcgSynthSpec, "berger": synth.BergerSpec}
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


def cmd_parse(args) -> int:
    from .ingest import parse_stream, save_session_csv
    from .pipeline import _json_dump, load_input

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
    _emit(
        {
            "command": "parse",
            "frames": rec.n_samples,
            "dropped_packets": report.dropped_packets,
            "resyncs": report.resyncs,
            "out_dir": str(out),
        }
    )
    return 0


def cmd_synth(args) -> int:
    from .cardiac import rr_periods
    from .ingest import Event, save_events_csv, save_session_csv
    from .pipeline import _json_dump, write_rr_csv
    from .synth import berger_session, gen_ecg, gen_eeg

    kind, spec = _read_synth_spec(args.spec, args.seed)
    if kind == "ecg":
        try:
            rec, beats = gen_ecg(spec)
        except ValueError as exc:  # jitter can plant two beats inside one refractory period
            raise ConfigError(f"ecg: planted {exc}; lower bpm or rr_jitter_ms") from None
        truth = {"kind": kind, "beat_times_s": beats.beat_times, "bpm": spec.bpm}
    else:
        rec = berger_session(spec) if kind == "berger" else gen_eeg(spec)
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
    _emit(
        {
            "command": "synth",
            "kind": kind,
            "rate": rec.rate,
            "channels": rec.n_channels,
            "samples": rec.n_samples,
            "out_dir": str(out),
        }
    )
    return 0


def cmd_run(args) -> int:
    from .pipeline import load_config, run_pipeline

    if args.config is None:
        raise ConfigError("run needs a config: pass --config either globally or after 'run'")
    cfg = load_config(
        args.config, out_dir=args.out_dir, ica_seed=args.seed, line_freq_hz=args.line_freq
    )
    _emit({"command": "run", **run_pipeline(cfg)})
    return 0


def cmd_bands(args) -> int:
    from .ingest import Event, cut_segments, load_events_csv, load_session_csv
    from .pipeline import condition_band_rows, load_input
    from .spectral import (
        DEFAULT_BANDS,
        check_bands,
        check_welch_window,
        parse_band_spec,
        welch_psd_recording,
        write_band_table,
    )

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
    _emit({"command": "bands", "rows": len(rows), "out": args.out})
    return 0


def cmd_ecg(args) -> int:
    from .artifact import extract_ecg
    from .ingest import Recording, load_session_csv
    from .pipeline import load_input, rr_rows, write_rr_csv

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
        raise DataError(
            f"channel {args.channel}: no heartbeat by the rule of stage 7, which needs at "
            "least 10 s at 100 Hz or more, held-out skewness >= 0.5 and rhythm score >= 0.5"
        )
    beats = pick.beats
    rows = rr_rows(beats)
    write_rr_csv(rows, args.out)
    _emit(
        {
            "command": "ecg",
            "beats": len(beats),
            "intervals": len(rows),
            "outliers": sum(flag == "outlier" for _, _, flag in rows),
            "out": args.out,
        }
    )
    return 0


def cmd_agree(args) -> int:
    from .pipeline import _json_dump, load_input, load_rr_beats, rr_agreement

    if not args.tolerance > 0:  # also refuses nan
        raise ConfigError(f"--tolerance must be positive, got {args.tolerance}")
    ref = load_input("R-R file", load_rr_beats, args.ref)
    alt = load_input("R-R file", load_rr_beats, args.alt)
    payload = {**rr_agreement(ref, alt, args.tolerance), "tolerance_s": args.tolerance}
    if args.out:
        _json_dump(payload, args.out)
    _emit({"command": "agree", **payload})
    return 0


def _inline_scores(path) -> dict:
    """Scores carried as tlx_total/flow_mean columns inside a band table."""
    from .analysis import read_scores
    from .ingest import read_table

    header, _ = read_table(path, ())
    return read_scores(path) if {"tlx_total", "flow_mean"} <= set(header) else {}


def cmd_analyze(args) -> int:
    from .analysis import analyze_tables, read_scores
    from .pipeline import _json_dump, load_input
    from .spectral import BandPowerRow, read_band_table

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
    exclude = args.exclude_condition if args.exclude_condition is not None else ["eyes_open", "eyes_closed"]
    payload = analyze_tables(rows, scores, exclude=tuple(exclude))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(payload, out / "analysis.json")
    _emit(
        {
            "command": "analyze",
            "rows": len(rows),
            "bands": payload["bands"],
            "out_dir": str(out),
        }
    )
    return 0


# --- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors, reported as one JSON object; subparsers share it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="earpipe",
        description="Around-the-ear EEG/ECG processing: parse, clean, "
        "score bands, recover heartbeats, compare and analyze.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None, help="pipeline INI config (used by run)")
    parser.add_argument(
        "--seed", type=int, default=None, help="override a synth spec's seed (run: a deprecated no-op)"
    )
    parser.add_argument(
        "--line-freq",
        type=float,
        choices=(50.0, 60.0),
        default=None,
        help="override the mains frequency from the config",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="decode a raw amplifier byte stream to a session CSV")
    p.set_defaults(handler=cmd_parse)
    p.add_argument("--raw", required=True, help="raw packet stream file")
    p.add_argument("--rate", type=float, default=125.0, help="nominal frame rate in Hz")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("synth", help="generate synthetic sessions from a spec file")
    p.set_defaults(handler=cmd_synth)
    p.add_argument("--spec", required=True, help="INI spec with [synth] kind/seed")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("run", help="run the full cleaning and scoring chain")
    p.set_defaults(handler=cmd_run)
    p.add_argument("--config", default=argparse.SUPPRESS, help="pipeline INI config")
    p.add_argument("--out-dir", default=None, help="override [output] dir")

    p = sub.add_parser("bands", help="band powers from a session CSV without cleaning")
    p.set_defaults(handler=cmd_bands)
    p.add_argument("--session", required=True)
    p.add_argument("--events", default=None)
    p.add_argument("--bands", default=None, help="name:lo:hi[,name:lo:hi...]")
    p.add_argument("--segment", type=int, default=256)
    p.add_argument("--overlap", type=int, default=64)
    p.add_argument("--participant", default="P01")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ecg", help="detect beats on one channel and write R-R intervals")
    p.set_defaults(handler=cmd_ecg)
    p.add_argument("--session", required=True)
    p.add_argument("--channel", required=True, help="channel label or 1-based index")
    p.add_argument("--out", required=True)

    p = sub.add_parser("agree", help="compare two R-R series (Bland-Altman)")
    p.set_defaults(handler=cmd_agree)
    p.add_argument("--ref", required=True, help="reference rr.csv")
    p.add_argument("--alt", required=True, help="alternative rr.csv")
    p.add_argument("--tolerance", type=float, default=0.15, help="beat match tolerance in s")
    p.add_argument("--out", default=None, help="also write the report to this JSON file")

    p = sub.add_parser("analyze", help="group regressions and contrasts over band tables")
    p.set_defaults(handler=cmd_analyze)
    p.add_argument("--bands", required=True, nargs="+", help="one or more band table CSVs")
    p.add_argument("--scores", default=None, help="questionnaire scores CSV")
    p.add_argument(
        "--exclude-condition",
        action="append",
        default=None,
        help="condition left out of the score regressions, repeatable "
        "(default: eyes_open and eyes_closed; contrasts always keep all)",
    )
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ConfigError, DataError, OSError) as exc:
        # inputs are read through load_input and read_ini, so an OSError
        # here is a write to a path named by a flag or by [output] dir
        if isinstance(exc, OSError):
            exc = ConfigError(f"cannot write {exc.filename}: {exc.strerror}")
        kind, code = ("data", 3) if isinstance(exc, DataError) else ("config", 2)
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
