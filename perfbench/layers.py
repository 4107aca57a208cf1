"""Per-layer metrics from the spans of one traced `earpipe` process."""

from __future__ import annotations

from collections import defaultdict

SELECTION = ("artifact.select_ecg_ic", "artifact.ecg_component_score")
FIR = ("filters.apply_zero_phase", "filters.design_fir")
REPORT_WRITERS = ("spectral.write_band_table", "pipeline._json_dump", "cli._dump_json")


class Spans:
    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span) -> float:
        return span["end"] - span["start"]

    def named(self, *names) -> list:
        return [s for s in self.spans if s["name"] in names]

    def time(self, *names) -> float:
        return sum(self.duration(s) for s in self.named(*names))

    def attr(self, name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.named(name))

    def has_ancestor(self, span, names) -> bool:
        parent = span["parent"]
        while parent is not None:
            p = self.by_id[parent]
            if p["name"] in names:
                return True
            parent = p["parent"]
        return False

    def self_time(self, span) -> float:
        """Span time minus the time its direct children cover."""
        return self.duration(span) - sum(self.duration(c) for c in self.children[span["id"]])

    def self_times(self) -> dict:
        """Calls, total and self seconds per span name."""
        table: dict = {}
        for s in self.spans:
            calls, total, own = table.get(s["name"], (0, 0.0, 0.0))
            table[s["name"]] = (calls + 1, total + self.duration(s), own + self.self_time(s))
        return table


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(sp: Spans) -> dict:
    """Every per-layer metric; a layer that did not run reads 0."""
    ica = sp.named("artifact.ica_decompose")
    ica_s = sp.time("artifact.ica_decompose")
    ica_iters = sp.attr("artifact.ica_decompose", "iters")
    select = sp.named("artifact.select_ecg_ic")
    detector = sp.named("cardiac.pan_tompkins")
    top_scores = [s for s in sp.named("artifact.ecg_component_score") if not sp.has_ancestor(s, SELECTION)]
    parse_s = sp.time("ingest.parse_stream", "ingest.frames_to_recording")
    load_s = sp.time("ingest.load_session_csv")
    fir_s = sp.time(*FIR)
    run = sp.named("pipeline.run_pipeline")
    return {
        "artifact.ica_s": ica_s,
        "artifact.ica_iters": ica_iters,
        "artifact.ica_converged": _ratio(sp.attr("artifact.ica_decompose", "converged"), len(ica)),
        "artifact.ica_components": _ratio(sp.attr("artifact.ica_decompose", "components"), len(ica)),
        "artifact.ica_s_per_iter": _ratio(ica_s, ica_iters),
        "artifact.ecg_select_s": sp.time("artifact.select_ecg_ic") + sum(sp.duration(s) for s in top_scores),
        "artifact.ecg_select_detector_calls": sum(1 for s in detector if sp.has_ancestor(s, SELECTION)),
        "artifact.ecg_select_hit_ratio": _ratio(sp.attr("artifact.select_ecg_ic", "selected"), len(select)),
        "ingest.parse_s": parse_s,
        "ingest.parse_mb_per_s": _ratio(sp.attr("ingest.parse_stream", "bytes") / 1e6, parse_s),
        "ingest.resyncs": sp.attr("ingest.parse_stream", "resyncs"),
        "ingest.dropped_packets": sp.attr("ingest.parse_stream", "dropped_packets"),
        "ingest.csv_load_s": load_s,
        "ingest.csv_load_mb_per_s": _ratio(sp.attr("ingest.load_session_csv", "bytes") / 1e6, load_s),
        "filters.clean_s": sp.time("pipeline.clean_segment"),
        "filters.line_s": sp.time("filters.remove_line_noise"),
        "filters.fir_s": fir_s,
        "filters.fir_gmacs_per_s": _ratio(sp.attr("filters.apply_zero_phase", "macs") / 1e9, fir_s),
        "montage.reref_s": sp.time("montage.rereference_linked_mastoid"),
        "artifact.asr_s": sp.time("artifact.asr_calibrate", "artifact.asr_process"),
        "artifact.asr_calib_windows": sp.attr("artifact.asr_calibrate", "calib_windows"),
        "artifact.asr_flagged_windows": sp.attr("artifact.asr_process", "flagged"),
        "cardiac.detect_s": sum(sp.duration(s) for s in detector if not sp.has_ancestor(s, SELECTION)),
        "cardiac.beats": sp.attr("cardiac.rr_periods", "beats"),
        "cardiac.rr_filter_s": sp.time("cardiac.rr_periods", "cardiac.rr_outlier_filter"),
        "cardiac.outliers": sp.attr("cardiac.rr_outlier_filter", "outliers"),
        "cardiac.match_s": sp.time("cardiac.match_beats", "cardiac.paired_rr"),
        "stats.bland_altman_s": sp.time("stats.bland_altman"),
        "analysis.regressions_s": sp.time("pipeline._run_regressions"),
        "spectral.welch_s": sp.time("spectral.welch_psd_recording", "spectral.to_db", "spectral.band_power"),
        "spectral.welch_windows_used": sp.attr("spectral.welch_psd_recording", "windows_used"),
        "spectral.welch_windows_excluded": sp.attr("spectral.welch_psd_recording", "windows_total")
        - sp.attr("spectral.welch_psd_recording", "windows_used"),
        "spectral.qc_s": sp.time("spectral.qc_report"),
        "pipeline.load_inputs_s": sp.time("pipeline._load_inputs"),
        "pipeline.report_write_s": sp.time(*REPORT_WRITERS),
        "pipeline.self_s": sum(sp.self_time(s) for s in run),
    }
