"""Group-level analysis: join band-power tables with questionnaire
scores, then run the workload/flow regressions and condition contrasts.

Scores are standardized within participant before regression so that
between-person offsets in rating style or absolute band power do not
masquerade as effects. Rest conditions (eyes open/closed) are excluded
from the workload and flow models by default but kept in the condition
contrasts, where they are the point of comparison.
"""

from __future__ import annotations

import numpy as np

from .ingest import read_table
from .spectral import BandPowerRow
from .stats import (
    FLOW_ITEMS,
    TLX_ITEMS,
    SurveyResponse,
    aggregate_survey,
    fit_linear,
    fit_quadratic_orthogonal,
    pairwise_contrasts,
    z_standardize,
)

TLX_COLUMNS = tuple(f"tlx_{i}" for i in range(1, TLX_ITEMS + 1))
FLOW_COLUMNS = tuple(f"flow_{i}" for i in range(1, FLOW_ITEMS + 1))
# the conditions the workload and flow models leave out unless told otherwise
REST_CONDITIONS = ("eyes_open", "eyes_closed")


def read_scores(path, default_participant: str = "P01") -> dict:
    """Read questionnaire scores keyed by (participant, condition).

    Two layouts are accepted, detected from the header: raw item
    responses (tlx_1..tlx_6, flow_1..flow_3) which are aggregated here,
    or pre-aggregated columns (tlx_total, flow_mean). Repeated rows for
    the same participant and condition are averaged.
    """
    header, rows = read_table(path, ("condition",), "scores need a 'condition' column")
    raw_items = all(c in header for c in TLX_COLUMNS + FLOW_COLUMNS)
    aggregated = "tlx_total" in header and "flow_mean" in header
    if not raw_items and not aggregated:
        raise ValueError(
            f"{path}: expected either item columns "
            f"({', '.join(TLX_COLUMNS + FLOW_COLUMNS)}) or tlx_total,flow_mean"
        )
    sums: dict[tuple, list] = {}
    for row in rows:
        if raw_items:
            items = [tuple(row.number(c) for c in columns) for columns in (TLX_COLUMNS, FLOW_COLUMNS)]
            tlx, flow = aggregate_survey(row.build(SurveyResponse, *items))
        else:
            tlx, flow = (row.number(c, finite=True) for c in ("tlx_total", "flow_mean"))
        participant = row.get("participant", default_participant)
        sums.setdefault((participant, row["condition"]), []).append((tlx, flow))
    return {
        key: (
            float(np.mean([t for t, _ in vals])),
            float(np.mean([f for _, f in vals])),
        )
        for key, vals in sums.items()
    }


def pool_channels(rows: list[BandPowerRow]) -> dict:
    """Mean band power across channels per (participant, condition, band)."""
    cells: dict[tuple, list] = {}
    for r in rows:
        cells.setdefault((r.participant, r.condition, r.band), []).append(r.power_db)
    return {key: float(np.mean(vals)) for key, vals in cells.items()}


def _band_names(rows: list[BandPowerRow]) -> list[str]:
    return list(dict.fromkeys(r.band for r in rows))


def _joined_arrays(pooled: dict, scores: dict, band: str, exclude: tuple):
    participants: list[str] = []
    power: list[float] = []
    tlx: list[float] = []
    flow: list[float] = []
    for (p, c, b), value in sorted(pooled.items()):
        if b != band or c in exclude or (p, c) not in scores:
            continue
        participants.append(p)
        power.append(value)
        t, f = scores[(p, c)]
        tlx.append(t)
        flow.append(f)
    return participants, np.array(power), np.array(tlx), np.array(flow)


def _fit_or_reason(fit_fn, *args, **kwargs) -> dict:
    try:
        return {"status": "ok", **fit_fn(*args, **kwargs).to_dict()}
    except ValueError as exc:
        return {"status": "not_computed", "reason": str(exc)}


def band_score_models(rows: list[BandPowerRow], scores: dict, exclude: tuple = ()) -> dict:
    """Per band: linear workload model and quadratic flow model on
    within-participant z scores.

    Standardizing within each of k participants takes out k means, one of
    which the intercept stands for, so each fit's residual df is k - 1
    fewer than a plain regression's: n - k - 1 for the line and n - k - 2
    for the quadratic.
    """
    pooled = pool_channels(rows)
    out: dict = {"workload_linear": {}, "flow_quadratic": {}}
    for band in _band_names(rows):
        participants, power, tlx, flow = _joined_arrays(pooled, scores, band, exclude)
        try:
            if len(power) < 3:
                raise ValueError(f"only {len(power)} joined observations")
            pz, tz, fz = (z_standardize(v, participants) for v in (power, tlx, flow))
        except ValueError as exc:
            for model in out.values():
                model[band] = {"status": "not_computed", "reason": str(exc)}
            continue
        absorbed = len(set(participants)) - 1
        out["workload_linear"][band] = _fit_or_reason(fit_linear, pz, tz, absorbed=absorbed)
        out["flow_quadratic"][band] = _fit_or_reason(fit_quadratic_orthogonal, pz, fz,
                                                     absorbed=absorbed)
    return out


def band_condition_contrasts(rows: list[BandPowerRow]) -> dict:
    """Per band: omnibus F plus Bonferroni-adjusted pairwise paired t-tests
    across conditions (all conditions, rest included)."""
    pooled = pool_channels(rows)
    out: dict = {}
    for band in _band_names(rows):
        cells = {(p, c): value for (p, c, b), value in pooled.items() if b == band}
        try:
            out[band] = {"status": "ok", **pairwise_contrasts(cells).to_dict()}
        except ValueError as exc:
            out[band] = {"status": "not_computed", "reason": str(exc)}
    return out


def analyze_tables(rows: list[BandPowerRow], scores: dict | None, exclude: tuple = ()) -> dict:
    payload: dict = {
        "n_rows": len(rows),
        "bands": _band_names(rows),
        "excluded_conditions": list(exclude),
        "contrasts": band_condition_contrasts(rows),
    }
    if scores:
        payload.update(band_score_models(rows, scores, exclude))
    else:
        payload["workload_linear"] = {"status": "not_computed", "reason": "no scores supplied"}
        payload["flow_quadratic"] = {"status": "not_computed", "reason": "no scores supplied"}
    return payload

