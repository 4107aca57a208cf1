"""Group regressions: the residual df of within-participant fits, and the
scores they read.

band_score_models z-scores power and scores within each participant, which
takes out one mean per participant; the fits' residual df must pay for them,
or the p-values of the workload and flow models reject a true null too often.
"""

import json
import math

import numpy as np
import pytest

from earpipe.analysis import REST_CONDITIONS, band_score_models, read_scores
from earpipe.cli import main
from earpipe.errors import envelope
from earpipe.pipeline import PipelineConfig
from earpipe.spectral import BandPowerRow, write_band_table
from earpipe.stats import fit_linear, fit_quadratic_orthogonal

NULL_DRAWS = 2000
NULL_BAND = (0.03, 0.07)  # about four standard errors of 2000 draws around 0.05


def draw_tables(rng, participants: int, conditions: int, slope: float = 0.0):
    """One band's rows and scores: each participant has its own power and
    workload offsets, and power rises by `slope` per unit of workload
    within a participant, with unit noise."""
    rows, scores = [], {}
    for i in range(participants):
        p = f"P{i + 1}"
        power_offset, tlx_offset = rng.normal(0.0, 3.0), rng.normal(0.0, 10.0)
        for j in range(conditions):
            c = f"c{j + 1}"
            tlx, flow = rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)
            scores[(p, c)] = (tlx_offset + tlx, flow)
            power = power_offset + slope * tlx + rng.normal(0.0, 1.0)
            rows.append(BandPowerRow(p, c, "L1", "alpha", float(power)))
    return rows, scores


def _term(fit: dict, name: str) -> dict:
    return next(c for c in fit["coefficients"] if c["name"] == name)


@pytest.mark.parametrize("participants, conditions", [(6, 3), (10, 3), (4, 5)])
def test_null_rejection_rate_is_nominal(participants, conditions):
    """With power independent of the scores, the slope and the quadratic
    term reach p < 0.05 in 3-7% of 2000 seeded draws."""
    rng = np.random.default_rng(1000 * participants + conditions)
    hits = {"workload_linear": 0, "flow_quadratic": 0}
    for _ in range(NULL_DRAWS):
        models = band_score_models(*draw_tables(rng, participants, conditions))
        hits["workload_linear"] += _term(models["workload_linear"]["alpha"], "slope")["p"] < 0.05
        hits["flow_quadratic"] += _term(models["flow_quadratic"]["alpha"], "quadratic")["p"] < 0.05
    for model, count in hits.items():
        assert NULL_BAND[0] <= count / NULL_DRAWS <= NULL_BAND[1], model


def test_planted_within_participant_slope_is_found():
    """A slope of 2 noise SDs per unit of workload, in 6 participants x 3
    conditions, is found (p < 0.05, positive) in at least 85% of 500 draws
    (471 with this seed)."""
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(500):
        fit = band_score_models(*draw_tables(rng, 6, 3, slope=2.0))["workload_linear"]["alpha"]
        slope = _term(fit, "slope")
        found += slope["p"] < 0.05 and slope["estimate"] > 0
    assert found / 500 >= 0.85


def test_fits_pay_one_df_per_participant_mean():
    rows, scores = draw_tables(np.random.default_rng(3), 6, 3)
    models = band_score_models(rows, scores)
    assert models["workload_linear"]["alpha"]["df_resid"] == 18 - 6 - 1
    assert models["flow_quadratic"]["alpha"]["df_resid"] == 18 - 6 - 2


def test_absorbed_means_widen_the_standard_errors():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=12), rng.normal(size=12)
    for fit_fn, n_coef in ((fit_linear, 2), (fit_quadratic_orthogonal, 3)):
        plain, within = fit_fn(x, y), fit_fn(x, y, absorbed=4)
        assert within["df_resid"] == plain["df_resid"] - 4 == 12 - n_coef - 4
        ratio = math.sqrt((12 - n_coef) / (12 - n_coef - 4))
        for w, p in zip(within["coefficients"], plain["coefficients"], strict=True):
            assert w["estimate"] == p["estimate"]
            np.testing.assert_allclose(w["se"], p["se"] * ratio, rtol=1e-12)


def test_fit_with_no_residual_df_left_is_not_computed():
    x, y = np.arange(5.0), np.array([0.0, 2.0, 1.0, 4.0, 3.0])
    got = envelope(fit_linear, x, y, absorbed=3)
    assert got == {"status": "not_computed",
                   "reason": "5 points leave no residual degrees of freedom after "
                             "2 coefficients and 3 absorbed means"}
    with pytest.raises(ValueError, match="no residual degrees of freedom"):
        fit_quadratic_orthogonal(x, y, absorbed=2)


def test_rest_conditions_are_the_default_of_run_and_analyze(tmp_path, capsys):
    assert PipelineConfig.__dataclass_fields__["exclude_conditions"].default is REST_CONDITIONS
    assert REST_CONDITIONS == ("eyes_open", "eyes_closed")
    rows, _ = draw_tables(np.random.default_rng(0), 2, 3)
    write_band_table(rows, tmp_path / "bands.csv")
    assert main(["analyze", "--bands", str(tmp_path / "bands.csv"), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "analysis.json").read_text())
    assert report["excluded_conditions"] == list(REST_CONDITIONS)


ITEM_HEADER = ",".join(["participant", "condition", *(f"tlx_{i}" for i in range(1, 7)),
                        *(f"flow_{i}" for i in range(1, 4))])


def write_item_scores(tmp_path, *rows):
    """A scores file in the item layout; each row is (condition, tlx items, flow items)."""
    path = tmp_path / "scores.csv"
    lines = [",".join(["P1", condition, *map(str, tlx), *map(str, flow)])
             for condition, tlx, flow in rows]
    path.write_text("\n".join([ITEM_HEADER, *lines]) + "\n")
    return path


def test_read_scores_totals_the_workload_items_and_averages_the_flow_items(tmp_path):
    path = write_item_scores(tmp_path, ("top", [21] * 6, [7] * 3), ("bottom", [0] * 6, [1] * 3),
                             ("mixed", [1, 2, 3, 4, 5, 6], [1, 2, 6]))
    assert read_scores(path) == {("P1", "top"): (126.0, 7.0), ("P1", "bottom"): (0.0, 1.0),
                                 ("P1", "mixed"): (21.0, 3.0)}


@pytest.mark.parametrize("tlx, flow, problem", [
    ([22, 0, 0, 0, 0, 0], [1, 1, 1], "workload item 22.0 outside (0.0, 21.0)"),
    ([0] * 6, [0, 1, 1], "flow item 0.0 outside (1.0, 7.0)"),
    # every item of the row is read before any is checked against its scale
    ([22, 0, 0, 0, 0, 0], [1, "x", 1], "'x' in flow_2 is not a number"),
], ids=["workload-range", "flow-range", "parse-before-range"])
def test_read_scores_names_the_line_of_a_bad_item(tmp_path, tlx, flow, problem):
    path = write_item_scores(tmp_path, ("easy", [0] * 6, [1] * 3), ("hard", tlx, flow))
    with pytest.raises(ValueError) as info:
        read_scores(path)
    assert str(info.value) == f"{path}:3: {problem}"
