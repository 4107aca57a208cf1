import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe.stats import (
    BlandAltmanReport,
    SurveyResponse,
    aggregate_survey,
    betainc_reg,
    bland_altman,
    bonferroni,
    f_p_value,
    fit_linear,
    fit_quadratic_orthogonal,
    orthogonal_poly_basis,
    pairwise_contrasts,
    t_p_two_sided,
    z_standardize,
)

from oracles import normal_equations, student_t_p_two_sided


# --- special functions ---------------------------------------------------------

# two-sided p at the textbook 5% critical t for each df
T_TABLE = [
    (1, 12.706),
    (2, 4.303),
    (5, 2.571),
    (10, 2.228),
    (30, 2.042),
    (120, 1.980),
]


@pytest.mark.parametrize("df,t_crit", T_TABLE)
def test_t_p_matches_critical_table(df, t_crit):
    assert t_p_two_sided(t_crit, df) == pytest.approx(0.05, abs=5e-4)


@pytest.mark.parametrize("df", [1, 3, 8, 40])
def test_t_p_matches_numeric_integration(df):
    for t in (0.5, 1.3, 2.7, 5.0):
        assert t_p_two_sided(t, df) == pytest.approx(
            student_t_p_two_sided(t, df), abs=1e-7
        )


def test_t_p_edge_cases():
    assert t_p_two_sided(0.0, 10) == 1.0
    assert t_p_two_sided(math.inf, 10) == 0.0
    assert t_p_two_sided(-2.0, 10) == t_p_two_sided(2.0, 10)


def test_betainc_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(150):
        a = float(rng.uniform(0.5, 40))
        b = float(rng.uniform(0.5, 40))
        x = float(rng.uniform(0, 1))
        ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
        worst = max(worst, abs(betainc_reg(a, b, x) - ref))
    assert worst < 1e-10


def test_f_p_value_known_point():
    # F(1, df2) = t(df2)^2: the p-values must agree
    t = 2.228
    assert f_p_value(t * t, 1, 10) == pytest.approx(t_p_two_sided(t, 10), rel=1e-9)


# --- surveys -------------------------------------------------------------------


def test_survey_bounds_enforced():
    with pytest.raises(ValueError):
        SurveyResponse(nasa_tlx=(22, 0, 0, 0, 0, 0), flow=(1, 1, 1))
    with pytest.raises(ValueError):
        SurveyResponse(nasa_tlx=(0,) * 6, flow=(0, 1, 1))
    with pytest.raises(ValueError):
        SurveyResponse(nasa_tlx=(0,) * 5, flow=(1, 1, 1))


def test_aggregate_survey_extremes():
    top = SurveyResponse(nasa_tlx=(21,) * 6, flow=(7, 7, 7))
    assert aggregate_survey(top) == (126.0, 7.0)
    bottom = SurveyResponse(nasa_tlx=(0,) * 6, flow=(1, 1, 1))
    assert aggregate_survey(bottom) == (0.0, 1.0)


def test_z_standardize_per_participant():
    values = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    participants = np.array(["a", "a", "a", "b", "b", "b"])
    z = z_standardize(values, participants)
    for p in ("a", "b"):
        group = z[participants == p]
        assert group.mean() == pytest.approx(0.0, abs=1e-12)
        assert group.std(ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_z_standardize_errors_name_participant():
    with pytest.raises(ValueError, match="solo"):
        z_standardize(np.array([1.0]), np.array(["solo"]))
    with pytest.raises(ValueError, match="flat"):
        z_standardize(np.array([2.0, 2.0]), np.array(["flat", "flat"]))


# --- regression ------------------------------------------------------------------


def test_fit_linear_exact_line():
    fit = fit_linear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    assert fit.coef[1] == pytest.approx(1.0, abs=1e-12)
    assert fit.coef[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_linear_matches_normal_equations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40)
    y = 1.5 - 2.0 * x + rng.normal(scale=0.7, size=40)
    fit = fit_linear(x, y)
    design = np.column_stack([np.ones_like(x), x])
    beta, se, r2 = normal_equations(design, y)
    assert np.allclose(fit.coef, beta, atol=1e-9)
    assert np.allclose(fit.se, se, atol=1e-9)
    assert fit.r_squared == pytest.approx(r2, abs=1e-9)


def test_orthogonal_basis_inner_products():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 5, size=50)
    basis = orthogonal_poly_basis(x)
    gram = basis.T @ basis
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9


def test_quadratic_nesting_exact():
    rng = np.random.default_rng(5)
    x = rng.normal(size=25)
    y = 0.5 + 0.8 * x - 0.3 * x**2 + rng.normal(scale=0.4, size=25)
    quad = fit_quadratic_orthogonal(x, y)
    ols = fit_linear(x, y)
    # orthogonality: adding the quadratic term leaves the slope unchanged
    assert quad.names[1] == "linear"
    assert quad.coef[1] == pytest.approx(ols.coef[1], rel=1e-12)
    assert quad.r_squared >= ols.r_squared


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_quadratic_refused_when_x_takes_two_values(scale):
    # two conditions per participant: every within-participant z score is
    # +-1/sqrt(2), and (x - mean)^2 is constant up to round-off
    participants = [f"P{i}" for i in range(5) for _ in range(2)]
    rng = np.random.default_rng(8)
    x = scale * z_standardize(rng.normal(size=10), participants)
    with pytest.raises(ValueError, match="x takes two distinct values"):
        fit_quadratic_orthogonal(x, rng.normal(size=10))
    # a third value makes the term identifiable again
    x[0] = 0.0
    assert math.isfinite(fit_quadratic_orthogonal(x, rng.normal(size=10)).coef[2])


def test_quadratic_matches_normal_equations():
    rng = np.random.default_rng(6)
    x = rng.normal(size=30)
    y = 1.0 - 0.5 * x - 0.9 * x**2 + rng.normal(scale=0.3, size=30)
    fit = fit_quadratic_orthogonal(x, y)
    basis = orthogonal_poly_basis(x)
    beta, se, r2 = normal_equations(basis, y)
    assert np.allclose(fit.coef, beta, atol=1e-9)
    assert np.allclose(fit.se, se, atol=1e-9)
    assert fit.r_squared == pytest.approx(r2, abs=1e-9)


def test_inverted_u_detected():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=60)
    y = 1.0 - 1.2 * x**2 + rng.normal(scale=0.5, size=60)
    fit = fit_quadratic_orthogonal(x, y)
    assert fit.coef[2] < 0
    assert fit.p_values[2] < 0.05


# --- contrasts -------------------------------------------------------------------


def _cells(seed: int, conditions=("a", "b", "c"), n_participants: int = 6, effect=0.0):
    rng = np.random.default_rng(seed)
    cells = {}
    for p in range(n_participants):
        offset = rng.normal(scale=5.0)  # participant-level shift
        for j, c in enumerate(conditions):
            cells[(f"P{p}", c)] = offset + effect * j + rng.normal()
    return cells


def test_single_pair_adjusted_equals_raw():
    cells = _cells(8, conditions=("x", "y"))
    table = pairwise_contrasts(cells)
    assert len(table.rows) == 1
    _, _, _, _, _, p_raw, p_adj = table.rows[0]
    assert p_adj == pytest.approx(p_raw)


def test_contrasts_detect_large_effect():
    cells = _cells(9, effect=4.0)
    table = pairwise_contrasts(cells)
    assert table.omnibus_p < 0.01
    d = table.to_dict()
    ac = [r for r in d["pairs"] if {r["a"], r["b"]} == {"a", "c"}][0]
    assert ac["p_adjusted"] < 0.05


def test_contrasts_null_effect_not_significant():
    cells = _cells(10, effect=0.0)
    table = pairwise_contrasts(cells)
    assert table.omnibus_p > 0.05


def test_contrasts_balanced_flag():
    cells = _cells(11)
    assert pairwise_contrasts(cells).balanced
    unbalanced = dict(cells)
    unbalanced.pop(("P0", "a"))
    assert not pairwise_contrasts(unbalanced).balanced


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=2, max_size=12),
)
def test_bonferroni_monotone_and_clipped(ps):
    adjusted = bonferroni(ps)
    m = len(ps)
    for raw, adj in zip(ps, adjusted):
        assert adj == pytest.approx(min(1.0, m * raw))
        assert adj >= raw
    order_raw = np.argsort(ps)
    order_adj = np.argsort(adjusted)
    # equal adjusted values (clipped at 1) may permute, so compare values
    assert np.allclose(np.array(adjusted)[order_raw], sorted(adjusted))


# --- agreement -------------------------------------------------------------------


def test_bland_altman_identical_series_exact():
    x = np.array([800.0, 810.0, 790.0, 805.0])
    report = bland_altman(x, x.copy())
    assert report.mean_abs_diff_ms == 0.0
    assert report.mean_diff_ms == 0.0
    assert report.gaussian_loa_ms == 0.0
    assert report.pearson_r == 1.0


def test_bland_altman_seeded_normal_differences():
    rng = np.random.default_rng(12)
    ref = 900.0 + rng.normal(scale=50.0, size=2000)
    alt = ref + rng.normal(scale=20.0, size=2000)
    report = bland_altman(ref, alt)
    assert report.gaussian_loa_ms == pytest.approx(1.96 * 20.0, rel=0.10)
    assert report.mean_diff_ms == pytest.approx(0.0, abs=2.0)


def test_bland_altman_zero_variance_r_is_nan():
    ref = np.full(5, 900.0)
    alt = np.full(5, 905.0)
    report = bland_altman(ref, alt)
    assert math.isnan(report.pearson_r)
    json.dumps(report.to_dict())  # NaN must not leak into the JSON
    assert report.to_dict()["pearson_r"] is None


def test_bland_altman_requires_pairs():
    with pytest.raises(ValueError):
        bland_altman(np.array([1.0]), np.array([1.0]))


def test_report_serialization_fixture():
    # published-style agreement numbers survive a JSON round-trip unchanged
    report = BlandAltmanReport(
        n=313,
        mean_abs_diff_ms=1.6,
        mean_diff_ms=0.0,
        gaussian_loa_ms=81.0,
        nonparametric_loa_ms=9.8,
        pearson_r=0.94,
        percentile_loa_ms=(-80.0, 80.0),
    )
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["mean_abs_diff_ms"] == 1.6
    assert back["gaussian_loa_ms"] == 81.0
    assert back["nonparametric_loa_ms"] == 9.8
    assert back["pearson_r"] == 0.94
