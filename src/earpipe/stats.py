"""Statistics for survey scores, band-power regressions and agreement.

P-values come from the t and F distributions evaluated through a
regularized incomplete beta function (modified Lentz continued
fraction), so results carry no dependency beyond numpy and are accurate
to about 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# --- incomplete beta machinery -------------------------------------------

_BETA_EPS = 1e-15
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_p_two_sided(t: float, df: float) -> float:
    """Two-sided p-value of a t statistic: t^2 follows F(1, df)."""
    return f_p_value(t * t, 1, df)


def f_p_value(f: float, df1: float, df2: float) -> float:
    """Upper-tail p-value of an F statistic."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0:
        return 1.0
    if not math.isfinite(f):
        return 0.0
    return betainc_reg(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# --- surveys ---------------------------------------------------------------

TLX_ITEMS = 6
TLX_ITEM_RANGE = (0.0, 21.0)
FLOW_ITEMS = 3
FLOW_ITEM_RANGE = (1.0, 7.0)


@dataclass(frozen=True)
class SurveyResponse:
    nasa_tlx: tuple
    flow: tuple

    def __post_init__(self):
        if len(self.nasa_tlx) != TLX_ITEMS:
            raise ValueError(f"expected {TLX_ITEMS} workload items, got {len(self.nasa_tlx)}")
        if len(self.flow) != FLOW_ITEMS:
            raise ValueError(f"expected {FLOW_ITEMS} flow items, got {len(self.flow)}")
        for v in self.nasa_tlx:
            if not TLX_ITEM_RANGE[0] <= v <= TLX_ITEM_RANGE[1]:
                raise ValueError(f"workload item {v} outside {TLX_ITEM_RANGE}")
        for v in self.flow:
            if not FLOW_ITEM_RANGE[0] <= v <= FLOW_ITEM_RANGE[1]:
                raise ValueError(f"flow item {v} outside {FLOW_ITEM_RANGE}")


def aggregate_survey(resp: SurveyResponse) -> tuple[float, float]:
    """(workload total, flow mean): items summed resp. mean-averaged."""
    return float(sum(resp.nasa_tlx)), float(sum(resp.flow) / FLOW_ITEMS)


def z_standardize(values, participants) -> np.ndarray:
    """Standardize values within each participant (sample SD, ddof=1)."""
    values = np.asarray(values, dtype=float)
    participants = np.asarray(participants)
    if values.shape != participants.shape:
        raise ValueError("values and participants must align")
    out = np.empty_like(values)
    for p in np.unique(participants):
        mask = participants == p
        group = values[mask]
        if len(group) < 2:
            raise ValueError(f"participant {p}: needs at least 2 values to standardize")
        sd = group.std(ddof=1)
        if sd == 0:
            raise ValueError(f"participant {p}: zero variance, cannot standardize")
        out[mask] = (group - group.mean()) / sd
    return out


# --- regression ------------------------------------------------------------


@dataclass
class RegressionFit:
    model: str
    names: tuple
    coef: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray
    p_values: np.ndarray
    r_squared: float
    df_resid: int
    n: int

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "r_squared": self.r_squared,
            "df_resid": self.df_resid,
            "coefficients": [
                {
                    "name": self.names[i],
                    "estimate": float(self.coef[i]),
                    "se": float(self.se[i]),
                    "t": float(self.t_stat[i]),
                    "p": float(self.p_values[i]),
                }
                for i in range(len(self.names))
            ],
        }


def _t_test(estimate: float, se: float, df: int) -> tuple[float, float]:
    """t and two-sided p of estimate / se. With no spread (se = 0, or a NaN
    se from non-finite data) a zero estimate gives t = 0, p = 1 and any
    other gives t = +-inf, p = 0."""
    if se > 0:
        t = estimate / se
    else:
        t = 0.0 if estimate == 0 else math.copysign(math.inf, estimate)
    return t, t_p_two_sided(t, df)


def _checked_xy(x, y, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays: 1-D, of equal length, at least min_n long."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    if len(x) < min_n:
        raise ValueError(f"need at least {min_n} points, got {len(x)}")
    return x, y


def _residual_df(n: int, n_coef: int, absorbed: int) -> int:
    """The residual df of n points less n_coef coefficients and `absorbed`
    means taken out before the fit; a ValueError when none is left."""
    df = n - n_coef - absorbed
    if df < 1:
        raise ValueError(f"{n} points leave no residual degrees of freedom after "
                         f"{n_coef} coefficients and {absorbed} absorbed means")
    return df


def _fit_summary(model, names, coef, se, y, resid, df: int) -> RegressionFit:
    """The RegressionFit of a least-squares fit: each coefficient's t and p
    on the residual df and r^2 (1 when y is constant)."""
    n = len(y)
    rss = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    tests = [_t_test(c, s, df) for c, s in zip(coef, se)]
    return RegressionFit(
        model=model,
        names=names,
        coef=np.asarray(coef, dtype=float),
        se=np.asarray(se, dtype=float),
        t_stat=np.array([t for t, _ in tests]),
        p_values=np.array([p for _, p in tests]),
        r_squared=1.0 - rss / sst if sst > 0 else 1.0,
        df_resid=df,
        n=n,
    )


def fit_linear(x, y, absorbed: int = 0) -> RegressionFit:
    """Ordinary least squares y = a + b*x with t-based p-values.

    absorbed counts the group means that centering took out of x and y
    before the fit, beyond the one the intercept stands for; each costs
    the residual variance one degree of freedom.
    """
    x, y = _checked_xy(x, y, 3)
    n = len(x)
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0:
        raise ValueError("x has zero variance")
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xm)
    resid = y - (intercept + slope * x)
    df = _residual_df(n, 2, absorbed)
    s2 = float(resid @ resid) / df
    se = [math.sqrt(s2 * (1.0 / n + xm * xm / sxx)), math.sqrt(s2 / sxx)]
    return _fit_summary("linear", ("intercept", "slope"), [intercept, slope], se, y, resid, df)


def orthogonal_poly_basis(x: np.ndarray) -> np.ndarray:
    """Constant/linear/quadratic basis, mutually orthogonal in the sample
    inner product: p0 = 1, p1 = x - mean, p2 = Gram-Schmidt of (x - mean)^2."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    p0 = np.ones(n)
    p1 = x - x.mean()
    q = p1 * p1
    c0 = float(q @ p0) / n
    p1_ss = float(p1 @ p1)
    if p1_ss == 0:
        raise ValueError("x has zero variance")
    c1 = float(q @ p1) / p1_ss
    p2 = q - c0 - c1 * p1
    return np.stack([p0, p1, p2], axis=1)


def fit_quadratic_orthogonal(x, y, absorbed: int = 0) -> RegressionFit:
    """Least squares on the orthogonal polynomial basis of degree 2.

    Because the regressors are orthogonal, the linear coefficient is
    fit_linear's slope exactly. A ValueError when x takes fewer than
    three distinct values. absorbed is fit_linear's.
    """
    x, y = _checked_xy(x, y, 4)
    basis = orthogonal_poly_basis(x)
    ss = np.einsum("ij,ij->j", basis, basis)
    # x with two distinct values leaves the quadratic column zero up to
    # round-off, a norm about 1e-16 of the linear column's squared norm;
    # at 1e-9 of it or below the quadratic term is not identified
    if math.sqrt(ss[2]) <= 1e-9 * ss[1]:
        raise ValueError("x takes two distinct values; the quadratic term is not identified")
    coef = (basis.T @ y) / ss
    resid = y - basis @ coef
    df = _residual_df(len(x), 3, absorbed)
    s2 = float(resid @ resid) / df
    return _fit_summary("orthogonal-poly-2", ("intercept", "linear", "quadratic"), coef,
                        np.sqrt(s2 / ss), y, resid, df)


# --- condition contrasts ----------------------------------------------------


@dataclass
class ContrastTable:
    conditions: tuple
    omnibus_f: float
    omnibus_p: float
    df1: int
    df2: int
    rows: list  # (cond_a, cond_b, n, mean_diff, t, p_raw, p_adjusted)
    balanced: bool

    def to_dict(self) -> dict:
        return {
            "conditions": list(self.conditions),
            "omnibus": {
                "f": self.omnibus_f,
                "p": self.omnibus_p,
                "df1": self.df1,
                "df2": self.df2,
            },
            "balanced": self.balanced,
            "pairs": [
                {
                    "a": a,
                    "b": b,
                    "n": n,
                    "mean_diff": d,
                    "t": t,
                    "p_raw": p,
                    "p_adjusted": padj,
                }
                for (a, b, n, d, t, p, padj) in self.rows
            ],
        }


def pairwise_contrasts(cells: dict) -> ContrastTable:
    """Condition comparisons after within-participant centering.

    cells maps (participant, condition) to a value. The omnibus F compares
    condition means on centered data with participant degrees of freedom
    removed; each condition pair gets a paired t-test over participants
    holding both conditions, Bonferroni-adjusted as min(1, m * p).
    """
    agg = {key: float(v) for key, v in cells.items()}
    participants = sorted({p for p, _ in agg})
    conditions = sorted({c for _, c in agg})
    if len(conditions) < 2:
        raise ValueError("need at least two conditions")
    if len(participants) < 2:
        raise ValueError("need at least two participants")
    balanced = all((p, c) in agg for p in participants for c in conditions)

    # center within participant, then one-way F across conditions
    centered: dict[tuple, float] = {}
    for p in participants:
        vals = [agg[(p, c)] for c in conditions if (p, c) in agg]
        m = float(np.mean(vals))
        for c in conditions:
            if (p, c) in agg:
                centered[(p, c)] = agg[(p, c)] - m
    groups = [
        np.array([centered[(p, c)] for p in participants if (p, c) in centered])
        for c in conditions
    ]
    n_total = sum(len(g) for g in groups)
    grand = np.concatenate(groups).mean()
    ss_cond = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ss_resid = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    df1 = len(conditions) - 1
    df2 = n_total - len(conditions) - (len(participants) - 1)
    if df2 < 1:
        raise ValueError("not enough observations for the omnibus test")
    ms_cond = ss_cond / df1
    ms_resid = ss_resid / df2
    f = float(ms_cond / ms_resid) if ms_resid > 0 else (0.0 if ms_cond == 0 else math.inf)
    p_omnibus = f_p_value(f, df1, df2)

    rows = []
    for i, a in enumerate(conditions):
        for b in conditions[i + 1 :]:
            diffs = np.array([agg[(p, a)] - agg[(p, b)] for p in participants
                              if (p, a) in agg and (p, b) in agg])
            n = len(diffs)
            if n < 2:
                rows.append((a, b, n, math.nan, math.nan, math.nan))
                continue
            mean = float(diffs.mean())
            se = float(diffs.std(ddof=1)) / math.sqrt(n)
            rows.append((a, b, n, mean, *_t_test(mean, se, n - 1)))
    adjusted = bonferroni([row[5] for row in rows])
    return ContrastTable(
        conditions=tuple(conditions),
        omnibus_f=f,
        omnibus_p=p_omnibus,
        df1=df1,
        df2=df2,
        rows=[(*row, float(p)) for row, p in zip(rows, adjusted)],
        balanced=balanced,
    )


def bonferroni(p_values) -> np.ndarray:
    """min(1, m * p) for each of the m raw p-values."""
    p = np.asarray(p_values, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    return np.minimum(1.0, len(p) * p)


# --- agreement ---------------------------------------------------------------


@dataclass
class BlandAltmanReport:
    n: int
    mean_abs_diff_ms: float
    mean_diff_ms: float
    gaussian_loa_ms: float
    nonparametric_loa_ms: float
    pearson_r: float  # nan when undefined (zero variance)
    percentile_loa_ms: tuple

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_abs_diff_ms": self.mean_abs_diff_ms,
            "mean_diff_ms": self.mean_diff_ms,
            "gaussian_loa_ms": self.gaussian_loa_ms,
            "nonparametric_loa_ms": self.nonparametric_loa_ms,
            "pearson_r": None if math.isnan(self.pearson_r) else self.pearson_r,
            "percentile_loa_ms": list(self.percentile_loa_ms),
        }


def bland_altman(ref, alt) -> BlandAltmanReport:
    """Agreement statistics between two paired series (e.g. R-R in ms).

    Differences are alt - ref. The Gaussian limit of agreement is
    1.96 * SD(d) (sample SD); the non-parametric analogue is 1.96 * IQR(d).
    A conventional central-95% band of d is reported separately as
    percentile_loa_ms. Pearson r is NaN (serialized null) when either
    series has zero variance; identical inputs give exactly (0, 0, 0, 1).
    """
    ref = np.asarray(ref, dtype=float)
    alt = np.asarray(alt, dtype=float)
    if ref.shape != alt.shape or ref.ndim != 1:
        raise ValueError("ref and alt must be equal-length 1-D arrays")
    n = len(ref)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = alt - ref
    mean_abs = float(np.mean(np.abs(d)))
    mean_d = float(d.mean())
    sd = float(d.std(ddof=1))
    q25, q75 = np.percentile(d, [25.0, 75.0])
    iqr = float(q75 - q25)
    p025, p975 = np.percentile(d, [2.5, 97.5])
    if np.array_equal(ref, alt):
        r = 1.0
    else:
        sr = ref.std(ddof=0)
        sa = alt.std(ddof=0)
        if sr == 0 or sa == 0:
            r = math.nan
        else:
            r = float(np.mean((ref - ref.mean()) * (alt - alt.mean())) / (sr * sa))
    return BlandAltmanReport(
        n=n,
        mean_abs_diff_ms=mean_abs,
        mean_diff_ms=mean_d,
        gaussian_loa_ms=1.96 * sd,
        nonparametric_loa_ms=1.96 * iqr,
        pearson_r=r,
        percentile_loa_ms=(float(p025), float(p975)),
    )
