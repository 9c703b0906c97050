import math
import random
import re
import warnings

import pytest

from astopo import phasefit
from astopo import (
    DomainError,
    ExpFit,
    GrowthPattern,
    InsufficientDataError,
    LinearFit,
    ParameterError,
    SeriesPoint,
    classify_transition,
    detect_phase_change,
    fit_exponential,
    fit_linear,
)


def pts(xs, ys):
    return [SeriesPoint(x, y) for x, y in zip(xs, ys)]


def linear_series(slope, xs, intercept=0.0):
    return pts(xs, [slope * x + intercept for x in xs])


def exp_series(rate, xs, scale=1.0):
    return pts(xs, [scale * math.exp(rate * x) for x in xs])


def test_fit_linear_recovers_217x():
    fit = fit_linear(linear_series(217.0, range(1, 11)))
    assert fit.slope == pytest.approx(217.0, abs=1e-9)
    assert fit.sse == pytest.approx(0.0, abs=1e-12)


def test_fit_linear_recovers_7_4x():
    fit = fit_linear(linear_series(7.4, range(1, 41)))
    assert fit.slope == pytest.approx(7.4, abs=1e-9)


def test_fit_linear_constant_series():
    fit = fit_linear(pts(range(1, 11), [5.0] * 10))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(5.0, abs=1e-12)


def test_fit_linear_needs_two_points():
    with pytest.raises(InsufficientDataError):
        fit_linear([SeriesPoint(1, 2.0)])


def test_fit_exponential_recovers_0035():
    fit = fit_exponential(exp_series(0.035, range(1, 42)))
    assert fit.rate == pytest.approx(0.035, abs=1e-9)
    assert fit.scale == pytest.approx(1.0, rel=1e-9)


def test_fit_exponential_recovers_0056():
    fit = fit_exponential(exp_series(0.056, range(1, 42)))
    assert fit.rate == pytest.approx(0.056, abs=1e-9)


def test_fit_exponential_under_multiplicative_noise():
    rng = random.Random(8)
    series = [
        SeriesPoint(x, 2.0 * math.exp(0.1 * x) * (1 + 0.01 * rng.gauss(0, 1)))
        for x in range(1, 51)
    ]
    fit = fit_exponential(series)
    assert fit.rate == pytest.approx(0.1, abs=0.01)
    assert fit.scale == pytest.approx(2.0, rel=0.1)


def test_fit_exponential_domain_and_arity_errors():
    with pytest.raises(DomainError):
        fit_exponential(pts([1, 2, 3], [1.0, 0.0, 2.0]))
    with pytest.raises(InsufficientDataError):
        fit_exponential([SeriesPoint(1, 2.0)])


def test_exp_sse_is_in_y_space():
    series = pts([1, 2, 3, 4], [1.0, 2.0, 8.0, 10.0])
    fit = fit_exponential(series)
    expected = sum((p.y - fit.scale * math.exp(fit.rate * p.x)) ** 2 for p in series)
    assert fit.sse == pytest.approx(expected, rel=1e-12)


def planted_exp_then_linear(rate=0.05, b=60, n=120, slope_mult=3.0, noise=0.0, seed=0):
    rng = random.Random(seed)
    y_b = math.exp(rate * b)
    slope = slope_mult * rate * y_b
    out = []
    for x in range(1, n + 1):
        y = math.exp(rate * x) if x <= b else y_b + slope * (x - b)
        if noise:
            y *= 1 + noise * rng.gauss(0, 1)
        out.append(SeriesPoint(x, y))
    return out


def planted_linear_then_exp(slope=7.4, b=90, n=130, rate=0.1, noise=0.0, seed=0):
    rng = random.Random(seed + 999)
    y_b = slope * b
    out = []
    for x in range(1, n + 1):
        y = slope * x if x <= b else y_b * math.exp(rate * (x - b))
        if noise:
            y *= 1 + noise * rng.gauss(0, 1)
        out.append(SeriesPoint(x, y))
    return out


def test_detect_exp_then_linear_noiseless():
    fit = detect_phase_change(planted_exp_then_linear(), min_segment=6)
    assert fit.pattern == GrowthPattern.EXP_THEN_LINEAR
    assert abs(fit.breakpoint - 60) <= 1
    assert isinstance(fit.first_segment, ExpFit)
    assert fit.first_segment.rate == pytest.approx(0.05, rel=1e-6)
    assert isinstance(fit.second_segment, LinearFit)
    expected_slope = 3.0 * 0.05 * math.exp(0.05 * 60)
    assert fit.second_segment.slope == pytest.approx(expected_slope, rel=1e-6)


def test_detect_linear_then_exp_noiseless():
    fit = detect_phase_change(planted_linear_then_exp(), min_segment=6)
    assert fit.pattern == GrowthPattern.LINEAR_THEN_EXP
    assert abs(fit.breakpoint - 90) <= 1
    assert fit.first_segment.slope == pytest.approx(7.4, rel=1e-6)
    assert fit.second_segment.rate == pytest.approx(0.1, rel=1e-6)


def test_detect_tangent_matched_junction_noiseless():
    # the line continues along the exponential's tangent, so the junction is smooth
    rate, b = 0.035, 41
    y_b = math.exp(rate * b)
    series = pts(
        range(1, 121),
        [math.exp(rate * x) if x <= b else y_b + rate * y_b * (x - b) for x in range(1, 121)],
    )
    fit = detect_phase_change(series, min_segment=6)
    assert fit.pattern == GrowthPattern.EXP_THEN_LINEAR
    assert abs(fit.breakpoint - b) <= 1


def test_detect_single_linear():
    fit = detect_phase_change(linear_series(3.0, range(1, 31), intercept=1.0), min_segment=6)
    assert fit.pattern == GrowthPattern.SINGLE_LINEAR
    assert fit.breakpoint is None and fit.second_segment is None
    assert fit.first_segment.slope == pytest.approx(3.0, rel=1e-9)


def test_detect_single_exp():
    fit = detect_phase_change(exp_series(0.08, range(1, 31), scale=2.0), min_segment=6)
    assert fit.pattern == GrowthPattern.SINGLE_EXP
    assert fit.first_segment.rate == pytest.approx(0.08, rel=1e-9)


def test_detect_validation_errors():
    series = linear_series(1.0, range(1, 31))
    with pytest.raises(InsufficientDataError):
        detect_phase_change(series[:10], min_segment=6)
    with pytest.raises(ParameterError):
        detect_phase_change(series, min_segment=2)
    with pytest.raises(DomainError):
        detect_phase_change(pts(range(1, 31), [1.0] * 15 + [0.0] + [1.0] * 14), min_segment=6)
    with pytest.raises(ParameterError):
        detect_phase_change(pts([1, 3, 2] + list(range(4, 31)), range(1, 31)), min_segment=6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detect_rejects_non_finite_y(bad):
    ys = [float(x) for x in range(1, 31)]
    ys[15] = bad
    with pytest.raises(DomainError, match="non-finite value") as info:
        detect_phase_change(pts(range(1, 31), ys), min_segment=6)
    assert info.value.point.x == 16


def test_detect_rejects_squared_error_past_float_range_without_warning():
    series = pts(range(1, 31), [1e200 * x * x for x in range(1, 31)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="past float range"):
            detect_phase_change(series, min_segment=6)


def test_fit_columns_names_the_column_and_month_at_fault():
    dates = [f"{2001 + i // 12}-{i % 12 + 1:02d}" for i in range(30)]
    rho = [float(x) for x in range(1, 31)]
    rho[4] = -0.5
    columns = {"rho": rho, "C": [None] * 30}
    skipped, short = phasefit.fit_columns(dates, columns, skip=True)
    assert (skipped.fit, short.fit) == (None, None)
    assert skipped.note == (
        "column rho has nonpositive value -0.5 at 2001-05; exponential fitting needs y > 0"
    )
    assert short.note == "0 usable points, need >= 12"
    with pytest.raises(DomainError, match=f"^{re.escape(skipped.note)}$"):
        phasefit.fit_columns(dates, columns)
    with pytest.raises(InsufficientDataError, match="^column C has 0 usable points, need >= 12$"):
        phasefit.fit_columns(dates, {"C": columns["C"]})


def test_fit_columns_maps_the_break_to_its_month():
    dates = [f"{1997 + i // 12}-{i % 12 + 1:02d}" for i in range(120)]
    series = planted_exp_then_linear(noise=0.01, seed=7)
    [column] = phasefit.fit_columns(dates, {"N": [p.y for p in series]}, exclude={dates[0]})
    assert [p.x for p in column.points] == list(range(2, 121))
    record = column.to_dict()
    assert record["breakpoint_date"] == dates[column.fit.breakpoint - 1]
    assert record["summary"].endswith(f"break {record['breakpoint_date']}")


def test_total_sse_is_minimal_over_the_scan():
    series = planted_exp_then_linear(noise=0.01, seed=7)
    fit = detect_phase_change(series, min_segment=6)
    for i in range(6, len(series) - 6 + 1):
        seg1, seg2 = series[:i], series[i:]
        for first, second in (
            (fit_exponential(seg1), fit_linear(seg2)),
            (fit_linear(seg1), fit_exponential(seg2)),
        ):
            assert fit.total_sse <= first.sse + second.sse + 1e-9


def test_scale_equivariance():
    series = planted_exp_then_linear(noise=0.01, seed=3)
    lam = 37.5
    scaled = [SeriesPoint(p.x, lam * p.y) for p in series]
    base = detect_phase_change(series, min_segment=6)
    other = detect_phase_change(scaled, min_segment=6)
    assert other.pattern == base.pattern
    assert other.breakpoint == base.breakpoint
    assert other.first_segment.rate == pytest.approx(base.first_segment.rate, rel=1e-9)
    assert other.first_segment.scale == pytest.approx(lam * base.first_segment.scale, rel=1e-9)
    assert other.second_segment.slope == pytest.approx(lam * base.second_segment.slope, rel=1e-9)


def test_index_shift_equivariance():
    series = planted_exp_then_linear(noise=0.01, seed=4)
    shift = 7
    shifted = [SeriesPoint(p.x + shift, p.y) for p in series]
    base = detect_phase_change(series, min_segment=6)
    other = detect_phase_change(shifted, min_segment=6)
    assert other.pattern == base.pattern
    assert other.breakpoint == base.breakpoint + shift
    assert other.first_segment.rate == pytest.approx(base.first_segment.rate, rel=1e-9)
    assert other.second_segment.slope == pytest.approx(base.second_segment.slope, rel=1e-9)


def test_classify_transition_rows():
    dates = [f"{1997 + (i - 1) // 12}-{(i - 1) % 12 + 1:02d}" for i in range(1, 121)]
    fit = detect_phase_change(planted_exp_then_linear(b=53, n=120), min_segment=6)
    row = classify_transition(fit, metric="N", dates=dates)
    assert row.startswith("N: exponential growth | linear growth, break ")
    assert dates[fit.breakpoint - 1] in row

    single = detect_phase_change(linear_series(2.0, range(1, 31)), min_segment=6)
    assert classify_transition(single) == "linear growth | -, no break"

    flipped = detect_phase_change(planted_linear_then_exp(b=50, n=100), min_segment=6)
    row = classify_transition(flipped, metric="N", dates=dates[:100])
    assert "linear growth | exponential growth, break " in row


def test_phasefit_serialization():
    fit = detect_phase_change(planted_exp_then_linear(), min_segment=6)
    d = fit.to_dict()
    assert d["pattern"] == "exp_then_linear"
    assert d["first_segment"]["model"] == "exponential"
    assert d["second_segment"]["model"] == "linear"
    assert d["total_sse"] == pytest.approx(fit.first_segment.sse + fit.second_segment.sse)
