"""Two-regime growth fitting with a single change point.

A metric series is modeled as an exponential segment followed by a linear one
(or the reverse); every admissible split is scanned and both orderings fit on
each side, keeping the split with the least total squared error. Exponential
segments are fit by linear regression on log y, but every sum of squared
residuals is evaluated in the original y units so exponential and linear
candidates compete on the same footing. A two-segment model only wins if it
beats the best single-segment fit by a parsimony factor; otherwise the series
is classified as a single exponential or a single line.

detect_phase_change alone decides whether a series can be fitted: at least
2 * min_segment points, every y finite and positive, and a finite scale and
squared error for every fit it tries.
fit_columns fits metrics-table columns and names the column and month at
fault. PHASE_COLUMNS names the columns of phase_summary.csv, which
phase_summary_to_csv writes; ColumnFit.to_dict is the JSON record.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, ParameterError

DEFAULT_MIN_SEGMENT = 6
DEFAULT_PARSIMONY = 0.5

# The columns of phase_summary.csv after the metric name, in order.
PHASE_COLUMNS = (
    "pattern", "break_index", "break_date", "pre_trend", "post_trend", "total_sse", "note"
)


@dataclass(frozen=True)
class SeriesPoint:
    """One observation: x is a 1-based month index, y the metric value."""

    x: int
    y: float


class GrowthPattern(str, Enum):
    EXP_THEN_LINEAR = "exp_then_linear"
    LINEAR_THEN_EXP = "linear_then_exp"
    SINGLE_EXP = "single_exp"
    SINGLE_LINEAR = "single_linear"


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    sse: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def params(self) -> dict:
        return {"model": "linear", "slope": self.slope, "intercept": self.intercept, "sse": self.sse}


@dataclass(frozen=True)
class ExpFit:
    """y = scale * exp(rate * x); sse is measured in y space."""

    rate: float
    scale: float
    sse: float

    def predict(self, x: float) -> float:
        return self.scale * math.exp(self.rate * x)

    def params(self) -> dict:
        return {"model": "exponential", "rate": self.rate, "scale": self.scale, "sse": self.sse}


Segment = LinearFit | ExpFit


@dataclass(frozen=True)
class PhaseFit:
    """Selected growth model: one segment, or two segments split at breakpoint.

    breakpoint is the x of the last point in the first segment; None for
    single-segment patterns, where second_segment is None as well.
    """

    pattern: GrowthPattern
    breakpoint: int | None
    first_segment: Segment
    second_segment: Segment | None
    total_sse: float

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern.value,
            "breakpoint": self.breakpoint,
            "first_segment": self.first_segment.params(),
            "second_segment": self.second_segment.params() if self.second_segment else None,
            "total_sse": self.total_sse,
        }


def trend_label(segment: Segment | None) -> str:
    if segment is None:
        return "-"
    return "exponential growth" if isinstance(segment, ExpFit) else "linear growth"


def _xy(points: Sequence[SeriesPoint]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([p.x for p in points], dtype=float)
    y = np.array([p.y for p in points], dtype=float)
    return x, y


def fit_linear(points: Sequence[SeriesPoint]) -> LinearFit:
    """Ordinary least squares of y on x."""
    if len(points) < 2:
        raise InsufficientDataError(f"linear fit needs >= 2 points, got {len(points)}")
    x, y = _xy(points)
    slope, intercept = np.polyfit(x, y, 1)
    with np.errstate(over="ignore"):  # past float range, the sse is inf
        sse = float(np.sum((y - (slope * x + intercept)) ** 2))
    return LinearFit(slope=float(slope), intercept=float(intercept), sse=sse)


def fit_exponential(points: Sequence[SeriesPoint]) -> ExpFit:
    """Least squares of log y on x; the reported sse is recomputed in y space."""
    if len(points) < 2:
        raise InsufficientDataError(f"exponential fit needs >= 2 points, got {len(points)}")
    bad = next((p for p in points if p.y <= 0), None)
    if bad is not None:
        raise DomainError(_y_fault(bad.y, f"x={bad.x}"), bad)
    x, y = _xy(points)
    rate, log_scale = np.polyfit(x, np.log(y), 1)
    try:
        scale = math.exp(float(log_scale))
    except OverflowError:
        raise DomainError(
            f"scale e^{float(log_scale)!r} of the exponential fit, past float range"
        ) from None
    with np.errstate(over="ignore"):
        sse = float(np.sum((y - scale * np.exp(rate * x)) ** 2))
    return ExpFit(rate=float(rate), scale=scale, sse=sse)


def check_fit_params(min_segment: int, parsimony: float) -> None:
    """ParameterError unless min_segment >= 3 and parsimony is in (0, 1]."""
    if min_segment < 3:
        raise ParameterError(f"min_segment must be >= 3, got {min_segment}")
    if not 0 < parsimony <= 1:
        raise ParameterError(f"parsimony must be in (0, 1], got {parsimony}")


def detect_phase_change(
    points: Sequence[SeriesPoint],
    min_segment: int = DEFAULT_MIN_SEGMENT,
    parsimony: float = DEFAULT_PARSIMONY,
) -> PhaseFit:
    """Locate a single change point between exponential and linear regimes.

    Scans every split leaving at least min_segment points per side, fitting
    (exp | linear) and (linear | exp) at each; the least-total-sse candidate
    wins, with ties going to the earliest breakpoint and to the exp-first
    ordering. The two-segment winner is returned only when its total sse is
    below parsimony times the best single-segment sse.
    """
    check_fit_params(min_segment, parsimony)
    pts = list(points)
    n = len(pts)
    if n < 2 * min_segment:
        raise InsufficientDataError(f"{n} usable points, need >= {2 * min_segment}")
    for a, b in zip(pts, pts[1:]):
        if b.x <= a.x:
            raise ParameterError(f"x must be strictly increasing, got {a.x} then {b.x}")
    bad = next((p for p in pts if not 0 < p.y < math.inf), None)
    if bad is not None:
        raise DomainError(_y_fault(bad.y, f"x={bad.x}"), bad)

    best: tuple[float, GrowthPattern, int, Segment, Segment] | None = None
    for i in range(min_segment, n - min_segment + 1):
        seg1, seg2 = pts[:i], pts[i:]
        exp1 = fit_exponential(seg1)
        lin1 = fit_linear(seg1)
        exp2 = fit_exponential(seg2)
        lin2 = fit_linear(seg2)
        candidates = (
            (GrowthPattern.EXP_THEN_LINEAR, exp1, lin2),
            (GrowthPattern.LINEAR_THEN_EXP, lin1, exp2),
        )
        for pattern, first, second in candidates:
            total = first.sse + second.sse
            if best is None or total < best[0]:
                best = (total, pattern, pts[i - 1].x, first, second)

    single_lin = fit_linear(pts)
    single_exp = fit_exponential(pts)
    # Dust-level sse differences (for instance on a constant series, where both
    # models are exact) are ties, and ties go to the linear model.
    tie_eps = 1e-12 * sum(p.y * p.y for p in pts)
    if single_lin.sse <= single_exp.sse + tie_eps:
        single = PhaseFit(GrowthPattern.SINGLE_LINEAR, None, single_lin, None, single_lin.sse)
    else:
        single = PhaseFit(GrowthPattern.SINGLE_EXP, None, single_exp, None, single_exp.sse)
    # Every fit returned has a total sse at most the single fit's.
    if not math.isfinite(single.total_sse):
        raise DomainError(f"squared error {single.total_sse} of the fit, past float range")

    if best is not None and single.total_sse > tie_eps and best[0] < parsimony * single.total_sse:
        total, pattern, breakpoint, first, second = best
        return PhaseFit(pattern, breakpoint, first, second, total)
    return single


def _y_fault(y: float, where: str) -> str:
    if math.isfinite(y):
        return f"nonpositive value {y} at {where}; exponential fitting needs y > 0"
    return f"non-finite value {y} at {where}; fitting needs finite y"


def classify_transition(
    fit: PhaseFit, metric: str = "", dates: Sequence[str] | None = None
) -> str:
    """Render one summary row: pre-break trend, post-break trend, break date.

    The breakpoint is a 1-based position into the series' date column; when
    dates are supplied the position is mapped back to its YYYY-MM label.
    """
    prefix = f"{metric}: " if metric else ""
    when = "no break" if fit.breakpoint is None else f"break {_break_date(fit, dates)}"
    return f"{prefix}{trend_label(fit.first_segment)} | {trend_label(fit.second_segment)}, {when}"


def _break_date(fit: PhaseFit, dates: Sequence[str] | None) -> str | None:
    """The breakpoint's YYYY-MM in dates, or its position where dates do not reach it."""
    if fit.breakpoint is None:
        return None
    bp = fit.breakpoint
    return dates[bp - 1] if dates and 1 <= bp <= len(dates) else str(bp)


@dataclass(frozen=True)
class ColumnFit:
    """A metrics-table column's usable points, at their 1-based month
    positions in dates, and their phase fit; with fit None, the note says
    why the column was skipped."""

    metric: str
    dates: Sequence[str]
    points: list[SeriesPoint]
    fit: PhaseFit | None
    note: str = ""

    def to_dict(self) -> dict:
        """The column's record in report.json and fit_<metric>.json."""
        if self.fit is None:
            return {"metric": self.metric, "skipped": self.note}
        return {
            "metric": self.metric,
            "summary": classify_transition(self.fit, self.metric, self.dates),
            "breakpoint_date": _break_date(self.fit, self.dates),
            **self.fit.to_dict(),
        }

    def phase_row(self) -> tuple:
        """The column's phase_summary.csv row: the metric, then PHASE_COLUMNS."""
        fit = self.fit
        if fit is None:
            return (self.metric, *[""] * (len(PHASE_COLUMNS) - 1), self.note)
        post = trend_label(fit.second_segment) if fit.second_segment else ""
        return (self.metric, fit.pattern.value, fit.breakpoint, _break_date(fit, self.dates),
                trend_label(fit.first_segment), post, repr(fit.total_sse), "")


def fit_columns(
    dates: Sequence[str],
    columns: Mapping[str, Sequence[float | None]],
    exclude: Collection[str] = (),
    min_segment: int = DEFAULT_MIN_SEGMENT,
    parsimony: float = DEFAULT_PARSIMONY,
    skip: bool = False,
) -> list[ColumnFit]:
    """Phase fit of each column, over its non-None values outside exclude.

    A column that cannot be fitted raises its error, naming the column and any
    month at fault; with skip, its ColumnFit notes that error (a short column's
    note gives only its point count).
    """
    fits = []
    for metric, values in columns.items():
        points = [
            SeriesPoint(i + 1, v)
            for i, (date, v) in enumerate(zip(dates, values))
            if v is not None and date not in exclude
        ]
        try:
            fit = detect_phase_change(points, min_segment, parsimony)
        except InsufficientDataError as exc:
            note, error = str(exc), InsufficientDataError(f"column {metric} has {exc}")
        except DomainError as exc:
            bad = exc.point
            note = f"column {metric} has {_y_fault(bad.y, dates[bad.x - 1]) if bad else exc}"
            error = DomainError(note, bad)
        else:
            fits.append(ColumnFit(metric, dates, points, fit))
            continue
        if not skip:
            raise error
        fits.append(ColumnFit(metric, dates, points, None, note))
    return fits


def phase_summary_to_csv(fits: Sequence[ColumnFit]) -> str:
    """phase_summary.csv: a header, then one row per column; a note with a comma is quoted."""
    buf = io.StringIO()
    rows = [("metric", *PHASE_COLUMNS)] + [column.phase_row() for column in fits]
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
