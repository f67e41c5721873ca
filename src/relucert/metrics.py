"""Dataset-level robustness statistics: adversarial frequency, adversarial
severity, and the cumulative robustness curve."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class RobustnessStats:
    """Fraction of points with rho <= epsilon, and their mean rho.

    severity is None when no point falls below the threshold; +inf rho values
    (no adversarial example found) never count below but stay in the total.
    """

    epsilon: float
    frequency: float
    severity: float | None
    count_below: int
    total: int

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "frequency": self.frequency,
            "severity": self.severity,
            "count_below": self.count_below,
            "total": self.total,
        }


@dataclass(frozen=True)
class RobustnessCurve:
    """Cumulative count of points with rho <= epsilon, one point per distinct
    finite rho value; non-decreasing in both coordinates."""

    points: tuple[tuple[float, int], ...]

    def count_at(self, epsilon: float) -> int:
        values = [p[0] for p in self.points]
        idx = bisect_right(values, epsilon)
        return self.points[idx - 1][1] if idx else 0


def compute_stats(rhos, epsilon: float) -> RobustnessStats:
    rhos = list(rhos)
    if not rhos:
        raise ValueError("no records")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    below = [r for r in rhos if r <= epsilon]
    # the true mean of values in [0, epsilon] stays in that interval; clamp
    # away the final ulp of float summation so the invariant holds exactly
    severity = min(max(sum(below) / len(below), 0.0), epsilon) if below else None
    return RobustnessStats(
        epsilon=float(epsilon),
        frequency=len(below) / len(rhos),
        severity=severity,
        count_below=len(below),
        total=len(rhos),
    )


def compute_curve(rhos) -> RobustnessCurve:
    rhos = list(rhos)
    if not rhos:
        raise ValueError("no records")
    finite = sorted(r for r in rhos if math.isfinite(r))
    points = []
    for i, value in enumerate(finite, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, i)
        else:
            points.append((value, i))
    return RobustnessCurve(tuple(points))


def write_curve_csv(curve: RobustnessCurve, path) -> None:
    with open(path, "w") as fh:
        fh.write("epsilon,count\n")
        for epsilon, count in curve.points:
            fh.write(f"{epsilon!r},{count}\n")
