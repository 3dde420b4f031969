"""Circuit-capacity bounds and drift comparison.

A capacity curve composes per-cycle (or per-gate) infidelities
multiplicatively over the hard cycles of N Trotter steps:

    bound(N) = 1 - prod(1 - e_i)  over the N-fold repeated step sequence.

Zero means the circuit matches its ideal; values climbing toward one mean the
output is dominated by noise, with 0.5 the usual qualitative cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .bench import InfidelityEstimate

QUALITY_THRESHOLD = 0.5


class QcapError(ValueError):
    pass


@dataclass(frozen=True)
class QcapCurve:
    source: str  # "CB" | "RB"
    steps: tuple[int, ...]
    bound: tuple[float, ...]
    sigma: tuple[float, ...]
    variant: str | None = None
    layout: int | None = None

    def __post_init__(self):
        if len(self.steps) != len(self.bound) or len(self.steps) != len(self.sigma):
            raise QcapError("steps, bound and sigma must have equal length")
        if any(b < -1e-12 or b > 1 + 1e-12 for b in self.bound):
            raise QcapError("bounds must lie in [0, 1]")

    def first_step_above(self, threshold: float = QUALITY_THRESHOLD) -> int | None:
        for n, b in zip(self.steps, self.bound):
            if b > threshold:
                return n
        return None


def _compose(per_step: Sequence[tuple[float, float]], steps: Sequence[int], source: str,
             variant: str | None, layout: int | None) -> QcapCurve:
    """Multiplicative composition with first-order error propagation.

    ``per_step`` lists (infidelity, sigma) for every factor in one step.
    Factors with identical (infidelity, sigma) are treated as repeats of one
    underlying estimate, i.e. fully correlated, when propagating sigma.
    """
    for e, _ in per_step:
        if not 0 <= e <= 1:
            raise QcapError(f"infidelity {e} outside [0, 1]")
    grouped: dict[tuple[float, float], int] = {}
    for factor in per_step:
        grouped[factor] = grouped.get(factor, 0) + 1
    bounds, sigmas = [], []
    for n in steps:
        if n < 0:
            raise QcapError("step counts must be non-negative")
        log_prod = 0.0
        zero_factor = False
        for (e, _), count in grouped.items():
            if e >= 1.0:
                zero_factor = True
            else:
                log_prod += count * n * math.log1p(-e)
        if n == 0:
            prod = 1.0
        elif zero_factor:
            prod = 0.0
        else:
            prod = math.exp(log_prod)
        var = 0.0
        if prod > 0 and n > 0:
            for (e, s), count in grouped.items():
                if e >= 1.0:
                    continue
                # d(1 - prod)/d e = count * n * prod / (1 - e)
                var += (count * n * prod / (1.0 - e)) ** 2 * s**2
        bounds.append(min(1.0, max(0.0, 1.0 - prod)))
        sigmas.append(math.sqrt(var))
    return QcapCurve(source=source, steps=tuple(int(n) for n in steps), bound=tuple(bounds),
                     sigma=tuple(sigmas), variant=variant, layout=layout)


def qcap_rb_curve(
    cnot_error_rates: Sequence[float],
    d: int,
    steps: Sequence[int],
    variant: str | None = None,
    layout: int | None = None,
    rate_sigmas: Sequence[float] | None = None,
    rates_are_infidelities: bool = False,
) -> QcapCurve:
    """Capacity bound from per-CNOT error rates, one rate per CNOT per step.

    Raw RB error rates are converted to per-gate infidelities by (d+1)/d
    first; pass ``rates_are_infidelities=True`` when the inputs are already
    process infidelities (the backend-table convention question), in which
    case the factors are used as given.
    """
    if d < 2 or (d & (d - 1)) != 0:
        raise QcapError(f"dimension {d} is not a power of two")
    if rate_sigmas is None:
        rate_sigmas = [0.0] * len(cnot_error_rates)
    if len(rate_sigmas) != len(cnot_error_rates):
        raise QcapError(f"{len(cnot_error_rates)} rates but {len(rate_sigmas)} sigmas")
    scale = 1.0 if rates_are_infidelities else (d + 1) / d
    per_step = []
    for r, s in zip(cnot_error_rates, rate_sigmas):
        if not 0 <= r <= 1:
            raise QcapError(f"error rate {r} outside [0, 1]")
        per_step.append((scale * r, scale * s))
    return _compose(per_step, steps, "RB", variant, layout)


def qcap_cb_curve(
    cycle_estimates: Mapping[object, InfidelityEstimate],
    step_cycle_sequence: Sequence[object],
    steps: Sequence[int],
    variant: str | None = None,
    layout: int | None = None,
) -> QcapCurve:
    """Capacity bound from dressed-cycle infidelities.

    ``step_cycle_sequence`` names the hard cycles of one step in time order;
    every entry must have an estimate.
    """
    per_step = []
    for key in step_cycle_sequence:
        if key not in cycle_estimates:
            raise QcapError(f"missing estimate for cycle {key!r}")
        est = cycle_estimates[key]
        per_step.append((est.infidelity, est.sigma))
    return _compose(per_step, steps, "CB", variant, layout)


def compare_estimates(a, b, k: float = 1.0):
    """Flag drift where |a - b| > k * (sigma_a + sigma_b).

    Two estimates give one verdict; two curves give one verdict per step.
    """

    def verdict(x, sx, y, sy):
        return "drift-detected" if abs(x - y) > k * (sx + sy) else "consistent"

    if isinstance(a, InfidelityEstimate) and isinstance(b, InfidelityEstimate):
        return verdict(a.infidelity, a.sigma, b.infidelity, b.sigma)
    if isinstance(a, QcapCurve) and isinstance(b, QcapCurve):
        if a.steps != b.steps:
            raise QcapError("curves are on different step grids")
        return [
            verdict(xa, sa, xb, sb)
            for xa, sa, xb, sb in zip(a.bound, a.sigma, b.bound, b.sigma)
        ]
    raise QcapError("compare_estimates needs two estimates or two curves")
