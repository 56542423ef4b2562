"""Logistic-map amplification of a small |1⟩-population.

The detector iterates x' = a·x·(1-x) (default a = 3.71) on the result
qubit's |1⟩-probability. A strictly positive seed is driven above 1/2 within
a window that is linear in n, while an exactly zero seed stays at zero
forever — that dichotomy converts an exponentially small q² = r/2^n into a
one-bit decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import DEFAULT_LOGISTIC_A, DEFAULT_THRESHOLD, INTEGRALITY_ATOL


@dataclass(frozen=True)
class LogisticParams:
    a: float = DEFAULT_LOGISTIC_A
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.a <= 4.0:
            raise ValueError(f"logistic parameter must be in (0, 4], got {self.a}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")


def logistic_step(x: float, a: float = DEFAULT_LOGISTIC_A) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"logistic map input must be in [0, 1], got {x}")
    return a * x * (1.0 - x)


def iteration_window(n: int) -> int:
    """Maximum number of amplifications the detector will run for n variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (5 * (n - 1)) // 4 + 1


def snap_dyadic(weight: float, num_vars: int) -> tuple[float, int]:
    """Round a result-qubit weight to the nearest r/2^n and return (value, r).

    Pipeline weights are model fractions, so a weight·2^n farther than
    ``INTEGRALITY_ATOL`` from an integer is an arithmetic bug, not data.
    Bitwise zero stays bitwise zero so the unsatisfiable dichotomy survives
    the rounding.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    scaled = weight * (1 << num_vars)
    r = round(scaled)
    if abs(scaled - r) > INTEGRALITY_ATOL:
        raise ArithmeticError(
            f"weight {weight!r} is not close to a multiple of 2^-{num_vars}"
        )
    if weight == 0.0:
        return 0.0, 0
    return r / (1 << num_vars), r


def k_bounds(n: int, r: int, a: float = DEFAULT_LOGISTIC_A) -> tuple[int, int]:
    """Crossing-index window (k_low, k_high) claimed for a seed of r/2^n.

    k_low = floor((n-1-log2 r)/(log2 a - 1)), clamped at 0;
    k_high = floor(5(n-1)/4). Undefined for r = 0 (nothing ever crosses).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 1:
        raise ValueError("bounds are undefined for r = 0 (no crossing exists)")
    if r > (1 << n):
        raise ValueError(f"r = {r} exceeds 2^{n}")
    denom = math.log2(a) - 1.0
    k_low = max(0, math.floor((n - 1 - math.log2(r)) / denom))
    k_high = (5 * (n - 1)) // 4
    return k_low, k_high


@dataclass(frozen=True)
class AmplifierTrace:
    """Everything the detector saw: the orbit, the verdict, and the window."""

    x: tuple[float, ...]              # x_0 .. x_K, stopping at the first crossing
    first_crossing: int | None        # k* with x_{k*} > threshold, or None
    decision: str                     # SAT | UNSAT | INCONCLUSIVE
    bounds: tuple[int, int] | None    # (k_low, k_high), None when the seed is 0
    params: LogisticParams = field(default=LogisticParams(), compare=False)

    def to_csv(self) -> str:
        lines = ["k,x_k,crossed"]
        for k, xk in enumerate(self.x):
            crossed = int(self.first_crossing is not None and k == self.first_crossing)
            lines.append(f"{k},{xk!r},{crossed}")
        return "\n".join(lines) + "\n"


def amplify_detect(q_squared: float, n: int,
                   params: LogisticParams = LogisticParams()) -> AmplifierTrace:
    """Iterate from x_0 = q² until the threshold is crossed or the window ends.

    An exactly zero seed is absorbed (every iterate is bitwise 0.0): UNSAT.
    A crossing within the window is SAT. A positive seed that never crosses is
    INCONCLUSIVE — impossible for seeds of the form r/2^n with r >= 1, but
    reported honestly for arbitrary seeds. The window is used whole; the
    claimed (k_low, k_high) is attached for reporting, never enforced.
    """
    if not 0.0 <= q_squared <= 1.0:
        raise ValueError(f"q² must be in [0, 1], got {q_squared}")
    window = iteration_window(n)
    r_estimate = round(q_squared * (1 << n))  # exact for pipeline seeds
    bounds = k_bounds(n, r_estimate, params.a) if r_estimate >= 1 else None

    xs = [q_squared]
    first_crossing = None
    if q_squared > params.threshold:
        first_crossing = 0
    else:
        for _ in range(window):
            xs.append(logistic_step(xs[-1], params.a))
            if xs[-1] > params.threshold:
                first_crossing = len(xs) - 1
                break

    if first_crossing is not None:
        decision = "SAT"
    elif q_squared == 0.0:
        decision = "UNSAT"
    else:
        decision = "INCONCLUSIVE"
    return AmplifierTrace(tuple(xs), first_crossing, decision, bounds, params)


@dataclass(frozen=True)
class CrossingRow:
    """One row of the bound sweep: observed crossing vs. claimed window."""

    n: int
    r: int
    x0: float
    first_crossing: int | None
    k_low: int
    k_high: int

    @property
    def exists_within_2n(self) -> bool:
        return self.first_crossing is not None and self.first_crossing <= 2 * self.n

    @property
    def within_upper(self) -> bool:
        return self.first_crossing is not None and self.first_crossing <= self.k_high

    @property
    def meets_lower(self) -> bool:
        return self.first_crossing is not None and self.first_crossing >= self.k_low


def sweep_crossing_bounds(n_values, r_values=None,
                          params: LogisticParams = LogisticParams()) -> list[CrossingRow]:
    """First crossings from x_0 = r/2^n, checked against the claimed window.

    By default r = 1 (the hardest seed). The iteration here is deliberately
    plain — a direct while-loop on the map — so it can serve as the oracle for
    everything else that claims a crossing index.
    """
    rows = []
    for n in n_values:
        for r in (r_values or (1,)):
            if r >= (1 << n):
                continue
            x = r / (1 << n)
            x0 = x
            k = 0
            limit = 4 * n + 64  # generous; crossings appear well under 2n
            while x <= params.threshold and k <= limit:
                x = logistic_step(x, params.a)
                k += 1
            crossing = k if x > params.threshold else None
            k_low, k_high = k_bounds(n, r, params.a)
            rows.append(CrossingRow(n, r, x0, crossing, k_low, k_high))
    return rows
