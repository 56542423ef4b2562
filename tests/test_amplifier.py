import math
from fractions import Fraction

import pytest

from satchaos.amplifier import (
    CrossingRow,
    LogisticParams,
    amplify_detect,
    iteration_window,
    k_bounds,
    logistic_step,
    snap_dyadic,
    sweep_crossing_bounds,
)

# Values frozen from direct decimal arithmetic before the module existed.
EIGHTH_TRACE = (0.125, 0.40578125, 0.8945656887207031)


def test_params_validation():
    with pytest.raises(ValueError):
        LogisticParams(a=4.5)
    with pytest.raises(ValueError):
        LogisticParams(a=0.0)
    with pytest.raises(ValueError):
        LogisticParams(threshold=1.0)
    params = LogisticParams()
    assert params.a == 3.71 and params.threshold == 0.5


def test_logistic_step():
    assert logistic_step(0.125) == 0.40578125
    assert logistic_step(0.0) == 0.0
    with pytest.raises(ValueError):
        logistic_step(1.5)


def test_frozen_trajectory_from_one_eighth():
    assert amplify_detect(0.125, 3).x == EIGHTH_TRACE


def test_trajectory_extended_precision_crossing():
    # the exact rational orbit of the 2^-10 seed crosses at k = 5, as doubles do
    a = Fraction(3.71)  # the double's exact value
    exact = [Fraction(1, 1 << 10)]
    while exact[-1] <= Fraction(1, 2):
        exact.append(a * exact[-1] * (1 - exact[-1]))
    doubles = amplify_detect(2.0 ** -10, 10)
    assert len(exact) - 1 == doubles.first_crossing == 5
    for x, q in zip(doubles.x, exact, strict=True):
        assert x == pytest.approx(float(q), abs=1e-15)


def test_iteration_window():
    assert [iteration_window(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 6]
    with pytest.raises(ValueError):
        iteration_window(0)


def test_k_bounds_anchors():
    assert k_bounds(1, 1) == (0, 0)
    assert k_bounds(3, 1) == (2, 2)
    assert k_bounds(11, 1)[1] == 12
    with pytest.raises(ValueError):
        k_bounds(3, 0)
    with pytest.raises(ValueError):
        k_bounds(3, 9)
    with pytest.raises(ValueError):
        k_bounds(0, 1)


@pytest.mark.parametrize("a", [1.5, 2.0])
def test_k_bounds_claim_no_lower_bound_for_a_at_most_two(a):
    """log2(a) - 1 <= 0: the formula's sign flips, or it divides by zero."""
    for n, r in ((1, 1), (1, 2), (3, 1), (3, 8), (5, 20), (12, 1)):
        assert k_bounds(n, r, a) == (0, (5 * (n - 1)) // 4), (n, r)


def test_amplify_detect_worked_seed():
    trace = amplify_detect(0.5, 3)
    assert trace.x == (0.5, 0.9275)
    assert trace.first_crossing == 1
    assert trace.decision == "SAT"
    assert trace.bounds == k_bounds(3, 4)


def test_amplify_detect_unsat_is_bitwise_zero():
    trace = amplify_detect(0.0, 3)
    assert trace.x == (0.0,) * (iteration_window(3) + 1)
    assert all(x == 0.0 for x in trace.x)
    assert trace.first_crossing is None
    assert trace.decision == "UNSAT"
    assert trace.bounds is None


def test_amplify_detect_tautology_crosses_at_zero():
    trace = amplify_detect(1.0, 2)
    assert trace.x == (1.0,)
    assert trace.first_crossing == 0 and trace.decision == "SAT"


def test_amplify_detect_inconclusive_when_window_truncated():
    trace = amplify_detect(2.0**-60, 2)  # far too small to cross in n = 2's window
    assert trace.decision == "INCONCLUSIVE"
    assert trace.first_crossing is None


def test_amplify_detect_domain():
    with pytest.raises(ValueError):
        amplify_detect(-0.1, 3)


def test_trace_csv_format():
    trace = amplify_detect(0.5, 3)
    lines = trace.to_csv().splitlines()
    assert lines == ["k,x_k,crossed", "0,0.5,0", "1,0.9275,1"]


def test_sweep_bounds_shape_of_truth():
    rows = sweep_crossing_bounds(range(2, 41))
    assert all(row.first_crossing is not None for row in rows)
    assert all(row.exists_within_2n for row in rows)
    assert all(row.within_upper for row in rows)
    # the printed lower bound holds only for the two smallest sizes
    violators = [row.n for row in rows if not row.meets_lower]
    assert violators == list(range(4, 41))
    by_n = {row.n: row for row in rows}
    assert by_n[3].first_crossing == 2
    assert by_n[10].first_crossing == 5
    assert by_n[20].first_crossing == 11


def test_sweep_skips_impossible_seeds():
    rows = sweep_crossing_bounds([2], r_values=(1, 4))
    assert [(row.n, row.r) for row in rows] == [(2, 1)]


def test_crossing_row_properties():
    row = CrossingRow(4, 1, 0.0625, None, 3, 3)
    assert not row.exists_within_2n and not row.within_upper and not row.meets_lower


def test_snap_dyadic():
    assert snap_dyadic(0.4999999999999998, 3) == (0.5, 4)
    assert snap_dyadic(0.0, 7) == (0.0, 0)
    value, r = snap_dyadic(1.0, 2)
    assert value == 1.0 and r == 4
    with pytest.raises(ArithmeticError):
        snap_dyadic(0.3, 3)
    with pytest.raises(ValueError):
        snap_dyadic(0.5, 0)


def test_window_matches_bound_formula():
    for n in range(1, 50):
        assert iteration_window(n) == math.floor(5 * (n - 1) / 4) + 1
