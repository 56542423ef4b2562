import numpy as np
import pytest

from satchaos.config import GuardExceeded
from satchaos.gates import GateKind, placed
from satchaos.quantum import (
    StateVector,
    apply_placed_gate,
    apply_sequence,
    basis_state,
    probability_qubit_one,
    qubit_axis,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def test_basis_state():
    state = basis_state(3, 5)
    assert state.num_qubits == 3
    assert state.amplitudes[5] == 1.0 and state.norm_sq == 1.0
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(GuardExceeded):
        basis_state(30, 0)


def test_qubit_axis_convention():
    # qubit 1 is the fastest-varying index bit, i.e. the last tensor axis
    assert qubit_axis(4, 1) == 3
    assert qubit_axis(4, 4) == 0
    with pytest.raises(ValueError):
        qubit_axis(4, 5)


def test_statevector_shape_check():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=np.complex128))


@pytest.mark.parametrize("qubit", [1, 2, 3])
def test_not_flips_its_own_bit(qubit):
    for index in range(8):
        state = apply_placed_gate(basis_state(3, index), placed(GateKind.NOT, qubit))
        j = int(np.argmax(np.abs(state.amplitudes)))
        assert j == index ^ (1 << (qubit - 1))


def test_cn_flips_target_iff_control():
    gate = placed(GateKind.CN, 2, 1)  # control qubit 2, target qubit 1
    for index in range(4):
        state = apply_placed_gate(basis_state(2, index), gate)
        j = int(np.argmax(np.abs(state.amplitudes)))
        control = (index >> 1) & 1
        assert j == (index ^ control)


def test_hadamard_superposes_one_qubit():
    state = apply_placed_gate(basis_state(2, 0), placed(GateKind.H, 2))
    assert np.allclose(state.amplitudes, [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-15)
    again = apply_placed_gate(state, placed(GateKind.H, 2))
    assert np.allclose(again.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_gate_position_out_of_range():
    with pytest.raises(ValueError):
        apply_placed_gate(basis_state(2, 0), placed(GateKind.NOT, 3))


def test_apply_sequence_norm_budget():
    bad = StateVector(1, np.array([0.5, 0.0], dtype=np.complex128))
    with pytest.raises(ArithmeticError, match="norm drifted"):
        apply_sequence(bad, [placed(GateKind.NOT, 1)])
    # a single gate leaves the norm to its caller
    out = apply_placed_gate(bad, placed(GateKind.NOT, 1))
    assert out.amplitudes[1] == 0.5


def test_probability_qubit_one():
    state = apply_placed_gate(basis_state(3, 0), placed(GateKind.H, 1))
    assert probability_qubit_one(state, 1) == pytest.approx(0.5, abs=1e-15)
    assert probability_qubit_one(state, 3) == 0.0
    one = basis_state(3, 0b100)
    assert probability_qubit_one(one, 3) == 1.0


