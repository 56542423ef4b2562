"""Dense state-vector register with stride-based gate application.

Qubits are 1-based and qubit 1 is the fastest-varying bit of the basis index:
basis state |i⟩ assigns qubit k the value of bit k-1 of i. Gates are applied
by reshaping the amplitude vector to a rank-N tensor and contracting the
target axes — never by materializing a 2^N x 2^N matrix.

This is the reference the integer engines are held to, and with
:mod:`satchaos.verify` the only module that imports numpy. So it also holds
the package's other two numpy functions: :func:`gate_matrix`, each gate's
local unitary built from the truth tables in :mod:`satchaos.gates`, and
:func:`satisfying_indices`, the vectorized twin of the oracle. ``solve``,
``trace`` and ``sweep`` never import it; ``satchaos.StateVector`` and the
other names it exports load it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import ACCUMULATED_ATOL, DEFAULT_MAX_QUBITS, GuardExceeded
from .gates import _TARGET_FLIP, GATE_ARITY, GateKind, PlacedGate, check_gates
from .sat import CHUNK_VARS, SatInstance, _check_enum_guard


@cache
def gate_matrix(kind: GateKind) -> np.ndarray:
    """Local unitary of the gate; 2^arity square, slot 0 = least significant bit."""
    if kind is GateKind.H:
        mat = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    else:
        arity = GATE_ARITY[kind]
        flip = _TARGET_FLIP[kind]
        dim = 1 << arity
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(dim):
            bits = [(i >> t) & 1 for t in range(arity)]
            bits[-1] ^= flip(bits[:-1])
            j = sum(b << t for t, b in enumerate(bits))
            mat[j, i] = 1.0
    mat.setflags(write=False)  # instances are cached and shared
    return mat


def satisfying_indices(inst: SatInstance) -> np.ndarray:
    """Indices (= assignments as integers) that satisfy the instance.

    Vectorized over clause bitmasks with numpy, one chunk of assignments at
    a time. This path is deliberately independent of eval_clause and of
    count_models' planes: it is the reference both are checked against.
    """
    n = inst.num_vars
    _check_enum_guard(n)
    masks = [c.masks() for c in inst.clauses]
    chunk = 1 << min(n, CHUNK_VARS)
    found = []
    for start in range(0, 1 << n, chunk):
        a = np.arange(start, start + chunk, dtype=np.uint64)
        sat = np.ones(a.shape, dtype=bool)
        for pos, neg in masks:
            clause_sat = (a & np.uint64(pos)) != 0
            if neg:
                clause_sat |= (~a & np.uint64(neg)) != 0
            sat &= clause_sat
        found.append(a[sat])
    return np.concatenate(found)


@dataclass(frozen=True)
class StateVector:
    """num_qubits and the 2^num_qubits complex amplitudes (treat as read-only)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def basis_state(num_qubits: int, index: int) -> StateVector:
    """|index⟩ on a register of num_qubits qubits."""
    if num_qubits < 1:
        raise ValueError("register needs at least one qubit")
    if num_qubits > DEFAULT_MAX_QUBITS:
        raise GuardExceeded(
            f"{num_qubits}-qubit register exceeds the guard of {DEFAULT_MAX_QUBITS} qubits"
        )
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def qubit_axis(num_qubits: int, qubit: int) -> int:
    """Tensor axis of a qubit once amplitudes are reshaped to [2]*N."""
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit {qubit} out of range 1..{num_qubits}")
    return num_qubits - qubit


def apply_placed_gate(state: StateVector, gate: PlacedGate) -> StateVector:
    """Apply one gate at its positions; identity on every other qubit.

    Raises ``ValueError`` for a gate that :func:`check_gates` refuses.
    """
    n = state.num_qubits
    check_gates((gate,), n)
    arity = GATE_ARITY[gate.kind]
    mat = gate_matrix(gate.kind)
    tensor = state.amplitudes.reshape([2] * n)
    src = [qubit_axis(n, p) for p in gate.positions]
    # Slot t of the gate becomes bit t of the local index, so slot 0 must land
    # on the last (fastest-varying) axis of the front block.
    dst = [arity - 1 - t for t in range(arity)]
    tensor = np.moveaxis(tensor, src, dst)
    shape = tensor.shape
    tensor = (mat @ tensor.reshape(1 << arity, -1)).reshape(shape)
    tensor = np.moveaxis(tensor, dst, src)
    return StateVector(n, np.ascontiguousarray(tensor.reshape(-1)))


def apply_sequence(state: StateVector, gates) -> StateVector:
    """Apply gates in order, then enforce the accumulated norm budget."""
    gates = list(gates)
    for gate in gates:
        state = apply_placed_gate(state, gate)
    if gates:
        budget = ACCUMULATED_ATOL * len(gates)
        drift = abs(state.norm_sq - 1.0)
        if drift > budget:
            raise ArithmeticError(
                f"norm drifted by {drift:.3e} over {len(gates)} gates (budget {budget:.3e})"
            )
    return state


def probability_qubit_one(state: StateVector, qubit: int) -> float:
    """P(measuring the given qubit as 1)."""
    axis = qubit_axis(state.num_qubits, qubit)
    tensor = state.amplitudes.reshape([2] * state.num_qubits)
    slice_one = np.take(tensor, 1, axis=axis)
    return float(np.sum(np.abs(slice_one) ** 2))
