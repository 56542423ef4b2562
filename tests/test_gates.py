import copy
import pickle

import numpy as np
import pytest

from satchaos.config import UNITARITY_ATOL
from satchaos.gates import (
    GateKind,
    PlacedGate,
    append_polarized_copy,
    append_polarized_or,
    check_gates,
    decompose,
    hadamard_layer,
    placed,
)
from satchaos.quantum import apply_sequence, basis_state, gate_matrix


@pytest.mark.parametrize("kind", list(GateKind))
def test_every_matrix_is_unitary(kind):
    mat = gate_matrix(kind)
    dim = mat.shape[0]
    assert mat.shape == (dim, dim)
    dev = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
    assert dev <= UNITARITY_ATOL


def test_matrix_hand_values():
    h = gate_matrix(GateKind.H)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
    x = gate_matrix(GateKind.NOT)
    assert np.array_equal(x.real, [[0, 1], [1, 0]])
    # AND is literally the doubly-controlled NOT
    assert np.array_equal(gate_matrix(GateKind.AND), gate_matrix(GateKind.CCN))
    assert np.array_equal(gate_matrix(GateKind.COPY), gate_matrix(GateKind.CN))


def test_or_truth_table():
    # basis index bits: slot 0 = u, slot 1 = v, slot 2 = target
    mat = gate_matrix(GateKind.OR)
    for i in range(8):
        u, v, t = i & 1, (i >> 1) & 1, (i >> 2) & 1
        j = u | (v << 1) | ((t ^ (u | v)) << 2)
        col = mat[:, i]
        assert col[j] == 1.0 and np.sum(np.abs(col)) == 1.0


def test_placed_gate_is_a_tuple():
    """A gate is the tuple (kind, positions): equal to it, hashed like it,
    read-only, and rebuilt whole by pickle and deepcopy."""
    gate = placed(GateKind.OR, 1, 2, 3)
    assert gate == PlacedGate(GateKind.OR, (1, 2, 3)) == (GateKind.OR, (1, 2, 3))
    assert hash(gate) == hash(PlacedGate(GateKind.OR, (1, 2, 3)))
    assert gate.kind is GateKind.OR and gate.positions == (1, 2, 3)
    assert repr(gate) == "OR(1, 2, 3)"
    assert gate != placed(GateKind.OR, 1, 2, 4) and gate != placed(GateKind.AND, 1, 2, 3)
    with pytest.raises(AttributeError):
        gate.kind = GateKind.AND
    with pytest.raises(AttributeError):
        gate.positions = (3, 2, 1)
    for twin in (pickle.loads(pickle.dumps(gate)), copy.deepcopy(gate), copy.copy(gate)):
        assert type(twin) is PlacedGate and twin == gate and repr(twin) == "OR(1, 2, 3)"


def test_placed_gate_validation():
    """Gates are built unchecked; check_gates and the dense engine refuse
    a malformed one."""
    for gate, reason in (
        (placed(GateKind.OR, 1, 2), "takes 3 positions"),
        (placed(GateKind.CN, 2, 2), "must be distinct"),
        (placed(GateKind.NOT, 0), "out of range"),  # 1-based
    ):
        with pytest.raises(ValueError, match=reason):
            check_gates([gate], 3)
        with pytest.raises(ValueError, match=reason):
            apply_sequence(basis_state(3, 0), [gate])


@pytest.mark.parametrize(
    "gate",
    [
        placed(GateKind.AND, 1, 2, 3),
        placed(GateKind.OR, 1, 2, 3),
        placed(GateKind.OR, 3, 1, 2),
        placed(GateKind.COPY, 2, 1),
    ],
)
def test_decomposition_exact_on_basis_states(gate):
    n = max(gate.positions)
    for index in range(1 << n):
        direct = apply_sequence(basis_state(n, index), [gate])
        via = apply_sequence(basis_state(n, index), decompose(gate))
        assert np.array_equal(direct.amplitudes, via.amplitudes)


def test_decompose_structure():
    assert [g.kind for g in decompose(placed(GateKind.OR, 1, 2, 3))] == [
        GateKind.CCN,
        GateKind.CN,
        GateKind.CN,
    ]
    assert decompose(placed(GateKind.AND, 1, 2, 3)) == (placed(GateKind.CCN, 1, 2, 3),)
    assert decompose(placed(GateKind.COPY, 1, 2)) == (placed(GateKind.CN, 1, 2),)
    h = placed(GateKind.H, 1)
    assert decompose(h) == (h,)


@pytest.mark.parametrize("neg_u", [False, True])
@pytest.mark.parametrize("neg_v", [False, True])
def test_polarized_or_truth_and_restoration(neg_u, neg_v):
    seq = []
    append_polarized_or(seq, 1, 2, 3, neg_u, neg_v)
    for i in range(8):
        state = apply_sequence(basis_state(3, i), seq)
        j = int(np.argmax(np.abs(state.amplitudes)))
        u, v, t = i & 1, (i >> 1) & 1, (i >> 2) & 1
        value = (u ^ neg_u) | (v ^ neg_v)
        assert j & 1 == u and (j >> 1) & 1 == v  # inputs restored
        assert (j >> 2) & 1 == t ^ value


@pytest.mark.parametrize("neg_u", [False, True])
def test_polarized_copy(neg_u):
    seq = []
    append_polarized_copy(seq, 1, 2, neg_u)
    for i in range(4):
        state = apply_sequence(basis_state(2, i), seq)
        j = int(np.argmax(np.abs(state.amplitudes)))
        u, t = i & 1, (i >> 1) & 1
        assert j & 1 == u
        assert (j >> 1) & 1 == t ^ (u ^ neg_u)


def test_hadamard_layer():
    layer = hadamard_layer(5, 3)
    assert [g.positions for g in layer] == [(1,), (2,), (3,)]
    assert all(g.kind is GateKind.H for g in layer)
    assert hadamard_layer(4, 0) == ()
    with pytest.raises(ValueError):
        hadamard_layer(2, 3)


def test_cached_matrices_are_readonly():
    mat = gate_matrix(GateKind.CN)
    with pytest.raises((ValueError, RuntimeError)):
        mat[0, 0] = 5.0
