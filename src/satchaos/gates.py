"""The reversible gate set used by the truth-value circuits.

All multi-qubit gates except H are permutations of basis states: the last
position is a target that gets XORed with a boolean function of the earlier
positions (NOT/CN/CCN flip on none/one/two controls; AND, OR, COPY fold the
corresponding connective into the target). The truth tables here define
every gate; the dense reference builds its local matrices from them
(:func:`satchaos.quantum.gate_matrix`), indexing their inputs with slot 0 as
the least-significant bit, matching the register convention that lower qubit
numbers vary faster. This module imports no numpy.

A :class:`PlacedGate` is a plain tuple ``(kind, positions)``, like
:class:`satchaos.gqtm.machine.Configuration`, so building one costs one
``tuple.__new__``. It is not checked when it is built: the circuit layout
places every gate well formed by construction. :func:`check_gates` holds the
checks (arity, distinct positions, positions inside the register); the dense
reference engine runs it on every gate it applies, and ``verify gates`` runs
it on every gate that ``build_circuit`` emits for its corpus.
"""

from __future__ import annotations

import enum
from operator import itemgetter


class GateKind(enum.Enum):
    NOT = "NOT"
    CN = "CN"
    CCN = "CCN"
    H = "H"
    AND = "AND"
    OR = "OR"
    COPY = "COPY"


GATE_ARITY = {
    GateKind.NOT: 1,
    GateKind.CN: 2,
    GateKind.CCN: 3,
    GateKind.H: 1,
    GateKind.AND: 3,
    GateKind.OR: 3,
    GateKind.COPY: 2,
}

# Boolean function of the non-target bits that each permutation gate XORs
# into its last position.
_TARGET_FLIP = {
    GateKind.NOT: lambda bits: 1,
    GateKind.CN: lambda bits: bits[0],
    GateKind.CCN: lambda bits: bits[0] & bits[1],
    GateKind.AND: lambda bits: bits[0] & bits[1],
    GateKind.OR: lambda bits: bits[0] | bits[1],
    GateKind.COPY: lambda bits: bits[0],
}


_new_tuple = tuple.__new__  # builds a PlacedGate without a Python-level call


class PlacedGate(tuple):
    """A gate bound to distinct 1-based qubit positions.

    A plain tuple ``(kind, positions)``, like ``Configuration``: equality and
    hashing run at tuple speed, and a gate equals the plain tuple
    ``(kind, positions)``. Its attributes are read-only. Built unchecked;
    :func:`check_gates` tells whether it is well formed.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, positions: tuple[int, ...]):
        return _new_tuple(cls, (kind, positions))

    kind = property(itemgetter(0))
    positions = property(itemgetter(1))

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return tuple(self)

    def __repr__(self):
        return f"{self[0].value}({', '.join(map(str, self[1]))})"


GateSequence = tuple[PlacedGate, ...]


def placed(kind: GateKind, *positions: int) -> PlacedGate:
    return _new_tuple(PlacedGate, (kind, positions))


def check_gates(gates, num_qubits: int) -> None:
    """Raise ``ValueError`` at the first gate that is not well formed on a
    num_qubits register: its arity, distinct positions, each in 1..num_qubits."""
    for gate in gates:
        arity, positions = GATE_ARITY[gate.kind], gate.positions
        if len(positions) != arity:
            raise ValueError(f"{gate.kind.value} takes {arity} positions, got {positions}")
        if len(set(positions)) != arity:
            raise ValueError(f"positions must be distinct, got {positions}")
        for p in positions:
            if not 1 <= p <= num_qubits:
                raise ValueError(f"gate position {p} out of range 1..{num_qubits}")


def decompose(gate: PlacedGate) -> GateSequence:
    """Rewrite AND/OR/COPY into the NOT/CN/CCN basis (application order)."""
    u = gate.positions
    if gate.kind is GateKind.AND:
        return (placed(GateKind.CCN, *u),)
    if gate.kind is GateKind.COPY:
        return (placed(GateKind.CN, *u),)
    if gate.kind is GateKind.OR:
        a, b, w = u
        return (
            placed(GateKind.CCN, a, b, w),
            placed(GateKind.CN, b, w),
            placed(GateKind.CN, a, w),
        )
    return (gate,)


_NOT, _OR, _COPY = GateKind.NOT, GateKind.OR, GateKind.COPY


def append_polarized_or(gates: list, u: int, v: int, w: int,
                        negate_u: bool = False, negate_v: bool = False) -> None:
    """Append to ``gates`` the OR of the (possibly negated) values at u and v,
    XORed into w; each negated input is conjugated with NOT, so it is restored."""
    core = _new_tuple(PlacedGate, (_OR, (u, v, w)))
    if not (negate_u or negate_v):
        gates.append(core)
        return
    pre = []
    if negate_u:
        pre.append(_new_tuple(PlacedGate, (_NOT, (u,))))
    if negate_v:
        pre.append(_new_tuple(PlacedGate, (_NOT, (v,))))
    gates += (*pre, core, *pre)


def append_polarized_copy(gates: list, u: int, w: int, negate_u: bool = False) -> None:
    """Append to ``gates`` the (possibly negated) value at u, XORed into w;
    a negated input is conjugated with NOT, so it is restored."""
    if negate_u:
        flip = _new_tuple(PlacedGate, (_NOT, (u,)))
        gates += (flip, _new_tuple(PlacedGate, (_COPY, (u, w))), flip)
    else:
        gates.append(_new_tuple(PlacedGate, (_COPY, (u, w))))


def hadamard_layer(num_qubits: int, count: int) -> GateSequence:
    """H on qubits 1..count of a num_qubits register."""
    if count < 0 or count > num_qubits:
        raise ValueError(f"cannot place {count} H gates on {num_qubits} qubits")
    return tuple(placed(GateKind.H, k) for k in range(1, count + 1))
