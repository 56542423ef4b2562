"""Reversible truth-value circuit for a CNF instance.

Register layout: qubits 1..n carry the variables, a block of work qubits per
clause accumulates the clause disjunction, and the final qubit s_f receives
the conjunction of all clause values. After an H layer on the variable
qubits, the probability of reading s_f as 1 is exactly r/2^n, where r is the
number of satisfying assignments.

Every gate after the H layer permutes basis states, so the register is fixed
by one basis index per assignment. :func:`run` therefore simulates the gate
list on bit planes (one 2^n-bit integer per qubit, bit i holding that
qubit's value under assignment i: parallel-pattern logic simulation);
:mod:`satchaos.quantum` keeps the dense statevector as the reference engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import (
    DEFAULT_MAX_QUBITS,
    GuardExceeded,
    INTEGRALITY_ATOL,
    SAT_DECISION_EPS,
)
from .gates import (
    _TARGET_FLIP,
    GateKind,
    GateSequence,
    hadamard_layer,
    placed,
    polarized_copy,
    polarized_or,
)
from .sat import SatInstance


@dataclass(frozen=True)
class CircuitLayout:
    """Work-qubit bookkeeping for one instance.

    s[k-1] is the first work qubit of clause k's block; s_f is the result
    qubit; mu counts the work ("dust") qubits strictly between the variables
    and the result. total_qubits == n + mu + 1 == s_f.
    """

    num_vars: int
    num_clauses: int
    s: tuple[int, ...]
    s_f: int
    mu: int
    single_clause: bool

    @property
    def total_qubits(self) -> int:
        return self.s_f


def _delta(card: int) -> int:
    return 1 if card == 1 else 0


def layout(inst: SatInstance) -> CircuitLayout:
    """Assign clause work blocks by the width recurrence.

    For two or more clauses the dust count is computed both from the
    recurrence (s_f - 1 - n) and from the closed form
    sum(card + delta) - 2; the two must agree.
    """
    n, m = inst.num_vars, inst.num_clauses
    cards = inst.cards()
    s = [n + 1]
    if m == 1:
        s_f = s[0] - 1 + cards[0] + _delta(cards[0])
    else:
        s.append(s[0] + cards[0] + _delta(cards[0]) - 1)
        for i in range(2, m):
            s.append(s[-1] + cards[i - 1] + _delta(cards[i - 1]))
        s_f = s[-1] - 1 + cards[-1] + _delta(cards[-1])
    mu = s_f - 1 - n
    if m >= 2:
        closed_form = sum(c + _delta(c) for c in cards) - 2
        if mu != closed_form:
            raise AssertionError(
                f"layout recurrence gave mu={mu} but closed form gives {closed_form}"
            )
    return CircuitLayout(n, m, tuple(s), s_f, mu, single_clause=(m == 1))


def _fold_clause(clause, block_start: int) -> tuple[list, int]:
    """Left-fold a clause's disjunction into its work block.

    Returns (gates, result qubit). The first pair of literals feeds one OR;
    every further literal ORs with the previous work qubit. A first pair on
    the same variable degenerates: same sign is just that literal (COPY),
    opposite signs are constantly true (NOT on the fresh work qubit).
    """
    lits = clause.literals
    gates: list = []
    if clause.card == 1:
        lit = lits[0]
        gates += polarized_copy(lit.variable, block_start, negate_u=lit.negated)
        return gates, block_start
    first, second = lits[0], lits[1]
    if first.variable == second.variable:
        if first.negated == second.negated:
            gates += polarized_copy(first.variable, block_start, negate_u=first.negated)
        else:
            gates.append(placed(GateKind.NOT, block_start))  # x OR NOT x
    else:
        gates += polarized_or(
            first.variable, second.variable, block_start,
            negate_u=first.negated, negate_v=second.negated,
        )
    work = block_start
    for lit in lits[2:]:
        gates += polarized_or(lit.variable, work, work + 1, negate_u=lit.negated)
        work += 1
    return gates, work


def build_circuit(inst: SatInstance, lay: CircuitLayout | None = None) -> GateSequence:
    """Gate list in application order: H layer, clause folds, AND cascade."""
    lay = lay or layout(inst)
    gates = list(hadamard_layer(lay.total_qubits, inst.num_vars))
    results = []
    for k, clause in enumerate(inst.clauses):
        clause_gates, result = _fold_clause(clause, lay.s[k])
        gates += clause_gates
        results.append(result)
    if lay.single_clause:
        # No cascade; move the lone clause value onto the result qubit.
        gates.append(placed(GateKind.COPY, results[0], lay.s_f))
    else:
        carry = results[0]
        for k in range(2, lay.num_clauses + 1):
            target = lay.s[k] - 1 if k < lay.num_clauses else lay.s_f
            gates.append(placed(GateKind.AND, carry, results[k - 1], target))
            carry = target
    return tuple(gates)


@dataclass(frozen=True)
class CircuitRun:
    layout: CircuitLayout
    gates: GateSequence
    q_squared: float
    gate_counts: dict[str, int]


def gate_tally(gates) -> dict[str, int]:
    """Counts per gate kind, with every kind present (zeros included)."""
    counts = Counter(g.kind.value for g in gates)
    return {kind.value: counts.get(kind.value, 0) for kind in GateKind}


def _h_plane(qubit: int, num_vars: int) -> int:
    """Plane of variable qubit k after H: bit i is (i >> (k-1)) & 1."""
    half = 1 << (qubit - 1)
    plane, period = ((1 << half) - 1) << half, 2 * half
    while period < 1 << num_vars:
        plane |= plane << period
        period *= 2
    return plane


def bit_planes(gates, num_vars: int, num_qubits: int) -> list[int]:
    """Final value of every qubit under every assignment, from |0...0⟩.

    planes[k-1] holds qubit k: bit i is its value once the gates have run on
    assignment i (variable qubit j holding bit j-1 of i). The gate list must
    open with H on qubits 1..num_vars in order and contain no other H, so
    that every later gate is a permutation: its target plane is XORed with
    the gate's boolean function of the control planes.
    """
    gates = tuple(gates)
    if gates[:num_vars] != hadamard_layer(num_qubits, num_vars):
        raise ValueError(
            f"gate list must open with H on qubits 1..{num_vars} in order"
        )
    ones = (1 << (1 << num_vars)) - 1
    planes = [_h_plane(k, num_vars) for k in range(1, num_vars + 1)]
    planes += [0] * (num_qubits - num_vars)
    for gate in gates[num_vars:]:
        if gate.kind is GateKind.H:
            raise ValueError(f"{gate!r} after the leading H layer is not a permutation")
        *controls, target = (p - 1 for p in gate.positions)
        if gate.kind is GateKind.NOT:
            planes[target] ^= ones
        else:
            planes[target] ^= _TARGET_FLIP[gate.kind]([planes[c] for c in controls])
    return planes


def run(inst: SatInstance, max_qubits: int = DEFAULT_MAX_QUBITS) -> CircuitRun:
    """Simulate the circuit from |0...0⟩ and read q² off the result qubit."""
    lay = layout(inst)
    if lay.total_qubits > max_qubits:
        raise GuardExceeded(
            f"instance needs {lay.total_qubits} qubits, guard is {max_qubits}"
        )
    gates = build_circuit(inst, lay)
    planes = bit_planes(gates, inst.num_vars, lay.total_qubits)
    q_squared = planes[lay.s_f - 1].bit_count() / (1 << inst.num_vars)
    scaled = q_squared * (1 << inst.num_vars)
    if abs(scaled - round(scaled)) > INTEGRALITY_ATOL:
        raise ArithmeticError(
            f"q²·2^n = {scaled!r} is not integral; the register is corrupted"
        )
    return CircuitRun(lay, gates, q_squared, gate_tally(gates))


def sat_decision_exact(run_result: CircuitRun) -> str:
    """SAT iff q² is (numerically) nonzero."""
    return "SAT" if run_result.q_squared > SAT_DECISION_EPS else "UNSAT"
