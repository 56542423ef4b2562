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

from collections.abc import Sequence
from dataclasses import dataclass

from .config import GuardExceeded, MAX_PLANE_BYTES
from .gates import (
    GateKind,
    GateSequence,
    append_polarized_copy,
    append_polarized_or,
    hadamard_layer,
    placed,
)
from .sat import SatInstance, _variable_planes


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
    """Assign clause work blocks by the width recurrence (see
    :func:`layout_from_cards`)."""
    return layout_from_cards(inst.num_vars, inst.cards())


def layout_from_cards(num_vars: int, cards: Sequence[int]) -> CircuitLayout:
    """The layout of ``num_vars`` variables and clauses of the given cards
    (literal counts, in clause order), without building the instance.

    For two or more clauses the dust count is computed both from the
    recurrence (s_f - 1 - n) and from the closed form
    sum(card + delta) - 2; the two must agree.
    """
    n, m = num_vars, len(cards)
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


def _fold_clause(clause, block_start: int, gates: list) -> int:
    """Left-fold a clause's disjunction into its work block.

    Appends the gates to ``gates`` and returns the result qubit. The first
    pair of literals feeds one OR; every further literal ORs with the
    previous work qubit. A first pair on the same variable degenerates: same
    sign is just that literal (COPY), opposite signs are constantly true (NOT
    on the fresh work qubit).
    """
    lits = clause.literals
    first = lits[0]
    if len(lits) == 1:
        append_polarized_copy(gates, first.variable, block_start, first.negated)
        return block_start
    second = lits[1]
    if first.variable == second.variable:
        if first.negated == second.negated:
            append_polarized_copy(gates, first.variable, block_start, first.negated)
        else:
            gates.append(placed(GateKind.NOT, block_start))  # x OR NOT x
    else:
        append_polarized_or(gates, first.variable, second.variable, block_start,
                            first.negated, second.negated)
    work = block_start
    for lit in lits[2:]:
        append_polarized_or(gates, lit.variable, work, work + 1, lit.negated)
        work += 1
    return work


def build_circuit(inst: SatInstance, lay: CircuitLayout | None = None) -> GateSequence:
    """Gate list in application order: H layer, clause folds, AND cascade."""
    lay = lay or layout(inst)
    gates = list(hadamard_layer(lay.total_qubits, inst.num_vars))
    results = [_fold_clause(clause, start, gates) for clause, start in zip(inst.clauses, lay.s)]
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
    models: int  # r: the assignments that set the result qubit
    gate_counts: dict[str, int]

    @property
    def q_squared(self) -> float:
        """r/2^n, exact in a double."""
        return self.models / (1 << self.layout.num_vars)


_KIND_VALUES = tuple(kind.value for kind in GateKind)


def gate_tally(gates) -> dict[str, int]:
    """Counts per gate kind, with every kind present (zeros included).

    One pass, keyed by the kind's ``_value_`` string: an enum member hashes
    and reads ``.value`` through Python-level methods, several times slower.
    """
    counts = dict.fromkeys(_KIND_VALUES, 0)
    for kind, _ in gates:
        counts[kind._value_] += 1
    return counts


def bit_planes(gates, num_vars: int, num_qubits: int) -> list[int]:
    """Final value of every qubit under every assignment, from |0...0⟩.

    planes[k-1] holds qubit k: bit i is its value once the gates have run on
    assignment i (variable qubit j holding bit j-1 of i). The gate list must
    open with H on qubits 1..num_vars in order and contain no other H, so
    that every later gate is a permutation: its target plane is XORed with
    the gate's boolean function of the control planes (``_TARGET_FLIP``),
    applied here by gate kind.
    """
    if num_vars > num_qubits:
        raise ValueError(f"cannot place {num_vars} H gates on {num_qubits} qubits")
    gates = tuple(gates)
    # A gate equals the plain tuple (kind, positions).
    if gates[:num_vars] != tuple((GateKind.H, (k,)) for k in range(1, num_vars + 1)):
        raise ValueError(
            f"gate list must open with H on qubits 1..{num_vars} in order"
        )
    ones = (1 << (1 << num_vars)) - 1
    # 1-based: planes[k] is qubit k, so positions index it directly.
    planes = [0, *_variable_planes(num_vars)]
    planes += [0] * (num_qubits - num_vars)
    # Local names: a GateKind.X lookup per gate costs more than a small plane's XOR.
    NOT, OR, AND, CCN, COPY, CN = (
        GateKind.NOT, GateKind.OR, GateKind.AND, GateKind.CCN, GateKind.COPY, GateKind.CN,
    )
    for gate in gates[num_vars:]:
        kind, positions = gate
        if kind is NOT:
            planes[positions[0]] ^= ones
        elif kind is OR:
            a, b, target = positions
            planes[target] ^= planes[a] | planes[b]
        elif kind is AND or kind is CCN:
            a, b, target = positions
            planes[target] ^= planes[a] & planes[b]
        elif kind is COPY or kind is CN:
            a, target = positions
            planes[target] ^= planes[a]
        else:
            raise ValueError(f"{gate!r} after the leading H layer is not a permutation")
    del planes[0]
    return planes


def run(inst: SatInstance) -> CircuitRun:
    """Simulate the circuit from |0...0⟩ and count the models on the result qubit.

    Refuses before building anything when the planes, one 2^n-bit integer
    per qubit, would exceed ``MAX_PLANE_BYTES``.
    """
    lay = layout(inst)
    plane_bytes = lay.total_qubits * (1 << inst.num_vars) // 8
    if plane_bytes > MAX_PLANE_BYTES:
        raise GuardExceeded(
            f"{lay.total_qubits} qubits at n = {inst.num_vars} need {plane_bytes} "
            f"bytes of bit planes, guard is {MAX_PLANE_BYTES}"
        )
    gates = build_circuit(inst, lay)
    planes = bit_planes(gates, inst.num_vars, lay.total_qubits)
    return CircuitRun(lay, gates, planes[lay.s_f - 1].bit_count(), gate_tally(gates))


def sat_decision_exact(run_result: CircuitRun) -> str:
    """SAT iff some assignment satisfies the instance."""
    return "SAT" if run_result.models else "UNSAT"
