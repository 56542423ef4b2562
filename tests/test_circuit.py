import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import satchaos.circuit
from satchaos.circuit import (
    bit_planes,
    build_circuit,
    gate_tally,
    layout,
    layout_from_cards,
    run,
    sat_decision_exact,
)
from satchaos.config import GuardExceeded
from satchaos.gates import GateKind, check_gates, decompose, hadamard_layer, placed
from satchaos.quantum import apply_sequence, basis_state, probability_qubit_one
from satchaos.sat import count_models, instance_from_ints, parse_dimacs
from satchaos.verify import DEFAULT_SEED, EDGE_INSTANCES, random_instance

WORKED = parse_dimacs("p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n")


def test_worked_example_layout():
    lay = layout(WORKED)
    assert lay.s == (4, 6, 8)
    assert lay.s_f == 10
    assert lay.mu == 6
    assert lay.total_qubits == 10
    assert not lay.single_clause
    # closed form for the dust count
    deltas = [1 if c == 1 else 0 for c in WORKED.cards()]
    assert lay.mu == sum(c + d for c, d in zip(WORKED.cards(), deltas)) - 2


def test_unit_clause_layout_gets_padding():
    lay = layout(instance_from_ints(2, [[1], [2]]))
    assert lay.s == (3, 4)
    assert lay.s_f == 5 and lay.mu == 2


def test_single_clause_layout():
    lay = layout(instance_from_ints(2, [[1, 2]]))
    assert lay.s == (3,) and lay.s_f == 4 and lay.mu == 1
    assert lay.single_clause


def test_worked_example_gate_tally():
    tally = gate_tally(build_circuit(WORKED))
    assert tally == {"NOT": 8, "CN": 0, "CCN": 0, "H": 3, "AND": 2, "OR": 5, "COPY": 0}


def test_worked_example_run():
    result = run(WORKED)
    assert result.q_squared == pytest.approx(0.5, abs=1e-12)
    dense = apply_sequence(basis_state(result.layout.total_qubits, 0), result.gates)
    assert dense.norm_sq == pytest.approx(1.0, abs=1e-10)
    assert sat_decision_exact(result) == "SAT"
    assert result.gate_counts["H"] == 3


def test_contradiction_is_bitwise_zero():
    result = run(instance_from_ints(1, [[1], [-1]]))
    assert result.q_squared == 0.0  # exactly, not approximately
    assert sat_decision_exact(result) == "UNSAT"


def test_single_clause_instances():
    assert run(instance_from_ints(2, [[1, 2]])).q_squared == pytest.approx(0.75, abs=1e-12)
    # degenerate first pairs on one variable
    assert run(instance_from_ints(1, [[1, 1]])).q_squared == pytest.approx(0.5, abs=1e-12)
    assert run(instance_from_ints(1, [[1, -1]])).q_squared == pytest.approx(1.0, abs=1e-12)
    assert run(instance_from_ints(2, [[-1, -1, 2]])).q_squared == pytest.approx(0.75, abs=1e-12)


def test_duplicate_literals_later_in_clause():
    inst = instance_from_ints(2, [[1, 2, 2]])
    assert run(inst).q_squared == pytest.approx(0.75, abs=1e-12)


def test_guard_refusal(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the guard must refuse before simulating")

    monkeypatch.setattr(satchaos.circuit, "bit_planes", unreachable)
    with pytest.raises(GuardExceeded, match="33 qubits at n = 30"):
        run(instance_from_ints(30, [[1, 2, 3]]))  # 33 planes of 2^30 bits: 4.1 GiB


def test_guard_boundary(monkeypatch):
    monkeypatch.setattr(satchaos.circuit, "MAX_PLANE_BYTES", 10)  # 10 qubits x 2^3 bits
    assert run(WORKED).q_squared == 0.5
    monkeypatch.setattr(satchaos.circuit, "MAX_PLANE_BYTES", 9)
    with pytest.raises(GuardExceeded):
        run(WORKED)


# The gate lists as the circuit has always built them, by their reprs.
PINNED_CIRCUITS = {
    "worked": "(H(1), H(2), H(3), OR(1, 2, 4), NOT(3), OR(3, 4, 5), NOT(3), NOT(2), "
              "OR(3, 2, 6), NOT(2), NOT(2), OR(1, 2, 8), NOT(2), NOT(3), OR(3, 8, 9), "
              "NOT(3), AND(5, 6, 7), AND(7, 9, 10))",
    "contradiction": "(H(1), COPY(1, 2), NOT(1), COPY(1, 3), NOT(1), AND(2, 3, 4))",
    "tautology": "(H(1), NOT(2), COPY(2, 3))",
    "unit-clauses": "(H(1), H(2), COPY(1, 3), NOT(2), COPY(2, 4), NOT(2), AND(3, 4, 5))",
    "duplicate-literals": "(H(1), H(2), COPY(1, 3), OR(2, 3, 4), NOT(2), COPY(2, 5), "
                          "NOT(2), AND(4, 5, 6))",
    "duplicate-opposed": "(H(1), H(2), NOT(3), OR(2, 3, 4), COPY(2, 5), AND(4, 5, 6))",
    "forced-chain": "(H(1), H(2), H(3), COPY(1, 4), NOT(1), OR(1, 2, 5), NOT(1), NOT(2), "
                    "OR(2, 3, 7), NOT(2), AND(4, 5, 6), AND(6, 7, 8))",
}


def test_gate_lists_are_pinned():
    built = {"worked": build_circuit(WORKED)}
    built.update((name, build_circuit(inst)) for name, inst in EDGE_INSTANCES)
    assert {name: repr(gates) for name, gates in built.items()} == PINNED_CIRCUITS


def test_cascade_targets_use_dust_qubits_only():
    lay = layout(WORKED)
    gates = build_circuit(WORKED)
    ands = [g for g in gates if g.kind is GateKind.AND]
    assert [g.positions[2] for g in ands] == [lay.s[2] - 1, lay.s_f]


def test_built_gates_are_well_formed():
    """PlacedGate checks nothing when built: the layout must place every gate
    with its arity, on distinct qubits of the register."""
    rng = random.Random(DEFAULT_SEED)
    corpus = [inst for _, inst in EDGE_INSTANCES]
    corpus += [random_instance(rng) for _ in range(300)]
    for inst in corpus:
        lay = layout(inst)
        check_gates(build_circuit(inst, lay), lay.total_qubits)


def test_random_instances_match_model_count():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 2 * n)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            chosen = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        inst = instance_from_ints(n, clauses)
        if layout(inst).total_qubits > 18:
            continue
        result = run(inst)
        r = count_models(inst)
        assert abs(result.q_squared - r / (1 << n)) < 1e-10
        assert (sat_decision_exact(result) == "SAT") == (r > 0)


def test_bit_planes_match_dense_engine_on_every_qubit():
    """Criterion-1 corpus: each plane's popcount is the dense P(qubit = 1)."""
    rng = random.Random(DEFAULT_SEED)
    corpus = [random_instance(rng) for _ in range(100)]
    corpus += [inst for _, inst in EDGE_INSTANCES]
    for inst in corpus:
        lay = layout(inst)
        gates = build_circuit(inst, lay)
        planes = bit_planes(gates, inst.num_vars, lay.total_qubits)
        dense = apply_sequence(basis_state(lay.total_qubits, 0), gates)
        for k, plane in enumerate(planes, start=1):
            expected = probability_qubit_one(dense, k)
            assert abs(plane.bit_count() / (1 << inst.num_vars) - expected) < 1e-12, (inst, k)


def test_bit_planes_run_the_decomposed_basis():
    """CN and CCN, which build_circuit never emits, flip their targets like
    the COPY, AND and OR gates they rewrite."""
    rng = random.Random(DEFAULT_SEED)
    for inst in [random_instance(rng) for _ in range(30)] + [WORKED]:
        lay = layout(inst)
        gates = build_circuit(inst, lay)
        basis = tuple(g for gate in gates for g in decompose(gate))
        assert {g.kind for g in basis} <= {GateKind.H, GateKind.NOT, GateKind.CN, GateKind.CCN}
        assert bit_planes(basis, inst.num_vars, lay.total_qubits) == bit_planes(
            gates, inst.num_vars, lay.total_qubits
        )


# Duplicate and opposed literals within a clause are allowed.
cnfs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=8,
        ),
    )
)


@given(cnfs)
@settings(max_examples=300, deadline=None)
def test_run_counts_models_exactly(cnf):
    inst = instance_from_ints(*cnf)
    result, models = run(inst), count_models(inst)
    assert result.q_squared * 2 ** inst.num_vars == models
    assert result.models == models
    assert result.q_squared == models / 2 ** inst.num_vars


@given(cnfs)
@settings(max_examples=300, deadline=None)
def test_layout_from_cards_is_the_layout_of_the_instance(cnf):
    """The widths of the integer clause lists, as ``random_instance`` draws
    them, lay out exactly the built instance: duplicates count as literals."""
    n, clauses = cnf
    inst = instance_from_ints(n, clauses)
    assert inst.cards() == tuple(map(len, clauses))
    assert dataclasses.astuple(layout_from_cards(n, list(map(len, clauses)))) == (
        dataclasses.astuple(layout(inst))
    )


def test_bit_planes_refuse_non_permutation_gate_lists():
    gates = build_circuit(WORKED)
    n, total = WORKED.num_vars, layout(WORKED).total_qubits
    with pytest.raises(ValueError, match="not a permutation"):  # H after a permutation
        bit_planes(gates + (placed(GateKind.H, 1),), n, total)
    with pytest.raises(ValueError, match="open with H"):  # H on a work qubit
        bit_planes((placed(GateKind.H, n + 1),) + gates[1:], n, total)
    with pytest.raises(ValueError, match="open with H"):  # missing H
        bit_planes(gates[1:], n, total)
    with pytest.raises(ValueError, match="open with H"):  # too few gates for the layer
        bit_planes(hadamard_layer(total, n - 1), n, total)
    with pytest.raises(ValueError, match="open with H"):  # layer out of order
        bit_planes((gates[1], gates[0]) + gates[2:], n, total)
    with pytest.raises(ValueError, match="open with H"):  # non-H gate inside the layer
        bit_planes(gates[:1] + (placed(GateKind.NOT, 2),) + gates[2:], n, total)


def test_gate_tally_counts_every_kind_in_order():
    gates = [placed(GateKind.H, 1), placed(GateKind.NOT, 2), placed(GateKind.CN, 1, 2),
             placed(GateKind.CCN, 1, 2, 3), placed(GateKind.AND, 1, 2, 3),
             placed(GateKind.OR, 1, 2, 3), placed(GateKind.COPY, 1, 2),
             placed(GateKind.NOT, 1), placed(GateKind.OR, 2, 3, 4)]
    for some in (gates, gates[1:3], []):
        tally = gate_tally(some)
        counts = Counter(g.kind.value for g in some)
        assert list(tally) == [kind.value for kind in GateKind]
        assert tally == {kind.value: counts[kind.value] for kind in GateKind}
