import io
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from satchaos.amplifier import amplify_detect, iteration_window, snap_dyadic
from satchaos.circuit import run as circuit_run
from satchaos.config import GuardExceeded
from satchaos.gqtm.machine import (
    BLANK,
    EMPTY_TAPE,
    ConfigSuperposition,
    Configuration,
    MixedConfiguration,
    Phase,
    StuckConfigurationError,
    TransitionFunction,
    check_wellformed,
    decohere,
    dump_transition,
    make_configuration,
    merge_components,
    rebase,
    rule,
    run_phase,
    step,
    _write,
)
from satchaos.gqtm.program import (
    COLLAPSE_STAGE,
    ERASE,
    HANDOFF,
    OR_EVAL,
    UNITARY_STAGE,
    collapse,
    encode_sat_input,
    initial_configuration,
    phase_and_eval,
    phase_compare,
    phase_dft,
    phase_erase,
    phase_handoff,
    phase_increment,
    phase_or_eval,
    phase_setup,
    run_classical_branch,
    run_sat_gqtm,
    sat_machine,
)
from satchaos.sat import (
    count_models,
    eval_clause,
    eval_instance,
    instance_from_ints,
    parse_dimacs,
)
from test_acceptance import EDGE_INSTANCES, _distinct_var_clauses

WORKED = parse_dimacs("p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n")
WORKED_ENCODING = "000XC_S110Y001C_EC_S001Y010C_EC_S100Y011C_E"

SQRT_HALF = 1.0 / math.sqrt(2.0)


# --- the machine formalism --------------------------------------------------

def _counter_table() -> TransitionFunction:
    t = TransitionFunction("toy", 1, (0,), (0,), {0: ("0", "1")})
    t.add("scan", ("0",), [rule(1, "scan", writes={0: "1"}, moves={0: +1})])
    t.add("scan", ("1",), [rule(1, "scan", moves={0: +1})])
    t.add("scan", (BLANK,), [rule(1, "done")])
    return t


def test_configuration_basics():
    config = make_configuration("q", [{0: "1", 2: "0"}], [1])
    assert config.read(0) == BLANK  # head sits on the gap between written cells
    config = make_configuration("q", [{1: "1"}], [1])
    assert config.read(0) == "1"
    assert config.symbol_at(0, 0) == BLANK
    assert config.with_state("p").state == "p"
    with pytest.raises(ValueError):
        make_configuration("q", [{}, {}], [0])  # head count mismatch


# Blank writes, negative positions and writes past either end included.
tape_writes = st.lists(
    st.tuples(st.integers(-6, 6), st.sampled_from(("0", "1", "X", BLANK))),
    max_size=30,
)


@given(tape_writes, tape_writes, st.integers(-8, 8))
@settings(max_examples=300, deadline=None)
def test_dense_tape_matches_a_dict_model(writes, noise, head):
    tape, model = EMPTY_TAPE, {}
    for pos, sym in writes:
        tape = _write(tape, pos, sym)
        if sym == BLANK:
            model.pop(pos, None)
        else:
            model[pos] = sym
    config = Configuration("q", (tape,), (head,))
    assert config.read(0) == model.get(head, BLANK)
    for pos in range(-8, 9):
        assert config.symbol_at(0, pos) == model.get(pos, BLANK)

    # The same contents reached by another history: scribble, blank it all,
    # then write the model right to left.
    other = EMPTY_TAPE
    for pos, sym in noise:
        other = _write(other, pos, sym)
    for pos, _ in noise:
        other = _write(other, pos, BLANK)
    for pos, sym in sorted(model.items(), reverse=True):
        other = _write(other, pos, sym)
    for twin in (Configuration("q", (other,), (head,)),
                 make_configuration("q", [model], [head])):
        assert twin == config and hash(twin) == hash(config)


def test_rule_validation():
    with pytest.raises(ValueError):
        rule(1, "q", moves={0: 2})


def test_transition_add_rejects_collisions_and_bad_footprints():
    t = TransitionFunction("t", 1, (0,), (0,), {0: ("0", "1")})
    t.add("q", ("0",), [rule(1, "q")])
    with pytest.raises(ValueError, match="duplicate"):
        t.add("q", ("0",), [rule(1, "p")])
    with pytest.raises(ValueError):
        t.add("q", ("1",), [rule(1, "q", writes={3: "0"})])
    with pytest.raises(ValueError):
        t.add("q", ("1",), [rule(1, "q", moves={2: +1})])


def test_wildcard_expands_over_declared_alphabet():
    t = TransitionFunction("t", 1, (0,), (), {0: ("0", "1")})
    t.add("q", ("*",), [rule(1, "done")])
    assert ("q", ("0",)) in t.rules and ("q", ("1",)) in t.rules
    assert ("q", (BLANK,)) not in t.rules  # blanks are always explicit


def test_step_runs_a_toy_walker():
    t = _counter_table()
    config = make_configuration("scan", [{0: "0", 1: "0"}], [0])
    psi = ConfigSuperposition.pure(config)
    psi, steps = run_phase(psi, Phase("toy", "bookkeeping", t, "scan", frozenset({"done"})))
    assert steps == 3
    (final,) = psi.branches
    assert final.state == "done"
    assert final.tracks[0] == (0, ("1", "1"))


def test_run_phase_enters_from_any_state():
    """A phase relabels its input to its entry state, so a superposition left
    in a foreign state runs exactly like one already at the entry."""
    machine = sat_machine(3)
    psi = ConfigSuperposition.pure(initial_configuration(machine, WORKED))
    for name in ("setup", "dft"):
        psi, _ = run_phase(psi, machine.phase(name))
    foreign = rebase(psi, "nowhere")
    with pytest.raises(StuckConfigurationError):
        step(foreign, OR_EVAL.delta, OR_EVAL.finals)
    want, want_steps = run_phase(rebase(psi, OR_EVAL.entry), OR_EVAL)
    got, got_steps = run_phase(foreign, OR_EVAL)
    assert got_steps == want_steps
    assert list(got.branches.items()) == list(want.branches.items())
    assert len(got) == 8 and {c.state for c in got.branches} <= OR_EVAL.finals


def test_stuck_configuration_is_loud():
    t = _counter_table()
    config = make_configuration("scan", [{0: "X"}], [0])
    with pytest.raises(StuckConfigurationError) as err:
        step(ConfigSuperposition.pure(config), t)
    message = str(err.value)
    assert "scan" in message and "X" in message and "head" in message.lower()


def test_step_is_linear():
    dft = sat_machine(1).phase("dft")
    track0 = {0: "0", 1: "X"}
    c0 = make_configuration("dft_apply", [track0, {0: "0"}, {}, {}], [0, 0, 0, 0])
    c1 = make_configuration("dft_apply", [track0, {0: "1"}, {}, {}], [0, 0, 0, 0])
    alpha, beta = 0.6 + 0.2j, -0.5 + 0.6j
    combined = step(
        ConfigSuperposition({c0: alpha, c1: beta}), dft.delta, dft.finals
    )
    left = step(ConfigSuperposition.pure(c0), dft.delta, dft.finals)
    right = step(ConfigSuperposition.pure(c1), dft.delta, dft.finals)
    want = {}
    for c, a in left.branches.items():
        want[c] = want.get(c, 0.0) + alpha * a
    for c, a in right.branches.items():
        want[c] = want.get(c, 0.0) + beta * a
    assert set(combined.branches) == {c for c, a in want.items() if abs(a) > 1e-15}
    for c, a in combined.branches.items():
        assert abs(a - want[c]) < 1e-12


def test_halting_is_absorbing():
    t = _counter_table()
    finals = frozenset({"done"})
    config = make_configuration("done", [{0: "1"}], [0])
    psi = ConfigSuperposition.pure(config)
    before = psi.state_mass(finals)
    after = step(psi, t, finals).state_mass(finals)
    assert before == after == 1.0


def test_halted_branch_adds_to_a_branch_that_halts_onto_it():
    t = _counter_table()
    finals = frozenset({"done"})
    halted = make_configuration("done", [{0: "1"}], [1])
    halting = halted.with_state("scan")  # reads a blank and enters "done" in place
    for order in ((halted, 0.6), (halting, 0.8)), ((halting, 0.8), (halted, 0.6)):
        out = step(ConfigSuperposition(dict(order)), t, finals)
        assert out.branches == {halted: pytest.approx(1.4, abs=1e-15)}


def test_destructive_interference_prunes_exactly():
    dft = sat_machine(1).phase("dft")
    track0 = {0: "0", 1: "X"}
    configs = [
        make_configuration("dft_apply", [track0, {0: bit}, {}, {}], [0, 0, 0, 0])
        for bit in ("0", "1")
    ]
    psi = ConfigSuperposition({configs[0]: SQRT_HALF, configs[1]: -SQRT_HALF})
    out = step(psi, dft.delta, dft.finals)
    assert len(out) == 1
    ((survivor, amp),) = out.branches.items()
    assert survivor.symbol_at(1, 0) == "1"
    assert abs(amp - 1.0) < 1e-12


def test_decohere_and_merge_bookkeeping():
    c0 = make_configuration("q", [{0: "0"}], [0])
    c1 = make_configuration("q", [{0: "1"}], [0])
    psi = ConfigSuperposition({c0: SQRT_HALF, c1: SQRT_HALF * 1j})
    rho = decohere(psi)
    assert sum(w for w, _ in rho.components) == pytest.approx(1.0, abs=1e-12)
    doubled = MixedConfiguration(rho.components + rho.components)
    merged = merge_components(doubled)
    assert len(merged.components) == 2
    assert sum(w for w, _ in merged.components) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        merge_components(MixedConfiguration(((1.0, psi),)))


# --- wellformedness census ---------------------------------------------------

@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_table_certificates(num_vars):
    """Everything coherent or loop-bound certifies unitary; only the
    measurement-channel reset (erase) is irreversible, and only by overlap."""
    machine = sat_machine(num_vars)
    reports = {p.name: check_wellformed(p.delta) for p in machine.phases}
    for name, report in reports.items():
        assert not report.normalization_defects, (name, report.summary())
    for name in ("setup", "dft", "or_eval", "and_eval", "handoff", "increment", "compare"):
        assert reports[name].unitary, reports[name].summary()
    assert not reports["dft"].deterministic
    for name in ("setup", "or_eval", "and_eval", "erase", "handoff", "increment", "compare"):
        assert reports[name].deterministic, name
    erase = reports["erase"]
    assert not erase.unitary  # blanking a tape is many-to-one by design
    machine_erase = machine.phase("erase").delta
    for q1, a1, q2, a2, _overlap in erase.orthogonality_defects:
        assert q1.startswith("erase_") and q2.startswith("erase_")
        for key in ((q1, a1), (q2, a2)):
            (only,) = machine_erase.rules[key]
            assert abs(only.amplitude - 1.0) < 1e-12


def test_dft_rows_are_normalized_hadamard_pairs():
    dft = sat_machine(2).phase("dft").delta
    superposed = [rules for rules in dft.rules.values() if len(rules) == 2]
    assert superposed, "expected Hadamard rows"
    for rules in superposed:
        total = sum(abs(r.amplitude) ** 2 for r in rules)
        assert abs(total - 1.0) < 1e-12
        for r in rules:
            assert abs(r.amplitude) == pytest.approx(SQRT_HALF, abs=1e-15)


def test_dump_transition_format():
    machine = sat_machine(1)
    text = dump_transition(machine.phase("handoff"))
    lines = text.splitlines()
    assert lines[0].startswith("# phase handoff [bookkeeping]")
    assert "handoff_read 1 -> 1 accept - -" in lines
    dft_text = dump_transition(machine.phase("dft"))
    assert "0.707106781" in dft_text and "-0.707106781" in dft_text


# --- the SAT program ---------------------------------------------------------

def test_encode_worked_example():
    assert "".join(encode_sat_input(WORKED)) == WORKED_ENCODING


def test_machine_metadata():
    machine = sat_machine(3)
    assert [p.name for p in machine.phases][:4] == list(UNITARY_STAGE)


def test_initial_configuration_contents():
    machine = sat_machine(3)
    config = initial_configuration(machine, WORKED)
    assert config.state == machine.phase("setup").entry
    assert config.tracks[0] == (0, encode_sat_input(WORKED))
    assert config.tracks[1:] == (EMPTY_TAPE,) * 3
    assert config.heads == (0, 0, 0, 0)


# --- full runs ---------------------------------------------------------------

def test_worked_example_full_run():
    sink = io.StringIO()
    result = run_sat_gqtm(WORKED, jsonl_sink=sink)
    assert result.decision == "SAT"
    assert result.k_star == 1
    assert result.q_squared == 0.5
    assert result.r_estimate == 4
    assert result.branch_count == 8
    assert result.weights_raw[0] == pytest.approx(0.5, abs=1e-9)
    assert result.weights_raw[1] == pytest.approx(0.5, abs=1e-9)

    reference = amplify_detect(0.5, 3)
    assert result.trace.x == reference.x
    assert result.trace.first_crossing == reference.first_crossing
    assert result.trace.bounds == reference.bounds

    rows = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert rows, "expected step rows"
    assert all(list(row) == ["step", "branch_count", "norm", "halting_prob"] for row in rows)
    assert all(abs(row["norm"] - 1.0) < 1e-9 for row in rows)
    assert max(row["branch_count"] for row in rows) == 8
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))


def test_unsat_run_is_bitwise_zero():
    result = run_sat_gqtm(instance_from_ints(1, [[1], [-1]]))
    assert result.decision == "UNSAT"
    assert result.k_star is None
    assert result.q_squared == 0.0 and result.weights_raw[1] == 0.0
    assert result.trace.x == (0.0,) * (iteration_window(1) + 1)
    assert result.trace.bounds is None


def test_tautology_crosses_immediately():
    result = run_sat_gqtm(instance_from_ints(1, [[1, -1]]))
    assert result.decision == "SAT" and result.k_star == 0
    assert result.q_squared == 1.0


def test_small_instances_match_amplifier():
    result = run_sat_gqtm(instance_from_ints(1, [[1]]))
    assert result.trace.x == (0.5, 0.9275) and result.k_star == 1
    result = run_sat_gqtm(instance_from_ints(2, [[1, 2], [-1, -2]]))
    assert result.q_squared == 0.5 and result.decision == "SAT"


def test_variable_guard():
    with pytest.raises(GuardExceeded):
        run_sat_gqtm(instance_from_ints(4, [[1, 2, 3]]))
    # and the documented override
    result = run_sat_gqtm(instance_from_ints(4, [[1, 2, 3]]), max_vars=4)
    assert result.q_squared == pytest.approx(14 / 16, abs=1e-9)


def test_classical_branches_match_eval():
    for bits in itertools.product((0, 1), repeat=3):
        clause_bits, result = run_classical_branch(WORKED, bits)
        assert result == eval_instance(WORKED, bits)
        assert clause_bits == tuple(
            eval_clause(clause, bits) for clause in WORKED.clauses
        )
    with pytest.raises(ValueError):
        run_classical_branch(WORKED, (0, 1))


def test_factored_stages_equal_integrated_run():
    """Running unitary stage, collapse, and detection by hand must reproduce
    run_sat_gqtm exactly — the pipeline is literally that composition."""
    integrated = run_sat_gqtm(WORKED)

    machine, psi = _unitary_stage(WORKED)
    assert abs(psi.norm_sq() - 1.0) < 1e-9

    weights = {
        config.symbol_at(3, 0): weight
        for config, weight in _per_component_collapse(machine, psi).items()
    }
    assert weights["1"] == integrated.weights_raw[1]
    assert weights["0"] == integrated.weights_raw[0]

    q_squared, _ = snap_dyadic(weights["1"], 3)
    reference = amplify_detect(q_squared, 3)
    assert reference.x == integrated.trace.x
    assert reference.decision == integrated.decision


# n <= 3, m <= 4; duplicate and opposed literals within a clause allowed.
small_cnfs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=4,
        ),
    )
)


@given(small_cnfs)
@settings(max_examples=150, deadline=None)
def test_machine_counts_models_and_replays_every_branch(cnf):
    inst = instance_from_ints(*cnf)
    n = inst.num_vars
    assert abs(run_sat_gqtm(inst).weights_raw[1] * 2 ** n - count_models(inst)) < 1e-9
    for bits in itertools.product((0, 1), repeat=n):
        clause_bits, result = run_classical_branch(inst, bits)
        assert result == eval_instance(inst, bits)
        assert clause_bits == tuple(eval_clause(c, bits) for c in inst.clauses)


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
def test_sat_machine_is_cached_with_unchanged_tables(num_vars):
    machine = sat_machine(num_vars)
    assert sat_machine(num_vars) is machine
    fresh = (
        phase_setup(num_vars), phase_dft(), phase_or_eval(), phase_and_eval(),
        phase_erase(), phase_handoff(), phase_increment(), phase_compare(num_vars),
    )
    assert [dump_transition(p) for p in machine.phases] == [dump_transition(p) for p in fresh]


def test_cross_backend_weight_agreement():
    for clauses in ([[1, 2], [2, 3]], [[1], [2], [3]], [[-1, -2, -3]]):
        inst = instance_from_ints(3, clauses)
        machine_run = run_sat_gqtm(inst)
        circuit_result = circuit_run(inst)
        assert machine_run.weights_raw[1] == pytest.approx(
            circuit_result.q_squared, abs=1e-9
        )


# --- the collapse as one weighted pass ----------------------------------------

def test_collapse_tables_are_deterministic():
    """The premise of stepping weights: every erase and handoff row is one
    target with amplitude 1, so a step moves a weight without squaring it."""
    for phase in (ERASE, HANDOFF):
        assert check_wellformed(phase.delta).deterministic, phase.name


def _unitary_stage(inst):
    machine = sat_machine(inst.num_vars)
    psi = ConfigSuperposition.pure(initial_configuration(machine, inst))
    for name in UNITARY_STAGE:
        psi, _ = run_phase(psi, machine.phase(name))
    return machine, psi


def _per_component_collapse(machine, psi):
    """Reference: measure, erase and hand off each branch alone, then merge."""
    collapsed = []
    for weight, comp in decohere(psi).components:
        for name in COLLAPSE_STAGE:
            comp, _ = run_phase(comp, machine.phase(name))
        collapsed.append((weight, comp))
    merged = merge_components(MixedConfiguration(tuple(collapsed)))
    return {next(iter(comp.branches)): weight for weight, comp in merged.components}


def _collapse_corpus():
    rng = random.Random(20261018)
    corpus = []
    for num_vars in (1, 2, 3):
        pool = _distinct_var_clauses(num_vars)
        for num_clauses in (1, 2, 3):
            corpus += [
                instance_from_ints(num_vars, [rng.choice(pool) for _ in range(num_clauses)])
                for _ in range(20)
            ]
    opposite_phase = instance_from_ints(2, [[1, 2], [-1, -2]])  # criterion 7's pair
    return corpus + list(EDGE_INSTANCES) + [WORKED, opposite_phase]


def test_one_pass_collapse_matches_per_component_reference():
    for inst in _collapse_corpus():
        machine, psi = _unitary_stage(inst)
        reference = _per_component_collapse(machine, psi)
        one_pass = collapse(psi, machine).branches
        assert one_pass.keys() == reference.keys(), inst
        assert len(one_pass) <= 2, inst
        for config, weight in one_pass.items():
            assert abs(weight - reference[config]) <= 1e-12, inst


def test_collapse_certifies_the_weights_sum_to_one():
    machine, psi = _unitary_stage(WORKED)
    assert sum(collapse(psi, machine).branches.values()) == pytest.approx(1.0, abs=1e-12)
    drifted = ConfigSuperposition({c: a * (1 + 1e-9) for c, a in psi.branches.items()})
    with pytest.raises(ArithmeticError, match="trace-preserving"):
        collapse(drifted, machine)
