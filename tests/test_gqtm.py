import copy
import io
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from satchaos.amplifier import amplify_detect, iteration_window, snap_dyadic
from satchaos.circuit import run as circuit_run
from satchaos.config import SINGLE_OP_ATOL, GuardExceeded
from satchaos.gqtm.machine import (
    BLANK,
    EMPTY_TAPE,
    MAX_PHASE_STEPS,
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
from satchaos.gqtm.planes import LockstepError, Planes
from satchaos.gqtm.program import (
    AND_EVAL,
    COLLAPSE_STAGE,
    ERASE,
    HANDOFF,
    OR_EVAL,
    UNITARY_STAGE,
    _bit_plane,
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
    run_classical_branches,
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


def small_cnfs_up_to(max_n: int, max_m: int = 4):
    """(n, clauses) with n <= max_n, m <= max_m; duplicate and opposed
    literals within a clause allowed."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                    min_size=1, max_size=4,
                ),
                min_size=1, max_size=max_m,
            ),
        )
    )


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
    phase = Phase("toy", "bookkeeping", t, "scan", frozenset({"done"}))
    psi, steps = run_phase(ConfigSuperposition.pure(config), phase)
    assert steps == 3
    (final,) = psi.branches
    assert final.state == "done"
    assert final.tracks[0] == (0, ("1", "1"))
    # The reference reads the rules as written: the table holds no other form.
    assert vars(t).keys() == {
        "name", "num_tracks", "read_tracks", "write_tracks", "alphabets", "rules"
    }


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
        assert not report.normalization_defects, report
    for name in ("setup", "dft", "or_eval", "and_eval", "handoff", "increment", "compare"):
        assert reports[name].unitary, reports[name]
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


def _encode_per_bit(inst) -> tuple[str, ...]:
    """The track-0 encoding read off the literals one variable at a time."""
    n = inst.num_vars
    symbols = ["0"] * n + ["X"]
    for clause in inst.clauses:
        for marker, negated in (("C_S", False), ("Y", True)):
            occurs = {lit.variable for lit in clause.literals if lit.negated == negated}
            symbols.append(marker)
            symbols.extend("1" if k in occurs else "0" for k in range(1, n + 1))
        symbols.append("C_E")
    return tuple(symbols)


@given(small_cnfs_up_to(16))
@example((16, [[16, -16, 16], [1, -1]]))
@example((9, [[9]]))
@settings(max_examples=200, deadline=None)
def test_encoding_matches_its_per_bit_definition(cnf):
    """Each mask fills its n cells low variable first, whatever the
    duplicates and signs in a clause, up to the 16-variable guard."""
    inst = instance_from_ints(*cnf)
    assert encode_sat_input(inst) == _encode_per_bit(inst)


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


@pytest.mark.parametrize("inst, decision, unitary_steps, rows", [
    (WORKED, "SAT", 79, 81),
    (instance_from_ints(3, [[1], [-1]]), "UNSAT", 62, 66),
], ids=["worked", "unsat"])
def test_step_accounting_is_pinned(inst, decision, unitary_steps, rows):
    """No shortcut in the executor may change how many steps a run reports,
    or how many JSONL rows it writes."""
    sink = io.StringIO()
    result = run_sat_gqtm(inst, jsonl_sink=sink)
    assert result.decision == decision
    assert result.unitary_steps == unitary_steps
    assert len(sink.getvalue().splitlines()) == rows


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
    with pytest.raises(GuardExceeded, match="17 variables"):
        run_sat_gqtm(instance_from_ints(17, [[1, 2, 3]]))
    result = run_sat_gqtm(instance_from_ints(16, [[1, 2, 3]]))  # the widest accepted
    assert result.q_squared == 7 / 8 and result.branch_count == 1 << 16


@pytest.mark.parametrize("num_vars", [4, 8, 12, 16])
def test_counter_reaches_the_limit_at_every_accepted_width(num_vars):
    """An unsatisfiable run exits through compare's equal branch, so the
    counter must count up to the iteration limit at every width the guard
    accepts."""
    result = run_sat_gqtm(instance_from_ints(num_vars, [[1], [-1]]))
    assert result.decision == "UNSAT"
    assert result.trace.x == (0.0,) * (iteration_window(num_vars) + 1)


def test_classical_branches_match_eval():
    for bits in itertools.product((0, 1), repeat=3):
        clause_bits, result = run_classical_branch(WORKED, bits)
        assert result == eval_instance(WORKED, bits)
        assert clause_bits == tuple(
            eval_clause(clause, bits) for clause in WORKED.clauses
        )
    for bits in ((False, True, 0.0), (1.0, 0, True)):  # bits by value
        assert run_classical_branch(WORKED, bits) == run_classical_branch(
            WORKED, tuple(int(b) for b in bits))
    for bits in ((0, 1), (0.9, 0, 1), (0, "1", 0)):  # not truncated to a bit
        with pytest.raises(ValueError):
            run_classical_branch(WORKED, bits)
    with pytest.raises(ValueError):
        run_classical_branches(WORKED, [(0, 1, 0), (0, 2, 0)])
    assert run_classical_branches(WORKED, []) == []


@pytest.mark.parametrize("width", [8, 1 << 14])  # masks too wide to print
def test_replay_readout_refuses_a_cell_without_a_bit(width):
    full = (1 << width) - 1
    for cell, held, covered in (
        ({"1": full >> 1, "A": 1 << (width - 1)}, r"\['1', 'A'\]", width - 1),
        ({"A": full}, r"\['A'\]", 0),  # a non-bit symbol on every branch
    ):
        planes = Planes(width, (0, 0, 0, 0), {}, [{}, {}, {}, {0: cell}])
        with pytest.raises(RuntimeError, match=rf"{held} on {covered} of {width}"):
            _bit_plane(planes, 3, 0, AND_EVAL)


@given(small_cnfs_up_to(8), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_replays_equal_single_replays_and_eval(cnf, data):
    """Any list of assignments, repeats and any order included, replays in
    one pass exactly as one replay per assignment, and as direct evaluation."""
    inst = instance_from_ints(*cnf)
    n = inst.num_vars
    assignments = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), max_size=40))
    batched = run_classical_branches(inst, assignments)
    assert batched == [run_classical_branch(inst, bits) for bits in assignments]
    assert batched == [
        (tuple(eval_clause(c, bits) for c in inst.clauses), eval_instance(inst, bits))
        for bits in assignments
    ]


def test_factored_stages_equal_integrated_run():
    """Running unitary stage, collapse, and detection by hand on the dict
    engine must reproduce run_sat_gqtm, whose weights are exact."""
    integrated = run_sat_gqtm(WORKED)
    n, r = WORKED.num_vars, count_models(WORKED)
    assert integrated.weights_raw == ((2**n - r) / 2**n, r / 2**n)

    machine, psi = _unitary_stage(WORKED)
    assert abs(psi.norm_sq() - 1.0) < 1e-9

    weights = {
        config.symbol_at(3, 0): weight
        for config, weight in _per_component_collapse(machine, psi).items()
    }
    assert abs(weights["1"] - integrated.weights_raw[1]) <= SINGLE_OP_ATOL
    assert abs(weights["0"] - integrated.weights_raw[0]) <= SINGLE_OP_ATOL

    q_squared, _ = snap_dyadic(weights["1"], 3)
    reference = amplify_detect(q_squared, 3)
    assert reference.x == integrated.trace.x
    assert reference.decision == integrated.decision


@given(small_cnfs_up_to(3))
@settings(max_examples=150, deadline=None)
def test_machine_counts_models_and_replays_every_branch(cnf):
    inst = instance_from_ints(*cnf)
    n = inst.num_vars
    assert abs(run_sat_gqtm(inst).weights_raw[1] * 2 ** n - count_models(inst)) < 1e-9
    for bits in itertools.product((0, 1), repeat=n):
        clause_bits, result = run_classical_branch(inst, bits)
        assert result == eval_instance(inst, bits)
        assert clause_bits == tuple(eval_clause(c, bits) for c in inst.clauses)


@given(small_cnfs_up_to(12, max_m=24))
@settings(max_examples=40, deadline=None)
def test_machine_weight_is_the_exact_model_fraction(cnf):
    inst = instance_from_ints(*cnf)
    n, r = inst.num_vars, count_models(inst)
    result = run_sat_gqtm(inst)
    assert result.weights_raw == ((2**n - r) / 2**n, r / 2**n)
    assert result.branch_count == 2**n
    assert result.trace.x == amplify_detect(r / 2**n, n).x


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


def _planes_stage(inst, on_step=None):
    machine = sat_machine(inst.num_vars)
    planes = Planes.from_configuration(initial_configuration(machine, inst))
    steps = sum(planes.run_phase(machine.phase(name), on_step) for name in UNITARY_STAGE)
    return machine, planes, steps


def _amplitudes(planes):
    """The planes read back branch by branch as configuration → amplitude."""
    scale = 2 ** (-planes.forks / 2)
    amplitudes = {}
    for i in range(planes.width):
        config = planes.branch(i)
        amp = -scale if planes.sign >> i & 1 else scale
        amplitudes[config] = amplitudes.get(config, 0.0) + amp
    return amplitudes


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _dict_collapse(psi, machine):
    """The collapse as one weighted pass on the dict engine: each branch's
    weight |amplitude|² steps through erase and handoff, and identical
    successors add their weights."""
    rho = ConfigSuperposition({c: abs(a) ** 2 for c, a in psi.branches.items()})
    for name in COLLAPSE_STAGE:
        rho, _ = run_phase(rho, machine.phase(name))
    return rho


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
    return corpus + list(EDGE_INSTANCES) + [WORKED, OPPOSITE_PHASE]


OPPOSITE_PHASE = instance_from_ints(2, [[1, 2], [-1, -2]])  # criterion 7's pair


def test_one_pass_collapse_matches_per_component_reference():
    for inst in _collapse_corpus():
        machine, psi = _unitary_stage(inst)
        reference = _per_component_collapse(machine, psi)
        dict_pass = _dict_collapse(psi, machine).branches
        _, planes, _ = _planes_stage(inst)
        accept, idle = collapse(planes, machine)
        # Every branch of a mask is one configuration (collapse checks it).
        planes_pass = {
            planes.branch(_lowest(m)): planes.mass(m.bit_count())
            for m in (accept, idle) if m
        }
        assert dict_pass.keys() == planes_pass.keys() == reference.keys(), inst
        r = count_models(inst)
        for config, weight in planes_pass.items():
            exact = r if config.symbol_at(3, 0) == "1" else 2**inst.num_vars - r
            assert weight == exact / 2**inst.num_vars, inst
            assert abs(weight - reference[config]) <= 1e-12, inst
            assert abs(dict_pass[config] - reference[config]) <= 1e-12, inst


def test_collapse_certifies_the_weights_sum_to_one():
    machine, planes, _ = _planes_stage(WORKED)
    accept, idle = collapse(planes, machine)
    assert accept & idle == 0 and accept | idle == (1 << planes.width) - 1
    assert planes.mass(accept.bit_count()) + planes.mass(idle.bit_count()) == 1.0

    machine, planes, _ = _planes_stage(WORKED)
    ((state, mask),) = planes.groups.items()
    planes.groups[state] = mask & ~(1 << 5)  # plant a lost branch
    with pytest.raises(ArithmeticError, match="trace-preserving"):
        collapse(planes, machine)


N14 = instance_from_ints(14, [[1, 2, 3]])


def _full_dict(planes, sym):
    """``sym`` on every branch as a dict: the planes read it, never write it."""
    return {sym: (1 << planes.width) - 1}


def _bare(planes, sym):
    """``sym`` on every branch as the planes write it."""
    return sym


def _plant_stray_track_1_cell(planes, form):
    # Beyond the assignment bits and a blank, where the erasure never looks.
    planes.tracks[1][max(planes.tracks[1]) + 4] = form(planes, "1")


def _plant_track_3_cell_on_one_branch(planes, form):
    planes.tracks[3][40] = {"1": 1 << 3}  # past the counter, on branch 3 only


def _plant_non_bit_result(planes, form):
    planes.tracks[3][0] = form(planes, "A")


@pytest.mark.parametrize("plant, form, error, match", [
    (_plant_stray_track_1_cell, _full_dict, RuntimeError, "not blank"),
    (_plant_stray_track_1_cell, _bare, RuntimeError, "not blank"),
    (_plant_track_3_cell_on_one_branch, None, RuntimeError, "one per result bit"),
    (_plant_non_bit_result, _full_dict, StuckConfigurationError, "handoff_read"),
    (_plant_non_bit_result, _bare, StuckConfigurationError, "handoff_read"),
], ids=["stray-workspace-cell", "stray-workspace-cell-bare", "split-result-configuration",
        "non-bit-result", "non-bit-result-bare"])
@pytest.mark.parametrize("inst", [WORKED, N14], ids=["worked", "n14"])  # masks too wide to print
def test_collapse_refuses_a_broken_readout(plant, form, error, match, inst):
    machine, planes, _ = _planes_stage(inst)
    plant(planes, form)
    with pytest.raises(error, match=match):
        collapse(planes, machine)


@pytest.mark.parametrize("inst, form", [
    pytest.param(WORKED, _full_dict, id="worked"),
    pytest.param(N14, _full_dict, id="n14"),  # masks too wide to print
    pytest.param(WORKED, _bare, id="worked-bare"),
    pytest.param(N14, _bare, id="n14-bare"),
])
def test_run_refuses_branches_it_cannot_prove_distinct(inst, form, monkeypatch):
    """Once the unitary stage ends, variable 0 reads 0 on every branch, so
    branches that differ only in it share their track 1."""
    run_phase = Planes.run_phase

    def planted(planes, phase, on_step=None):
        steps = run_phase(planes, phase, on_step)
        if phase.name == UNITARY_STAGE[-1]:
            planes.tracks[1][0] = form(planes, "0")
        return steps

    monkeypatch.setattr(Planes, "run_phase", planted)
    with pytest.raises(LockstepError, match="one assignment per branch"):
        run_sat_gqtm(inst)


def test_a_cell_that_every_branch_shares_holds_no_mask(monkeypatch):
    """After the unitary stage of a seeded n = 14 run, every input cell is
    its bare symbol, shared by all 2^14 branches, and every assignment cell
    is a dict of both bits."""
    run_phase = Planes.run_phase
    seen = []

    def capture(planes, phase, on_step=None):
        steps = run_phase(planes, phase, on_step)
        if phase.name == UNITARY_STAGE[-1]:
            seen.append((planes.width, dict(planes.tracks[0]), dict(planes.tracks[1])))
        return steps

    monkeypatch.setattr(Planes, "run_phase", capture)
    inst = _random_instance(random.Random(14), 14)
    assert run_sat_gqtm(inst).weights_raw[1] * 2**14 == count_models(inst)
    [(width, track0, track1)] = seen
    assert width == 1 << 14
    assert track0 == dict(enumerate(encode_sat_input(inst)))  # no dict equals a str
    assert sorted(track1) == list(range(14))
    for cell in track1.values():
        assert isinstance(cell, dict) and cell.keys() == {"0", "1"}


# --- the bit-plane executor against the dict engine ----------------------------

def _assert_executor_matches_reference(inst):
    machine, psi = _unitary_stage(inst)
    _, planes, steps = _planes_stage(inst)
    amplitudes = _amplitudes(planes)
    assert amplitudes.keys() == psi.branches.keys(), inst
    for config, amp in psi.branches.items():
        assert abs(amplitudes[config] - amp) <= 1e-12, inst
    assert len(amplitudes) == len(psi), inst

    reference = _per_component_collapse(machine, psi)
    result = run_sat_gqtm(inst)
    assert result.branch_count == len(psi), inst
    assert result.unitary_steps == steps, inst
    bits = {config.symbol_at(3, 0): w for config, w in reference.items()}
    assert abs(result.weights_raw[1] - bits.get("1", 0.0)) <= 1e-12, inst
    assert abs(result.weights_raw[0] - bits.get("0", 0.0)) <= 1e-12, inst
    assert result.weights_raw[1] * 2**inst.num_vars == count_models(inst), inst


@given(small_cnfs_up_to(6, max_m=8))
@settings(max_examples=40, deadline=None)
def test_executor_matches_the_dict_engine(cnf):
    _assert_executor_matches_reference(instance_from_ints(*cnf))


@pytest.mark.parametrize("num_vars", [7, 8])
def test_executor_matches_the_dict_engine_seeded(num_vars):
    rng = random.Random(num_vars)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(2 * num_vars)
    ]
    _assert_executor_matches_reference(instance_from_ints(num_vars, clauses))


@pytest.mark.parametrize("inst", [WORKED, OPPOSITE_PHASE], ids=["worked", "opposite-phase"])
def test_jsonl_rows_match_the_dict_engine(inst):
    sink = io.StringIO()
    result = run_sat_gqtm(inst, jsonl_sink=sink)
    rows = [json.loads(line) for line in sink.getvalue().splitlines()]

    reference = []
    machine = sat_machine(inst.num_vars)
    psi = ConfigSuperposition.pure(initial_configuration(machine, inst))
    for name in UNITARY_STAGE:
        psi, _ = run_phase(
            psi, machine.phase(name),
            lambda cur, mass: reference.append((len(cur), cur.norm_sq(), mass)),
        )
    assert len(reference) == result.unitary_steps
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))
    for row, (branches, norm, mass) in zip(rows, reference):
        assert row["branch_count"] == branches
        assert abs(row["norm"] - norm) <= 1e-12
        assert abs(row["halting_prob"] - mass) <= 1e-12
    loop_rows = rows[len(reference):]
    assert [row["halting_prob"] for row in loop_rows] == list(result.trace.x)
    assert all(row["norm"] == 1.0 for row in loop_rows)
    results = len(_dict_collapse(psi, machine))  # result values present
    assert all(row["branch_count"] == results for row in loop_rows)


def _fork_table(amps_on_0, amps_on_1) -> TransitionFunction:
    """One track; each symbol's row moves on with the given amplitudes. A
    target given as ``(amp, move)`` moves the head by ``move``, any other
    target by +1."""
    t = TransitionFunction("fork", 1, (0,), (0,), {0: ("0", "1")})
    for sym, targets in (("0", amps_on_0), ("1", amps_on_1)):
        rows = []
        for i, target in enumerate(targets):
            amp, move = target if isinstance(target, tuple) else (target, +1)
            rows.append(rule(amp, "done", writes={0: str(i)}, moves={0: move}))
        t.add("s", (sym,), rows)
    return t


def _two_branches() -> Planes:
    """Branch 0 reads "0" and branch 1 reads "1" under one head."""
    return Planes(2, (0,), {"s": 0b11}, [{0: {"0": 0b01, "1": 0b10}}])


HADAMARD = ((SQRT_HALF, SQRT_HALF), (SQRT_HALF, -SQRT_HALF))


@pytest.mark.parametrize("amps_on_0, amps_on_1, match", [
    ((SQRT_HALF, SQRT_HALF), (1,), "does not fork in two"),
    ((SQRT_HALF, SQRT_HALF), (0.6, 0.8), "does not weigh 1/2"),
    ((1,), (1j,), "is not ±1"),
    ((0.6, 0.8j, 0.0), (1,), "does not fork in two"),
    pytest.param((1,), ((1, -1),), "move the heads apart", id="rows-move-apart"),
    pytest.param((1,), ((1, 0),), "move the heads apart", id="one-row-stays"),
    pytest.param(((SQRT_HALF, +1), (SQRT_HALF, -1)), ((SQRT_HALF, +1), (-SQRT_HALF, -1)),
                 "move the heads apart", id="fork-targets-move-apart"),
])
def test_tables_that_break_lockstep_are_refused(amps_on_0, amps_on_1, match):
    table = _fork_table(amps_on_0, amps_on_1)
    with pytest.raises(LockstepError, match=match):
        _two_branches().step(table, frozenset({"done"}))


def _one_branch(symbols: dict[int, str]) -> Planes:
    """One branch in state ``s`` with ``symbols`` on its one track, head at 0."""
    return Planes(1, (0,), {"s": 1}, [{pos: {sym: 1} for pos, sym in symbols.items()}])


def _fork_phase(table: TransitionFunction) -> Phase:
    return Phase("fork", "logic", table, "s", frozenset({"done"}))


def test_one_branch_refuses_an_amplitude_that_is_not_a_sign():
    table = _fork_table((1,), (1j,))
    with pytest.raises(LockstepError, match="is not ±1"):
        _one_branch({0: "1"}).step(table, frozenset({"done"}))
    with pytest.raises(LockstepError, match="is not ±1"):
        _one_branch({0: "1"}).run_phase(_fork_phase(table))


@pytest.mark.parametrize("symbols, read", [({}, BLANK), ({0: "2"}, "2")],
                         ids=["blank", "unkeyed-symbol"])
@pytest.mark.parametrize("how", ["step", "run_phase"])
def test_one_branch_without_a_row_is_stuck(symbols, read, how):
    table = _fork_table((1,), (1,))
    planes = _one_branch(symbols)
    with pytest.raises(StuckConfigurationError, match=rf"state 's' reading \('{read}',\)") as err:
        if how == "step":
            planes.step(table, frozenset({"done"}))
        else:
            planes.run_phase(_fork_phase(table))
    assert (err.value.state, err.value.symbols) == ("s", (read,))


def _step_through(planes: Planes, phase: Phase) -> int:
    """``planes.run_phase(phase)`` taken one :meth:`Planes.step` at a time."""
    planes.groups = {phase.entry: (1 << planes.width) - 1}
    steps, running = 0, True
    while running:
        running = planes.step(phase.delta, phase.finals)
        steps += 1
    return steps


def _snapshot(planes: Planes):
    return planes.width, planes.forks, planes.heads, planes.groups, planes.tracks, planes.sign


def _counted_splits(monkeypatch) -> list[str]:
    """Patch Planes._split to note the name of each table it steps."""
    split = Planes._split
    names = []

    def counted(planes, compiled, delta, *args):
        names.append(delta.name)
        return split(planes, compiled, delta, *args)

    monkeypatch.setattr(Planes, "_split", counted)
    return names


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
def test_shared_rows_step_like_the_split_path(bits):
    """A one-branch replay through run_phase ends exactly where stepping it
    through Planes.step does, in the same number of steps."""
    def replay():
        track0 = {i: {s: 1} for i, s in enumerate(encode_sat_input(WORKED))}
        track1 = {k: {str(b): 1} for k, b in enumerate(bits)}
        return Planes(1, (0, 0, 0, 0), {"any": 1}, [track0, track1, {}, {}])

    shared, split = replay(), replay()
    for phase in (OR_EVAL, AND_EVAL):
        assert shared.run_phase(phase) == _step_through(split, phase)
        assert _snapshot(shared) == _snapshot(split)


def test_shared_rows_carry_the_sign():
    table = _fork_table((-1,), ((-1, 0),))
    planes = _one_branch({0: "0"})
    assert planes.run_phase(_fork_phase(table)) == 1
    assert (planes.sign, planes.heads, planes.groups) == (1, (1,), {"done": 1})
    planes = _one_branch({0: "1"})
    assert planes.run_phase(_fork_phase(table)) == 1
    assert (planes.sign, planes.heads, planes.tracks) == (1, (0,), [{0: "0"}])


def test_a_symbol_on_some_branches_splits_the_group(monkeypatch):
    """Branch 0 reads "0" and branch 1 a blank, keys with different rules:
    the step splits, and each branch takes its own row."""
    table = TransitionFunction("t", 1, (0,), (0,), {0: ("0", "1")})
    table.add("s", ("0",), [rule(1, "done", writes={0: "1"}, moves={0: +1})])
    table.add("s", (BLANK,), [rule(1, "done", moves={0: +1})])
    splits = _counted_splits(monkeypatch)
    planes = Planes(2, (0,), {"s": 0b11}, [{0: {"0": 0b01}}])
    assert planes.run_phase(_fork_phase(table)) == 1
    assert splits == ["t"]
    assert (planes.heads, planes.tracks) == ((1,), [{0: {"1": 0b01}}])


def test_replays_never_take_the_split_path(monkeypatch):
    def split(*args):
        raise AssertionError("a one-branch replay took the split path")

    monkeypatch.setattr(Planes, "_split", split)
    for bits in itertools.product((0, 1), repeat=3):
        assert run_classical_branch(WORKED, bits)[1] == eval_instance(WORKED, bits)


def test_planes_read_rules_added_after_a_step():
    table = TransitionFunction("grow", 1, (0,), (0,), {0: ("0", "1")})
    table.add("s", ("0",), [rule(1, "s", writes={0: "1"}, moves={0: +1})])
    planes = _one_branch({0: "0"})
    finals = frozenset({"done"})
    assert planes.step(table, finals)
    with pytest.raises(StuckConfigurationError):
        planes.step(table, finals)
    table.add("s", (BLANK,), [rule(1, "done")])
    assert not planes.step(table, finals)
    assert (planes.heads, planes.groups, planes.tracks) == ((1,), {"done": 1}, [{0: "1"}])


def _random_instance(rng: random.Random, num_vars: int):
    clauses = [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))]
        for _ in range(rng.randint(1, num_vars + 1))
    ]
    return instance_from_ints(num_vars, clauses)


def _assert_canonical(planes: Planes, name: str) -> None:
    """Every cell is a bare symbol other than the blank, or a dict of
    non-empty masks in which no one symbol covers the width."""
    full = (1 << planes.width) - 1
    for t, cells in enumerate(planes.tracks):
        for pos, cell in cells.items():
            if isinstance(cell, str):
                assert cell != BLANK, (name, t, pos)
            else:
                assert cell and all(cell.values()), (name, t, pos, cell)
                assert list(cell.values()) != [full], (name, t, pos, cell)


@pytest.mark.parametrize("num_vars", range(1, 7))
def test_every_phase_steps_like_the_split_path(num_vars, monkeypatch):
    """Each run_phase of a full run, its detection loop, a batched replay
    and one-assignment replays ends where stepping a copy through Planes.step
    alone ends, in as many steps."""
    run = Planes.run_phase
    phases = set()

    def against_the_split(planes, phase, on_step=None):
        split = copy.deepcopy(planes)
        steps = run(planes, phase, on_step)
        assert _step_through(split, phase) == steps, phase.name
        assert _snapshot(planes) == _snapshot(split), phase.name
        _assert_canonical(planes, phase.name)
        _assert_canonical(split, phase.name)
        phases.add(phase.name)
        return steps

    monkeypatch.setattr(Planes, "run_phase", against_the_split)
    rng = random.Random(num_vars)
    for _ in range(3):
        inst = _random_instance(rng, num_vars)
        run_sat_gqtm(inst)
        assignments = list(itertools.product((0, 1), repeat=num_vars))
        results = [eval_instance(inst, bits) for bits in assignments]
        assert [r for _, r in run_classical_branches(inst, assignments)] == results
        assert [run_classical_branch(inst, bits)[1] for bits in assignments] == results
    assert phases >= set(UNITARY_STAGE + COLLAPSE_STAGE)


def test_a_cell_written_under_a_still_head_is_read_again():
    """The merged lane re-reads a cell its rule wrote though no head moved:
    "s" writes "1" in place, and "t" moves the head by what it reads there."""
    table = TransitionFunction("in-place", 1, (0,), (0,), {0: ("0", "1")})
    table.add("s", ("0",), [rule(1, "t", writes={0: "1"})])
    table.add("t", ("0",), [rule(1, "done", moves={0: -1})])
    table.add("t", ("1",), [rule(1, "done", moves={0: +1})])
    phase = _fork_phase(table)
    merged, split = _one_branch({0: "0"}), _one_branch({0: "0"})
    assert merged.run_phase(phase) == _step_through(split, phase) == 2
    assert _snapshot(merged) == _snapshot(split)
    assert (merged.heads, merged.tracks) == ((1,), [{0: "1"}])


def _bit_table(on_0, on_1, *, on_blank=None, tracks=1) -> TransitionFunction:
    """State ``s`` reading "0" or "1" on every one of ``tracks`` tracks (the
    same symbol on each); ``None`` leaves a key without a rule."""
    table = TransitionFunction("bits", tracks, tuple(range(tracks)), (0,),
                               {t: ("0", "1") for t in range(tracks)})
    for sym, target in (("0", on_0), ("1", on_1), (BLANK, on_blank)):
        if target is not None:
            table.add("s", (sym,) * tracks, [target])
    return table


def _zero_and_one(tracks=1) -> Planes:
    """Branch 0 reads "0" and branch 1 reads "1" on every track."""
    return Planes(2, (0,) * tracks, {"s": 0b11},
                  [{0: {"0": 0b01, "1": 0b10}} for _ in range(tracks)])


DONE = rule(1, "done", moves={0: +1})


def test_a_key_that_no_branch_reads_needs_no_rule(monkeypatch):
    """The product of ("0", "1") on two tracks holds ("0", "1") and
    ("1", "0"), which no branch reads and no rule keys: the step splits and
    goes through."""
    splits = _counted_splits(monkeypatch)
    planes = _zero_and_one(tracks=2)
    assert planes.run_phase(_fork_phase(_bit_table(DONE, DONE, tracks=2))) == 1
    assert splits == ["bits"]
    assert (planes.heads, planes.groups) == ((1, 0), {"done": 0b11})


@pytest.mark.parametrize("width, cell", [(2, {"0": 0b01}), (3, {"0": 0b001, "1": 0b010})],
                         ids=["one-symbol", "two-symbols"])
def test_symbols_on_part_of_the_mask_also_read_a_blank(width, cell, monkeypatch):
    """The last branch reads a blank: a table without a blank row is stuck,
    and one whose blank row is the row of every symbol merges."""
    def partly_blank():
        return Planes(width, (0,), {"s": (1 << width) - 1}, [{0: dict(cell)}])

    write_one = rule(1, "done", writes={0: "1"}, moves={0: +1})
    with pytest.raises(StuckConfigurationError) as err:
        partly_blank().run_phase(_fork_phase(_bit_table(write_one, write_one)))
    assert err.value.symbols == (BLANK,)

    splits = _counted_splits(monkeypatch)
    merged, split = partly_blank(), partly_blank()
    phase = _fork_phase(_bit_table(write_one, write_one, on_blank=write_one))
    assert merged.run_phase(phase) == _step_through(split, phase) == 1
    assert splits == ["bits"]  # _step_through's step only
    assert _snapshot(merged) == _snapshot(split)
    assert merged.tracks == [{0: "1"}]


def test_a_merged_write_over_two_symbols_leaves_one(monkeypatch):
    splits = _counted_splits(monkeypatch)
    write_one = rule(-1, "done", writes={0: "1"}, moves={0: +1})
    planes = _zero_and_one()
    assert planes.run_phase(_fork_phase(_bit_table(write_one, write_one))) == 1
    assert splits == []
    assert (planes.heads, planes.groups, planes.sign) == ((1,), {"done": 0b11}, 0b11)
    assert planes.tracks == [{0: "1"}]


def test_a_lost_branch_keeps_its_cells():
    """Branch 1 is in no group: the step writes "1" for branch 0 alone and
    leaves branch 1 the "0" that both held, as the split does."""
    def one_lost():
        return Planes(2, (0,), {"s": 0b01}, [{0: "0"}])

    table = _bit_table(rule(1, "done", writes={0: "1"}, moves={0: +1}), None)
    merged, split = one_lost(), one_lost()
    assert merged.run_phase(_fork_phase(table)) == 1
    assert not split.step(table, frozenset({"done"}))
    assert _snapshot(merged) == _snapshot(split)
    assert merged.tracks == [{0: {"0": 0b10, "1": 0b01}}]


def test_run_phase_reads_rules_added_after_a_memoised_step(monkeypatch):
    """A verdict memoised while "1" had no rule does not outlive the rule."""
    table = _bit_table(DONE, None)
    phase = _fork_phase(table)
    with pytest.raises(StuckConfigurationError):
        _zero_and_one().run_phase(phase)
    table.add("s", ("1",), [DONE])
    splits = _counted_splits(monkeypatch)
    planes = _zero_and_one()
    assert planes.run_phase(phase) == 1
    assert splits == []
    assert (planes.heads, planes.groups) == ((1,), {"done": 0b11})


@pytest.mark.parametrize("lane", ["merged", "split"])
def test_run_phase_stops_at_the_step_cap(lane, monkeypatch):
    """A table that never halts: one branch on a blank takes the merged lane,
    two branches whose rows differ in sign take the split lane."""
    splits = _counted_splits(monkeypatch)
    if lane == "merged":
        planes = _one_branch({})
        table = _bit_table(None, None, on_blank=rule(1, "s"))
    else:
        planes = _zero_and_one()
        table = _bit_table(rule(1, "s"), rule(-1, "s"))
    seen = []
    with pytest.raises(RuntimeError, match=f"exceeded {MAX_PHASE_STEPS} steps"):
        planes.run_phase(_fork_phase(table), lambda cur, mass: seen.append(mass))
    assert len(seen) == MAX_PHASE_STEPS and not any(seen)
    assert len(splits) == (0 if lane == "merged" else MAX_PHASE_STEPS)


def test_fork_beside_a_halted_branch_is_refused():
    def beside_halted():
        return Planes(2, (0,), {"s": 0b01, "done": 0b10}, [{0: {"0": 0b01, "1": 0b10}}])

    finals = frozenset({"done"})
    with pytest.raises(LockstepError, match="does not fork in two"):
        beside_halted().step(_fork_table(*HADAMARD), finals)
    with pytest.raises(LockstepError, match="moves the heads while some branch has halted"):
        beside_halted().step(_fork_table((1,), (1,)), finals)
    # A step that keeps the heads in place may run beside a halted branch.
    planes = beside_halted()
    assert not planes.step(_fork_table(((1, 0),), ((1, 0),)), finals)
    assert planes.heads == (0,) and planes.groups == {"done": 0b11}


def test_forks_double_the_branches_and_carry_signs():
    table = _fork_table(*HADAMARD)
    planes = _two_branches()
    assert not planes.step(table, frozenset({"done"}))
    assert (planes.width, planes.forks, planes.sign) == (4, 1, 0b1000)
    amplitudes = {c.symbol_at(0, 0): a for c, a in _amplitudes(planes).items()}
    psi = step(ConfigSuperposition({
        make_configuration("s", [{0: "0"}], [0]): 1.0,
        make_configuration("s", [{0: "1"}], [0]): 1.0,
    }), table, frozenset({"done"}))
    # Branches 0 and 1 take their row's first target and write "0"; their
    # copies 2 and 3 write "1", and 3 carries the minus sign. So the "0"
    # amplitudes add and the "1" amplitudes cancel.
    assert amplitudes == {"0": pytest.approx(2 * SQRT_HALF), "1": 0.0}
    assert {c.symbol_at(0, 0): a for c, a in psi.branches.items()} == {
        "0": pytest.approx(2 * SQRT_HALF)
    }
