import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import satchaos.circuit
import satchaos.cli
import satchaos.gqtm.program
import satchaos.pipeline
import satchaos.verify
from satchaos.amplifier import iteration_window, k_bounds
from satchaos.cli import (
    EXIT_FINDINGS,
    EXIT_GUARD,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    _json_text,
    main,
)
from satchaos.config import VERIFY_SUITES
from satchaos.gates import GateKind, placed
from satchaos.gqtm import LockstepError, StuckConfigurationError
from satchaos.sat import instance_from_ints, to_dimacs

WORKED_CNF = "p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n"
CONTRADICTION_CNF = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.cnf"
    path.write_text(WORKED_CNF)
    return str(path)


@pytest.fixture
def contradiction_path(tmp_path):
    path = tmp_path / "contradiction.cnf"
    path.write_text(CONTRADICTION_CNF)
    return str(path)


# --- solve -------------------------------------------------------------------

def test_solve_worked_example(worked_path, capsys):
    assert main(["solve", worked_path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3 and report["m"] == 3
    assert report["backend"] == "circuit"
    assert report["decision"] == "SAT"
    assert report["q_squared"] == 0.5
    assert report["r_oracle"] == 4
    assert report["layout"] == {
        "s": [4, 6, 8], "s_f": 10, "mu": 6,
        "single_clause": False, "total_qubits": 10,
    }
    amp = report["amplifier"]
    assert amp["a"] == 3.71 and amp["threshold"] == 0.5
    assert amp["k_star"] == 1 and amp["decision"] == "SAT"
    assert (amp["k_low"], amp["k_high"]) == k_bounds(3, 4)
    assert amp["iterations"] == 1
    assert report["gate_counts"]["H"] == 3
    assert report["gate_counts"]["OR"] == 5
    assert report["machine"] is None
    assert report["warnings"] == []
    assert report["timings"] is not None


@pytest.mark.parametrize("cnf, flags, decision, unitary_steps", [
    (WORKED_CNF, [], "SAT", 79),
    ("p cnf 3 2\n1 0\n-1 0\n", [], "UNSAT", 62),
    (WORKED_CNF, ["--a", "2.5", "--threshold", "0.9"], "INCONCLUSIVE", 79),
], ids=["worked", "unsat", "inconclusive"])
def test_solve_backends_agree(cnf, flags, decision, unitary_steps, tmp_path, capsys):
    path = tmp_path / "instance.cnf"
    path.write_text(cnf)
    argv = ["solve", str(path), "--deterministic", *flags]
    assert main(argv) == EXIT_OK
    circuit = json.loads(capsys.readouterr().out)
    assert main([*argv, "--backend", "gqtm"]) == EXIT_OK
    machine = json.loads(capsys.readouterr().out)

    for key in ("n", "m", "decision", "q_squared", "r_oracle", "layout", "amplifier"):
        assert circuit[key] == machine[key], key
    assert machine["decision"] == decision
    assert machine["gate_counts"] is None
    assert machine["machine"] == {"branch_count": 8, "unitary_steps": unitary_steps}
    assert circuit["machine"] is None


@pytest.mark.parametrize("backend", ["circuit", "gqtm"])
def test_solve_at_logistic_parameter_two(worked_path, backend, capsys):
    assert main(["solve", worked_path, "--backend", backend, "--a", "2"]) == EXIT_OK
    amplifier = json.loads(capsys.readouterr().out)["amplifier"]
    assert amplifier["a"] == 2.0 and amplifier["k_low"] == 0


def test_solve_writes_json_file(worked_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["solve", worked_path, "--json", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["decision"] == "SAT"


def test_solve_reports_regime_warning(tmp_path, capsys):
    path = tmp_path / "dense.cnf"
    path.write_text("p cnf 1 3\n1 0\n1 0\n1 0\n")
    assert main(["solve", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert any("2·n" in w for w in report["warnings"])


def test_deterministic_output_is_byte_identical(worked_path, capsys):
    argv = ["solve", worked_path, "--deterministic"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["timings"] is None


WORKED_REPORT = """\
{
  "amplifier": {
    "a": 3.71,
    "decision": "SAT",
    "iterations": 1,
    "k_high": 2,
    "k_low": 0,
    "k_star": 1,
    "threshold": 0.5
  },
  "backend": "circuit",
  "decision": "SAT",
  "gate_counts": {
    "AND": 2,
    "CCN": 0,
    "CN": 0,
    "COPY": 0,
    "H": 3,
    "NOT": 8,
    "OR": 5
  },
  "layout": {
    "mu": 6,
    "s": [
      4,
      6,
      8
    ],
    "s_f": 10,
    "single_clause": false,
    "total_qubits": 10
  },
  "m": 3,
  "machine": null,
  "n": 3,
  "q_squared": 0.5,
  "r_oracle": 4,
  "timings": null,
  "warnings": []
}
"""


WORKED_REPORT_GQTM = """\
{
  "amplifier": {
    "a": 3.71,
    "decision": "SAT",
    "iterations": 1,
    "k_high": 2,
    "k_low": 0,
    "k_star": 1,
    "threshold": 0.5
  },
  "backend": "gqtm",
  "decision": "SAT",
  "gate_counts": null,
  "layout": {
    "mu": 6,
    "s": [
      4,
      6,
      8
    ],
    "s_f": 10,
    "single_clause": false,
    "total_qubits": 10
  },
  "m": 3,
  "machine": {
    "branch_count": 8,
    "unitary_steps": 79
  },
  "n": 3,
  "q_squared": 0.5,
  "r_oracle": 4,
  "timings": null,
  "warnings": []
}
"""


def test_deterministic_report_bytes_are_pinned(worked_path, capsys):
    """The report's bytes are part of the CLI's contract: keys sorted, two
    spaces of indent, one trailing newline."""
    assert main(["solve", worked_path, "--deterministic"]) == EXIT_OK
    assert capsys.readouterr().out == WORKED_REPORT
    assert main(["solve", worked_path, "--backend", "gqtm", "--deterministic"]) == EXIT_OK
    assert capsys.readouterr().out == WORKED_REPORT_GQTM


SURROGATES = ["\ud800", "\udbff", "\udc00", "\udfff"]
json_text = st.lists(st.text() | st.sampled_from(SURROGATES), max_size=4).map("".join)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**63)
    | st.floats() | json_text
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(json_text, inner, max_size=5)
    ),
    max_leaves=40,
)


class _Count(int):
    """An int subclass whose repr is not its JSON text."""

    def __repr__(self):
        return "_Count()"


class _Ratio(float):
    """A float subclass whose repr is not its JSON text."""

    def __repr__(self):
        return "_Ratio()"


def _encodes_as_json(value):
    """The report encoder writes json's text or refuses where json does."""
    try:
        want = json.dumps(value, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(value)
    else:
        assert _json_text(value) == want


@given(json_values)
@example({"a": [-0.0, 1e300, float("nan"), float("inf"), float("-inf")], "b": {}})
@example([2**64, -(2**200), True, False, None, (), (1, "x"), []])
@example({"caf\u00e9": "\ud83d\ude00\ud800", "": [{}]})
@example([np.float64(0.1), np.float64("nan"), np.float64("-inf"), _Count(7), _Ratio(0.5)])
def test_report_encoder_matches_json(value):
    _encodes_as_json(value)


@given(st.dictionaries(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.tuples(st.integers()),
    st.integers(), max_size=4,
))
def test_report_encoder_keys_match_json(value):
    """json writes int, float, bool and None keys as text and refuses other
    keys; a mix it cannot sort is a TypeError in both."""
    _encodes_as_json(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [object()], {"a": b"bytes"}, {(1, 2): 3}, {"a": {frozenset(): 1}}, np.int64(3),
])
def test_report_encoder_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(value)


# --- trace -------------------------------------------------------------------

def test_trace_worked_example(worked_path, capsys):
    assert main(["trace", worked_path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["k,x_k,crossed", "0,0.5,0", "1,0.9275,1"]


def test_trace_unsat_stays_at_zero(contradiction_path, capsys):
    assert main(["trace", contradiction_path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,x_k,crossed"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == iteration_window(1) + 1
    assert all(x == "0.0" and crossed == "0" for _, x, crossed in rows)


def test_trace_row_count_respects_window(worked_path, capsys):
    assert main(["trace", worked_path, "--backend", "gqtm"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) - 1 <= iteration_window(3) + 1


def test_trace_at_logistic_parameter_two(worked_path, capsys):
    assert main(["trace", worked_path, "--a", "2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("k,x_k,crossed\n")


def test_trace_writes_csv_file(worked_path, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["trace", worked_path, "--csv", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == "k,x_k,crossed"


# --- error paths -------------------------------------------------------------

def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/thing.cnf"]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_path_names_it(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and repr(str(tmp_path)) in err


def test_unwritable_report_path_names_it(worked_path, tmp_path, capsys):
    out = str(tmp_path / "missing" / "report.json")
    assert main(["solve", worked_path, "--json", out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and repr(out) in err


def test_bad_dimacs_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 x 0\n")
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_non_utf8_input_is_a_dimacs_error(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\np cnf 1 1\n1 0\n")
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: input is not UTF-8 text (line 1)\n"


def test_utf8_input_is_read_whatever_the_locale(tmp_path):
    path = tmp_path / "utf8.cnf"
    path.write_bytes("c café\np cnf 1 1\n1 0\n".encode())
    src = str(Path(satchaos.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "satchaos.cli", "solve", str(path), "--deterministic"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["decision"] == "SAT"


def test_crlf_line_ends_decide(tmp_path, capsys):
    path = tmp_path / "crlf.cnf"
    path.write_bytes(b"p cnf 2 1\r\n1 -2 0\r\n")
    assert main(["solve", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["r_oracle"] == 3


def test_lone_carriage_return_is_refused_as_the_parser_refuses_it(tmp_path, capsys):
    """The CLI hands the decoded text to parse_dimacs unchanged: a ``\\r``
    that does not precede ``\\n`` is a separator error, not a line end."""
    path = tmp_path / "cr.cnf"
    path.write_bytes(b"p cnf 2 1\r1 -2 0\r")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: separator '\\r' is not a space or a tab (line 1)\n"
    )


def test_file_longer_than_one_read_decides_alike(worked_path, tmp_path, capsys):
    path = tmp_path / "long.cnf"
    path.write_text("c " + "x" * (1 << 20) + "\n" + WORKED_CNF)
    assert main(["solve", worked_path, "--deterministic"]) == EXIT_OK
    short = capsys.readouterr().out
    assert main(["solve", str(path), "--deterministic"]) == EXIT_OK
    assert capsys.readouterr().out == short


def test_empty_file_has_no_header(tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_bytes(b"")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: missing 'p cnf' header\n"


def test_solve_accepts_satlib_trailer(tmp_path, capsys):
    path = tmp_path / "satlib.cnf"
    path.write_text("p cnf 2 1\n1 -2 0\n%\n0\n")
    assert main(["solve", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 1 and report["r_oracle"] == 3


def test_circuit_guard_refusal(tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the guard must refuse before simulating")

    monkeypatch.setattr(satchaos.circuit, "bit_planes", unreachable)
    path = tmp_path / "thirty.cnf"
    path.write_text("p cnf 30 1\n1 2 3 0\n")  # 33 planes of 2^30 bits: 4.1 GiB
    assert main(["solve", str(path)]) == EXIT_GUARD
    assert "guard refusal" in capsys.readouterr().err


def test_wide_register_is_decided(tmp_path, capsys):
    rng = random.Random(20)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), 3)]
        for _ in range(80)
    ]
    path = tmp_path / "wide.cnf"
    path.write_text(to_dimacs(instance_from_ints(20, clauses)))
    assert main(["solve", str(path), "--deterministic"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["layout"]["total_qubits"] == 259
    assert report["r_oracle"] == report["q_squared"] * 2**20


def _random_3cnf(num_vars: int, num_clauses: int, seed: int) -> str:
    rng = random.Random(seed)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]
    return to_dimacs(instance_from_ints(num_vars, clauses))


def test_machine_backend_decides_twelve_variables(tmp_path, capsys):
    path = tmp_path / "twelve.cnf"
    path.write_text(_random_3cnf(12, 48, seed=12))
    assert main(["solve", str(path), "--deterministic"]) == EXIT_OK
    circuit = json.loads(capsys.readouterr().out)
    assert main(["solve", str(path), "--backend", "gqtm", "--deterministic"]) == EXIT_OK
    machine = json.loads(capsys.readouterr().out)
    assert machine["decision"] == circuit["decision"]
    assert machine["q_squared"] == circuit["q_squared"] == circuit["r_oracle"] / 2**12
    assert machine["machine"]["branch_count"] == 2**12


def test_machine_guard_refusal(tmp_path, capsys):
    path = tmp_path / "seventeen.cnf"
    path.write_text(_random_3cnf(17, 1, seed=17))
    assert main(["solve", str(path), "--backend", "gqtm"]) == EXIT_GUARD
    assert "17 variables" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    ArithmeticError("norm drifted to 1.5 during the unitary stage"),
    RuntimeError("workspace tracks not blank after erasure"),
    StuckConfigurationError("erase_input", ("?",), (0, 0, 0, 0)),
    LockstepError("dft: a forking step in which some branch does not fork in two"),
])
def test_invariant_break_exits_internal(worked_path, monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(satchaos.pipeline, "run_sat_gqtm", broken)
    assert main(["solve", worked_path, "--backend", "gqtm"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: ")


def test_a_counter_that_misses_the_window_exits_internal(tmp_path, monkeypatch, capsys):
    """A ``setup`` laid out for two variables makes the three-variable
    counter read equal one amplification before the window ends."""
    machine = satchaos.gqtm.program.sat_machine(3)
    planted = dataclasses.replace(
        machine, phases=(satchaos.gqtm.program.phase_setup(2), *machine.phases[1:])
    )
    monkeypatch.setattr(satchaos.gqtm.program, "sat_machine", lambda n: planted)
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 3 2\n1 0\n-1 0\n")
    assert main(["solve", str(path), "--backend", "gqtm"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: RuntimeError: the counter read cmp_eq_done "
        "after 2 of 3 amplifications\n"
    )


@pytest.mark.parametrize("command", ["solve", "trace"])
def test_run_commands_take_no_seed(worked_path, command):
    with pytest.raises(SystemExit):
        main([command, worked_path, "--seed", "1"])


def test_bad_range_argument(worked_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--n", "5"])


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "5"],
    ["solve", "x.cnf", "--seed", "1"],
    ["bogus"],
    ["trace", "x.cnf", "--deterministic"],
    ["verify", "gates", "--deterministic"],
])
def test_usage_errors_exit_input(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--count", "-3"), ("--max-n", "0")])
def test_verify_refuses_an_empty_oracle_range(flag, value, capsys):
    """A negative count would run the edge instances alone and report OK;
    no variable at all leaves no instance to draw."""
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "oracle", flag, value])
    assert excinfo.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: argument {flag}: must be at least" in captured.err
    assert "OK" not in captured.out


def test_verify_refuses_more_variables_than_the_qubit_budget_holds(capsys):
    """Every layout takes at least n + 2 qubits, so no instance above 18
    variables fits the 20-qubit budget: the draw would never end."""
    assert main(["verify", "oracle", "--count", "1", "--max-n", "19"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "at most 18 variables" in captured.err
    assert "OK" not in captured.out
    rng = random.Random(0)  # 18 variables still draw
    assert all(satchaos.verify.random_instance(rng, 18).num_vars <= 18 for _ in range(20))


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--help"])
    assert excinfo.value.code == EXIT_OK
    assert "--backend" in capsys.readouterr().out


# --- sweep -------------------------------------------------------------------

def test_sweep_csv_shape(capsys):
    assert main(["sweep", "--n", "2..5", "--r", "1,3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,r,x0,k_star,k_low,k_high,exists_within_2n,within_upper,meets_lower"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (n, r) for n in (2, 3, 4, 5) for r in (1, 3)
    ]
    for row in rows:
        assert row[3] != ""              # a crossing always exists here
        assert row[6] == "1" and row[7] == "1"
    anchor = next(r for r in rows if r[0] == "3" and r[1] == "1")
    assert anchor[3] == "2"


def test_sweep_at_logistic_parameter_two(capsys):
    assert main(["sweep", "--n", "2..4", "--a", "2"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[4] for row in rows] == ["0", "0", "0"]  # k_low


def test_sweep_rejects_bad_seeds(capsys):
    assert main(["sweep", "--r", "1,x"]) == EXIT_INPUT
    assert "--r" in capsys.readouterr().err
    assert main(["sweep", "--r", "0"]) == EXIT_INPUT
    assert ">= 1" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [*VERIFY_SUITES, "all"])
def test_verify_refuses_a_negative_seed_before_any_suite_runs(suite, capsys):
    """Every suite shares one seed domain: numpy's generator takes no
    negative seed, so the parser refuses it, naming the option."""
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", suite, "--seed", "-1"])
    assert excinfo.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error: argument --seed: must be at least 0, got -1" in captured.err
    assert captured.out == ""


def test_sweep_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2..3", "--csv", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 3


# --- verify ------------------------------------------------------------------

def test_verify_gates_suite(capsys):
    assert main(["verify", "gates"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gates" in out and "OK" in out
    assert "FINDING" not in out


def test_verify_bounds_prints_expected_warnings(capsys):
    assert main(["verify", "bounds", "--n", "2..6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bounds" in out
    assert out.count("warning:") == 3  # lower bound misses at n = 4, 5, 6
    assert "FINDING" not in out


def test_verify_gates_reports_a_malformed_circuit_gate(monkeypatch, capsys):
    build = satchaos.verify.build_circuit

    def planted(inst, lay=None):
        return build(inst, lay) + (placed(GateKind.CN, 1, 1),)

    monkeypatch.setattr(satchaos.verify, "build_circuit", planted)
    assert main(["verify", "gates"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "FINDING: edge:contradiction: gate " in out
    assert "CN(1, 1): positions must be distinct" in out


@pytest.mark.parametrize("engine, argv, finding", [
    ("circuit_run", ["verify", "oracle", "--count", "0"],
     "edge:contradiction: circuit model count 1 != oracle 0 "),
    ("run_sat_gqtm", ["verify", "tables"],
     "edge:contradiction: machine model count 1 != circuit 0 "),
])
def test_verify_reports_a_model_count_off_by_one(monkeypatch, capsys, engine, argv, finding):
    run = getattr(satchaos.verify, engine)

    def planted(inst):
        result = run(inst)
        return dataclasses.replace(result, models=result.models + 1)

    monkeypatch.setattr(satchaos.verify, engine, planted)
    assert main(argv) == EXIT_FINDINGS
    assert f"  FINDING: {finding}" in capsys.readouterr().out


def test_verify_findings_exit_findings(monkeypatch, capsys):
    def planted(seed):
        return satchaos.verify.SuiteResult("gates", 1, ("planted finding",), seed=seed)

    monkeypatch.setitem(satchaos.verify.SUITES, "gates", planted)
    assert main(["verify", "gates"]) == EXIT_FINDINGS
    assert "  FINDING: planted finding\n" in capsys.readouterr().out


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "gates", "--json", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["ok"] is True
    (suite,) = report["suites"]
    assert suite["suite"] == "gates" and suite["findings"] == []


# --- the README ----------------------------------------------------------------

def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    (tmp_path / "worked.cnf").write_text(WORKED_CNF)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "SAT 1\n"
