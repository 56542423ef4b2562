import pytest
from hypothesis import given, settings, strategies as st

from satchaos.config import GuardExceeded
from satchaos.sat import (
    Clause,
    DimacsError,
    Literal,
    assignment_from_index,
    count_models,
    count_models_clausewise,
    eval_clause,
    eval_instance,
    eval_literal,
    instance_from_ints,
    parse_dimacs,
    satisfying_indices,
    to_dimacs,
)

WORKED = "p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n"


def test_parse_worked_example():
    inst = parse_dimacs(WORKED)
    assert inst.num_vars == 3
    assert inst.num_clauses == 3
    assert inst.cards() == (3, 2, 3)
    assert inst.clauses[1].literals == (Literal(3), Literal(2, negated=True))


def test_parse_skips_comments_and_blank_lines():
    text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
    inst = parse_dimacs(text)
    assert inst.num_vars == 2 and inst.num_clauses == 1


def test_parse_clause_spanning_lines():
    inst = parse_dimacs("p cnf 3 1\n1 2\n-3 0\n")
    assert inst.cards() == (3,)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2 0\n", "before 'p cnf'"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate"),
        ("p cnf 2 1\n1 bogus 0\n", "non-integer"),
        ("p cnf x 1\n1 0\n", "non-integer"),
        ("p cnf 2 1\n0\n", "empty clause"),
        ("p cnf 2 2\n1 0\n", "declares 2 clauses"),
        ("p cnf 2 1\n3 0\n", "out of range"),
        ("p cnf 2 1\n1 2\n", "not 0-terminated"),
        ("p quux 2 1\n1 0\n", "malformed header"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises((DimacsError, ValueError), match=fragment):
        parse_dimacs(text)


def test_parse_reads_only_a_sign_and_ascii_digits():
    """``int`` reads "1_0" as 10, "٣" as 3 and "１" as 1; DIMACS does not."""
    assert parse_dimacs("p cnf +3 1\n+1 -3 0\n") == parse_dimacs("p cnf 3 1\n1 -3 0\n")
    for token in ("1_0", "٣", "１"):
        with pytest.raises(DimacsError, match="non-integer token") as err:
            parse_dimacs(f"p cnf 10 1\n2 {token} 0\n")
        assert err.value.line == 2
        with pytest.raises(DimacsError, match="non-integer counts"):
            parse_dimacs(f"p cnf {token} 1\n1 0\n")


SATLIB_TRAILER = "p cnf 2 1\n1 -2 0\n%\n0\n"


def test_parse_stops_at_satlib_trailer():
    inst = parse_dimacs(SATLIB_TRAILER)
    assert inst == parse_dimacs("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(DimacsError, match="not 0-terminated"):
        parse_dimacs("p cnf 2 1\n1 -2\n%\n0\n")


def test_parse_error_carries_line_number():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n1 bogus 0\n")
    assert err.value.line == 2
    assert "(line 2)" in str(err.value)


def test_roundtrip_through_dimacs():
    inst = parse_dimacs(WORKED)
    assert parse_dimacs(to_dimacs(inst)) == inst


def test_literal_and_clause_validation():
    with pytest.raises(ValueError):
        Literal(0)
    with pytest.raises(ValueError):
        Literal.from_int(0)
    with pytest.raises(ValueError):
        Clause(())
    assert Literal.from_int(-7) == Literal(7, negated=True)


def test_clause_masks_with_duplicates():
    clause = Clause(tuple(Literal.from_int(v) for v in (1, 1, -3)))
    pos, neg = clause.masks()
    assert pos == 0b001 and neg == 0b100
    assert clause.card == 3  # duplicates stay in the width count


def test_eval_hand_cases():
    inst = parse_dimacs(WORKED)
    assert eval_instance(inst, (0, 0, 0)) == 1
    assert eval_instance(inst, (0, 1, 0)) == 0
    lit = Literal(2, negated=True)
    assert eval_literal(lit, (0, 1, 0)) == 0
    assert eval_clause(inst.clauses[1], (0, 0, 1)) == 1


def test_eval_instance_length_check():
    inst = parse_dimacs(WORKED)
    with pytest.raises(ValueError):
        eval_instance(inst, (0, 1))


def test_worked_example_models():
    inst = parse_dimacs(WORKED)
    assert count_models(inst) == 4
    assert sorted(satisfying_indices(inst).tolist()) == [0, 1, 5, 7]


def test_edge_model_counts():
    assert count_models(instance_from_ints(1, [[1], [-1]])) == 0
    assert count_models(instance_from_ints(1, [[1, -1]])) == 2
    assert count_models(instance_from_ints(2, [[1], [-2]])) == 1


def test_assignment_indexing_is_bit_k_minus_1():
    assert assignment_from_index(3, 5) == (1, 0, 1)
    assert [assignment_from_index(2, i) for i in range(4)] == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]
    with pytest.raises(ValueError):
        assignment_from_index(2, 4)


def test_enumeration_guard():
    inst = instance_from_ints(31, [[1, 2]])
    with pytest.raises(GuardExceeded):
        count_models(inst)
    with pytest.raises(GuardExceeded):
        count_models_clausewise(inst)


def test_regime_warning_attached():
    inst = instance_from_ints(1, [[1], [1], [1]])
    assert any("2·n" in w for w in inst.warnings)


clause_lists = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.integers(1, n).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    ).map(lambda cls: (n, cls))
)


@given(clause_lists)
@settings(max_examples=200, deadline=None)
def test_model_counters_agree(data):
    n, cls = data
    inst = instance_from_ints(n, cls)
    fast = count_models(inst)
    slow = count_models_clausewise(inst)
    assert fast == slow
    assert fast == sum(
        eval_instance(inst, assignment_from_index(n, i)) for i in range(1 << n)
    )


@given(clause_lists)
@settings(max_examples=100, deadline=None)
def test_satisfying_indices_match_eval(data):
    n, cls = data
    inst = instance_from_ints(n, cls)
    indices = set(satisfying_indices(inst).tolist())
    for index in range(1 << n):
        bits = assignment_from_index(n, index)
        assert (index in indices) == bool(eval_instance(inst, bits))


# Free text; lines of DIMACS tokens in any order; and a header over clause
# lines with such a line after them, so that a good share of inputs parse.
dimacs_tokens = st.sampled_from(
    ["p", "cnf", "c", "%", "0", "-0", "00", "1", "-1", "+2", "2", "-2", "3", "-3",
     "5", "4294967296", "x", "1.5", "\t", "p cnf 2 1", "p cnf 0 0", "1_0", "٣", "１"]
)
dimacs_lines = st.lists(dimacs_tokens, max_size=6).map(" ".join)
clause_lines = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=3).map(
    lambda lits: " ".join(map(str, lits + [0]))
)
dimacs_soup = st.one_of(
    st.text(max_size=80),
    st.lists(st.one_of(dimacs_lines, st.text(max_size=10)), max_size=8).map("\n".join),
    st.tuples(
        st.integers(0, 3),
        st.lists(clause_lines, min_size=1, max_size=4),
        st.lists(dimacs_lines, max_size=1),
    ).map(lambda parts: "\n".join([f"p cnf {parts[0]} {len(parts[1])}", *parts[1], *parts[2]])),
)


@given(dimacs_soup)
@settings(max_examples=1000, deadline=None)
def test_any_text_parses_or_raises_dimacs_error(text):
    try:
        inst = parse_dimacs(text)
    except DimacsError:
        return
    assert inst.num_vars >= 1 and inst.num_clauses >= 1
    assert parse_dimacs(to_dimacs(inst)) == inst
