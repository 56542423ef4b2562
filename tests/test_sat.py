import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import satchaos.sat
from satchaos.config import GuardExceeded
from satchaos.sat import (
    Clause,
    DimacsError,
    Literal,
    count_models,
    count_models_clausewise,
    eval_clause,
    eval_instance,
    eval_literal,
    instance_from_ints,
    parse_dimacs,
    to_dimacs,
)
from satchaos.quantum import satisfying_indices

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


# Every character other than the space, the tab and the line feed at which
# str.split or str.splitlines would break a DIMACS line.
ODD_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in " \t\n"]


def test_odd_spaces_are_every_other_unicode_space():
    every = "".join(map(chr, range(0x110000)))
    assert ODD_SPACES == [c for c in every if c.isspace() and c not in " \t\n"]
    assert re.findall(satchaos.sat._ODD_SPACE, every) == ODD_SPACES
    assert not any(c.isprintable() for c in ODD_SPACES)
    for c in "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000":
        assert c in ODD_SPACES


@pytest.mark.parametrize("sep", ODD_SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_parse_separates_tokens_only_by_space_and_tab(sep):
    """str.split would read "1<sep>-2 0" as the clause (x1, ¬x2)."""
    cases = [
        (f"p cnf 2 1\n1{sep}-2 0\n", 2),
        (f"p{sep}cnf 2 1\n1 0\n", 1),
        (f"p cnf 2 2\n1 0{sep}2 0\n", 2),
    ]
    if sep != "\r":  # one \r before the line feed is dropped
        cases += [(f"p cnf 2 1\n1 -2 0{sep}\n", 2), (f"p cnf 2 1\n{sep}\n1 0\n", 2)]
    for text, line in cases:
        with pytest.raises(DimacsError, match="is not a space or a tab") as err:
            parse_dimacs(text)
        assert err.value.line == line
    # A comment is free text: nothing in it starts a line or a clause.
    assert parse_dimacs(f"c note{sep}1 0\np cnf 1 1\n1 0\n").num_clauses == 1


def test_parse_lines_end_only_at_line_feed():
    crlf = parse_dimacs("p cnf 2 1\r\n1 -2 0\r\n")
    assert crlf == parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert parse_dimacs("p cnf\t2 1\n\t1\t-2 0\t\r\n") == crlf
    assert parse_dimacs("p cnf 2 1\n1 -2 0\r") == crlf
    for text, line in [("p cnf 2 1\n1 -2 0\r\r\n", 2), ("p cnf 2 2\r1 0\n2 0\n", 1)]:
        with pytest.raises(DimacsError, match="'\\\\r' is not a space or a tab") as err:
            parse_dimacs(text)
        assert err.value.line == line


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


def test_variable_planes_hold_each_assignment_bit():
    for n in range(1, 13):
        planes = satchaos.sat._variable_planes(n)
        assert len(planes) == n
        for k, plane in enumerate(planes, start=1):
            expected = sum(((i >> (k - 1)) & 1) << i for i in range(1 << n))
            assert plane == expected, (n, k)


def test_enumeration_guard(monkeypatch):
    def unreachable(num_vars):
        raise AssertionError("the guard must refuse before building planes")

    monkeypatch.setattr(satchaos.sat, "_variable_planes", unreachable)
    inst = instance_from_ints(31, [[1, 2]])
    with pytest.raises(GuardExceeded):
        count_models(inst)
    with pytest.raises(GuardExceeded):
        count_models_clausewise(inst)


def _wide_instance(rng, n):
    """A unit clause and mixed clauses on the variables above the chunk of
    2^CHUNK_VARS assignments, and clauses on low variables alone."""
    chunk_vars = satchaos.sat.CHUNK_VARS
    high = list(range(chunk_vars + 1, n + 1))
    signed = lambda v: v if rng.random() < 0.5 else -v
    clauses = [[signed(rng.choice(high))]]
    for _ in range(rng.randint(3, 6)):
        chosen = rng.sample(high, rng.randint(1, len(high)))
        chosen += rng.sample(range(1, chunk_vars + 1), rng.randint(1, 2))
        clauses.append([signed(v) for v in rng.sample(chosen, len(chosen))])
    for _ in range(rng.randint(1, 4)):
        clauses.append([signed(v) for v in rng.sample(range(1, 8), 3)])
    return instance_from_ints(n, clauses)


@pytest.mark.parametrize("n", [21, 22])
def test_count_models_across_chunks(n):
    """Against numpy's independent count, with literals of both signs on
    the variables that are constant within each chunk."""
    rng = random.Random(n)
    for _ in range(3):
        inst = _wide_instance(rng, n)
        assert count_models(inst) == len(satisfying_indices(inst)), to_dimacs(inst)


def test_count_models_constant_variable_contradiction():
    """UNSAT only through x21 ∧ ¬x21, a variable constant within each chunk."""
    satisfiable = instance_from_ints(21, [[1, 2, 3], [-4, 5], [21], [20, -1]])
    assert count_models(satisfiable) == len(satisfying_indices(satisfiable)) > 0
    unsat = instance_from_ints(21, [[1, 2, 3], [-4, 5], [21], [-21], [20, -1]])
    assert count_models(unsat) == 0


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


def _assignment(n, index):
    """The bits of ``index``; bit k-1 is variable k, as in basis-state indexing."""
    return tuple(index >> k & 1 for k in range(n))


@given(clause_lists)
@settings(max_examples=200, deadline=None)
def test_model_counters_agree(data):
    n, cls = data
    inst = instance_from_ints(n, cls)
    fast = count_models(inst)
    slow = count_models_clausewise(inst)
    assert fast == slow
    assert fast == sum(
        eval_instance(inst, _assignment(n, i)) for i in range(1 << n)
    )


@given(clause_lists)
@settings(max_examples=100, deadline=None)
def test_satisfying_indices_match_eval(data):
    n, cls = data
    inst = instance_from_ints(n, cls)
    indices = set(satisfying_indices(inst).tolist())
    for index in range(1 << n):
        bits = _assignment(n, index)
        assert (index in indices) == bool(eval_instance(inst, bits))


# Free text; lines of DIMACS tokens in any order; and a header over clause
# lines with such a line after them, so that a good share of inputs parse.
dimacs_tokens = st.sampled_from(
    ["p", "cnf", "c", "%", "0", "-0", "00", "1", "-1", "+2", "2", "-2", "3", "-3",
     "5", "4294967296", "x", "1.5", "\t", "p cnf 2 1", "p cnf 0 0", "1_0", "٣", "１",
     "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
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
