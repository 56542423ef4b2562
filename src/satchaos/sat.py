"""CNF instances, DIMACS parsing, and brute-force model counting.

Truth values are plain ints in {0, 1}. An assignment is a tuple of n bits
where entry k-1 is the value of variable k — the same convention the quantum
register uses for its basis indices, so assignment i and basis state i always
mean the same thing.

The oracle, :func:`count_models`, counts on bit planes of its own: each
variable is one Python int over a chunk of up to 2^20 assignments (bit i is
its value under assignment i), so memory stays bounded at any n the guard
allows. It reads only the clauses, never a gate list. Its two twins are
:func:`count_models_clausewise` here and the numpy
:func:`satchaos.quantum.satisfying_indices`, kept with the dense reference so
that this module imports no numpy.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .config import DEFAULT_MAX_ENUM_VARS, GuardExceeded

# Variables held as planes within one chunk of assignments; the rest are
# constant per chunk. 2^20 bits is a 128 KiB int per plane.
CHUNK_VARS = 20


class DimacsError(ValueError):
    """Malformed DIMACS input. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True, order=True)
class Literal:
    """A variable occurrence, possibly negated. Variables are 1-based."""

    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError(f"variable index must be >= 1, got {self.variable}")

    @classmethod
    def from_int(cls, value: int) -> "Literal":
        if value == 0:
            raise ValueError("0 is the clause terminator, not a literal")
        return cls(abs(value), value < 0)

    def to_int(self) -> int:
        return -self.variable if self.negated else self.variable

    def __repr__(self):
        return f"{'¬' if self.negated else ''}x{self.variable}"


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals, kept in input order (duplicates included)."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause (unsatisfiable disjunction) is rejected")

    @property
    def card(self) -> int:
        """Number of listed literals; duplicates count."""
        return len(self.literals)

    def masks(self) -> tuple[int, int]:
        """(positive, negative) variable bitmasks; bit k-1 stands for variable k."""
        pos = neg = 0
        for lit in self.literals:
            bit = 1 << (lit.variable - 1)
            if lit.negated:
                neg |= bit
            else:
                pos |= bit
        return pos, neg


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("at least one variable is required")
        if not self.clauses:
            raise ValueError("at least one clause is required")
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.variable > self.num_vars:
                    raise ValueError(
                        f"literal {lit!r} exceeds declared variable count {self.num_vars}"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def cards(self) -> tuple[int, ...]:
        return tuple(c.card for c in self.clauses)


def instance_from_ints(num_vars: int, clauses: list[list[int]]) -> SatInstance:
    """Build an instance from signed-integer clause lists (DIMACS numbers).

    Each distinct signed literal is built once and shared by every clause
    that lists it; literals are immutable, so sharing is invisible.
    """
    literals: dict[int, Literal] = {}
    built = []
    for cl in clauses:
        for v in cl:
            if v not in literals:
                literals[v] = Literal.from_int(v)
        built.append(Clause(tuple(map(literals.__getitem__, cl))))
    warnings = ()
    if len(built) > 2 * num_vars:
        warnings = (
            f"clause count {len(built)} exceeds 2·n = {2 * num_vars}; "
            "accepted, but the intended regime is m <= 2n",
        )
    return SatInstance(num_vars, tuple(built), warnings)


# Every character that ``str.split`` or ``str.splitlines`` breaks at, other
# than the space, the tab and the line feed that DIMACS uses; none of them is
# printable. Listed, not written as ``[^\S \t\n]``, which scans at half the
# speed, and compiled on first use by ``re``'s own cache, not at import.
_ODD_SPACE = r"[\x0b\x0c\r\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]"


def _plain_ints(text: str) -> bool:
    """Whether ``int`` reads the integers in ``text`` as DIMACS writes them,
    an optional sign and ASCII digits: it would also read ``1_0`` as 10 and
    ``٣`` or ``１`` as 3 and 1."""
    return text.isascii() and "_" not in text


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF. Strict: every integer is an optional sign and ASCII
    digits, and the header's counts must match the body.

    Lines end only at ``\\n`` (one ``\\r`` before it is dropped), and header
    and clause tokens are separated only by spaces and tabs; any other
    whitespace outside a comment line is an error. A line holding only
    ``%`` ends the clause data, as in the SATLIB benchmark files, which
    close with a ``%`` line and a lone ``0``.
    """
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    current_line = None
    plain = _plain_ints(text)  # else each line is checked

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line[0] == "c":
            continue
        if not line.isprintable():  # a tab, a \r, or a character to look for
            line = (raw[:-1] if raw.endswith("\r") else raw).strip(" \t")
            if odd := re.search(_ODD_SPACE, line):
                raise DimacsError(f"separator {odd[0]!r} is not a space or a tab", lineno)
            if not line:
                continue
        if line == "%":
            break
        if line[0] == "p":
            if num_vars is not None:
                raise DimacsError("duplicate problem header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}; expected 'p cnf <vars> <clauses>'", lineno)
            try:
                if not _plain_ints(parts[2] + parts[3]):
                    raise ValueError
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in header {line!r}", lineno) from None
            if num_vars < 1 or declared_clauses < 1:
                raise DimacsError("variable and clause counts must be >= 1", lineno)
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before 'p cnf' header: {line!r}", lineno)
        if not plain and not _plain_ints(line):  # find the token only on failure
            for token in line.split():
                if not _plain_ints(token):
                    raise DimacsError(f"non-integer token {token!r}", lineno)
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise DimacsError(f"non-integer token {token!r}", lineno) from None
            if value == 0:
                if not current:
                    raise DimacsError("empty clause (bare terminator 0)", lineno)
                clauses.append(current)
                current = []
                current_line = None
            else:
                if abs(value) > num_vars:
                    raise DimacsError(
                        f"variable {abs(value)} out of range 1..{num_vars}", lineno
                    )
                if not current:
                    current_line = lineno
                current.append(value)

    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause is not 0-terminated", current_line)
    if len(clauses) != declared_clauses:
        raise DimacsError(
            f"header declares {declared_clauses} clauses but body has {len(clauses)}"
        )
    return instance_from_ints(num_vars, clauses)


def to_dimacs(inst: SatInstance) -> str:
    """Serialize; parse_dimacs(to_dimacs(inst)) is structurally identical."""
    lines = [f"p cnf {inst.num_vars} {inst.num_clauses}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(l.to_int()) for l in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def eval_literal(lit: Literal, assignment) -> int:
    value = assignment[lit.variable - 1]
    return value ^ 1 if lit.negated else value


def eval_clause(clause: Clause, assignment) -> int:
    """Truth value of the disjunction under the assignment."""
    for lit in clause.literals:
        if eval_literal(lit, assignment):
            return 1
    return 0


def eval_instance(inst: SatInstance, assignment) -> int:
    """Truth value of the whole conjunction under the assignment."""
    if len(assignment) != inst.num_vars:
        raise ValueError(
            f"assignment has {len(assignment)} bits, expected {inst.num_vars}"
        )
    for clause in inst.clauses:
        if not eval_clause(clause, assignment):
            return 0
    return 1


def _check_enum_guard(num_vars: int) -> None:
    if num_vars > DEFAULT_MAX_ENUM_VARS:
        raise GuardExceeded(
            f"enumeration over {num_vars} variables exceeds the guard of "
            f"{DEFAULT_MAX_ENUM_VARS}"
        )


def _variable_planes(num_vars: int) -> list[int]:
    """Plane of each variable over all 2^num_vars assignments.

    planes[k-1] is an int whose bit i is (i >> (k-1)) & 1, the value of
    variable k under assignment i: one period of 2^(k-1) zeros and as many
    ones, doubled by shift-and-OR until it covers every assignment.
    """
    size = 1 << num_vars
    planes = []
    for k in range(num_vars):
        half = 1 << k
        plane, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            plane |= plane << period
            period *= 2
        planes.append(plane)
    return planes


def count_models(inst: SatInstance) -> int:
    """Number r of satisfying assignments, by exhaustive bit-plane enumeration.

    Variables 1..c, c = min(n, CHUNK_VARS), are planes over one chunk of
    2^c assignments; each clause is the OR of its literal planes, and the
    chunk's models are the popcount of the AND of the clauses. A variable
    above c is constant within a chunk, so a literal on it either satisfies
    its clause there or drops out of it. Clauses on variables 1..c alone are
    ANDed once and shared by every chunk. Memory stays bounded at about 2c
    planes of 2^c bits, however many variables, clauses or models there are.
    """
    n = inst.num_vars
    _check_enum_guard(n)
    low = min(n, CHUNK_VARS)
    ones = _variable_planes(low)
    full = (1 << (1 << low)) - 1
    literal_planes = (ones, [full ^ plane for plane in ones])
    shared = full
    split = []  # (low literal planes, high positive mask, high negative mask)
    for clause in inst.clauses:
        planes = []
        high_pos = high_neg = 0
        for lit in clause.literals:
            if lit.variable <= low:
                planes.append(literal_planes[lit.negated][lit.variable - 1])
            elif lit.negated:
                high_neg |= 1 << (lit.variable - 1 - low)
            else:
                high_pos |= 1 << (lit.variable - 1 - low)
        if high_pos or high_neg:
            split.append((planes, high_pos, high_neg))
            continue
        clause_plane = 0
        for plane in planes:
            clause_plane |= plane
        shared &= clause_plane
        if not shared:
            return 0
    count = 0
    for chunk in range(1 << (n - low)):
        satisfied = shared
        for planes, high_pos, high_neg in split:
            if chunk & high_pos or ~chunk & high_neg:
                continue  # a constant literal satisfies the clause in this chunk
            clause_plane = 0
            for plane in planes:
                clause_plane |= plane
            satisfied &= clause_plane
            if not satisfied:
                break
        count += satisfied.bit_count()
    return count


def count_models_clausewise(inst: SatInstance) -> int:
    """Same count via eval_instance over itertools.product; the slow twin."""
    _check_enum_guard(inst.num_vars)
    return sum(
        eval_instance(inst, bits)
        for bits in itertools.product((0, 1), repeat=inst.num_vars)
    )
