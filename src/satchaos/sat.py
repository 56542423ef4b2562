"""CNF instances, DIMACS parsing, and brute-force model counting.

Truth values are plain ints in {0, 1}. An assignment is a tuple of n bits
where entry k-1 is the value of variable k — the same convention the quantum
register uses for its basis indices, so assignment i and basis state i always
mean the same thing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_MAX_ENUM_VARS, GuardExceeded

Assignment = tuple[int, ...]


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
    """Build an instance from signed-integer clause lists (DIMACS numbers)."""
    built = tuple(
        Clause(tuple(Literal.from_int(v) for v in cl)) for cl in clauses
    )
    inst = SatInstance(num_vars, built)
    return _with_size_warning(inst)


def _with_size_warning(inst: SatInstance) -> SatInstance:
    if inst.num_clauses > 2 * inst.num_vars:
        warning = (
            f"clause count {inst.num_clauses} exceeds 2·n = {2 * inst.num_vars}; "
            "accepted, but the intended regime is m <= 2n"
        )
        return SatInstance(inst.num_vars, inst.clauses, inst.warnings + (warning,))
    return inst


def _plain_ints(text: str) -> bool:
    """Whether ``int`` reads the integers in ``text`` as DIMACS writes them,
    an optional sign and ASCII digits: it would also read ``1_0`` as 10 and
    ``٣`` or ``１`` as 3 and 1."""
    return text.isascii() and "_" not in text


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF. Strict: every integer is an optional sign and ASCII
    digits, and the header's counts must match the body.

    A line holding only ``%`` ends the clause data, as in the SATLIB
    benchmark files, which close with a ``%`` line and a lone ``0``.
    """
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    current_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        if line.startswith("p"):
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
        if not _plain_ints(line):  # one test per line; find the token only on failure
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


def assignment_from_index(num_vars: int, index: int) -> Assignment:
    """Bits of `index`; bit k-1 is variable k (matches basis-state indexing)."""
    if not 0 <= index < (1 << num_vars):
        raise ValueError(f"index {index} out of range for {num_vars} variables")
    return tuple((index >> k) & 1 for k in range(num_vars))


def _check_enum_guard(num_vars: int) -> None:
    if num_vars > DEFAULT_MAX_ENUM_VARS:
        raise GuardExceeded(
            f"enumeration over {num_vars} variables exceeds the guard of "
            f"{DEFAULT_MAX_ENUM_VARS}"
        )


def _satisfied_chunks(inst: SatInstance):
    """Yield (indices, satisfied mask) over all 2^n assignments, in bounded chunks.

    Vectorized over clause bitmasks. This path is deliberately independent of
    eval_clause/eval_instance: it is the second oracle the clause-wise
    evaluator is checked against.
    """
    n = inst.num_vars
    _check_enum_guard(n)
    masks = [c.masks() for c in inst.clauses]
    chunk = 1 << min(n, 20)
    for start in range(0, 1 << n, chunk):
        a = np.arange(start, start + chunk, dtype=np.uint64)
        sat = np.ones(a.shape, dtype=bool)
        for pos, neg in masks:
            clause_sat = (a & np.uint64(pos)) != 0
            if neg:
                clause_sat |= (~a & np.uint64(neg)) != 0
            sat &= clause_sat
        yield a, sat


def satisfying_indices(inst: SatInstance) -> np.ndarray:
    """Indices (= assignments as integers) that satisfy the instance."""
    return np.concatenate([a[sat] for a, sat in _satisfied_chunks(inst)])


def count_models(inst: SatInstance) -> int:
    """Number r of satisfying assignments, by exhaustive bit-mask enumeration.

    Counts chunk by chunk, so memory stays bounded however many models there are.
    """
    return sum(int(np.count_nonzero(sat)) for _, sat in _satisfied_chunks(inst))


def count_models_clausewise(inst: SatInstance) -> int:
    """Same count via eval_instance over itertools.product; the slow twin."""
    _check_enum_guard(inst.num_vars)
    return sum(
        eval_instance(inst, bits)
        for bits in itertools.product((0, 1), repeat=inst.num_vars)
    )
