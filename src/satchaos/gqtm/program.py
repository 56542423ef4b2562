"""The four-track SAT program and its runner.

Track roles: track 0 carries the instance encoding, track 1 the superposed
assignment bits, track 2 per-clause truth bits, track 3 the result bit plus
the iteration counter. The run factors into a unitary part (counter setup,
Hadamard spreading, clause ORs, final AND) whose tables all pass the local
unitarity certificate, a collapse that measures in the configuration basis
and then runs one weighted pass that erases tracks 1, 2 and 0 (in that
order, so branches merge by result bit before the long input sweep), and a
detection loop that drives the result weight through the logistic map while
a binary counter bounds the number of iterations. Every phase, and the
classical replays, run on bit planes (:mod:`.planes`); the rule-by-rule
engine (:func:`~.machine.step`) is the reference the tests compare them
against.

Every phase's table depends only on the variable count, never on the clauses:
the instance enters purely through the track-0 encoding. The six tables that
do not depend on the count either are built once, at import.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import IO

from ..amplifier import (
    AmplifierTrace,
    LogisticParams,
    iteration_window,
    k_bounds,
    logistic_step,
    snap_dyadic,
)
from ..circuit import _h_plane
from ..config import (
    DEFAULT_MAX_MACHINE_VARS,
    GuardExceeded,
)
from ..sat import SatInstance
from .machine import (
    BLANK,
    Configuration,
    Phase,
    TransitionFunction,
    make_configuration,
    rule,
)
from .planes import Cell, LockstepError, Mask, Planes, canonical_cell

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Non-blank alphabets by track.
INPUT_SYMBOLS = ("0", "1", "X", "Y", "C_S", "C_E")
BIT_SYMBOLS = ("0", "1")
_BITS = frozenset(BIT_SYMBOLS)
COUNTER_SYMBOLS = ("0", "1", "A", "B")

_ALPHABETS = {0: INPUT_SYMBOLS, 1: BIT_SYMBOLS, 2: BIT_SYMBOLS, 3: COUNTER_SYMBOLS}


def _table(name: str, read_tracks: tuple[int, ...], write_tracks: tuple[int, ...]) -> TransitionFunction:
    return TransitionFunction(
        name, 4, read_tracks, write_tracks,
        {t: _ALPHABETS[t] for t in read_tracks},
    )


# --- input encoding --------------------------------------------------------

def encode_sat_input(inst: SatInstance) -> tuple[str, ...]:
    """Track-0 symbols: ``0^n X`` then per clause ``C_S ε… Y ε̄… C_E``.

    ε_k = 1 iff variable k occurs positively, ε̄_k = 1 iff it occurs negated;
    duplicates inside a clause collapse (they cannot change the disjunction).
    """
    bits = f"0{inst.num_vars}b"  # n digits; reversed, digit k-1 is mask bit k-1
    symbols: list[str] = ["0"] * inst.num_vars + ["X"]
    for clause in inst.clauses:
        pos, neg = clause.masks()
        symbols.append("C_S")
        symbols.extend(format(pos, bits)[::-1])
        symbols.append("Y")
        symbols.extend(format(neg, bits)[::-1])
        symbols.append("C_E")
    return tuple(symbols)


# --- phase tables ----------------------------------------------------------

def phase_setup(num_vars: int) -> Phase:
    """Lay out the iteration counter on track 3.

    Cell 0 stays blank for the result bit; then marker A, the count bits
    (low bit first, all 0), marker B, and the bit pattern of the iteration
    limit. The head walks home to cell 0 afterwards.
    """
    window = iteration_window(num_vars)
    width = window.bit_length()
    t = _table("setup", (3,), (3,))
    t.add("su_home", (BLANK,), [rule(1, "su_mark_a", moves={3: +1})])
    t.add("su_mark_a", (BLANK,), [rule(1, "su_count_0", writes={3: "A"}, moves={3: +1})])
    for j in range(width):
        nxt = "su_mark_b" if j == width - 1 else f"su_count_{j + 1}"
        t.add(f"su_count_{j}", (BLANK,), [rule(1, nxt, writes={3: "0"}, moves={3: +1})])
    t.add("su_mark_b", (BLANK,), [rule(1, "su_limit_0", writes={3: "B"}, moves={3: +1})])
    for j in range(width):
        bit = "1" if window >> j & 1 else "0"
        if j == width - 1:
            t.add(f"su_limit_{j}", (BLANK,),
                  [rule(1, "su_turn", writes={3: bit}, moves={3: -1})])
        else:
            t.add(f"su_limit_{j}", (BLANK,),
                  [rule(1, f"su_limit_{j + 1}", writes={3: bit}, moves={3: +1})])
    for sym in COUNTER_SYMBOLS:
        t.add("su_turn", (sym,), [rule(1, "su_back", moves={3: -1})])
        t.add("su_back", (sym,), [rule(1, "su_back", moves={3: -1})])
    t.add("su_back", (BLANK,), [rule(1, "setup_done")])
    return Phase("setup", "bookkeeping", t, "su_home", frozenset({"setup_done"}))


def phase_dft() -> Phase:
    """Hadamard each assignment bit: tracks 0 and 1 scan out to X in lockstep,
    then walk back applying the two-branch rotation to every bit cell."""
    t = _table("dft", (0, 1), (1,))
    t.add("dft_scan", ("0", BLANK),
          [rule(1, "dft_scan", writes={1: "0"}, moves={0: +1, 1: +1})])
    t.add("dft_scan", ("X", BLANK),
          [rule(1, "dft_apply", moves={0: -1, 1: -1})])
    t.add("dft_apply", ("0", "0"), [
        rule(SQRT_HALF, "dft_apply", writes={1: "0"}, moves={0: -1, 1: -1}),
        rule(SQRT_HALF, "dft_apply", writes={1: "1"}, moves={0: -1, 1: -1}),
    ])
    t.add("dft_apply", ("0", "1"), [
        rule(SQRT_HALF, "dft_apply", writes={1: "0"}, moves={0: -1, 1: -1}),
        rule(-SQRT_HALF, "dft_apply", writes={1: "1"}, moves={0: -1, 1: -1}),
    ])
    t.add("dft_apply", (BLANK, BLANK), [rule(1, "dft_done", moves={0: +1, 1: +1})])
    return Phase("dft", "logic", t, "dft_scan", frozenset({"dft_done"}))


def _or_bit(a: str, v: str) -> str:
    return "1" if a == "1" or v == "1" else "0"


def _or_negated(a: str, v: str) -> str:
    return "1" if a == "1" or v == "0" else "0"


def phase_or_eval() -> Phase:
    """Evaluate every clause into consecutive track-2 cells.

    Heads 0 and 1 stay aligned: the positive-mask scan reads variable k's bit
    exactly when head 0 sits on mask position k, the Y marker triggers a
    track-1 rewind, and the negative mask repeats the scan with inverted
    values. Head 2 parks on the clause's accumulator cell for the whole
    clause. Movement never depends on the superposed bits, so all branches
    stay in lockstep.
    """
    t = _table("or_eval", (0, 1, 2), (2,))
    for s in ("0", "X"):
        t.add("or_seek", (s, "*", BLANK), [rule(1, "or_seek", moves={0: +1})])
    t.add("or_seek", ("C_S", "*", BLANK),
          [rule(1, "or_pos", writes={2: "0"}, moves={0: +1})])
    for v in BIT_SYMBOLS:
        for a in BIT_SYMBOLS:
            t.add("or_pos", ("0", v, a), [rule(1, "or_pos", moves={0: +1, 1: +1})])
            t.add("or_pos", ("1", v, a),
                  [rule(1, "or_pos", writes={2: _or_bit(a, v)}, moves={0: +1, 1: +1})])
            t.add("or_rewind", ("Y", v, a), [rule(1, "or_rewind", moves={1: -1})])
            t.add("or_neg", ("0", v, a), [rule(1, "or_neg", moves={0: +1, 1: +1})])
            t.add("or_neg", ("1", v, a),
                  [rule(1, "or_neg", writes={2: _or_negated(a, v)}, moves={0: +1, 1: +1})])
    for a in BIT_SYMBOLS:
        t.add("or_pos", ("Y", BLANK, a), [rule(1, "or_rewind", moves={1: -1})])
        t.add("or_rewind", ("Y", BLANK, a), [rule(1, "or_neg", moves={0: +1, 1: +1})])
        t.add("or_neg", ("C_E", BLANK, a),
              [rule(1, "or_next", moves={0: +1, 1: -1, 2: +1})])
    for v in BIT_SYMBOLS:
        t.add("or_next", ("C_S", v, BLANK), [rule(1, "or_next", moves={1: -1})])
        t.add("or_next", (BLANK, v, BLANK), [rule(1, "or_next", moves={1: -1})])
    t.add("or_next", ("C_S", BLANK, BLANK),
          [rule(1, "or_pos", writes={2: "0"}, moves={0: +1, 1: +1})])
    t.add("or_next", (BLANK, BLANK, BLANK), [rule(1, "or_done", moves={1: +1})])
    return Phase("or_eval", "logic", t, "or_seek", frozenset({"or_done"}))


def phase_and_eval() -> Phase:
    """Conjoin the clause bits right-to-left and write the product into
    track 3 cell 0.  The clause bits are left in place: blanking them here
    would make the coherent stage lossy, so cleanup waits for the erasure
    phase, which runs after the collapse."""
    t = _table("and_eval", (2, 3), (3,))
    t.add("and_enter", (BLANK, BLANK), [rule(1, "and_all1", moves={2: -1})])
    t.add("and_all1", ("1", BLANK), [rule(1, "and_all1", moves={2: -1})])
    t.add("and_all1", ("0", BLANK), [rule(1, "and_any0", moves={2: -1})])
    t.add("and_all1", (BLANK, BLANK),
          [rule(1, "and_done", writes={3: "1"}, moves={2: +1})])
    for v in BIT_SYMBOLS:
        t.add("and_any0", (v, BLANK), [rule(1, "and_any0", moves={2: -1})])
    t.add("and_any0", (BLANK, BLANK),
          [rule(1, "and_done", writes={3: "0"}, moves={2: +1})])
    return Phase("and_eval", "logic", t, "and_enter", frozenset({"and_done"}))


def phase_erase() -> Phase:
    """Blank tracks 0-2 so branches differ only in their result bit.

    Track 1 goes first, then track 2, then track 0. Once the first two are
    blank, branches that agree on the result bit are identical configurations
    and merge, so the sweep of track 0, the longest track, steps at most two
    branches. Every head ends on cell 0.

    Deliberately irreversible: this is the reset half of the measurement
    channel and runs on classical (post-collapse) weights only, so its
    wellformedness report flags overlap defects but never normalization ones.
    """
    t = _table("erase", (0, 1, 2), (0, 1, 2))
    for v in BIT_SYMBOLS:
        for w in BIT_SYMBOLS:
            t.add("erase_enter", (BLANK, v, w), [rule(1, "erase_fwd1", moves={1: +1})])
            t.add("erase_fwd1", (BLANK, v, w), [rule(1, "erase_fwd1", moves={1: +1})])
            t.add("erase_back1", (BLANK, v, w),
                  [rule(1, "erase_back1", writes={1: BLANK}, moves={1: -1})])
        t.add("erase_fwd1", (BLANK, BLANK, v), [rule(1, "erase_back1", moves={1: -1})])
        t.add("erase_back1", (BLANK, BLANK, v), [rule(1, "erase_fwd2", moves={1: +1})])
        t.add("erase_fwd2", (BLANK, BLANK, v), [rule(1, "erase_fwd2", moves={2: +1})])
        t.add("erase_back2", (BLANK, BLANK, v),
              [rule(1, "erase_back2", writes={2: BLANK}, moves={2: -1})])
    t.add("erase_fwd2", (BLANK, BLANK, BLANK), [rule(1, "erase_back2", moves={2: -1})])
    # Head 0 waits one cell past the input; step it onto the last symbol.
    t.add("erase_back2", (BLANK, BLANK, BLANK),
          [rule(1, "erase_input", moves={0: -1, 2: +1})])
    for s in INPUT_SYMBOLS:
        t.add("erase_input", (s, BLANK, BLANK),
              [rule(1, "erase_input", writes={0: BLANK}, moves={0: -1})])
    t.add("erase_input", (BLANK, BLANK, BLANK), [rule(1, "erase_done", moves={0: +1})])
    return Phase("erase", "bookkeeping", t, "erase_enter", frozenset({"erase_done"}))


def phase_handoff() -> Phase:
    """Fork on the result bit: 1 enters the accepting state, 0 keeps waiting."""
    t = _table("handoff", (3,), ())
    t.add("handoff_read", ("1",), [rule(1, "accept")])
    t.add("handoff_read", ("0",), [rule(1, "loop_idle")])
    return Phase("handoff", "bookkeeping", t, "handoff_read",
                 frozenset({"accept", "loop_idle"}))


def phase_increment() -> Phase:
    """Binary increment of the count bits (low bit nearest marker A)."""
    t = _table("increment", (3,), (3,))
    for b in BIT_SYMBOLS:
        t.add("inc_enter", (b,), [rule(1, "inc_skip", moves={3: +1})])
        t.add("inc_back", (b,), [rule(1, "inc_back", moves={3: -1})])
    t.add("inc_skip", ("A",), [rule(1, "inc_carry", moves={3: +1})])
    t.add("inc_carry", ("1",), [rule(1, "inc_carry", writes={3: "0"}, moves={3: +1})])
    t.add("inc_carry", ("0",), [rule(1, "inc_back", writes={3: "1"})])
    t.add("inc_back", ("A",), [rule(1, "inc_done", moves={3: -1})])
    return Phase("increment", "bookkeeping", t, "inc_enter", frozenset({"inc_done"}))


def phase_compare(num_vars: int) -> Phase:
    """Zig-zag equality test between the count bits and the limit bits.

    The two bit groups sit a fixed ``width+1`` cells apart, so a countdown of
    generated hop states carries each count bit across to its partner; a
    mismatch exits through the not-equal walk-home, and reading marker B in
    the read position means every bit matched.
    """
    width = iteration_window(num_vars).bit_length()
    t = _table("compare", (3,), ())
    for b in BIT_SYMBOLS:
        t.add("cmp_enter", (b,), [rule(1, "cmp_skip", moves={3: +1})])
    t.add("cmp_skip", ("A",), [rule(1, "cmp_read", moves={3: +1})])
    t.add("cmp_read", ("B",), [rule(1, "cmp_eq_home", moves={3: -1})])
    crossing = ("0", "1", "B")
    for b in BIT_SYMBOLS:
        t.add("cmp_read", (b,), [rule(1, f"cmp_hop_{b}_{width}", moves={3: +1})])
        for d in range(width, 0, -1):
            for s in crossing:
                t.add(f"cmp_hop_{b}_{d}", (s,),
                      [rule(1, f"cmp_hop_{b}_{d - 1}", moves={3: +1})])
        back_target = "cmp_read" if width == 1 else f"cmp_back_{width - 1}"
        t.add(f"cmp_hop_{b}_0", (b,), [rule(1, back_target, moves={3: -1})])
        other = "1" if b == "0" else "0"
        t.add(f"cmp_hop_{b}_0", (other,), [rule(1, "cmp_ne_home", moves={3: -1})])
    for d in range(width - 1, 0, -1):
        nxt = "cmp_read" if d == 1 else f"cmp_back_{d - 1}"
        for s in crossing:
            t.add(f"cmp_back_{d}", (s,), [rule(1, nxt, moves={3: -1})])
    for b in BIT_SYMBOLS:
        t.add("cmp_eq_home", (b,), [rule(1, "cmp_eq_home", moves={3: -1})])
    for s in crossing:
        t.add("cmp_ne_home", (s,), [rule(1, "cmp_ne_home", moves={3: -1})])
    t.add("cmp_eq_home", ("A",), [rule(1, "cmp_eq_done", moves={3: -1})])
    t.add("cmp_ne_home", ("A",), [rule(1, "cmp_ne_done", moves={3: -1})])
    return Phase("compare", "bookkeeping", t, "cmp_enter",
                 frozenset({"cmp_eq_done", "cmp_ne_done"}))


# Built once; the builders above stay callable for inspection and tests.
DFT = phase_dft()
OR_EVAL = phase_or_eval()
AND_EVAL = phase_and_eval()
ERASE = phase_erase()
HANDOFF = phase_handoff()
INCREMENT = phase_increment()


# --- the assembled machine -------------------------------------------------

UNITARY_STAGE = ("setup", "dft", "or_eval", "and_eval")
COLLAPSE_STAGE = ("erase", "handoff")


@dataclass(frozen=True)
class SatMachine:
    """Phase tables for one variable count, in execution order."""

    num_vars: int
    phases: tuple[Phase, ...]

    def phase(self, name: str) -> Phase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


@functools.cache
def sat_machine(num_vars: int) -> SatMachine:
    """The machine for ``num_vars`` variables, built once per count."""
    if num_vars < 1:
        raise ValueError("at least one variable is required")
    return SatMachine(
        num_vars,
        (
            phase_setup(num_vars),
            DFT,
            OR_EVAL,
            AND_EVAL,
            ERASE,
            HANDOFF,
            INCREMENT,
            phase_compare(num_vars),
        ),
    )


def _input_planes(inst: SatInstance, width: int, entry: str,
                  track1: dict[int, Cell]) -> Planes:
    """``width`` branches in ``entry`` with every head on cell 0, the encoding
    of ``inst`` on track 0 of every branch and ``track1`` on track 1."""
    track0 = dict(enumerate(encode_sat_input(inst)))
    return Planes(width, (0, 0, 0, 0), {entry: (1 << width) - 1}, [track0, track1, {}, {}])


def initial_configuration(machine: SatMachine, inst: SatInstance) -> Configuration:
    symbols = encode_sat_input(inst)
    track0 = {i: s for i, s in enumerate(symbols)}
    return make_configuration(
        machine.phase("setup").entry, [track0, {}, {}, {}], [0, 0, 0, 0]
    )


# --- running ----------------------------------------------------------------

@dataclass(frozen=True)
class GqtmRun:
    """Outcome of a full machine run."""

    decision: str                     # SAT | UNSAT | INCONCLUSIVE
    k_star: int | None
    trace: AmplifierTrace
    q_squared: float                  # dyadic readout r/2^n
    r_estimate: int
    weights_raw: tuple[float, float]  # (result-0 weight, result-1 weight) pre-snap
    branch_count: int
    unitary_steps: int


def collapse(planes: Planes, machine: SatMachine) -> tuple[Mask, Mask]:
    """The measurement channel, run as one weighted pass on the planes.

    Measuring in the configuration basis turns each branch into its weight
    |amplitude|² = 2^-forks; the caller has checked that no two branches are
    one configuration, whose amplitudes would interfere. The erase and
    handoff tables are deterministic with amplitude 1, so they step those
    weights as they would step amplitudes, and a set of branches weighs its
    popcount times 2^-forks. Returns the masks of the branches that end in
    ``accept`` and in ``loop_idle``.

    Raises ``ArithmeticError`` unless every branch is read out, so that the
    weights sum to 1 exactly, and ``RuntimeError`` unless the erasure blanks
    tracks 0-2 and leaves one configuration per result bit: the heads are
    shared, so that holds when every track-3 cell reads the same on all the
    branches of an end state. A result cell that holds no bit stops handoff
    with ``StuckConfigurationError``.
    """
    erase, handoff = (machine.phase(name) for name in COLLAPSE_STAGE)
    planes.run_phase(erase)
    counted = planes.live()
    if counted != planes.width:
        raise ArithmeticError(
            f"collapse is not trace-preserving: {counted} of {planes.width} branches "
            f"read out"
        )
    if any(planes.tracks[:3]):
        written = {t: sorted(cells) for t, cells in enumerate(planes.tracks[:3]) if cells}
        raise RuntimeError(
            f"workspace tracks not blank after erasure: cells {written} hold symbols"
        )
    planes.run_phase(handoff)
    split = sorted(
        pos for pos in planes.tracks[3]
        if any(sm & g not in (0, g)
               for sm in planes.cell(3, pos).values() for g in planes.groups.values())
    )
    if split:
        raise RuntimeError(
            f"erasure left track 3 cells {split} differing within an end state; "
            f"configurations must be one per result bit"
        )
    return planes.groups.get("accept", 0), planes.groups.get("loop_idle", 0)


def run_sat_gqtm(inst: SatInstance, params: LogisticParams = LogisticParams(), *,
                 jsonl_sink: IO[str] | None = None) -> GqtmRun:
    """Full pipeline: unitary stage, collapse, then the detection loop.

    Every phase runs on bit planes (:class:`~.planes.Planes`), and
    ``branch_count`` is 2^n: track 1 must hold each assignment on its own
    branch, which proves that the unitary stage ends in 2^n distinct
    configurations. The collapse (:func:`collapse`) measures in the
    configuration basis (branch weight equals squared amplitude), blanks the
    workspace and hands off on the result bit, so the weight of the
    accepting branches is the model fraction, exactly r/2^n. That weight
    drives the logistic map, testing the threshold before each iteration,
    until it crosses (satisfiable) or the counter, stepped on one waiting
    branch, reaches the iteration limit (unsatisfiable when the weight is
    exactly zero). An invariant break raises ``ArithmeticError`` (norm,
    trace, a weight off the 2^-n grid) or ``RuntimeError``
    (:class:`~.planes.LockstepError` among them).
    """
    n = inst.num_vars
    if n > DEFAULT_MAX_MACHINE_VARS:
        raise GuardExceeded(
            f"machine run with {n} variables exceeds the "
            f"{DEFAULT_MAX_MACHINE_VARS}-variable guard"
        )
    machine = sat_machine(n)
    rows = itertools.count(1)  # JSONL step numbers, across both stages

    def write_row(branch_count: int, norm: float, halting_prob: float):
        jsonl_sink.write(json.dumps({
            "step": next(rows),
            "branch_count": branch_count,
            "norm": norm,
            "halting_prob": halting_prob,
        }) + "\n")

    on_step = None
    if jsonl_sink is not None:  # no sink: skip the per-step popcounts
        def on_step(cur: Planes, halting_mass: float):
            live = cur.live()
            write_row(live, cur.mass(live), halting_mass)

    planes = _input_planes(inst, 1, machine.phase("setup").entry, {})
    steps = 0
    for name in UNITARY_STAGE:
        steps += planes.run_phase(machine.phase(name), on_step)
    live = planes.live()
    norm = planes.mass(live)
    if norm != 1.0:
        raise ArithmeticError(f"norm drifted to {norm!r} during the unitary stage")

    # Track 1 holds each assignment on its own branch: variable k sits at
    # index bit n-1-k, so all 2^n branches are distinct configurations.
    full = (1 << planes.width) - 1
    ones = [_h_plane(n - k, n) for k in range(n)]
    spread = {k: {"0": full ^ p, "1": p} for k, p in enumerate(ones)}
    track1 = {k: planes.cell(1, k) for k in planes.tracks[1]}
    if planes.width != 1 << n or track1 != spread:
        raise LockstepError(
            "track 1 does not hold one assignment per branch before the collapse; "
            "branches may coincide, and the planes cannot weigh their interference"
        )
    accept, idle = collapse(planes, machine)
    w1_raw = planes.mass(accept.bit_count())
    w0_raw = planes.mass(idle.bit_count())
    results = (accept != 0) + (idle != 0)  # result values present

    q_squared, r_estimate = snap_dyadic(w1_raw, n)
    if q_squared != w1_raw:
        raise ArithmeticError(f"result weight {w1_raw!r} is not a multiple of 2^-{n}")
    bounds = k_bounds(n, r_estimate, params.a) if r_estimate >= 1 else None

    loop = None
    if idle:  # the counter runs on one waiting branch
        loop = Planes.from_configuration(planes.branch((idle & -idle).bit_length() - 1))
    xs = [q_squared]
    w1 = q_squared
    k = 0
    k_star = None
    decision = None
    while True:
        if jsonl_sink is not None:
            write_row(results, 1.0, w1)
        if w1 > params.threshold:
            decision, k_star = "SAT", k
            break
        if loop is None:
            raise RuntimeError("no loop component yet the weight never crossed")
        loop.run_phase(machine.phase("compare"))
        (state,) = loop.groups
        if state == "cmp_eq_done":
            decision = "UNSAT" if w1 == 0.0 else "INCONCLUSIVE"
            break
        loop.run_phase(machine.phase("increment"))
        w1 = logistic_step(w1, params.a)
        xs.append(w1)
        k += 1

    trace = AmplifierTrace(tuple(xs), k_star, decision, bounds, params)
    return GqtmRun(
        decision, k_star, trace, q_squared, r_estimate,
        (w0_raw, w1_raw), live, steps,
    )


def run_classical_branches(inst: SatInstance, assignments
                           ) -> list[tuple[tuple[int, ...], int]]:
    """Drive frozen assignments through the OR and AND phases, all in one pass.

    Track 1 is preset to the bits, one branch per assignment (no Hadamard
    stage), the clause bits are read off track 2 after the OR phase, and the
    final AND bit is returned alongside them: ``(clause bits, result)`` per
    assignment, in order.
    """
    n = inst.num_vars
    ones = [0] * n  # per variable, the branches where it is 1
    width = 0
    for bits in assignments:
        bits = tuple(bits)
        if len(bits) != n or any(b not in (0, 1) for b in bits):  # 0.9 is no bit
            raise ValueError(f"need {n} bits in {{0,1}}, got {bits!r}")
        for k, b in enumerate(bits):
            ones[k] |= int(b) << width
        width += 1
    if not width:
        return []
    full = (1 << width) - 1
    track1 = {k: canonical_cell({"0": full ^ one, "1": one}, full)
              for k, one in enumerate(ones)}
    planes = _input_planes(inst, width, OR_EVAL.entry, track1)
    planes.run_phase(OR_EVAL)
    clause_planes = [_bit_plane(planes, 2, j, OR_EVAL) for j in range(inst.num_clauses)]
    planes.run_phase(AND_EVAL)
    result = _bit_plane(planes, 3, 0, AND_EVAL)
    return [
        (tuple(p >> i & 1 for p in clause_planes), result >> i & 1)
        for i in range(width)
    ]


def _bit_plane(planes: Planes, track: int, pos: int, phase: Phase) -> Mask:
    """The branches holding 1 in one cell, which must hold a bit on every branch."""
    cell = planes.cell(track, pos)
    covered = cell.get("0", 0) | cell.get("1", 0)
    if not cell.keys() <= _BITS or covered != (1 << planes.width) - 1:
        raise RuntimeError(
            f"track {track} cell {pos} holds {sorted(cell)} on {covered.bit_count()} "
            f"of {planes.width} branches after the {phase.name} phase, expected a "
            f"bit on every branch"
        )
    return cell.get("1", 0)


def run_classical_branch(inst: SatInstance, bits) -> tuple[tuple[int, ...], int]:
    """:func:`run_classical_branches` for one assignment."""
    (replay,) = run_classical_branches(inst, [bits])
    return replay
