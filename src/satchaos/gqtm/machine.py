"""Multi-track quantum Turing machine with amplitude-weighted configurations.

A machine configuration is a processor state plus a fixed number of tapes
(each stored densely between its outermost non-blank cells) and per-track
head positions. Dynamics come from a transition function
δ(state, read-symbols) → Σ amplitude·(state', writes, moves); superpositions
of configurations evolve by applying δ to every live branch and summing
amplitudes of identical successors, so destructive interference prunes
branches exactly. After a measurement in the configuration basis, a
deterministic table steps probability weights the way it steps amplitudes.

This rule-by-rule engine is the reference. The SAT program runs every phase
on bit planes (:mod:`.planes`), and the tests hold those planes to
:func:`step` amplitude for amplitude, as they hold the circuit's bit planes
to the dense statevector (:mod:`satchaos.quantum`). ``verify``'s
interference check steps it on purpose. Mixed configurations —
probability-weighted lists of superpositions, measured and merged component
by component — are the reference for the collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping

from ..config import AMPLITUDE_PRUNE_EPS, SINGLE_OP_ATOL

BLANK = "#"

#: One track, dense: ``(origin, symbols)`` holds the symbols of cells
#: ``origin, origin + 1, ...``. Neither end symbol is blank and the empty
#: track is ``(0, ())``, so equal contents give equal (and equal-hashing) tapes.
Tape = tuple[int, tuple[str, ...]]
EMPTY_TAPE: Tape = (0, ())


def _dense_tape(cells: Mapping[int, str]) -> Tape:
    written = {p: s for p, s in cells.items() if s != BLANK}
    if not written:
        return EMPTY_TAPE
    lo, hi = min(written), max(written)
    return lo, tuple(written.get(p, BLANK) for p in range(lo, hi + 1))


def _read(tape: Tape, pos: int) -> str:
    origin, symbols = tape
    i = pos - origin
    return symbols[i] if 0 <= i < len(symbols) else BLANK


def _write(tape: Tape, pos: int, sym: str) -> Tape:
    origin, symbols = tape
    i = pos - origin
    size = len(symbols)
    if 0 <= i < size:
        if symbols[i] == sym:
            return tape
        symbols = symbols[:i] + (sym,) + symbols[i + 1:]
        if sym != BLANK or 0 < i < size - 1:
            return origin, symbols
        lo, hi = 0, size  # a blank landed on an end: trim that end
        while lo < hi and symbols[lo] == BLANK:
            lo += 1
        while hi > lo and symbols[hi - 1] == BLANK:
            hi -= 1
        return (origin + lo, symbols[lo:hi]) if lo < hi else EMPTY_TAPE
    if sym == BLANK:
        return tape
    if not size:
        return pos, (sym,)
    if i < 0:
        return pos, (sym,) + (BLANK,) * (-i - 1) + symbols
    return origin, symbols + (BLANK,) * (i - size) + (sym,)


class Configuration(tuple):
    """One classical snapshot: processor state, tapes, head positions.

    A plain tuple ``(state, tracks, heads)`` of a string, one dense
    :data:`Tape` per track and one int per head, so equality and hashing run
    at tuple speed and construction does no checking; build one from sparse
    tracks with :func:`make_configuration`.
    """

    __slots__ = ()

    def __new__(cls, state: str, tracks: tuple[Tape, ...], heads: tuple[int, ...]):
        return tuple.__new__(cls, (state, tracks, heads))

    state = property(itemgetter(0))
    tracks = property(itemgetter(1))
    heads = property(itemgetter(2))

    def read(self, track: int) -> str:
        return _read(self[1][track], self[2][track])

    def symbol_at(self, track: int, pos: int) -> str:
        return _read(self[1][track], pos)

    def with_state(self, state: str) -> "Configuration":
        return _new(Configuration, (state, self[1], self[2]))

    def __repr__(self) -> str:
        return f"Configuration({self[0]!r}, tracks={self[1]!r}, heads={self[2]!r})"


_new = tuple.__new__


def make_configuration(state: str, tracks: Iterable[Mapping[int, str]],
                       heads: Iterable[int]) -> Configuration:
    tapes = tuple(_dense_tape(t) for t in tracks)
    heads = tuple(heads)
    if len(tapes) != len(heads):
        raise ValueError("one head per track is required")
    return Configuration(state, tapes, heads)


@dataclass(frozen=True)
class Rule:
    """One branch of δ for a fixed (state, read-symbols) key."""

    amplitude: complex
    next_state: str
    writes: tuple[tuple[int, str], ...] = ()   # (track, symbol)
    moves: tuple[tuple[int, int], ...] = ()    # (track, -1|0|+1)

    def __post_init__(self):
        for _, step in self.moves:
            if step not in (-1, 0, 1):
                raise ValueError(f"head moves must be -1, 0 or +1, got {step}")


def rule(amp: complex, next_state: str, writes: Mapping[int, str] | None = None,
         moves: Mapping[int, int] | None = None) -> Rule:
    return Rule(
        complex(amp),
        next_state,
        tuple(sorted((writes or {}).items())),
        tuple(sorted((moves or {}).items())),
    )


class StuckConfigurationError(RuntimeError):
    """A live branch read a (state, symbols) pair with no rule."""

    def __init__(self, state: str, symbols: tuple[str, ...], heads: tuple[int, ...]):
        self.state = state
        self.symbols = symbols
        super().__init__(
            f"no rule for state {state!r} reading {symbols!r} at heads {heads!r}"
        )


WILDCARD = "*"

#: One rule in the form :func:`step` applies: (amplitude, next state, the
#: writes that change a cell, per-track head shifts or ``None`` when no head
#: moves).
CompiledRule = tuple[complex, str, tuple[tuple[int, str], ...], "tuple[int, ...] | None"]


class TransitionFunction:
    """δ as a rule table keyed on (state, symbols read from ``read_tracks``).

    ``alphabets`` lists each read track's non-blank symbols; a ``*`` in a rule
    key expands over exactly that set, so blanks must always be keyed
    explicitly — an unexpected blank stays a loud stuck-configuration error.
    Writes and moves are restricted to the declared tracks at construction
    time, which keeps every phase's footprint honest.
    """

    def __init__(self, name: str, num_tracks: int, read_tracks: tuple[int, ...],
                 write_tracks: tuple[int, ...],
                 alphabets: Mapping[int, tuple[str, ...]]):
        self.name = name
        self.num_tracks = num_tracks
        self.read_tracks = tuple(read_tracks)
        self.write_tracks = tuple(write_tracks)
        self.alphabets = {t: tuple(alphabets[t]) for t in self.read_tracks}
        self.rules: dict[tuple[str, tuple[str, ...]], tuple[Rule, ...]] = {}
        #: ``rules`` compiled for :func:`step`, key for key.
        self.compiled: dict[tuple[str, tuple[str, ...]], tuple[CompiledRule, ...]] = {}
        for t in self.read_tracks + self.write_tracks:
            if not 0 <= t < num_tracks:
                raise ValueError(f"track {t} out of range for {num_tracks} tracks")

    def _check_footprint(self, r: Rule):
        movable = set(self.read_tracks) | set(self.write_tracks)
        for track, _ in r.writes:
            if track not in self.write_tracks:
                raise ValueError(
                    f"{self.name}: rule writes track {track}, "
                    f"declared write tracks are {self.write_tracks}"
                )
        for track, _ in r.moves:
            if track not in movable:
                raise ValueError(
                    f"{self.name}: rule moves head {track}, "
                    f"declared tracks are {sorted(movable)}"
                )

    def _expand(self, reads: tuple[str, ...]) -> list[tuple[str, ...]]:
        keys = [()]
        for track, sym in zip(self.read_tracks, reads):
            options = self.alphabets[track] if sym == WILDCARD else (sym,)
            keys = [k + (o,) for k in keys for o in options]
        return keys

    def _compile(self, r: Rule, reads: tuple[str, ...]) -> CompiledRule:
        """``r`` for the key reading ``reads``, less each write of the symbol
        already read on that track (a write that changes nothing)."""
        shift = None
        if r.moves:
            shift = [0] * self.num_tracks
            for track, move in r.moves:
                shift[track] = move
            shift = tuple(shift)
        read = dict(zip(self.read_tracks, reads))
        writes = tuple((t, sym) for t, sym in r.writes if read.get(t) != sym)
        return complex(r.amplitude), r.next_state, writes, shift

    def add(self, state: str, reads: tuple[str, ...], targets: list[Rule]):
        if len(reads) != len(self.read_tracks):
            raise ValueError(
                f"{self.name}: key {reads!r} has {len(reads)} symbols, "
                f"phase reads {len(self.read_tracks)} tracks"
            )
        for r in targets:
            self._check_footprint(r)
        for key_syms in self._expand(reads):
            key = (state, key_syms)
            if key in self.rules:
                raise ValueError(f"{self.name}: duplicate rule for {key!r}")
            self.rules[key] = tuple(targets)
            self.compiled[key] = tuple(self._compile(r, key_syms) for r in targets)


class ConfigSuperposition:
    """Sparse map configuration → complex amplitude (or probability weight).

    Takes ownership of ``branches``: callers hand over a fresh dict.
    """

    def __init__(self, branches: dict[Configuration, complex]):
        self.branches = branches

    @classmethod
    def pure(cls, config: Configuration) -> "ConfigSuperposition":
        return cls({config: 1.0 + 0.0j})

    def __len__(self) -> int:
        return len(self.branches)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.branches.values())

    def state_mass(self, states: frozenset[str] | set[str]) -> float:
        return sum(abs(a) ** 2 for c, a in self.branches.items() if c[0] in states)


def step(psi: ConfigSuperposition, delta: TransitionFunction,
         halting_states: frozenset[str] = frozenset()) -> ConfigSuperposition:
    """One synchronous application of δ to every live branch.

    Branches whose state is halting are absorbed unchanged. Branches are
    visited in the superposition's insertion order, which successors inherit,
    so a run sums amplitudes in the same order every time. Branches below the
    pruning epsilon vanish — exact destructive interference therefore removes
    a branch entirely.

    δ acts linearly on the values it carries, so a deterministic table with
    amplitude 1 moves probability weights exactly as it moves amplitudes, and
    identical successors add their weights.
    """
    out: dict[Configuration, complex] = {}
    upsert = out.setdefault
    compiled, read_tracks = delta.compiled, delta.read_tracks
    for config, amp in psi.branches.items():
        state, tracks, heads = config
        if state in halting_states:
            # Keys of psi are distinct, so amp was never inserted before.
            prev = upsert(config, amp)
            if prev is not amp:
                out[config] = prev + amp
            continue
        symbols = []
        for t in read_tracks:  # _read, inlined: a call per track costs more
            origin, cells = tracks[t]
            i = heads[t] - origin
            symbols.append(cells[i] if 0 <= i < len(cells) else BLANK)
        symbols = tuple(symbols)
        targets = compiled.get((state, symbols))
        if targets is None:
            raise StuckConfigurationError(state, symbols, heads)
        for amplitude, next_state, writes, shift in targets:
            succ_tracks = tracks
            if writes:
                succ_tracks = list(tracks)
                for track, sym in writes:
                    succ_tracks[track] = _write(succ_tracks[track], heads[track], sym)
                succ_tracks = tuple(succ_tracks)
            succ = _new(Configuration, (
                next_state, succ_tracks,
                heads if shift is None else tuple(map(add, heads, shift)),
            ))
            x = amp * amplitude  # a new complex object, so ``is`` tells a hit
            prev = upsert(succ, x)
            if prev is not x:
                out[succ] = prev + x
    if out and min(map(abs, out.values())) < AMPLITUDE_PRUNE_EPS:  # rarely true
        for config in [c for c, a in out.items() if abs(a) < AMPLITUDE_PRUNE_EPS]:
            del out[config]
    return ConfigSuperposition(out)


@dataclass(frozen=True)
class Phase:
    """A transition table plus its entry state, final states, and a role tag."""

    name: str
    role: str  # "logic" (algorithm-bearing) or "bookkeeping" (tape plumbing)
    delta: TransitionFunction
    entry: str
    finals: frozenset[str]


def rebase(psi: ConfigSuperposition, entry: str) -> ConfigSuperposition:
    """Relabel every branch's processor state — the glue between phases."""
    return ConfigSuperposition({c.with_state(entry): a for c, a in psi.branches.items()})


MAX_PHASE_STEPS = 100_000  # a phase still running after this many steps is stuck


def run_phase(psi: ConfigSuperposition, phase: Phase,
              on_step: Callable[[ConfigSuperposition, float], None] | None = None,
              ) -> tuple[ConfigSuperposition, int]:
    """Enter the phase and step until every branch sits in a final state.

    Every branch is first relabelled to ``phase.entry``, whatever state the
    previous phase left it in. ``on_step(psi, halting_mass)`` sees each new
    superposition and its weight on the final states. Returns
    ``(psi, steps taken)``.
    """
    psi = rebase(psi, phase.entry)
    steps = 0
    finals = phase.finals
    while not finals.issuperset([c[0] for c in psi.branches]):
        if steps >= MAX_PHASE_STEPS:
            raise RuntimeError(
                f"phase {phase.name!r} exceeded {MAX_PHASE_STEPS} steps without halting"
            )
        psi = step(psi, phase.delta, finals)
        steps += 1
        if on_step is not None:
            on_step(psi, psi.state_mass(finals))
    return psi, steps


@dataclass(frozen=True)
class MixedConfiguration:
    """Probability mixture of superpositions: Σ weight_k · |ψ_k⟩⟨ψ_k|."""

    components: tuple[tuple[float, ConfigSuperposition], ...]


def decohere(psi: ConfigSuperposition) -> MixedConfiguration:
    """Measure in the configuration basis: each branch becomes a component
    of weight |amplitude|² holding that single configuration."""
    comps = tuple(
        (abs(a) ** 2, ConfigSuperposition.pure(c)) for c, a in psi.branches.items()
    )
    return MixedConfiguration(comps)


def merge_components(mixed: MixedConfiguration) -> MixedConfiguration:
    """Add weights of components that hold identical single configurations."""
    acc: dict[Configuration, float] = {}
    order: list[Configuration] = []
    for w, psi in mixed.components:
        if len(psi) != 1:
            raise ValueError("merge expects single-configuration components")
        (config,) = psi.branches
        if config not in acc:
            order.append(config)
        acc[config] = acc.get(config, 0.0) + w
    return MixedConfiguration(
        tuple((acc[c], ConfigSuperposition.pure(c)) for c in order)
    )


# --- well-formedness -------------------------------------------------------

@dataclass(frozen=True)
class WellformedReport:
    """Per-key normalization and pairwise orthogonality defects for one table."""

    name: str
    normalization_defects: tuple[tuple[str, tuple[str, ...], float], ...]
    orthogonality_defects: tuple[tuple[str, tuple[str, ...], str, tuple[str, ...], float], ...]
    unitary: bool
    deterministic: bool


def _effective_target(delta: TransitionFunction, read_syms: tuple[str, ...], r: Rule):
    """Successor identity with implicit writes and moves materialized.

    A rule that leaves a track's symbol alone still *writes* it (the read
    symbol goes back), and an unmoved head moves by 0 — so rules keyed on
    different symbols produce different write vectors even when their
    explicit parts coincide. Tracks that are writable but unread keep a
    sentinel: two keep-rules on such a track may well collide, and the
    sentinel makes that overlap visible instead of hiding it.
    """
    writes = dict(r.writes)
    eff_writes = []
    for i, t in enumerate(delta.read_tracks):
        eff_writes.append((t, writes.get(t, read_syms[i])))
    for t in delta.write_tracks:
        if t not in delta.read_tracks:
            eff_writes.append((t, writes.get(t, ("KEEP", t))))
    moves = dict(r.moves)
    movable = sorted(set(delta.read_tracks) | set(delta.write_tracks))
    eff_moves = tuple((t, moves.get(t, 0)) for t in movable)
    return (r.next_state, tuple(sorted(eff_writes)), eff_moves)


def check_wellformed(delta: TransitionFunction) -> WellformedReport:
    """Classify a table: per-key normalization Σ|amp|² = 1, and zero overlap
    between rows whose state *and* read symbols both differ.

    The overlap of two rows is Σ amp·conj(amp') over shared successor targets
    (state, effective writes, moves). Rows that share a state or a symbol
    tuple are not required to be orthogonal here; full unitarity of the
    evolved dynamics is established separately by norm-preservation runs.
    """
    norm_defects = []
    for (state, syms), targets in sorted(delta.rules.items()):
        total = sum(abs(r.amplitude) ** 2 for r in targets)
        if abs(total - 1.0) > SINGLE_OP_ATOL:
            norm_defects.append((state, syms, total))

    keys = sorted(delta.rules)
    ortho_defects = []
    for i, (q1, a1) in enumerate(keys):
        vec1 = {_effective_target(delta, a1, r): r.amplitude for r in delta.rules[(q1, a1)]}
        for q2, a2 in keys[i + 1:]:
            if q1 == q2 or a1 == a2:
                continue
            vec2 = {_effective_target(delta, a2, r): r.amplitude for r in delta.rules[(q2, a2)]}
            overlap = sum(
                vec1[k] * vec2[k].conjugate() for k in vec1.keys() & vec2.keys()
            )
            if abs(overlap) > SINGLE_OP_ATOL:
                ortho_defects.append((q1, a1, q2, a2, abs(overlap)))

    deterministic = all(
        len(targets) == 1 and abs(targets[0].amplitude - 1.0) <= SINGLE_OP_ATOL
        for targets in delta.rules.values()
    )
    unitary = not norm_defects and not ortho_defects
    return WellformedReport(
        delta.name, tuple(norm_defects), tuple(ortho_defects), unitary, deterministic
    )


# --- human-readable dump ---------------------------------------------------

def _fmt_amp(amp: complex) -> str:
    if abs(amp.imag) < 1e-15:
        real = amp.real
        if abs(real - round(real)) < 1e-15:
            return str(int(round(real)))
        return f"{real:.9g}"
    return f"({amp.real:.9g}{amp.imag:+.9g}j)"


def dump_transition(phase: Phase) -> str:
    """Rule listing, one line per (key, target): ``q SYMBOLS -> amp q' WRITES MOVES``."""
    lines = [
        f"# phase {phase.name} [{phase.role}]"
        f" reads={phase.delta.read_tracks} writes={phase.delta.write_tracks}"
        f" entry={phase.entry} finals={sorted(phase.finals)}"
    ]
    for (state, syms), targets in sorted(phase.delta.rules.items()):
        for r in targets:
            writes = ",".join(f"t{t}:{s}" for t, s in r.writes) or "-"
            moves = ",".join(f"t{t}:{m:+d}" for t, m in r.moves) or "-"
            lines.append(
                f"{state} {','.join(syms)} -> {_fmt_amp(r.amplitude)} "
                f"{r.next_state} {writes} {moves}"
            )
    return "\n".join(lines)
