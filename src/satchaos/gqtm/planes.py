"""Lockstep bit-plane executor for machine phases.

In the SAT program every branch moves its heads the same way, and none
merges with another before the measurement. So a run is held as bit planes,
in the idiom of :func:`satchaos.circuit.bit_planes`: one bit per branch in
every mask, a mask being a Python int, and one head vector that every
branch shares.

- Each track maps a position to a cell in one of two forms: the bare
  symbol when every branch holds that symbol, or ``{symbol: mask}``
  otherwise. A cell is blank for the branches whose bit is set under none
  of its symbols, and a position that is blank on every branch is absent.
  The planes never make a dict in which one symbol covers every branch
  (:func:`canonical_cell`), so both lanes leave equal planes, and a cell
  that every branch shares (all of track 0, every cell of a one-branch
  run) costs no mask, no copy at a fork and no mask compare on a read.
  :meth:`Planes.cell` reads either form as ``{symbol: mask}``; no module
  but this one tells the two apart.
- Groups map a state to the mask of the branches in that state.
- The sign plane marks the branches whose amplitude is negative. After k
  forks every branch has magnitude 2^(-k/2), so amplitudes need no floats.

A step splits each group by the symbols under the heads, looks up one row
of δ per read tuple that occurs, applies it as masked plane updates and
then the one head shift that every row taken shares. A two-target row (the
Hadamard rows of ``dft``) doubles the index space: the first target writes
into the lower copy of the branches, the second into the upper one.

Most steps need no split. Every branch shares the head vector, so a step
in which every branch takes the same rule is one update of the whole mask,
whatever symbols the branches read. While one group holds every branch,
:meth:`Planes.run_phase` reads each cell under the heads as a blank, one
symbol on every branch, or the tuple of its symbols, plus a blank when they
leave some branch out. If every key in the product of those options has one
target, the same :class:`~.machine.Rule` for all of them, of amplitude ±1,
it applies that rule to the whole mask: a sign flip, the bare symbol in
each written cell, one head shift. The product holds every key some branch
reads, and maybe keys none reads, so it can send a step to the split when
it need not, but never merges a step wrongly. So replays, the detection
loop, ``setup``, ``erase`` and most of ``or_eval`` step without a split;
the forks of ``dft``, the ``or_eval`` writes that depend on the bits read,
``and_eval`` once the clause bits part the states, and ``handoff`` split.
The split is :meth:`Planes.step`, which raises whatever the planes refuse.
A merged step leaves the mask as it was, so a cell under a head that did not
move and that the rule did not write reads as before. The next step
therefore re-reads only the cells of the read tracks whose head the last
one moved or whose cell it wrote, and keeps the other options. The planes
compile each table's rules into their own form once, and memoise each merge
verdict by state and options, together with the read tracks it touches;
both are made again only if the table gains rules.

Branches are never merged on the planes, so two branches may come to hold
one configuration, whose amplitudes would interfere. The planes do not
count configurations: a caller that measures proves distinctness from its
own tapes (the SAT program reads one assignment per branch off track 1),
and a measurement weighs a set of branches by its popcount, which gives the
same result as merging step by step, because δ is linear.
:meth:`Planes.branch` reads one branch back as a configuration.

The SAT program runs every phase here; the rule-by-rule engine
(:func:`~.machine.step`) is the reference the tests hold these planes to.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import ldexp
from operator import or_
from typing import Callable
from weakref import WeakKeyDictionary

from ..config import SINGLE_OP_ATOL
from .machine import (
    BLANK,
    MAX_PHASE_STEPS,
    Configuration,
    Phase,
    Rule,
    StuckConfigurationError,
    TransitionFunction,
    make_configuration,
)

Mask = int
#: A cell: the bare symbol that every branch holds, or ``{symbol: mask}``.
Cell = str | dict[str, Mask]

#: One target of δ in the form the planes apply: (amplitude, next state, the
#: writes that change a cell, the head moves ``(track, ±1)`` in track order;
#: empty when no head moves).
Row = tuple[complex, str, tuple[tuple[int, str], ...], tuple[tuple[int, int], ...]]
Rows = dict[tuple[str, tuple[str, ...]], tuple[Row, ...]]

#: What a running group may read in one cell: a blank, one symbol on every
#: branch, or the tuple of the cell's symbols, plus a blank when they do not
#: cover every branch.
Option = str | tuple[str, ...]

#: One rule applied to the whole mask: (amplitude is -1, next state, the
#: writes that change a cell, the head moves as in :data:`Row`, and the
#: ``(key index, track)`` of each read track whose cell the step changes
#: under the heads: its head moves, or the rule writes it).
Merged = tuple[bool, str, tuple[tuple[int, str], ...], tuple[tuple[int, int], ...],
               tuple[tuple[int, int], ...]]
#: Merge verdicts keyed by ``(state, *options)``, one option per read track.
Verdicts = dict[tuple[Option, ...], Merged | None]

#: Each table's rows and merge verdicts, made on its first step and dropped
#: with the table.
_COMPILED: "WeakKeyDictionary[TransitionFunction, tuple[Rows, Verdicts]]" = (
    WeakKeyDictionary()
)


def _moves(r: Rule) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((t, move) for t, move in dict(r.moves).items() if move))


def _row(delta: TransitionFunction, r: Rule, reads: tuple[str, ...]) -> Row:
    """``r`` for the key reading ``reads``, less each write of the symbol
    already read on that track (a write that changes nothing)."""
    read = dict(zip(delta.read_tracks, reads))
    writes = tuple((t, sym) for t, sym in r.writes if read.get(t) != sym)
    return complex(r.amplitude), r.next_state, writes, _moves(r)


def _compiled(delta: TransitionFunction) -> tuple[Rows, Verdicts]:
    """δ's rows in the planes' form and its memo of merge verdicts, made once
    per table, and again only if the table has gained rules since (rules are
    only ever added)."""
    entry = _COMPILED.get(delta)
    if entry is None or len(entry[0]) != len(delta.rules):
        rows = {
            key: tuple(_row(delta, r, key[1]) for r in targets)
            for key, targets in delta.rules.items()
        }
        entry = _COMPILED[delta] = rows, {}
    return entry


def _merge(delta: TransitionFunction, state: str,
           options: tuple[Option, ...]) -> Merged | None:
    """The one rule that every key in the product of ``options`` takes, or
    ``None`` unless each such key has exactly one target, all of them the
    same :class:`Rule`, with amplitude ±1."""
    taken = None
    for syms in product(*((o,) if isinstance(o, str) else o for o in options)):
        targets = delta.rules.get((state, syms))
        if targets is None or len(targets) != 1:
            return None
        if taken is None:
            taken = targets[0]
        elif targets[0] != taken:
            return None
    amp = complex(taken.amplitude)
    if amp != 1 and amp != -1:
        return None
    read = dict(zip(delta.read_tracks, options))
    writes = tuple((t, sym) for t, sym in taken.writes if read.get(t) != sym)
    moves = _moves(taken)
    touched = {t for t, _ in writes} | {t for t, _ in moves}
    reread = tuple((i, t) for i, t in enumerate(delta.read_tracks, 1) if t in touched)
    return amp == -1, taken.next_state, writes, moves, reread


def canonical_cell(cell: dict[str, Mask], full: Mask) -> Cell:
    """``cell`` less its empty masks, or its bare symbol when one symbol
    covers ``full``, every branch. An empty result means a blank cell.

    The masks of a cell are disjoint, as each branch holds one symbol, so a
    symbol that covers every branch is the only one with a mask."""
    kept = {}
    for sym, m in cell.items():
        if m:
            if m == full:
                return sym
            kept[sym] = m
    return kept


class LockstepError(RuntimeError):
    """A step the planes cannot hold without giving up lockstep.

    Raised for a forking step in which some branch does not fork (it reads a
    one-target row or has halted) or forks with a target weight |amp|² ≠ ½,
    for a row with more than two targets, for a one-target row whose
    amplitude is not ±1, for a step whose rows or fork targets would move
    the heads apart, and for a step that moves the heads while some branch
    has halted. The CLI maps it, as a ``RuntimeError``, to exit 4.
    """


class Planes:
    """Branches of one machine run, as bit planes (see the module docstring).

    ``width`` is the size of the branch index space, 2^forks for a run that
    starts from one configuration; every index is a live branch. ``heads``
    holds every branch's head positions. ``tracks`` maps each track's
    positions to a :data:`Cell`: the bare symbol when every branch holds
    it, as in ``dict(enumerate(symbols))`` for a tape that all branches
    share, or ``{symbol: mask}``. The planes read a full-width one-symbol
    dict as its symbol, but only ever write the bare form.
    """

    __slots__ = ("width", "forks", "heads", "groups", "tracks", "sign")

    def __init__(self, width: int, heads: tuple[int, ...], groups: dict[str, Mask],
                 tracks: list[dict[int, Cell]]):
        self.width = width
        self.forks = 0
        self.heads = heads
        self.groups = groups
        self.tracks = tracks
        self.sign: Mask = 0

    @classmethod
    def from_configuration(cls, config: Configuration) -> "Planes":
        state, tapes, heads = config
        tracks = [
            {origin + i: sym for i, sym in enumerate(symbols) if sym != BLANK}
            for origin, symbols in tapes
        ]
        return cls(1, heads, {state: 1}, tracks)

    def cell(self, track: int, pos: int) -> dict[str, Mask]:
        """The cell at ``pos`` of ``track`` as ``{symbol: mask}``, ``{}`` when
        it is blank on every branch. Read only: it may be the planes' own."""
        cell = self.tracks[track].get(pos)
        if cell is None:
            return {}
        if cell.__class__ is str:
            return {cell: (1 << self.width) - 1}
        return cell

    def live(self) -> int:
        """Number of branches in some group."""
        return sum(m.bit_count() for m in self.groups.values())

    def mass(self, count: int) -> float:
        """Weight of ``count`` branches: each weighs 2^-forks, exactly."""
        return ldexp(count, -self.forks)

    def _double(self) -> None:
        shift = self.width
        for cells in self.tracks:
            for cell in cells.values():
                if cell.__class__ is not str:  # a bare symbol holds on the copies too
                    for sym, m in cell.items():
                        cell[sym] = m | m << shift
        self.groups = {state: m | m << shift for state, m in self.groups.items()}
        self.sign |= self.sign << shift
        self.width *= 2
        self.forks += 1

    def _write(self, m: Mask, writes) -> None:
        """Apply one row's writes to the branches of ``m``."""
        tracks, heads = self.tracks, self.heads
        full = (1 << self.width) - 1
        for track, sym in writes:
            cells = tracks[track]
            pos = heads[track]
            kept = {s: sm & ~m for s, sm in self.cell(track, pos).items()}
            if sym != BLANK:
                kept[sym] = kept.get(sym, 0) | m
            cell = canonical_cell(kept, full)
            if cell:
                cells[pos] = cell
            else:
                cells.pop(pos, None)

    def step(self, delta: TransitionFunction, finals: frozenset[str]) -> bool:
        """One application of δ to every branch not in a final state, in place.

        Returns whether some branch is still outside ``finals``.
        """
        return self._split(_compiled(delta)[0], delta, finals)

    def _split(self, compiled: Rows, delta: TransitionFunction,
               finals: frozenset[str]) -> bool:
        """:meth:`step`, given ``delta``'s rows as :func:`_compiled` makes them."""
        tracks, heads = self.tracks, self.heads
        cells = []  # a loop, as a comprehension costs more per step
        for t in delta.read_tracks:
            cells.append(tracks[t].get(heads[t]))
        groups: dict[str, Mask] = {}
        moves = []
        forking = False
        for state, mask in self.groups.items():
            if state in finals:
                groups[state] = mask
                continue
            parts = [((), mask)]
            for cell in cells:
                if cell.__class__ is not dict:  # a blank or a bare symbol: one read for all
                    sym = BLANK if cell is None else cell
                    parts = [(syms + (sym,), m) for syms, m in parts]
                    continue
                split = []
                for syms, m in parts:
                    for sym, sm in cell.items():
                        hit = m & sm
                        if hit:
                            split.append((syms + (sym,), hit))
                            m ^= hit
                            if not m:
                                break
                    if m:
                        split.append((syms + (BLANK,), m))
                parts = split
            for syms, m in parts:
                rules = compiled.get((state, syms))
                if rules is None:
                    raise StuckConfigurationError(state, syms, heads)
                if len(rules) > 1:
                    forking = True
                moves.append((m, rules))

        if forking:
            if groups or any(len(rules) != 2 for _, rules in moves):
                raise LockstepError(
                    f"{delta.name}: a forking step in which some branch does not "
                    f"fork in two"
                )
            lower = self.width
            self._double()
            moves = [
                (m << lower * copy, (rule,))
                for m, rules in moves
                for copy, rule in enumerate(rules)
            ]
        shift = moves[0][1][0][3] if moves else ()
        if shift and groups:
            raise LockstepError(
                f"{delta.name}: a step that moves the heads while some branch has halted"
            )
        running = False
        for m, ((amp, next_state, writes, row_shift),) in moves:
            if row_shift != shift:
                raise LockstepError(
                    f"{delta.name}: a step whose rows move the heads apart"
                )
            if forking:
                if amp.imag or abs(amp.real * amp.real - 0.5) > SINGLE_OP_ATOL:
                    raise LockstepError(
                        f"{delta.name}: fork amplitude {amp!r} does not weigh 1/2"
                    )
                if amp.real < 0:
                    self.sign ^= m
            elif amp != 1:
                if amp != -1:
                    raise LockstepError(
                        f"{delta.name}: one-target amplitude {amp!r} is not ±1"
                    )
                self.sign ^= m
            if writes:
                self._write(m, writes)
            groups[next_state] = groups.get(next_state, 0) | m
            if next_state not in finals:
                running = True
        if shift:
            moved = list(heads)
            for t, move in shift:
                moved[t] += move
            self.heads = tuple(moved)
        self.groups = groups
        return running

    def run_phase(self, phase: Phase,
                  on_step: Callable[["Planes", float], None] | None = None) -> int:
        """Enter the phase and step until every branch sits in a final state.

        Like :func:`~.machine.run_phase`: every branch is first relabelled to
        ``phase.entry``, and ``on_step(planes, halting_mass)`` sees each step.
        Returns the number of steps taken.

        While one group of every branch runs, the step holds the verdict key
        ``[state, *options]``, one :data:`Option` per cell under the heads.
        When every key in the product of those options takes the same
        one-target :class:`~.machine.Rule` of amplitude ±1, that rule is
        applied to the whole mask, in a loop that holds the state, mask and
        heads in locals and writes bare symbols. The product holds
        every key a branch reads, and maybe more, so such a step ends where
        the split would end. The mask does not change in that loop, so a
        cell that no head left and no write changed reads as before: the
        next step sets the new state and re-reads only the cells of the
        verdict's touched tracks. Any other step goes to the split of
        :meth:`step`, which reads every cell afresh and raises whatever the
        planes refuse. Both lanes stop with ``RuntimeError`` before step
        ``MAX_PHASE_STEPS + 1``.
        """
        state = phase.entry
        mask = reduce(or_, self.groups.values(), 0)
        self.groups = {state: mask}
        # Whether the groups hold every branch: a step keeps each branch in
        # some group, and a fork doubles the groups and the width alike, so
        # this holds for the whole phase. With a lost branch every step
        # splits, which keeps that branch's cells.
        whole = mask.bit_count() == self.width
        delta, finals = phase.delta, phase.finals
        compiled, verdicts = _compiled(delta)
        tracks = self.tracks
        every = tuple(enumerate(delta.read_tracks, 1))
        steps = 0
        running = state not in finals
        while running:
            if whole and len(self.groups) == 1:  # running, so its state is not final
                [(state, mask)] = self.groups.items()
                heads = list(self.heads)
                sign = self.sign
                key = [state] + [BLANK] * len(every)  # every option is read below
                reread = every
                while steps < MAX_PHASE_STEPS:
                    for i, t in reread:
                        cell = tracks[t].get(heads[t])
                        if cell is None:
                            key[i] = BLANK
                        elif cell.__class__ is str:
                            key[i] = cell
                        elif len(cell) == 1:
                            [(sym, sm)] = cell.items()
                            key[i] = sym if sm == mask else (sym, BLANK)
                        else:
                            cover = 0
                            for sm in cell.values():
                                cover |= sm
                            key[i] = tuple(cell) if cover == mask else (*cell, BLANK)
                    verdict = tuple(key)
                    try:
                        merged = verdicts[verdict]
                    except KeyError:
                        merged = verdicts[verdict] = _merge(delta, state, verdict[1:])
                    if merged is None:
                        break
                    flip, state, writes, shift, reread = merged
                    key[0] = state
                    if flip:
                        sign ^= mask
                    for t, sym in writes:
                        if sym == BLANK:
                            tracks[t].pop(heads[t], None)
                        else:
                            tracks[t][heads[t]] = sym
                    for t, move in shift:
                        heads[t] += move
                    steps += 1
                    running = state not in finals
                    if on_step is not None:
                        self.heads, self.sign, self.groups = tuple(heads), sign, {state: mask}
                        on_step(self, self.mass(0 if running else mask.bit_count()))
                    if not running:
                        break
                self.heads, self.sign, self.groups = tuple(heads), sign, {state: mask}
                if not running:
                    break
            if steps >= MAX_PHASE_STEPS:
                raise RuntimeError(
                    f"phase {phase.name!r} exceeded {MAX_PHASE_STEPS} steps without halting"
                )
            running = self._split(compiled, delta, finals)
            steps += 1
            if on_step is not None:
                halted = sum(m.bit_count() for s, m in self.groups.items() if s in finals)
                on_step(self, self.mass(halted))
        return steps

    def branch(self, i: int) -> Configuration:
        """Branch ``i`` read back as a configuration."""
        bit = 1 << i
        state = next(s for s, m in self.groups.items() if m & bit)
        tracks = [
            {pos: sym for pos in cells for sym, sm in self.cell(t, pos).items() if sm & bit}
            for t, cells in enumerate(self.tracks)
        ]
        return make_configuration(state, tracks, self.heads)
