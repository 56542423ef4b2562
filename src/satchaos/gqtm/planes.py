"""Lockstep bit-plane executor for machine phases.

In the SAT program every branch of the unitary stage moves its heads the
same way, and none merges with another before the measurement. So a run is
held as bit planes, in the idiom of :func:`satchaos.circuit.bit_planes`:
one bit per branch in every mask, a mask being a Python int.

- Each track maps a position to ``{symbol: mask}``. A cell is blank for the
  branches whose bit is set under none of its symbols.
- Groups map ``(state, heads)`` to the mask of the branches in that state
  with those heads.
- The sign plane marks the branches whose amplitude is negative. After k
  forks every branch has magnitude 2^(-k/2), so amplitudes need no floats.

A step splits each group by the symbols under its heads, looks up one row
of δ per read tuple that occurs and applies it as masked plane updates. A
two-target row (the Hadamard rows of ``dft``) doubles the index space: the
first target writes into the lower copy of the branches, the second into
the upper one. Branches are never merged on the planes, so two branches
may come to hold one configuration: :meth:`Planes.count_configurations`
counts the distinct ones, and a measurement weighs a set of branches by its
popcount, which gives the same result as merging step by step, because δ is
linear. :meth:`Planes.branch` reads one branch back as a configuration.

The SAT program runs every phase here; the rule-by-rule engine
(:func:`~.machine.step`) is the reference the tests hold these planes to.
"""

from __future__ import annotations

from math import ldexp
from operator import add
from typing import Callable

import numpy as np

from ..config import SINGLE_OP_ATOL
from .machine import (
    BLANK,
    MAX_PHASE_STEPS,
    Configuration,
    Phase,
    StuckConfigurationError,
    TransitionFunction,
    make_configuration,
)

Mask = int
Key = tuple[str, tuple[int, ...]]  # (state, heads)


class LockstepError(RuntimeError):
    """A step the planes cannot hold without giving up lockstep.

    Raised for a forking step in which some branch does not fork (it reads a
    one-target row or has halted) or forks with a target weight |amp|² ≠ ½,
    for a row with more than two targets, and for a one-target row whose
    amplitude is not ±1. The CLI maps it, as a ``RuntimeError``, to exit 4.
    """


class Planes:
    """Branches of one machine run, as bit planes (see the module docstring).

    ``width`` is the size of the branch index space, 2^forks for a run that
    starts from one configuration; every index is a live branch.
    """

    __slots__ = ("width", "forks", "groups", "tracks", "sign")

    def __init__(self, width: int, groups: dict[Key, Mask],
                 tracks: list[dict[int, dict[str, Mask]]]):
        self.width = width
        self.forks = 0
        self.groups = groups
        self.tracks = tracks
        self.sign: Mask = 0

    @classmethod
    def from_configuration(cls, config: Configuration) -> "Planes":
        state, tapes, heads = config
        tracks = [
            {origin + i: {sym: 1} for i, sym in enumerate(symbols) if sym != BLANK}
            for origin, symbols in tapes
        ]
        return cls(1, {(state, heads): 1}, tracks)

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
                for sym, m in cell.items():
                    cell[sym] = m | m << shift
        self.groups = {key: m | m << shift for key, m in self.groups.items()}
        self.sign |= self.sign << shift
        self.width *= 2
        self.forks += 1

    def _write(self, heads: tuple[int, ...], m: Mask, writes) -> None:
        """Apply one row's writes to the branches of ``m``."""
        tracks = self.tracks
        for track, sym in writes:
            cells = tracks[track]
            pos = heads[track]
            cell = cells.get(pos)
            if cell is None:
                if sym != BLANK:
                    cells[pos] = {sym: m}
                continue
            kept = {}
            for s, sm in cell.items():
                if s != sym:
                    sm &= ~m
                    if not sm:
                        continue
                kept[s] = sm
            if sym != BLANK:
                kept[sym] = kept.get(sym, 0) | m
            if kept:
                cells[pos] = kept
            else:
                del cells[pos]

    def step(self, delta: TransitionFunction, finals: frozenset[str]) -> bool:
        """One application of δ to every branch not in a final state, in place.

        Returns whether some branch is still outside ``finals``.
        """
        compiled, read_tracks, tracks = delta.compiled, delta.read_tracks, self.tracks
        groups: dict[Key, Mask] = {}
        moves = []
        forking = False
        for key, mask in self.groups.items():
            state, heads = key
            if state in finals:
                groups[key] = groups.get(key, 0) | mask
                continue
            parts = [((), mask)]
            for t in read_tracks:
                cell = tracks[t].get(heads[t])
                if cell is None:
                    parts = [(syms + (BLANK,), m) for syms, m in parts]
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
                moves.append((heads, m, rules))

        if forking:
            if groups or any(len(rules) != 2 for *_, rules in moves):
                raise LockstepError(
                    f"{delta.name}: a forking step in which some branch does not "
                    f"fork in two"
                )
            lower = self.width
            self._double()
            moves = [
                (heads, m << lower * copy, (rule,))
                for heads, m, rules in moves
                for copy, rule in enumerate(rules)
            ]
        running = False
        for heads, m, ((amp, next_state, writes, shift),) in moves:
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
                self._write(heads, m, writes)
            key = (next_state, heads if shift is None else tuple(map(add, heads, shift)))
            groups[key] = groups.get(key, 0) | m
            if next_state not in finals:
                running = True
        self.groups = groups
        return running

    def run_phase(self, phase: Phase,
                  on_step: Callable[["Planes", float], None] | None = None) -> int:
        """Enter the phase and step until every branch sits in a final state.

        Like :func:`~.machine.run_phase`: every branch is first relabelled to
        ``phase.entry``, and ``on_step(planes, halting_mass)`` sees each step.
        Returns the number of steps taken.
        """
        entered: dict[Key, Mask] = {}
        for (_, heads), m in self.groups.items():
            key = (phase.entry, heads)
            entered[key] = entered.get(key, 0) | m
        self.groups = entered
        finals = phase.finals
        steps = 0
        running = phase.entry not in finals
        while running:
            if steps >= MAX_PHASE_STEPS:
                raise RuntimeError(
                    f"phase {phase.name!r} exceeded {MAX_PHASE_STEPS} steps without halting"
                )
            running = self.step(phase.delta, finals)
            steps += 1
            if on_step is not None:
                halted = sum(m.bit_count() for (s, _), m in self.groups.items() if s in finals)
                on_step(self, self.mass(halted))
        return steps

    def _plane(self, m: Mask) -> np.ndarray:
        """Mask ``m`` as one int64 0/1 per branch."""
        raw = np.frombuffer(m.to_bytes((self.width + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=self.width, bitorder="little").astype(np.int64)

    def _labels(self) -> np.ndarray:
        """One label per branch, equal exactly where branches are one configuration.

        Labels are refined cell by cell and renumbered densely after each
        track and before they could overflow. Refining stops as soon as every
        branch has a label of its own.
        """
        full = (1 << self.width) - 1
        labels = sum(i * self._plane(m) for i, m in enumerate(self.groups.values()))
        bound = len(self.groups)  # labels lie in range(bound)
        dense = True  # and each of them occurs
        for cells in self.tracks:
            for cell in cells.values():
                if len(cell) == 1 and full in cell.values():
                    continue  # one symbol on every branch: splits nothing
                base = len(cell) + 1
                if bound * base >= 1 << 62:
                    _, labels = np.unique(labels, return_inverse=True)
                    bound = int(labels.max()) + 1
                labels = labels * base + sum(
                    j * self._plane(m) for j, m in enumerate(cell.values(), 1)
                )
                bound *= base
                dense = False
            if not dense:
                _, labels = np.unique(labels, return_inverse=True)
                bound = int(labels.max()) + 1
                dense = True
            if bound == self.width:
                break
        return labels

    def count_configurations(self) -> int:
        """Number of distinct configurations among the branches."""
        return int(self._labels().max()) + 1

    def branch(self, i: int) -> Configuration:
        """Branch ``i`` read back as a configuration."""
        bit = 1 << i
        state, heads = next(key for key, m in self.groups.items() if m & bit)
        tracks = [
            {pos: sym for pos, cell in cells.items() for sym, sm in cell.items() if sm & bit}
            for cells in self.tracks
        ]
        return make_configuration(state, tracks, heads)
