"""Per-layer tracing of satchaos from outside the program.

A :class:`Tracer` replaces public functions of each layer with wrappers
that record spans, at every module attribute through which callers look the
function up (``from .circuit import run as circuit_run`` binds the same
object under another name, so every binding of the object is replaced). It
restores the originals on exit. Spans live in memory: name, start, end, the
span that caused it, the thread, and a per-layer count computed from the
call's arguments or result.

Self time is assigned by sweeping each request's spans in time order: at
every instant the innermost active spans (those with no active child) share
the elapsed time equally. With one thread this is the usual "duration minus
child spans"; under ``verify``'s thread pool it still partitions the
request's wall time, so self times plus ``bench.unattributed_s`` add up to
the traced request time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import satchaos.amplifier as amplifier
import satchaos.circuit as circuit
import satchaos.cli as cli
import satchaos.gqtm.machine as machine
import satchaos.gqtm.program as program
import satchaos.quantum as quantum
import satchaos.sat as sat
import satchaos.verify as verify

NAME, START, END, PARENT, THREAD, VALUE = range(6)
ROOT = "bench.request"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gate_traffic(args, kwargs, state):
    # Computed, not measured: one read and one write of the whole state.
    return state.amplitudes.size, 2 * state.amplitudes.nbytes


def _branches(args, kwargs, out):
    size = len(_arg(args, kwargs, 0, "psi"))
    return size, max(size, len(out))


# (span name, owner, attribute, value recorded from (args, kwargs, result))
SPANS = (
    ("cli.main", cli, "main", None),
    ("sat.parse_dimacs", sat, "parse_dimacs", None),
    ("sat.count_models", sat, "count_models",
     lambda a, k, r: 1 << _arg(a, k, 0, "inst").num_vars),
    ("circuit.layout", circuit, "layout", lambda a, k, lay: lay.total_qubits),
    ("circuit.build_circuit", circuit, "build_circuit", lambda a, k, gates: len(gates)),
    ("circuit.run", circuit, "run", None),
    ("quantum.apply_placed_gate", quantum, "apply_placed_gate", _gate_traffic),
    ("quantum.probability_qubit_one", quantum, "probability_qubit_one", None),
    ("amplifier.snap_dyadic", amplifier, "snap_dyadic", None),
    ("amplifier.amplify_detect", amplifier, "amplify_detect", None),
    ("gqtm.step", machine, "step", _branches),
    ("gqtm.observer", machine.ConfigSuperposition, "norm_sq", None),
    ("gqtm.observer", machine.ConfigSuperposition, "state_mass", None),
    ("gqtm.decohere", machine, "decohere", None),
    ("gqtm.merge_components", machine, "merge_components", None),
    ("gqtm.sat_machine", program, "sat_machine", None),
    ("gqtm.run_sat_gqtm", program, "run_sat_gqtm", None),
    ("gqtm.run_classical_branch", program, "run_classical_branch", None),
) + tuple(
    (f"verify.suite_{suite}", verify, f"suite_{suite}", lambda a, k, res: res.checks)
    for suite in ("oracle", "tables", "gates", "bounds")
)

# Calls counted without a span: (counter name, owner, attribute).
TICKS = (
    ("amplifier.iterations", amplifier, "logistic_step"),
    ("gqtm.table_builds", program, "phase_or_eval"),
    ("gqtm.table_builds", program, "phase_and_eval"),
)

# Per-layer metrics in report order, with units.
METRICS = (
    ("sat.parse_dimacs.self_s", "s"),
    ("sat.count_models.self_s", "s"),
    ("sat.count_models.assignments", "count"),
    ("circuit.layout.self_s", "s"),
    ("circuit.build_circuit.self_s", "s"),
    ("circuit.run.self_s", "s"),
    ("circuit.gates", "count"),
    ("circuit.qubits_max", "qubits"),
    ("quantum.apply_placed_gate.calls", "count"),
    ("quantum.apply_placed_gate.self_s", "s"),
    ("quantum.probability_qubit_one.self_s", "s"),
    ("quantum.amplitudes_touched", "count"),
    ("quantum.bytes_moved_computed", "B"),
    ("amplifier.snap_dyadic.self_s", "s"),
    ("amplifier.amplify_detect.self_s", "s"),
    ("amplifier.iterations", "count"),
    ("gqtm.step.calls", "count"),
    ("gqtm.step.self_s", "s"),
    ("gqtm.branches_stepped", "count"),
    ("gqtm.peak_branches", "count"),
    ("gqtm.observer.self_s", "s"),
    ("gqtm.decohere.self_s", "s"),
    ("gqtm.merge_components.self_s", "s"),
    ("gqtm.table_builds", "count"),
    ("gqtm.sat_machine.self_s", "s"),
    ("gqtm.run_sat_gqtm.self_s", "s"),
    ("gqtm.run_classical_branch.calls", "count"),
    ("gqtm.run_classical_branch.self_s", "s"),
    ("verify.suite_oracle.s", "s"),
    ("verify.suite_tables.s", "s"),
    ("verify.suite_gates.s", "s"),
    ("verify.suite_bounds.s", "s"),
    ("verify.checks", "count"),
    ("cli.main.self_s", "s"),
    ("bench.unattributed_s", "s"),
)

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "circuit.gates",
    "quantum.amplitudes_touched",
    "gqtm.step.calls",
    "gqtm.branches_stepped",
    "gqtm.peak_branches",
    "gqtm.table_builds",
    "amplifier.iterations",
    "verify.checks",
)


class Tracer:
    """Spans and counts of one traced pass; a context manager that patches."""

    def __init__(self):
        self.spans: list[list] = []
        self.ticks: list[str] = []
        self.requests: list[tuple[list, int, int]] = []  # (root span, first, end)
        self._local = threading.local()
        self._client = self._stack()
        self._undo: list[tuple[object, str, object]] = []
        self._own: dict[str, float] | None = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span(self, name, fn, measure):
        spans, stack_of, client = self.spans, self._stack, self._client
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # A span opened on a pool thread was caused by the client's
            # innermost open span.
            parent = stack[-1] if stack else (client[-1] if client else None)
            rec = [name, clock(), 0.0, parent, ident(), None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[VALUE] = measure(args, kwargs, result)
            return result

        return traced

    def _tick(self, name, fn):
        ticks = self.ticks

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ticks.append(name)
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items())
                       if n == "satchaos" or n.startswith("satchaos.")]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, original))
        for name, fn in list(verify.SUITES.items()):  # cli dispatches through this table
            if fn is original:
                verify.SUITES[name] = wrapper
                self._undo.append((verify.SUITES, name, original))

    def __enter__(self) -> "Tracer":
        for name, owner, attr, measure in SPANS:
            self._replace(owner, attr, self._span(name, getattr(owner, attr), measure))
        for name, owner, attr in TICKS:
            self._replace(owner, attr, self._tick(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for holder, name, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)
        self._undo.clear()

    def request(self):
        """Context manager that opens the root span of one request."""
        return _RequestSpan(self)

    def request_seconds(self) -> float:
        return sum(root[END] - root[START] for root, _, _ in self.requests)

    def stray_spans(self) -> int:
        """Spans recorded outside every request, or not closed within their request.

        Such a span (say, from a pool thread that outlives its request) would
        be missing from, or wrongly counted in, the self times.
        """
        inside = sum(
            root[START] <= rec[START] <= rec[END] <= root[END]
            for root, first, end in self.requests
            for rec in self.spans[first:end]
        )
        return len(self.spans) - inside

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over every request (computed once)."""
        if self._own is None:
            self._own = defaultdict(float)
            for _, first, end in self.requests:
                for name, seconds in _sweep(self.spans[first:end]).items():
                    self._own[name] += seconds
        return self._own

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of METRICS; 0 for layers that never ran."""
        own = self.self_times()
        out: dict[str, float] = {f"{name}.self_s": s for name, s in own.items()}
        out["bench.unattributed_s"] = own.get(ROOT, 0.0)
        calls = Counter(rec[NAME] for rec in self.spans)
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        ticks = Counter(self.ticks)
        values = defaultdict(list)
        durations: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            if rec[VALUE] is not None:
                values[rec[NAME]].append(rec[VALUE])
            durations[rec[NAME]] += rec[END] - rec[START]
        out["sat.count_models.assignments"] = sum(values["sat.count_models"])
        out["circuit.gates"] = sum(values["circuit.build_circuit"])
        out["circuit.qubits_max"] = max(values["circuit.layout"], default=0)
        out["quantum.amplitudes_touched"] = sum(v[0] for v in values["quantum.apply_placed_gate"])
        out["quantum.bytes_moved_computed"] = sum(v[1] for v in values["quantum.apply_placed_gate"])
        out["amplifier.iterations"] = ticks["amplifier.iterations"]
        out["gqtm.branches_stepped"] = sum(v[0] for v in values["gqtm.step"])
        out["gqtm.peak_branches"] = max((v[1] for v in values["gqtm.step"]), default=0)
        out["gqtm.table_builds"] = ticks["gqtm.table_builds"] + calls["gqtm.sat_machine"]
        for suite in ("oracle", "tables", "gates", "bounds"):
            out[f"verify.suite_{suite}.s"] = durations[f"verify.suite_{suite}"]
        out["verify.checks"] = sum(
            sum(values[f"verify.suite_{suite}"])
            for suite in ("oracle", "tables", "gates", "bounds")
        )
        return {name: out.get(name, 0) for name, _ in METRICS}

    def layer_shares(self) -> dict[str, float]:
        """Share of traced request time per layer (self times by name prefix)."""
        total = self.request_seconds()
        shares: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            shares[name.split(".")[0]] += seconds / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV, times in seconds from the first request."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        threads: dict[int, int] = {}
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["request", "span", "parent", "thread", "name", "start_s", "end_s"])
            for req, (_, first, end) in enumerate(self.requests):
                for i in range(first, end):
                    rec = self.spans[i]
                    parent = "" if rec[PARENT] is None else index[id(rec[PARENT])]
                    thread = threads.setdefault(rec[THREAD], len(threads))
                    out.writerow([req, i, parent, thread, rec[NAME],
                                  f"{rec[START] - origin:.9f}", f"{rec[END] - origin:.9f}"])


class _RequestSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.first = len(t.spans)
        self.rec = [ROOT, time.perf_counter(), 0.0, None, threading.get_ident(), None]
        t.spans.append(self.rec)
        t._client.append(self.rec)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        self.rec[END] = time.perf_counter()
        t._client.pop()
        t.requests.append((self.rec, self.first, len(t.spans)))


def _sweep(recs: list[list]) -> dict[str, float]:
    """Self time per span name for one request's spans (see module docstring)."""
    position = {id(rec): i for i, rec in enumerate(recs)}
    parent = [position.get(id(rec[PARENT])) for rec in recs]
    depth = [0] * len(recs)
    for i, p in enumerate(parent):  # a parent is recorded before its children
        if p is not None:
            depth[i] = depth[p] + 1
    events = [(rec[START], 1, depth[i], i) for i, rec in enumerate(recs)]
    events += [(rec[END], 0, -depth[i], i) for i, rec in enumerate(recs)]
    events.sort()
    own = [0.0] * len(recs)
    active_children: dict[int, int] = {}
    leaves: set[int] = set()
    previous = None
    for t, starting, _, i in events:
        if leaves and t > previous:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = t
        p = parent[i]
        if starting:
            active_children[i] = 0
            leaves.add(i)
            if p in active_children:
                if active_children[p] == 0:
                    leaves.discard(p)
                active_children[p] += 1
        else:
            leaves.discard(i)
            del active_children[i]
            if p in active_children:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves.add(p)
    totals: dict[str, float] = defaultdict(float)
    for rec, seconds in zip(recs, own):
        totals[rec[NAME]] += seconds
    return totals
