"""Reverse transition functions: derivation, backward stepping, verification.

A machine is reversible when a partial backward table exists whose induced
predecessor relation is the exact inverse of the forward step relation.  In a
backward step the head moves first (left or not at all) and then the token is
read, so backward entries are keyed on the token the forward step consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple, Optional

from .core import (
    Configuration,
    CounterAutomaton,
    MachineError,
    NegativeCounterError,
    POSITIVE,
    StatusVector,
    Transition,
    ZERO,
    all_words,
    check_configuration,
    run,
    status_of,
)


class ExtendedDeltaError(MachineError):
    pass


class ReverseStep(NamedTuple):
    target: object
    move: int
    deltas: tuple[int, ...]


@dataclass
class ReverseTable:
    """Partial backward table keyed on (state, consumed token, post-step statuses).

    The move is operationally uniform per (state, statuses) so a backward
    machine can move its head before reading.
    """

    entries: dict[tuple, ReverseStep] = field(default_factory=dict)
    _moves: dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)

    def move_for(self, state, statuses: StatusVector) -> Optional[int]:
        if not self._moves and self.entries:
            for (st, _tok, d), out in self.entries.items():
                self._moves[(st, d)] = out.move
        return self._moves.get((state, statuses))


@dataclass
class Conflict:
    kind: str  # "preimage" or "move"
    key: tuple
    first: Transition
    second: Transition


@dataclass
class ReversibilityVerdict:
    table: Optional[ReverseTable]
    conflicts: list[Conflict] = field(default_factory=list)

    @property
    def reversible(self) -> bool:
        return self.table is not None


def feasible_post_statuses(status: str, delta: int) -> tuple[str, ...]:
    """Counter statuses observable after applying delta to a counter currently
    in the given status, excluding effects that would go negative."""
    if status == ZERO:
        if delta < 0:
            return ()
        return (ZERO,) if delta == 0 else (POSITIVE,)
    if delta > 0:
        return (POSITIVE,)
    if delta == 0:
        return (POSITIVE,)
    return (ZERO, POSITIVE)


def _post_statuses(t: Transition):
    """Every status vector observable right after ``t`` fires; none at all
    when ``t`` is statically inapplicable (a decrement on zero)."""
    return product(*(feasible_post_statuses(s, d) for s, d in zip(t.statuses, t.deltas)))


def derive_reverse(machine: CounterAutomaton) -> ReversibilityVerdict:
    """Mechanically invert the forward table, or report why that fails.

    Every forward entry is mirrored at each post-step status vector it can
    produce; identical collisions merge (the live counter value disambiguates
    at run time), differing ones are conflicts.  Restricted to ordinary
    machines; extended ones go through the normalization construction first.
    """
    if machine.max_delta > 1:
        raise ExtendedDeltaError(
            f"max_delta {machine.max_delta}: normalize extended machines before deriving"
        )
    return derive_reverse_any(machine)


def derive_reverse_any(machine: CounterAutomaton) -> ReversibilityVerdict:
    """Derivation without the max_delta guard, for internal construction use."""
    entries: dict[tuple, ReverseStep] = {}
    origin: dict[tuple, Transition] = {}
    conflicts: list[Conflict] = []
    for t in machine.transitions:
        reverse = ReverseStep(t.state, -t.move, tuple(-d for d in t.deltas))
        for post in _post_statuses(t):
            key = (t.target, t.token, post)
            if key in entries:
                if entries[key] != reverse:
                    conflicts.append(Conflict("preimage", key, origin[key], t))
                continue
            entries[key] = reverse
            origin[key] = t
    # one backward move per (state, post-statuses), across consumed tokens
    moves: dict[tuple, tuple] = {}
    for (st, _tok, d), out in entries.items():
        group = (st, d)
        if group in moves:
            if moves[group][0] != out.move:
                conflicts.append(Conflict("move", group, moves[group][1], origin[(st, _tok, d)]))
        else:
            moves[group] = (out.move, origin[(st, _tok, d)])
    if conflicts:
        return ReversibilityVerdict(None, conflicts)
    return ReversibilityVerdict(ReverseTable(entries))


def step_back(
    machine: CounterAutomaton, table: ReverseTable, cfg: Configuration
) -> Optional[Configuration]:
    """One backward step via the reverse table; None when no entry applies."""
    check_configuration(machine, cfg)
    statuses = status_of(cfg.counters)
    move = table.move_for(cfg.state, statuses)
    if move is None:
        return None
    head = cfg.head + move
    if head < 0:
        return None
    probe = Configuration(cfg.state, cfg.word, head, cfg.counters)
    token = machine.scanned(probe)
    out = table.entries.get((cfg.state, token, statuses))
    if out is None:
        return None
    counters = tuple(c + d for c, d in zip(cfg.counters, out.deltas))
    if any(c < 0 for c in counters):
        raise NegativeCounterError(f"backward deltas {out.deltas} underflow {cfg.counters}")
    return Configuration(out.target, cfg.word, head, counters)


@dataclass
class RoundtripCounterexample:
    word: tuple[str, ...]
    before: Configuration
    after: Configuration
    recovered: Optional[Configuration]


def verify_roundtrip(
    machine: CounterAutomaton,
    table: ReverseTable,
    max_len: int,
    fuel: int = 10_000,
) -> Optional[RoundtripCounterexample]:
    """Exhaustively check that every forward step inverts to its predecessor.

    Simulates every word up to max_len (shortest first, lexicographic) and
    steps each run's configurations back through the table; returns the first
    violation, or None when everything round-trips.
    """
    for word in all_words(machine.alphabet, max_len):
        bad = roundtrip_word(machine, table, word, fuel)
        if bad is not None:
            return bad
    return None


def roundtrip_word(machine, table, word, fuel=10_000) -> Optional[RoundtripCounterexample]:
    outcome = run(machine, word, fuel, trace=True)
    trace = outcome.trace or []
    for before, after in zip(trace, trace[1:]):
        recovered = step_back(machine, table, after)
        if recovered != before:
            return RoundtripCounterexample(tuple(word), before, after, recovered)
    return None


@dataclass
class StationaryWitness:
    word: tuple[str, ...]
    fragment: list[Configuration]


@dataclass
class QuasiRealtimeReport:
    ok: bool
    witness: Optional[StationaryWitness] = None
    advisories: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_quasi_realtime(
    machine: CounterAutomaton,
    ell: int,
    max_len: int,
    fuel: int = 10_000,
) -> QuasiRealtimeReport:
    """Bound consecutive stationary moves on accepted inputs up to max_len.

    Also statically scans stationary transitions for cycles over
    (state, token, statuses) keys, reporting each as an advisory: such a cycle
    can loop forever without consuming input, though it may be unreachable.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    advisories = _stationary_cycles(machine)
    for word in all_words(machine.alphabet, max_len):
        outcome = run(machine, word, fuel, trace=True)
        if not outcome.accepted:
            continue
        trace = outcome.trace or []
        streak_start = 0
        streak = 0
        for i in range(1, len(trace)):
            if trace[i].head == trace[i - 1].head:
                if streak == 0:
                    streak_start = i - 1
                streak += 1
                if streak > ell:
                    fragment = trace[streak_start : i + 1]
                    return QuasiRealtimeReport(
                        False, StationaryWitness(tuple(word), fragment), advisories
                    )
            else:
                streak = 0
    return QuasiRealtimeReport(True, None, advisories)


def _stationary_cycles(machine: CounterAutomaton) -> list[str]:
    stationary = [t for t in machine.transitions if t.move == 0]
    edges: dict[tuple, list[tuple]] = {}
    keys = {t.key for t in stationary}
    for t in stationary:
        for post in _post_statuses(t):
            nxt = (t.target, t.token, post)
            if nxt in keys:
                edges.setdefault(t.key, []).append(nxt)
    advisories = []
    # iterative DFS over the stationary-step graph
    color: dict[tuple, int] = {}
    for start in sorted(edges, key=repr):
        if color.get(start):
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    cycle = path[path.index(nxt) :] + [nxt]
                    advisories.append(
                        "stationary cycle: " + " -> ".join(repr(k) for k in cycle)
                    )
                elif not color.get(nxt):
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return advisories
