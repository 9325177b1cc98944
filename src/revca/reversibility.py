"""Reverse transition functions: derivation, backward stepping, verification.

A machine is reversible when a partial backward table exists whose induced
predecessor relation is the exact inverse of the forward step relation.  In a
backward step the head moves first (left or not at all) and then the token is
read, so backward entries are keyed on the token the forward step consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, islice, product
from operator import attrgetter
from typing import NamedTuple, Optional

from .core import (
    Configuration,
    CounterAutomaton,
    LEFT_END,
    MachineError,
    POSITIVE,
    RIGHT_END,
    StatusVector,
    Transition,
    ZERO,
    _status_slot,
    all_words,
    check_configuration,
    run,
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
    machine can move its head before reading.  The first backward step or
    ``move_for`` indexes ``entries`` into ``_rows``: per state a list of
    slots, one per status vector at ``core._status_slot`` (its status bits
    under a length bit), each None or [move, {token: step}], where the
    group's last entry sets the move.  A backward step of k counters reads
    only slots 2**k to 2**(k+1) - 1, so a key whose statuses have another
    length is never read and shares no slot with a real key, and one whose
    statuses hold another character than Z or P gets no slot.  A state's
    list is as long as its longest status vector needs, and a step past its
    end misses.  ``entries`` must not change after that.
    """

    entries: dict[tuple, ReverseStep] = field(default_factory=dict)

    @cached_property
    def _rows(self) -> dict[object, list]:
        rows: dict[object, list] = {}
        slots_of: dict[StatusVector, int] = {}
        for (state, token, statuses), out in self.entries.items():
            slot = slots_of.get(statuses)
            if slot is None:
                slot = slots_of[statuses] = _status_slot(statuses)
            if not slot:
                continue
            slots = rows.get(state)
            if slots is None:
                slots = rows[state] = [None] * (2 << len(statuses))
            elif slot >= len(slots):
                slots += [None] * ((2 << len(statuses)) - len(slots))
            row = slots[slot]
            if row is None:
                slots[slot] = [out.move, {token: out}]
            else:
                row[0] = out.move
                row[1][token] = out
        return rows

    def move_for(self, state, statuses: StatusVector) -> Optional[int]:
        slots, slot = self._rows.get(state), _status_slot(statuses)
        row = slots[slot] if slots is not None and slot < len(slots) else None
        return None if row is None else row[0]


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
    if delta >= 0:
        return (POSITIVE,)
    return (ZERO, POSITIVE)


def _post_statuses(t: Transition) -> tuple[StatusVector, ...]:
    """Every status vector observable right after ``t`` fires; none at all
    when ``t`` is statically inapplicable (a decrement on zero)."""
    return tuple(product(*(feasible_post_statuses(s, d) for s, d in zip(t.statuses, t.deltas))))


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
    """``derive_reverse`` without the max_delta guard, so that an extended
    machine's table can be handed to ``normalize_extended(m, reverse=...)``.

    Each transition is unpacked once, each entry key is hashed once on the
    way in, and each new entry's (state, post-statuses) group is checked for
    one backward move right there; the forward transitions behind the
    entries are only looked up again to report conflicts.  Each distinct
    (statuses, deltas) effect is negated and expanded to its post-status
    vectors once.  The move map of that check stays here: the returned table
    indexes its own rows when it first steps back, so a derivation that only
    reports builds no index.
    """
    entries: dict[tuple, ReverseStep] = {}
    moves: dict[tuple, int] = {}  # one backward move per (state, post-statuses)
    preimage_clashes: list[tuple[tuple, Transition]] = []
    move_clashes: list[tuple[tuple, tuple]] = []
    effects: dict[tuple, tuple] = {}  # (statuses, deltas) -> (negated deltas, post statuses)
    new = tuple.__new__
    for t in machine.transitions:
        state, token, statuses, target, move, deltas = t
        effect = effects.get((statuses, deltas))
        if effect is None:
            effect = effects[statuses, deltas] = (tuple(-d for d in deltas), _post_statuses(t))
        move = -move
        reverse = new(ReverseStep, (state, move, effect[0]))
        for post in effect[1]:
            key = (target, token, post)
            first = entries.setdefault(key, reverse)
            if first is reverse:
                group = (target, post)
                if moves.setdefault(group, move) != move:
                    move_clashes.append((group, key))
            elif first != reverse:
                preimage_clashes.append((key, t))
    if not (preimage_clashes or move_clashes):
        return ReversibilityVerdict(ReverseTable(entries))
    origin: dict[tuple, Transition] = {}
    for t in machine.transitions:
        for post in _post_statuses(t):
            origin.setdefault((t.target, t.token, post), t)
    group_first: dict[tuple, tuple] = {}
    for key in entries:
        group_first.setdefault((key[0], key[2]), key)
    conflicts = [Conflict("preimage", key, origin[key], t) for key, t in preimage_clashes]
    conflicts += [
        Conflict("move", group, origin[group_first[group]], origin[key]) for group, key in move_clashes
    ]
    return ReversibilityVerdict(None, conflicts)


def step_back(
    machine: CounterAutomaton, table: ReverseTable, cfg: Configuration
) -> Optional[Configuration]:
    """One backward step via the reverse table; None when no entry applies.

    With ``machine.k`` counters the step is the k-counter kernel's ``back``:
    one probe of the table's rows on the state, the backward status bits
    written out to pick the slot that holds the move and the entries to read
    after it, the head moved and checked, one token probe, the deltas added
    in line with the underflow check, and a ``Configuration`` built with
    ``tuple.__new__``.  A forged entry whose deltas have another length is
    added cut to the shorter vector, as ``run`` does on an unclean machine,
    and backward deltas that underflow raise NegativeCounterError.  A miss,
    a negative counter, a head off the tape, or a configuration with another
    number of counters, whose unpack in ``back`` raises ValueError (or
    IndexError past the slots of a table of fewer counters), goes to
    ``check_configuration``, which raises on any malformed configuration:
    whether ``cfg.state`` belongs to the machine is only tested there.
    """
    try:
        before = machine._kernel[1](table._rows, cfg)
        if before is not None:
            return before
    except (ValueError, IndexError):
        pass
    check_configuration(machine, cfg)
    return None


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

    Covers every word up to max_len and returns the violation on the first
    word (shortest first, lexicographic) whose run has a step that the table
    does not invert, replayed by ``roundtrip_word``; None when everything
    round-trips.

    The words are not run one by one.  Heads move 0 or +1, so a run's future
    depends only on its frontier key (state, steps, counters) when the head
    first reaches a new cell: ``steps`` is there for the fuel.  Level n maps
    each key reached after n letters to the first word that reaches it;
    expanding the keys in order, letters sorted, visits the words in the
    order above, and a repeated key skips its subtree.  The cost is per
    distinct key per length, not per word.  Each cell is read by the
    kernel's generated ``cell``, with the state as its id in
    ``machine._index`` and each letter mapped to its cell id once per call.

    Nor is a step stepped back each time it is taken.  Take a step by
    transition ``t`` from ``before`` to ``after``, with counter statuses
    ``post`` after it.  ``step_back(after)`` reads the row at (``t.target``,
    ``post``).  Unless the row's move is ``-t.move`` the head lands on
    another cell than ``before``'s; if it is, the head is back on
    ``t.token``, and the row's entry for that token gives ``before`` exactly
    when its target is ``t.state`` and its deltas undo ``t.deltas``.  So
    whether a step inverts depends on (``t``, ``post``) alone, and a step
    that inverts cannot underflow, since it gives back ``before``'s
    counters.  The search names each step by one int, (``t``'s index key
    << k) + ``post``'s status bits: the index key names ``t`` one to one
    and the bits, below 2**k, name the k statuses one to one.  It calls
    ``step_back`` on a step's first sight only: a step that inverted once
    inverts every time, and one that fails, or raises, ends the search at
    its first sight.  The steps skipped all invert, so the first step that
    fails here is the first that fails in the word's own run, and an error
    that ``step_back`` raises here is the one the replay raises.

    A machine that fails ``validate`` or has a ``max_delta`` above 1 may
    move left or leave the model, so its words are still run one at a time.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    if not machine._clean:
        words = all_words(machine.alphabet, max_len)
        return next(filter(None, (roundtrip_word(machine, table, w, fuel) for w in words)), None)
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    cell = machine._kernel[2]
    ids, cells, index = machine._index
    get, inverted = index.get, set()  # every step stepped back so far
    right = cells[RIGHT_END]
    letters = [(letter, cells[letter]) for letter in sorted(machine.alphabet)]
    pending = [((), cells[LEFT_END], (ids[machine.initial], 0) + (0,) * machine.k)]
    for n in range(max_len + 1):
        level: dict[tuple, tuple[str, ...]] = {}
        for word, token, key in pending:
            child = cell(get, inverted, step_back, machine, table, fuel, word, n, token, key)
            if child and child not in level:
                level[child] = word
                # no step moves right on the right endmarker: None or False
                child = cell(get, inverted, step_back, machine, table, fuel, word, n + 1, right, child)
            if child is False:
                return roundtrip_word(machine, table, word, fuel)
        pending = [(word + (letter,), token, key) for key, word in level.items() for letter, token in letters]
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

    Also statically scans stationary transitions over (state, token,
    statuses) keys, reporting one advisory per back edge of its DFS: a cycle
    can loop forever without consuming input, though it may be unreachable,
    and two cycles that close on one back edge get one advisory.  The same
    scan gives ``speedup`` its bound when there is no cycle.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    advisories = _stationary_scan(machine)[0]
    for word in all_words(machine.alphabet, max_len):
        outcome = run(machine, word, fuel, trace=True)
        if outcome.accepted:
            # a stationary streak is a run of configurations on one cell
            for _, cell in groupby(outcome.trace or [], key=attrgetter("head")):
                fragment = list(islice(cell, ell + 2))
                if len(fragment) > ell + 1:
                    return QuasiRealtimeReport(False, StationaryWitness(tuple(word), fragment), advisories)
    return QuasiRealtimeReport(True, None, advisories)


def _stationary_scan(machine: CounterAutomaton) -> tuple[list[str], Optional[int]]:
    """(advisories, bound) from one DFS over the stationary keys, with edges
    through ``_post_statuses``: an advisory per back edge, and with none, the
    most keys on a path, which no stationary streak exceeds; else None."""
    stationary = [t for t in machine.transitions if t.move == 0]
    edges: dict[tuple, list[tuple]] = {}
    keys = {t.key for t in stationary}
    for t in stationary:
        for post in _post_statuses(t):
            nxt = (t.target, t.token, post)
            if nxt in keys:
                edges.setdefault(t.key, []).append(nxt)
    advisories = []
    # iterative DFS over the stationary-step graph; the stack holds the current path
    color: dict[tuple, int] = {}
    depth: dict[tuple, int] = {}  # keys on the longest path from a finished key
    for start in sorted(keys, key=repr):
        if color.get(start):
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color.get(nxt) == 1:
                    path = [key for key, _ in stack]
                    cycle = path[path.index(nxt) :] + [nxt]
                    advisories.append(
                        "stationary cycle: " + " -> ".join(repr(k) for k in cycle)
                    )
                elif not color.get(nxt):
                    color[nxt] = 1
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    break
            else:
                color[node] = 2
                depth[node] = 1 + max((depth.get(n, 0) for n in edges.get(node, ())), default=0)
                stack.pop()
    return advisories, None if advisories else max(depth.values(), default=0)
