"""Deterministic one-way multi-counter automata: model and forward semantics.

A machine reads its input once, left to right, between two endmarkers.  It
carries k counters that can be incremented, decremented, and tested for
zero; the transition table is keyed on (state, scanned token, counter
statuses) and is a partial function, so every configuration has at most one
successor.  A word is accepted when the machine halts (no applicable
transition) in an accepting state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product
from operator import add, itemgetter
from typing import Any, Iterable, NamedTuple, Optional

State = Any  # hashable; plain strings in files, tuples in constructed machines
Token = str

LEFT_END = "<"
RIGHT_END = ">"
ENDMARKERS = (LEFT_END, RIGHT_END)

ZERO = "Z"
POSITIVE = "P"

StatusVector = tuple[str, ...]
Deltas = tuple[int, ...]


class MachineError(Exception):
    """Base class for machine-model errors."""


class UnknownTokenError(MachineError):
    pass


class InvalidConfigurationError(MachineError):
    pass


class InvalidTransitionEffectError(MachineError):
    """A transition would drive a counter below zero (max_delta > 1 only)."""


class NegativeCounterError(MachineError):
    pass


class FuelExhaustedError(MachineError):
    """A run spent its fuel before it halted, so it has no verdict."""


class Transition(NamedTuple):
    state: State
    token: Token
    statuses: StatusVector
    target: State
    move: int
    deltas: Deltas

    @property
    def key(self) -> tuple[State, Token, StatusVector]:
        return (self.state, self.token, self.statuses)


class Configuration(NamedTuple):
    state: State
    word: tuple[Token, ...]
    head: int
    counters: tuple[int, ...]


class Verdict(enum.Enum):
    ACCEPT = "ACCEPT"
    REJECT_HALT = "REJECT"
    FUEL_EXHAUSTED = "FUEL_EXHAUSTED"


@dataclass
class RunOutcome:
    verdict: Verdict
    steps: int
    final: Configuration
    trace: Optional[list[Configuration]] = None
    diagnostic: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


def status_of(counters: Iterable[int]) -> StatusVector:
    """Componentwise counter status: ZERO for 0, POSITIVE for anything above."""
    out = []
    for value in counters:
        if value < 0:
            raise NegativeCounterError(f"negative counter value {value}")
        out.append(POSITIVE if value else ZERO)
    return tuple(out)


def _status_slot(statuses: StatusVector) -> int:
    """``1 << len(statuses)`` plus bit i for each POSITIVE status i: the
    status bits that the counter kernel works out from the counters, under
    one more bit for the vector's length.  A vector holding another
    character than Z or P, which no step reads, gets 0, the slot of no
    vector of Z and P."""
    slot = 1 << len(statuses)
    for i, status in enumerate(statuses):
        if status == POSITIVE:
            slot |= 1 << i
        elif status != ZERO:
            return 0
    return slot


@cache
def _counter_kernel(k: int):
    """(loop, back, cell): straight-line steppers for exactly k counters,
    generated once per k the way ``collections.namedtuple`` generates its
    methods.  On CPython a comprehension is a call of its own, several times
    the cost of the same tuple written out, and so is every helper a step
    calls.  Each stepper writes out in its own body the status bits, bit i
    set when counter i is positive, and the counter adds, and probes on
    integer keys:

    - ``loop(index, cells, cfg, fuel, history)`` is the forward loop of a
      clean machine on its ``_index``, from ``cfg`` over the tape ``cells``,
      whose tokens it maps to ids once.  It appends each configuration it
      reaches to ``history`` unless that is None, and returns (entry, steps,
      final): entry is None when the machine halts, else it is the index
      entry of the step that the fuel did not let fire.  ``run`` hands it
      the word between its endmarkers; ``speedup`` replays a macro-step on
      the two cells (token, None), whose None has an id that no key holds,
      so the replay ends when the head moves on.
    - ``back(rows, cfg)`` is ``step_back``'s hit path on a reverse table's
      ``_rows``: the configuration before ``cfg``, or None where the state,
      the status slot, the head or the token misses, or a counter is
      negative.  An entry whose deltas have another length, or drive a
      counter below zero, goes to ``_cut_back``.
    - ``cell(get, inverted, step_back, machine, table, fuel, word, head,
      token, key)`` is ``verify_roundtrip``'s reader of one cell of a clean
      machine: from ``key`` = (state id, steps, *counters), with the head
      on cell ``head`` of ``word``, whose token has the id ``token``, it
      steps on ``get``, the ``_index`` probe, until the head moves on.  It
      returns the key at which the head reaches the next cell, None when
      the machine halts or the fuel runs out first, or False at the first
      step that does not invert.  A step is named by the int ``(probe key
      << k) + post``, with ``post`` its post status bits: the probe key
      names the transition one to one, and ``post < 2**k``.  A step not
      yet in the set ``inverted`` is handed, as its successor
      configuration, to ``step_back(machine, table, after)``, and the
      result is compared with the (state, word, head, counters) tuple
      before it; a step that inverts joins the set.

    ``loop`` and ``back`` raise ValueError on a counter vector of another
    length, and ``loop`` on a delta vector of another length.
    """
    c = [f"c{i}" for i in range(k)]
    d = [f"d{i}" for i in range(k)]
    counters, deltas = f"[{', '.join(c)}]", f"[{', '.join(d)}]"

    def vector(items) -> str:
        return "(" + "".join(f"{item}, " for item in items) + ")"

    def added(indent: str) -> str:
        return "".join(f"{indent}{x} += {y}\n" for x, y in zip(c, d))

    bits = " + ".join(f"({x} > 0)" if i == 0 else f"(({x} > 0) << {i})" for i, x in enumerate(c)) or "0"
    negative = "".join(f" or {x} < 0" for x in c)
    flat = "".join(f", {x}" for x in c)
    before = vector(f"{x} - {y}" for x, y in zip(c, d))
    underflow = (
        f"    if {' or '.join(f'{x} < 0' for x in c)}:\n"
        f"        return cut(cfg, target, head, deltas)\n"
    ) if c else ""
    source = (
        f"def loop(index, cells, cfg, fuel, history):\n"
        f"    ids, cell_ids, keys = index\n"
        f"    get, tokens = keys.get, [*map(cell_ids.__getitem__, cells)]\n"
        f"    state, word, head, {counters} = cfg\n"
        f"    s = ids[state]\n"
        f"    steps = 0\n"
        f"    while True:\n"
        f"        e = get(s + tokens[head] + {bits})\n"
        f"        if e is None or steps == fuel:\n"
        f"            return e, steps, new(Configuration, (state, word, head, {vector(c)}))\n"
        f"        s, move, state, _, {deltas} = e\n"
        f"        head += move\n"
        f"{added('        ')}"
        f"        steps += 1\n"
        f"        if history is not None:\n"
        f"            history.append(new(Configuration, (state, word, head, {vector(c)})))\n"
        f"def back(rows, cfg):\n"
        f"    state, word, head, {counters} = cfg\n"
        f"    slots = rows.get(state)\n"
        f"    right = len(word) + 1\n"
        f"    if slots is None{negative} or not 0 <= head <= right:\n"
        f"        return None\n"
        f"    row = slots[{1 << k} + {bits}]\n"
        f"    if row is None:\n"
        f"        return None\n"
        f"    move, out = row\n"
        f"    head += move\n"
        f"    if not 0 <= head <= right:\n"
        f"        return None\n"
        f"    out = out.get(L if head == 0 else R if head == right else word[head - 1])\n"
        f"    if out is None:\n"
        f"        return None\n"
        f"    target, _, deltas = out\n"
        f"    try:\n"
        f"        {deltas} = deltas\n"
        f"    except ValueError:\n"
        f"        return cut(cfg, target, head, deltas)\n"
        f"{added('    ')}"
        f"{underflow}"
        f"    return new(Configuration, (target, word, head, {vector(c)}))\n"
        f"def cell(get, inverted, step_back, machine, table, fuel, word, head, token, key):\n"
        f"    s, steps{flat} = key\n"
        f"    while steps < fuel:\n"
        f"        p = s + token + {bits}\n"
        f"        e = get(p)\n"
        f"        if e is None:\n"
        f"            return None\n"
        f"        s, move, state, t, {deltas} = e\n"
        f"{added('        ')}"
        f"        steps += 1\n"
        f"        p = (p << {k}) + {bits}\n"
        f"        if p not in inverted:\n"
        f"            after = new(Configuration, (state, word, head + move, {vector(c)}))\n"
        f"            if step_back(machine, table, after) != (t.state, word, head, {before}):\n"
        f"                return False\n"
        f"            inverted.add(p)\n"
        f"        if move:\n"
        f"            return (s, steps{flat})\n"
        f"    return None\n"
    )
    namespace = {
        "L": LEFT_END, "R": RIGHT_END,
        "Configuration": Configuration, "new": tuple.__new__, "cut": _cut_back, "__name__": __name__,
    }
    exec(source, namespace)
    return namespace["loop"], namespace["back"], namespace["cell"]


def _cut_back(cfg: Configuration, target, head: int, deltas) -> Configuration:
    """The end of a backward step from ``cfg`` whose entry is forged: deltas
    of another length add cut to the shorter vector, and a counter driven
    below zero raises."""
    counters = tuple(map(add, cfg.counters, deltas))
    if min(counters, default=0) < 0:
        raise NegativeCounterError(f"backward deltas {deltas} underflow {cfg.counters}")
    return tuple.__new__(Configuration, (target, cfg.word, head, counters))


@dataclass(frozen=True, eq=False)
class CounterAutomaton:
    """One-way counter automaton with a partial deterministic transition table.

    ``transitions`` keeps declaration order (handy for table fidelity tests),
    and ``outgoing`` lists each state's transitions in that order.  Runs of
    a machine that passes ``validate`` step on the integer keys of the
    cached ``_index``; the tuple-keyed ``table`` serves the probes whose
    keys may fall outside it.  Ordinary machines have ``max_delta`` 1;
    larger per-step counter changes are allowed for the extended machines
    that the normalization construction removes.
    """

    states: frozenset
    alphabet: frozenset[str]
    k: int
    transitions: tuple[Transition, ...]
    initial: State
    accepting: frozenset
    max_delta: int = 1

    @cached_property
    def table(self) -> dict[tuple[State, Token, StatusVector], Transition]:
        """Each transition under its (state, token, statuses) key, for the
        probes whose keys may fall outside ``_index``: ``step`` and so the
        runs of a machine that fails ``validate``, and the constructions'
        key probes, and ``validate``'s determinism check; a repeated key holds
        its last transition."""
        return dict(zip(map(itemgetter(0, 1, 2), self.transitions), self.transitions))

    @cached_property
    def outgoing(self) -> dict[State, list[Transition]]:
        index: dict[State, list[Transition]] = {}
        for t in self.transitions:
            index.setdefault(t.state, []).append(t)
        return index

    @cached_property
    def _kernel(self) -> tuple:
        """``_counter_kernel(k)``, held here so that a step pays no cache
        lookup."""
        return _counter_kernel(self.k)

    @cached_property
    def _index(self) -> tuple:
        """(ids, cells, steps): every step of a machine that passes
        ``validate`` under one integer key, which the kernel's ``loop`` and
        ``cell`` probe.  A state's id is its number times the stride, a
        token's its number times 2**k, with None a token that no key holds,
        and a step's key is state id + token id + status bits (bit i set
        when counter i is positive), so distinct (state, token, statuses)
        keys get distinct ints, and ``cell`` names a step together with its
        post status bits, which are below 2**k, as (key << k) + post bits.
        Its entry is (target id, move, target, transition, deltas).  Built
        on the first such run, so a machine that is only constructed,
        checked or written builds none.
        """
        k = self.k
        cells = {token: i << k for i, token in enumerate((LEFT_END, RIGHT_END, None, *self.alphabet))}
        stride = len(cells) << k
        ids = dict(zip(self.states, range(0, stride * len(self.states), stride)))
        high, masks, steps = 1 << k, {}, {}
        for t in self.transitions:
            state, token, statuses, target, move, deltas = t
            mask = masks.get(statuses)
            if mask is None:
                mask = masks[statuses] = _status_slot(statuses) - high
            steps[ids[state] + cells[token] + mask] = (ids[target], move, target, t, deltas)
        return ids, cells, steps

    @cached_property
    def _clean(self) -> bool:
        """An ordinary machine that passes ``validate``: no step from a valid
        configuration can leave the model, so ``run`` checks only the start."""
        return self.max_delta == 1 and not validate(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterAutomaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.k == other.k
            and self.max_delta == other.max_delta
            and self.initial == other.initial
            and self.accepting == other.accepting
            and set(self.transitions) == set(other.transitions)
        )

    def __hash__(self):
        return hash((self.states, self.alphabet, self.k, self.initial))

    def initial_configuration(self, word: Iterable[Token]) -> Configuration:
        return Configuration(self.initial, tuple(word), 0, (0,) * self.k)

    def scanned(self, cfg: Configuration) -> Token:
        if cfg.head == 0:
            return LEFT_END
        if cfg.head == len(cfg.word) + 1:
            return RIGHT_END
        return cfg.word[cfg.head - 1]


def make_automaton(
    transitions: Iterable[tuple],
    initial: State,
    accepting: Iterable[State],
    k: int,
    alphabet: Iterable[str] | None = None,
    states: Iterable[State] | None = None,
    max_delta: int = 1,
) -> CounterAutomaton:
    """Build an automaton from transition 6-tuples, inferring what is omitted.

    Each entry is (state, token, statuses, target, move, deltas); statuses and
    deltas may be given as strings/lists for convenience.
    """
    trans = []
    for (state, token, statuses, target, move, deltas) in transitions:
        trans.append(
            Transition(
                state,
                token,
                tuple(statuses),
                target,
                int(move),
                tuple(int(d) for d in deltas),
            )
        )
    if states is None:
        seen = {initial, *accepting}
        for t in trans:
            seen.add(t.state)
            seen.add(t.target)
        states = seen
    if alphabet is None:
        alphabet = {t.token for t in trans if t.token not in ENDMARKERS}
    return CounterAutomaton(
        states=frozenset(states),
        alphabet=frozenset(alphabet),
        k=k,
        transitions=tuple(trans),
        initial=initial,
        accepting=frozenset(accepting),
        max_delta=max_delta,
    )


def _reachable_machine(initial, rows, accepting, alphabet, k, max_delta=1) -> CounterAutomaton:
    """Build the machine of every state reachable from ``initial``.

    ``rows(state)`` yields the (token, statuses, target, move, deltas) rows
    leaving a state and ``accepting(state)`` says whether it accepts.  States
    are expanded last in, first out, and each is held as the first object
    that reached it, shared by ``states``, ``initial``, ``accepting`` and
    every transition, so table probes match states by identity.
    """
    seen, frontier = {initial: initial}, [initial]
    transitions, new = [], tuple.__new__
    while frontier:
        source = frontier.pop()
        for token, statuses, reached, move, deltas in rows(source):
            target = seen.get(reached)
            if target is None:
                target = seen[reached] = reached
                frontier.append(target)
            transitions.append(new(Transition, (source, token, statuses, target, move, deltas)))
    return CounterAutomaton(
        states=frozenset(seen),
        alphabet=frozenset(alphabet),
        k=k,
        transitions=tuple(transitions),
        initial=initial,
        accepting=frozenset(filter(accepting, seen)),
        max_delta=max_delta,
    )


def validate(machine: CounterAutomaton) -> list[str]:
    """Check well-formedness; returns one message per defect, empty if clean.

    Besides referential integrity this enforces the model's side conditions:
    determinism of the table, no decrement keyed on a zero status, and no
    rightward move while scanning the right endmarker (so the head can never
    pass the endmarkers).
    """
    return [message for _, message in defects_by_transition(machine)]


def defects_by_transition(machine: CounterAutomaton):
    """``validate``'s messages, in order, each with the index in
    ``machine.transitions`` of the transition it belongs to, or None for a
    defect of the machine as a whole.

    Whole-table checks answer first: the keys are distinct, every source and
    target is a state, every distinct (token, move) pair and every distinct
    (statuses, deltas) effect is sound.  Only when one of them fails does a
    per-transition pass run, to say which transitions are at fault and why.
    """
    if machine.k < 0:
        yield None, f"counter count k={machine.k} is negative"
    if machine.max_delta < 1:
        yield None, f"max_delta {machine.max_delta} must be at least 1"
    for token in sorted(machine.alphabet):
        if not token:
            yield None, "empty token in alphabet"
        elif any(ch.isspace() for ch in token):
            yield None, f"token {token!r} contains whitespace"
        elif "#" in token:
            yield None, f"token {token!r} contains '#'"
        if token in ENDMARKERS:
            yield None, f"reserved endmarker {token!r} declared in alphabet"
    if machine.initial not in machine.states:
        yield None, f"initial state {machine.initial!r} not in states"
    for st in machine.accepting:
        if st not in machine.states:
            yield None, f"accepting state {st!r} not in states"

    # the status and delta checks depend only on a transition's effect, so
    # they run once per distinct effect; the prefix is built only for a defect
    transitions, states, alphabet = machine.transitions, machine.states, machine.alphabet
    effects = {effect: _effect_defects(machine, *effect) for effect in set(map(itemgetter(2, 5), transitions))}
    if (
        len(machine.table) == len(transitions)
        and states.issuperset(map(itemgetter(0), transitions))
        and states.issuperset(map(itemgetter(3), transitions))
        and all(
            (token in alphabet or token in ENDMARKERS) and move in (0, 1) and not (token == RIGHT_END and move == 1)
            for token, move in set(map(itemgetter(1, 4), transitions))
        )
        and not any(status_defects or delta_defects for status_defects, delta_defects in effects.values())
    ):
        return
    seen: dict[tuple, Transition] = {}
    for i, t in enumerate(transitions):
        effect = effects[t.statuses, t.deltas]
        problems = []
        if t.state not in states:
            problems.append("unknown source state")
        if t.target not in states:
            problems.append(f"unknown target state {t.target!r}")
        if t.token not in alphabet and t.token not in ENDMARKERS:
            problems.append("unknown token")
        problems += effect[0]
        if t.move not in (0, 1):
            problems.append(f"move {t.move} not in {{0, 1}}")
        if t.token == RIGHT_END and t.move == 1:
            problems.append("rightward move on the right endmarker")
        problems += effect[1]
        prev = seen.get(t.key)
        if prev is None:
            seen[t.key] = t
        elif prev == t:
            problems.append("duplicate transition")
        else:
            problems.append("nondeterministic key (two distinct outputs)")
        if problems:
            where = f"transition {t.state!r}/{t.token!r}/{''.join(t.statuses)}"
            for p in problems:
                yield i, f"{where}: {p}"


def _effect_defects(
    machine: CounterAutomaton, statuses: StatusVector, deltas: Deltas
) -> tuple[list[str], list[str]]:
    """``validate``'s messages about a status vector and about a delta
    vector keyed on it, without the transition prefix."""
    status_defects = []
    if len(statuses) != machine.k:
        status_defects.append(f"status vector has length {len(statuses)}, expected {machine.k}")
    elif any(s not in (ZERO, POSITIVE) for s in statuses):
        status_defects.append("bad status characters")
    delta_defects = []
    if len(deltas) != machine.k:
        delta_defects.append(f"delta vector has length {len(deltas)}, expected {machine.k}")
    else:
        for i, (status, delta) in enumerate(zip(statuses, deltas)):
            if abs(delta) > machine.max_delta:
                delta_defects.append(f"|delta[{i}]| = {abs(delta)} exceeds max_delta {machine.max_delta}")
            if status == ZERO and delta < 0:
                delta_defects.append(f"decrement on zero status at counter {i}")
    return status_defects, delta_defects


def check_configuration(machine: CounterAutomaton, cfg: Configuration) -> None:
    if cfg.state not in machine.states:
        raise InvalidConfigurationError(f"state {cfg.state!r} not in machine")
    if not (0 <= cfg.head <= len(cfg.word) + 1):
        raise InvalidConfigurationError(f"head {cfg.head} out of range for |w|={len(cfg.word)}")
    if len(cfg.counters) != machine.k:
        raise InvalidConfigurationError(f"expected {machine.k} counters, got {len(cfg.counters)}")
    if any(c < 0 for c in cfg.counters):
        raise InvalidConfigurationError(f"negative counter in {cfg.counters}")


def step(machine: CounterAutomaton, cfg: Configuration) -> Optional[Configuration]:
    """One forward step; None when the table has no entry (the machine halts).

    ``cfg`` is checked first, so no counter is negative, and the step probes
    ``table`` with ``status_of`` of its counters.  A delta vector of another
    length, which only a machine that fails ``validate`` holds, is added cut
    to the shorter vector, as ``zip`` does.
    """
    check_configuration(machine, cfg)
    t = machine.table.get((cfg.state, machine.scanned(cfg), status_of(cfg.counters)))
    if t is None:
        return None
    counters = tuple(map(add, cfg.counters, t.deltas))
    if any(c < 0 for c in counters):
        raise InvalidTransitionEffectError(
            f"transition {t.key} drives a counter below zero from {cfg.counters}"
        )
    return tuple.__new__(Configuration, (t.target, cfg.word, cfg.head + t.move, counters))


def run(
    machine: CounterAutomaton,
    word: Iterable[Token],
    fuel: int,
    trace: bool = False,
) -> RunOutcome:
    """Run from the initial configuration with a step budget.

    ``fuel`` bounds applied transitions; a machine that halts after exactly
    ``fuel`` steps still gets its accept/reject verdict.  Counters driven
    negative by an oversized delta abort the run as a diagnosed reject.

    The configuration is validated once per run, at the start.  On a machine
    that passes ``validate`` with ``max_delta`` 1 no step can leave the model,
    so the run is the k-counter kernel's ``loop`` on the machine's ``_index``:
    per step the status bits and the counter add written out, one probe on
    an integer key, and one ``Configuration`` built with ``tuple.__new__``
    when tracing.  Any other machine is run through ``step``, which checks
    every configuration it is handed and cuts a delta vector of another
    length, as ``zip`` does; the error it raises on an underflow becomes the
    diagnosed reject.
    """
    word = tuple(word)
    alphabet = machine.alphabet
    if not alphabet.issuperset(word):
        unknown = next(token for token in word if token not in alphabet)
        raise UnknownTokenError(f"token {unknown!r} not in alphabet")
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    cfg = machine.initial_configuration(word)
    check_configuration(machine, cfg)
    history = [cfg] if trace else None
    if machine._clean:
        t, steps, cfg = machine._kernel[0](machine._index, (LEFT_END, *word, RIGHT_END), cfg, fuel, history)
    else:
        steps = 0
        try:
            # t is the successor, which the fuel may not let the run take
            while (t := step(machine, cfg)) is not None and steps < fuel:
                cfg = t
                steps += 1
                if trace:
                    history.append(cfg)
        except InvalidTransitionEffectError as exc:
            return RunOutcome(Verdict.REJECT_HALT, steps, cfg, history, diagnostic=str(exc))
    if t is not None:
        return RunOutcome(Verdict.FUEL_EXHAUSTED, steps, cfg, history)
    verdict = Verdict.ACCEPT if cfg.state in machine.accepting else Verdict.REJECT_HALT
    return RunOutcome(verdict, steps, cfg, history)


def accepts(machine: CounterAutomaton, word: Iterable[Token], fuel: int = 10_000) -> bool:
    """Whether the run on ``word`` halts accepting; a run cut by its fuel
    raises ``FuelExhaustedError`` rather than reading as a reject."""
    outcome = run(machine, word, fuel)
    if outcome.verdict is Verdict.FUEL_EXHAUSTED:
        raise FuelExhaustedError(f"no verdict within {fuel} steps")
    return outcome.accepted


def all_words(alphabet: Iterable[str], max_len: int):
    """Yield every word up to max_len, shortest first, lexicographic within a length."""
    letters = sorted(alphabet)
    for n in range(max_len + 1):
        for combo in product(letters, repeat=n):
            yield combo


def rename_states(machine: CounterAutomaton) -> CounterAutomaton:
    """Deterministically rename states to ``s0``, ``s1``, ... (breadth-first
    from the initial state, leftovers in repr order): the names under which
    ``formats.serialize_automaton`` writes a machine whose states are not all
    strings, such as a constructed machine's tuples.

    The search names each target as it emits the renamed transition, so every
    transition costs one lookup of its target; the transitions come out in
    that breadth-first order.
    """
    names = {machine.initial: "s0"}
    order = [machine.initial]
    transitions, new = [], tuple.__new__
    outgoing = machine.outgoing
    by_key = itemgetter(1, 2)  # (token, statuses)

    def emit(state):
        source = names[state]
        for _, token, statuses, reached, move, deltas in sorted(outgoing.get(state, ()), key=by_key):
            target = names.get(reached)
            if target is None:
                if reached not in machine.states:
                    raise MachineError(f"rename_states: a transition targets {reached!r}, outside the machine")
                target = names[reached] = f"s{len(order)}"
                order.append(reached)
            transitions.append(new(Transition, (source, token, statuses, target, move, deltas)))

    for state in order:  # emit appends each newly named target
        emit(state)
    leftovers = sorted(machine.states - names.keys(), key=repr)
    for st in leftovers:
        names[st] = f"s{len(order)}"
        order.append(st)
    for st in leftovers:
        emit(st)
    if len(transitions) != len(machine.transitions):
        raise MachineError("rename_states: a transition leaves a state outside the machine")
    return replace(
        machine,
        states=frozenset(names.values()),
        transitions=tuple(transitions),
        initial=names[machine.initial],
        accepting=frozenset(names[s] for s in machine.accepting),
    )
