"""Automaton-to-automaton constructions that preserve reversibility.

Three transformations live here, each building only the states reachable
from its initial one:

* ``normalize_extended`` turns a machine whose steps may change a counter by
  any amount up to ``c`` into an ordinary one, splitting each counter value x
  into the stored value x // c plus a residue x % c kept in the state.
* ``speedup`` removes stationary moves from a quasi-real-time machine by
  collapsing each maximal run of stationary steps plus the following moving
  step into a single macro-step.  Over residues mod c = (ell + 1) * D, for
  the input's ``max_delta`` D, a macro-step of at most ell + 1 unit steps
  changes a stored value by floor((r + S) / c) for a residue r in [0, c) and
  a source change S in [-c, c], so by at most one: the macro-steps already
  form an ordinary machine.
* ``product_intersection`` runs two machines in lockstep on a shared state
  pair and concatenated counters, accepting exactly the intersection.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, partial
from itertools import product as iproduct
from operator import sub
from typing import Optional

from .core import (
    CounterAutomaton,
    LEFT_END,
    MachineError,
    POSITIVE,
    RIGHT_END,
    Transition,
    ZERO,
    _reachable_machine,
    validate,
)
from .reversibility import ReverseStep, ReverseTable, _stationary_scan


class NotQuasiRealtimeError(MachineError):
    pass


class AlphabetMismatchError(MachineError):
    pass


class EarlyAcceptanceError(MachineError):
    """A product factor can halt accepting before its head reaches ``>``."""


class MoveDisagreementError(MachineError):
    def __init__(self, first: Transition, second: Transition):
        super().__init__(
            f"lockstep product needs agreeing head moves: {first.key} moves "
            f"{first.move}, {second.key} moves {second.move}"
        )


def _carry(residues: tuple[int, ...], statuses: tuple[str, ...], deltas: tuple[int, ...], c: int):
    """The residue/carry kernel shared by machine and reverse-table
    normalization: one source row (statuses, deltas) at one residue vector.

    A counter with residue m in [0, c) and delta b gets
    (carry, new residue) = ``divmod(m + b, c)``; every caller keeps
    |b| <= c, so the carry, the stored-value delta, is -1, 0 or 1.
    Returns a tuple of (stored statuses, new residues, carries), one row for
    every stored-value status vector that lifts to ``statuses`` (a source
    counter is zero exactly when its residue and stored value both are).  A
    carry that would decrement a zero stored value is dropped: it stands for
    a source step that would drive the value negative, which the model
    forbids.  The rows depend on (residues, statuses, deltas) alone, so the
    callers keep one memo per modulus and run the kernel once per key.
    """
    cases = [divmod(m + b, c) for m, b in zip(residues, deltas)]
    choices = []
    for m, s, (carry, _) in zip(residues, statuses, cases):
        if s == ZERO:
            choices.append(() if m or carry < 0 else (ZERO,))
        else:
            choices.append((POSITIVE,) if m == 0 or carry < 0 else (ZERO, POSITIVE))
    new_res = tuple(r for _, r in cases)
    carries = tuple(q for q, _ in cases)
    return tuple((stored, new_res, carries) for stored in iproduct(*choices))


def normalize_extended(
    machine: CounterAutomaton,
    reverse: Optional[ReverseTable] = None,
):
    """Simulate an extended machine step for step with ordinary unit deltas.

    States become (state, residues); a counter value x of the source is
    represented as stored value x // c with residue x % c in the state.  Only
    the pairs reachable from (initial, zeros) are built.

    With a reverse table for the source supplied, the mirrored construction is
    applied to it over every residue vector, and (machine, table) is returned;
    otherwise just the machine.
    """
    defects = validate(machine)
    if defects:
        raise MachineError("normalize_extended needs a clean machine: " + "; ".join(defects))
    out, kernel = _normalized(machine, machine.max_delta)
    if reverse is None:
        return out
    return out, _normalize_reverse(reverse, machine.max_delta, machine.k, kernel)


def _normalized(machine: CounterAutomaton, c: int):
    """``normalize_extended``'s machine at residue modulus ``c``, at least
    the source's ``max_delta``, for a source already known to be clean, with
    the kernel memo it filled."""
    k = machine.k
    kernel = cache(partial(_carry, c=c))  # (residues, statuses, deltas) -> _carry rows

    def rows(source):
        state, residues = source
        for t in machine.outgoing.get(state, ()):
            for statuses, new_res, carries in kernel(residues, t.statuses, t.deltas):
                yield t.token, statuses, (t.target, new_res), t.move, carries

    out = _reachable_machine(
        (machine.initial, (0,) * k), rows, lambda st: st[0] in machine.accepting, machine.alphabet, k
    )
    return out, kernel


def _normalize_reverse(reverse: ReverseTable, c: int, k: int, kernel) -> ReverseTable:
    """Mirror the normalization on a reverse table over every residue vector,
    sharing the machine's kernel memo (both use modulus ``c``)."""
    entries = {}
    for residues in iproduct(range(c), repeat=k):
        for (state, token, post), out in reverse.entries.items():
            for statuses, new_res, carries in kernel(residues, post, out.deltas):
                entries[(state, residues), token, statuses] = ReverseStep((out.target, new_res), out.move, carries)
    return ReverseTable(entries)


def remove_initial_left_loops(machine: CounterAutomaton) -> CounterAutomaton:
    """Drop stationary left-endmarker transitions that leave a rejecting state
    for the initial configuration.  A run through one loops forever without
    accepting, and without it the run halts in that rejecting state, so the
    language is unchanged.  One leaving an accepting state is kept: without it
    the run would halt there and accept."""
    zeros = (ZERO,) * machine.k
    keep = tuple(
        t
        for t in machine.transitions
        if not (
            t.token == LEFT_END
            and t.state not in machine.accepting
            and t.move == 0
            and t.statuses == zeros
            and t.target == machine.initial
            and all(d == 0 for d in t.deltas)
        )
    )
    if len(keep) == len(machine.transitions):
        return machine
    return replace(machine, transitions=keep)


def speedup(machine: CounterAutomaton, ell: int) -> CounterAutomaton:
    """Build an equivalent machine whose accepted runs take at most |w| + 2 steps.

    The input must never do more than ``ell`` consecutive stationary moves in
    an accepting computation.  When its stationary transitions form no cycle,
    ``ell`` is first tightened to the bound of that graph, which no run
    exceeds; an ordinary input is returned as is when ``ell`` is then 0.
    Stage one normalizes with c = (ell + 1) * D, for the input's
    ``max_delta`` D, whose residue components give every state exact
    knowledge of counter values below c; stage two replays, from every key of
    the normalized table at a state that the initial state or a macro-step
    reaches, the maximal stationary run plus one moving step and emits it as
    a single transition (a halting run stays stationary and is emitted with
    the deltas gathered so far).  A moving key is its own macro-step; from a
    stationary one ``_macro_step`` replays on the kernel's generated loop.

    A macro-step spans at most ell + 1 unit steps, so it changes a source
    counter by some S in [-c, c], and its stored value by floor((r + S) / c)
    in [-1, 1], where r in [0, c) is the residue at the seed.  The result is
    therefore ordinary, and a ``MachineError`` is raised if ``validate``
    finds that a macro-step broke the bound.

    Seeds use counter stand-ins (1 for a positive status): every prefix of a
    macro-step changes the source value by at most c, so a stored value
    stays within one of where it started, can only reach zero if it started
    at exactly one, and the residue tracking makes the replayed path
    identical for every counter vector matching the seed statuses.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    defects = validate(machine)
    if defects:
        raise MachineError("speedup needs a clean machine: " + "; ".join(defects))
    bound = _stationary_scan(machine)[1]
    ell = ell if bound is None else min(ell, bound)
    if ell == 0 and machine.max_delta == 1:
        return machine
    norm, _ = _normalized(machine, (ell + 1) * machine.max_delta)
    norm = remove_initial_left_loops(norm)
    # a replay reads keys only at a stationary seed and at the targets of
    # stationary steps, so it steps on an index of those states' rows alone
    stationary = [t for t in norm.transitions if not t.move]
    reads = {t.state for t in stationary}.union(t.target for t in stationary)
    replayed = replace(norm, transitions=tuple(t for state in reads for t in norm.outgoing.get(state, ())))

    def rows(state):
        for t in norm.outgoing.get(state, ()):
            if t.move:  # a moving seed is its own macro-step
                yield t.token, t.statuses, t.target, 1, t.deltas
            else:
                yield t.token, t.statuses, *_macro_step(replayed, state, t.token, t.statuses, ell)

    out = _reachable_machine(norm.initial, rows, norm.accepting.__contains__, norm.alphabet, norm.k)
    defects = validate(out)
    if defects:
        raise MachineError("speedup built a macro-step outside the model: " + "; ".join(defects))
    return out


def _macro_step(norm, state, token, statuses, ell):
    """Replay one macro-step of the normalized machine from a seed, which is
    a key of its table, on the kernel's ``loop`` over its ``_index``; ``norm``
    need hold only the rows of the seed and of the states its stationary
    steps reach.

    The tape has two cells, ``token`` and then None, whose id no key holds, so
    the replay stops when the head moves on, when the machine halts, or when
    the fuel of ell + 1 steps runs out; no history is kept.  The seed's
    stand-in counters sit at head 0 and have the seed's own statuses.
    Returns (target, move, total deltas).  Raises when the stationary run
    exceeds ell, which contradicts the quasi-real-time premise.
    """
    start = tuple(1 if s == POSITIVE else 0 for s in statuses)
    _, steps, (target, _, head, counters) = norm._kernel[0](
        norm._index, (token, None), (state, None, 0, start), ell + 1, None
    )
    if steps > ell and not head:
        raise NotQuasiRealtimeError(
            f"more than {ell} consecutive stationary moves from seed "
            f"({state!r}, {token!r}, {''.join(statuses)})"
        )
    return target, head, tuple(map(sub, counters, start))


def product_intersection(m1: CounterAutomaton, m2: CounterAutomaton) -> CounterAutomaton:
    """Cartesian-product machine accepting L(m1) ∩ L(m2).

    Both factors must share an alphabet and move their heads identically on
    every jointly defined key; keys where exactly one factor has a transition
    simply halt the product.  Only state pairs reachable from the initial pair
    are materialized.

    A factor that halts accepting on a letter while the other reads on would
    make the product reject a word both accept.  So each accepting state that
    the initial state, or any step other than a stationary ``>`` step, can
    enter must have a transition for every letter and every status vector;
    otherwise ``EarlyAcceptanceError`` is raised.  The check does not cover
    ``>`` itself: factors that halt there after different numbers of
    stationary steps can still make the product reject a word both accept.
    """
    if m1.alphabet != m2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(m1.alphabet)} vs {sorted(m2.alphabet)}"
        )
    _check_accepts_at_end(m1)
    _check_accepts_at_end(m2)

    def rows(pair):
        state1, state2 = pair
        outgoing2 = m2.outgoing.get(state2, ())
        for t1 in m1.outgoing.get(state1, ()):
            for t2 in outgoing2:
                if t2.token != t1.token:
                    continue
                if t1.move != t2.move:
                    raise MoveDisagreementError(t1, t2)
                yield t1.token, t1.statuses + t2.statuses, (t1.target, t2.target), t1.move, t1.deltas + t2.deltas

    return _reachable_machine(
        (m1.initial, m2.initial), rows, lambda p: p[0] in m1.accepting and p[1] in m2.accepting,
        m1.alphabet, m1.k + m2.k, max(m1.max_delta, m2.max_delta),
    )


def _check_accepts_at_end(machine: CounterAutomaton) -> None:
    """Raise unless every accepting state that can be entered other than by a
    stationary ``>`` step reads on at every letter and status vector."""
    entered = {machine.initial}.union(
        t.target for t in machine.transitions if t.token != RIGHT_END or t.move
    )
    vectors = list(iproduct((ZERO, POSITIVE), repeat=machine.k))
    for state in sorted(entered & machine.accepting, key=repr):
        for letter in sorted(machine.alphabet):
            for statuses in vectors:
                if (state, letter, statuses) not in machine.table:
                    raise EarlyAcceptanceError(
                        "lockstep product needs factors that accept only at '>': "
                        f"accepting state {state!r} halts on {letter!r} at status {''.join(statuses)!r}"
                    )
