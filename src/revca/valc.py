"""Computation histories of multiplying counter machines as token strings.

A history starts with a doubling prefix (blocks of a's of lengths 1, 2, 4,
... bracketed by a marker token), then lists every machine configuration as a
block: an opening state token carrying the multiplier that produced the
block, the register in unary, and a closing state token that additionally
carries the register's residue against the upcoming divisor.  The very first
letter is marked, the block count is padded to even parity with a duplicated
final configuration, and the final block repeats its opening token.

The set of all such strings is cut out as the intersection of two one-counter
languages: one checks that every block at an odd position is followed by its
correct successor, the other does the same for even positions.  Both are
built here as reversible automata and sped up to real time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .core import CounterAutomaton, MachineError, POSITIVE as P, ZERO as Z, _reachable_machine
from .constructions import product_intersection, speedup
from .mcm import McmStatus, MultCounterMachine, mcm_run

STATIONARY_BUDGET = 6  # an upper bound over the stock (1/7 needs six); speedup tightens it per half

LETTER = "a"
MARKED = "a'"
PREFIX = "[q0']"


class NotAcceptingError(MachineError):
    pass


def lead_token(state: str, ell: Fraction | str) -> str:
    return f"[{state}|l={ell}]"


def trail_token(state: str, ell: Fraction | str, phi: int) -> str:
    return f"[{state}|l={ell}|p={phi}]"


@dataclass(frozen=True)
class ValcWord:
    tokens: tuple[str, ...]

    def surface(self) -> tuple[str, ...]:
        return self.tokens

    def __str__(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def fprime_name(machine: MultCounterMachine) -> str:
    return machine.final + "'"


def _annotate(machine: MultCounterMachine, i: int, fuel: int):
    """Run the machine and compute per-block states, register values, and the
    multiplier/residue annotations, with the parity padding applied."""
    outcome = mcm_run(machine, i, fuel)
    if outcome.status is not McmStatus.HALTED_FINAL:
        raise NotAcceptingError(
            f"run from 2**{i} ended {outcome.status.value} in state {outcome.final.state!r}"
        )
    fprime = fprime_name(machine)
    if fprime in machine.states:
        raise MachineError(f"state name {fprime!r} collides with the parity padding")
    configs = [(c.state, c.n) for c in outcome.trace]
    index = machine.step_index

    # multiplier annotation of each block, as the text of its l= field: 2 for
    # the first, then the rule multiplier when the previous step multiplied,
    # 1 for fraction branches
    ells = ["2"]
    for state, n in configs[:-1]:
        p, d, _, _ = index[state]
        ells.append("1" if n * p % d else _ell_text(p, d))

    if (i + len(configs)) % 2:
        final_state, final_n = configs[-1]
        configs[-1] = (fprime, final_n)
        configs.append((final_state, final_n))
        ells.append("1")

    phis = [n % (_divisor(machine, state) or 1) for state, n in configs[:-1]]
    phis.append(None)  # the final block repeats its lead token instead
    return configs, ells, phis


def _history(i: int, configs, ells, phis) -> tuple[str, ...]:
    """The surface tokens of an annotated run from 2**i."""
    tokens = []
    for p in range(i):
        tokens.append(PREFIX)
        tokens += [LETTER] * 2**p if p else [MARKED]
        tokens.append(PREFIX)
    for j, ((state, n), ell, phi) in enumerate(zip(configs, ells, phis)):
        lead = lead_token(state, ell)
        tokens.append(lead)
        tokens += [MARKED] if j == 0 and i == 0 else [LETTER] * n
        tokens.append(lead if phi is None else trail_token(state, ell, phi))
    return tuple(tokens)


def valc_encode(machine: MultCounterMachine, i: int, fuel: int = 1_000) -> ValcWord:
    """Encode the accepting run from register 2**i as a history string.

    Fails when the run does not reach the final state within the fuel budget.
    """
    return ValcWord(_history(i, *_annotate(machine, i, fuel)))


def valc_decide(machine: MultCounterMachine, tokens) -> bool:
    """Reference decider, with no automaton involved: a word is a history
    exactly when it equals the encoding of the accepting run from 2**i, i
    being half its number of prefix markers.  The machine is deterministic,
    so that run is the only candidate."""
    tokens = tuple(tokens)
    i = tokens.count(PREFIX) // 2
    if 2**i > len(tokens):  # the first configuration block alone holds 2**i letters
        return False
    try:
        # each step adds a block of at least three tokens, so a run longer
        # than the word encodes to a longer word
        configs, ells, phis = _annotate(machine, i, len(tokens))
    except NotAcceptingError:
        return False
    # the encoding's length, counted before a register is written out in unary
    if 2**i - 1 + 2 * i + sum(n + 2 for _, n in configs) != len(tokens):
        return False
    return _history(i, configs, ells, phis) == tokens


# ---------------------------------------------------------------------------
# acceptor construction


def _lead_ells(machine: MultCounterMachine) -> dict[str, list[str]]:
    """Multipliers that can open a block in each state, in increasing order,
    as the text of a token's ``l=`` field."""
    table: dict[str, set[Fraction]] = {machine.initial: {Fraction(2)}}
    for r in machine.rules:
        table.setdefault(r.on_integer, set()).add(r.mult)
        table.setdefault(r.on_fraction, set()).add(Fraction(1))
    table.setdefault(machine.final, set()).add(Fraction(1))
    table[fprime_name(machine)] = set(table[machine.final])
    return {s: [str(ell) for ell in sorted(v)] for s, v in table.items()}


def _ell_text(p: int, d: int) -> str:
    """The ``l=`` text of the multiplier p/d in lowest terms, as ``str`` of
    its Fraction spells it."""
    return f"{p}/{d}" if d != 1 else str(p)


def _divisor(machine: MultCounterMachine, state: str) -> Optional[int]:
    """Divisor of the rule in ``state`` when its multiplicand divides, else
    None; a block closing in ``state`` carries its register modulo it.  That
    is int(1 / mult) for a multiplicand p/d below 1, so d // p."""
    step = machine.step_index.get(state)
    return step[1] // step[0] if step is not None and step[0] < step[1] else None


def valc_alphabet(machine: MultCounterMachine) -> list[str]:
    """Every token that can occur in a history of this machine."""
    tokens = [LETTER, MARKED, PREFIX]
    ells = _lead_ells(machine)
    for state in sorted(ells):
        for ell in ells[state]:
            tokens.append(lead_token(state, ell))
            if state != machine.final:
                for phi in range(_divisor(machine, state) or 1):
                    tokens.append(trail_token(state, ell, phi))
    return tokens


def _factor(bctx) -> tuple[str, int]:
    """Counting pattern for a successor block: ('stride', f) decrements every
    f-th letter, ('burst', K) decrements K times per letter."""
    kind = bctx[0]
    if kind == "pfx":
        return ("stride", 2)
    if kind == "dup":
        return ("stride", 1)
    ell = Fraction(bctx[-1])
    if ell >= 1:
        return ("stride", int(ell))
    return ("burst", int(1 / ell))


def build_valc_part_slow(machine: MultCounterMachine, part: int) -> CounterAutomaton:
    """Quasi-real-time one-counter acceptor for the half language whose
    successor checks cover block pairs starting at parity ``part``.

    Layout per checked pair: the first block's letters are banked on the
    counter (short by one, the state bridges the gap, mirroring the balance
    checker trick), the closing token's residue field is matched against a
    modular letter count held in the state, the opening token of the second
    block fixes the expected state/multiplier via the machine's rule, and the
    second block drains the counter at the rate the multiplier dictates.
    Division blocks drain several ticks per letter through stationary moves;
    when those abort on an empty counter they leave through a moving step
    into a per-site dead state so no run ever halts with a stationary move
    pending.  The uncovered first/last blocks of the even-parity machine are
    absorbed into the shared block machinery at merge-safe points.

    States carry a block's multiplier as the text of its token's ``l=``
    field, never as a Fraction: every later stage hashes these states, and
    the product nests them three levels deep.
    """
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    fprime = fprime_name(machine)
    final = machine.final
    q0 = machine.initial
    ells = _lead_ells(machine)
    index = machine.step_index
    mods = {s: _divisor(machine, s) for s in ells}  # looked up once, not per row
    factor = cache(_factor)
    expA, expB_pfx = ("expA",), ("expB_pfx",)

    def counted(state: str, ell: str, j):
        """The A1 state after one more letter of a block whose count is j."""
        mod = mods[state]
        return ("A1", state, ell, (j + 1) % mod if mod else None)

    def b_entry(bctx):
        return ("Bb" if factor(bctx)[0] == "burst" else "B", bctx, 0)

    def either(token, target, delta=0):
        return [(token, Z, target, 1, delta), (token, P, target, 1, delta)]

    # single-status states: read one token rightward, counter untouched
    plain = {
        # part 1 opens with the first checked pair
        ("expA1",): [(PREFIX, ("FA0",)), (lead_token(q0, "2"), ("FA0c",))],
        ("FA0",): [(MARKED, ("FA1",))],
        ("FA1",): [(PREFIX, expB_pfx)],
        ("FA0c",): [(MARKED, counted(q0, "2", 0))],
        # part 2 reads the first block as the second half of no pair
        ("I0",): [(PREFIX, ("IB1",)), (lead_token(q0, "2"), ("IC1",))],
        ("IB1",): [(MARKED, ("Bfin", ("pfx",)))],
        ("IC1",): [(MARKED, ("Bfin", ("cfg", q0, "2")))],
        ("start",): [("<", ("expA1",) if part == 1 else ("I0",))],
        ("PA0",): [(LETTER, ("PA1",))],
    }
    # accepting tail
    ends = {("expEnd",): ("acc",), ("expEndDup",): ("accDup",), ("expEndIdle",): ("accIdle",)}

    def rules(state) -> list[tuple]:
        """(token, status, target, move, delta) rows leaving ``state``."""
        if state in plain:
            return [(token, Z, target, 1, 0) for token, target in plain[state]]
        if state in ends:
            return [(">", Z, ends[state], 0, 0)]
        kind = state[0]
        if kind == "expA":  # generic next-pair expectation
            rows = [(PREFIX, Z, ("PA0",), 1, 0)]
            for s in sorted(ells):
                if s != final:
                    rows += [(lead_token(s, ell), Z, ("A0", s, ell), 1, 0) for ell in ells[s]]
                elif part == 2:  # the uncovered final block: read idly
                    rows += [(lead_token(s, ell), Z, ("IF", ell), 1, 0) for ell in ells[s]]
            return rows
        if kind == "IF":
            return [(LETTER, Z, state, 1, 0), (lead_token(final, state[1]), Z, ("expEndIdle",), 1, 0)]
        if kind == "PA1":  # prefix blocks as the checked pair's first half
            # a length-one doubling block can only be the very first block;
            # rejecting it here keeps the closing-token step backward
            # deterministic
            return either(LETTER, state, 1) + [(PREFIX, P, expB_pfx, 1, 0)]
        if kind == "A0":
            # a block's first letter is absorbed into the state, later ones
            # hit the counter
            return [(LETTER, Z, counted(*state[1:], 0), 1, 0)]
        if kind == "A1":
            _, s, ell, j = state
            rows = either(LETTER, counted(s, ell, j), 1)
            # closing token: residue field must match the modular count
            if s == fprime:
                dest = ("expBdup",)
            elif s not in index:
                return rows  # no successor exists: reject at the closing token
            else:
                p, d, on_integer, on_fraction = index[s]
                dest = ("expB", on_fraction, "1") if j else ("expB", on_integer, _ell_text(p, d))
            return rows + either(trail_token(s, ell, j or 0), dest)
        # block-opening expectations: lead tokens acceptable for a successor
        if kind == "expBdup":
            return either(lead_token(final, "1"), b_entry(("dup",)))
        if kind == "expB_pfx":
            # a prefix block is followed by a prefix block or by the initial
            # configuration
            return either(PREFIX, b_entry(("pfx",))) + either(
                lead_token(q0, "2"), b_entry(("cfg", q0, "2"))
            )
        if kind == "expB":
            _, s, ell = state
            if s != final:
                return either(lead_token(s, ell), b_entry(("cfg", s, ell)))
            return either(lead_token(final, ell), b_entry(("final", ell))) + either(
                lead_token(fprime, ell), b_entry(("fprime", ell))
            )
        if kind in ("B", "Bb"):
            _, bctx, r = state
            f = factor(bctx)[1]
            if r == f - 1:  # last tick; an empty counter is the off-by-one tick
                return [(LETTER, P, (kind, bctx, 0), 1, -1), (LETTER, Z, ("Bfin", bctx), 1, 0)]
            if kind == "B":  # stride: on Z, the final stride with the bank spent
                return either(LETTER, ("B", bctx, r + 1))
            # burst: an empty counter before the first tick halts with no
            # stationary move pending (no entry); later ones leave through a
            # moving step into a per-site dead state
            rows = [(LETTER, P, ("Bb", bctx, r + 1), 0, -1)]
            if r:
                rows.append((LETTER, Z, ("dead", bctx, r), 1, 0))
            return rows
        if kind == "Bfin":  # the token closing a successor block
            bctx = state[1]
            if bctx[0] == "pfx":
                exits = [(PREFIX, expA)]
            elif bctx[0] == "cfg":
                _, s, ell = bctx
                exits = [(trail_token(s, ell, phi), expA) for phi in range(mods[s] or 1)]
            elif bctx[0] == "fprime":
                exits = [(trail_token(fprime, bctx[1], 0), expA)]
            elif bctx[0] == "final":
                exits = [(lead_token(final, bctx[1]), ("expEnd",))]
            else:  # dup
                exits = [(lead_token(final, "1"), ("expEndDup",))]
            return [(token, Z, target, 1, 0) for token, target in exits]
        return []  # accepting and dead states

    def rows(state):
        for token, status, target, move, delta in rules(state):
            yield token, (status,), target, move, (delta,)

    return _reachable_machine(("start",), rows, set(ends.values()).__contains__, valc_alphabet(machine), 1)


def build_valc1(machine: MultCounterMachine) -> CounterAutomaton:
    """Real-time reversible acceptor for the odd-pair half language."""
    return speedup(build_valc_part_slow(machine, 1), STATIONARY_BUDGET)


def build_valc2(machine: MultCounterMachine) -> CounterAutomaton:
    """Real-time reversible acceptor for the even-pair half language."""
    return speedup(build_valc_part_slow(machine, 2), STATIONARY_BUDGET)


def build_valc(machine: MultCounterMachine) -> CounterAutomaton:
    """Two-counter real-time acceptor for the full history language, as the
    lockstep product of the two halves."""
    return product_intersection(build_valc1(machine), build_valc2(machine))
