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
from typing import Optional

from .core import CounterAutomaton, MachineError, make_automaton
from .constructions import product_intersection, speedup
from .mcm import McmStatus, MultCounterMachine, mcm_run

Z, P = "Z", "P"

STATIONARY_BUDGET = 6  # 1/7 blocks need six stationary moves per letter

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
class ValcToken:
    kind: str  # "a" | "a_marked" | "prefix" | "lead" | "trail"
    state: Optional[str] = None
    ell: Optional[Fraction] = None
    phi: Optional[int] = None

    def surface(self) -> str:
        if self.kind == "a":
            return LETTER
        if self.kind == "a_marked":
            return MARKED
        if self.kind == "prefix":
            return PREFIX
        if self.kind == "lead":
            return lead_token(self.state, self.ell)
        return trail_token(self.state, self.ell, self.phi)


@dataclass(frozen=True)
class ValcWord:
    tokens: tuple[ValcToken, ...]

    def surface(self) -> tuple[str, ...]:
        return tuple(t.surface() for t in self.tokens)

    def __str__(self) -> str:
        return " ".join(self.surface())

    def __len__(self) -> int:
        return len(self.tokens)


def parse_token(text: str) -> ValcToken:
    if text == LETTER:
        return ValcToken("a")
    if text == MARKED:
        return ValcToken("a_marked")
    if text == PREFIX:
        return ValcToken("prefix")
    if not (text.startswith("[") and text.endswith("]")):
        raise MachineError(f"bad history token {text!r}")
    parts = text[1:-1].split("|")
    if len(parts) == 2 and parts[1].startswith("l="):
        return ValcToken("lead", parts[0], Fraction(parts[1][2:]))
    if len(parts) == 3 and parts[1].startswith("l=") and parts[2].startswith("p="):
        return ValcToken("trail", parts[0], Fraction(parts[1][2:]), int(parts[2][2:]))
    raise MachineError(f"bad history token {text!r}")


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
    rule_map = machine.rule_map

    # multiplier annotation of each block: 2 for the first, then the rule
    # multiplier when the previous step multiplied, 1 for fraction branches
    ells = [Fraction(2)]
    for j in range(1, len(configs)):
        state, n = configs[j - 1]
        rule = rule_map[state]
        multiplied = (rule.mult * n).denominator == 1
        ells.append(rule.mult if multiplied else Fraction(1))

    if (i + len(configs)) % 2:
        final_state, final_n = configs[-1]
        configs[-1] = (fprime, final_n)
        configs.append((final_state, final_n))
        ells.append(Fraction(1))

    phis = [n % (_divisor(machine, state) or 1) for state, n in configs[:-1]]
    phis.append(None)  # the final block repeats its lead token instead
    return configs, ells, phis


def valc_encode(machine: MultCounterMachine, i: int, fuel: int = 1_000) -> ValcWord:
    """Encode the accepting run from register 2**i as a history string.

    Fails when the run does not reach the final state within the fuel budget.
    """
    configs, ells, phis = _annotate(machine, i, fuel)
    tokens: list[ValcToken] = []
    for p in range(i):
        tokens.append(ValcToken("prefix"))
        if p == 0:
            tokens.append(ValcToken("a_marked"))
        else:
            tokens.extend([ValcToken("a")] * (2**p))
        tokens.append(ValcToken("prefix"))
    for j, ((state, n), ell, phi) in enumerate(zip(configs, ells, phis)):
        tokens.append(ValcToken("lead", state, ell))
        if j == 0 and i == 0:
            tokens.append(ValcToken("a_marked"))
        else:
            tokens.extend([ValcToken("a")] * n)
        if phi is None:
            tokens.append(ValcToken("lead", state, ell))
        else:
            tokens.append(ValcToken("trail", state, ell, phi))
    return ValcWord(tuple(tokens))


# ---------------------------------------------------------------------------
# independent reference decider


def _split_blocks(tokens: tuple[str, ...]):
    """Parse a surface-token sequence into (lead, run length, marked count,
    trail) block tuples, or None when the shape is not block-structured."""
    blocks = []
    pos = 0
    n = len(tokens)
    while pos < n:
        try:
            lead = parse_token(tokens[pos])
        except MachineError:
            return None
        if lead.kind not in ("prefix", "lead"):
            return None
        pos += 1
        run = marked = 0
        while pos < n and tokens[pos] in (LETTER, MARKED):
            run += 1
            marked += tokens[pos] == MARKED
            pos += 1
        if run == 0 or pos >= n:
            return None
        try:
            trail = parse_token(tokens[pos])
        except MachineError:
            return None
        if trail.kind not in ("prefix", "lead", "trail"):
            return None
        pos += 1
        blocks.append((lead, run, marked, trail))
    return blocks


def valc_decide(machine: MultCounterMachine, tokens) -> bool:
    """Reference decider: checks a surface-token sequence against the history
    definition directly, with no automaton involved."""
    tokens = tuple(tokens)
    blocks = _split_blocks(tokens)
    if not blocks:
        return False
    fprime = fprime_name(machine)
    rule_map = machine.rule_map

    # the marked letter is the whole run of the very first block
    total_marked = sum(b[2] for b in blocks)
    if total_marked != 1 or blocks[0][2] != 1 or blocks[0][1] != 1:
        return False

    i = 0
    while i < len(blocks) and blocks[i][0].kind == "prefix":
        lead, run, _mk, trail = blocks[i]
        if trail.kind != "prefix" or run != 2**i:
            return False
        i += 1
    configs = blocks[i:]
    if not configs:
        return False
    if any(b[0].kind != "lead" for b in configs):
        return False
    if (i + len(configs)) % 2:
        return False

    # first configuration: the machine's initial state with register 2**i
    lead0, run0, _mk, trail0 = configs[0]
    if lead0.state != machine.initial or lead0.ell != 2 or run0 != 2**i:
        return False

    for j, (lead, run, _mk, trail) in enumerate(configs):
        last = j == len(configs) - 1
        if last:
            if trail.kind != "lead" or trail != lead or lead.state != machine.final:
                return False
            break
        if trail.kind != "trail" or trail.state != lead.state or trail.ell != lead.ell:
            return False
        state = lead.state
        nxt_lead, nxt_run = configs[j + 1][0], configs[j + 1][1]
        if state == fprime:
            if trail.phi != 0:
                return False
            if nxt_lead.state != machine.final or nxt_lead.ell != 1 or nxt_run != run:
                return False
            if j + 1 != len(configs) - 1:
                return False
            continue
        rule = rule_map.get(state)
        if rule is None:
            return False
        if rule.mult < 1:
            divisor = int(1 / rule.mult)
            if trail.phi != run % divisor:
                return False
        elif trail.phi != 0:
            return False
        multiplied = (rule.mult * run).denominator == 1
        target = rule.on_integer if multiplied else rule.on_fraction
        expect_ell = rule.mult if multiplied else Fraction(1)
        expect_run = int(rule.mult * run) if multiplied else run
        if nxt_lead.ell != expect_ell or nxt_run != expect_run:
            return False
        if target == machine.final:
            if nxt_lead.state not in (machine.final, fprime):
                return False
        elif nxt_lead.state != target:
            return False
    return True


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


def _divisor(machine: MultCounterMachine, state: str) -> Optional[int]:
    """Divisor of the rule in ``state`` when its multiplicand divides, else
    None; a block closing in ``state`` carries its register modulo it."""
    rule = machine.rule_map.get(state)
    return int(1 / rule.mult) if rule is not None and rule.mult < 1 else None


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
    rule_map = machine.rule_map
    transitions: list[tuple] = []

    def add(state, token, status, target, move, delta):
        transitions.append((state, token, (status,), target, move, (delta,)))

    # --- block-opening expectations -------------------------------------
    expA = ("expA",)

    # generic A-machinery per (state, ell)
    def emit_config_A(state: str, ell: str):
        rule, mod = rule_map.get(state), _divisor(machine, state)
        a0 = ("A0", state, ell)
        steps = range(mod) if mod else (None,)
        # first letter is absorbed into the state, later ones hit the counter
        first = ("A1", state, ell, 1 % mod if mod else None)
        add(a0, LETTER, Z, first, 1, 0)
        for j in steps:
            a1 = ("A1", state, ell, j)
            nxt = ("A1", state, ell, (j + 1) % mod if mod else None)
            for st in (Z, P):
                add(a1, LETTER, st, nxt, 1, 1)
            # closing token: residue field must match the modular count
            if state == fprime:
                if j in (0, None):
                    dest = ("expBdup",)
                    for st in (Z, P):
                        add(a1, trail_token(state, ell, 0), st, dest, 1, 0)
                continue
            if rule is None:
                continue  # no successor exists: reject at the closing token
            if mod:
                phi = j
                if phi == 0:
                    dest = ("expB", rule.on_integer, str(rule.mult))
                else:
                    dest = ("expB", rule.on_fraction, "1")
                for st in (Z, P):
                    add(a1, trail_token(state, ell, phi), st, dest, 1, 0)
            else:
                dest = ("expB", rule.on_integer, str(rule.mult))
                for st in (Z, P):
                    add(a1, trail_token(state, ell, 0), st, dest, 1, 0)

    # --- B-side machinery -------------------------------------------------
    def bctx_trail_exits(bctx):
        """(trail token, next state) pairs closing a successor block."""
        kind = bctx[0]
        if kind == "pfx":
            return [(PREFIX, expA)]
        if kind == "cfg":
            _, state, ell = bctx
            return [
                (trail_token(state, ell, phi), expA) for phi in range(_divisor(machine, state) or 1)
            ]
        if kind == "fprime":
            return [(trail_token(fprime, bctx[1], 0), expA)]
        if kind == "final":
            return [(lead_token(final, bctx[1]), ("expEnd",))]
        return [(lead_token(final, "1"), ("expEndDup",))]  # dup

    def emit_B(bctx):
        mode, f = _factor(bctx)
        fin = ("Bfin", bctx)
        if mode == "stride":
            for r in range(f):
                state = ("B", bctx, r)
                if r < f - 1:
                    nxt = ("B", bctx, r + 1)
                    add(state, LETTER, P, nxt, 1, 0)
                    add(state, LETTER, Z, nxt, 1, 0)  # final stride, bank spent
                else:
                    add(state, LETTER, P, ("B", bctx, 0), 1, -1)
                    add(state, LETTER, Z, fin, 1, 0)  # the off-by-one tick
        else:
            for t in range(f):
                state = ("Bb", bctx, t)
                if t == 0:
                    add(state, LETTER, P, ("Bb", bctx, 1), 0, -1)
                    # empty counter before a burst: no stationary move done
                    # yet, so plain halting rejects safely (no entry)
                elif t < f - 1:
                    add(state, LETTER, P, ("Bb", bctx, t + 1), 0, -1)
                    add(state, LETTER, Z, ("dead", bctx, t), 1, 0)
                else:
                    add(state, LETTER, P, ("Bb", bctx, 0), 1, -1)
                    add(state, LETTER, Z, fin, 1, 0)
        for token, nxt in bctx_trail_exits(bctx):
            add(fin, token, Z, nxt, 1, 0)

    def b_entry(bctx):
        return ("Bb" if _factor(bctx)[0] == "burst" else "B", bctx, 0)

    # --- assemble ----------------------------------------------------------
    all_bctx = set()

    def expB_targets(state: str, ell: str):
        """Lead tokens acceptable for an expected successor block."""
        out = []
        if state == final:
            out.append((lead_token(final, ell), ("final", ell)))
            out.append((lead_token(fprime, ell), ("fprime", ell)))
        else:
            out.append((lead_token(state, ell), ("cfg", state, ell)))
        return out

    config_heads = [
        (s, ell) for s in sorted(ells) if s != final for ell in ells[s]
    ]

    # expectations after an A block
    exp_states = set()
    for s, ell in config_heads:
        rule = rule_map.get(s)
        if s == fprime:
            exp_states.add(("expBdup",))
            continue
        if rule is None:
            continue
        exp_states.add(("expB", rule.on_integer, str(rule.mult)))
        if rule.mult < 1:
            exp_states.add(("expB", rule.on_fraction, "1"))

    for exp in sorted(exp_states, key=repr):
        if exp == ("expBdup",):
            bctx = ("dup",)
            all_bctx.add(bctx)
            for st in (Z, P):
                add(exp, lead_token(final, "1"), st, b_entry(bctx), 1, 0)
            continue
        _, state, ell = exp
        for token, bkind in expB_targets(state, ell):
            all_bctx.add(bkind)
            for st in (Z, P):
                add(exp, token, st, b_entry(bkind), 1, 0)

    # doubling pairs: a prefix block is followed by a prefix block or by the
    # initial configuration
    expB_pfx = ("expB_pfx",)
    for st in (Z, P):
        add(expB_pfx, PREFIX, st, b_entry(("pfx",)), 1, 0)
        add(expB_pfx, lead_token(q0, "2"), st, b_entry(("cfg", q0, "2")), 1, 0)
    all_bctx.add(("pfx",))
    all_bctx.add(("cfg", q0, "2"))

    # generic next-pair expectation
    add(expA, PREFIX, Z, ("PA0",), 1, 0)
    for s, ell in config_heads:
        add(expA, lead_token(s, ell), Z, ("A0", s, ell), 1, 0)
        emit_config_A(s, ell)

    # prefix blocks as the checked pair's first half
    add(("PA0",), LETTER, Z, ("PA1",), 1, 0)
    for st in (Z, P):
        add(("PA1",), LETTER, st, ("PA1",), 1, 1)
    add(("PA1",), PREFIX, P, expB_pfx, 1, 0)
    # a length-one doubling block can only be the very first block; rejecting
    # it here keeps the closing-token step backward deterministic

    # accepting tail
    add(("expEnd",), ">", Z, ("acc",), 0, 0)
    add(("expEndDup",), ">", Z, ("accDup",), 0, 0)
    accepting = [("acc",), ("accDup",)]

    # part-specific opening
    if part == 1:
        add(("start",), "<", Z, ("expA1",), 1, 0)
        add(("expA1",), PREFIX, Z, ("FA0",), 1, 0)
        add(("FA0",), MARKED, Z, ("FA1",), 1, 0)
        add(("FA1",), PREFIX, Z, expB_pfx, 1, 0)
        add(("expA1",), lead_token(q0, "2"), Z, ("FA0c",), 1, 0)
        mod = _divisor(machine, q0)
        add(("FA0c",), MARKED, Z, ("A1", q0, "2", 1 % mod if mod else None), 1, 0)
    else:
        add(("start",), "<", Z, ("I0",), 1, 0)
        add(("I0",), PREFIX, Z, ("IB1",), 1, 0)
        add(("IB1",), MARKED, Z, ("Bfin", ("pfx",)), 1, 0)
        add(("I0",), lead_token(q0, "2"), Z, ("IC1",), 1, 0)
        add(("IC1",), MARKED, Z, ("Bfin", ("cfg", q0, "2")), 1, 0)
        # the uncovered final block: read idly, counter untouched
        for ell in ells[final]:
            idle = ("IF", ell)
            add(expA, lead_token(final, ell), Z, idle, 1, 0)
            add(idle, LETTER, Z, idle, 1, 0)
            add(idle, lead_token(final, ell), Z, ("expEndIdle",), 1, 0)
        add(("expEndIdle",), ">", Z, ("accIdle",), 0, 0)
        accepting.append(("accIdle",))

    for bctx in sorted(all_bctx, key=repr):
        emit_B(bctx)

    return make_automaton(
        transitions,
        initial=("start",),
        accepting=accepting,
        k=1,
        alphabet=valc_alphabet(machine),
        name=f"valc{part}({machine.name})",
    )


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
