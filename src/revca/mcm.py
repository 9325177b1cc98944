"""Multiplying counter machines: one register holding an arbitrary-precision
positive integer, multiplied by rationals from a fixed stock, branching on
whether the product stays integral."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

MULTIPLICANDS = (
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(7),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(1, 5),
    Fraction(1, 7),
)


class McmError(Exception):
    def __init__(self, message: str, rule: McmRule | None = None):
        super().__init__(message)
        self.rule = rule  # the first rule with a defect, if any


class McmRule(NamedTuple):
    state: str
    mult: Fraction
    on_integer: str
    on_fraction: str


class McmConfig(NamedTuple):
    state: str
    n: int


class McmStatus(enum.Enum):
    HALTED_FINAL = "HALTED_FINAL"
    HALTED_STUCK = "HALTED_STUCK"
    FUEL_EXHAUSTED = "FUEL_EXHAUSTED"


@dataclass(frozen=True)
class MultCounterMachine:
    states: frozenset[str]
    rules: tuple[McmRule, ...]
    initial: str = "q0"
    final: str = "qf"

    @cached_property
    def step_index(self) -> dict[str, tuple[int, int, str, str]]:
        """Each rule by state in integer form: its multiplicand's numerator
        and denominator in lowest terms, then on_integer and on_fraction."""
        return {
            r.state: (r.mult.numerator, r.mult.denominator, r.on_integer, r.on_fraction)
            for r in self.rules
        }

    def defects_by_rule(self):
        """The machine's defects, in order, each with the rule it belongs to,
        or None for a defect of the machine as a whole."""
        seen = set()
        for r in self.rules:
            if r.state in seen:
                yield r, f"two rules share first component {r.state!r}"
            seen.add(r.state)
            if r.state == self.final:
                yield r, f"rule on the final state {self.final!r}"
            if self.initial in (r.on_integer, r.on_fraction):
                yield r, f"rule {r.state!r} targets the initial state"
            if r.mult not in MULTIPLICANDS:
                yield r, f"multiplicand {r.mult} outside the stock"
            for st in (r.state, r.on_integer, r.on_fraction):
                if st not in self.states:
                    yield r, f"rule {r.state!r} references unknown state {st!r}"
        if self.initial not in self.states:
            yield None, f"initial state {self.initial!r} unknown"
        if self.final not in self.states:
            yield None, f"final state {self.final!r} unknown"
        if self.initial == self.final:
            yield None, "initial and final states coincide"


@dataclass
class McmRun:
    status: McmStatus
    trace: list[McmConfig]

    @property
    def final(self) -> McmConfig:
        return self.trace[-1]


def make_mcm(rules, initial="q0", final="qf", states=None) -> MultCounterMachine:
    rs = tuple(
        sorted(McmRule(q, Fraction(mult), p, r) for (q, mult, p, r) in rules)
    )
    if states is None:
        states = {initial, final}
        for r in rs:
            states |= {r.state, r.on_integer, r.on_fraction}
    machine = MultCounterMachine(frozenset(states), rs, initial, final)
    defects = list(machine.defects_by_rule())
    if defects:
        rule = next((r for r, _ in defects if r is not None), None)
        raise McmError("; ".join(message for _, message in defects), rule)
    return machine


def mcm_step(machine: MultCounterMachine, cfg: McmConfig) -> Optional[McmConfig]:
    """Apply the rule for the current state: multiply when the product is an
    integer, otherwise keep the register and take the fraction branch.  None
    when no rule exists (always the case in the final state).

    The multiplicand p/d is in lowest terms, so n * p / d is an integer
    exactly when d divides n * p, and then it is the quotient."""
    state, n = cfg
    step = machine.step_index.get(state)
    if step is None:
        return None
    p, d, on_integer, on_fraction = step
    product, rest = divmod(n * p, d)
    if rest:
        return tuple.__new__(McmConfig, (on_fraction, n))
    return tuple.__new__(McmConfig, (on_integer, product))


def mcm_run(machine: MultCounterMachine, i: int, fuel: int = 1_000) -> McmRun:
    """Run from the doubled-up start register 2**i, tracing every configuration.

    ``fuel`` bounds applied steps; a machine that halts after exactly ``fuel``
    steps still gets its halting status."""
    if i < 0 or fuel < 0:
        raise ValueError("i and fuel must be non-negative")
    cfg = McmConfig(machine.initial, 2**i)
    trace = [cfg]
    while True:
        nxt = mcm_step(machine, cfg)
        if nxt is None:
            status = (
                McmStatus.HALTED_FINAL if cfg.state == machine.final else McmStatus.HALTED_STUCK
            )
            return McmRun(status, trace)
        if len(trace) > fuel:
            return McmRun(McmStatus.FUEL_EXHAUSTED, trace)
        cfg = nxt
        trace.append(cfg)


def encode_string(text: str) -> int:
    """Weighted base-3 value of a word over {1, 2}: digit t contributes
    x_t * 3**(t-1)."""
    total = 0
    for pos, ch in enumerate(text):
        if ch not in "12":
            raise McmError(f"digit {ch!r} outside {{1, 2}}")
        total += int(ch) * 3**pos
    return total

