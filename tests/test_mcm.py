import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from revca import valc
from revca.mcm import (
    MULTIPLICANDS,
    McmConfig,
    McmError,
    McmStatus,
    encode_string,
    make_mcm,
    mcm_run,
    mcm_step,
)

from conftest import stock

GOLDEN_TRACE = [
    ("q0", 16),
    ("q1", 32),
    ("q2", 16),
    ("q3", 16),
    ("q4", 8),
    ("qf", 8),
]


def test_step_multiplies_on_integer():
    m = stock("hartmanis.mcm")
    assert mcm_step(m, McmConfig("q0", 16)) == McmConfig("q1", 32)


def test_step_branches_on_fraction():
    m = stock("hartmanis.mcm")
    assert mcm_step(m, McmConfig("q2", 16)) == McmConfig("q3", 16)


def test_step_halts_in_final():
    assert mcm_step(stock("hartmanis.mcm"), McmConfig("qf", 8)) is None


def test_golden_trace():
    out = mcm_run(stock("hartmanis.mcm"), 4)
    assert out.status is McmStatus.HALTED_FINAL
    assert [(c.state, c.n) for c in out.trace] == GOLDEN_TRACE


def test_single_rule_machine():
    m = make_mcm([("q0", 2, "qf", "qf")])
    out = mcm_run(m, 0)
    assert [(c.state, c.n) for c in out.trace] == [("q0", 1), ("qf", 2)]
    assert out.status is McmStatus.HALTED_FINAL


def test_fuel_exhaustion_trace_length():
    # q0 and q1 pass the register back and forth forever
    m = make_mcm([("q0", 2, "q1", "q1"), ("q1", 2, "q2", "q2"), ("q2", 2, "q1", "q1")])
    out = mcm_run(m, 0, fuel=10)
    assert out.status is McmStatus.FUEL_EXHAUSTED
    assert len(out.trace) == 11


def test_stuck_state_reported():
    m = stock("hartmanis.mcm")
    out = mcm_run(m, 0)
    assert out.status is McmStatus.HALTED_STUCK
    assert out.final.state == "qs"


def test_arbitrary_precision():
    rules = [(f"q{i}", 2, f"q{i+1}", f"q{i+1}") for i in range(256)]
    rules.append(("q256", 2, "qf", "qf"))
    m = make_mcm(rules)
    out = mcm_run(m, 0, fuel=300)
    assert out.status is McmStatus.HALTED_FINAL
    assert out.final.n == 2**257


def test_encode_string():
    assert encode_string("12") == 7
    assert encode_string("") == 0
    assert encode_string("2") == 2
    assert encode_string("112") == 1 + 3 + 18
    with pytest.raises(McmError):
        encode_string("3")


def test_rule_validation():
    with pytest.raises(McmError):
        make_mcm([("qf", 2, "q1", "q1")])  # rule on the final state
    with pytest.raises(McmError):
        make_mcm([("q1", 2, "q0", "q1")])  # initial state as a target
    with pytest.raises(McmError):
        make_mcm([("q1", 2, "q2", "q2"), ("q1", 3, "q2", "q2")])  # duplicate source
    with pytest.raises(McmError):
        make_mcm([("q1", Fraction(1, 4), "q2", "q2")])  # multiplicand not stocked


def test_register_stays_positive():
    m = stock("double.mcm")
    for i in range(6):
        out = mcm_run(m, i)
        assert all(c.n >= 1 for c in out.trace)


@pytest.mark.parametrize("name, i", [("double.mcm", 0), ("hartmanis.mcm", 4)])
def test_fuel_boundary(name, i):
    m = stock(name)
    steps = len(mcm_run(m, i).trace) - 1
    exact = mcm_run(m, i, fuel=steps)
    assert exact.status is McmStatus.HALTED_FINAL
    assert len(exact.trace) == steps + 1
    short = mcm_run(m, i, fuel=steps - 1)
    assert short.status is McmStatus.FUEL_EXHAUSTED
    assert len(short.trace) == steps


# mcm_step multiplies on each multiplicand's integer numerator and
# denominator; these tests hold it against stepping with Fractions


def fraction_step(machine, cfg):
    """One step by Fraction arithmetic: the reference for ``mcm_step``."""
    rule = next((r for r in machine.rules if r.state == cfg.state), None)
    if rule is None:
        return None
    product = rule.mult * cfg.n
    if product.denominator == 1:
        return McmConfig(rule.on_integer, int(product))
    return McmConfig(rule.on_fraction, cfg.n)


def fraction_run(machine, i, fuel):
    """The trace and status of ``mcm_run`` by ``fraction_step``."""
    cfg = McmConfig(machine.initial, 2**i)
    trace = [cfg]
    while (nxt := fraction_step(machine, cfg)) is not None and len(trace) <= fuel:
        cfg = nxt
        trace.append(cfg)
    if nxt is not None:
        return trace, McmStatus.FUEL_EXHAUSTED
    return trace, McmStatus.HALTED_FINAL if cfg.state == machine.final else McmStatus.HALTED_STUCK


# registers far past a machine word, each a multiple of some stock
# denominators, and their near neighbours
LARGE = [
    base + offset
    for base in (2**200 * 3**50, 2**200 * 3**50 * 5**20 * 7**20)
    for offset in range(-3, 4)
]


@pytest.mark.parametrize("mult", MULTIPLICANDS, ids=str)
def test_integer_step_matches_fraction_reference(mult):
    m = make_mcm([("q0", mult, "q1", "q2")])
    for n in [*range(1, 301), *LARGE]:
        cfg = McmConfig("q0", n)
        got = mcm_step(m, cfg)
        assert got == fraction_step(m, cfg), n
        assert type(got) is McmConfig


@st.composite
def stock_machines(draw):
    """Machines on q0..q3 whose multiplicands are drawn from the stock; a
    state left without a rule is stuck."""
    targets = st.sampled_from(["q1", "q2", "q3", "qf"])
    rules = [
        (state, draw(st.sampled_from(MULTIPLICANDS)), draw(targets), draw(targets))
        for state in ("q0", "q1", "q2", "q3")
        if state == "q0" or draw(st.booleans())
    ]
    return make_mcm(rules)


@given(stock_machines(), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=60))
def test_run_matches_fraction_reference(machine, i, fuel):
    out = mcm_run(machine, i, fuel)
    assert (out.trace, out.status) == fraction_run(machine, i, fuel)


@pytest.mark.parametrize("mult", MULTIPLICANDS, ids=str)
def test_divisor_and_ell_text_match_the_fractions(mult):
    # the register reaches 2**i * 105 in q3, so every stock multiplicand
    # multiplies it there, but for 1/2 when i == 0
    m = make_mcm([("q0", 3, "q1", "qf"), ("q1", 5, "q2", "qf"), ("q2", 7, "q3", "qf"), ("q3", mult, "qf", "qf")])
    assert valc._divisor(m, "q3") == (int(1 / mult) if mult < 1 else None)
    assert [valc._divisor(m, s) for s in ("q0", "q1", "q2", "qf")] == [None] * 4
    for i in (0, 1):
        configs, ells, _ = valc._annotate(m, i, 10)
        multiplied = (mult * configs[3][1]).denominator == 1
        assert ells[:5] == ["2", "3", "5", "7", str(mult) if multiplied else "1"]
        assert multiplied == (mult != Fraction(1, 2) or i == 1)
