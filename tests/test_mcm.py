import pytest
from fractions import Fraction

from revca.mcm import (
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
