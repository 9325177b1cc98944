import pytest

from revca.core import Configuration, make_automaton, run
from revca.reversibility import (
    ExtendedDeltaError,
    ReverseStep,
    ReverseTable,
    check_quasi_realtime,
    derive_reverse,
    step_back,
    verify_roundtrip,
)
from revca.witnesses import build_eq_ab, build_regular_witness

from conftest import toy_stationary_counter

# The hand-checked backward table for the balance checker: exactly twelve
# entries.  A key (q1, >, Z) would have no forward pre-image under
# consumed-token keying (nothing reads the right endmarker into q1), so the
# derivation leaves it undefined.
EQ_AB_BACKWARD = {
    ("q1", "<", ("Z",)): ("q0", -1, (0,)),
    ("q1", "a", ("Z",)): ("qb", -1, (0,)),
    ("q1", "b", ("Z",)): ("qa", -1, (0,)),
    ("qf", ">", ("Z",)): ("q1", 0, (0,)),
    ("qa", "a", ("Z",)): ("q1", -1, (0,)),
    ("qa", "b", ("Z",)): ("qa", -1, (1,)),
    ("qa", "a", ("P",)): ("qa", -1, (-1,)),
    ("qa", "b", ("P",)): ("qa", -1, (1,)),
    ("qb", "a", ("Z",)): ("qb", -1, (1,)),
    ("qb", "b", ("Z",)): ("q1", -1, (0,)),
    ("qb", "a", ("P",)): ("qb", -1, (1,)),
    ("qb", "b", ("P",)): ("qb", -1, (-1,)),
}


def test_derive_reverse_matches_hand_table():
    verdict = derive_reverse(build_eq_ab())
    assert verdict.reversible
    got = {k: tuple(v) for k, v in verdict.table.entries.items()}
    assert got == {k: v for k, v in EQ_AB_BACKWARD.items()}


def test_two_preimages_conflict():
    m = make_automaton(
        [
            ("p", "a", "Z", "r", 1, (0,)),
            ("q", "a", "Z", "r", 1, (0,)),
        ],
        initial="p",
        accepting=[],
        k=1,
    )
    verdict = derive_reverse(m)
    assert not verdict.reversible
    conflict = next(c for c in verdict.conflicts if c.key == ("r", "a", ("Z",)))
    # the witness is genuine: both recorded transitions step two distinct
    # configurations onto the same successor
    from revca.core import Configuration, step

    word = ("a",)
    first = step(m, Configuration(conflict.first.state, word, 1, (0,)))
    second = step(m, Configuration(conflict.second.state, word, 1, (0,)))
    assert first == second
    assert conflict.first.state != conflict.second.state


def test_single_transition_inverts():
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (0,))], initial="q0", accepting=[], k=1
    )
    verdict = derive_reverse(m)
    assert verdict.reversible
    assert verdict.table.entries == {
        ("q1", "<", ("Z",)): ReverseStep("q0", -1, (0,))
    }


def test_regular_witness_machine_is_irreversible():
    # two letter groups merge into one state, so backward steps cannot pick
    # a unique predecessor
    assert not derive_reverse(build_regular_witness()).reversible


def test_extended_machine_refused():
    m = make_automaton(
        [("q", "a", "P", "q", 1, (2,))], initial="q", accepting=[], k=1, max_delta=2
    )
    with pytest.raises(ExtendedDeltaError):
        derive_reverse(m)


def test_step_back_examples():
    m = build_eq_ab()
    table = derive_reverse(m).table
    word = ("a", "b")
    assert step_back(m, table, Configuration("qf", word, 3, (0,))) == Configuration(
        "q1", word, 3, (0,)
    )
    assert step_back(m, table, Configuration("q1", word, 3, (0,))) == Configuration(
        "qa", word, 2, (0,)
    )
    # the initial configuration has no predecessor
    assert step_back(m, table, m.initial_configuration(word)) is None


def test_verify_roundtrip_ok_and_counterexample():
    m = build_eq_ab()
    table = derive_reverse(m).table
    assert verify_roundtrip(m, table, 6) is None
    # boundary: only the empty word is checked
    assert verify_roundtrip(m, table, 0) is None
    # a forged table cannot invert the two-preimage machine
    irr = make_automaton(
        [
            ("p", "<", "Z", "p", 1, (0,)),
            ("p", "a", "Z", "r", 1, (0,)),
            ("q", "a", "Z", "r", 1, (0,)),
        ],
        initial="p",
        accepting=[],
        k=1,
    )
    forged = ReverseTable(
        {
            ("p", "<", ("Z",)): ReverseStep("p", -1, (0,)),
            ("r", "a", ("Z",)): ReverseStep("q", -1, (0,)),
        }
    )
    bad = verify_roundtrip(irr, forged, 2)
    assert bad is not None and bad.word == ("a",)


def test_roundtrip_on_rejected_runs_too():
    m = build_eq_ab()
    table = derive_reverse(m).table
    out = run(m, "aab", 100, trace=True)
    assert not out.accepted
    for before, after in zip(out.trace, out.trace[1:]):
        assert step_back(m, table, after) == before


def test_quasi_realtime_bounds():
    m = build_eq_ab()
    assert check_quasi_realtime(m, 1, 8).ok
    report = check_quasi_realtime(m, 0, 2)
    assert not report.ok
    # the offending fragment ends on the stationary accept step
    frag = report.witness.fragment
    assert frag[-1].head == frag[-2].head
    assert frag[-1].state == "qf"


def test_quasi_realtime_static_cycle_advisory():
    m = make_automaton(
        [("q", "a", "Z", "q", 0, (0,))], initial="q", accepting=[], k=1
    )
    report = check_quasi_realtime(m, 3, 2)
    assert report.ok  # nothing is accepted, so the bound holds vacuously
    assert any("stationary cycle" in a for a in report.advisories)


def test_toy_stationary_machine_roundtrip():
    m = toy_stationary_counter()
    verdict = derive_reverse(m)
    assert verdict.reversible
    assert verify_roundtrip(m, verdict.table, 6) is None
    assert check_quasi_realtime(m, 1, 6).ok
    assert not check_quasi_realtime(m, 0, 3).ok


def test_step_back_rejects_bad_configurations():
    from revca.core import InvalidConfigurationError

    m = build_eq_ab()
    table = derive_reverse(m).table
    word = ("a", "b")
    for cfg in (
        Configuration("nowhere", word, 3, (0,)),
        Configuration("qf", word, 4, (0,)),
        Configuration("qf", word, 3, (0, 0)),
        Configuration("qa", word, 2, (-1,)),
    ):
        with pytest.raises(InvalidConfigurationError):
            step_back(m, table, cfg)


def test_negative_max_len_is_rejected():
    m = build_eq_ab()
    table = derive_reverse(m).table
    with pytest.raises(ValueError, match="max_len"):
        verify_roundtrip(m, table, -1)
    with pytest.raises(ValueError, match="max_len"):
        check_quasi_realtime(m, 1, -1)
