import gc
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from revca.cli import main as cli_main
from revca import reversibility
from revca.constructions import normalize_extended, product_intersection, speedup
from revca.core import (
    Configuration,
    CounterAutomaton,
    FuelExhaustedError,
    InvalidConfigurationError,
    InvalidTransitionEffectError,
    LEFT_END,
    MachineError,
    NegativeCounterError,
    POSITIVE,
    RIGHT_END,
    Transition,
    UnknownTokenError,
    Verdict,
    ZERO,
    _counter_kernel,
    accepts,
    all_words,
    make_automaton,
    rename_states,
    run,
    status_of,
    step,
    validate,
)
from revca.formats import FormatError, parse_automaton, parse_mcm, serialize_automaton
from revca.reversibility import ReverseStep, ReverseTable, derive_reverse, step_back, verify_roundtrip
from revca.valc import build_valc, valc_encode
from revca.witnesses import build_eq_ab


def test_status_of():
    assert status_of([0, 0]) == ("Z", "Z")
    assert status_of([0, 3]) == ("Z", "P")
    assert status_of([1]) == ("P",)
    assert status_of([]) == ()
    with pytest.raises(NegativeCounterError):
        status_of([-1])


@given(st.lists(st.integers(min_value=0, max_value=50)))
def test_status_of_componentwise(values):
    statuses = status_of(values)
    assert len(statuses) == len(values)
    for v, s in zip(values, statuses):
        assert s == ("P" if v else "Z")


@pytest.mark.parametrize("k", range(6))
def test_counter_kernel_steppers_are_built_once_and_refuse_other_lengths(k):
    """``run`` and ``step_back`` reach the steppers through ``_kernel``; a
    stepper that took a vector of another length without a ValueError would
    step on the wrong counters, and ``back`` would skip the cut of a forged
    entry's deltas to the shorter vector."""
    loop, back, _ = _counter_kernel(k)
    machine = make_automaton([], initial="q", accepting=[], k=k, alphabet="a")
    assert machine._kernel is _counter_kernel(k) is make_automaton([], "p", [], k)._kernel
    word, zeros = ("a",), (0,) * k
    for size in (k - 1, k + 1):
        if size < 0:
            continue
        cfg = Configuration("q", word, 1, (0,) * size)
        with pytest.raises(ValueError):
            loop(machine._index, (LEFT_END, *word, RIGHT_END), cfg, 5, None)
        with pytest.raises(ValueError):
            back({}, cfg)
        forged = make_automaton([("q", "a", (ZERO,) * k, "q", 1, (1,) * size)], "q", [], k)
        with pytest.raises(ValueError):
            loop(forged._index, (LEFT_END, *word, RIGHT_END), cfg._replace(counters=zeros), 5, None)
        rows = ReverseTable({("q", "a", (ZERO,) * k): ReverseStep("p", -1, (1,) * size)})._rows
        assert back(rows, Configuration("q", word, 2, zeros)) == Configuration("p", word, 1, (1,) * min(size, k))


def test_validate_clean_example():
    assert validate(build_eq_ab()) == []


def test_validate_reports_a_negative_counter_count():
    m = CounterAutomaton(
        states=frozenset({"q"}),
        alphabet=frozenset({"a"}),
        k=-1,
        transitions=(),
        initial="q",
        accepting=frozenset(),
    )
    assert validate(m) == ["counter count k=-1 is negative"]


def test_validate_zero_decrement():
    m = make_automaton(
        [("q", "a", "Z", "q", 1, (-1,))], initial="q", accepting=[], k=1
    )
    defects = validate(m)
    assert any("decrement on zero status" in d for d in defects)


def test_validate_nondeterministic_key():
    m = make_automaton(
        [
            ("q", "a", "Z", "q", 1, (0,)),
            ("q", "a", "Z", "p", 1, (0,)),
        ],
        initial="q",
        accepting=[],
        k=1,
    )
    defects = validate(m)
    assert sum("nondeterministic key" in d for d in defects) == 1


@pytest.mark.parametrize("same_object", [True, False], ids=["one-object", "equal-objects"])
def test_validate_catches_a_transition_listed_twice(same_object):
    """A repeat check that keys on object identity would let one object
    listed twice through; ``make_automaton`` never hands out the same object
    twice, so this builds the machine directly."""
    t = Transition("q", "a", ("Z",), "q", 1, (0,))
    twin = t if same_object else Transition(*t)
    m = CounterAutomaton(
        states=frozenset({"q"}),
        alphabet=frozenset({"a"}),
        k=1,
        transitions=(t, twin),
        initial="q",
        accepting=frozenset(),
    )
    assert validate(m) == ["transition 'q'/'a'/Z: duplicate transition"]
    assert not m._clean


def test_validate_right_end_move():
    m = make_automaton([("q", ">", "", "q", 1, "")], initial="q", accepting=[], k=0)
    assert any("right endmarker" in d for d in validate(m))


def test_validate_delta_exceeds_bound():
    m = make_automaton([("q", "a", "P", "q", 1, (2,))], initial="q", accepting=[], k=1)
    assert any("exceeds max_delta" in d for d in validate(m))
    assert validate(
        make_automaton([("q", "a", "P", "q", 1, (2,))], initial="q", accepting=[], k=1, max_delta=2)
    ) == []


def test_step_example_entries():
    m = build_eq_ab()
    # entry (1): off the left endmarker
    assert step(m, Configuration("q0", ("a", "b"), 0, (0,))) == Configuration(
        "q1", ("a", "b"), 1, (0,)
    )
    # entry (5): an extra a banks onto the counter
    assert step(m, Configuration("qa", ("a", "a", "b"), 2, (0,))) == Configuration(
        "qa", ("a", "a", "b"), 3, (1,)
    )
    # no entry on the right endmarker with a surplus: halt
    assert step(m, Configuration("qa", ("a",), 2, (1,))) is None


def test_step_rejects_bad_configuration():
    m = build_eq_ab()
    with pytest.raises(InvalidConfigurationError):
        step(m, Configuration("q0", ("a",), 5, (0,)))
    with pytest.raises(InvalidConfigurationError):
        step(m, Configuration("q0", ("a",), 0, (0, 0)))


def test_run_accepts_balanced_in_real_time():
    m = build_eq_ab()
    out = run(m, "ab", 100)
    assert out.verdict is Verdict.ACCEPT and out.steps == 4
    out = run(m, "", 100)
    assert out.verdict is Verdict.ACCEPT and out.steps == 2


def test_run_rejects_unbalanced():
    m = build_eq_ab()
    out = run(m, "a", 100)
    assert out.verdict is Verdict.REJECT_HALT
    assert out.final.state == "qa"


def test_run_unknown_token():
    with pytest.raises(UnknownTokenError):
        run(build_eq_ab(), "ax", 10)


def test_run_fuel_semantics():
    m = build_eq_ab()
    # halting exactly at the budget still yields a verdict
    assert run(m, "ab", 4).verdict is Verdict.ACCEPT
    assert run(m, "ab", 3).verdict is Verdict.FUEL_EXHAUSTED
    assert run(m, "ab", 3).steps == 3


def test_accepts_raises_on_a_spent_fuel():
    m = parse_automaton((MACHINES / "toy_stationary.rca").read_text())
    assert run(m, "aaa", 10_000).steps == 8
    assert accepts(m, "aaa") is True
    assert accepts(m, "aaa", 8) is True
    with pytest.raises(FuelExhaustedError, match="^no verdict within 2 steps$"):
        accepts(m, "aaa", 2)


def test_run_trace_records_every_configuration():
    out = run(build_eq_ab(), "ab", 100, trace=True)
    assert len(out.trace) == out.steps + 1
    assert out.trace[0].state == "q0" and out.trace[-1] == out.final


def test_membership_and_head_safety_bounded():
    m = build_eq_ab()
    for word in all_words({"a", "b"}, 8):
        out = run(m, word, 100, trace=True)
        counts = Counter(word)
        assert out.accepted == (counts["a"] == counts["b"])
        if out.accepted:
            assert out.steps == len(word) + 2
        for cfg in out.trace:
            assert 0 <= cfg.head <= len(word) + 1
            assert all(c >= 0 for c in cfg.counters)


# The simulator's error paths on machines that were never validated: each bad
# transition is only diagnosed when a run takes it.


def test_run_target_outside_states_raises():
    m = make_automaton(
        [("q0", "<", "Z", "qx", 1, (0,)), ("qx", "a", "Z", "q0", 1, (0,))],
        initial="q0",
        accepting=["q0"],
        k=1,
        states=["q0"],
    )
    with pytest.raises(InvalidConfigurationError):
        run(m, "a", 10)
    # the budget runs out before the bad successor is looked at
    assert run(m, "a", 0).verdict is Verdict.FUEL_EXHAUSTED


def test_run_right_move_on_right_endmarker_raises():
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (0,)), ("q1", ">", "Z", "q1", 1, (0,))],
        initial="q0",
        accepting=["q1"],
        k=1,
    )
    with pytest.raises(InvalidConfigurationError):
        run(m, "", 10)


def test_run_short_delta_vector_raises():
    m = make_automaton(
        [("q0", "<", "ZZ", "q1", 1, (1,)), ("q1", ">", "ZZ", "q2", 0, (0, 0))],
        initial="q0",
        accepting=["q2"],
        k=2,
    )
    with pytest.raises(InvalidConfigurationError):
        run(m, "", 10)


def test_run_oversized_negative_delta_is_a_diagnosed_reject():
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (2,)), ("q1", ">", "P", "q2", 0, (-3,))],
        initial="q0",
        accepting=["q2"],
        k=1,
        max_delta=3,
    )
    out = run(m, "", 10)
    assert out.verdict is Verdict.REJECT_HALT
    assert out.steps == 1
    assert out.final == Configuration("q1", (), 1, (2,))
    assert out.diagnostic and "below zero" in out.diagnostic
    # a decrement keyed on a zero status goes the same way
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (-1,))], initial="q0", accepting=["q1"], k=1
    )
    out = run(m, "", 10)
    assert out.verdict is Verdict.REJECT_HALT and out.steps == 0 and out.diagnostic


def _run_by_steps(machine, word, fuel):
    """Reference semantics for ``run``: ``step`` validates every
    configuration it is handed, and the budget is checked after each step."""
    cfg = machine.initial_configuration(word)
    history = [cfg]
    while True:
        try:
            nxt = step(machine, cfg)
        except InvalidTransitionEffectError as exc:
            return Verdict.REJECT_HALT, len(history) - 1, cfg, history, str(exc)
        if nxt is None:
            verdict = Verdict.ACCEPT if cfg.state in machine.accepting else Verdict.REJECT_HALT
            return verdict, len(history) - 1, cfg, history, None
        if len(history) - 1 == fuel:
            return Verdict.FUEL_EXHAUSTED, len(history) - 1, cfg, history, None
        cfg = nxt
        history.append(cfg)


@st.composite
def unvalidated_machines(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from("pqr"),
                st.sampled_from(["<", "a", "b", ">"]),
                st.lists(st.sampled_from("ZP"), min_size=k, max_size=k),
                st.sampled_from("pqrx"),
                st.integers(min_value=0, max_value=1),
                st.lists(st.integers(min_value=-2, max_value=2), min_size=max(k - 1, 0), max_size=k),
            ),
            max_size=14,
        )
    )
    return make_automaton(
        rows, initial="p", accepting=["q"], k=k, alphabet="ab", states="pqr", max_delta=2
    )


@given(unvalidated_machines(), st.text(alphabet="ab", max_size=5), st.integers(min_value=0, max_value=12))
def test_run_matches_step_by_step_reference(machine, word, fuel):
    try:
        expected = _run_by_steps(machine, word, fuel)
    except InvalidConfigurationError:
        with pytest.raises(InvalidConfigurationError):
            run(machine, word, fuel, trace=True)
        return
    out = run(machine, word, fuel, trace=True)
    assert (out.verdict, out.steps, out.final, out.trace, out.diagnostic) == expected


def test_unclean_run_diagnoses_an_underflow_on_the_step_the_fuel_forbids():
    """The underflow is found before the budget is read: with the fuel spent
    on ``<``, the step that would drive the counter below zero still makes a
    diagnosed reject, not FUEL_EXHAUSTED."""
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (1,)), ("q1", "a", "P", "q1", 1, (-2,))],
        initial="q0", accepting=["q1"], k=1, max_delta=2,
    )
    out = run(m, "a", 1)
    assert (out.verdict, out.steps, out.final) == (Verdict.REJECT_HALT, 1, Configuration("q1", ("a",), 1, (1,)))
    assert out.diagnostic == f"transition {('q1', 'a', (POSITIVE,))} drives a counter below zero from (1,)"


def test_unclean_run_checks_a_successor_only_when_it_takes_it():
    """A step into a state outside the machine raises once the run stands on
    it: not when the fuel stops the run before that step, but when the step
    is the last that the fuel allows."""
    m = make_automaton(
        [("q0", "<", "Z", "q1", 1, (0,)), ("q1", "a", "Z", "ghost", 1, (0,))],
        initial="q0", accepting=[], k=1, states={"q0", "q1"},
    )
    out = run(m, "a", 1)
    assert (out.verdict, out.steps, out.final) == (Verdict.FUEL_EXHAUSTED, 1, Configuration("q1", ("a",), 1, (0,)))
    assert out.diagnostic is None
    with pytest.raises(InvalidConfigurationError, match="'ghost' not in machine"):
        run(m, "a", 2)


def test_rename_states_names_unreachable_states_after_reachable_ones_in_repr_order():
    m = make_automaton(
        [("q", "<", "", "r", 1, ""), ("u2", "a", "", "q", 1, ""), ("u1", "a", "", "u2", 1, "")],
        initial="q", accepting=["u1"], k=0, states=["zz", "u2", "r", "u1", "q"],
    )
    renamed = rename_states(m)
    # q and r are reached; u1, u2 and zz follow in repr order, and the
    # leftovers' transitions follow the reached ones
    assert renamed.transitions == (
        Transition("s0", "<", (), "s1", 1, ()),
        Transition("s2", "a", (), "s3", 1, ()),
        Transition("s3", "a", (), "s0", 1, ()),
    )
    assert renamed.states == {"s0", "s1", "s2", "s3", "s4"}
    assert renamed.accepting == {"s2"}


def test_rename_states_refuses_a_transition_that_leaves_a_state_outside_the_machine():
    m = make_automaton(
        [("q", "<", "", "r", 1, ""), ("ghost", "a", "", "q", 1, "")],
        initial="q", accepting=[], k=0, states=["q", "r"],
    )
    with pytest.raises(MachineError, match="leaves a state outside the machine"):
        rename_states(m)


def test_rename_states_refuses_a_transition_that_targets_a_state_outside_the_machine():
    m = make_automaton([("q", "<", "", "ghost", 1, "")], initial="q", accepting=[], k=0, states={"q"})
    assert any("ghost" in problem for problem in validate(m))
    with pytest.raises(MachineError, match="targets 'ghost', outside the machine"):
        rename_states(m)


@st.composite
def clean_machines(draw):
    """Machines that pass ``validate`` with ``max_delta`` 1, so that ``run``
    takes the kernel's generated loop.  Each drawn (state, token) pair gets
    a row at every status vector, so runs get past their first step: one
    target and move, and one delta vector with its decrements dropped at
    zero statuses.  There is no rightward move on the right endmarker, and
    stationary moves can loop.  States are letters or, as in constructed
    machines, tuples nested three deep, built anew at each use, so that
    equal states are often distinct objects."""
    k = draw(st.integers(min_value=0, max_value=4))
    shape = draw(st.sampled_from([str, _nested_state]))
    rows = []
    for state, token in product("pqr", ["<", "a", "b", ">"]):
        if draw(st.integers(min_value=0, max_value=3)):  # three pairs in four have a row
            target = draw(st.sampled_from("pqr"))
            move = 0 if token == ">" else draw(st.integers(min_value=0, max_value=1))
            deltas = draw(st.tuples(*[st.integers(min_value=-1, max_value=1)] * k))
            for statuses in product("ZP", repeat=k):
                effect = tuple(d if s == "P" else max(d, 0) for s, d in zip(statuses, deltas))
                rows.append((shape(state), token, statuses, shape(target), move, effect))
    machine = make_automaton(
        rows, initial=shape("p"), accepting=[shape("q")], k=k, alphabet="ab", states=map(shape, "pqr")
    )
    assert machine._clean
    return machine


def _nested_state(name: str) -> tuple:
    """A new tuple object nested three deep, shaped like a product state."""
    return (((name,), (ord(name),)), ((name,), (0,)))


@given(clean_machines(), st.text(alphabet="ab", max_size=5), st.integers(min_value=0, max_value=12), st.booleans())
def test_clean_run_matches_step_by_step_reference(machine, word, fuel, trace):
    # besides the drawn fuel: the run's own step count, where the machine
    # halts just as the fuel runs out, and one step less
    steps = _run_by_steps(machine, word, 40)[1]
    for budget in {fuel, steps, max(steps - 1, 0)}:
        verdict, n, final, history, diagnostic = _run_by_steps(machine, word, budget)
        out = run(machine, word, budget, trace=trace)
        assert (out.verdict, out.steps, out.final, out.trace, out.diagnostic) == (
            verdict, n, final, history if trace else None, diagnostic
        )


def _validate_reference(machine):
    """Transition-by-transition statement of ``validate``'s contract: the
    same messages in the same order, each transition checked on its own."""
    defects = []
    if machine.k < 0:
        defects.append(f"counter count k={machine.k} is negative")
    if machine.max_delta < 1:
        defects.append(f"max_delta {machine.max_delta} must be at least 1")
    for token in sorted(machine.alphabet):
        if not token:
            defects.append("empty token in alphabet")
        elif any(ch.isspace() for ch in token):
            defects.append(f"token {token!r} contains whitespace")
        elif "#" in token:
            defects.append(f"token {token!r} contains '#'")
        if token in ("<", ">"):
            defects.append(f"reserved endmarker {token!r} declared in alphabet")
    if machine.initial not in machine.states:
        defects.append(f"initial state {machine.initial!r} not in states")
    for state in machine.accepting:
        if state not in machine.states:
            defects.append(f"accepting state {state!r} not in states")
    seen = {}
    for t in machine.transitions:
        where = f"transition {t.state!r}/{t.token!r}/{''.join(t.statuses)}"
        if t.state not in machine.states:
            defects.append(f"{where}: unknown source state")
        if t.target not in machine.states:
            defects.append(f"{where}: unknown target state {t.target!r}")
        if t.token not in machine.alphabet and t.token not in ("<", ">"):
            defects.append(f"{where}: unknown token")
        if len(t.statuses) != machine.k:
            defects.append(f"{where}: status vector has length {len(t.statuses)}, expected {machine.k}")
        elif any(s not in ("Z", "P") for s in t.statuses):
            defects.append(f"{where}: bad status characters")
        if t.move not in (0, 1):
            defects.append(f"{where}: move {t.move} not in {{0, 1}}")
        if t.token == ">" and t.move == 1:
            defects.append(f"{where}: rightward move on the right endmarker")
        if len(t.deltas) != machine.k:
            defects.append(f"{where}: delta vector has length {len(t.deltas)}, expected {machine.k}")
        else:
            for i, (status, delta) in enumerate(zip(t.statuses, t.deltas)):
                if abs(delta) > machine.max_delta:
                    defects.append(f"{where}: |delta[{i}]| = {abs(delta)} exceeds max_delta {machine.max_delta}")
                if status == "Z" and delta < 0:
                    defects.append(f"{where}: decrement on zero status at counter {i}")
        prev = seen.get(t.key)
        if prev is None:
            seen[t.key] = t
        elif prev == t:
            defects.append(f"{where}: duplicate transition")
        else:
            defects.append(f"{where}: nondeterministic key (two distinct outputs)")
    return defects


@st.composite
def malformed_machines(draw):
    """Small machines drawn from narrow pools, so that unknown states, bad
    status or delta vectors, repeated keys and right-end moves are common."""
    k = draw(st.integers(min_value=0, max_value=2))
    vector = st.lists(st.sampled_from("ZPX"), min_size=max(k - 1, 0), max_size=k + 1)
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from("pqx"),
                st.sampled_from(["<", "a", "b", "c", ">"]),
                vector,
                st.sampled_from("pqx"),
                st.integers(min_value=0, max_value=2),
                st.lists(st.integers(min_value=-3, max_value=3), min_size=max(k - 1, 0), max_size=k + 1),
            ),
            max_size=16,
        )
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []  # repeats
    return make_automaton(
        rows,
        initial=draw(st.sampled_from("px")),
        accepting=draw(st.sets(st.sampled_from("pqx"))),
        k=k,
        alphabet=draw(st.sets(st.sampled_from(["a", "b", "<", "", "a b", "a#"]))),
        states="pq",
        max_delta=draw(st.integers(min_value=0, max_value=2)),
    )


@given(malformed_machines())
def test_validate_matches_per_transition_reference(machine):
    assert validate(machine) == _validate_reference(machine)


MACHINES = Path(__file__).resolve().parent.parent / "machines"


@pytest.fixture
def collector_restored():
    """Leave the cyclic collector enabled whatever the test did to it."""
    yield
    gc.enable()


def test_constructions_leave_the_collector_enabled(tmp_path, capsys, collector_restored):
    assert gc.isenabled()
    out = tmp_path / "double.rca"
    assert cli_main(["valc", "build", str(MACHINES / "double.mcm"), "-o", str(out)]) == 0
    assert gc.isenabled()
    assert cli_main(["check", str(out)]) == 0
    assert gc.isenabled()
    capsys.readouterr()
    with pytest.raises(FormatError):
        parse_automaton("revca-format 1\ncounters x\n")
    assert gc.isenabled()


def test_cli_check_runs_no_collection(tmp_path, capsys, collector_restored):
    out = tmp_path / "double.rca"
    assert cli_main(["valc", "build", str(MACHINES / "double.mcm"), "-o", str(out)]) == 0
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.enable()
    gc.callbacks.append(record)
    try:
        assert cli_main(["check", str(out)]) == 0
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
    assert passes == []


def test_cli_pause_covers_the_argument_parser(capsys, collector_restored):
    # argparse builds reference cycles; a pause that started after the parser
    # is built would let collector passes run inside main
    inside, passes = [False], []

    def record(phase, info):
        if phase == "start" and inside[0]:
            passes.append(info["generation"])

    argv, kept, codes = ["check", str(MACHINES / "eq_ab.rca")], [], []
    gc.enable()
    gc.callbacks.append(record)
    try:
        for i in range(50):
            kept.append([[j] for j in range(100 + 7 * i)])  # the caller allocates between calls
            inside[0] = True
            codes.append(cli_main(argv))
            inside[0] = False
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
    assert codes == [0] * 50
    assert passes == []


def test_constructions_keep_a_caller_paused_collector(collector_restored):
    gc.disable()
    eq_ab = build_eq_ab()
    norm = normalize_extended(eq_ab)
    assert not gc.isenabled()
    prod = product_intersection(eq_ab, eq_ab)
    assert not gc.isenabled()
    renamed = rename_states(prod)
    assert not gc.isenabled()
    text = serialize_automaton(renamed)
    assert not gc.isenabled()
    parse_automaton(text)
    assert not gc.isenabled()
    derive_reverse(norm)
    assert not gc.isenabled()


def test_constructions_make_no_reference_cycles(collector_restored):
    # The pause is memory-safe only because reference counting alone frees
    # everything the constructions drop: nothing is left for the collector.
    # speedup replays its macro-steps on the normalized machine's step index,
    # and verify_roundtrip builds both indexes of the machine it sweeps.
    gc.collect()
    gc.disable()
    acceptor = build_valc(parse_mcm((MACHINES / "double.mcm").read_text()))
    parsed = parse_automaton(serialize_automaton(rename_states(acceptor)))
    verdict = derive_reverse(parsed)
    assert verdict.reversible
    table = verdict.table
    assert verify_roundtrip(parsed, table, 3) is None
    assert "_index" in vars(parsed) and "_rows" in vars(table)
    fast = speedup(parse_automaton((MACHINES / "toy_stationary.rca").read_text()), 1)
    assert fast.transitions
    del acceptor, parsed, verdict, table, fast
    assert gc.collect() == 0


def test_backward_replay_makes_no_reference_cycles(collector_restored):
    # run --backward replays with the collector off, so the reverse table's
    # row index must be freed by reference counting alone
    gc.collect()
    gc.disable()
    machine = parse_mcm((MACHINES / "double.mcm").read_text())
    acceptor = build_valc(machine)
    table = derive_reverse(acceptor).table
    outcome = run(acceptor, valc_encode(machine, 4).surface(), 10_000)
    assert outcome.accepted
    cfg, steps = outcome.final, 0
    while cfg is not None:
        start, cfg = cfg, step_back(acceptor, table, cfg)
        steps += 1
    assert start == acceptor.initial_configuration(start.word) and steps == outcome.steps + 1
    assert verify_roundtrip(acceptor, table, 3) is None
    assert "_index" in vars(acceptor) and "_rows" in vars(table)
    del machine, acceptor, table, outcome, start
    assert gc.collect() == 0


def test_constructing_checking_and_writing_build_no_step_index(tmp_path, capsys, monkeypatch):
    """Only a run builds a machine's integer step index, and only a step back
    or ``move_for`` builds a reverse table's slots, so ``check`` builds
    neither."""
    eq_ab = build_eq_ab()
    tables = [derive_reverse(eq_ab).table]
    prod = product_intersection(eq_ab, eq_ab)
    renamed = rename_states(prod)
    path = tmp_path / "prod.rca"
    path.write_text(serialize_automaton(renamed))
    parsed = parse_automaton(path.read_text())
    tables.append(derive_reverse(parsed).table)
    checked = []

    def derive_and_keep(machine):
        verdict = derive_reverse(machine)
        checked.append((machine, verdict.table))
        return verdict

    monkeypatch.setattr(reversibility, "derive_reverse", derive_and_keep)
    assert cli_main(["check", str(path)]) == 0
    capsys.readouterr()
    (checked_machine, checked_table), = checked
    machines = [eq_ab, prod, renamed, parsed, checked_machine]
    tables.append(checked_table)
    assert not any("_index" in vars(m) for m in machines)
    assert not any("_rows" in vars(t) for t in tables)
    # a run builds the index and a step back the slots, so the test can see them
    outcome = run(checked_machine, "ab", 100)
    assert step_back(checked_machine, checked_table, outcome.final) is not None
    assert "_index" in vars(checked_machine) and "_rows" in vars(checked_table)
