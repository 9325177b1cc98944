import random
from itertools import product
from operator import add

import pytest
from hypothesis import event, given, settings, strategies as st

from revca import reversibility
from revca.core import (
    LEFT_END,
    POSITIVE,
    RIGHT_END,
    ZERO,
    Configuration,
    NegativeCounterError,
    all_words,
    check_configuration,
    make_automaton,
    run,
    status_of,
    step,
    validate,
)
from revca.reversibility import (
    Conflict,
    ExtendedDeltaError,
    QuasiRealtimeReport,
    ReversibilityVerdict,
    ReverseStep,
    ReverseTable,
    StationaryWitness,
    _post_statuses,
    _stationary_scan,
    check_quasi_realtime,
    derive_reverse,
    derive_reverse_any,
    feasible_post_statuses,
    roundtrip_word,
    step_back,
    verify_roundtrip,
)
from revca.witnesses import build_balanced, build_eq_ab, build_regular_witness

from conftest import random_extended_machine, stock

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
    ok = check_quasi_realtime(m, 1, 8)
    assert ok.ok and bool(ok) is ok.ok
    report = check_quasi_realtime(m, 0, 2)
    assert not report.ok and bool(report) is report.ok
    # the offending fragment ends on the stationary accept step
    frag = report.witness.fragment
    assert frag[-1].head == frag[-2].head
    assert frag[-1].state == "qf"


def test_quasi_realtime_refuses_a_negative_ell():
    with pytest.raises(ValueError, match="^ell must be non-negative$"):
        check_quasi_realtime(build_eq_ab(), -1, 2)


def test_quasi_realtime_static_cycle_advisory():
    m = make_automaton(
        [("q", "a", "Z", "q", 0, (0,))], initial="q", accepting=[], k=1
    )
    report = check_quasi_realtime(m, 3, 2)
    assert report.ok  # nothing is accepted, so the bound holds vacuously
    assert any("stationary cycle" in a for a in report.advisories)


def test_toy_stationary_machine_roundtrip():
    m = stock("toy_stationary.rca")
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


def test_negative_fuel_is_rejected():
    m = build_eq_ab()
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        verify_roundtrip(m, derive_reverse(m).table, 2, fuel=-1)


def test_step_back_ignores_a_move_past_the_right_endmarker():
    m = make_automaton([("q", "a", "Z", "q", 1, (0,))], initial="q", accepting=[], k=1)
    forged = ReverseTable({("q", "a", ("Z",)): ReverseStep("q", 2, (0,))})
    assert step_back(m, forged, Configuration("q", ("a",), 1, (0,))) is None


def _verify_roundtrip_reference(machine, table, max_len, fuel=10_000):
    """One run per word, shortest first, lexicographic within a length."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    for word in all_words(machine.alphabet, max_len):
        bad = roundtrip_word(machine, table, word, fuel)
        if bad is not None:
            return bad
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the search must raise what the reference raises
        return type(exc), str(exc)


def _roundtrip_case(rng):
    """A small machine, a derived or forged reverse table, a length and a fuel.

    Valid machines have moves in {0, 1} and no decrement on zero; a risky
    (unvalidated) one may also move left or past the right endmarker, leave
    its states, or decrement a zero counter.  Forged tables drop and add
    entries, with moves in {-1, 0, 1, 2} and deltas that can underflow."""
    k = rng.choice([0, 1, 2, 3])
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    tokens = ["<", ">"] + rng.choice([["a"], ["a", "b"], ["a", "b", "c"]])
    risky = rng.random() < 0.2
    # half of the machines move on every letter, to a permutation of the
    # states per letter, and halt on the right endmarker in a state of their
    # own: runs get long, and forged entries fail deep in the search
    density, permuted = rng.random(), rng.random() < 0.5
    perms = {token: dict(zip(states, rng.sample(states, len(states)))) for token in tokens}
    rows = {}
    for state, token, statuses in product(states, tokens, product("ZP", repeat=k)):
        if rng.random() > density:
            continue
        if not permuted:
            target, move = rng.choice(states), 0 if token == ">" else rng.choice([0, 1, 1])
        elif token == ">":
            target, move = "h" + state, 0
        else:
            target, move = perms[token][state], 1
        deltas = tuple(rng.choice([-1, 0, 1] if s == "P" else [0, 1]) for s in statuses)
        if risky and rng.random() < 0.3:
            target, move, deltas = rng.choice([
                ("out", move, deltas), (target, rng.choice([-1, 2]), deltas),
                (target, 1 if token == ">" else -1, deltas), (target, move, (-1,) * k),
            ])
        rows[state, token, statuses] = (state, token, statuses, target, move, deltas)
    states += ["h" + state for state in states] * permuted + ["out"] * risky
    machine = make_automaton(rows.values(), "q0", states[-1:], k, tokens[2:], states)
    assert risky or validate(machine) == []
    # mirror every transition: derive_reverse's own table when that succeeds
    entries = {}
    for t in machine.transitions:
        back = ReverseStep(t.state, -t.move, tuple(-d for d in t.deltas))
        for post in product(*(feasible_post_statuses(s, d) for s, d in zip(t.statuses, t.deltas))):
            entries.setdefault((t.target, t.token, post), back)
    if rng.random() < 0.5:
        for key in list(entries):
            if rng.random() < 0.15:
                del entries[key]
        for _ in range(rng.randint(0, 4)):
            key = (rng.choice(states), rng.choice(tokens), tuple(rng.choice("ZP") for _ in range(k)))
            deltas = tuple(rng.randint(-2, 1) for _ in range(k))
            entries[key] = ReverseStep(rng.choice(states), rng.randint(-1, 2), deltas)
    fuel = rng.choice([-1, 0, 1, 3, 7, 10_000] if rng.random() < 0.05 else [0, 1, 3, 7, 10_000])
    return machine, ReverseTable(entries), rng.randint(0, 4 if fuel == 10_000 else 5), fuel


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_verify_roundtrip_matches_per_word_reference(rng):
    case = _roundtrip_case(rng)
    assert _outcome(verify_roundtrip, *case) == _outcome(_verify_roundtrip_reference, *case)


def _permuted_case(k):
    """A clean machine of k counters that moves on every token but the right
    endmarker, to a permutation of its five states per token: a rotates
    them, b swaps q0 and q1, and the left endmarker keeps them.  The right
    endmarker halts in a state of its own.  Each (state, token) adds 0 or 1
    to each counter, or 1 to a counter only when it is positive, so that no
    two steps into one (state, token, post statuses) key differ and
    ``derive_reverse`` inverts the machine."""
    rng = random.Random(k)
    states = [f"q{i}" for i in range(5)]
    perms = {
        "<": dict(zip(states, states)),
        "a": dict(zip(states, states[1:] + states[:1])),
        "b": dict(zip(states, states[1::-1] + states[2:])),
    }
    rows = [
        (state, RIGHT_END, statuses, "h" + state, 0, (0,) * k) for state in states for statuses in product("ZP", repeat=k)
    ]
    for state, token in product(states, perms):
        rule = [rng.choice([0, 1, "grow"]) for _ in range(k)]
        for statuses in product("ZP", repeat=k):
            deltas = tuple(int(s == POSITIVE) if r == "grow" else r for r, s in zip(rule, statuses))
            rows.append((state, token, statuses, perms[token][state], 1, deltas))
    machine = make_automaton(rows, "q0", ["hq0", "hq3"], k, ["a", "b"], states + ["h" + st for st in states])
    assert validate(machine) == []
    return machine


@pytest.mark.parametrize("k", range(6))
def test_verify_roundtrip_matches_reference_for_every_generated_k(k):
    """The kernel's ``cell`` of every k the tests generate, on the derived
    table and on tables forged at one entry that some word up to length 6
    reads: the entry dropped, or its target changed.  Each forged table
    fails first on the first word whose run reads that entry, and the
    deepest entry is first read on a word of length at least 4."""
    machine, max_len = _permuted_case(k), 6
    table = derive_reverse(machine).table
    assert verify_roundtrip(machine, table, max_len) is None is _verify_roundtrip_reference(machine, table, max_len)
    first = {}  # every reverse key that a step reads, with the first word whose run reads it
    for word in all_words(machine.alphabet, max_len):
        trace = run(machine, word, 10_000, trace=True).trace
        for before, after in zip(trace, trace[1:]):
            token = (LEFT_END, *word, RIGHT_END)[before.head]
            first.setdefault((after.state, token, status_of(after.counters)), word)
    rng = random.Random(k)
    reached = sorted(first, key=repr)
    deepest = max(reached, key=lambda key: len(first[key]))
    assert len(first[deepest]) >= 4
    entries = table.entries
    for key in rng.sample(reached, min(6, len(reached))) + [deepest]:
        out = entries[key]
        other = rng.choice(sorted(machine.states - {out.target}))
        dropped = {entry: step for entry, step in entries.items() if entry != key}
        for forged in (ReverseTable(dropped), ReverseTable({**entries, key: out._replace(target=other)})):
            bad = verify_roundtrip(machine, forged, max_len)
            assert bad.word == first[key]
            assert bad == _verify_roundtrip_reference(machine, forged, max_len)


def test_verify_roundtrip_reports_the_first_word_in_order():
    # the forged entry breaks exactly two words of length 3, b c c and c b c,
    # and none shorter: the first of them in lexicographic order is reported
    m = build_balanced(3)
    entries = dict(derive_reverse(m).table.entries)
    entries[("qb", "qb"), "c", ("Z", "P")] = ReverseStep(("qb", "qb"), -1, (0, 0))
    forged = ReverseTable(entries)
    bad = verify_roundtrip(m, forged, 3)
    assert bad.word == ("b", "c", "c")
    assert bad == _verify_roundtrip_reference(m, forged, 3)


def test_verify_roundtrip_keeps_the_step_count_in_the_key():
    # a and b both lead to q3, a in one more step; with a fuel of 3 only b c
    # gets as far as the c step, whose backward entry is forged
    m = make_automaton(
        [
            ("q0", "<", "", "q1", 1, ""),
            ("q1", "a", "", "q2", 0, ""),
            ("q2", "a", "", "q3", 1, ""),
            ("q1", "b", "", "q3", 1, ""),
            ("q3", "c", "", "q3", 1, ""),
        ],
        initial="q0",
        accepting=["q3"],
        k=0,
    )
    entries = dict(derive_reverse(m).table.entries)
    entries["q3", "c", ()] = ReverseStep("q1", -1, ())
    forged = ReverseTable(entries)
    bad = verify_roundtrip(m, forged, 2, fuel=3)
    assert bad.word == ("b", "c")
    assert bad == _verify_roundtrip_reference(m, forged, 2, fuel=3)


def test_verify_roundtrip_reaches_lengths_no_word_loop_can():
    # 2**41 - 1 words; the search visits a few hundred configurations per length
    m = build_eq_ab()
    assert verify_roundtrip(m, derive_reverse(m).table, 40) is None


def test_verify_roundtrip_keys_each_step_on_its_post_statuses():
    # the decrement (qa, b, P) is first stepped back at post status Z, on
    # a a b; it first reaches post status P, whose entry is forged, on a a a b
    m = build_eq_ab()
    entries = dict(derive_reverse(m).table.entries)
    entries["qa", "b", ("P",)] = ReverseStep("qa", -1, (0,))
    forged = ReverseTable(entries)
    bad = verify_roundtrip(m, forged, 6)
    assert bad.word == ("a", "a", "a", "b")
    assert bad == _verify_roundtrip_reference(m, forged, 6)


def _step_of(machine, before, after):
    """The (transition, post statuses) pair of one forward step."""
    token = (LEFT_END, *before.word, RIGHT_END)[before.head]
    return machine.table[before.state, token, status_of(before.counters)], status_of(after.counters)


@pytest.mark.parametrize(
    "m, max_len",
    [(build_eq_ab(), 10), (build_balanced(3), 7), (build_balanced(4), 5)],
    ids=["eq-ab", "balanced-3", "balanced-4"],
)
def test_verify_roundtrip_steps_back_each_distinct_step_once(monkeypatch, m, max_len):
    table = derive_reverse(m).table
    calls = []

    def counting(machine, table, after):
        before = step_back(machine, table, after)
        calls.append(_step_of(machine, before, after))
        return before

    monkeypatch.setattr(reversibility, "step_back", counting)
    assert verify_roundtrip(m, table, max_len) is None
    steps, reached = 0, set()
    for word in all_words(m.alphabet, max_len):
        trace = run(m, word, 10_000, trace=True).trace
        steps += len(trace) - 1
        reached.update(_step_of(m, before, after) for before, after in zip(trace, trace[1:]))
    assert len(calls) == len(set(calls)) == len(reached) < steps
    assert set(calls) == reached


def _step_back_reference(machine, table, cfg):
    """One backward step as the move map plus two table probes did it: the
    last entry of a (state, statuses) group sets the group's move."""
    moves = {(st, d): out.move for (st, _tok, d), out in table.entries.items()}
    word, head, counters = cfg.word, cfg.head, cfg.counters
    right = len(word) + 1
    if len(counters) != machine.k or not 0 <= head <= right or min(counters, default=0) < 0:
        check_configuration(machine, cfg)
    statuses = tuple([POSITIVE if c else ZERO for c in counters])
    move = moves.get((cfg.state, statuses))
    out = None
    if move is not None and 0 <= head + move <= right:
        head += move
        token = LEFT_END if head == 0 else RIGHT_END if head == right else word[head - 1]
        out = table.entries.get((cfg.state, token, statuses))
    if out is None:
        check_configuration(machine, cfg)
        return None
    counters = tuple(map(add, counters, out.deltas))
    if min(counters, default=0) < 0:
        raise NegativeCounterError(f"backward deltas {out.deltas} underflow {cfg.counters}")
    return Configuration(out.target, word, head, counters)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_step_back_matches_reference(rng):
    machine, table, _, _ = _roundtrip_case(rng)
    k = machine.k
    states = sorted(machine.states) + ["nowhere"]
    tokens = sorted(machine.alphabet) + ["<", ">"]
    # groups with mixed moves, moves past either endmarker, negative deltas,
    # and a few keys whose status vectors have the wrong length
    entries = table.entries
    for _ in range(rng.randint(0, 6)):
        size = k + (rng.choice([-1, 1]) if k and rng.random() < 0.2 else 0)
        key = (rng.choice(states), rng.choice(tokens), tuple(rng.choice("ZP") for _ in range(size)))
        deltas = tuple(rng.randint(-3, 1) for _ in range(size))
        entries[key] = ReverseStep(rng.choice(states), rng.choice([-3, -1, 0, 1, 3]), deltas)
    table = ReverseTable(entries)
    configurations = []
    for word in all_words(machine.alphabet, 2):
        outcome = _outcome(run, machine, word, 20, True)
        configurations += getattr(outcome, "trace", None) or []
    for _ in range(40):
        word = tuple(rng.choice(sorted(machine.alphabet)) for _ in range(rng.randint(0, 3)))
        size = k if rng.random() < 0.8 else rng.choice([k + 1, max(k - 1, 0)])
        counters = tuple(rng.randint(-1 if rng.random() < 0.2 else 0, 2) for _ in range(size))
        head = rng.randint(-2, len(word) + 3) if rng.random() < 0.2 else rng.randint(0, len(word) + 1)
        configurations.append(Configuration(rng.choice(states), word, head, counters))
    for cfg in configurations:
        assert _outcome(step_back, machine, table, cfg) == _outcome(_step_back_reference, machine, table, cfg)


@pytest.mark.parametrize("size", [1, 3, 4])
def test_step_back_cuts_forged_deltas_to_the_shorter_vector(size):
    """Entries keyed on k = 2 statuses whose deltas have another length add
    as the reference does, cut to the shorter vector."""
    m = build_balanced(3)
    entries = derive_reverse(m).table.entries
    table = ReverseTable({key: out._replace(deltas=(out.deltas + (0, 0))[:size]) for key, out in entries.items()})
    recovered = 0
    for cfg in run(m, "aabbcc", 100, trace=True).trace[1:]:
        got = _outcome(step_back, m, table, cfg)
        assert got == _outcome(_step_back_reference, m, table, cfg)
        if isinstance(got, Configuration):
            assert len(got.counters) == min(size, m.k)
            recovered += 1
    assert recovered


def _nested_state(name):
    """A new tuple object nested three deep, shaped like a product state."""
    return ((("start", name), (0,)), ((name,), (len(name),)))


def _twin(state):
    """``state`` with every tuple in it built anew: for a nested-tuple state,
    an equal object that is not ``state`` and shares none of its tuples."""
    return tuple(map(_twin, state)) if isinstance(state, tuple) else state


def _clean_case(k, shape=str):
    """A clean machine of k counters with a row at every key, its
    transitions mirrored into a reverse table as ``_roundtrip_case`` mirrors
    them, and the traces of its runs on every word up to length 3.  A letter
    moves the head right, or keeps it one time in five, and the right
    endmarker halts in a state of its own.  Each state is ``shape`` of its
    name, made anew at each use, so that ``_nested_state`` gives states of
    a constructed machine's shape whose equal copies are distinct objects."""
    rng = random.Random(k)
    states = ["q0", "q1", "q2"]
    rows = []
    for state, token, statuses in product(states, ["<", "a", "b", ">"], product("ZP", repeat=k)):
        if token == ">":
            target, move = "h", 0
        else:
            target, move = rng.choice(states), 0 if token != "<" and rng.random() < 0.2 else 1
        deltas = tuple(rng.choice([-1, 0, 1] if s == "P" else [0, 1]) for s in statuses)
        rows.append((shape(state), token, statuses, shape(target), move, deltas))
    machine = make_automaton(rows, shape("q0"), [shape("h")], k, ["a", "b"], map(shape, states + ["h"]))
    assert validate(machine) == []
    entries = {}
    for t in machine.transitions:
        back = ReverseStep(t.state, -t.move, tuple(-d for d in t.deltas))
        for post in _post_statuses(t):
            entries.setdefault((t.target, t.token, post), back)
    traces = [run(machine, word, 30, trace=True).trace for word in all_words(machine.alphabet, 3)]
    return machine, entries, traces


@pytest.mark.parametrize("k", range(6))
def test_step_back_replays_clean_runs_for_every_generated_k(k):
    """Whole backward replays through the kernel's ``back`` of k counters,
    on the mirrored table and on tables forged entry by entry: deltas cut
    short or made longer, deltas that underflow, and moves that can leave
    the tape past either endmarker.  Every configuration of a trace is
    stepped back from as well, and so is each with another number of
    counters, with a negative counter, or with a state that equals its own
    but is another object.  States are strings and nested tuples."""
    hits = 0
    for shape in (str, _nested_state):
        hits += _replay_clean_case(k, shape)
    assert hits


def _replay_clean_case(k, shape):
    machine, entries, traces = _clean_case(k, shape)
    forgeries = [
        lambda out, i: out,
        lambda out, i: out._replace(deltas=out.deltas + (i % 2,)),
        lambda out, i: out._replace(move=(-3, -1, 0, 1, 3)[i % 5]),
    ]
    if k:
        forgeries += [
            lambda out, i: out._replace(deltas=out.deltas[: i % k]),
            lambda out, i: out._replace(deltas=tuple(d - 2 * (i % 3 == 0) for d in out.deltas)),
        ]
    hits = 0
    for forge in forgeries:
        table = ReverseTable({key: forge(out, i) for i, (key, out) in enumerate(entries.items())})
        for trace in traces:
            cfg = trace[-1]
            for _ in trace[1:]:
                got = _outcome(step_back, machine, table, cfg)
                assert got == _outcome(_step_back_reference, machine, table, cfg)
                if type(got) is not Configuration:
                    break
                cfg, hits = got, hits + 1
            for cfg in trace:
                c = cfg.counters
                for counters in (c, c + (0,), c[1:], (-1,) + c[1:], c[:-1] + (-1,)):
                    any_cfg = cfg._replace(counters=counters)
                    assert _outcome(step_back, machine, table, any_cfg) == _outcome(
                        _step_back_reference, machine, table, any_cfg
                    )
                twin = cfg._replace(state=_twin(cfg.state))
                assert twin.state == cfg.state and (twin.state is not cfg.state or shape is str)
                assert _outcome(step_back, machine, table, twin) == _outcome(
                    _step_back_reference, machine, table, twin
                )
    return hits


@pytest.mark.parametrize("k", range(4))
def test_forged_statuses_of_another_length_or_character_are_never_read(k):
    """Beside every real key of a mirrored table, entries keyed on the same
    state and token with a status vector one longer, one shorter, or with a
    character other than Z or P: none is ever hit, and none moves or fills a
    real key's slot, so every step back, and every ``move_for``, is the one
    the real table gives."""
    machine, entries, traces = _clean_case(k, _nested_state)
    real = ReverseTable(entries)
    kinds = [
        lambda statuses: [statuses + ("Z",), statuses + ("P",)],
        lambda statuses: [statuses[:-1], statuses[1:]],
        lambda statuses: [
            statuses[:j] + (other,) + statuses[j + 1 :] for j in range(k) for other in ("X", POSITIVE.lower())
        ],
    ]
    steps = 0
    for wrongs in kinds:  # each kind alone, so that no longer decoy widens the slot lists
        decoys = {}
        for i, (state, token, statuses) in enumerate(entries):
            decoy = ReverseStep(_nested_state("forged"), (1, 0, -1)[i % 3], (0,) * k)
            decoys.update(
                ((state, token, wrong), decoy) for wrong in wrongs(statuses) if (state, token, wrong) not in entries
            )
        # decoys before the real keys and after them: a group's last entry sets its move
        for table in (ReverseTable({**decoys, **entries}), ReverseTable({**entries, **decoys})):
            for trace in traces:
                for cfg in trace:
                    want = _outcome(step_back, machine, real, cfg)
                    assert _outcome(step_back, machine, table, cfg) == want
                    steps += isinstance(want, Configuration)
            for state, _, statuses in entries:
                assert table.move_for(state, statuses) == real.move_for(state, statuses) is not None
    assert steps


def test_forward_and_backward_steps_build_configurations():
    m = build_balanced(4)
    table = derive_reverse(m).table
    outcome = run(m, "abcd", 100, trace=True)
    assert outcome.accepted
    stepped = [step(m, cfg) for cfg in outcome.trace[:-1]]
    recovered = [step_back(m, table, cfg) for cfg in outcome.trace[1:]]
    assert stepped == outcome.trace[1:] and recovered == outcome.trace[:-1]
    for cfg in outcome.trace + [outcome.final] + stepped + recovered:
        assert type(cfg) is Configuration
        assert (cfg.state, cfg.word, cfg.head, cfg.counters) == tuple(cfg)
        assert cfg._replace(head=0) == Configuration(cfg.state, cfg.word, 0, cfg.counters)


def _derive_reverse_reference(machine):
    """``derive_reverse_any`` with attribute reads and a ``ReverseStep(...)``
    call per transition, the plain form of its loop."""
    entries = {}
    moves = {}
    preimage_clashes = []
    move_clashes = []
    effects = {}
    for t in machine.transitions:
        effect = effects.get((t.statuses, t.deltas))
        if effect is None:
            effect = effects[t.statuses, t.deltas] = (tuple(-d for d in t.deltas), _post_statuses(t))
        move = -t.move
        reverse = ReverseStep(t.state, move, effect[0])
        for post in effect[1]:
            key = (t.target, t.token, post)
            first = entries.setdefault(key, reverse)
            if first is reverse:
                group = (t.target, post)
                if moves.setdefault(group, move) != move:
                    move_clashes.append((group, key))
            elif first != reverse:
                preimage_clashes.append((key, t))
    if not (preimage_clashes or move_clashes):
        return ReversibilityVerdict(ReverseTable(entries))
    origin = {}
    for t in machine.transitions:
        for post in _post_statuses(t):
            origin.setdefault((t.target, t.token, post), t)
    group_first = {}
    for key in entries:
        group_first.setdefault((key[0], key[2]), key)
    conflicts = [Conflict("preimage", key, origin[key], t) for key, t in preimage_clashes]
    conflicts += [
        Conflict("move", group, origin[group_first[group]], origin[key]) for group, key in move_clashes
    ]
    return ReversibilityVerdict(None, conflicts)


@st.composite
def clashing_machines(draw):
    """Machines on three states and few keys, so that two transitions often
    land on one backward key (a preimage conflict) or one (state, statuses)
    group with two moves (a move conflict); repeated and extended rows too."""
    k = draw(st.integers(min_value=0, max_value=2))
    statuses = st.tuples(*[st.sampled_from("ZP")] * k)
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from("pqr"),
                st.sampled_from(["<", "a", "b", ">"]),
                statuses,
                st.sampled_from("pqr"),
                st.integers(min_value=0, max_value=1),
                st.tuples(*[st.integers(min_value=-2, max_value=2)] * k),
            ),
            max_size=12,
        )
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return make_automaton(rows, initial="p", accepting="r", k=k, states="pqr", max_delta=2)


def _verdict_fields(verdict):
    entries = list(verdict.table.entries.items()) if verdict.reversible else None
    conflicts = [(c.kind, c.key, c.first, c.second) for c in verdict.conflicts]
    return verdict.reversible, entries, conflicts


@settings(max_examples=300)
@given(clashing_machines())
def test_derive_reverse_matches_reference(machine):
    verdict = derive_reverse_any(machine)
    assert _verdict_fields(verdict) == _verdict_fields(_derive_reverse_reference(machine))
    kinds = {c.kind for c in verdict.conflicts}
    event("reversible" if verdict.reversible else " and ".join(sorted(kinds)) + " conflicts")


def _stationary_cycles_reference(machine):
    """The stationary-cycle scan with the DFS path kept as its own list."""
    stationary = [t for t in machine.transitions if t.move == 0]
    edges = {}
    keys = {t.key for t in stationary}
    for t in stationary:
        for post in _post_statuses(t):
            nxt = (t.target, t.token, post)
            if nxt in keys:
                edges.setdefault(t.key, []).append(nxt)
    advisories = []
    color = {}
    for start in sorted(edges, key=repr):
        if color.get(start):
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    cycle = path[path.index(nxt) :] + [nxt]
                    advisories.append("stationary cycle: " + " -> ".join(repr(k) for k in cycle))
                elif not color.get(nxt):
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return advisories


def _quasi_realtime_reference(machine, ell, max_len, fuel=10_000):
    """The stationary-streak check with the streak and its start counted by
    hand along each accepted run."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    advisories = _stationary_cycles_reference(machine)
    for word in all_words(machine.alphabet, max_len):
        outcome = run(machine, word, fuel, trace=True)
        if not outcome.accepted:
            continue
        trace = outcome.trace or []
        streak_start = 0
        streak = 0
        for i in range(1, len(trace)):
            if trace[i].head == trace[i - 1].head:
                if streak == 0:
                    streak_start = i - 1
                streak += 1
                if streak > ell:
                    fragment = trace[streak_start : i + 1]
                    return QuasiRealtimeReport(False, StationaryWitness(tuple(word), fragment), advisories)
            else:
                streak = 0
    return QuasiRealtimeReport(True, None, advisories)


def test_check_quasi_realtime_matches_streak_reference():
    # extended machines, valid or not, and the round-trip cases, whose risky
    # machines move left, leave their states or underflow; a fuel of at most
    # 100 keeps the runs that never halt short
    rng = random.Random(1515)
    verdicts = set()
    for n in range(600):
        if n % 2:
            machine, _, max_len, fuel = _roundtrip_case(rng)
            fuel = min(fuel, 100)
        else:
            machine, max_len, fuel = random_extended_machine(rng), rng.randint(0, 5), rng.choice([3, 10, 100])
        ell = rng.randint(0, 3)
        expected = _outcome(_quasi_realtime_reference, machine, ell, max_len, fuel)
        assert _outcome(check_quasi_realtime, machine, ell, max_len, fuel) == expected, (machine, ell)
        verdicts.add(expected.ok if isinstance(expected, QuasiRealtimeReport) else "raises")
    assert verdicts == {True, False, "raises"}


def test_stationary_cycle_advisories_are_pinned():
    # (p, a, P) starts two cycles, one through each status that its decrement
    # can leave; (r, a, Z) runs into them, and t, u and w, which nothing
    # reaches from p, hold a third cycle behind a tail
    m = make_automaton(
        [
            ("p", "a", "P", "q", 0, (-1,)),
            ("q", "a", "Z", "p", 0, (1,)),
            ("q", "a", "P", "p", 0, (0,)),
            ("r", "a", "Z", "p", 0, (1,)),
            ("t", "b", "Z", "u", 0, (0,)),
            ("u", "b", "Z", "w", 0, (0,)),
            ("w", "b", "Z", "u", 0, (0,)),
        ],
        initial="p", accepting=[], k=1, alphabet={"a", "b"},
    )
    advisories = check_quasi_realtime(m, 1, 2).advisories
    assert advisories == _stationary_cycles_reference(m)
    assert _stationary_scan(m) == (advisories, None)  # a cycle leaves streaks unbounded
    assert advisories == [
        "stationary cycle: ('p', 'a', ('P',)) -> ('q', 'a', ('Z',)) -> ('p', 'a', ('P',))",
        "stationary cycle: ('p', 'a', ('P',)) -> ('q', 'a', ('P',)) -> ('p', 'a', ('P',))",
        "stationary cycle: ('u', 'b', ('Z',)) -> ('w', 'b', ('Z',)) -> ('u', 'b', ('Z',))",
    ]


# Verdicts that a spent fuel cuts short (ROADMAP item 15), each stated as the
# property it breaks on the shipped stationary demo.  A fix turns its test
# into an unexpected pass, which fails until the mark is removed.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a roundtrip sweep cut by its fuel reads as a pass")
def test_verify_roundtrip_does_not_pass_a_sweep_its_fuel_cut():
    m = stock("toy_stationary.rca")
    entries = dict(derive_reverse(m).table.entries)
    del entries["qacc", ">", (ZERO,)]
    bad = ReverseTable(entries)
    assert verify_roundtrip(m, bad, 4) is not None
    # the empty word's run fails at its second step, which a fuel of one cuts
    assert verify_roundtrip(m, bad, 4, fuel=1) is not None


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="check_quasi_realtime passes runs its fuel cut")
def test_check_quasi_realtime_does_not_pass_runs_its_fuel_cut():
    m = stock("toy_stationary.rca")
    assert not check_quasi_realtime(m, 0, 3, fuel=2).ok
    # every run's second step is stationary, and a fuel of one cuts it
    assert not check_quasi_realtime(m, 0, 3, fuel=1).ok
