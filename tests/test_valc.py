import random
from fractions import Fraction

import pytest

from revca import valc
from revca.core import MachineError, run, validate
from revca.formats import serialize_automaton
from revca.reversibility import derive_reverse, roundtrip_word
from revca.mcm import McmStatus, make_mcm, mcm_run
from revca.valc import (
    LETTER,
    PREFIX,
    NotAcceptingError,
    build_valc_part_slow,
    lead_token,
    trail_token,
    valc_decide,
    valc_encode,
)

from conftest import stock

GOLDEN = (
    "[q0'] a' [q0'] "
    "[q0'] a a [q0'] "
    "[q0'] a a a a [q0'] "
    "[q0'] a a a a a a a a [q0'] "
    "[q0|l=2] " + "a " * 16 + "[q0|l=2|p=0] "
    "[q1|l=2] " + "a " * 32 + "[q1|l=2|p=0] "
    "[q2|l=1/2] " + "a " * 16 + "[q2|l=1/2|p=1] "
    "[q3|l=1] " + "a " * 16 + "[q3|l=1|p=0] "
    "[q4|l=1/2] " + "a " * 8 + "[q4|l=1/2|p=3] "
    "[qf|l=1] " + "a " * 8 + "[qf|l=1]"
).split()


def mutate(tokens, rng, alphabet):
    kind = rng.choice(["sub", "del", "ins"])
    w = list(tokens)
    if kind == "sub":
        pos = rng.randrange(len(w))
        tok = rng.choice(alphabet)
        if w[pos] == tok:
            return None
        w[pos] = tok
    elif kind == "del":
        del w[rng.randrange(len(w))]
    else:
        w.insert(rng.randrange(len(w) + 1), rng.choice(alphabet))
    return w


def test_token_spellings():
    assert lead_token("q2", Fraction(1, 2)) == "[q2|l=1/2]"
    assert lead_token("q0", Fraction(2)) == "[q0|l=2]"
    assert trail_token("q4", Fraction(1, 2), 3) == "[q4|l=1/2|p=3]"
    # the acceptor builder spells a multiplier as text, the encoder as a
    # Fraction: both give the same token
    assert lead_token("q2", "1/2") == lead_token("q2", Fraction(1, 2))
    assert trail_token("q4", "1/2", 3) == trail_token("q4", Fraction(1, 2), 3)


def test_golden_string_token_for_token():
    word = valc_encode(stock("hartmanis.mcm"), 4)
    assert list(word.surface()) == GOLDEN
    # the annotations called out in the worked example
    tokens = word.surface()
    trails = [t for t in tokens if "|p=" in t]
    assert trails[2] == "[q2|l=1/2|p=1]"   # 16 mod 3
    assert trails[4] == "[q4|l=1/2|p=3]"   # 8 mod 5
    leads = [t for t in tokens if "|l=" in t and "|p=" not in t]
    assert leads[2] == "[q2|l=1/2]"
    assert leads[3] == "[q3|l=1]"


def test_encode_single_rule_machine_i0():
    word = valc_encode(stock("double.mcm"), 0)
    assert list(word.surface()) == [
        "[q0|l=2]", "a'", "[q0|l=2|p=0]", "[qf|l=2]", "a", "a", "[qf|l=2]",
    ]


def test_encode_parity_padding_i1():
    word = valc_encode(stock("double.mcm"), 1).surface()
    assert list(word[:3]) == ["[q0']", "a'", "[q0']"]
    assert "[qf'|l=2]" in word  # padded duplicate keeps the step multiplier
    assert word[-1] == "[qf|l=1]"  # and the repeated final block carries 1
    assert valc_decide(stock("double.mcm"), word)


def test_encode_refuses_rejecting_runs():
    with pytest.raises(NotAcceptingError):
        valc_encode(stock("hartmanis.mcm"), 0)


def test_slow_part_refuses_a_third_part():
    with pytest.raises(ValueError, match="^part must be 1 or 2$"):
        build_valc_part_slow(stock("hartmanis.mcm"), 3)


def test_reference_decider_rejects_shape_breaks():
    m = stock("hartmanis.mcm")
    assert valc_decide(m, GOLDEN)
    assert not valc_decide(m, [])
    assert not valc_decide(m, GOLDEN[:-1])
    assert not valc_decide(m, GOLDEN + ["a"])
    two_marks = list(GOLDEN)
    two_marks[4] = "a'"
    assert not valc_decide(m, two_marks)
    shrunk = list(GOLDEN)
    del shrunk[GOLDEN.index("[q1|l=2]") + 1]  # one letter out of the 32-run
    assert not valc_decide(m, shrunk)


def _block(state, ell, run, phi=None):
    """One configuration block; a block with no residue repeats its lead."""
    close = f"[{state}|l={ell}]" if phi is None else f"[{state}|l={ell}|p={phi}]"
    return f"[{state}|l={ell}] " + "a " * run + close


FPRIME = "qf'"  # the parity padding's copy of the final state
# the double golden history from 2**1: q0 at 2, then the parity padding
DOUBLE_1 = str(valc_encode(stock("double.mcm"), 1))
# GOLDEN up to its q3 block, and its q4 block
GOLDEN_TO_Q3 = " ".join(GOLDEN[: GOLDEN.index("[q4|l=1/2]")])
GOLDEN_Q4 = _block("q4", "1/2", 8, 3)

# (machine, history) near-misses of a golden history, each breaking one rule
# of the history format alone where the format allows it; the product and
# valc_decide must both reject every one
NEAR_MISSES = {
    "no-configuration-block": ("double", "[q0'] a' [q0'] [q0'] a a [q0']"),
    "configuration-block-opened-by-a-prefix-token": ("double", "[q0|l=2] a' [q0|l=2|p=0] [q0'] a a [q0']"),
    "odd-block-count": ("double", f"[q0'] a' [q0'] {_block('q0', 2, 2, 0)} {_block('qf', 2, 4)}"),
    "bad-last-block": ("double", "[q0|l=2] a' [q0|l=2|p=0] [qf|l=2] a a [qf|l=1]"),
    "fprime-with-a-residue": ("double", DOUBLE_1.replace("[qf'|l=2|p=0]", "[qf'|l=2|p=1]")),
    "fprime-not-second-to-last": (
        "double",
        f"[q0|l=2] a' [q0|l=2|p=0] {_block(FPRIME, 2, 2, 0)} {_block('qf', 1, 2, 0)} {_block('qf', 1, 2)}",
    ),
    # the run from 2**0 goes q0 q1 q2 q3 and then to qs, which has no rule
    "state-with-no-rule": (
        "hartmanis",
        "[q0|l=2] a' [q0|l=2|p=0] "
        + " ".join([_block("q1", 2, 2, 0), _block("q2", "1/2", 1, 1), _block("q3", 1, 1, 1)])
        + f" {_block('qs', 1, 1, 0)} {_block('qf', 1, 1)}",
    ),
    "residue-on-a-multiplying-rule": ("double", "[q0|l=2] a' [q0|l=2|p=1] [qf|l=2] a a [qf|l=2]"),
    # q4 divides 8 by 5 into qf; here q3 follows at 8 and runs on to qf
    "wrong-successor-of-a-final-target": (
        "hartmanis",
        f"{GOLDEN_TO_Q3} {GOLDEN_Q4} "
        + " ".join([_block("q3", 1, 8, 0), _block("q4", "1/2", 4, 4), _block("qf", 1, 4)]),
    ),
    # q3 halves 16 into q4; here q2 follows at 8 and runs on to qf
    "wrong-successor-of-another-target": (
        "hartmanis",
        f"{GOLDEN_TO_Q3} "
        + " ".join([_block("q2", "1/2", 8, 2), _block("q3", 1, 8, 0), _block("q4", "1/2", 4, 4), _block("qf", 1, 4)]),
    ),
}


@pytest.mark.parametrize("rule", NEAR_MISSES)
def test_reference_decider_and_product_reject_each_near_miss(valc_machines, rule):
    name, history = NEAR_MISSES[rule]
    machine, _v1, _v2, prod = valc_machines[name]
    word = history.split()
    assert not valc_decide(machine, word)
    # a token outside the product's alphabet occurs in no history, so the
    # word is outside the product's language
    assert not (prod.alphabet.issuperset(word) and run(prod, word, 5000).accepted)


@pytest.mark.parametrize("pos", [0, 9, 11])
@pytest.mark.parametrize("bad", ["[q0|l=1/0]", "[q0|l=x]", "[q0|l=2|p=x]", "[q0|l=2|p=]"])
def test_reference_decider_rejects_bad_numbers(bad, pos):
    word = list(GOLDEN)
    word[pos] = bad
    assert not valc_decide(stock("hartmanis.mcm"), word)


def _unreachable(*args):
    raise AssertionError("valc_decide went past its guard")


def test_decider_refuses_a_prefix_longer_than_the_word_without_running(monkeypatch):
    # 20 doubling blocks put 2**20 letters in the first configuration block
    monkeypatch.setattr(valc, "_annotate", _unreachable)
    assert not valc_decide(stock("hartmanis.mcm"), [PREFIX] * 40)


def test_decider_refuses_a_long_encoding_before_writing_it(monkeypatch):
    # from 2**5, each pass through q1 halves the register and multiplies it
    # by 7**4: the run accepts after 27 steps with 7**21 (about 2**59) in its
    # register, well within the fuel that a 60-token word gives
    m = make_mcm(
        [
            ("q0", 7, "q1", "qs"),
            ("q1", Fraction(1, 2), "q2", "qf"),
            ("q2", 7, "q3", "qs"),
            ("q3", 7, "q4", "qs"),
            ("q4", 7, "q5", "qs"),
            ("q5", 7, "q1", "qs"),
        ],
    )
    outcome = mcm_run(m, 5, 60)
    assert outcome.status is McmStatus.HALTED_FINAL and outcome.final.n == 7**21
    monkeypatch.setattr(valc, "_history", _unreachable)
    assert not valc_decide(m, [PREFIX] * 10 + [LETTER] * 50)


def test_decider_raises_the_encoders_state_name_collision():
    m = make_mcm([("q0", 2, "qf", "qf")], states={"q0", "qf", "qf'"})
    word = valc_encode(stock("double.mcm"), 0).surface()
    with pytest.raises(MachineError, match="collides with the parity padding"):
        valc_encode(m, 0)
    with pytest.raises(MachineError, match="collides with the parity padding"):
        valc_decide(m, word)


# SHA-256 of the encoder's histories, one per line: hartmanis from 2**1 to
# 2**9 (its run from 2**0 rejects), then double from 2**0 to 2**9
HISTORIES_SHA256 = "9ee31586311f9de8bf69ceacb7a15759791642d4e7760a584d6b7e0a3738fbbd"


def test_encoded_histories_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    for machine, exponents in ((stock("hartmanis.mcm"), range(1, 10)), (stock("double.mcm"), range(10))):
        for i in exponents:
            digest.update((str(valc_encode(machine, i)) + "\n").encode())
    assert digest.hexdigest() == HISTORIES_SHA256


def test_part_machines_validate_and_reverse():
    for name in ("hartmanis.mcm", "double.mcm"):
        for part in (1, 2):
            slow = build_valc_part_slow(stock(name), part)
            assert validate(slow) == []
            assert derive_reverse(slow).reversible


def test_parts_accept_golden_and_split_detection(valc_machines):
    machine, v1, v2, prod = valc_machines["hartmanis"]
    assert run(v1, GOLDEN, 5000).accepted
    assert run(v2, GOLDEN, 5000).accepted
    assert run(prod, GOLDEN, 5000).accepted
    # shrinking the 32-run breaks the length check in the responsible pair
    cut = GOLDEN.index("[q1|l=2]") + 1
    shrunk = GOLDEN[:cut] + GOLDEN[cut + 1 :]
    assert not valc_decide(machine, shrunk)
    assert not run(v1, shrunk, 5000).accepted
    assert not run(prod, shrunk, 5000).accepted
    # a residue-field corruption is caught by exactly the part that owns the
    # block as the first half of a pair
    phi_mut = list(GOLDEN)
    pos = phi_mut.index("[q4|l=1/2|p=3]")
    phi_mut[pos] = "[q4|l=1/2|p=1]"
    assert not valc_decide(machine, phi_mut)
    assert not run(v1, phi_mut, 5000).accepted
    assert run(v2, phi_mut, 5000).accepted
    assert not run(prod, phi_mut, 5000).accepted


def test_double_marks_rejected_by_both(valc_machines):
    _, v1, v2, _ = valc_machines["hartmanis"]
    two_marks = list(GOLDEN)
    two_marks[4] = "a'"
    assert not run(v1, two_marks, 5000).accepted
    assert not run(v2, two_marks, 5000).accepted


def test_empty_word_rejected(valc_machines):
    for _, v1, v2, prod in valc_machines.values():
        for m in (v1, v2, prod):
            assert not run(m, [], 100).accepted


def test_product_accepts_encoder_output_real_time(valc_machines):
    for machine, _v1, _v2, prod in valc_machines.values():
        for i in range(5):
            try:
                word = valc_encode(machine, i).surface()
            except NotAcceptingError:
                continue
            out = run(prod, word, 5000)
            assert out.accepted and out.steps <= len(word) + 2


def test_intersection_law_on_mutants(valc_machines):
    machine, v1, v2, prod = valc_machines["hartmanis"]
    golden = valc_encode(machine, 4).surface()
    alphabet = sorted(prod.alphabet)
    rng = random.Random(4821)
    checked = 0
    while checked < 60:
        w = mutate(golden, rng, alphabet)
        if w is None:
            continue
        checked += 1
        both = run(v1, w, 5000).accepted and run(v2, w, 5000).accepted
        assert run(prod, w, 5000).accepted == both


def test_sevenths_machine_pipeline():
    # multiplies by 7 then divides by 7 twice: exercises the widest stride and
    # the longest stationary bursts, including their abort paths
    from fractions import Fraction

    from revca.constructions import product_intersection
    from revca.mcm import make_mcm
    from revca.valc import build_valc1, build_valc2

    m = make_mcm(
        [
            ("q0", 2, "q1", "qs"),
            ("q1", 2, "q2", "qs"),
            ("q2", 7, "q3", "qs"),
            ("q3", Fraction(1, 7), "q4", "qs"),
            ("q4", Fraction(1, 7), "qs", "qf"),
        ],
    )
    v1, v2 = build_valc1(m), build_valc2(m)
    prod = product_intersection(v1, v2)
    assert derive_reverse(prod).reversible
    for i in range(3):
        word = valc_encode(m, i).surface()
        out = run(prod, word, 9000)
        assert out.accepted and out.steps <= len(word) + 2
    golden = valc_encode(m, 1).surface()
    rng = random.Random(55)
    alphabet = sorted(prod.alphabet)
    tested = 0
    while tested < 60:
        w = mutate(golden, rng, alphabet)
        if w is None:
            continue
        tested += 1
        assert run(prod, w, 9000).accepted == valc_decide(m, w)


def test_parts_roundtrip_on_golden_prefixes_and_mutants(valc_machines):
    rng = random.Random(77)
    for machine, v1, v2, prod in valc_machines.values():
        golden = valc_encode(machine, 4).surface()
        alphabet = sorted(prod.alphabet)
        words = [golden[:n] for n in range(0, len(golden), 13)] + [golden]
        added = 0
        while added < 10:
            w = mutate(golden, rng, alphabet)
            if w is not None:
                words.append(w)
                added += 1
        for target in (v1, v2, prod):
            table = derive_reverse(target).table
            assert table is not None
            for w in words:
                assert roundtrip_word(target, table, w, fuel=5000) is None


# SHA-256 of the serialized history-acceptor products; any change to the
# constructions that alters a single byte of the written machines shows here.
PRODUCT_SHA256 = {
    "hartmanis": "f54eae1c91c708dd5632c77e68d77623213aa2a7c9e7f53abac91acb92df949f",
    "double": "2228691238d8ed1c533a3ffe0a004738b62407c01acc563819bc10994899fe8c",
}


def test_product_serialization_is_pinned(valc_machines):
    import hashlib

    for name, (_machine, _v1, _v2, prod) in valc_machines.items():
        digest = hashlib.sha256(serialize_automaton(prod).encode()).hexdigest()
        assert digest == PRODUCT_SHA256[name], name


# The products of the sped-up halves, each re-split at its own c = bound + 1
# for the stationary bound of its slow half: what speedup built while it
# normalized its macro machine at that c.  The ordinary halves lose nothing
# if re-encoding them gives these bytes back.
RESPLIT_PRODUCT_SHA256 = {
    "hartmanis": "9ffd6fda0088f0cf4cd7766bf2608159ab59058e9a1ee98f8bb205014fea18bd",
    "double": "131a57bc2fcdf8098e3e2ef393dd8b98495124b868d09f48104dc052df78483f",
}


def test_resplit_parts_give_the_former_product(valc_machines):
    import hashlib
    from dataclasses import replace

    from revca.constructions import normalize_extended, product_intersection
    from revca.reversibility import _stationary_scan

    for name, (machine, v1, v2, _prod) in valc_machines.items():
        bounds = [_stationary_scan(build_valc_part_slow(machine, part))[1] for part in (1, 2)]
        resplit = [normalize_extended(replace(v, max_delta=b + 1)) for v, b in zip((v1, v2), bounds)]
        digest = hashlib.sha256(serialize_automaton(product_intersection(*resplit)).encode()).hexdigest()
        assert digest == RESPLIT_PRODUCT_SHA256[name], name


SLOW_PART_SHA256 = {
    ("hartmanis", 1): "e1dfa88fd99fae2b16c377f07c80f79ba30eccdaa24d07372db0315b4f3abce3",
    ("hartmanis", 2): "20404b2a3b2cf262a7fcb1823066a50405d9c9394893209aa8a5da026180bfc4",
    ("double", 1): "d3585c0a8aad6c181c1855f4d91188f4870eb079b4796a4e3f4f8becf7b0f1c8",
    ("double", 2): "072ad016b809c3fb12fce66b2ec0566599fc7035011ec34ab1dc393c29c58150",
}


@pytest.mark.parametrize("part", [1, 2])
def test_slow_part_serialization_is_pinned(part):
    import hashlib

    for stem in ("hartmanis", "double"):
        slow = build_valc_part_slow(stock(f"{stem}.mcm"), part)
        digest = hashlib.sha256(serialize_automaton(slow).encode()).hexdigest()
        assert digest == SLOW_PART_SHA256[stem, part], stem


def _parts(value):
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _parts(item)


def test_slow_part_stationary_bounds():
    # speedup normalizes each half at c = bound + 1, below the stock-wide budget
    from revca.reversibility import _stationary_scan
    from revca.valc import STATIONARY_BUDGET

    bounds = {
        (stem, part): _stationary_scan(build_valc_part_slow(stock(f"{stem}.mcm"), part))[1]
        for stem in ("hartmanis", "double")
        for part in (1, 2)
    }
    assert bounds == {("hartmanis", 1): 4, ("hartmanis", 2): 4, ("double", 1): 1, ("double", 2): 1}
    assert max(bounds.values()) < STATIONARY_BUDGET


@pytest.mark.parametrize("part", [1, 2])
def test_slow_part_states_hold_no_fraction(part):
    for machine in (stock("hartmanis.mcm"), stock("double.mcm")):
        slow = build_valc_part_slow(machine, part)
        assert not any(
            isinstance(x, Fraction) for state in slow.states for x in _parts(state)
        )
