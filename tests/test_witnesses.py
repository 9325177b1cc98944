import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from revca import witnesses
from revca.core import all_words, run, validate
from revca.reversibility import derive_reverse, verify_roundtrip
from revca.witnesses import (
    BARRED,
    LETTER_BITS,
    UnknownLetterError,
    WITNESS_PATTERN,
    brute_force_Lk,
    build_balanced,
    build_eq_ab,
    decide_Lk,
    decide_regular_witness,
    eta,
    gen_Lk_member,
    phi,
    scattered_factor,
)


def test_phi():
    assert phi("ab") == "01"
    assert phi("AB") == "01"
    assert phi("") == ""
    assert phi("abAB") == "0101"
    for word, letter in (("ax", "x"), ("a0", "0"), ("1", "1"), ("a$b", "$"), ("ab$a1", "$")):
        with pytest.raises(UnknownLetterError, match=re.escape(f"letter {letter!r} ")):
            phi(word)


def test_eta():
    assert eta("11") == 3
    assert eta("0010") == 2
    assert eta("0") == 0
    assert eta("") == 0


def test_scattered_factor():
    assert scattered_factor("0101", 2, 2) == "11"
    assert scattered_factor("0101", 2, 1) == "00"
    assert scattered_factor("011010", 3, 2) == "11"  # positions 2 and 5
    for bits in ("", "0", "01", "0110"):
        assert scattered_factor(bits, 1, 1) == bits
    with pytest.raises(ValueError):
        scattered_factor("010", 2, 1)


def test_scattered_factor_refuses_a_start_outside_the_block():
    with pytest.raises(ValueError, match=r"^i=0 outside \[1, 2\]$"):
        scattered_factor("0101", 2, 0)


def test_decide_Lk_examples():
    assert decide_Lk(2, "abaB$$Bb") is True
    assert decide_Lk(2, "abab") is False
    assert decide_Lk(2, "aaaA$A") is False  # zero factor value


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.text(alphabet="abAB$", max_size=14))
def test_decide_Lk_agrees_with_brute_force_random(k, w):
    assert decide_Lk(k, w) == brute_force_Lk(k, w)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_Lk_deciders_reject_k_below_2(k):
    for decide in (decide_Lk, brute_force_Lk):
        with pytest.raises(ValueError, match="k must be at least 2"):
            decide(k, "aB$B")


def _phi_reference(word):
    try:
        return "".join(LETTER_BITS[ch] for ch in word)
    except KeyError as exc:
        raise UnknownLetterError(f"letter {exc.args[0]!r} outside a/b/A/B") from exc


def _decide_Lk_reference(k, word):
    shape = re.fullmatch(r"([ab]*[AB])(\$+)([AB][ab]*)", word)
    if shape is None:
        return False
    prefix, separators, suffix = shape.groups()
    i = len(separators)
    if i > k or len(prefix) % k:
        return False
    left = eta(scattered_factor(_phi_reference(prefix), k, i))
    right = eta(_phi_reference(suffix)[::-1])
    return left == right and left >= 1


def _brute_force_Lk_reference(k, word):
    """Every split point, each piece checked letter by letter."""
    n = len(word)
    for p1 in range(n):
        if p1 and word[p1 - 1] not in "ab":
            break
        if word[p1] not in BARRED:
            continue
        if (p1 + 1) % k or p1 == 0:
            continue
        for p2 in range(p1 + 1, n):
            if word[p2] not in BARRED:
                continue
            i = p2 - p1 - 1
            if not 1 <= i <= k:
                continue
            if any(ch != "$" for ch in word[p1 + 1 : p2]):
                continue
            if any(ch not in "ab" for ch in word[p2 + 1 :]):
                continue
            left = eta(scattered_factor(_phi_reference(word[: p1 + 1]), k, i))
            right = eta(_phi_reference(word[p2:])[::-1])
            if left == right and left >= 1:
                return True
    return False


def _assert_deciders_match_references(k, word):
    expected = _decide_Lk_reference(k, word)
    assert _brute_force_Lk_reference(k, word) == expected, (k, word)
    assert decide_Lk(k, word) == expected, (k, word)
    assert brute_force_Lk(k, word) == expected, (k, word)


def test_phi_matches_reference():
    for n in range(4):
        for tup in product("abAB$01x", repeat=n):
            word = "".join(tup)
            try:
                expected = _phi_reference(word)
            except UnknownLetterError as exc:
                with pytest.raises(UnknownLetterError, match=re.escape(str(exc))):
                    phi(word)
            else:
                assert phi(word) == expected


def test_Lk_deciders_match_references_on_members_and_mutants():
    """The benchmark's shapes: k in 2..4, |u z1| = j*k for j in 1..6, every
    i, each member with one-letter mutants at seeded positions."""
    rng = random.Random(2024)
    for k in (2, 3, 4):
        for j in range(1, 7):
            for i in range(1, k + 1):
                for _ in range(4):
                    word = gen_Lk_member(k, j, i, seed=rng.randrange(2**31))
                    assert _decide_Lk_reference(k, word), (k, word)
                    _assert_deciders_match_references(k, word)
                    for _ in range(3):
                        pos = rng.randrange(len(word))
                        letter = rng.choice([ch for ch in "abAB$" if ch != word[pos]])
                        _assert_deciders_match_references(k, word[:pos] + letter + word[pos + 1 :])


def test_Lk_deciders_match_references_on_every_short_word_for_k_4():
    for n in range(7):
        for tup in product("abAB$", repeat=n):
            _assert_deciders_match_references(4, "".join(tup))


def test_decide_Lk_turns_malformed_words_away_before_the_shape_match(monkeypatch):
    """A word whose first $ is missing, comes before k, lies at no multiple
    of k, or follows an unbarred letter is a non-member without the regex."""
    seen = []

    class Shape:
        def fullmatch(self, word):
            seen.append(word)
            return None

    monkeypatch.setattr(witnesses, "_LK_SHAPE", Shape())
    for k, word in ((2, ""), (2, "ab"), (2, "$A"), (3, "aB$B"), (2, "abB$B"), (2, "ab$B")):
        assert decide_Lk(k, word) is False, (k, word)
    assert seen == []
    assert decide_Lk(2, "aB$Bb") is False
    assert seen == ["aB$Bb"]


def test_decide_Lk_matches_reference_over_a_wider_alphabet():
    """On words holding letters outside abAB$, one of them not ASCII, both
    deciders agree with the reference and neither raises."""
    for n in range(7):
        for tup in product("abAB$x\u00e9", repeat=n):
            word = "".join(tup)
            for k in range(2, 6):
                expected = _decide_Lk_reference(k, word)
                assert decide_Lk(k, word) == expected, (k, word)
                assert brute_force_Lk(k, word) == expected, (k, word)


def test_gen_Lk_member_shapes():
    w = gen_Lk_member(2, 2, 2, seed=11)
    assert decide_Lk(2, w)
    assert w.index("$") == 4  # prefix u z1 of length j*k = 4
    w = gen_Lk_member(3, 1, 1, seed=3)
    assert decide_Lk(3, w)
    assert w.index("$") == 3


def test_gen_Lk_member_mutations_mostly_fail():
    rng_words = [gen_Lk_member(2, 2, 1, seed=s) for s in range(100)]
    rng = random.Random(99)
    broken = 0
    total = 0
    for w in rng_words:
        positions = [p for p, ch in enumerate(w) if ch in "ab" and p > w.index("$")]
        if not positions:
            continue
        p = rng.choice(positions)
        flipped = w[:p] + ("a" if w[p] == "b" else "b") + w[p + 1 :]
        total += 1
        ok = decide_Lk(2, flipped)
        assert ok == brute_force_Lk(2, flipped)
        broken += not ok
    assert broken >= 0.95 * total


def test_regular_witness_examples():
    assert decide_regular_witness("aabba")
    assert not decide_regular_witness("abbb")
    assert not decide_regular_witness("abb" + "b")
    assert decide_regular_witness("")
    assert not decide_regular_witness("ba")


def test_regular_witness_agrees_with_regex():
    for n in range(0, 12):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            assert decide_regular_witness(w) == bool(WITNESS_PATTERN.fullmatch(w))


def test_eq_ab_table_is_exact():
    m = build_eq_ab()
    assert m.table[("qa", "b", ("P",))].target == "qa"
    assert m.table[("qa", "b", ("P",))].deltas == (-1,)
    assert len(m.transitions) == 12
    assert run(m, "abba", 100).accepted
    assert not run(m, "aab", 100).accepted


@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_family(k):
    m = build_balanced(k)
    assert m.k == k - 1
    assert validate(m) == []
    letters = sorted(m.alphabet)
    assert letters == list("abcdefgh"[:k])
    max_len = {2: 8, 3: 6, 4: 5}[k]
    for word in all_words(m.alphabet, max_len):
        counts = Counter(word)
        expected = len({counts[ch] for ch in letters}) == 1
        out = run(m, word, 200)
        assert out.accepted == expected
        if out.accepted:
            assert out.steps == len(word) + 2


@pytest.mark.parametrize("k", [-1, 0, 1, 11, 12])
def test_balanced_rejects_k_outside_its_letters(k):
    """There are ten letters, so k runs from 2 to 10; past them the builder
    would index its letter string out of range."""
    with pytest.raises(ValueError, match=r"k must be in 2\.\.10"):
        build_balanced(k)


def test_balanced_2_equals_eq_ab():
    m2 = build_balanced(2)
    eq = build_eq_ab()
    for word in all_words({"a", "b"}, 10):
        assert run(m2, word, 100).accepted == run(eq, word, 100).accepted


@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_reversible(k):
    m = build_balanced(k)
    verdict = derive_reverse(m)
    assert verdict.reversible
    assert verify_roundtrip(m, verdict.table, 6 if k < 4 else 4) is None
