"""Concrete languages and machines: letter-balance checkers, a regular
recognizer that defeats reversible counting, and the scattered-factor
languages L_k with their value homomorphisms.

The deciders here are deliberately independent of the automaton simulator so
they can serve as oracles for the built machines.
"""

from __future__ import annotations

import random
import re
from functools import reduce

from .core import CounterAutomaton, MachineError, POSITIVE, ZERO, make_automaton
from .constructions import product_intersection

BARRED = {"A": "a", "B": "b"}
LETTER_BITS = {"a": "0", "b": "1", "A": "0", "B": "1"}
_BITS = str.maketrans(LETTER_BITS)  # passes unmapped letters through: validate first
_BIT_BYTES = bytes.maketrans(b"abAB", b"0101")  # LETTER_BITS on ASCII bytes
_LK_SHAPE = re.compile(r"([ab]*[AB])(\$+)([AB][ab]*)")  # u z1, $^i, z2 v


class UnknownLetterError(MachineError):
    pass


def phi(word: str) -> str:
    """Letterwise {a, b and barred variants} -> {0, 1} homomorphism."""
    unknown = word.lstrip("abAB")  # starts at the first letter outside a/b/A/B
    if unknown:
        raise UnknownLetterError(f"letter {unknown[0]!r} outside a/b/A/B")
    return word.translate(_BITS)


def eta(bits: str) -> int:
    """Value of a bit string read most-significant-bit first; empty is 0."""
    return int(bits, 2) if bits else 0


def scattered_factor(bits: str, k: int, i: int) -> str:
    """Every k-th bit starting at 1-indexed position i; length must divide by k."""
    if len(bits) % k:
        raise ValueError(f"length {len(bits)} not divisible by {k}")
    if not 1 <= i <= k:
        raise ValueError(f"i={i} outside [1, {k}]")
    return bits[i - 1 :: k]


def decide_Lk(k: int, word: str) -> bool:
    """Membership in L_k: words u z1 $^i z2 v where the i-th scattered factor
    of the prefix value equals the reversed suffix value, both at least 1.

    u and v are unbarred, z1/z2 are the barred letters A/B, |u z1| is a
    positive multiple of k, and 1 <= i <= k.  Malformed shapes are simply
    non-members.

    A pre-test answers most non-members before the regex: u z1 holds no
    ``$``, so a member's first ``$`` sits at position p = |u z1|, right after
    the barred z1.  A word whose first ``$`` is missing, sits before
    position k or at no multiple of k, or follows an unbarred letter cannot
    be a member.  Words that pass get the full shape match.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    p = word.find("$")
    if p < k or p % k or word[p - 1] not in BARRED:
        return False
    shape = _LK_SHAPE.fullmatch(word)
    if shape is None:
        return False
    q = shape.end(2)  # the $ run is word[p:q], so i = q - p
    if q - p > k:
        return False
    # the match has limited the word to ASCII; two bit strings have equal
    # values exactly when they agree without their leading zeros
    bits = word.encode().translate(_BIT_BYTES)
    left = bits[q - p - 1 : p : k].lstrip(b"0")
    return left != b"" and left == bits[: q - 1 : -1].lstrip(b"0")


def gen_Lk_member(k: int, j: int, i: int, seed: int = 0) -> str:
    """Draw a member of L_k with |u z1| = j*k, resampling until the selected
    scattered factor is nonzero, then append the matching suffix."""
    if k < 2 or j < 1 or not 1 <= i <= k:
        raise ValueError("need k >= 2, j >= 1, 1 <= i <= k")
    rng = random.Random(seed)
    while True:
        u = "".join(rng.choice("ab") for _ in range(j * k - 1))
        z1 = rng.choice("AB")
        value = eta(scattered_factor(phi(u + z1), k, i))
        if value >= 1:
            break
    bits = format(value, "b")
    reversed_bits = bits[::-1]
    z2 = "A" if reversed_bits[0] == "0" else "B"
    v = "".join("a" if b == "0" else "b" for b in reversed_bits[1:])
    word = u + z1 + "$" * i + z2 + v
    assert decide_Lk(k, word)
    return word


def brute_force_Lk(k: int, word: str) -> bool:
    """Split-enumeration oracle for L_k: try every split u z1 $^i z2 v that
    the definition allows, z1 = word[p1] with k dividing p1 + 1 and z2 =
    word[p2] with 1 <= i = p2 - p1 - 1 <= k, check each piece on its own and
    the value equation through the public phi, scattered_factor and eta.
    It shares no regex and no parse with ``decide_Lk``."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = len(word)
    for p1 in range(k - 1, n, k):
        if word[:p1].strip("ab"):
            break  # u = word[:p1] must lie in {a, b}*, so no later p1 can split the word
        if word[p1] not in BARRED:
            continue
        for p2 in range(p1 + 2, min(p1 + k + 2, n)):
            if word[p2] not in BARRED or word[p1 + 1 : p2].strip("$") or word[p2 + 1 :].strip("ab"):
                continue
            left = eta(scattered_factor(phi(word[: p1 + 1]), k, p2 - p1 - 1))
            right = eta(phi(word[p2:])[::-1])
            if left == right and left >= 1:
                return True
    return False


# ((aa + a)(bb + b))* (aa + a + lambda) as a plain table walk; the states are
# start/complete, one a, two a's, unit plus one b, unit plus two b's.
_WITNESS_DFA = {
    ("S", "a"): "A1",
    ("A1", "a"): "A2",
    ("A1", "b"): "B1",
    ("A2", "b"): "B1",
    ("B1", "b"): "B2",
    ("B1", "a"): "A1",
    ("B2", "a"): "A1",
}
_WITNESS_ACCEPTING = {"S", "A1", "A2", "B1", "B2"}

WITNESS_PATTERN = re.compile(r"^((aa|a)(bb|b))*(aa|a)?$")


def decide_regular_witness(word: str) -> bool:
    """Walk the fixed recognizer for alternating groups of one or two equal
    letters, starting with a's; words ending in three b's fall out."""
    state = "S"
    for ch in word:
        state = _WITNESS_DFA.get((state, ch))
        if state is None:
            return False
    return state in _WITNESS_ACCEPTING


def build_regular_witness() -> CounterAutomaton:
    """The same recognizer as a zero-counter automaton."""
    transitions = [("q0", "<", "", "S", 1, "")]
    for (src, ch), dst in _WITNESS_DFA.items():
        transitions.append((src, ch, "", dst, 1, ""))
    for st in sorted(_WITNESS_ACCEPTING):
        transitions.append((st, ">", "", f"acc_{st}", 0, ""))
    accepting = [f"acc_{st}" for st in sorted(_WITNESS_ACCEPTING)]
    return make_automaton(
        transitions,
        initial="q0",
        accepting=accepting,
        k=0,
        alphabet={"a", "b"},
    )


def build_eq_ab() -> CounterAutomaton:
    """One-counter machine for words with equally many a's and b's.

    A difference of one is held in the state (q_a: surplus a, q_b: surplus b)
    and only larger differences reach the counter, which is what makes the
    table invertible.  This is the balance factor for a against b.
    """
    return build_balance_factor("ab", "b")


LETTERS = "abcdefghij"


def build_balance_factor(alphabet: str, other: str) -> CounterAutomaton:
    """Example-1 scheme, transitions (1)-(12), comparing counts of the first
    alphabet letter against ``other``; every remaining letter is read and
    ignored."""
    first = alphabet[0]
    ignored = [ch for ch in alphabet if ch not in (first, other)]
    transitions = [
        ("q0", "<", ZERO, "q1", 1, (0,)),         # (1)
        ("q1", first, ZERO, "qa", 1, (0,)),       # (2)
        ("q1", other, ZERO, "qb", 1, (0,)),       # (3)
        ("q1", ">", ZERO, "qf", 0, (0,)),         # (4)
        ("qa", first, ZERO, "qa", 1, (1,)),       # (5)
        ("qa", other, ZERO, "q1", 1, (0,)),       # (6)
        ("qa", first, POSITIVE, "qa", 1, (1,)),   # (7)
        ("qa", other, POSITIVE, "qa", 1, (-1,)),  # (8)
        ("qb", first, ZERO, "q1", 1, (0,)),       # (9)
        ("qb", other, ZERO, "qb", 1, (1,)),       # (10)
        ("qb", first, POSITIVE, "qb", 1, (-1,)),  # (11)
        ("qb", other, POSITIVE, "qb", 1, (1,)),   # (12)
    ]
    for state in ("q1", "qa", "qb"):
        for ch in ignored:
            for status in (ZERO, POSITIVE):
                transitions.append((state, ch, status, state, 1, (0,)))
    return make_automaton(
        transitions,
        initial="q0",
        accepting=["qf"],
        k=1,
        alphabet=set(alphabet),
    )


def build_balanced(k: int) -> CounterAutomaton:
    """Machine over k letters accepting words where all letter counts agree,
    as the product of k - 1 pairwise balance checkers (first letter against
    each of the others); k runs from 2 to the number of ``LETTERS``."""
    if not 2 <= k <= len(LETTERS):
        raise ValueError(f"k must be in 2..{len(LETTERS)}, not {k}")
    alphabet = LETTERS[:k]
    factors = [build_balance_factor(alphabet, alphabet[i]) for i in range(1, k)]
    return reduce(product_intersection, factors)
