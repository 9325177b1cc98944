"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime when the assertions hold (run pytest with -s to see them live).
"""

import random
import time
from collections import Counter
from itertools import product as iproduct

from revca.cli import main
from revca.constructions import normalize_extended, speedup
from revca.core import all_words, make_automaton, run, validate
from revca.formats import parse_automaton, parse_mcm, serialize_automaton, serialize_mcm
from revca.mcm import McmStatus, mcm_run
from revca.reversibility import (
    derive_reverse,
    derive_reverse_any,
    roundtrip_word,
    verify_roundtrip,
)
from revca.valc import NotAcceptingError, valc_decide, valc_encode
from revca.witnesses import (
    brute_force_Lk,
    build_balanced,
    build_eq_ab,
    decide_Lk,
    gen_Lk_member,
)

from conftest import random_extended_machine, stock, toy_burst_machine, toy_parity_dfa
from test_reversibility import EQ_AB_BACKWARD
from test_valc import GOLDEN, mutate


class _Timer:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:02d} {self.label}: {status} ({elapsed:.1f}s)")
        return False


EQ_AB_FORWARD = {
    ("q0", "<", ("Z",)): ("q1", 1, (0,)),
    ("q1", "a", ("Z",)): ("qa", 1, (0,)),
    ("q1", "b", ("Z",)): ("qb", 1, (0,)),
    ("q1", ">", ("Z",)): ("qf", 0, (0,)),
    ("qa", "a", ("Z",)): ("qa", 1, (1,)),
    ("qa", "b", ("Z",)): ("q1", 1, (0,)),
    ("qa", "a", ("P",)): ("qa", 1, (1,)),
    ("qa", "b", ("P",)): ("qa", 1, (-1,)),
    ("qb", "a", ("Z",)): ("q1", 1, (0,)),
    ("qb", "b", ("Z",)): ("qb", 1, (1,)),
    ("qb", "a", ("P",)): ("qb", 1, (-1,)),
    ("qb", "b", ("P",)): ("qb", 1, (1,)),
}


def test_criterion_01_example_fidelity():
    with _Timer(1, "example table fidelity"):
        m = build_eq_ab()
        assert len(m.transitions) == 12
        forward = {t.key: (t.target, t.move, t.deltas) for t in m.transitions}
        assert forward == EQ_AB_FORWARD
        verdict = derive_reverse(m)
        assert verdict.reversible
        backward = {k: tuple(v) for k, v in verdict.table.entries.items()}
        assert backward == EQ_AB_BACKWARD


def test_criterion_02_example_language_real_time():
    with _Timer(2, "balance language over all words up to length 12"):
        m = build_eq_ab()
        checked = 0
        for word in all_words({"a", "b"}, 12):
            counts = Counter(word)
            out = run(m, word, 100)
            assert out.accepted == (counts["a"] == counts["b"])
            if out.accepted:
                assert out.steps == len(word) + 2
            checked += 1
        assert checked == 8191


def test_criterion_03_roundtrips(valc_machines):
    with _Timer(3, "reversibility round-trips for every built-in machine"):
        for i, (machine, max_len) in enumerate([
            (build_eq_ab(), 6),
            (build_balanced(2), 6),
            (build_balanced(3), 6),
            (build_balanced(4), 6),
        ]):
            verdict = derive_reverse(machine)
            assert verdict.reversible, i
            assert verify_roundtrip(machine, verdict.table, max_len) is None, i
        rng = random.Random(31337)
        for machine, v1, v2, prod in valc_machines.values():
            golden = valc_encode(machine, 4).surface()
            words = [golden[:n] for n in range(0, len(golden), 11)] + [golden]
            added = 0
            while added < 20:
                w = mutate(golden, rng, sorted(prod.alphabet))
                if w is not None:
                    words.append(w)
                    added += 1
            for i, target in enumerate((v1, v2, prod)):
                verdict = derive_reverse(target)
                assert verdict.reversible, i
                for w in words:
                    assert roundtrip_word(target, verdict.table, w, fuel=5000) is None


def test_criterion_04_normalization_sweep():
    with _Timer(4, "extended-step normalization on 50 random machines"):
        rng = random.Random(90125)
        built = 0
        reversible_seen = 0
        while built < 50:
            m = random_extended_machine(rng)
            if validate(m):
                continue
            built += 1
            norm = normalize_extended(m)
            assert validate(norm) == []
            c = m.max_delta
            for word in all_words({"a", "b"}, 6):
                a = run(m, word, 80, trace=True)
                if a.diagnostic is not None:
                    continue  # source run left the model by forcing a counter negative
                b = run(norm, word, 80, trace=True)
                assert (a.verdict, a.steps) == (b.verdict, b.steps)
                for ca, cb in zip(a.trace, b.trace):
                    for orig, stored, res in zip(ca.counters, cb.counters, cb.state[1]):
                        assert orig == c * stored + res
            if derive_reverse_any(m).reversible:
                reversible_seen += 1
                verdict = derive_reverse(norm)
                assert verdict.reversible
                assert verify_roundtrip(norm, verdict.table, 4, fuel=80) is None
        assert reversible_seen >= 3  # the sweep exercised the preservation claim


def test_criterion_05_speedup_suite():
    with _Timer(5, "quasi-real-time speed-up on the toy suite"):
        suite = [
            (stock("toy_stationary.rca"), 1),
            (toy_burst_machine(), 2),
            (toy_parity_dfa(), 0),
            (build_eq_ab(), 1),
        ]
        for machine, ell in suite:
            fast = speedup(machine, ell)
            assert validate(fast) == []
            for word in all_words(machine.alphabet, 8 if len(machine.alphabet) < 3 else 7):
                slow = run(machine, word, 400)
                quick = run(fast, word, 400)
                assert slow.accepted == quick.accepted
                if quick.accepted:
                    assert quick.steps <= len(word) + 2
            assert derive_reverse(fast).reversible
        looped = make_automaton(
            [("q0", "<", "Z", "q0", 0, (0,))],
            initial="q0", accepting=[], k=1, alphabet={"a"},
        )
        fast = speedup(looped, 1)
        assert not any(
            t.token == "<" and t.move == 0 and t.target == fast.initial
            and all(d == 0 for d in t.deltas) and set(t.statuses) <= {"Z"}
            for t in fast.transitions
        )


def test_criterion_06_mcm_golden_trace():
    with _Timer(6, "multiplying-counter golden trace"):
        out = mcm_run(stock("hartmanis.mcm"), 4)
        assert out.status is McmStatus.HALTED_FINAL
        assert [(c.state, c.n) for c in out.trace] == [
            ("q0", 16), ("q1", 32), ("q2", 16), ("q3", 16), ("q4", 8), ("qf", 8),
        ]


def test_criterion_07_golden_history_string():
    with _Timer(7, "history encoding token fidelity"):
        word = valc_encode(stock("hartmanis.mcm"), 4)
        assert list(word.surface()) == GOLDEN


def test_criterion_08_history_acceptors(valc_machines):
    with _Timer(8, "history acceptors: positives, mutants, intersection law"):
        for machine, v1, v2, prod in valc_machines.values():
            for i in range(5):
                try:
                    word = valc_encode(machine, i).surface()
                except NotAcceptingError:
                    continue
                out = run(prod, word, 5000)
                assert out.accepted and out.steps <= len(word) + 2
        machine, v1, v2, prod = valc_machines["hartmanis"]
        golden = valc_encode(machine, 4).surface()
        alphabet = sorted(prod.alphabet)
        rng = random.Random(60902)
        tested = 0
        while tested < 200:
            w = mutate(golden, rng, alphabet)
            if w is None or valc_decide(machine, w):
                continue
            tested += 1
            o1 = run(v1, w, 5000).accepted
            o2 = run(v2, w, 5000).accepted
            op = run(prod, w, 5000).accepted
            assert op == (o1 and o2)
            assert not op


def test_criterion_09_scattered_factor_deciders():
    with _Timer(9, "scattered-factor language deciders"):
        for k in (2, 3):
            for n in range(11):
                for tup in iproduct("abAB$", repeat=n):
                    w = "".join(tup)
                    assert decide_Lk(k, w) == brute_force_Lk(k, w)
        rng = random.Random(1999)
        for k in (2, 3):
            members = [
                gen_Lk_member(k, rng.randint(1, 3), rng.randint(1, k), seed=s)
                for s in range(100)
            ]
            assert all(decide_Lk(k, w) for w in members)
            rejected = total = 0
            for w in members:
                positions = [
                    p for p, ch in enumerate(w) if ch in "ab" and p > w.index("$")
                ]
                if not positions:
                    continue
                p = rng.choice(positions)
                flipped = w[:p] + ("a" if w[p] == "b" else "b") + w[p + 1 :]
                total += 1
                verdict = decide_Lk(k, flipped)
                assert verdict == brute_force_Lk(k, flipped)
                rejected += not verdict
            assert rejected >= 0.95 * total


def test_criterion_10_cli_contract(tmp_path, capsys):
    with _Timer(10, "file round-trips and CLI exit codes"):
        from pathlib import Path

        machines_dir = Path(__file__).resolve().parent.parent / "machines"
        for path in sorted(machines_dir.glob("*.rca")):
            text = path.read_text()
            assert serialize_automaton(parse_automaton(text)) == text
        for path in sorted(machines_dir.glob("*.mcm")):
            text = path.read_text()
            assert serialize_mcm(parse_mcm(text)) == text
        eq = str(machines_dir / "eq_ab.rca")
        hart = str(machines_dir / "hartmanis.mcm")
        fast = tmp_path / "fast.rca"
        norm = tmp_path / "norm.rca"
        prod = tmp_path / "prod.rca"
        invocations = [
            (["run", eq, "ab"], 0),
            (["run", eq, "abba"], 0),
            (["run", eq, "aab"], 1),
            (["run", eq, "ab", "--fuel", "2"], 1),
            (["check", eq], 0),
            (["check", eq, "--mode", "roundtrip", "--max-len", "4"], 0),
            (["check", str(machines_dir / "regular_witness.rca")], 1),
            (["example", "eq-ab"], 0),
            (["example", "nope"], 2),
            (["normalize", str(machines_dir / "double_step.rca"), "-o", str(norm)], 0),
            (["speedup", str(machines_dir / "toy_stationary.rca"), "--ell", "1", "-o", str(fast)], 0),
            (["run", str(fast), "aa"], 0),
            (["product", eq, eq, "-o", str(prod)], 0),
            (["run", str(prod), "ba"], 0),
            (["lk", "decide", "--k", "2", "abaB$$Bb"], 0),
            (["lk", "decide", "--k", "2", "ab"], 1),
            (["lk", "gen", "--k", "3", "--j", "1", "--i", "2", "--seed", "4"], 0),
            (["mcm", "run", hart, "--i", "4"], 0),
            (["valc", "encode", hart, "--i", "4"], 0),
            (["valc", "encode", hart, "--i", "0"], 2),
            (["run", "missing-file.rca", "a"], 2),
        ]
        for argv, expected in invocations:
            assert main(argv) == expected, argv
            capsys.readouterr()
        assert len(invocations) >= 12
