import argparse
import os
import stat
import threading
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from revca import cli
from revca.cli import main
from revca.core import CounterAutomaton, Transition, defects_by_transition
from revca.formats import (
    _MOVES,
    FormatError,
    _delta_field,
    _header,
    _status_field,
    parse_automaton,
    parse_mcm,
    serialize_automaton,
    serialize_mcm,
)
from revca.witnesses import build_balanced, build_eq_ab, build_regular_witness

REPO = Path(__file__).resolve().parent.parent
MACHINES = REPO / "machines"
RCA_FILES = sorted(MACHINES.glob("*.rca"))
MCM_FILES = sorted(MACHINES.glob("*.mcm"))


def test_shipped_files_exist():
    assert (MACHINES / "eq_ab.rca").exists()
    assert (MACHINES / "hartmanis.mcm").exists()
    assert len(RCA_FILES) >= 4 and len(MCM_FILES) >= 2


@pytest.mark.parametrize("path", RCA_FILES, ids=lambda p: p.name)
def test_automaton_roundtrip(path):
    text = path.read_text()
    machine = parse_automaton(text)
    assert serialize_automaton(machine) == text
    assert parse_automaton(serialize_automaton(machine)) == machine


@pytest.mark.parametrize("path", MCM_FILES, ids=lambda p: p.name)
def test_mcm_roundtrip(path):
    text = path.read_text()
    machine = parse_mcm(text)
    assert serialize_mcm(machine) == text
    assert parse_mcm(serialize_mcm(machine)) == machine


SHIPPED_BUILDERS = {
    "balanced3.rca": lambda: build_balanced(3),
    "eq_ab.rca": build_eq_ab,
    "regular_witness.rca": build_regular_witness,
}


@pytest.mark.parametrize("name", SHIPPED_BUILDERS)
def test_shipped_file_matches_builder(name):
    assert (MACHINES / name).read_text() == serialize_automaton(SHIPPED_BUILDERS[name]())


def test_parse_errors_carry_line_numbers():
    text = (MACHINES / "eq_ab.rca").read_text()
    broken = text.replace("t q0 < Z -> q1 1 0", "t q0 < ZP -> q1 1 0")
    with pytest.raises(FormatError) as err:
        parse_automaton(broken)
    assert "length 1" in str(err.value)
    assert err.value.line_no == 7  # the line of "t q0 < Z -> q1 1 0"


def test_cli_run_accept(capsys):
    rc = main(["run", str(MACHINES / "eq_ab.rca"), "ab"])
    out = capsys.readouterr().out
    assert rc == 0 and "ACCEPT steps=4" in out


def test_cli_run_reject(capsys):
    rc = main(["run", str(MACHINES / "eq_ab.rca"), "aab"])
    assert rc == 1
    assert "REJECT" in capsys.readouterr().out


def test_cli_run_trace_and_backward(capsys):
    rc = main(["run", str(MACHINES / "eq_ab.rca"), "abba", "--trace", "--backward"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "backward replay:" in out
    assert out.count("(q0 head=0") == 2  # forward trace start and replay end


def test_cli_run_backward_without_trace(capsys):
    rc = main(["run", str(MACHINES / "eq_ab.rca"), "abba", "--backward"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("backward replay:\n")
    assert out.count("(q0 head=0") == 1  # the replay's end, no forward trace


def test_cli_run_backward_stops_on_a_run_that_revisits_its_start(tmp_path, capsys):
    # every step of this run returns to the initial configuration, so the
    # reverse table steps back from it forever; the replay stops after 5
    path = tmp_path / "loop.rca"
    path.write_text(
        "revca-format 1\ncounters 1\nalphabet a\nstates q0\ninitial q0\naccepting\nt q0 < Z -> q0 0 0\n"
    )
    rc = main(["run", str(path), "", "--fuel", "5", "--backward"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out == ["backward replay:"] + ["(q0 head=0 counters=0)"] * 6 + ["FUEL_EXHAUSTED steps=5"]


def test_cli_run_empty_word(capsys):
    for word in ("", " "):
        rc = main(["run", str(MACHINES / "eq_ab.rca"), word])
        assert rc == 0
        assert "steps=2" in capsys.readouterr().out


def test_cli_check_syntactic(capsys):
    rc = main(["check", str(MACHINES / "eq_ab.rca")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "REVERSIBLE (12 backward entries)" in out


def test_cli_check_irreversible(capsys):
    rc = main(["check", str(MACHINES / "regular_witness.rca")])
    assert rc == 1
    assert "IRREVERSIBLE" in capsys.readouterr().out


def test_cli_check_roundtrip(capsys):
    rc = main(["check", str(MACHINES / "eq_ab.rca"), "--mode", "roundtrip", "--max-len", "4"])
    assert rc == 0
    assert "roundtrip OK" in capsys.readouterr().out


@pytest.mark.parametrize("word, shown", [(("b", "b", "a"), "b b a"), ((), "the empty word")])
def test_cli_check_roundtrip_failure_exit_1(word, shown, capsys, monkeypatch):
    from revca import reversibility

    bad = reversibility.RoundtripCounterexample(word, None, None, None)
    monkeypatch.setattr(reversibility, "verify_roundtrip", lambda *args: bad)
    rc = main(["check", str(MACHINES / "eq_ab.rca"), "--mode", "roundtrip", "--max-len", "4"])
    assert rc == 1
    assert capsys.readouterr().out.endswith(f"\nroundtrip failed on {shown}\n")


def test_cli_check_negative_max_len_exit_2(capsys):
    rc = main(["check", str(MACHINES / "eq_ab.rca"), "--mode", "roundtrip", "--max-len", "-1"])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: max_len must be non-negative\n")


def test_cli_normalize_and_run(tmp_path, capsys):
    out_path = tmp_path / "norm.rca"
    assert main(["normalize", str(MACHINES / "double_step.rca"), "-o", str(out_path)]) == 0
    assert main(["run", str(out_path), "aabb"]) == 0
    capsys.readouterr()


def test_cli_speedup(tmp_path, capsys):
    out_path = tmp_path / "fast.rca"
    assert main(["speedup", str(MACHINES / "toy_stationary.rca"), "--ell", "1", "-o", str(out_path)]) == 0
    rc = main(["run", str(out_path), "aaa"])
    out = capsys.readouterr().out
    assert rc == 0 and "steps=5" in out


def test_cli_speedup_negative_ell_exit_2(tmp_path, capsys):
    out_path = tmp_path / "fast.rca"
    assert main(["speedup", str(MACHINES / "toy_stationary.rca"), "--ell", "-1", "-o", str(out_path)]) == 2
    assert capsys.readouterr().err == "error: ell must be non-negative\n"
    assert not out_path.exists()


def test_cli_run_reports_a_diagnosed_reject_on_stderr(tmp_path, capsys):
    """An extended machine whose decrement by 2 meets a counter at 1."""
    path = tmp_path / "underflow.rca"
    path.write_text(
        "revca-format 1\ncounters 1\nmaxdelta 2\nalphabet a\nstates q0 q1\ninitial q0\naccepting q1\n"
        "t q0 < Z -> q1 1 1\nt q1 a P -> q1 1 -2\n"
    )
    assert main(["run", str(path), "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "REJECT steps=1\n"
    assert captured.err == "transition ('q1', 'a', ('P',)) drives a counter below zero from (1,)\n"


def test_cli_product(tmp_path, capsys):
    eq = tmp_path / "eq.rca"
    assert main(["example", "eq-ab", "-o", str(eq)]) == 0
    out_path = tmp_path / "prod.rca"
    assert main(["product", str(eq), str(eq), "-o", str(out_path)]) == 0
    assert main(["run", str(out_path), "ab"]) == 0
    assert main(["run", str(out_path), "aab"]) == 1
    capsys.readouterr()


def test_cli_example_balanced(tmp_path, capsys):
    path = tmp_path / "b3.rca"
    assert main(["example", "balanced-k:3", "-o", str(path)]) == 0
    assert main(["run", str(path), "cba"]) == 0
    assert main(["run", str(path), "cb"]) == 1
    capsys.readouterr()


def test_cli_example_regular_witness(tmp_path, capsys):
    path = tmp_path / "rw.rca"
    assert main(["example", "regular-witness", "-o", str(path)]) == 0
    assert main(["run", str(path), "aabba"]) == 0
    assert main(["run", str(path), "abbb"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("k", ["1", "11"])
def test_cli_example_balanced_k_out_of_range_exits_2(capsys, k):
    # an exception escaping main would reach the user as a traceback
    assert main(["example", f"balanced-k:{k}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k must be in 2..10")
    assert "Traceback" not in err


def test_cli_example_balanced_k_not_an_integer_exits_2(capsys):
    assert main(["example", "balanced-k:x"]) == 2
    assert capsys.readouterr().err == "error: balanced-k:K needs an integer K, not 'x'\n"


def test_cli_example_unknown(capsys):
    assert main(["example", "no-such-machine"]) == 2
    capsys.readouterr()


def test_cli_lk(capsys):
    assert main(["lk", "decide", "--k", "2", "abaB$$Bb"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["lk", "decide", "--k", "2", "abab"]) == 1
    capsys.readouterr()
    assert main(["lk", "gen", "--k", "2", "--j", "2", "--i", "1", "--seed", "9"]) == 0
    word = capsys.readouterr().out.strip()
    assert main(["lk", "decide", "--k", "2", word]) == 0
    capsys.readouterr()


def test_cli_mcm_run_golden(capsys):
    rc = main(["mcm", "run", str(MACHINES / "hartmanis.mcm"), "--i", "4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[:6] == ["q0 a^16", "q1 a^32", "q2 a^16", "q3 a^16", "q4 a^8", "qf a^8"]


def test_cli_valc_encode(capsys):
    rc = main(["valc", "encode", str(MACHINES / "double.mcm"), "--i", "0"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "[q0|l=2] a' [q0|l=2|p=0] [qf|l=2] a a [qf|l=2]"


def test_cli_valc_build_part(tmp_path, capsys):
    path = tmp_path / "v1.rca"
    assert main(["valc", "build", str(MACHINES / "double.mcm"), "--part", "1", "-o", str(path)]) == 0
    assert main(["valc", "encode", str(MACHINES / "double.mcm"), "--i", "1"]) == 0
    word = capsys.readouterr().out.strip()
    rc = main(["run", str(path), word])
    assert rc == 0
    capsys.readouterr()


def test_serializer_writes_tuple_states_under_rename_states_names(valc_machines):
    from revca.constructions import normalize_extended, product_intersection, speedup
    from revca.core import rename_states
    from revca.witnesses import build_balance_factor

    from conftest import stock

    constructed = [m for _, *built in valc_machines.values() for m in built] + [
        product_intersection(build_balance_factor("abc", "b"), build_balance_factor("abc", "c")),
        build_balanced(3),
        build_balanced(4),
        normalize_extended(stock("double_step.rca")),
        speedup(stock("toy_stationary.rca"), 1),
    ]
    for i, m in enumerate(constructed):
        assert not all(isinstance(s, str) for s in m.states), i
        text = serialize_automaton(m)
        assert text == serialize_automaton(rename_states(m)) == serialize_automaton(m), i


@pytest.mark.parametrize("odd", ["q 0", "#x", ""])
def test_serializer_renames_a_state_the_parser_cannot_read_back(odd):
    # whitespace splits a field, "#" starts a comment and "" is no field
    from revca.core import make_automaton, rename_states

    m = make_automaton(
        [("q0", "<", "", odd, 1, ""), (odd, "a", "", odd, 1, ""), (odd, ">", "", "acc", 0, "")],
        initial="q0", accepting=["acc"], k=0,
    )
    assert parse_automaton(serialize_automaton(m)) == rename_states(m)


def test_cli_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rca"
    bad.write_text("revca-format 1\ncounters x\n")
    assert main(["run", str(bad), "a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_exit_2(capsys):
    assert main(["run", "no/such/file.rca", "a"]) == 2
    capsys.readouterr()


# every command path, with "OUT" standing for a file in a fresh directory:
# each command and nested command, -h on each, no arguments, -h alone, an
# unknown command, an option before a command, arguments missing, misspelt
# or extra, and CI's malformed invocations
INVOCATIONS = [
    "run machines/eq_ab.rca abba --backward --trace",
    "check machines/eq_ab.rca --mode roundtrip --max-len 4",
    "normalize machines/double_step.rca -o OUT",
    "speedup machines/toy_stationary.rca --ell 1 -o OUT",
    "product machines/eq_ab.rca machines/regular_witness.rca -o OUT",
    "example balanced-k:3",
    "lk decide --k 2 abaB$$Bb",
    "lk gen --k 2 --j 2 --i 1 --seed 7",
    "mcm run machines/hartmanis.mcm --i 4",
    "valc encode machines/double.mcm --i 1",
    "valc build machines/hartmanis.mcm --part 2 -o OUT",
    *(f"{command} -h" for command in [
        "run", "check", "normalize", "speedup", "product", "example", "lk", "lk decide", "lk gen",
        "mcm", "mcm run", "valc", "valc encode", "valc build",
    ]),
    "",
    "-h",
    "chek machines/eq_ab.rca",
    "--foo check machines/eq_ab.rca",
    "-- check machines/eq_ab.rca",
    "check",
    "check machines/eq_ab.rca extra",
    "check machines/eq_ab.rca --mode bad",
    "lk",
    "valc nope",
    "valc build machines/hartmanis.mcm --part 3 -o OUT",
    "example balanced-k:11",
    "example balanced-k:x",
    "run machines/eq_ab.rca ab --fuel -1",
    "check machines/eq_ab.rca --mode roundtrip --max-len -1",
    "check machines",
    "normalize machines/eq_ab.rca -o /nonexistent/x.rca",
    "run machines/double_step.rca abab --backward",
    "valc encode machines/hartmanis.mcm --i -1",
    "mcm run machines/hartmanis.mcm --i 2 --fuel -1",
    "lk decide ab --k 1",
]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``, help and usage exits
    included."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("invocation", INVOCATIONS, ids=repr)
def test_cli_narrowed_parser_answers_as_the_full_one(invocation, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    argv = invocation.replace("OUT", str(tmp_path / "out.rca")).split()
    narrowed = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(argv, capsys) == narrowed


def test_cli_check_builds_only_its_own_parser(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check", str(MACHINES / "eq_ab.rca")]) == 0
    capsys.readouterr()
    assert built == ["revca", "revca check"]


EQ_AB_TEXT = (MACHINES / "eq_ab.rca").read_text()
DOUBLE_TEXT = (MACHINES / "double.mcm").read_text()


@pytest.mark.parametrize(
    "suffix, original, old, new, line",
    [
        (".rca", EQ_AB_TEXT, "counters 1\n", "counters 1\nmaxdelta\n", 3),
        (".rca", EQ_AB_TEXT, "counters 1\n", "counters 1\nmaxdelta x\n", 3),
        (".rca", EQ_AB_TEXT, "initial q0\n", "initial\n", 5),
        (".rca", EQ_AB_TEXT, "revca-format 1\n", "revca-format\n", 1),
        (".mcm", DOUBLE_TEXT, "initial q0\n", "initial\n", 3),
        (".mcm", DOUBLE_TEXT, "final qf\n", "final\n", 4),
        (".mcm", DOUBLE_TEXT, "mcm-format 1\n", "mcm-format\n", 1),
        (".rca", EQ_AB_TEXT, "counters 1\n", "counters 1\ncounters 0\n", 3),
        (".rca", EQ_AB_TEXT, "counters 1\n", "counters 1 2\n", 2),
        (".mcm", DOUBLE_TEXT, "r q0 2 qf qf\n", "r q0 1/0 qf qf\n", 5),
        (".rca", EQ_AB_TEXT, "t q1 a Z -> qa 1 0\n", "t q1 a Z -> qz 1 0\n", 8),
        (".mcm", DOUBLE_TEXT, "r q0 2 qf qf\n", "r q0 3/2 qf qf\n", 5),
        (".rca", EQ_AB_TEXT, "accepting qf\n", "accepting qf\nacepting q0\n", 7),
        (".rca", EQ_AB_TEXT, "t q0 < Z -> q1 1 0\n", "x q0 < Z -> q1 1 0\n", 7),
        (".mcm", DOUBLE_TEXT, "final qf\n", "final qf\nfinall qx\n", 5),
    ],
    ids=["maxdelta-empty", "maxdelta-not-int", "initial-empty", "version-empty",
         "mcm-initial-empty", "mcm-final-empty", "mcm-version-empty", "counters-repeated",
         "counters-extra-value",
         "mcm-zero-denominator", "transition-unknown-target", "mcm-rule-outside-stock",
         "header-misspelt", "transition-tag-misspelt", "mcm-header-misspelt"],
)
def test_cli_malformed_header_exit_2(tmp_path, capsys, suffix, original, old, new, line):
    text = original.replace(old, new, 1)
    assert text != original
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    argv = ["check", str(path)] if suffix == ".rca" else ["mcm", "run", str(path), "--i", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}:")


# failures whose error line no other test pins, as (invocation, the text of
# FILE or None, the error message); an invocation of mcm reads FILE as .mcm
FAILURES = [
    ("check FILE", EQ_AB_TEXT.replace("counters 1\n", "") + "counters 1\n",
     "line 6: transition before the counters header"),
    ("check FILE", "revca-format 1\nalphabet a\nstates q\ninitial q\naccepting\n",
     "line 0: missing 'counters' line"),
    ("check FILE", EQ_AB_TEXT.replace("alphabet a b\n", "alphabet a b <\n"),
     "line 3: endmarker '<' cannot be an alphabet token"),
    ("mcm run FILE --i 1", DOUBLE_TEXT.replace("r q0 2 qf qf\n", "r q0 2 qf\n"),
     "line 5: expected: r <state> <mult> <p> <r>"),
    ("mcm run FILE --i 1", DOUBLE_TEXT.replace("r q0 2 qf qf\n", "r q0 2 qf qx\n"),
     "line 5: rule 'q0' references unknown state 'qx'"),
    ("mcm run FILE --i 1", DOUBLE_TEXT.replace("initial q0\n", "initial qx\n"),
     "line 0: initial state 'qx' unknown"),
    ("mcm run FILE --i 1", DOUBLE_TEXT.replace("final qf\n", "final qx\n"),
     "line 0: final state 'qx' unknown"),
    ("mcm run FILE --i 1",
     DOUBLE_TEXT.replace("states q0 qf\n", "states q0 qf qx\n")
     .replace("initial q0\n", "initial qx\n").replace("final qf\n", "final qx\n"),
     "line 0: initial and final states coincide"),
    ("run machines/regular_witness.rca ab --backward", None,
     "machine is not reversible; cannot replay backward"),
    ("run machines/eq_ab.rca abx", None, "token 'abx' not in alphabet"),
    ("lk gen --k 2 --j 0 --i 1", None, "need k >= 2, j >= 1, 1 <= i <= k"),
    ("example no-such-machine", None, "unknown example 'no-such-machine'"),
]


@pytest.mark.parametrize(
    "invocation, text, message",
    FAILURES,
    ids=["transition-before-counters", "counters-missing", "endmarker-in-alphabet", "mcm-rule-four-fields",
         "mcm-rule-unknown-state", "mcm-initial-unknown", "mcm-final-unknown", "mcm-initial-is-final",
         "backward-irreversible", "word-outside-alphabet", "lk-gen-j-0", "example-unknown"],
)
def test_cli_failure_prints_one_error_line_and_exits_2(invocation, text, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    path = tmp_path / ("bad.mcm" if invocation.startswith("mcm") else "bad.rca")
    if text is not None:
        path.write_text(text)
    assert main(invocation.replace("FILE", str(path)).split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# SHA-256 of `revca check` stdout; the hartmanis entry checks the history
# acceptor that `revca valc build machines/hartmanis.mcm` writes, the others
# the shipped machines of that name.
CHECK_SHA256 = {
    "balanced3": "5b6b914cd1afc94cc017d3cf17295512299381d01aeea34d1ed3362aff92f983",
    "eq_ab": "631485a6364c3bf0374acb04a84470f56b35d596c8d74c0945424fc7d68ff1ce",
    "hartmanis": "912dcdce7ced24c9e26dab4fe127131b536719d2be13200f7de0b0f4dd360fc0",
    "regular_witness": "4c229464a5dc33a042543c4453b262dcc6dbbeb79479b78580d88bc276f0db3f",
    "toy_stationary": "b632783a5cf2042d65009a627fe0d3da63b73cd8ca6a99017978d282ab02030c",
}
CHECK_EXIT = {"regular_witness": 1}  # irreversible: the output lists its conflicts


@pytest.mark.parametrize("name", sorted(CHECK_SHA256))
def test_cli_check_output_is_pinned(name, tmp_path, capsys, request):
    import hashlib

    if name == "hartmanis":
        prod = request.getfixturevalue("valc_machines")[name][3]
        path = tmp_path / f"{name}.rca"
        path.write_text(serialize_automaton(prod))
    else:
        path = MACHINES / f"{name}.rca"
    assert main(["check", str(path)]) == CHECK_EXIT.get(name, 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_SHA256[name]


def test_cli_check_refuses_an_extended_machine(capsys):
    assert main(["check", str(MACHINES / "double_step.rca")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_delta 2: normalize extended machines before deriving\n"


# SHA-256 of the files that the construction commands write; the same
# commands run under two hash seeds in CI, where their outputs must agree.
CONSTRUCTION_SHA256 = {
    "normalize": (
        ["normalize", "double_step.rca"],
        "a5afc31136695928837951258998ba448783961e7d26fcb0f419a72fdf683d4a",
    ),
    "speedup": (
        ["speedup", "toy_stationary.rca", "--ell", "1"],
        "a4debf335ea3a163fb6db9daf0da5fdcdf5e465e57e9eec12ff64826e91ef96a",
    ),
    "speedup-extended": (
        ["speedup", "double_step.rca", "--ell", "1"],
        "5ac3a69f46f5d235296a9bcd6595aa006caf0660c444b1ceb4de15d53a8dc6cc",
    ),
    "product": (
        ["product", "eq_ab.rca", "regular_witness.rca"],
        "eddd8ff2c576ac72afb4eae3ef1bd88f1d39a4e390b172940c286f21f2295fbf",
    ),
    "example": (
        ["example", "balanced-k:4"],
        "b2b53af15cedbbf9b5e469aafc69ef299f7fdb582034cb886230245e83525815",
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_SHA256))
def test_cli_construction_output_is_pinned(name, tmp_path):
    import hashlib

    argv, digest = CONSTRUCTION_SHA256[name]
    argv = [str(MACHINES / a) if a.endswith(".rca") else a for a in argv]
    path = tmp_path / "out.rca"
    assert main([*argv, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _eq_ab_text(capsys) -> str:
    """The stdout form of `revca example eq-ab`, the bytes each -o case expects."""
    assert main(["example", "eq-ab"]) == 0
    return capsys.readouterr().out


def test_cli_output_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path, capsys):
    expected = _eq_ab_text(capsys)
    path = tmp_path / "out.rca"
    path.write_text("stale line\n" * 10 * len(expected))
    assert main(["example", "eq-ab", "-o", str(path)]) == 0
    assert path.read_bytes() == expected.encode()


def test_cli_output_rewrite_keeps_inode_links_and_mode(tmp_path, capsys):
    expected = _eq_ab_text(capsys)
    path, link = tmp_path / "out.rca", tmp_path / "link.rca"
    path.write_text("x" * 100_000)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    assert main(["example", "eq-ab", "-o", str(path)]) == 0
    after = path.stat()
    assert (after.st_ino, after.st_nlink, after.st_mode) == (before.st_ino, 2, before.st_mode)
    assert link.read_bytes() == path.read_bytes() == expected.encode()


def test_cli_output_new_file_gets_0o666_less_umask(tmp_path, capsys):
    path = tmp_path / "out.rca"
    old = os.umask(0o027)
    try:
        assert main(["example", "eq-ab", "-o", str(path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    capsys.readouterr()


def test_cli_output_to_dev_null_exits_0(capsys):
    assert main(["example", "eq-ab", "-o", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_output_into_a_fifo_delivers_the_full_text(tmp_path, capsys):
    expected = _eq_ab_text(capsys)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["example", "eq-ab", "-o", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [expected.encode()]
    assert capsys.readouterr() == ("", "")


def test_cli_output_naming_a_directory_prints_one_error_line_and_exits_2(tmp_path, capsys):
    assert main(["example", "eq-ab", "-o", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# State names whose reprs order differently from the names themselves: `!`
# and `&` sort below the closing quote, and a name holding a quote changes
# the quote style of its repr.
ODD_NAMES = ["s1", "s1!", "s1&", "s10", "s1'", 'q"', "q'\"", "p'x", '"']


def test_cli_check_lists_entries_in_repr_order(tmp_path, capsys):
    from revca.core import make_automaton
    from revca.reversibility import derive_reverse

    rows = []
    chain = ["start", *ODD_NAMES]
    for src, dst in zip(chain, chain[1:]):
        rows.append((src, "a", "Z", dst, 1, (1,)))
        rows.append((src, "a", "P", dst, 1, (1,)))
        rows.append((src, "b", "P", dst, 1, (-1,)))
    rows.append(("start", "<", "Z", ODD_NAMES[0], 1, (0,)))
    machine = make_automaton(rows, initial="start", accepting=[chain[-1]], k=1)
    path = tmp_path / "odd.rca"
    path.write_text(serialize_automaton(machine))
    assert main(["check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    entries = derive_reverse(parse_automaton(path.read_text())).table.entries
    expected = [f"REVERSIBLE ({len(entries)} backward entries)"]
    for (state, token, statuses), out in sorted(entries.items(), key=repr):
        status = "".join(statuses) or "-"
        deltas = ",".join(str(d) for d in out.deltas) or "-"
        expected.append(f"  {state} {token} {status} <- {out.target} {out.move} {deltas}")
    assert lines == expected
    assert sorted(ODD_NAMES) != sorted(ODD_NAMES, key=repr)  # the order is not the plain one


@st.composite
def corrupted_eq_ab(draw):
    """eq_ab.rca with some transition lines given a bad status, move or delta
    field; returns the text and the (line, message) of the first bad line."""
    lines = EQ_AB_TEXT.splitlines()
    bad = {
        "status": ("X", "status 'X' is not a Z/P string of length 1"),
        "move": ("2", "move '2' not in {0, 1}"),
        "deltas": ("1,x", "bad delta list '1,x'"),
        "count": ("0,0", "expected 1 deltas, got 2"),
    }
    slot = {"status": 3, "move": 6, "deltas": 7, "count": 7}
    first = None
    for no, line in enumerate(lines, start=1):
        if not line.startswith("t "):
            continue
        kind = draw(st.sampled_from([None, None, *bad]))
        if kind is None:
            continue
        fields = line.split()
        fields[slot[kind]] = bad[kind][0]
        lines[no - 1] = " ".join(fields)
        if first is None:
            first = (no, bad[kind][1])
    return "\n".join(lines) + "\n", first


@given(corrupted_eq_ab())
def test_parse_reports_first_bad_field_at_its_line(case):
    text, first = case
    if first is None:
        assert parse_automaton(text) == build_eq_ab()
        return
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert str(err.value) == f"line {first[0]}: {first[1]}"
    assert err.value.line_no == first[0]


def _parse_reference(text):
    """``parse_automaton`` in its plain form: every line is cut at ``#``,
    and each transition is built by calling ``Transition``."""
    header = {}
    transitions = []
    lines = []
    k = None
    status_fields = {}
    delta_fields = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.partition("#")[0].split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "t":
            if k is None:
                raise FormatError(no, "transition before the counters header")
            if len(fields) != 8 or fields[4] != "->":
                raise FormatError(no, "expected: t <state> <token> <status> -> <state> <move> <deltas>")
            _, state, token, status, _arrow, target, move, deltas = fields
            statuses = status_fields.get(status)
            if statuses is None:
                statuses = status_fields[status] = _status_field(no, status, k)
            if move not in _MOVES:
                raise FormatError(no, f"move {move!r} not in {{0, 1}}")
            ds = delta_fields.get(deltas)
            if ds is None:
                ds = delta_fields[deltas] = _delta_field(no, deltas, k)
            transitions.append(Transition(state, token, statuses, target, _MOVES[move], ds))
            lines.append(no)
        elif tag not in ("revca-format", "counters", "maxdelta", "alphabet", "states", "initial", "accepting"):
            raise FormatError(no, f"unknown line tag {tag!r}")
        else:
            header.setdefault(tag, []).append((no, fields[1:]))
            if tag == "counters":
                _header(header, tag, 1 if len(fields) > 1 else None)
                try:
                    k = int(fields[1])
                except (IndexError, ValueError):
                    raise FormatError(no, "counters line needs an integer")

    no, version = _header(header, "revca-format")
    if version != ["1"]:
        raise FormatError(no, f"unsupported format version {version}")
    if k is None:
        raise FormatError(0, "missing 'counters' line")
    max_delta = 1
    no, md = _header(header, "maxdelta", 1, required=False)
    if md:
        try:
            max_delta = int(md[0])
        except ValueError:
            raise FormatError(no, f"maxdelta {md[0]!r} is not an integer")
    no, alphabet = _header(header, "alphabet")
    for token in alphabet:
        if token in ("<", ">"):
            raise FormatError(no, f"endmarker {token!r} cannot be an alphabet token")
    machine = CounterAutomaton(
        states=frozenset(_header(header, "states")[1]),
        alphabet=frozenset(alphabet),
        k=k,
        transitions=tuple(transitions),
        initial=_header(header, "initial", 1)[1][0],
        accepting=frozenset(_header(header, "accepting")[1]),
        max_delta=max_delta,
    )
    defects = list(defects_by_transition(machine))
    if defects:
        no = next((lines[i] for i, _ in defects if i is not None), 0)
        raise FormatError(no, "invalid machine: " + "; ".join(message for _, message in defects))
    return machine


def _parse_outcome(parse, text):
    """The machine and its transitions in order, or the error's type and text."""
    try:
        machine = parse(text)
    except Exception as exc:  # the parser must raise what the reference raises
        return type(exc), str(exc)
    return machine, machine.transitions


@pytest.fixture(scope="module")
def construction_texts(tmp_path_factory):
    """The files that the commands of ``CONSTRUCTION_SHA256`` write."""
    texts, out = {}, tmp_path_factory.mktemp("constructions")
    for name, (argv, _) in CONSTRUCTION_SHA256.items():
        path = out / f"{name}.rca"
        argv = [str(MACHINES / a) if a.endswith(".rca") else a for a in argv]
        assert main([*argv, "-o", str(path)]) == 0
        texts[name] = path.read_text()
    return texts


@pytest.mark.parametrize("name", [*(p.name for p in RCA_FILES), *sorted(CONSTRUCTION_SHA256)])
def test_parse_matches_reference_on_shipped_and_built_files(name, construction_texts):
    text = (MACHINES / name).read_text() if name.endswith(".rca") else construction_texts[name]
    parsed = _parse_outcome(parse_automaton, text)
    assert parsed == _parse_outcome(_parse_reference, text)
    assert not isinstance(parsed[0], type)  # every one of these files parses


RCA_TEXTS = [path.read_text() for path in RCA_FILES]
JUNK_FIELDS = ["", "x", "q9", "->", "<", ">", "ZZ", "X", "2", "-1", "1,x", "0,0", "-", "#"]


@st.composite
def edited_rca_texts(draw):
    """A shipped ``.rca`` text with a few edits: blank or whitespace-only
    lines put in, spaces turned into tabs or runs, a ``#`` comment at any
    column, a field replaced, dropped or doubled, or a line repeated."""
    lines = draw(st.sampled_from(RCA_TEXTS)).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[at]
        edit = draw(st.sampled_from(["blank", "tabs", "comment", "field", "drop", "double", "repeat"]))
        if edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", " \t  ", "#", "  # note"])))
        elif edit == "tabs":
            lines[at] = line.replace(" ", draw(st.sampled_from(["\t", "  ", " \t"])))
        elif edit == "comment":
            col = draw(st.integers(min_value=0, max_value=len(line)))
            lines[at] = line[:col] + "#" + draw(st.sampled_from(["", " t q0 < Z", "#x"])) + line[col:]
        elif edit == "repeat":
            lines.insert(at, line)
        elif line.split():
            fields = line.split()
            i = draw(st.integers(min_value=0, max_value=len(fields) - 1))
            if edit == "field":
                fields[i] = draw(st.sampled_from(JUNK_FIELDS))
            elif edit == "drop":
                del fields[i]
            else:
                fields.insert(i, fields[i])
            lines[at] = " ".join(fields)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@settings(max_examples=300)
@given(edited_rca_texts())
def test_parse_matches_reference_on_edited_texts(text):
    parsed = _parse_outcome(parse_automaton, text)
    assert parsed == _parse_outcome(_parse_reference, text)
    event(parsed[1].partition(": ")[2][:24] if isinstance(parsed[0], type) else "parsed")
