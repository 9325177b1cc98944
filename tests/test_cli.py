from pathlib import Path

import pytest

from revca.cli import main
from revca.formats import (
    FormatError,
    parse_automaton,
    parse_mcm,
    serialize_automaton,
    serialize_mcm,
)
from revca.witnesses import build_eq_ab

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


def test_shipped_eq_ab_matches_builder():
    assert parse_automaton((MACHINES / "eq_ab.rca").read_text()) == build_eq_ab()


def test_parse_errors_carry_line_numbers():
    text = (MACHINES / "eq_ab.rca").read_text()
    broken = text.replace("t q0 < Z -> q1 1 0", "t q0 < ZP -> q1 1 0")
    with pytest.raises(FormatError) as err:
        parse_automaton(broken)
    assert "length 1" in str(err.value)
    line = int(str(err.value).split(":")[0].split()[1])
    assert line > 0


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


def test_serializer_needs_string_states_and_rename_is_deterministic():
    from revca.constructions import product_intersection
    from revca.core import rename_states
    from revca.witnesses import build_balance_factor

    prod = product_intersection(
        build_balance_factor("abc", "b"), build_balance_factor("abc", "c")
    )
    with pytest.raises(TypeError):
        serialize_automaton(prod)  # tuple states must be renamed first
    first = serialize_automaton(rename_states(prod))
    second = serialize_automaton(rename_states(prod))
    assert first == second


def test_cli_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rca"
    bad.write_text("revca-format 1\ncounters x\n")
    assert main(["run", str(bad), "a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_exit_2(capsys):
    assert main(["run", "no/such/file.rca", "a"]) == 2
    capsys.readouterr()


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
    ],
    ids=["maxdelta-empty", "maxdelta-not-int", "initial-empty", "version-empty",
         "mcm-initial-empty", "mcm-final-empty", "mcm-version-empty", "counters-repeated"],
)
def test_cli_malformed_header_exit_2(tmp_path, capsys, suffix, original, old, new, line):
    text = original.replace(old, new, 1)
    assert text != original
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    argv = ["check", str(path)] if suffix == ".rca" else ["mcm", "run", str(path), "--i", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}:")
