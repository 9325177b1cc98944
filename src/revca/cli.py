"""Command-line interface.

Exit codes: 0 for success (and for ACCEPT verdicts), 1 for REJECT verdicts
and failed checks, 2 for usage, parse, or validation problems.  Results go to
stdout, diagnostics to stderr.  A failing command raises, and ``main`` turns
the exception into one ``error: …`` line and exit 2.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys

from . import constructions, formats, mcm, reversibility, valc, witnesses
from .core import CounterAutomaton, MachineError, run


def _load_automaton(path: str) -> CounterAutomaton:
    with open(path, encoding="utf-8") as fh:
        return formats.parse_automaton(fh.read())


def _load_mcm(path: str) -> mcm.MultCounterMachine:
    with open(path, encoding="utf-8") as fh:
        return formats.parse_mcm(fh.read())


def _write_automaton(machine: CounterAutomaton, path: str) -> None:
    """Write ``machine`` to ``path`` in place: open without truncating, write
    the text, then cut a regular file to the text's length.

    ``open(path, "w")`` truncates to zero, and on ext4 (with its default
    ``auto_da_alloc``) closing a file truncated that way starts its
    writeback, which the next rewrite's truncate then waits for; a
    temporary file renamed over the output with ``os.replace`` waits the
    same way.  In loops rewriting 60 kB (CPython 3.11, ext4 on a shared
    2-core x86-64 VM), either took 44–85 ms a rewrite against under 0.2 ms
    in place, and the wait was about nine tenths of a hartmanis ``valc
    build``.  The bytes, inode, hard links and mode come
    out as with ``"w"``, and as with ``"w"`` the write is not atomic.  Only
    a regular file is truncated, so ``/dev/null``, FIFOs and
    ``/dev/stdout`` on a pipe work as outputs.
    """
    text = formats.serialize_automaton(machine)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _split_word(machine: CounterAutomaton, text: str) -> list[str]:
    """Tokens are whitespace separated; a bare string whose characters are all
    single-character alphabet tokens may be written without spaces."""
    parts = text.split()
    if len(parts) != 1 or parts[0] in machine.alphabet:
        return parts
    word = parts[0]
    if all(ch in machine.alphabet for ch in word):
        return list(word)
    return parts


def _fmt_config(cfg) -> str:
    counters = ",".join(str(c) for c in cfg.counters) or "-"
    return f"({cfg.state} head={cfg.head} counters={counters})"


def cmd_run(args) -> int:
    machine = _load_automaton(args.file)
    word = _split_word(machine, args.input)
    outcome = run(machine, word, args.fuel, trace=args.trace)
    if args.trace:
        for cfg in outcome.trace:
            print(_fmt_config(cfg))
    if args.backward:
        verdict = reversibility.derive_reverse(machine)
        if not verdict.reversible:
            raise MachineError("machine is not reversible; cannot replay backward")
        # a replay of an n-step run takes exactly n steps back; a run that
        # revisits its start could otherwise be stepped back forever
        back = [outcome.final]
        for _ in range(outcome.steps):
            prev = reversibility.step_back(machine, verdict.table, back[-1])
            if prev is None:
                break
            back.append(prev)
        print("backward replay:")
        for cfg in back:
            print(_fmt_config(cfg))
        if back[-1] != machine.initial_configuration(word):
            raise MachineError("backward replay did not reach the initial configuration")
    print(f"{outcome.verdict.value} steps={outcome.steps}")
    if outcome.diagnostic:
        print(outcome.diagnostic, file=sys.stderr)
    return 0 if outcome.accepted else 1


def _repr_order(entries: dict) -> list[tuple]:
    """The (state, token, statuses) keys in the order ``sorted(entries.items(),
    key=repr)`` gives, sorted on integer ranks instead of reprs.  The reprs of
    distinct strings, and of distinct status vectors of one length, are never
    prefixes of one another, so the item reprs first differ inside the first
    part that differs, and comparing part by part gives the same order."""
    states, tokens, statuses = (
        {value: rank for rank, value in enumerate(sorted({key[i] for key in entries}, key=repr))}
        for i in range(3)
    )
    n_tokens, n_statuses = len(tokens), len(statuses)
    return sorted(
        entries, key=lambda key: (states[key[0]] * n_tokens + tokens[key[1]]) * n_statuses + statuses[key[2]]
    )


def cmd_check(args) -> int:
    if args.mode == "roundtrip" and args.max_len < 0:
        raise ValueError("max_len must be non-negative")  # before any verdict is printed
    machine = _load_automaton(args.file)
    verdict = reversibility.derive_reverse(machine)
    if not verdict.reversible:
        print(f"IRREVERSIBLE ({len(verdict.conflicts)} conflicts)")
        for c in verdict.conflicts:
            print(f"  {c.kind} clash at {c.key}: {c.first.key} vs {c.second.key}")
        return 1
    entries = verdict.table.entries
    order = _repr_order(entries)
    status_text, delta_text = formats.status_text, formats.delta_text
    lines = [
        f"  {state} {token} {status_text(statuses)} <- {target} {move} {delta_text(deltas)}\n"
        for (state, token, statuses), (target, move, deltas) in zip(order, map(entries.__getitem__, order))
    ]
    sys.stdout.write(f"REVERSIBLE ({len(entries)} backward entries)\n" + "".join(lines))
    if args.mode == "roundtrip":
        bad = reversibility.verify_roundtrip(machine, verdict.table, args.max_len)
        if bad is not None:
            print(f"roundtrip failed on {' '.join(bad.word) or 'the empty word'}")
            return 1
        print(f"roundtrip OK up to length {args.max_len}")
    return 0


def cmd_normalize(args) -> int:
    machine = _load_automaton(args.file)
    _write_automaton(constructions.normalize_extended(machine), args.output)
    return 0


def cmd_speedup(args) -> int:
    machine = _load_automaton(args.file)
    _write_automaton(constructions.speedup(machine, args.ell), args.output)
    return 0


def cmd_product(args) -> int:
    left = _load_automaton(args.first)
    right = _load_automaton(args.second)
    _write_automaton(constructions.product_intersection(left, right), args.output)
    return 0


_EXAMPLES = {  # the builder of a name ending in ":K" takes the integer K
    "eq-ab": witnesses.build_eq_ab,
    "balanced-k:K": witnesses.build_balanced,
    "regular-witness": witnesses.build_regular_witness,
}


def cmd_example(args) -> int:
    name, colon, k = args.name.partition(":")
    build = _EXAMPLES.get(f"{name}:K" if colon else name)
    if build is None:
        raise ValueError(f"unknown example {args.name!r}")
    if colon:
        try:
            k = int(k)
        except ValueError:
            raise ValueError(f"{name}:K needs an integer K, not {k!r}") from None
    machine = build(k) if colon else build()
    if args.output:
        _write_automaton(machine, args.output)
    else:
        sys.stdout.write(formats.serialize_automaton(machine))
    return 0


def cmd_lk_decide(args) -> int:
    result = witnesses.decide_Lk(args.k, args.word)
    print("true" if result else "false")
    return 0 if result else 1


def cmd_lk_gen(args) -> int:
    print(witnesses.gen_Lk_member(args.k, args.j, args.i, args.seed))
    return 0


def cmd_mcm_run(args) -> int:
    machine = _load_mcm(args.file)
    outcome = mcm.mcm_run(machine, args.i, args.fuel)
    for cfg in outcome.trace:
        print(f"{cfg.state} a^{cfg.n}")
    print(outcome.status.value)
    return 0 if outcome.status is mcm.McmStatus.HALTED_FINAL else 1


def cmd_valc_encode(args) -> int:
    machine = _load_mcm(args.file)
    print(valc.valc_encode(machine, args.i, args.fuel))
    return 0


_VALC_PARTS = {"1": valc.build_valc1, "2": valc.build_valc2, "both": valc.build_valc}


def cmd_valc_build(args) -> int:
    _write_automaton(_VALC_PARTS[args.part](_load_mcm(args.file)), args.output)
    return 0


def _add_run(p) -> None:
    p.add_argument("file")
    p.add_argument("input")
    p.add_argument("--backward", action="store_true", help="replay the run backward")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_run)


def _add_check(p) -> None:
    p.add_argument("file")
    p.add_argument("--mode", choices=["syntactic", "roundtrip"], default="syntactic")
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_check)


def _add_normalize(p) -> None:
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_normalize)


def _add_speedup(p) -> None:
    p.add_argument("file")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_speedup)


def _add_product(p) -> None:
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_product)


def _add_example(p) -> None:
    p.add_argument("name", help=" | ".join(_EXAMPLES))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_example)


def _add_lk(group) -> None:
    lk = group.add_subparsers(dest="lk_command", required=True)
    p = lk.add_parser("decide", help="membership test")
    p.add_argument("word")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_lk_decide)
    p = lk.add_parser("gen", help="generate a member")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lk_gen)


def _add_mcm(group) -> None:
    mm = group.add_subparsers(dest="mcm_command", required=True)
    p = mm.add_parser("run", help="trace a run from register 2**i")
    p.add_argument("file")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--fuel", type=int, default=1_000)
    p.set_defaults(func=cmd_mcm_run)


def _add_valc(group) -> None:
    vv = group.add_subparsers(dest="valc_command", required=True)
    p = vv.add_parser("encode", help="encode the accepting run from 2**i")
    p.add_argument("file")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--fuel", type=int, default=1_000)
    p.set_defaults(func=cmd_valc_encode)
    p = vv.add_parser("build", help="build history acceptors")
    p.add_argument("file")
    p.add_argument("--part", choices=_VALC_PARTS, default="both")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_valc_build)


# each command once: its name, its help line, and what adds its arguments and
# handler to its subparser
_COMMANDS = {
    "run": ("run a machine on an input word", _add_run),
    "check": ("derive the reverse table, optionally verify it", _add_check),
    "normalize": ("reduce an extended machine to unit deltas", _add_normalize),
    "speedup": ("remove stationary moves (real-time output)", _add_speedup),
    "product": ("lockstep intersection of two machines", _add_product),
    "example": ("emit a built-in machine", _add_example),
    "lk": ("scattered-factor languages", _add_lk),
    "mcm": ("multiplying counter machines", _add_mcm),
    "valc": ("computation-history languages", _add_valc),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, holding the subparser of ``command`` alone when
    it names a command, and of every command otherwise.

    A narrowed parser is only ever given a command line that starts with its
    command, so it can report no invalid or missing command; the one text of
    its own it prints is the usage line, which lists every command all the
    same, so usage, help and error texts match the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="revca",
        description="reversible counter automata: simulate, invert, construct",
    )
    if command in _COMMANDS:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = _COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    """Run one command with CPython's cyclic collector paused.

    The constructions allocate a named tuple per transition or table entry
    and make no reference cycles, so collector passes over them would free
    nothing; reference counting frees what a command drops.  The pause
    starts before the argument parser, whose cycles would otherwise be
    promoted to older generations, and the collector comes back on only if
    it was on at entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except (formats.FormatError, MachineError, mcm.McmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
