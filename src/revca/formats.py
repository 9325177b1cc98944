"""Line-oriented text formats for automata and multiplying counter machines.

Both grammars are flat and diff-friendly: a version line, header lines, then
one record per line.  `#` starts a comment anywhere; `<` and `>` stand for
the endmarkers in transition lines and are banned from alphabets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import (
    CounterAutomaton,
    LEFT_END,
    RIGHT_END,
    Transition,
    defects_by_transition,
    rename_states,
)
from .mcm import McmError, McmRule, MultCounterMachine, make_mcm


class FormatError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_fields(text: str):
    """(line number, whitespace-separated fields) of each line that holds
    more than a comment.  Only lines that hold a ``#`` are cut at it."""
    for no, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.partition("#")[0] if "#" in raw else raw).split()
        if fields:
            yield no, fields


_Header = dict[str, list[tuple[int, list[str]]]]


def _header(header: _Header, tag: str, count: int | None = None, required: bool = True):
    """(line number, values) of the single ``tag`` header line.

    A missing required line, a repeated line, or a value count other than
    ``count`` (when given) is a FormatError; an absent optional line reads as
    (0, []).
    """
    lines = header.get(tag, [])
    if len(lines) > 1:
        raise FormatError(lines[1][0], f"repeated {tag!r} line")
    if not lines:
        if required:
            raise FormatError(0, f"missing {tag!r} line")
        return 0, []
    no, values = lines[0]
    if count is not None and len(values) != count:
        raise FormatError(no, f"{tag!r} line needs exactly {count} value(s), got {len(values)}")
    return no, values


_MOVES = {"0": 0, "1": 1}
_RCA_TAGS = frozenset({"revca-format", "counters", "maxdelta", "alphabet", "states", "initial", "accepting"})
_MCM_TAGS = frozenset({"mcm-format", "states", "initial", "final"})


def _status_field(no: int, status: str, k: int) -> tuple[str, ...]:
    statuses = () if status == "-" else tuple(status)
    if len(statuses) != k or any(s not in "ZP" for s in statuses):
        raise FormatError(no, f"status {status!r} is not a Z/P string of length {k}")
    return statuses


def _delta_field(no: int, deltas: str, k: int) -> tuple[int, ...]:
    if deltas == "-":
        ds: tuple[int, ...] = ()
    else:
        try:
            ds = tuple(int(d) for d in deltas.split(","))
        except ValueError:
            raise FormatError(no, f"bad delta list {deltas!r}")
    if len(ds) != k:
        raise FormatError(no, f"expected {k} deltas, got {len(ds)}")
    return ds


def parse_automaton(text: str) -> CounterAutomaton:
    """Parse a ``.rca`` text into a validated machine.

    Each distinct status and delta field is checked and turned into a tuple
    once, at the first line that holds it, and every later line with the
    same field shares that tuple.  The machine is validated by
    ``defects_by_transition``, whose whole-table checks answer first; its
    per-transition pass runs only to explain a failure, and the first
    transition it blames gives the line number of the error.
    """
    header: _Header = {}
    transitions = []
    lines = []  # the line number of each transition
    k = None
    status_fields: dict[str, tuple[str, ...]] = {}
    delta_fields: dict[str, tuple[int, ...]] = {}
    new = tuple.__new__
    for no, fields in _content_fields(text):
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
            step = _MOVES.get(move)
            if step is None:
                raise FormatError(no, f"move {move!r} not in {{0, 1}}")
            ds = delta_fields.get(deltas)
            if ds is None:
                ds = delta_fields[deltas] = _delta_field(no, deltas, k)
            transitions.append(new(Transition, (state, token, statuses, target, step, ds)))
            lines.append(no)
        elif tag not in _RCA_TAGS:
            raise FormatError(no, f"unknown line tag {tag!r}")
        else:
            header.setdefault(tag, []).append((no, fields[1:]))
            if tag == "counters":
                # reject a repeat before it re-keys later lines, and values past the first
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
        if token in (LEFT_END, RIGHT_END):
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


@lru_cache(maxsize=1024)
def status_text(statuses: tuple[str, ...]) -> str:
    """The status field of a transition line: ``ZP``, or ``-`` when k is 0."""
    return "".join(statuses) or "-"


@lru_cache(maxsize=1024)
def delta_text(deltas: tuple[int, ...]) -> str:
    """The delta field of a transition line: ``1,-1``, or ``-`` when k is 0."""
    return ",".join(str(d) for d in deltas) or "-"


def serialize_automaton(machine: CounterAutomaton) -> str:
    """Canonical text: states sorted, transitions sorted by key, the left
    endmarker before the alphabet and the right one after it.  States that
    are not all non-empty strings free of whitespace and ``#``, which the
    parser reads back as written, are written under ``rename_states``'
    names."""
    if not all(isinstance(st, str) and st.split() == [st] and "#" not in st for st in machine.states):
        machine = rename_states(machine)
    lines = [
        "revca-format 1",
        f"counters {machine.k}",
    ]
    if machine.max_delta != 1:
        lines.append(f"maxdelta {machine.max_delta}")
    lines.append("alphabet " + " ".join(sorted(machine.alphabet)))
    lines.append("states " + " ".join(sorted(machine.states)))
    lines.append(f"initial {machine.initial}")
    lines.append("accepting " + " ".join(sorted(machine.accepting)))
    token_order = {LEFT_END: 0, RIGHT_END: 2}
    for t in sorted(
        machine.transitions, key=lambda t: (t.state, token_order.get(t.token, 1), t.token, t.statuses)
    ):
        status, deltas = status_text(t.statuses), delta_text(t.deltas)
        lines.append(f"t {t.state} {t.token} {status} -> {t.target} {t.move} {deltas}")
    return "\n".join(lines) + "\n"


def parse_mcm(text: str) -> MultCounterMachine:
    header: _Header = {}
    rules = []
    lines = {}  # rule -> the line number of its last occurrence
    for no, fields in _content_fields(text):
        if fields[0] == "r":
            if len(fields) != 5:
                raise FormatError(no, "expected: r <state> <mult> <p> <r>")
            _, q, mult, p, rr = fields
            try:
                m = Fraction(mult)
            except (ValueError, ZeroDivisionError):
                raise FormatError(no, f"bad multiplicand {mult!r}")
            rules.append((q, m, p, rr))
            lines[McmRule(q, m, p, rr)] = no
        elif fields[0] not in _MCM_TAGS:
            raise FormatError(no, f"unknown line tag {fields[0]!r}")
        else:
            header.setdefault(fields[0], []).append((no, fields[1:]))

    no, version = _header(header, "mcm-format")
    if version != ["1"]:
        raise FormatError(no, "unsupported mcm format version")
    states = _header(header, "states")[1]
    initial = _header(header, "initial", 1)[1][0]
    final = _header(header, "final", 1)[1][0]
    try:
        return make_mcm(rules, initial=initial, final=final, states=states)
    except McmError as exc:
        raise FormatError(lines.get(exc.rule, 0), str(exc))


def serialize_mcm(machine: MultCounterMachine) -> str:
    lines = [
        "mcm-format 1",
        "states " + " ".join(sorted(machine.states)),
        f"initial {machine.initial}",
        f"final {machine.final}",
    ]
    for r in sorted(machine.rules):
        lines.append(f"r {r.state} {r.mult} {r.on_integer} {r.on_fraction}")
    return "\n".join(lines) + "\n"
