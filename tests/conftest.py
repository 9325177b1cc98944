import random
from pathlib import Path

import pytest

from revca import cli
from revca.core import make_automaton
from revca.constructions import product_intersection
from revca.valc import build_valc1, build_valc2

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def stock(name):
    """The shipped machine ``machines/<name>``, read through the CLI's loader
    for its suffix.  Each call parses afresh, so no test sees the index or
    table that another test's copy cached."""
    load = cli._load_mcm if name.endswith(".mcm") else cli._load_automaton
    return load(str(MACHINES / name))


def random_extended_machine(rng: random.Random):
    """One or two counters over {a, b}, steps of up to a drawn c in [1, 4];
    the machine may fail ``validate``."""
    k = rng.choice((1, 1, 2))
    c = rng.randint(1, 4)
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    keys = set()
    transitions = []
    for _ in range(rng.randint(4, 12)):
        state = rng.choice(states)
        token = rng.choice(["a", "b", "<", ">"])
        statuses = tuple(rng.choice("ZP") for _ in range(k))
        if (state, token, statuses) in keys:
            continue
        keys.add((state, token, statuses))
        move = 0 if token == ">" else rng.choice((0, 1, 1))
        deltas = tuple(rng.randint(0 if s == "Z" else -c, c) for s in statuses)
        transitions.append((state, token, statuses, rng.choice(states), move, deltas))
    accepting = [s for s in states if rng.random() < 0.4]
    return make_automaton(
        transitions, initial="s0", accepting=accepting, k=k,
        alphabet={"a", "b"}, max_delta=c,
    )


def toy_burst_machine():
    """Accepts a^n c b^(3n): three bumps per a via two stationary moves."""
    return make_automaton(
        [
            ("q0", "<", "Z", "qa", 1, (0,)),
            ("qa", "a", "Z", "qa1", 0, (1,)),
            ("qa", "a", "P", "qa1", 0, (1,)),
            ("qa1", "a", "P", "qa2", 0, (1,)),
            ("qa2", "a", "P", "qa", 1, (1,)),
            ("qa", "c", "Z", "qb", 1, (0,)),
            ("qa", "c", "P", "qb", 1, (0,)),
            ("qb", "b", "P", "qb", 1, (-1,)),
            ("qb", ">", "Z", "qacc", 0, (0,)),
        ],
        initial="q0",
        accepting=["qacc"],
        k=1,
    )


def toy_parity_dfa():
    """Even number of a's, no counters, no stationary moves."""
    return make_automaton(
        [
            ("q0", "<", "", "even", 1, ""),
            ("even", "a", "", "odd", 1, ""),
            ("odd", "a", "", "even", 1, ""),
            ("even", "b", "", "even", 1, ""),
            ("odd", "b", "", "odd", 1, ""),
            ("even", ">", "", "acc", 0, ""),
        ],
        initial="q0",
        accepting=["acc"],
        k=0,
    )


@pytest.fixture(scope="session")
def valc_machines():
    """Sped-up part acceptors and their products for the two sample machines."""
    out = {}
    for name in ("hartmanis.mcm", "double.mcm"):
        machine = stock(name)
        v1 = build_valc1(machine)
        v2 = build_valc2(machine)
        out[Path(name).stem] = (machine, v1, v2, product_intersection(v1, v2))
    return out
