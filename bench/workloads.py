"""The three benchmark workloads.

Each workload has a set-up, a measured phase made of whole passes over a
fixed set of ops (closed loop, one client, one thread), oracle checks made
outside the timed spans, and a profile that times the same passes once
without and once with spans around every call the benchmark makes into
revca.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
from statistics import median
from types import SimpleNamespace

from revca import cli, constructions, core, formats, reversibility, valc, witnesses
from revca.mcm import McmStatus, mcm_run

from harness import NullTracer, profile_totals, rate

HARTMANIS = os.path.join("machines", "hartmanis.mcm")
OUT_DIR = ".bench_out"

HISTORY_RANGE = range(1, 10)  # golden histories valc_encode(hartmanis, i)
MUTANTS_PER_HISTORY = 30
SWEEP_LENGTHS = {"eq-ab": 10, "balanced-3": 7, "balanced-4": 5}  # exhaustive up to this length
SWEEP_ROUNDS = 8  # sweeps of all three machines per pass, spread evenly among the phase-1 ops
LK_ALPHABET = "abAB$"
LK_MAX_LEN = 8
LK_ENUM_KS = (2, 3)
LK_CHUNK = 2500  # enumerated words per op, each decided for every k in LK_ENUM_KS
LK_MEMBER_KS = (2, 3, 4)
LK_MEMBER_JS = range(1, 7)
LK_MEMBER_DRAWS = 100  # generated members per (k, j, i), each with one mutant
LK_MEMBER_CHUNK = 200

NULL = NullTracer()
perf = time.perf_counter


def passes(seconds: float, minimum: int = 1):
    """Yield pass numbers until ``seconds`` have elapsed and at least
    ``minimum`` passes are done."""
    start = perf()
    n = 0
    while n < minimum or perf() - start < seconds:
        yield n
        n += 1


def timed(clock, fn, *args):
    """Run fn(*args); returns the (start, end, 1) op record on ``clock`` and the result."""
    t0 = clock.now()
    out = fn(*args)
    return (t0, clock.now(), 1), out


def sizes(stage: str, machine, suffix: str = "") -> dict:
    return {
        f"{stage}_states{suffix}": len(machine.states),
        f"{stage}_transitions{suffix}": len(machine.transitions),
    }


def span_time(tot: dict, name: str) -> float:
    return tot[name]["self_s"] if name in tot else 0.0


def span_rate(tot: dict, name: str) -> float:
    return rate(tot[name]["items"], tot[name]["self_s"]) if name in tot else 0.0


def load_mcm(tracer):
    with open(HARTMANIS, encoding="utf-8") as fh:
        text = fh.read()
    with tracer.span("formats.parse_mcm"):
        return formats.parse_mcm(text)


def make_histories(machine, rng: random.Random, tracer) -> list:
    """Golden histories plus seeded single-token mutants, labelled by
    ``valc_decide``.  A history's mutants sit at evenly spaced positions
    behind a seeded offset, so every seed gives nearly the same mix of op
    lengths and the median op does not jump between seeds."""
    alphabet = valc.valc_alphabet(machine)
    out = []
    for i in HISTORY_RANGE:
        with tracer.span("mcm.mcm_run"):
            status = mcm_run(machine, i).status
        if status is not McmStatus.HALTED_FINAL:
            raise RuntimeError(f"hartmanis run from 2**{i} ended {status.value}")
        with tracer.span("valc.valc_encode") as sp:
            golden = valc.valc_encode(machine, i).surface()
            sp.n = len(golden)
        words = [golden]
        n = len(golden)
        offset = rng.random()
        for j in range(MUTANTS_PER_HISTORY):
            pos = min(n - 1, int((j + offset) * n / MUTANTS_PER_HISTORY))
            token = rng.choice([t for t in alphabet if t != golden[pos]])
            words.append(golden[:pos] + (token,) + golden[pos + 1 :])
        for w in words:
            with tracer.span("valc.valc_decide") as sp:
                label = valc.valc_decide(machine, w)
                sp.n = len(w)
            out.append(SimpleNamespace(tokens=w, label=label, golden=w is golden, i=i))
    return out


def check_histories(histories, checks) -> None:
    for h in histories:
        if h.golden:
            checks.check(h.label, f"valc_decide rejects the golden history i={h.i}")


def history_metrics(tot: dict) -> dict:
    return {
        "valc.encode_tokens_per_s": span_rate(tot, "valc.valc_encode"),
        "valc.decide_tokens_per_s": span_rate(tot, "valc.valc_decide"),
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# valc-build


def calibrated_totals(tracer, split: int, passes: int) -> dict:
    clock = tracer.clock
    return profile_totals(tracer.records, split, passes, lambda rec: clock.calibrated(rec[3], rec[4]))


class ValcBuild:
    """`revca valc build machines/hartmanis.mcm -o <tmp>` then `revca check
    <tmp>`, in-process through the CLI entry point."""

    name = "valc-build"
    aliases = {
        "op_p50_ms": ("build_p50_ms", "ms"),
        "op_tail_ms": ("build_max_ms", "ms"),
        "primary_per_s": ("builds_per_s", "builds/s"),
        "secondary_per_s": ("checks_per_s", "checks/s"),
    }

    def __init__(self):
        self.out = os.path.join(OUT_DIR, "valc-build.rca")
        self.probe_out = os.path.join(OUT_DIR, "valc-build-probe.rca")

    def setup(self, seed: int, tracer):
        machine = load_mcm(tracer)
        return SimpleNamespace(mcm=machine, histories=make_histories(machine, random.Random(seed), tracer))

    def cli_pair(self, checks, clock, tracer=NULL):
        """Both commands once; returns their intervals and the entry count."""
        with tracer.span("cli.valc_build"):
            build, rc = timed(clock, cli.main, ["valc", "build", HARTMANIS, "-o", self.out])
        checks.check(rc == 0, f"valc build exit code {rc}")
        buf = io.StringIO()
        with tracer.span("cli.check"), contextlib.redirect_stdout(buf):
            check, rc = timed(clock, cli.main, ["check", self.out])
        checks.check(rc == 0, f"check exit code {rc}")
        text = buf.getvalue()
        head = text.split("\n", 1)[0]
        ok = head.startswith("REVERSIBLE (")
        checks.check(ok, f"check reports {head!r}, not REVERSIBLE")
        entries = int(head.split("(")[1].split()[0]) if ok else 0
        checks.check(text.count("\n") == entries + 1, "check lists another number of entries than it reports")
        return build, check, entries

    def measure(self, st, seconds: float, checks, clock):
        builds, check_runs, entries = [], [], set()
        # one pass takes longer than a run's seconds; two make the median steadier
        for _ in passes(seconds, minimum=2):
            build, check, n = self.cli_pair(checks, clock)
            builds.append(build)
            check_runs.append(check)
            entries.add(n)
        checks.check(len(entries) == 1, f"reverse entry counts differ between passes: {sorted(entries)}")
        return SimpleNamespace(
            ops=builds, ops_per_pass=1, secondary=check_runs, counts={"reverse_entries": entries.pop()}
        )

    def named(self, builds: list, check_runs: list) -> dict:
        return {"build_s": (median(builds), "s"), "check_s": (median(check_runs), "s")}

    def verify(self, st, checks) -> tuple[dict, dict]:
        """Oracle checks on the written acceptor."""
        check_histories(st.histories, checks)
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.out)
        built = formats.parse_automaton(text)
        for h in st.histories:
            outcome = core.run(built, h.tokens, 2 * len(h.tokens) + 10)
            checks.check(outcome.accepted == h.label, f"acceptor verdict differs from valc_decide (i={h.i})")
            if h.golden:
                checks.check(outcome.steps <= len(h.tokens) + 2, f"golden i={h.i} took {outcome.steps} steps")
        counts = {
            "acceptor_states": (len(built.states), "count"),
            "acceptor_transitions": (len(built.transitions), "count"),
        }
        return counts, {"output_sha256": hashlib.sha256(text.encode()).hexdigest(), "text": text}

    def hash_seed_probe(self) -> tuple[str, str | None]:
        """Build again in a child interpreter under another hash seed; returns
        that seed and the SHA-256 of the child's output (None if it failed)."""
        seed = str((int(os.environ.get("PYTHONHASHSEED", "0")) + 1) % 2**32)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "revca.cli", "valc", "build", HARTMANIS, "-o", self.probe_out]
        try:
            done = subprocess.run(cmd, env=env, timeout=120, stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return seed, None
        if done.returncode != 0:
            return seed, None
        digest = sha256_file(self.probe_out)
        os.remove(self.probe_out)
        return seed, digest

    def pipeline(self, st, tracer):
        """The library calls behind both CLI commands, plus a stand-alone
        normalization of each slow part as speedup's first stage sees it."""
        counts = {}
        ell = valc.STATIONARY_BUDGET
        parts = []
        for part in (1, 2):
            with tracer.span("valc.build_valc_part_slow"):
                slow = valc.build_valc_part_slow(st.mcm, part)
            with tracer.span("constructions.normalize_extended"):
                norm = constructions.normalize_extended(dataclasses.replace(slow, max_delta=ell + 1))
            with tracer.span("constructions.speedup"):
                fast = constructions.speedup(slow, ell)
            counts.update(sizes("valc.part_slow", slow, f".p{part}"))
            counts.update(sizes("constructions.normalize", norm, f".p{part}"))
            counts.update(sizes("constructions.speedup", fast, f".p{part}"))
            parts.append(fast)
        with tracer.span("constructions.product_intersection") as sp:
            product = constructions.product_intersection(*parts)
            sp.n = len(product.transitions)
        counts.update(sizes("constructions.product", product))
        # drop each machine once used, as the CLI does, so the heap the
        # collector scans matches the commands being stood in for
        del parts, slow, norm, fast
        with tracer.span("core.rename_states"):
            renamed = core.rename_states(product)
        del product
        with tracer.span("formats.serialize_automaton") as sp:
            text = formats.serialize_automaton(renamed)
            sp.n = len(text.encode())
        del renamed
        with tracer.span("formats.parse_automaton") as sp:
            parsed = formats.parse_automaton(text)
            sp.n = text.count("\n")
        with tracer.span("reversibility.derive_reverse") as sp:
            verdict = reversibility.derive_reverse(parsed)
            sp.n = len(verdict.table.entries) if verdict.reversible else 0
        counts["reversibility.derive_entries"] = sp.n
        return counts, text

    # library spans that redo the work of the two CLI commands
    CLI_WORK = (
        "valc.build_valc_part_slow", "constructions.speedup", "constructions.product_intersection",
        "core.rename_states", "formats.serialize_automaton", "formats.parse_automaton",
        "reversibility.derive_reverse",
    )

    def profile(self, st, seconds: float, checks, tracer):
        clock = tracer.clock
        build, check, _ = self.cli_pair(checks, clock, tracer)
        extra = self.verify(st, checks)[1]
        cli_text = extra.pop("text")
        extra["probe_hash_seed"], extra["probe_sha256"] = self.hash_seed_probe()
        checks.check(extra["probe_sha256"] == extra["output_sha256"],
                     f"output differs under PYTHONHASHSEED={extra['probe_hash_seed']}")
        split = len(tracer.records)
        plain = [clock.calibrated(*timed(clock, self.pipeline, st, NULL)[0][:2]) for _ in passes(seconds / 2)]
        walls = []
        for _ in passes(seconds / 2):
            op, (counts, text) = timed(clock, self.pipeline, st, tracer)
            walls.append(clock.calibrated(*op[:2]))
            checks.check(text == cli_text, "library pipeline output differs from the CLI output")
        tot = calibrated_totals(tracer, split, len(walls))
        metrics = dict(counts)
        metrics.update(construction_metrics(tot))
        metrics.update(history_metrics(tot))
        serialize = tot["formats.serialize_automaton"]
        metrics.update({
            "core.rename_s": span_time(tot, "core.rename_states"),
            "formats.serialize_s": serialize["self_s"],
            "formats.serialize_bytes": serialize["items"],
            "formats.parse_s": span_time(tot, "formats.parse_automaton"),
            "formats.parse_lines_per_s": span_rate(tot, "formats.parse_automaton"),
            "cli.overhead_s": clock.calibrated(*build[:2]) + clock.calibrated(*check[:2])
            - sum(span_time(tot, n) for n in self.CLI_WORK),
            "trace.overhead_ratio": median(walls) / median(plain),
        })
        return metrics, extra


def construction_metrics(tot: dict) -> dict:
    return {
        "valc.part_slow_s": span_time(tot, "valc.build_valc_part_slow"),
        "constructions.normalize_s": span_time(tot, "constructions.normalize_extended"),
        "constructions.speedup_s": span_time(tot, "constructions.speedup"),
        "constructions.product_s": span_time(tot, "constructions.product_intersection"),
        "constructions.product_transitions_per_s": span_rate(tot, "constructions.product_intersection"),
        "reversibility.derive_s": span_time(tot, "reversibility.derive_reverse"),
        "reversibility.derive_entries_per_s": span_rate(tot, "reversibility.derive_reverse"),
    }


# ---------------------------------------------------------------------------
# workloads measured in passes over many small ops


class PassWorkload:
    """A workload whose measured phase repeats ``run_pass`` until the time is
    up.  Every op is recorded as (start, end, work items), the primary and
    the secondary kind in separate lists."""

    aliases: dict = {}  # end-to-end metric -> (name in this workload's terms, unit)

    def loop(self, st, seconds: float, checks, clock, tracer):
        rec = SimpleNamespace(ops=[], secondary=[], passes=0, accepted=0, attempted=0)
        for _ in passes(seconds):
            self.run_pass(st, checks, clock, tracer, rec)
            rec.passes += 1
        return rec

    def measure(self, st, seconds: float, checks, clock):
        rec = self.loop(st, seconds, checks, clock, NULL)
        rec.ops_per_pass = len(rec.ops) // rec.passes
        rec.counts = {}
        return rec

    def named(self, ops: list, secondary: list) -> dict:
        return {}

    def verify(self, st, checks) -> tuple[dict, dict]:
        return {}, {}

    def profile(self, st, seconds: float, checks, tracer):
        split = len(tracer.records)
        clock = tracer.clock
        plain = self.loop(st, seconds / 2, checks, clock, NULL)
        traced = self.loop(st, seconds / 2, checks, clock, tracer)
        self.verify(st, checks)
        tot = calibrated_totals(tracer, split, traced.passes)

        def op_seconds(rec):
            return sum(clock.calibrated(t0, t1) for t0, t1, _ in rec.ops + rec.secondary) / rec.passes

        metrics = self.layer_metrics(st, tot, traced)
        metrics["trace.overhead_ratio"] = op_seconds(traced) / op_seconds(plain)
        return metrics, {"share_base": traced.attempted // traced.passes}


class SimRoundtrip(PassWorkload):
    """Phase 1: forward run with trace, then step_back to the start, per
    (history, acceptor).  Phase 2: exhaustive verify_roundtrip sweeps."""

    name = "sim-roundtrip"
    aliases = {
        "op_p50_ms": ("history_p50_ms", "ms"),
        "op_tail_ms": ("history_tail_ms", "ms"),
        "primary_per_s": ("steps_per_s", "steps/s"),
        "secondary_per_s": ("sweep_words_per_s", "words/s"),
    }

    def setup(self, seed: int, tracer):
        rng = random.Random(seed)
        machine = load_mcm(tracer)
        counts = {}
        parts = []
        for part in (1, 2):
            with tracer.span("valc.build_valc_part_slow"):
                slow = valc.build_valc_part_slow(machine, part)
            with tracer.span("constructions.speedup"):
                fast = constructions.speedup(slow, valc.STATIONARY_BUDGET)
            counts.update(sizes("valc.part_slow", slow, f".p{part}"))
            counts.update(sizes("constructions.speedup", fast, f".p{part}"))
            parts.append(fast)
        with tracer.span("constructions.product_intersection") as sp:
            product = constructions.product_intersection(*parts)
            sp.n = len(product.transitions)
        counts.update(sizes("constructions.product", product))
        with tracer.span("witnesses.build_eq_ab"):
            sweep = [("eq-ab", witnesses.build_eq_ab())]
        for k in (3, 4):
            with tracer.span("witnesses.build_balanced"):
                sweep.append((f"balanced-{k}", witnesses.build_balanced(k)))
        acceptors = [("v1", parts[0]), ("v2", parts[1]), ("product", product)]
        tables = {}
        for name, m in acceptors + sweep:
            with tracer.span("reversibility.derive_reverse") as sp:
                verdict = reversibility.derive_reverse(m)
                sp.n = len(verdict.table.entries) if verdict.reversible else 0
            if not verdict.reversible:
                raise RuntimeError(f"{name} is not reversible")
            tables[name] = verdict.table
            with tracer.span("core.CounterAutomaton.table") as sp:
                sp.n = len(m.table)
            with tracer.span("reversibility.ReverseTable.move_for"):
                tables[name].move_for(m.initial, (core.ZERO,) * m.k)
        counts["reversibility.derive_entries"] = len(tables["product"].entries)
        histories = make_histories(machine, rng, tracer)
        ops = [(w, a) for w in range(len(histories)) for a in range(len(acceptors))]
        rng.shuffle(ops)
        return SimpleNamespace(
            histories=histories,
            acceptors=[(name, m, tables[name]) for name, m in acceptors],
            sweep=[(name, m, tables[name], SWEEP_LENGTHS[name]) for name, m in sweep],
            sweep_words={
                name: sum(len(m.alphabet) ** n for n in range(SWEEP_LENGTHS[name] + 1)) for name, m in sweep
            },
            ops=ops,
            counts=counts,
        )

    def run_pass(self, st, checks, clock, tracer, rec) -> None:
        accepted = {}
        every = len(st.ops) // SWEEP_ROUNDS
        for n, (w, a) in enumerate(st.ops):
            self.history_op(st, w, a, checks, clock, tracer, rec, accepted)
            if n % every == every - 1 and n // every < SWEEP_ROUNDS:
                self.sweep_op(st, checks, clock, tracer, rec)
        for w, h in enumerate(st.histories):
            v1, v2, both = (accepted[w, a] for a in range(3))
            checks.check(both == h.label, f"product verdict differs from valc_decide (history {w})")
            checks.check((v1 and v2) == both, f"product verdict differs from its factors (history {w})")

    def history_op(self, st, w, a, checks, clock, tracer, rec, accepted) -> None:
        h = st.histories[w]
        _, m, table = st.acceptors[a]
        t0 = clock.now()
        with tracer.span("sim.history_op"):
            with tracer.span("core.run") as sp:
                outcome = core.run(m, h.tokens, 2 * len(h.tokens) + 10, trace=True)
                sp.n = outcome.steps
            cfg = outcome.final
            with tracer.span("reversibility.step_back") as sp:
                for _ in range(outcome.steps):
                    cfg = reversibility.step_back(m, table, cfg)
                    if cfg is None:
                        break
                sp.n = outcome.steps
        rec.ops.append((t0, clock.now(), 2 * outcome.steps))
        rec.attempted += 1
        rec.accepted += outcome.accepted
        accepted[w, a] = outcome.accepted
        checks.check(cfg == m.initial_configuration(h.tokens), f"backward replay of op {w, a} misses the start")
        if h.golden:
            checks.check(outcome.accepted and outcome.steps <= len(h.tokens) + 2, f"golden i={h.i} on acceptor {a}")

    def sweep_op(self, st, checks, clock, tracer, rec) -> None:
        """verify_roundtrip on every word up to the length bound, per machine."""
        found = []
        t0 = clock.now()
        for name, m, table, max_len in st.sweep:
            with tracer.span(f"reversibility.verify_roundtrip[{name}]") as sp:
                found.append((name, reversibility.verify_roundtrip(m, table, max_len)))
                sp.n = st.sweep_words[name]
        rec.secondary.append((t0, clock.now(), sum(st.sweep_words.values())))
        for name, bad in found:
            checks.check(bad is None, f"verify_roundtrip fails on {name}: {bad and bad.word}")

    def verify(self, st, checks) -> tuple[dict, dict]:
        """Golden labels, and the letter-count oracle for every swept word."""
        check_histories(st.histories, checks)
        for name, m, _, max_len in st.sweep:
            letters = sorted(m.alphabet)
            words = list(core.all_words(letters, max_len))
            wrong = sum(
                core.accepts(m, word) != (len({word.count(ch) for ch in letters}) == 1) for word in words
            )
            checks.count(len(words), wrong, f"{name} verdicts against letter counts")
        return {}, {}

    def layer_metrics(self, st, tot: dict, rec) -> dict:
        metrics = dict(st.counts)
        metrics.update(construction_metrics(tot))
        metrics.update(history_metrics(tot))
        metrics.update({
            "core.table_build_s": span_time(tot, "core.CounterAutomaton.table"),
            "reversibility.move_index_s": span_time(tot, "reversibility.ReverseTable.move_for"),
            "core.run_s": span_time(tot, "core.run"),
            "core.run_steps_per_s": span_rate(tot, "core.run"),
            "reversibility.step_back_s": span_time(tot, "reversibility.step_back"),
            "reversibility.step_back_per_s": span_rate(tot, "reversibility.step_back"),
            "core.accept_share": rec.accepted / rec.attempted,
        })
        for name, *_ in st.sweep:
            metrics[f"reversibility.verify_roundtrip_words_per_s.{name}"] = span_rate(
                tot, f"reversibility.verify_roundtrip[{name}]"
            )
        return metrics


class LkDecide(PassWorkload):
    """decide_Lk against brute_force_Lk on every short word over abAB$ and
    on generated members with one-letter mutants."""

    name = "lk-decide"
    aliases = {
        "op_p50_ms": ("enum_op_p50_ms", "ms"),
        "op_tail_ms": ("enum_op_tail_ms", "ms"),
        "primary_per_s": ("enum_words_per_s", "words/s"),
        "secondary_per_s": ("member_words_per_s", "words/s"),
    }

    def setup(self, seed: int, tracer):
        rng = random.Random(seed)
        words = [
            "".join(w) for n in range(LK_MAX_LEN + 1) for w in itertools.product(LK_ALPHABET, repeat=n)
        ]
        rng.shuffle(words)
        members = []
        for k in LK_MEMBER_KS:
            for j in LK_MEMBER_JS:
                for i in range(1, k + 1):
                    for _ in range(LK_MEMBER_DRAWS):
                        with tracer.span("witnesses.gen_Lk_member") as sp:
                            word = witnesses.gen_Lk_member(k, j, i, rng.randrange(2**31))
                            sp.n = 1
                        pos = rng.randrange(len(word))
                        letter = rng.choice([c for c in LK_ALPHABET if c != word[pos]])
                        members.append((k, word, True))
                        members.append((k, word[:pos] + letter + word[pos + 1 :], None))
        rng.shuffle(members)
        return SimpleNamespace(
            enum=[words[i : i + LK_CHUNK] for i in range(0, len(words), LK_CHUNK)],
            members=[members[i : i + LK_MEMBER_CHUNK] for i in range(0, len(members), LK_MEMBER_CHUNK)],
        )

    def run_pass(self, st, checks, clock, tracer, rec) -> None:
        decide, brute = witnesses.decide_Lk, witnesses.brute_force_Lk
        for words in st.enum:
            t0 = clock.now()
            with tracer.span("lk.enum_op"):
                results = []
                for k in LK_ENUM_KS:
                    with tracer.span("witnesses.decide_Lk[enum]") as sp:
                        fast = [decide(k, w) for w in words]
                        sp.n = len(words)
                    with tracer.span("witnesses.brute_force_Lk[enum]") as sp:
                        slow = [brute(k, w) for w in words]
                        sp.n = len(words)
                    results.append((fast, slow))
            rec.ops.append((t0, clock.now(), len(words) * len(LK_ENUM_KS)))
            for fast, slow in results:
                rec.attempted += len(fast)
                rec.accepted += sum(fast)
                checks.count(len(fast), sum(a != b for a, b in zip(fast, slow)), "decide_Lk vs brute_force_Lk")
        for items in st.members:
            t0 = clock.now()
            with tracer.span("lk.member_op"):
                with tracer.span("witnesses.decide_Lk[member]") as sp:
                    fast = [decide(k, w) for k, w, _ in items]
                    sp.n = len(items)
                with tracer.span("witnesses.brute_force_Lk[member]") as sp:
                    slow = [brute(k, w) for k, w, _ in items]
                    sp.n = len(items)
            rec.secondary.append((t0, clock.now(), len(items)))
            wrong = sum(
                a != b or (expect is not None and a != expect)
                for (_, _, expect), a, b in zip(items, fast, slow)
            )
            checks.count(len(items), wrong, "members and mutants")

    def layer_metrics(self, st, tot: dict, rec) -> dict:
        return {
            "witnesses.decide_Lk_enum_words_per_s": span_rate(tot, "witnesses.decide_Lk[enum]"),
            "witnesses.brute_force_Lk_enum_words_per_s": span_rate(tot, "witnesses.brute_force_Lk[enum]"),
            "witnesses.decide_Lk_member_words_per_s": span_rate(tot, "witnesses.decide_Lk[member]"),
            "witnesses.brute_force_Lk_member_words_per_s": span_rate(tot, "witnesses.brute_force_Lk[member]"),
            "witnesses.gen_Lk_member_per_s": span_rate(tot, "witnesses.gen_Lk_member"),
            "witnesses.member_share": rec.accepted / rec.attempted,
        }


WORKLOADS = {w.name: w for w in (ValcBuild, SimRoundtrip, LkDecide)}
