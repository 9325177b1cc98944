"""revca benchmark: one workload per run, one process, one thread.

    python3 bench/run.py --workload valc-build --seed 1 --seconds 10 --trace 0

Run from the repository root; revca is imported from ./src.  With --trace 0
the last line of stdout is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a profiled run.  Lines before it
give the run's context and every metric by name with its unit.  A full record
of each run, and the spans of a traced one, go under .bench_out/.  Any failed
oracle check makes the exit code 1.  Times are calibrated against a reference
loop sampled during the run; bench/DESIGN.md explains this and every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from statistics import median

from harness import Checks, Clock, NullTracer, Tracer, rate, tail

SETUP_REPEATS = 3  # at least this many set-ups per run ...
SETUP_SECONDS = 1.0  # ... and more until they took this long in all

# name: (unit, better); the same list as "end_to_end" in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "primary_per_s": ("1/s", "higher"),
    "secondary_per_s": ("1/s", "higher"),
}

# the same list as "per_layer" in BENCHMARK.json
PER_LAYER = {
    "valc.part_slow_s": ("s", "lower"),
    "valc.part_slow_states.p1": ("count", "lower"),
    "valc.part_slow_states.p2": ("count", "lower"),
    "valc.part_slow_transitions.p1": ("count", "lower"),
    "valc.part_slow_transitions.p2": ("count", "lower"),
    "constructions.normalize_s": ("s", "lower"),
    "constructions.normalize_states.p1": ("count", "lower"),
    "constructions.normalize_states.p2": ("count", "lower"),
    "constructions.normalize_transitions.p1": ("count", "lower"),
    "constructions.normalize_transitions.p2": ("count", "lower"),
    "constructions.speedup_s": ("s", "lower"),
    "constructions.speedup_states.p1": ("count", "lower"),
    "constructions.speedup_states.p2": ("count", "lower"),
    "constructions.speedup_transitions.p1": ("count", "lower"),
    "constructions.speedup_transitions.p2": ("count", "lower"),
    "constructions.product_s": ("s", "lower"),
    "constructions.product_states": ("count", "lower"),
    "constructions.product_transitions": ("count", "lower"),
    "constructions.product_transitions_per_s": ("transitions/s", "higher"),
    "core.rename_s": ("s", "lower"),
    "formats.serialize_s": ("s", "lower"),
    "formats.serialize_bytes": ("B", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.parse_lines_per_s": ("lines/s", "higher"),
    "reversibility.derive_s": ("s", "lower"),
    "reversibility.derive_entries": ("count", "lower"),
    "reversibility.derive_entries_per_s": ("entries/s", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "core.table_build_s": ("s", "lower"),
    "reversibility.move_index_s": ("s", "lower"),
    "core.run_s": ("s", "lower"),
    "core.run_steps_per_s": ("steps/s", "higher"),
    "reversibility.step_back_s": ("s", "lower"),
    "reversibility.step_back_per_s": ("steps/s", "higher"),
    "reversibility.verify_roundtrip_words_per_s.eq-ab": ("words/s", "higher"),
    "reversibility.verify_roundtrip_words_per_s.balanced-3": ("words/s", "higher"),
    "reversibility.verify_roundtrip_words_per_s.balanced-4": ("words/s", "higher"),
    "core.accept_share": ("ratio", "higher"),
    "valc.encode_tokens_per_s": ("tokens/s", "higher"),
    "valc.decide_tokens_per_s": ("tokens/s", "higher"),
    "witnesses.decide_Lk_enum_words_per_s": ("words/s", "higher"),
    "witnesses.brute_force_Lk_enum_words_per_s": ("words/s", "higher"),
    "witnesses.decide_Lk_member_words_per_s": ("words/s", "higher"),
    "witnesses.brute_force_Lk_member_words_per_s": ("words/s", "higher"),
    "witnesses.gen_Lk_member_per_s": ("members/s", "higher"),
    "witnesses.member_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["valc-build", "sim-roundtrip", "lk-decide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    h = hashlib.sha256()
    root = os.path.join("src", "revca")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "loop": "closed, 1 client, 1 thread",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, args, checks):
    clock = Clock()
    clock.start()
    setups = []
    state = None
    while len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_SECONDS:
        state = None
        gc.collect()
        t0 = clock.now()
        state = workload.setup(args.seed, NullTracer())
        setups.append((t0, clock.now()))
    m = workload.measure(state, args.seconds, checks, clock)
    rss = peak_rss_mb()
    clock.stop()
    counts, extra = workload.verify(state, checks)
    extra.pop("text", None)

    ops = [clock.calibrated(t0, t1) for t0, t1, _ in m.ops]
    secondary = [clock.calibrated(t0, t1) for t0, t1, _ in m.secondary]
    p, tail_s, beyond = tail(ops, m.ops_per_pass)
    metrics = {
        "setup_s": median([clock.calibrated(*iv) for iv in setups]),
        "peak_rss_mb": rss,
        "op_p50_ms": median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        # medians of per-op rates: robust to the few ops a speed dip hits
        "primary_per_s": median([rate(op[2], d) for op, d in zip(m.ops, ops)]),
        "secondary_per_s": median([rate(op[2], d) for op, d in zip(m.secondary, secondary)]),
    }
    named = {}
    for key, value in metrics.items():
        name, unit = workload.aliases.get(key, (key, END_TO_END[key][0]))
        named[name] = (value, unit)
    named.update(workload.named(ops, secondary))
    named.update({name: (value, "count") for name, value in m.counts.items()})
    named.update(counts)
    named["fail_ratio"] = (checks.ratio, "ratio")
    raw_ops = [t1 - t0 for t0, t1, _ in m.ops]
    extra.update(
        setups=len(setups),
        ops=len(ops),
        tail_percentile=p,
        tail_samples_beyond=beyond,
        uncalibrated_op_p50_ms=median(raw_ops) * 1e3,
        uncalibrated_setup_s=median([b - a for a, b in setups]),
        reference_samples=len(clock.samples),
        reference_median_s=median(clock.samples),
    )
    return metrics, named, extra


def per_layer(workload, args, checks):
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    clock = Clock()
    clock.start()
    tracer = Tracer(run_id, clock)
    state = workload.setup(args.seed, tracer)
    layer, extra = workload.profile(state, args.seconds, checks, tracer)
    clock.stop()
    metrics = {name: layer.get(name, 0) for name in PER_LAYER}
    unknown = set(layer) - set(PER_LAYER)
    if unknown:
        fail(f"layer metrics missing from PER_LAYER: {sorted(unknown)}")
    path = os.path.join(".bench_out", "traces", f"{run_id}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    extra = dict(extra, spans=len(tracer.records), spans_file=path)
    named = {name: (value, PER_LAYER[name][0]) for name, value in metrics.items()}
    named["fail_ratio"] = (checks.ratio, "ratio")
    return metrics, named, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (os.path.join("src", "revca", "__init__.py"), os.path.join("machines", "hartmanis.mcm")):
        if not os.path.isfile(path):
            fail(f"{path} not found; run from the root of a revca checkout")
    # a fixed hash seed per workload seed makes a run repeatable; re-exec once to apply it
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], dict(os.environ, PYTHONHASHSEED=hash_seed))

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import revca

    if not os.path.abspath(revca.__file__).startswith(src + os.sep):
        fail(f"revca imported from {revca.__file__}, not from ./src")
    from workloads import OUT_DIR, WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    checks = Checks()
    ctx = context(args)
    if args.trace:
        metrics, named, extra = per_layer(workload, args, checks)
        units = PER_LAYER
    else:
        metrics, named, extra = end_to_end(workload, args, checks)
        units = END_TO_END
    record = {
        "context": ctx,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "extra": extra,
    }
    path = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("context " + json.dumps(ctx))
    for name, (value, unit) in named.items():
        print(f"{name} {value} {unit}")
    for key, value in extra.items():
        print(f"# {key} {value}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
