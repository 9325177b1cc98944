"""Tests for the benchmark's own statistics and bookkeeping.

    python3 -m pytest bench/test_harness.py
"""

import json
import os

import pytest

import harness
from harness import Checks, Tracer, layer_totals, profile_totals, self_times, tail
from run import END_TO_END, PER_LAYER


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 201))  # 200 samples
    p, value, beyond = tail(samples)
    # p95 leaves exactly 10 above rank 190; p99 would leave only 2
    assert (p, value, beyond) == (95.0, 190, 10)


def test_tail_percentile_boundaries():
    assert harness.tail_percentile(19) is None  # p50 leaves 9 above
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(10_000) == 99.9


def test_tail_falls_back_to_max_on_few_samples():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_tail_percentile_fixed_by_one_pass():
    one_pass = [float(i) for i in range(100)]
    p, value, beyond = tail(one_pass * 3, n_choice=len(one_pass))
    assert p == 90.0  # chosen for 100 samples, not for 300
    assert beyond >= 10
    assert value == sorted(one_pass * 3)[270 - 1]


def test_checks_count_failures_against_attempts():
    checks = Checks(keep=2)
    assert checks.check(True, "fine")
    assert not checks.check(False, "first")
    checks.count(10, 3, "batch")
    checks.check(False, "third message is dropped")
    assert (checks.attempted, checks.failed) == (13, 5)
    assert checks.ratio == pytest.approx(5 / 13)
    assert checks.messages == ["first", "batch: 3 of 10 failed"]


def test_checks_ratio_without_attempts():
    assert Checks().ratio == 0.0


def test_self_time_subtracts_direct_children_only():
    # root 0..100; child 10..60 with a grandchild 20..50; child 70..90
    records = [
        (2, 1, "grandchild", 20, 50, 0),
        (1, 0, "child", 10, 60, 0),
        (3, 0, "child", 70, 90, 0),
        (0, None, "root", 0, 100, 0),
    ]
    assert self_times(records) == {0: 30, 1: 20, 2: 30, 3: 20}


def test_self_time_uses_the_given_duration():
    records = [(1, 0, "child", 0, 1, 0), (0, None, "root", 0, 3, 0)]
    doubled = self_times(records, lambda rec: 2 * (rec[4] - rec[3]))
    assert doubled == {0: 4, 1: 2}


def test_layer_totals_aggregate_by_name_and_scale_per_pass():
    records = [
        (1, 0, "leaf", 0.0, 2.0, 5),
        (0, None, "root", 0.0, 3.0, 0),
        (2, None, "leaf", 0.0, 1.0, 7),
    ]
    tot = layer_totals(records)
    assert tot["leaf"] == {"self_s": 3.0, "wall_s": 3.0, "items": 12, "calls": 2}
    assert tot["root"]["self_s"] == 1.0
    halved = layer_totals(records, scale=2)
    assert halved["leaf"]["self_s"] == 1.5


def test_profile_totals_count_setup_once_and_loop_per_pass():
    records = [
        (0, None, "setup", 0.0, 4.0, 1),
        (1, None, "op", 0.0, 2.0, 10),
        (2, None, "op", 0.0, 2.0, 10),
    ]
    tot = profile_totals(records, split=1, passes=2)
    assert tot["setup"]["self_s"] == 4.0
    assert tot["op"] == {"self_s": 2.0, "wall_s": 2.0, "items": 10, "calls": 1}


def test_tracer_records_parent_links():
    tracer = Tracer("run", harness.Clock())
    with tracer.span("outer"):
        with tracer.span("inner") as sp:
            sp.n = 4
    with tracer.span("next"):
        pass
    by_name = {rec[2]: rec for rec in tracer.records}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None and by_name["next"][1] is None
    assert by_name["inner"][5] == 4
    assert len({rec[0] for rec in tracer.records}) == 3
    assert tracer.dump()["run_id"] == "run"


def test_metric_lists_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_clock_scales_intervals_by_nearby_reference_samples():
    clock = harness.Clock()
    clock.stamps = [0.0, 1.0, 2.0, 10.0, 11.0]
    clock.samples = [0.001, 0.001, 0.001, 0.004, 0.004]
    nominal = harness.REFERENCE_NOMINAL_S
    assert clock.calibrated(0.5, 1.5) == pytest.approx(1.0 * nominal / 0.001)
    assert clock.calibrated(10.2, 10.4) == pytest.approx(0.2 * nominal / 0.004)
