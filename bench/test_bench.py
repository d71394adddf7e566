"""Self-tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import tracer  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate(tmp_path / "a", 7, 6, 9, plug_load=True)
    b = gen.generate(tmp_path / "b", 7, 6, 9, plug_load=True)
    c = gen.generate(tmp_path / "c", 8, 6, 9, plug_load=True)
    assert a == b
    assert set(a["sha256"]) == {"truth_states.csv", "zone_map.csv", "lighting.csv",
                                "plug_load.csv"}
    assert a["sha256"] != c["sha256"]


def test_generated_schedules_are_absent_on_weekends():
    states = gen.schedules(8, 14, np.random.default_rng(0))
    days = states.reshape(8, 14, gen.STEPS_PER_DAY)
    assert np.all(days[:, [5, 6, 12, 13]] == 1)
    assert np.all(np.isin(days[:, :5], [1, 2, 3]))
    assert np.any(days[:, :5] == 3) and np.any(days[:, :5] == 2)


def test_oracle_holds_light_after_motion():
    states = np.ones((2, gen.STEPS_PER_DAY * 7), dtype=np.int8)
    states[0, 40] = 3  # Monday 10:00; weekday hold is two steps
    hourly = gen.oracle_hourly(states, np.array([0, 1]), 2)
    lit, standby = gen.LIT_W * 0.25, gen.STANDBY_W * 0.25
    assert hourly[0, 10] == 3 * lit + standby  # steps 40, 41, 42 lit; 43 not
    assert hourly[0, 9] == 4 * standby
    assert np.all(hourly[1] == 4 * standby)


def _span(name, start, end, parent, **count):
    span = {"name": name, "start": start, "end": end, "parent": parent}
    if count:
        span["count"] = count
    return span


def test_self_time_is_span_minus_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0, rows=5),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("a", 7.5, 8.0, 0, rows=2),
    ]
    agg = tracer.summarize(spans)
    assert agg["root"]["self_s"] == 10.0 - (3.0 + 2.0 + 0.5)
    assert agg["a"]["self_s"] == (3.0 - 1.0) + 0.5
    assert agg["a"]["s"] == 3.5 and agg["a"]["calls"] == 2
    assert agg["a"]["counts"] == {"rows": 7}
    assert agg["leaf"]["self_s"] == 1.0


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span("p", 0.0, 4.0, -1), _span("c", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert tracer.summarize(spans)["p"]["self_s"] == 1.0


def test_recursive_span_counts_outermost_time_once():
    spans = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0)]
    agg = tracer.summarize(spans)["f"]
    assert agg["s"] == 4.0 and agg["self_s"] == 4.0 and agg["calls"] == 2


def test_wrapped_calls_nest_and_count_ancestors():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3 and inner(0) == 1
    names = [(s["name"], s["parent"]) for s in t.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0), ("inner", -1)]
    assert tracer.calls_under(t.spans, "inner", "outer") == 2


def test_benchmark_json_matches_the_metrics_run_prints():
    import run

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_end_to_end_times_are_scaled_by_the_host_probe():
    import run

    fast = {"wall_s": 2.0, "setup_s": 0.5, "probe_s": run.PROBE_REF_S, "maxrss_kib": 2048}
    slow = {"wall_s": 3.0, "setup_s": 0.75, "probe_s": 1.5 * run.PROBE_REF_S, "maxrss_kib": 2048}
    metrics = run.end_to_end([fast, slow, fast])
    assert metrics["wall_s"]["value"] == 2.0
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["peak_rss_mb"]["value"] == 2.0
