"""Tests for the benchmark's own logic (no sysbound processes)."""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import pytest

import bench_checks
import bench_inputs
import bench_reference
import bench_trace
import run


def _span(sid, parent, start, end, layer="graded", name="graded.f", op=0):
    return (sid, parent, layer, name, op, start, end)


def test_self_time_on_synthetic_tree():
    spans = [
        _span(0, -1, 0, 100, "cli", "cli.run_command"),
        _span(1, 0, 10, 40, "catalog", "catalog.projective_space"),
        _span(2, 1, 15, 25),
        _span(3, 1, 20, 35),            # overlaps its sibling: union 15..35
        _span(4, 0, 50, 90, "engine", "engine.length"),
        _span(5, 4, 80, 120),           # runs past its parent: clipped at 90
    ]
    selfs = bench_trace.self_times(spans)
    assert selfs == {0: 100 - 30 - 40, 1: 30 - 20, 2: 10, 3: 15,
                     4: 40 - 10, 5: 40}
    # properly nested spans attribute every instant of the root once
    nested = spans[:3] + [spans[4]]
    assert sum(bench_trace.self_times(nested).values()) == 100


def test_summarize_layers_counts_and_repeats():
    spans = [
        _span(0, -1, 0, 100, "cli", "cli.command.length", op=0),
        _span(1, 0, 10, 50, "catalog", "catalog.projective_space", op=0),
        _span(2, 1, 20, 30, "graded", "graded.make_ring", op=0),
        _span(3, -1, 100, 200, "cli", "cli.command.length", op=1),
        _span(4, 3, 110, 150, "catalog", "catalog.projective_space", op=1),
        _span(5, -1, 200, 300, "lattices", "lattices.successive_minima", op=2),
        _span(6, -1, 300, 400, "lattices", "lattices.successive_minima", op=2),
        _span(7, -1, 400, 500, "lattices", "lattices.successive_minima", op=3),
    ]
    keys = {"1": ["projective_space", "3"], "4": ["projective_space", "3"],
            "5": ["B", "G"], "6": ["B", "G"], "7": ["B", "G"]}
    trace = {"spans": spans, "keys": keys,
             "counters": {"graded.ring_products": 7}}
    metrics, layer_self = bench_trace.summarize([json.loads(json.dumps(trace))])
    assert metrics["catalog.builds"] == 2
    assert metrics["catalog.build_repeat_ratio"] == 0.5
    assert metrics["catalog.build_ms"] == (30 + 40) / 1e6
    assert metrics["graded.self_ms"] == 10 / 1e6
    assert metrics["graded.ring_products"] == 7
    # the second call in op 2 repeats a Gram matrix; op 3 starts afresh
    assert metrics["lattices.minima_calls"] == 3
    assert metrics["lattices.minima_repeat_ratio"] == 1 / 3
    assert layer_self["cli"] == ((100 - 40) + (100 - 40)) / 1e6


def test_batch_wait_is_not_cli_self_time():
    # a batch process's run_command span covers its reads of stdin
    spans = [
        _span(0, -1, 0, 1000, "cli", "cli.run_command"),
        _span(1, 0, 100, 200, "cli", "cli.command.length", op=0),
        _span(2, 1, 120, 180, "catalog", "catalog.projective_space", op=0),
        _span(3, 0, 600, 700, "cli", "cli.command.length", op=1),
    ]
    trace = {"spans": spans, "keys": {"2": ["projective_space", "3"]},
             "counters": {}}
    metrics, _ = bench_trace.summarize([trace])
    assert metrics["cli.self_ms"] == (1000 - 200 + 40 + 100) / 1e6
    metrics, layer_self = bench_trace.summarize(
        [dict(trace, waiting=["cli.run_command"])])
    assert metrics["cli.self_ms"] == (40 + 100) / 1e6
    assert layer_self["catalog"] == 60 / 1e6


def test_tail_percentile_rule():
    for n in (20, 33, 40, 78, 104, 600, 1000, 5000):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert p == 99 or n * (100 - (p + 1)) / 100 < 10
    assert run.tail_percentile(33) == 69
    assert run.tail_percentile(600) == 98
    assert run.tail_percentile(5000) == 99
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90.1


def _fake_outcomes():
    return {bench_inputs.batch_key(c): {
        d: {"kind": "err" if i % 7 == 0 else "ok", "cost": (i * 13) % 17}
        for i, d in enumerate(bench_inputs.BATCH_POOL)}
        for c in bench_inputs.BATCH_COMMANDS}


def _fake_costs():
    return {kind: [float((i * 37) % 11) for i in range(
        bench_inputs.LATTICE_POOL_SIZE)] for kind in bench_inputs.LATTICE_KINDS}


def _take(gen, n):
    return list(itertools.islice(gen, n))


def test_same_seed_same_inputs():
    golden = _fake_outcomes()
    costs = _fake_costs()
    for seed in (1, 7):
        assert _take(bench_inputs.cli_rounds(seed), 3) == \
            _take(bench_inputs.cli_rounds(seed), 3)
        assert _take(bench_inputs.batch_rounds(seed, golden), 2) == \
            _take(bench_inputs.batch_rounds(seed, golden), 2)
        assert _take(bench_inputs.lattice_rounds(seed, costs), 4) == \
            _take(bench_inputs.lattice_rounds(seed, costs), 4)
    assert bench_inputs.lattice_pool() == bench_inputs.lattice_pool()
    assert _take(bench_inputs.batch_rounds(1, golden), 1) != \
        _take(bench_inputs.batch_rounds(2, golden), 1)
    assert _take(bench_inputs.lattice_rounds(1, costs), 2) != \
        _take(bench_inputs.lattice_rounds(2, costs), 2)


def test_batch_stream_shares():
    golden = _fake_outcomes()
    (round_,) = _take(bench_inputs.batch_rounds(3, golden), 1)
    assert sorted(c for c, _ in round_) == sorted(bench_inputs.BATCH_COMMANDS)
    for command, stream in round_:
        table = golden[bench_inputs.batch_key(command)]
        assert len(stream) == bench_inputs.BATCH_LINES
        errors = sum(table[d]["kind"] == "err" for d in stream)
        assert errors == round(bench_inputs.BATCH_LINES
                               * bench_inputs.BATCH_ERROR_SHARE)
        repeats = len(stream) - len(set(stream))
        assert abs(repeats / len(stream)
                   - bench_inputs.BATCH_REPEAT_SHARE) < 0.02


def test_lattice_draws_visit_every_cost_bin():
    costs = _fake_costs()
    rounds = _take(bench_inputs.lattice_rounds(5, costs),
                   bench_inputs.LATTICE_BINS)
    bins = bench_inputs.cost_bins(costs["e5"], bench_inputs.LATTICE_BINS)
    hit = sorted(next(b for b, members in enumerate(bins) if pos in members)
                 for round_ in rounds for kind, pos in round_ if kind == "e5")
    assert hit == list(range(bench_inputs.LATTICE_BINS))


def test_corrupted_output_counts_as_failure():
    stats = run.Stats()
    entry = {"kind": "ok", "out": '{\n  "space": "CP(2)",\n  "todd_genus": '
             '{\n    "numerator": 1,\n    "denominator": 1,\n'
             '    "pi_exponent": 0\n  }\n}\n'}
    key = "todd"
    stats.record(0.01, bench_checks.check_batch_line(
        entry, key, "CP(2)", "ok", entry["out"]))
    stats.record(0.01, bench_checks.check_batch_line(
        entry, key, "CP(2)", "ok", entry["out"].replace("1,", "2,", 1)))
    stats.record(0.01, bench_checks.check_batch_line(
        entry, key, "CP(2)", "err", "error: boom\n"))
    cli_entry = {"argv": ["catalog"], "code": 0, "stdout": "x\n"}
    stats.record(0.5, bench_checks.check_cli(cli_entry, 0, b"x\n", b""))
    stats.record(0.5, bench_checks.check_cli(cli_entry, 0, b"y\n", b""))
    stats.record(0.5, bench_checks.check_cli(cli_entry, 1, b"x\n", b""))
    assert (stats.attempted, stats.failed) == (6, 4)
    assert len(stats.failures) == 4


def test_unanswered_requests_count_as_failed():
    stats = run.Stats()
    stats.record(0.01, None)
    run._missing(stats, "lattice", 3, 36)
    run._missing(stats, "pushforward", 40, 40)
    stats.fail("batch process ended mid-request", 5)
    assert (stats.attempted, stats.failed) == (1 + 33 + 5, 33 + 5)
    assert len(stats.latencies) == 1


def test_closed_forms_catch_a_wrong_value():
    # a golden file that itself records a wrong Todd genus still fails
    text = ('{\n  "space": "CP(4)",\n  "todd_genus": {\n    "numerator": 2,'
            '\n    "denominator": 1,\n    "pi_exponent": 0\n  }\n}\n')
    entry = {"kind": "ok", "out": text}
    assert bench_checks.check_batch_line(entry, "todd", "CP(4)", "ok", text)


def test_lattice_checks_reject_corruption():
    spec = {"kind": "euclidean", "rank": 2, "basis": [[1, 0], [0, 2]]}
    good = {"minima": ["1", "4"],
            "transference": {"l1": "1", "lr_dual": "1", "product": "1"},
            "dual_vectors": [["1", "0"], ["0", "1/2"]],
            "dual_norms": ["1", "1/4"], "lambda1": "1"}
    assert bench_checks.check_lattice(spec, good) is None
    bad = json.loads(json.dumps(good))
    bad["dual_vectors"][1] = ["0", "1"]          # not in the dual lattice
    assert bench_checks.check_lattice(spec, bad)
    bad = json.loads(json.dumps(good))
    bad["minima"] = ["4", "1"]
    assert bench_checks.check_lattice(spec, bad)
    assert bench_checks.check_lattice(spec, good, dict(good, lambda1="2"))


def test_batch_exit_rule_and_importtime_parse():
    assert bench_checks.expected_batch_exit(["ok", "ok"]) == 0
    assert bench_checks.expected_batch_exit(["ok", "err", "ok"]) == 1
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       454 |      84524 |     sympy.polys\n"
            "import time:      1374 |     294932 |   sympy\n"
            "import time:       618 |     368844 | sysbound\n")
    assert bench_trace.parse_importtime(text) == {
        "sysbound": 368.844, "sympy": 294.932, "numpy": 0.0}


def test_request_time_is_cpu_time_not_waiting(tmp_path, monkeypatch):
    # a child that only sleeps: its wall time grows, its CPU time does not
    sleep = [sys.executable, "-c", "import time; time.sleep(0.5)"]
    monkeypatch.setattr(run, "WORK", tmp_path)
    proc = run.run_proc(sleep)
    assert proc.code == 0 and proc.wall >= 0.5
    assert proc.cpu < proc.wall - 0.3
    child = subprocess.Popen(sleep)
    try:
        clock = run.cpu_clock(child.pid)
        before = time.clock_gettime_ns(clock)
        time.sleep(0.3)
        assert time.clock_gettime_ns(clock) - before < 0.1e9
    finally:
        child.wait()


def test_reference_computation_and_scaling():
    from fractions import Fraction
    b = bench_reference.kernel(12)
    assert (b[0], b[1], b[2], b[3], b[12]) == (
        1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-691, 2730))
    timeline = bench_reference.Timeline()
    assert timeline.mark() == (-1, 1)
    assert timeline.sample() is not None
    assert timeline.sample() is None          # less than GAP_S later
    assert timeline.sample(force=True) is not None
    # a time is scaled by the mean of the samples around it: a host at half
    # the reference speed doubles CPU times, and scaling undoes it
    ref = bench_reference.REFERENCE_S
    timeline.samples = [2 * ref, 4 * ref, ref]
    assert timeline.mark() == (2, 4)
    assert timeline.mark(inside=1) == (1, 4)
    assert timeline.scaled([1.0, 1.0, 1.0, 1.0],
                           [(0, 2), (1, 3), (2, 4), (0, 3)]) == [
        1 / 3, 0.4, 1.0, 3 / 7]
    with pytest.raises(ValueError):
        timeline.scaled([1.0], [(-1, 1)])


def test_child_reference_rows_are_not_requests():
    stats = run.Stats()
    out = b'{"reference": 0.04}\n{"case": [1, 2, 1], "latency": 0.1}\n'
    proc = run.Proc(0, out, b"", 1.0, _usage())
    rows = run._json_lines(proc, stats, "pushforward")
    assert rows == [{"case": [1, 2, 1], "latency": 0.1, "mark": (0, 2)}]
    assert stats.reference.samples == [0.04] and stats.failed == 0


def _usage():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF)
