"""Measured child processes of the benchmark.

    python bench_child.py cli ARGS...            one traced CLI invocation
    python bench_child.py lattices SEED BLOCK ROUNDS
    python bench_child.py pool                   every pool lattice once
    python bench_child.py pushforward            the r <= 5 table once

The lattice and pushforward modes call the public API in a fresh process
and print one JSON line per operation: its wall and CPU latency and its
results.  Between operations, at most every GAP_S, they print a line with
the CPU time of the reference computation (see bench_reference).  When
the environment names a span file in PERFBENCH_SPANS, the process wraps the
sysbound modules (see bench_trace) and writes its spans there on exit.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import bench_inputs
import bench_reference
import bench_trace


def _start():
    """Import sysbound (timed), installing the tracer when asked to."""
    path = os.environ.get("PERFBENCH_SPANS")
    rec = bench_trace.Recorder() if path else None
    start = time.perf_counter_ns()
    import sysbound  # noqa: F401
    end = time.perf_counter_ns()
    if rec is not None:
        rec.add("import", "import.sysbound", start, end)
        bench_trace.install(rec)
    return rec, path


def _reference(timeline, force=False):
    """Time the reference computation when a sample is due; True if it was."""
    dt = timeline.sample(force)
    if dt is not None:
        print(json.dumps({"reference": dt}))
    return dt is not None


def _finish(rec, path):
    if rec is not None:
        rec.dump(path)


def _strs(values):
    return [str(v) for v in values]


def lattice_op(lattices, spec, between=lambda: None):
    """The ``lattice`` subcommand's sequence: minima, transference, duals.
    ``between`` runs between the calls."""
    r = spec["rank"]
    if spec["kind"] == "euclidean":
        lat = lattices.NormedLattice(
            basis=spec["basis"],
            gram=[[int(i == j) for j in range(r)] for i in range(r)])
    else:
        lat = lattices.NormedLattice(basis=spec["basis"],
                                     vertices=spec["vertices"])
    minima = []
    for j in range(1, r + 1):
        minima.append(str(lattices.successive_minima(lat, j)))
        between()
    out = {"minima": minima}
    if spec["kind"] == "euclidean":
        rep = lattices.transference_check(lat)
        between()
        out["transference"] = {"l1": str(rep.lambda1_sq),
                               "lr_dual": str(rep.dual_lambda_r_sq),
                               "product": str(rep.product_sq)}
    red = lattices.reduced_dual_basis(lat)
    out["dual_vectors"] = [_strs(v) for v in red.vectors]
    out["dual_norms"] = _strs(red.dual_norms)
    out["lambda1"] = str(red.lambda1)
    return out


def _lattice_request(lattices, errors, spec, rec, timeline=None):
    """Run one request; return its (wall, CPU, samples inside), result and
    error.  A rank-5 request takes about a second, while the host's speed
    can change within one, so reference samples that fall due between its
    calls are taken there; their time is not the request's."""
    if rec is not None:
        rec.begin_op()
    inside = [0.0, 0.0, 0]

    def between():
        t, c = time.perf_counter(), time.process_time()
        if timeline is not None and _reference(timeline):
            inside[0] += time.perf_counter() - t
            inside[1] += time.process_time() - c
            inside[2] += 1

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result, error = lattice_op(lattices, spec, between), None
    except errors.CalculatorError as exc:
        result, error = None, "%s: %s" % (type(exc).__name__, exc)
    return (time.perf_counter() - t0 - inside[0],
            time.process_time() - c0 - inside[1], inside[2]), result, error


def run_lattices(seed, block, rounds):
    """Block ``block`` of the seed's stream of lattice rounds: its rounds
    ``block * rounds`` up to ``(block + 1) * rounds``."""
    rec, path = _start()
    from sysbound import errors, lattices
    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as fh:
        recorded = json.load(fh)["lattices"]
    costs = {kind: [e["cost"] for e in entries]
             for kind, entries in recorded.items()}
    pool = bench_inputs.lattice_pool()
    stream = bench_inputs.lattice_rounds(seed, costs)
    timeline = bench_reference.Timeline()
    for round_ in itertools.islice(stream, block * rounds,
                                   (block + 1) * rounds):
        for kind, pos in round_:
            _reference(timeline)
            (dt, cpu, inside), result, error = _lattice_request(
                lattices, errors, pool[kind][pos], rec, timeline)
            print(json.dumps({"kind": kind, "index": pos, "latency": dt,
                              "cpu": cpu, "samples_inside": inside,
                              "result": result, "error": error}))
    _reference(timeline, force=True)
    sys.stdout.flush()
    _finish(rec, path)


def run_pool():
    """Every pool lattice once, in pool order (for recording)."""
    rec, path = _start()
    from sysbound import errors, lattices
    for kind, specs in bench_inputs.lattice_pool().items():
        for pos, spec in enumerate(specs):
            (dt, cpu, _), result, error = _lattice_request(lattices, errors,
                                                           spec, rec)
            print(json.dumps({"kind": kind, "index": pos, "latency": dt,
                              "cpu": cpu, "result": result, "error": error}))
    sys.stdout.flush()
    _finish(rec, path)


def run_pushforward():
    rec, path = _start()
    from sysbound import errors, pushforward
    timeline = bench_reference.Timeline()
    for case in bench_inputs.PUSHFORWARD_CASES:
        _reference(timeline)
        if rec is not None:
            rec.begin_op()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value, error = str(pushforward.primitive_coefficient(*case)), None
        except errors.CalculatorError as exc:
            value, error = None, "%s: %s" % (type(exc).__name__, exc)
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(json.dumps({"case": case, "latency": dt, "cpu": cpu,
                          "value": value, "error": error}))
    _reference(timeline, force=True)
    sys.stdout.flush()
    _finish(rec, path)


def run_cli(argv):
    rec, path = _start()
    from sysbound import cli
    if rec is not None and "--batch" in argv:
        # the batch loop blocks on stdin between lines: only the handler
        # spans inside it are the program's work
        rec.waiting.add("cli.run_command")
    try:
        code = cli.run_command(argv)
    finally:
        sys.stdout.flush()
        _finish(rec, path)
    sys.exit(code)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        run_cli(rest)
    elif mode == "lattices":
        run_lattices(int(rest[0]), int(rest[1]), int(rest[2]))
    elif mode == "pool":
        run_pool()
    elif mode == "pushforward":
        run_pushforward()
    else:
        raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv[1:])
