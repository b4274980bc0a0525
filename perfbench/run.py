"""The sysbound benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.  Each
workload is a closed loop with one client: the next request goes out when
the previous one has completed.  Workloads:

    cli-cold       cold ``python -m sysbound`` processes, one per request,
                   cycling through one invocation of each of the 11
                   subcommands in seeded order
    batch-spaces   ``sysbound <cmd> --batch --format json`` processes fed one
                   descriptor per request on stdin, for five commands
    lattices       fresh processes calling the public API, a request being
                   the ``lattice`` subcommand's sequence on one lattice:
                   Euclidean ranks 2-5 uniformly, plus two polytope norms
    pushforward-table
                   the primitive-coefficient table for r <= 5 (40 requests,
                   in table order) in a fresh process, so its caches start
                   empty

Latencies and set-up times are CPU time of the measured process, not wall
time: every measured process is single-threaded and CPU-bound, so on an idle
machine the two agree, while on a shared host wall time adds the wait for a
processor.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run (see
bench_trace).  Every output is checked: against outputs recorded before any
change (golden.json) and against closed forms computed here.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import functools
import itertools
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import bench_checks
import bench_inputs
import bench_reference
import bench_trace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1

#: setup_s launches: one between units of work once this long has passed
#: since the last, one at the end, and at least SETUP_MIN_LAUNCHES in all
SETUP_GAP_S = 6.0
SETUP_MIN_LAUNCHES = 3
IMPORTTIME_LAUNCHES = 3
REQUEST_TIMEOUT_S = 120

#: a round of the lattices workload is one cycle through the cost bins,
#: split over this many fresh processes
LATTICE_BLOCKS = 2
LATTICE_BLOCK_ROUNDS = bench_inputs.LATTICE_BINS // LATTICE_BLOCKS

#: requests in one round of each workload; a run is whole rounds
ROUND_REQUESTS = {
    "cli-cold": len(bench_inputs.CLI_INVOCATIONS),
    "batch-spaces": len(bench_inputs.BATCH_COMMANDS) * bench_inputs.BATCH_LINES,
    "lattices": bench_inputs.LATTICE_BINS * bench_inputs.LATTICE_ROUND_SIZE,
    "pushforward-table": len(bench_inputs.PUSHFORWARD_CASES),
}
#: rounds every run makes at least: 33, 1200, 72 and 40 requests
MIN_ROUNDS = {"cli-cold": 3, "batch-spaces": 2, "lattices": 1,
              "pushforward-table": 1}
WORKLOADS = tuple(ROUND_REQUESTS)


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if min_samples * (100 - p) / 100 >= 10:
            return p
    raise ValueError("need at least 20 samples for a tail percentile")


#: the tail percentile of each workload, fixed by its minimum request count
TAIL = {w: tail_percentile(MIN_ROUNDS[w] * ROUND_REQUESTS[w])
        for w in WORKLOADS}


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the ellipsoid fit must not start one per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PERFBENCH_SPANS", None)
    env.update(extra or {})
    return env


class Proc:
    """Outcome of one finished child process."""

    def __init__(self, code, stdout, stderr, wall, usage):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def _reap(popen):
    """Wait for a child, returning (exit code, its rusage)."""
    _, status, usage = os.wait4(popen.pid, 0)
    popen.returncode = os.waitstatus_to_exitcode(status)
    return popen.returncode, usage


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)


def cpu_clock(pid):
    """The clock id of a child's CPU time (all its threads, in ns)."""
    clock = ctypes.c_int()
    err = _LIBC.clock_getcpuclockid(pid, ctypes.byref(clock))
    if err:
        raise OSError(err, os.strerror(err))
    return clock.value


def run_proc(argv, stdin=b"", env=None, timeout=REQUEST_TIMEOUT_S):
    """Run a child to completion; wall time is launch to exit."""
    out_path = WORK / "stdout"
    err_path = WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        popen = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=out,
                                 stderr=err, cwd=ROOT, env=env or child_env())
        timer = threading.Timer(timeout, popen.kill)
        timer.start()
        try:
            try:
                popen.stdin.write(stdin)
                popen.stdin.close()
            except BrokenPipeError:
                pass
            code, usage = _reap(popen)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return Proc(code, out_path.read_bytes(), err_path.read_bytes(), wall,
                usage)


def sysbound_argv(args):
    return [sys.executable, "-m", "sysbound", *args]


def child_argv(*args):
    return [sys.executable, str(BENCH / "bench_child.py"), *map(str, args)]


class Stats:
    """Requests and their outcomes for one measured pass.

    A request's latency is the CPU time the program spends on it; its wall
    time, which adds the time the program waited for a processor of the
    shared host, is kept alongside for the record.  ``reference`` holds the
    samples of the reference computation taken during the pass, and
    ``marks`` places each latency among them (see bench_reference).
    """

    def __init__(self):
        self.latencies = []
        self.walls = []
        self.reference = bench_reference.Timeline()
        self.marks = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rss_mb = 0.0

    def record(self, latency, problem, wall=None, mark=None):
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.walls.append(latency if wall is None else wall)
            self.marks.append(self.reference.mark() if mark is None else mark)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)

    def fail(self, problem, count=1):
        """``count`` attempted requests that failed without a latency."""
        for _ in range(count):
            self.record(None, problem)

    def process(self, rss_mb):
        self.rss_mb = max(self.rss_mb, rss_mb)


# ---------------------------------------------------------------------------
# set-up: launch to exit of a process that imports the package, no work
# ---------------------------------------------------------------------------


class Setup:
    """Launches of an empty ``length --batch``, spread through the run so
    that their median does not rest on one slow phase of the host."""

    def __init__(self, stats):
        self.stats = stats
        self.walls = []
        self.cpus = []
        self.marks = []
        self.last = None

    def launch(self):
        proc = run_proc(sysbound_argv(["length", "--batch"]))
        self.stats.process(proc.rss_mb)
        if proc.code != 0 or proc.stdout:
            self.stats.fail("empty batch exited %s" % proc.code)
        self.walls.append(proc.wall)
        self.cpus.append(proc.cpu)
        self.marks.append(self.stats.reference.mark())
        self.last = time.perf_counter()

    def between_units(self):
        if self.last is None or time.perf_counter() - self.last >= SETUP_GAP_S:
            self.launch()

    def finish(self):
        """One launch after the last unit, and at least the minimum."""
        self.launch()
        while len(self.walls) < SETUP_MIN_LAUNCHES:
            self.launch()


def warm_up(args, stdin=b""):
    """One untimed invocation, so bytecode compilation precedes timing."""
    run_proc(sysbound_argv(args), stdin=stdin)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _spans_path(traces):
    """Where the next traced process writes its spans; None when untraced."""
    if traces is None:
        return None
    return WORK / ("spans-%d.json" % len(traces))


def _span_env(spans, extra=None):
    env = dict(extra or {})
    if spans is not None:
        env["PERFBENCH_SPANS"] = str(spans)
    return child_env(env)


def cli_request(entry, stats, traces):
    argv = entry["argv"]
    spans = _spans_path(traces)
    if spans is None:
        proc = run_proc(sysbound_argv(argv))
    else:
        proc = run_proc(child_argv("cli", *argv), env=_span_env(spans))
        traces.append(_load(spans))
    stats.process(proc.rss_mb)
    stats.record(proc.cpu, bench_checks.check_cli(
        entry, proc.code, proc.stdout, proc.stderr), wall=proc.wall)


def cli_units(golden, seed, stats, traces):
    by_argv = {tuple(e["argv"]): e for e in golden["cli"]}
    for order in bench_inputs.cli_rounds(seed):
        yield [functools.partial(cli_request, by_argv[tuple(argv)], stats,
                                 traces) for argv in order]


# ---------------------------------------------------------------------------
# batch-spaces
# ---------------------------------------------------------------------------


class BatchClient:
    """Closed-loop client of one ``--batch --format json`` process.

    Each request writes one descriptor and waits for its response: a JSON
    document on stdout (ending in a line ``}``) or one line on stderr.  The
    first response also waits for the process to import the package, so the
    client sends PRIME_LINE, untimed, before any measured request.
    """

    PRIME_LINE = "CP(1)"

    def __init__(self, argv, env):
        self.popen = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=ROOT, env=env)
        self.sel = selectors.DefaultSelector()
        self.bufs = {}
        for name in ("stdout", "stderr"):
            f = getattr(self.popen, name)
            os.set_blocking(f.fileno(), False)
            self.sel.register(f, selectors.EVENT_READ, name)
            self.bufs[name] = b""
        self.open = {"stdout", "stderr"}
        self.clock = cpu_clock(self.popen.pid)

    def cpu(self):
        """CPU time the batch process has used so far, in seconds.  This
        holds until close() reaps the process, also after it has exited."""
        return time.clock_gettime_ns(self.clock) / 1e9

    def _complete(self):
        out, err = self.bufs["stdout"], self.bufs["stderr"]
        if out.startswith(b"{") and out.endswith(b"\n}\n"):
            self.bufs["stdout"] = b""
            return "ok", out.decode()
        if b"\n" in err:
            line, _, rest = err.partition(b"\n")
            self.bufs["stderr"] = rest
            return "err", line.decode() + "\n"
        return None

    def request(self, line: str):
        """Send one descriptor; return (kind, text) or (None, reason)."""
        try:
            self.popen.stdin.write(line.encode() + b"\n")
            self.popen.stdin.flush()
        except BrokenPipeError:
            return None, "batch process closed its input"
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        while True:
            done = self._complete()
            if done is not None:
                return done
            if not self.open:
                return None, "batch process ended mid-request"
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None, "request timed out"
            for key, _ in self.sel.select(remaining):
                chunk = os.read(key.fileobj.fileno(), 65536)
                if chunk:
                    self.bufs[key.data] += chunk
                else:
                    self.sel.unregister(key.fileobj)
                    self.open.discard(key.data)

    def close(self):
        """Close stdin and wait; returns (exit code, peak RSS KiB, leftover)."""
        try:
            self.popen.stdin.close()
        except BrokenPipeError:
            pass
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        while self.open and time.perf_counter() < deadline:
            for key, _ in self.sel.select(deadline - time.perf_counter()):
                chunk = os.read(key.fileobj.fileno(), 65536)
                if chunk:
                    self.bufs[key.data] += chunk
                else:
                    self.sel.unregister(key.fileobj)
                    self.open.discard(key.data)
        if self.open:
            self.popen.kill()
        self.sel.close()
        self.popen.stdout.close()
        self.popen.stderr.close()
        code, usage = _reap(self.popen)
        return code, usage.ru_maxrss, self.bufs["stdout"] + self.bufs["stderr"]


def batch_argv(command, spans=None):
    args = [*command, "--batch", "--format", "json"]
    env = _span_env(spans, {"PYTHONUNBUFFERED": "1"})
    if spans is None:
        return sysbound_argv(args), env
    return child_argv("cli", *args), env


def batch_process(golden, command, stream, stats, traces):
    """Feed one stream to one batch process; check every response.  Lines
    never answered, because the process died or timed out, count as failed."""
    key = bench_inputs.batch_key(command)
    table = golden["batch"][key]
    spans = _spans_path(traces)
    argv, env = batch_argv(command, spans)
    client = BatchClient(argv, env)
    prime = client.PRIME_LINE
    kind, text = client.request(prime)
    problem = text if kind is None else bench_checks.check_batch_line(
        table[prime], key, prime, kind, text)
    if problem:
        stats.fail("%s on %s: %s" % (key, prime, problem))
    kinds = [kind]
    for sent, desc in enumerate(stream, 1):
        stats.reference.sample()
        cpu, start = client.cpu(), time.perf_counter()
        kind, text = client.request(desc)
        wall = time.perf_counter() - start
        cpu = client.cpu() - cpu
        if kind is None:
            problem = "%s on %s: %s" % (key, desc, text)
            stats.record(cpu, problem, wall=wall)
            stats.fail(problem, len(stream) - sent)
            break
        kinds.append(kind)
        stats.record(cpu, bench_checks.check_batch_line(
            table[desc], key, desc, kind, text), wall=wall)
    code, rss, leftover = client.close()
    stats.process(rss / 1024.0)
    expect = bench_checks.expected_batch_exit(kinds)
    if code != expect or leftover:
        stats.fail("%s batch exited %s (expected %s)%s" % (
            key, code, expect, " with unread output" if leftover else ""))
    if spans is not None:
        traces.append(_load(spans))


def batch_units(golden, seed, stats, traces):
    for round_ in bench_inputs.batch_rounds(seed, golden["batch"]):
        yield [functools.partial(batch_process, golden, command, stream,
                                 stats, traces) for command, stream in round_]


# ---------------------------------------------------------------------------
# lattices and pushforward: the public API in fresh processes
# ---------------------------------------------------------------------------


def _json_lines(proc, stats, what):
    """The child's request rows.  Its reference samples go to ``stats`` in
    order, and each row gets the mark of its place among them."""
    stats.process(proc.rss_mb)
    rows = []
    for line in proc.stdout.decode().splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            stats.fail("%s printed a line that is not JSON" % what)
            continue
        if "reference" in row:
            stats.reference.add(row["reference"])
        else:
            row["mark"] = stats.reference.mark(row.get("samples_inside", 0))
            rows.append(row)
    if proc.code != 0:
        stats.fail("%s process exited %s: %s" % (
            what, proc.code, proc.stderr.decode()[-300:]))
    return rows


def _missing(stats, what, got, expected):
    """Requests a child never reported count as failed attempts."""
    if got < expected:
        stats.fail("%s process reported %d of %d requests" % (
            what, got, expected), expected - got)


def lattice_pass(golden, seed, block, stats, traces):
    """One fresh process: LATTICE_BLOCK_ROUNDS rounds of lattice requests."""
    spans = _spans_path(traces)
    proc = run_proc(child_argv("lattices", seed, block, LATTICE_BLOCK_ROUNDS),
                    env=_span_env(spans))
    rows = _json_lines(proc, stats, "lattice")
    pool = bench_inputs.lattice_pool()
    recorded = golden["lattices"]
    for row in rows:
        if row["error"] is not None:
            stats.record(row["cpu"], "lattice error: " + row["error"],
                         wall=row["latency"], mark=row["mark"])
            continue
        kind, index = row["kind"], row["index"]
        stats.record(row["cpu"], bench_checks.check_lattice(
            pool[kind][index], row["result"],
            recorded[kind][index]["result"]), wall=row["latency"],
            mark=row["mark"])
    _missing(stats, "lattice", len(rows),
             LATTICE_BLOCK_ROUNDS * bench_inputs.LATTICE_ROUND_SIZE)
    if spans is not None:
        traces.append(_load(spans))


def pushforward_pass(golden, stats, traces):
    """One fresh process: the 40-case table, so its caches start empty."""
    spans = _spans_path(traces)
    proc = run_proc(child_argv("pushforward"), env=_span_env(spans))
    rows = _json_lines(proc, stats, "pushforward")
    for row in rows:
        if row["error"] is not None:
            stats.record(row["cpu"], "pushforward error: " + row["error"],
                         wall=row["latency"], mark=row["mark"])
            continue
        stats.record(row["cpu"], bench_checks.check_pushforward(
            golden["pushforward"], row["case"], row["value"]),
            wall=row["latency"], mark=row["mark"])
    _missing(stats, "pushforward", len(rows),
             len(bench_inputs.PUSHFORWARD_CASES))
    if spans is not None:
        traces.append(_load(spans))


def lattice_units(golden, seed, stats, traces):
    for round_ in itertools.count():
        yield [functools.partial(lattice_pass, golden, seed, block, stats,
                                 traces)
               for block in range(round_ * LATTICE_BLOCKS,
                                  (round_ + 1) * LATTICE_BLOCKS)]


def pushforward_units(golden, seed, stats, traces):
    """The table's inputs are fixed, so the seed does not change them."""
    while True:
        yield [functools.partial(pushforward_pass, golden, stats, traces)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _load(path):
    with open(path) as fh:
        return json.load(fh)


#: each workload's rounds; a round is a list of units, a unit one process
UNITS = {"cli-cold": cli_units, "batch-spaces": batch_units,
         "lattices": lattice_units, "pushforward-table": pushforward_units}


def measured_pass(workload, golden, seed, stats, seconds, traces=None,
                  setup=None, short=False):
    """Run whole rounds: at least the workload's minimum, then more while one
    more round of the mean length still ends within ``seconds``.  Whole
    rounds keep the request mix of every run the same.  ``short`` is the
    one-round pass of a traced run; ``setup`` takes its launches between
    units."""
    min_rounds = 1 if short else MIN_ROUNDS[workload]
    begin = time.perf_counter()
    for done, round_ in enumerate(UNITS[workload](golden, seed, stats,
                                                  traces)):
        if done >= min_rounds and (time.perf_counter() - begin) \
                * (done + 1) / done > seconds:
            return
        for unit in round_:
            stats.reference.sample()
            if setup is not None:
                setup.between_units()
            unit()


WARM_UP = {
    "cli-cold": (("catalog",), b""),
    "batch-spaces": (("length", "--batch", "--format", "json"), b"CP(2)\n"),
    "lattices": (("lattice", "--gram", "[[2,1],[1,2]]"), b""),
    "pushforward-table": (("pushforward", "--k", "1", "--r", "2", "--j", "1"),
                          b""),
}


def time_metrics(workload, setup_times, latencies):
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * percentile(latencies, TAIL[workload]),
        "ops_per_s": len(latencies) / sum(latencies),
    }


def scaled_latencies(stats):
    return stats.reference.scaled(stats.latencies, stats.marks)


def end_to_end(workload, golden, seed, seconds):
    """End-to-end metrics: CPU times scaled to the reference speed (see
    bench_reference).  The unscaled CPU times and the wall times go to the
    info line."""
    stats = Stats()
    warm_up(*WARM_UP[workload])
    setup = Setup(stats)
    measured_pass(workload, golden, seed, stats, seconds, setup=setup)
    setup.finish()
    stats.reference.sample(force=True)
    if len(stats.latencies) < 2:
        raise SystemExit("too few completed requests to report")
    times = time_metrics(workload,
                         stats.reference.scaled(setup.cpus, setup.marks),
                         scaled_latencies(stats))
    metrics = {
        "setup_s": (times["setup_s"], "s"),
        "op_p50_ms": (times["op_p50_ms"], "ms"),
        "op_tail_ms": (times["op_tail_ms"], "ms"),
        "ops_per_s": (times["ops_per_s"], "1/s"),
        "peak_rss_mb": (stats.rss_mb, "MB"),
        "ok_share": ((stats.attempted - stats.failed) / stats.attempted,
                     "share"),
    }
    info = {"requests": len(stats.latencies),
            "tail_percentile": TAIL[workload],
            "setup_launches": len(setup.walls),
            "reference": {"samples": len(stats.reference.samples),
                          "median_s": statistics.median(
                              stats.reference.samples)},
            "cpu": time_metrics(workload, setup.cpus, stats.latencies),
            "wall": time_metrics(workload, setup.walls, stats.walls)}
    return stats, metrics, info


def traced(workload, golden, seed):
    """Per-layer metrics: a short untraced pass, then the same pass traced."""
    stats = Stats()
    warm_up(*WARM_UP[workload])
    imports = []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = run_proc([sys.executable, "-X", "importtime", "-c",
                         "import sysbound; import numpy"])
        if proc.code != 0:
            stats.fail("importing sysbound failed")
        imports.append(bench_trace.parse_importtime(proc.stderr.decode()))
    plain = Stats()
    measured_pass(workload, golden, seed, plain, 0.0, short=True)
    plain.reference.sample(force=True)
    traces = []
    measured_pass(workload, golden, seed, stats, 0.0, traces=traces,
                  short=True)
    stats.reference.sample(force=True)
    stats.attempted += plain.attempted
    stats.failed += plain.failed
    stats.failures += plain.failures
    layer_metrics, layer_self = bench_trace.summarize(traces)
    metrics = {}
    for name in ("sysbound", "sympy", "numpy"):
        metrics["import.%s_ms" % name] = (
            statistics.median(i[name] for i in imports), "ms")
    for name, value in layer_metrics.items():
        unit = "ms" if name.endswith("_ms") else \
            "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (
        sum(scaled_latencies(stats)) / sum(scaled_latencies(plain)), "ratio")
    total = sum(layer_self.values())
    share = {k: round(v / total, 4) for k, v in
             sorted(layer_self.items(), key=lambda kv: -kv[1])}
    return stats, metrics, {"self_time_share": share,
                            "traced_processes": len(traces)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(seed, args):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"python": sys.version.split()[0], "sympy": version("sympy"),
            "numpy": version("numpy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sysbound" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no sysbound sources under %s\n"
                         % (ROOT / "src"))
        return 2
    if not GOLDEN.is_file():
        sys.stderr.write("perfbench: missing %s\n" % GOLDEN)
        return 2
    golden = _load(GOLDEN)
    # One processor for the benchmark and every process it starts, which
    # inherit it: the processors of a shared host change speed each on its
    # own, and the reference samples taken in this process must gauge the
    # processor the measured processes run on (see bench_reference).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            stats, metrics, info = traced(args.workload, golden, args.seed)
        else:
            stats, metrics, info = end_to_end(args.workload, golden, args.seed,
                                              args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    info.update(environment(args.seed, args))
    if stats.failures:
        info["failures"] = stats.failures
    print("# perfbench " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("# %-34s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
