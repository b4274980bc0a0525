"""Record the outputs every benchmark request is compared against.

    python3 perfbench/record_golden.py

Run once, at the commit whose outputs are the reference; it rewrites
perfbench/golden.json.  A later change must reproduce these bytes.  The file
also holds each pool entry's reference cost (median of COST_PASSES timings),
which fixes the cost bins the seeded draws are stratified by, so re-recording
redefines the workloads.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time

import bench_checks
import bench_inputs
import run


def record_cli():
    out = []
    for argv in bench_inputs.CLI_INVOCATIONS:
        proc = run.run_proc(run.sysbound_argv(argv))
        out.append({"argv": list(argv), "code": proc.code,
                    "stdout": proc.stdout.decode()})
    return out


#: the pool is timed this many times; the recorded cost is the median
COST_PASSES = 3


def record_batch():
    """Every (command, descriptor) response in the pool, and its cost."""
    tables = {}
    for command in bench_inputs.BATCH_COMMANDS:
        passes = []
        for _ in range(COST_PASSES):
            argv, env = run.batch_argv(command)
            client = run.BatchClient(argv, env)
            client.request(client.PRIME_LINE)
            table = {}
            for desc in bench_inputs.BATCH_POOL:
                start = time.perf_counter()
                kind, text = client.request(desc)
                cost = time.perf_counter() - start
                if kind is None:
                    raise SystemExit("%s on %s: %s" % (command, desc, text))
                table[desc] = {"kind": kind, "out": text, "cost": cost}
            code, _, leftover = client.close()
            if leftover or code != bench_checks.expected_batch_exit(
                    [e["kind"] for e in table.values()]):
                raise SystemExit("unexpected batch exit for %s" % (command,))
            passes.append(table)
        table = passes[0]
        for desc, entry in table.items():
            if any(p[desc]["out"] != entry["out"] for p in passes):
                raise SystemExit("%s on %s is not deterministic"
                                 % (command, desc))
            entry["cost"] = round(statistics.median(
                p[desc]["cost"] for p in passes), 6)
        tables[bench_inputs.batch_key(command)] = table
    return tables


def record_pushforward():
    proc = run.run_proc(run.child_argv("pushforward"))
    table = {}
    for line in proc.stdout.decode().splitlines():
        row = json.loads(line)
        if "reference" in row:
            continue
        table["%d,%d,%d" % tuple(row["case"])] = row["value"]
    return table


def record_lattices():
    """Results and reference cost (seconds) of every pool lattice."""
    pool = bench_inputs.lattice_pool()
    passes = []
    for _ in range(COST_PASSES):
        proc = run.run_proc(run.child_argv("pool"), timeout=3600)
        if proc.code != 0:
            raise SystemExit("the pool run failed: %s" % proc.stderr.decode())
        passes.append([json.loads(line)
                       for line in proc.stdout.decode().splitlines()])
    recorded = {kind: [None] * len(specs) for kind, specs in pool.items()}
    for rows in zip(*passes):
        kind, index = rows[0]["kind"], rows[0]["index"]
        problem = rows[0]["error"] or bench_checks.check_lattice(
            pool[kind][index], rows[0]["result"])
        if problem or any(r["result"] != rows[0]["result"] for r in rows):
            raise SystemExit("lattice %s/%d failed while recording: %s"
                             % (kind, index, problem or "not deterministic"))
        recorded[kind][index] = {
            "cost": round(statistics.median(r["latency"] for r in rows), 6),
            "result": rows[0]["result"]}
    if any(None in v for v in recorded.values()):
        raise SystemExit("the pool run did not finish")
    return recorded


def main():
    run.WORK.mkdir(exist_ok=True)
    try:
        golden = {"cli": record_cli(), "batch": record_batch(),
                  "pushforward": record_pushforward(),
                  "lattices": record_lattices()}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
