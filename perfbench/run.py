"""Run one metriclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload transport-ladder --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout against `src/` as it stands (nothing needs
installing). The workload's operation list is repeated in whole rounds for
`--seconds`. Each round also runs a few fixed-input "guest" operations of
the other workloads, and the CLI's long `ldp` scenario runs once after the
rounds, so that every run reports every end-to-end metric. Every time is
put at one reference machine speed (`speed.py`), because the host's speed
changes by a factor of up to 1.8 within seconds. Every output is checked.
The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0 only
when every operation passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("transport-ladder", "simplex-search", "scenarios")
SETUP_REPEATS = 3
GUEST_SEED = 0
# one thread per process: the benchmark machine has two cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _import_path():
    sys.path[:0] = [str(SRC), str(HERE)]


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up: import metriclab and build the seeded inputs,
    at the reference speed. numpy is loaded before the clock starts, because
    the speed sampler uses it."""
    _import_path()
    import speed
    sampler = speed.Sampler().install()

    def setup():
        import metriclab  # noqa: F401
        import workloads
        wl = workloads.WORKLOADS[workload]
        wl.build(seed, wl.size, OUT)

    try:
        failure, t0, t1, seconds = sampler.time(setup)
        if failure is not None:
            raise failure
        return seconds * sampler.scale(t0, t1)
    finally:
        sampler.uninstall()


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def spread_order(ops) -> list[int]:
    """An execution order that spreads each operation class evenly over the
    round, so that every class's samples see the same stretch of machine
    time; an operation still runs after the one whose output it reads."""
    members = {}
    for k, op in enumerate(ops):
        members.setdefault(op.cls, []).append(k)
    key = {}
    for ks in members.values():
        for rank, k in enumerate(ks):
            key[k] = (rank + 0.5) / len(ks)
    index = {op.id: k for k, op in enumerate(ops)}
    for k, op in enumerate(ops):
        if op.after is not None:
            key[k] = max(key[k], key[index[op.after]] + 1e-9)
    return sorted(range(len(ops)), key=key.__getitem__)


def run_rounds(ops, seconds: float, min_rounds: int, same, sampler):
    """Repeat the operation list in whole rounds until `seconds` have passed
    and at least `min_rounds` ran. Returns per-operation times at the
    reference speed, the number of rounds, first outputs, and the operations
    that raised or did not repeat."""
    spans = [[] for _ in ops]
    rounds = 0
    first, latest, bad = {}, {}, {}
    order = spread_order(ops)
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for k in order:
            op = ops[k]
            raw, t0, t1, dt = sampler.time(op.run, latest)
            spans[k].append((t0, t1, dt))
            if isinstance(raw, Exception):  # a failing operation is counted, not fatal
                latest[op.id] = None
                bad.setdefault(op.id, f"raised {type(raw).__name__}: {raw}")
                continue
            latest[op.id] = raw
            out = op.output(raw) if op.output else raw
            if op.id not in first:
                first[op.id] = out
            elif not same(out, first[op.id]):
                bad.setdefault(op.id, "output differs between repeats")
        rounds += 1
    times = [[dt * sampler.scale(t0, t1) for t0, t1, dt in s] for s in spans]
    return times, rounds, first, bad


def check_ops(ops, first, bad) -> dict:
    """Problems found per operation id (only operations with problems)."""
    problems = {op_id: [msg] for op_id, msg in bad.items()}
    for op in ops:
        if op.id in problems or op.id not in first:
            continue
        try:
            found = op.check(first[op.id], first)
        except Exception as exc:  # a check that cannot read the output fails it
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[op.id] = found
    return problems


def class_times(ops, times) -> dict:
    """Per operation class: the mean over its operations of each one's
    median repeat, in seconds at the reference speed."""
    per_op = {}
    for op, ts in zip(ops, times):
        per_op.setdefault(op.cls, []).append(statistics.median(ts))
    return {cls: statistics.mean(v) for cls, v in per_op.items()}


def execute(groups, seconds, min_rounds, sampler):
    """Run the operations of every (label, ops) group interleaved in whole
    rounds, check them, and print per group how many operations were
    attempted and how many failed. Returns per-group results; `wall_s` is
    the mean over rounds of the group's time in the round."""
    import workloads
    ops = [op for _, group in groups for op in group]
    times, rounds, first, bad = run_rounds(ops, seconds, min_rounds, workloads.same, sampler)
    problems = check_ops(ops, first, bad)
    results = []
    pos = 0
    for label, group in groups:
        ts = times[pos:pos + len(group)]
        pos += len(group)
        attempted = sum(len(t) for t in ts)
        failed = sum(len(t) for op, t in zip(group, ts) if op.id in problems)
        print(f"{label}: attempted {attempted}, failed {failed}, rounds {rounds}",
              file=sys.stderr)
        for op in group:
            for msg in problems.get(op.id, ()):
                print(f"  FAILED {op.id}: {msg}", file=sys.stderr)
        results.append({"attempted": attempted, "failed": failed,
                        "wall_s": statistics.mean(map(sum, zip(*ts))) if ts else 0.0,
                        "classes": class_times(group, ts)})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "metriclab" / "__init__.py").is_file():
        print(f"no metriclab sources under {SRC}; run from a metriclab checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    _import_path()
    import speed
    import workloads
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer().install()

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    own = workloads.WORKLOADS[args.workload]
    others = [w for w in workloads.WORKLOADS.values() if w is not own]
    sampler = speed.Sampler().install()
    try:
        groups = [(own.name, own.build(args.seed, own.size, out_dir))]
        groups += [(f"{w.name} (guest ops)", w.build(GUEST_SEED, w.guest, out_dir))
                   for w in others if w.guest]
        results = execute(groups, args.seconds, 2, sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tails = [(f"{w.name} (tail)", w.build(GUEST_SEED, w.tail, out_dir))
                 for w in others if w.tail]
        if tails:
            results += execute(tails, 0.0, 1, sampler)
    finally:
        sampler.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    wall_s = results[0]["wall_s"]
    classes = {}
    for r in results:
        classes.update(r["classes"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"total: attempted {attempted}, failed {failed}", file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        trace_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "traced_wall_s": wall_s,
                                          "metrics": metrics, "functions": tracer.table()},
                                         indent=2) + "\n")
        print(f"traced wall_s {wall_s:.4f}; trace written to {trace_file}",
              file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        for wl_name in WORKLOADS:
            for metric, cls in workloads.WORKLOADS[wl_name].metrics.items():
                value = classes[cls]
                unit = "s" if metric.endswith("_s") else "ms"
                metrics[metric] = {"value": value if unit == "s" else value * 1e3,
                                   "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
