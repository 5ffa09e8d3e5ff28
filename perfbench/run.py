#!/usr/bin/env python3
"""Closed-loop benchmark of the predict, plan and explain pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload predict --seed 1 --seconds 30 --trace 0

One caller runs one operation at a time, in whole rounds (one operation
per input slot), until ``--seconds`` have passed at a round boundary. The
outputs are then checked against ``oracle.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median of
several fresh interpreters started one after another, each timed from its
launch until its inputs are built and it is ready for its first operation.

``--trace 1`` reports the per-layer metrics. Each operation then runs twice
back to back with the same program seeds, once untraced and once with spans
around the package's public functions (``spans.py``), in alternating order;
the pair's wall-time difference is the tracing overhead. Spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
MODULES = ("core", "scm", "physics", "inference", "explain")


def load_package():
    """The package's modules, imported from the checkout's ``src``, as
    attributes of one namespace (the package itself binds ``explain`` to a
    function). Exits with code 2 when the checkout does not hold the package
    and its test oracles."""
    needed = (ROOT / "src" / "causalblocks" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    return types.SimpleNamespace(**{m: importlib.import_module(f"causalblocks.{m}")
                                    for m in MODULES})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the monotonic clock, exit")
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median launch-to-ready time of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def timed_rounds(workload, seconds: float, tracer=None, modules=None):
    """Run whole rounds until ``seconds`` have passed. Returns op records
    (op id, slot, output), per-op wall times, per-op traced flags and worlds
    requested."""
    records, walls, traced_flags = [], [], []
    worlds = 0
    start = time.perf_counter()
    round_index = 0
    while True:
        # A traced run calls each operation twice with the same seeds, back
        # to back, untraced and traced, alternating which goes first.
        passes = (False,) if tracer is None else (
            (False, True) if round_index % 2 == 0 else (True, False))
        for slot in range(workload.slots()):
            for traced in passes:
                op_id = len(records)
                if traced:
                    tracer.install(modules)
                try:
                    t0 = time.perf_counter()
                    if traced:
                        out = tracer.run_op(op_id, workload.op, round_index, slot)
                    else:
                        out = workload.op(round_index, slot)
                    walls.append(time.perf_counter() - t0)
                finally:
                    if traced:
                        tracer.uninstall()
                records.append((op_id, slot, out))
                traced_flags.append(traced)
                worlds += workload.worlds(slot)
        round_index += 1
        if time.perf_counter() - start >= seconds:
            return records, walls, traced_flags, worlds


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        trace_file = OUT / f"trace-{os.getpid()}.json"
        if trace_file.exists():
            trace_file.unlink()


def run(args) -> int:
    cb = load_package()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](cb, args.seed, str(OUT))
        print(time.monotonic())
        return 0

    setup_s = setup_seconds(args) if args.trace == 0 else None
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](cb, args.seed, str(OUT))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    records, walls, traced_flags, worlds = timed_rounds(workload, args.seconds, tracer, vars(cb))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_start = time.perf_counter()

    import selftest

    problems = workloads.Problems()
    # A traced run's twin calls give equal outputs (checked below), not
    # independent samples: only the untraced one of each pair is checked, so
    # pooled tests count every sample once.
    workload.check([r for r, traced in zip(records, traced_flags) if not traced], problems)
    for message in selftest.run():
        problems.expect(False, None, f"selftest: {message}")
    if args.trace:
        # Operations 2k and 2k + 1 are one call untraced and traced; tracing
        # must not change a single output.
        pairs = {}
        for (op_id, _slot, out), wall, traced in zip(records, walls, traced_flags):
            pairs.setdefault(op_id // 2, {})[traced] = (out, wall)
        problems.expect(all(p[True][0] == p[False][0] for p in pairs.values()), None,
                        "traced outputs differ from untraced outputs")

    checks_s = time.perf_counter() - checks_start
    known = workload.known_fault
    # Operations 2k and 2k + 1 of a traced run share the verdict of the one
    # that was checked.
    bad = {op if args.trace == 0 else op // 2 for op in problems.by_op if op is not None}
    failed = sum(1 for op_id, slot, _ in records
                 if (op_id if args.trace == 0 else op_id // 2) in bad and known(slot))
    wrong = [(op, msgs) for op, msgs in problems.by_op.items()
             if op is None or not known(records[op][1])]
    correct = not wrong

    if args.trace == 0:
        metrics = {
            "latency_ms": (statistics.median(walls) * 1e3, "ms"),
            "worlds_per_s": (worlds / sum(walls), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        n_traced = sum(traced_flags)
        totals = spans.layer_totals(tracer.spans)
        metrics = {name: (totals[name] / n_traced, unit)
                   for name, unit, _names, _what in spans.LAYER_METRICS}
        metrics["scm.abduct_accept_ratio"] = (totals["scm.abduct_accept_ratio"], "ratio")
        metrics["trace.overhead_ms"] = (
            statistics.median(p[True][1] - p[False][1] for p in pairs.values()) * 1e3, "ms")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(records)}  timed {sum(walls):.3f} s  checks {checks_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  attempted {len(records)}  failed {failed}  correct {correct}")
    for op, messages in wrong[:10]:
        print(f"  WRONG op {op}: {'; '.join(messages[:3])}")
    shown = set()
    for op, messages in sorted((op, m) for op, m in problems.by_op.items() if op is not None):
        slot = records[op][1]
        if known(slot) and slot not in shown:
            shown.add(slot)
            print(f"  known fault, slot {slot} (every round): {'; '.join(messages[:3])}")
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
