"""One fresh benchmark process: set up, then run passes of one workload.

Started by ``bench/run.py``; not meant to be run by hand. It imports mdslab
from the checkout's ``src/`` and writes the workload's seeded inputs; its
set-up time runs from ``--spawned``, the parent's monotonic clock just
before it started the interpreter. With ``--setup-only`` it stops there.
Otherwise it runs the first pass, then later passes while the median later
pass still fits before ``--deadline`` (at least one later pass, two in a
traced run). It checks every output and prints one JSON report as its last
stdout line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import provenance
from tracer import Tracer, pass_metrics
from workloads import EXIT_VALIDATION, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent


def _import_mdslab():
    sys.path.insert(0, str(ROOT / "src"))
    import mdslab.cli

    if Path(mdslab.__file__).resolve().parent != ROOT / "src" / "mdslab":
        raise ImportError(f"mdslab imported from {mdslab.__file__}, not from {ROOT / 'src'}")
    return mdslab.cli


def run_op(op, cli, tracer):
    """Run one operation with its output captured; returns (rc, stdout, stderr, value)."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.argv is not None:
                span = "cli." + "_".join(op.argv[:2])
                rc = tracer.call(span, cli.run, op.argv) if tracer else cli.run(op.argv)
            else:
                value = tracer.call(op.span, op.call) if tracer else op.call()
                rc = 0
        except Exception:  # an operation that raises is a failed operation
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), value


def run_pass(ops, cli, tracer):
    """Run the operations back to back; returns the wall time and raw results."""
    root = tracer.open("bench.pass") if tracer else None
    start = time.perf_counter()
    results = [run_op(op, cli, tracer) for op in ops]
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return wall, results, root


def evaluate(ops, results, digests, failures, pass_no):
    """Check each operation's outcome; returns (failed ops, probe escapes)."""
    failed = escapes = 0
    for op, (rc, stdout, stderr, value) in zip(ops, results):
        if op.probe:
            escapes += rc != EXIT_VALIDATION
            continue
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {stderr.strip()[-400:]}"
        else:
            outcome = Outcome(stdout=stdout, value=value, path=op.out)
            if op.out:
                with open(op.out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            elif op.argv is None:  # a library call: hash the exact bits of its value
                digest = hashlib.sha256(float(value).hex().encode()).hexdigest()
            else:
                digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digests.setdefault(op.name, digest) != digest:
                problem = "result bytes differ from the first pass"
            elif op.check is not None:
                problem = op.check(outcome)
        if problem:
            failed += 1
            failures.append(f"pass {pass_no} {op.name}: {problem}")
    return failed, escapes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    args = ap.parse_args(argv)

    cli = _import_mdslab()
    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, args.seed, args.smoke)
    workload.write_inputs()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    ops = workload.ops()
    tracer = Tracer() if args.trace else None
    # Pass 0 is the first pass of this fresh process. In a traced run the
    # later passes alternate traced and untraced, so the tracing overhead
    # is measured in the same process.
    mandatory = 3 if tracer else 2
    # ``later`` holds every later pass, traced or not: it sets the deadline.
    untraced, later, traced_roots, digests, failures = [], [], [], {}, []
    attempted = failed = escapes = 0
    k = 0
    while k < mandatory or args.deadline - time.monotonic() >= statistics.median(later):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, results, root = run_pass(ops, cli, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_roots.append(root)
        else:
            untraced.append(wall)
        if k:
            later.append(wall)
        bad, esc = evaluate(ops, results, digests, failures, k)
        attempted += sum(not op.probe for op in ops)
        failed += bad
        escapes = max(escapes, esc)
        k += 1

    report = {
        "setup_s": setup_s,
        "first_pass_s": untraced[0],
        "later_pass_s": untraced[1:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "bad_input_escapes": escapes,
        "probes": sum(op.probe for op in ops),
        "digests": digests,
        "provenance": provenance.collect(ROOT),
    }
    if tracer:
        report["traced"] = [pass_metrics(tracer.spans, r) for r in traced_roots]
        report["spans"] = tracer.spans
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
