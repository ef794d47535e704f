"""mdslab benchmark: one seeded workload through the public CLI, in process.

    python3 bench/run.py --workload pipeline_io --seed 1 --trace 0

Set-up (import mdslab, write the seeded inputs) is measured in every fresh
interpreter the run starts. Three only set up; the last one goes on to run
the workload: a first pass, which is what a one-shot ``mdslab`` user pays,
then later passes while the median later pass still fits in ``--seconds``.
Each time is the median over its samples, and every output is checked. With
``--trace 1`` the later passes alternate traced and untraced, and the
per-layer metrics of the traced passes are reported instead. ``--seconds``
defaults to ``run_seconds`` of BENCHMARK.json.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full report,
with provenance and result digests, goes to ``.bench_out/<workload>/report.json``.
See bench/README.md for the workloads, seeds and metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, PER_LAYER_METRICS, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1  # seed 1009 is held out for confirming later claims
SETUP_ONLY = 3  # set-up-only interpreters, so setup_s is a median of 4
BLAS_THREADS = "1"
LIMIT_S = 170.0  # the whole run, whatever --seconds says
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json: the default of ``--seconds``."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def _worker(args, workdir: Path, deadline: float, limit: float, setup_only: bool) -> dict:
    """Run one fresh worker to its end; returns its JSON report."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--workdir", str(workdir),
           "--deadline", repr(deadline)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        out = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                             text=True, env=env, cwd=ROOT, timeout=max(limit - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the time limit")
    if out.returncode != 0:
        raise BenchError(f"worker exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1])


def measure(args) -> dict:
    """Set-up-only interpreters, then one that sets up and runs the passes."""
    start = time.monotonic()
    deadline, limit = start + args.seconds, start + LIMIT_S
    workdir = ROOT / ".bench_out" / args.workload
    setups = [_worker(args, workdir, deadline, limit, True)["setup_s"] for _ in range(SETUP_ONLY)]
    report = _worker(args, workdir, deadline, limit, False)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_s_samples=setups + [report["setup_s"]])
    return report


def summarize(report: dict) -> dict:
    """End-to-end metrics, and per-layer metrics for a traced run."""
    out = {
        "setup_s": statistics.median(report["setup_s_samples"]),
        "first_pass_s": report["first_pass_s"],
        "pass_s": statistics.median(report["later_pass_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    traced = report.get("traced")
    if traced:
        out["per_layer"] = {m: statistics.median(p["metrics"][m] for p in traced)
                            for m in PER_LAYER_METRICS}
        out["per_layer"]["spaces.bad_input_escapes"] = report["bad_input_escapes"]
        out["layer_share"] = {layer: statistics.median(p["layer_self_s"][layer] / p["wall_s"]
                                                       for p in traced) for layer in LAYERS}
        out["traced_pass_s"] = statistics.median(p["wall_s"] for p in traced)
        out["trace_overhead"] = out["traced_pass_s"] / out["pass_s"] - 1.0
    return out


def print_report(report: dict, summary: dict) -> None:
    prov = report["provenance"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"setup_s {summary['setup_s']:.4f} s (median of {len(report['setup_s_samples'])} "
          f"fresh interpreters)")
    print(f"first_pass_s {summary['first_pass_s']:.4f} s (the fresh process's first pass)")
    print(f"pass_s {summary['pass_s']:.4f} s (median of {len(report['later_pass_s'])} later passes)")
    print(f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {report['failed'] / report['attempted']:.4g} ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    print(f"bad_input_escapes {report['bad_input_escapes']} count "
          f"(of {report['probes']} malformed inputs submitted)")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, digest in sorted(report["digests"].items()):
        print(f"sha256 {digest} {name}")
    if "per_layer" in summary:
        for metric, value in summary["per_layer"].items():
            print(f"{metric} {value:.6g} {unit_of(metric)}")
        shares = " ".join(f"{k}={v:.3f}" for k, v in summary["layer_share"].items())
        print(f"layer self-time share of a traced pass: {shares}")
        print(f"tracing overhead {summary['trace_overhead']:+.4f} (traced pass_s "
              f"{summary['traced_pass_s']:.4f} s without the reference eigh, untraced pass_s "
              f"{summary['pass_s']:.4f} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    try:
        if args.seconds is None:
            args.seconds = run_seconds()
        report = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = summarize(report)
    report["summary"] = summary
    out_dir = ROOT / ".bench_out" / args.workload
    if args.trace:
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "amount"],
                       "spans": report.pop("spans")}, fh)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_report(report, summary)

    if args.trace:
        metrics = {m: {"value": v, "unit": unit_of(m)} for m, v in summary["per_layer"].items()}
    else:
        metrics = {m: {"value": summary[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
