"""Measure every workload untraced and traced and write the baseline file.

    python3 bench/baseline.py [--out bench/BENCH_seed.json]

Runs at the default seed, each run measuring for ``run_seconds`` of
BENCHMARK.json. Prints setup_s, first_pass_s, pass_s, peak_rss_mb, fail_frac and
bad_input_escapes for each workload, then the self-time share of each layer
and the tracing overhead, and writes all of it with provenance to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOADS, run_seconds
from tracer import SELF_TIME

# Per-layer metrics that are self times, so their shares of a pass add up.
SELF_TIME_METRICS = [n + "_s" for n in SELF_TIME] + [
    "cli.self_s", "stability.self_s", "mds_core.eigendecompose_s"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(DEFAULT_SEED), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(ROOT / ".bench_out" / workload / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def stage_shares(summary: dict) -> dict:
    """Self time of each stage as a share of the traced pass, largest first."""
    wall = summary["traced_pass_s"]
    shares = {m: summary["per_layer"][m] / wall for m in SELF_TIME_METRICS}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "BENCH_seed.json"))
    args = ap.parse_args(argv)

    baseline = {"seed": DEFAULT_SEED, "seconds": run_seconds(), "workloads": {}}
    print(f"{'workload':<12} {'setup_s':>8} {'first_pass_s':>12} {'pass_s':>8} {'n':>2} "
          f"{'peak_rss_mb':>11} {'fail_frac':>9} {'bad_input_escapes':>17}")
    for workload in WORKLOADS:
        plain = run_once(workload, 0)
        traced = run_once(workload, 1)
        s = plain["summary"]
        baseline["provenance"] = plain["provenance"]
        baseline["workloads"][workload] = {
            "untraced": {
                "setup_s": s["setup_s"], "setup_s_samples": plain["setup_s_samples"],
                "first_pass_s": s["first_pass_s"],
                "pass_s": s["pass_s"], "pass_s_samples": plain["later_pass_s"],
                "peak_rss_mb": s["peak_rss_mb"],
                "fail_frac": plain["failed"] / plain["attempted"],
                "operations_attempted": plain["attempted"],
                "bad_input_escapes": plain["bad_input_escapes"],
                "malformed_inputs_submitted": plain["probes"],
                "result_sha256": plain["digests"],
            },
            "traced": {
                "per_layer": traced["summary"]["per_layer"],
                "layer_self_time_share": traced["summary"]["layer_share"],
                "stage_self_time_share": stage_shares(traced["summary"]),
                "tracing_overhead": traced["summary"]["trace_overhead"],
                "traced_pass_s": traced["summary"]["traced_pass_s"],
                "untraced_pass_s_same_processes": traced["summary"]["pass_s"],
            },
        }
        print(f"{workload:<12} {s['setup_s']:8.3f} {s['first_pass_s']:12.3f} {s['pass_s']:8.3f} "
              f"{len(plain['later_pass_s']):2d} {s['peak_rss_mb']:11.1f} "
              f"{plain['failed'] / plain['attempted']:9.3g} "
              f"{plain['bad_input_escapes']:>9} of {plain['probes']}")
    for workload, entry in baseline["workloads"].items():
        shares = " ".join(f"{k}={v:.3f}" for k, v in entry["traced"]["layer_self_time_share"].items())
        top = ", ".join(f"{k} {v:.3f}" for k, v in
                        list(entry["traced"]["stage_self_time_share"].items())[:3])
        print(f"{workload:<12} self-time share: {shares}; largest stages: {top}; "
              f"tracing overhead {entry['traced']['tracing_overhead']:+.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
