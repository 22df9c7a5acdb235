"""Steadiness report: repeat each workload over several seeds.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads oracle_large

Runs the benchmark command once per (workload, seed), one run at a time,
and prints for every end-to-end metric the median, the quartiles and
the spread, (Q3 − Q1) / median, beside the metric's bound in
BENCHMARK.json.  The bounds are set from these figures: every spread
must stay below a third of its bound, or the report marks it and exits
1.  Set-up time, a median of seven fresh interpreters a run, spreads
more (6.5-18% on the machine the bounds were set on); its spread must
stay below its whole bound.  Writes .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, load_json, provenance  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main() -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    report = {"provenance": provenance("all", args.first_seed,
                                       bench["run_seconds"], 0),
              "runs": args.runs, "workloads": {}}
    worst_ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                flush=True)
        summary = {}
        for spec in bench["end_to_end"]:
            s = summarize(values[spec["name"]])
            s["bound"] = spec["bound"]
            summary[spec["name"]] = s
            limit = spec["bound"] / (1 if spec["name"] == "setup_s" else 3)
            ok = s["spread"] < limit
            worst_ok &= ok
            print(f"  {name:13s} {spec['name']:12s} median {s['median']:.6g} "
                  f"Q1 {s['q1']:.6g} Q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {spec['bound']}{'' if ok else '  <-- too wide'}",
                  flush=True)
        report["workloads"][name] = {"failed": failed, "metrics": summary}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
