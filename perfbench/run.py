"""The g2cm benchmark: seeded workloads over both halves of the program.

Run from the repository root:

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload cm_grid --seed 7919
    python3 perfbench/run.py --workload oracle_large --trace 1

Every run measures for run_seconds of BENCHMARK.json, the length the
bounds there were set at.  --seconds is accepted only with that value.

Each run starts fresh single-threaded interpreters (worker.py): a few
that only set up, to sample set-up time, then one that sets up and runs
the closed timed loop.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it runs half the time
untraced and half traced and prints the per-layer metrics, including the
tracing overhead.  Every item's output is checked exactly; the last line
of stdout is one JSON object {correct, attempted, failed, metrics}.
Results and spans are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Set-up samples per untraced run, each in a fresh interpreter; the
#: median is reported.
SETUP_SAMPLES = 7
#: A run must end within this many seconds.
RUN_LIMIT_S = 170
#: Time of worker.reference_work on the machine the bounds were set on
#: (a 2-vCPU VM at 2.0 GHz, Python 3.11).  That machine's speed drifts
#: by up to 2x, within a run and between runs, so the worker gives times
#: in units of the reference work timed around them, and run.py reports
#: them as seconds at this reference speed.  The values as measured go
#: to the results file.
REF_NOMINAL_MS = 2.0
#: One thread per process, so nothing a library starts competes for the
#: two CPUs with the measured process.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(bench: dict, workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, list[str]]:
    """One run of one workload: (result line, report lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setup = []  # (seconds as measured, reference ms around) per sample
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            s = run_worker(base + ["--setup-only"], deadline)
            setup.append((s["setup_s"], s["ref_ms"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    stamp = provenance(workload, seed, seconds, trace)
    if trace:
        base += ["--spans-out", stem + ".spans.jsonl",
                 "--stamp", json.dumps(stamp)]
    out = run_worker(base, deadline)
    src = os.path.join(ROOT, "src") + os.sep
    if not out["g2cm_file"].startswith(src):
        raise BenchError(f"measured g2cm from {out['g2cm_file']}, not {src}")
    setup.append((out["setup_s"], out["setup_ref_ms"]))
    stamp["items_per_run"] = out["attempted"]
    stamp["passes"] = out["passes"]

    per_s = 1e3 / REF_NOMINAL_MS
    if trace:
        values = dict(out["layers"])
        values["trace.items_per_s"] = out["items_per_ref"] * per_s
        values["trace.untraced_items_per_s"] = out["untraced_items_per_ref"] * per_s
        values["trace.overhead_items_per_s"] = (
            out["items_per_ref"] - out["untraced_items_per_ref"]) * per_s
        specs = bench["per_layer"]
    else:
        values = {
            "items_per_s": out["items_per_ref"] * per_s,
            "item_ms_p50": out["item_ref_p50"] * REF_NOMINAL_MS,
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(t * REF_NOMINAL_MS / r
                                         for t, r in setup),
        }
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}

    lines = [f"{workload}: seed {seed}, {out['attempted']} items "
             f"({out['passes']} passes), "
             f"{out['busy_s']:.3f} s in program calls"]
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  fail_ratio = {out['failed'] / out['attempted']:.6g} "
                 f"({out['failed']}/{out['attempted']})")
    if not trace:
        if "item_ref_p90" in out:
            lines.append(f"  item_ms_p90 = "
                         f"{out['item_ref_p90'] * REF_NOMINAL_MS:.6g} ms")
        lines.append(f"  as measured: items_per_s {out['items_per_s_raw']:.6g}, "
                     f"setup_s " + ", ".join(f"{t:.4f}" for t, _ in setup)
                     + f"; mean reference {out['ref_ms']:.4g} ms")
    for failure in out["failures"]:
        lines.append(f"  FAILED {failure}")

    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": stamp, "result": result,
                   "reference_ms": REF_NOMINAL_MS,
                   "worker": out, "setup_samples": setup}, fh, indent=1)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: default_seed in spec.json)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds; must equal run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "g2cm", "__init__.py")):
        print(f"no g2cm sources under {ROOT}/src", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"--seconds must be {seconds}, the run_seconds the bounds in "
              f"BENCHMARK.json hold for", file=sys.stderr)
        return 2

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result, lines = run_one(bench, name, seed, seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {k: r["metrics"] for k, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
