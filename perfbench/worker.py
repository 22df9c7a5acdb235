"""One benchmark process: set up one workload, then run its timed loop.

Started by run.py in a fresh interpreter.  Prints one JSON object on
stdout.  ``--setup-only`` stops after set-up, so that run.py can sample
set-up time in several fresh interpreters.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
import time
from array import array

MAX_FAILURES_SHOWN = 5
#: Wall time between two samples of the reference work in a timed loop.
REF_INTERVAL_NS = 50_000_000
#: An item's time is scaled by the mean of this many reference samples
#: nearest to it, half before and half after.
REF_NEAREST = 10
#: Reference samples taken just before set-up, and as many just after;
#: their mean scales the set-up time.
SETUP_REF_SAMPLES = 12


def reference_work() -> int:
    """Fixed pure-Python work, timed to gauge the machine's current speed.

    Small-int arithmetic with tuple and dict traffic, like the program's
    F_p[x] and Z + ξZ code.  It never changes, so its time moves only
    with the machine.
    """
    table: dict[int, int] = {}
    acc = (0, 0, 0)
    for i in range(6000):
        x = (i * i + 3 * i + 7) % 10007
        acc = (x, acc[0], i)
        table[x & 511] = table.get(x & 511, 0) + acc[1]
    return len(table)


def reference_ns() -> int:
    t = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - t


SETUP_REFS = [reference_ns() for _ in range(SETUP_REF_SAMPLES)]
T0 = time.perf_counter()  # set-up: imports, inputs, warm-up
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import g2cm  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def timed_loop(wl, passes, seconds, seed, rec=None, n_passes=None):
    """Run passes until seconds have elapsed; closed loop.

    With n_passes, run exactly that many passes instead.  Every pass
    comes new from the iterator passes, so no input is timed twice.

    The machine's speed drifts by up to 2x, within a run and between
    runs.  So the loop also times the fixed reference work every
    REF_INTERVAL_NS, and an item's cost is its time over the mean
    reference time around it (local_costs).  items_per_ref is the
    correct items over the summed cost of every item, item_ref_p50 the
    median cost; run.py converts them back to seconds at a fixed
    reference speed.
    """
    # Compact records, so that the benchmark's own bookkeeping hardly
    # moves peak_rss_mb with the number of items a run gets through.
    starts, ends = array("q"), array("q")  # ns, per item
    ref_times = array("q", [time.perf_counter_ns()])
    refs = array("q", [reference_ns()])  # ns, per reference sample
    next_ref = time.perf_counter_ns() + REF_INTERVAL_NS
    failures = []
    n_failed = 0
    n = 0
    deadline = time.perf_counter() + seconds
    while True:
        for item in next(passes):
            if time.perf_counter_ns() >= next_ref:
                ref_times.append(time.perf_counter_ns())
                refs.append(reference_ns())
                next_ref = time.perf_counter_ns() + REF_INTERVAL_NS
            if rec:
                rec.begin_item()
            t = time.perf_counter_ns()
            try:
                result = wl.run(item)
            except Exception as exc:  # noqa: BLE001 - a failed item, counted
                result = exc
            starts.append(t)
            ends.append(time.perf_counter_ns())
            if rec:
                rec.end_item()  # the checks below are not the program's work
            ok = wl.check(item, result)
            if rec:
                ok = wl.observe(rec, item, result, seed) and ok
            if not ok:
                n_failed += 1
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(f"{item!r} -> {result!r}"[:400])
        n += 1
        if n == n_passes or (n_passes is None and time.perf_counter() >= deadline):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(starts)
    busy_ns = sum(ends) - sum(starts)
    costs = local_costs(starts, ends, ref_times, refs)
    out = {
        "attempted": attempted,
        "failed": n_failed,
        "failures": failures,
        "passes": n,
        "busy_s": busy_ns / 1e9,
        "items_per_s_raw": attempted / (busy_ns / 1e9),
        "ref_ms": statistics.fmean(refs) / 1e6,
        "peak_rss_mb": peak_rss_mb,
        # per reference unit, and in reference units:
        "items_per_ref": (attempted - n_failed) / sum(costs),
        "item_ref_p50": statistics.median(costs),
    }
    if attempted >= 100:  # p90 needs at least ten samples above it
        out["item_ref_p90"] = statistics.quantiles(costs, n=10)[8]
    return out


def local_costs(starts, ends, ref_times, refs):
    """Each item's time over the mean reference time around it.

    starts and ends are the items' times, ref_times and refs the times
    and values of the reference samples, all in ns and in time order.
    The reference time around an item is the mean of the REF_NEAREST
    samples nearest it: within ±0.25 s of a short item, a few items
    either side of a long one.  A single sample is noisy, but speed
    swings last about a second: scaling by the nearest ten cut the
    spread of a fixed 23 ms piece of work from 24% to 13%, against 15%
    for the last sample alone.
    """
    prefix = [0]
    for r in refs:
        prefix.append(prefix[-1] + r)
    half = REF_NEAREST // 2
    out = array("d")
    for t0, t1 in zip(starts, ends):
        j = bisect.bisect_right(ref_times, t0)  # samples taken before the item
        lo = max(0, min(j - half, len(refs) - REF_NEAREST))
        hi = min(len(refs), lo + REF_NEAREST)
        out.append((t1 - t0) * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="")
    ap.add_argument("--stamp", default="{}", help="provenance, as JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    passes = wl.passes(args.seed)
    # The warm-up items come from (or beside) a first pass that is not timed.
    warm = timed_loop(wl, iter([list(wl.warmup(next(passes)))]), 0, args.seed,
                      n_passes=1)
    setup_s = time.perf_counter() - T0
    SETUP_REFS.extend(reference_ns() for _ in range(SETUP_REF_SAMPLES))
    setup_ref_ms = statistics.fmean(SETUP_REFS) / 1e6
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_ms": setup_ref_ms}))
        return 0

    if not args.trace:
        out = timed_loop(wl, passes, args.seconds, args.seed)
    else:
        # Half the time untraced, then as many new passes traced: the
        # difference is the tracing overhead.
        plain = timed_loop(wl, passes, args.seconds / 2, args.seed)
        rec = spans.Recorder()
        rec.install()
        try:
            out = timed_loop(wl, passes, 0, args.seed, rec, plain["passes"])
        finally:
            rec.restore()
        out["attempted"] += plain["attempted"]
        out["failed"] += plain["failed"]
        out["failures"] = plain["failures"] + out["failures"]
        out["layers"] = rec.layer_metrics()
        out["untraced_items_per_ref"] = plain["items_per_ref"]
        if args.spans_out:
            rec.write(args.spans_out, json.loads(args.stamp))
    out["attempted"] += warm["attempted"]
    out["failed"] += warm["failed"]
    out["failures"] = warm["failures"] + out["failures"]
    out["setup_s"] = setup_s
    out["setup_ref_ms"] = setup_ref_ms
    out["g2cm_file"] = g2cm.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
