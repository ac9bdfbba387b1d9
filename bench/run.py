#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py --workload serve_cold --seed 11 --seconds 10 --trace 0
    python3 bench/run.py --workload serve_cold --trace 1     # per-layer ledger
    python3 bench/run.py --all [--repeats 3] --out A.json [--record]
    python3 bench/run.py --compare A.json B.json             # exit 1 if out of bounds
    python3 bench/run.py --smoke                             # 1/20 of the ops

A single-workload run prints human-readable detail first and, as the
last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time

import harness
import spec
import verify
from harness import DATASET_SIZE, median, ms, percentile
from workloads import WORKLOADS, Plan, Workload, anchors, dataset

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.datasets import ca_like
from repro.index import RStarTree

DEFAULT_SEED = 11
#: A run is this many identical passes, each on a freshly started program
#: (so nothing is cached from the pass before), and every time metric is
#: built from each operation's *fastest* pass.  The reference box is a
#: shared host whose cores run the same instructions 1.4..2x slower
#: whenever a neighbour is busy, in bursts of under a second to minutes.
#: Every workload is one closed loop, so that noise only ever adds time,
#: and the fastest of several tries spread over the run is what repeats
#: between runs; a median lands on whichever mode held the majority
#: (measured between-run spread 4 % against 10 % in-process).  Bursts
#: longer than a run still show — nothing inside a run can tell them
#: from a slower program.  Each pass also gives ``setup_s`` one more
#: cold start.
PASSES = 4
#: A sick program may not hang the run: after this multiple of a pass's
#: nominal length its remaining ops are recorded as failed.  Wide on
#: purpose — a host that runs at half speed for a while is not a sick
#: program, and ops cut off here make the run read as incorrect.
TIMEOUT_FACTOR = 8.0
#: ...but never so long that all passes, their set-ups and verification
#: could pass the 180 s a single run is allowed.
TIMEOUT_CAP_S = 110.0
HISTORY = harness.BENCH_DIR / "history.jsonl"


def run_seconds() -> int:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["run_seconds"]


# ----------------------------------------------------------------------
# Set-up: cold start to ready for the first timed op
# ----------------------------------------------------------------------
def setup_engine(window: float):
    """Generate, bulk-load, construct, answer a first query (which
    builds the lazy flat snapshot).  Returns ``(seconds, engine, tree)``."""
    first = anchors()[0]
    t0 = time.perf_counter()
    tree = RStarTree.bulk_load(ca_like(DATASET_SIZE).points)
    engine = NWCEngine(tree, Scheme.NWC_STAR)
    engine.nwc(NWCQuery(first[0], first[1], window, window, harness.N))
    return time.perf_counter() - t0, engine, tree


# ----------------------------------------------------------------------
# One untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload: Workload, plan: Plan, seconds: float) -> dict:
    """``PASSES`` times: set up from nothing, run ``plan`` timed.  Then
    verify every pass.  Returns the run summary."""
    timeout_s = min(TIMEOUT_CAP_S, max(80.0, TIMEOUT_FACTOR * seconds)) \
        / PASSES
    setups: list[float] = []
    passes: list[tuple[harness.RunLog, list]] = []
    rss = 0.0
    if workload.target == "engine":
        for _ in range(PASSES):
            engine = tree = None  # one engine at a time, as a user has
            setup_s, engine, tree = setup_engine(workload.window)
            setups.append(setup_s)
            passes.append((harness.run_engine(plan, engine, workload.window,
                                              timeout_s), []))
        rss = harness.own_peak_rss_mb()
        checked, mismatches = verify.verify_engine(
            [log.records for log, _ in passes], tree, workload.window)
    else:
        with harness.workdir() as workdir:
            for _ in range(PASSES):
                setup_s, program = harness.boot(workload.target, workdir)
                try:
                    setups.append(setup_s)
                    passes.append(harness.run_served(
                        plan, program.port, workload.window, timeout_s))
                    rss = max(rss, program.peak_rss_mb())
                finally:
                    program.stop()
        checked, mismatches = verify.verify_served(
            plan, passes, dataset(), workload.window)
    return summarize(workload, plan, passes, setups, rss, checked, mismatches)


def _fastest(passes: list[list], value) -> list[float]:
    """Per operation (aligned by position over the passes), the smallest
    ``value(record)`` among the passes in which it succeeded."""
    out = []
    for same_op in zip(*passes):
        tries = [value(r) for r in same_op if r.ok]
        if tries:
            out.append(min(tries))
    return out


def summarize(workload, plan, passes, setups, rss, checked,
              mismatches) -> dict:
    logs = [log for log, _warm in passes]
    records = [log.records for log in logs]

    def latencies(*kinds):
        return _fastest([[r for r in one if r.op[0] in kinds]
                         for one in records], lambda r: r.latency_s)

    # The run at its fastest: the standing queries register first, then
    # the one closed loop runs, as long as the sum of its operations'
    # fastest cycles.
    assert len(plan.conns) == 1, "the estimators assume one closed loop"
    subscribes = [min(tries) for tries in zip(
        *(log.subscribe_s for log in logs
          if len(log.subscribe_s) == len(plan.subs)))]
    loop = _fastest(records, lambda r: r.cycle_s)
    wall = sum(subscribes) + sum(loop)
    done = len(subscribes) + len(loop)

    nwc = latencies("nwc")
    # Node accesses of the first engine answer at each distinct location
    # (a repeat that happens to miss the cache must not change which
    # queries the mean is taken over).  Exact only because one loop
    # drives the program: it counts into one shared ``IOStats`` that
    # every query resets, so concurrent readers spoil each other's
    # count.  The first pass's: the counts are the same in every pass.
    first_answer: dict[tuple, int] = {}
    log, warm = passes[0]
    for r in list(warm) + log.records:
        if r.ok and r.op[0] == "nwc" and r.node_accesses is not None:
            first_answer.setdefault(r.op, r.node_accesses)
    accesses = list(first_answer.values())
    attempted = PASSES * (len(plan.conns[0]) + len(plan.subs))
    failed = mismatches + sum(
        sum(not r.ok for r in log.records)
        + len(plan.subs) - len(log.subscribe_s) for log in logs)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": done / wall,
        "nwc_p50_ms": ms(percentile(nwc, 0.5)),
        "node_accesses_per_nwc": harness.mean(accesses),
        "peak_rss_mb": rss,
    }
    detail = {"nwc_p90_ms": ms(percentile(nwc, 0.9)),
              "failed_share": failed / attempted}
    knwc, updates = latencies("knwc"), latencies("insert", "delete")
    if knwc:
        detail["knwc_p50_ms"] = ms(percentile(knwc, 0.5))
    if updates:
        detail["update_p50_ms"] = ms(percentile(updates, 0.5))
        detail["update_p90_ms"] = ms(percentile(updates, 0.9))
    notify: dict[tuple, float] = {}
    if plan.subs:
        detail["subscribe_per_s"] = len(subscribes) / sum(subscribes) \
            if subscribes else math.nan
        for log in logs:
            sent_at = {r.version: r.sent for r in log.records
                       if r.ok and r.op[0] in ("insert", "delete")}
            for f in log.notifies:
                if f.version in sent_at:
                    took = f.received - sent_at[f.version]
                    key = (f.version, f.sub)
                    notify[key] = min(took, notify.get(key, took))
        detail["notify_p50_ms"] = ms(percentile(list(notify.values()), 0.5))
        detail["notify_p90_ms"] = ms(percentile(list(notify.values()), 0.9))
    reads = [r for one in records for r in one
             if r.ok and r.op[0] in ("nwc", "knwc")]
    return {
        "workload": workload.name,
        "digest": plan.digest(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "samples": {
            "passes": PASSES, "pass_wall_s": [log.wall_s for log in logs],
            # What plain estimators over the same passes read, to show
            # what taking each operation's fastest pass buys.
            "plain_throughput_ops_s":
                sum(r.ok for one in records for r in one)
                / sum(log.wall_s for log in logs),
            "plain_nwc_p50_ms": ms(percentile(
                [r.latency_s for one in records for r in one
                 if r.ok and r.op[0] == "nwc"], 0.5)),
            "setups_s": setups, "nwc": len(nwc), "knwc": len(knwc),
            "update": len(updates), "subscribe": len(subscribes),
            "notify": len(notify), "verified": checked,
            "mismatches": mismatches,
            "timed_out": any(log.timed_out for log in logs),
            "client_cache_hit_share":
                sum(r.cached for r in reads) / len(reads) if reads else 0.0,
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in metrics.items()}


def result_line(summary: dict) -> str:
    metrics = summary["metrics"]
    bad = [name for name, value in metrics.items()
           if not isinstance(value, (int, float)) or not math.isfinite(value)]
    if bad:
        raise SystemExit(f"bench: metrics without a finite value: {bad}")
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": _with_units(metrics),
    })


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    # The plan is one pass; the traced run replays it once.
    plan = workload.build(seed, seconds / PASSES)
    if trace:
        import ledger
        summary = ledger.run(workload, plan, seed)
    else:
        summary = measure(workload, plan, seconds)
    summary["seed"], summary["seconds"] = seed, seconds
    return summary


def print_summary(summary: dict) -> None:
    extra = {k: v for k, v in summary.items() if k != "metrics"}
    print(json.dumps(extra, sort_keys=True))
    print(result_line(summary))


# ----------------------------------------------------------------------
# Whole-benchmark modes: --all, --smoke, --compare, --record
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, repeats: int = 1) -> dict:
    """Every workload, untraced ``repeats`` times then traced once; the
    report ``--compare`` reads.  Repeats go round the workloads (A B C
    A B C), not A A A: the reference box changes speed over minutes, and
    a round-robin spreads each workload's samples over the whole span.
    Each end-to-end metric is the median over the repeats."""
    report = {"commit": commit(), "seed": seed, "seconds": seconds,
              "repeats": repeats, "workloads": {}}
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for _ in range(repeats):
        for name in WORKLOADS:
            untraced = run_one(name, seed, seconds, trace=False)
            runs[name].append(untraced)
            values = {**untraced["metrics"], **untraced["detail"]}
            print(f"{name}: " + "  ".join(
                f"{k}={v:.4g}" for k, v in values.items()),
                file=sys.stderr, flush=True)
    for name, untraced in runs.items():
        per_run = [{**u["metrics"], **u["detail"]} for u in untraced]
        layer = run_one(name, seed, seconds, trace=True)
        report["workloads"][name] = {
            "digest": untraced[0]["digest"],
            "attempted": sum(u["attempted"] for u in untraced),
            "failed": sum(u["failed"] for u in untraced),
            "end_to_end": {metric: median([run[metric] for run in per_run])
                           for metric in per_run[0]},
            "samples": untraced[-1]["samples"],
            "per_layer": layer["metrics"],
            "ledger_failed": layer["failed"],
        }
    return report


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=harness.ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(report: dict) -> None:
    """Append one summary line, so the trajectory is a series."""
    line = {"commit": report["commit"], "seed": report["seed"],
            "seconds": report["seconds"],
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": {name: entry["end_to_end"]
                        for name, entry in report["workloads"].items()}}
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def compare(path_a: str, path_b: str) -> int:
    """Print every end-to-end metric of every workload in both reports
    with the relative change and its bound; 1 if any is out of bounds."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = {name: (better, bound)
              for name, _unit, better, bound, *_ in
              spec.END_TO_END + spec.DETAIL}
    out_of_bounds = 0
    print(f"{'workload':<13} {'metric':<22} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<13} missing from {path_b}")
            out_of_bounds += 1
            continue
        for metric, va in entry_a["end_to_end"].items():
            vb = entry_b["end_to_end"].get(metric)
            better, bound = bounds[metric]
            if vb is None:
                verdict, worse = "MISSING", math.nan
            else:
                # Positive = B is worse than A, as a share of A.
                delta = (vb - va) if better == "lower" else (va - vb)
                worse = delta / abs(va) if va else (math.inf if delta > 0
                                                    else 0.0)
                verdict = "OUT OF BOUNDS" \
                    if bound is not None and worse > bound else ""
            out_of_bounds += bool(verdict)
            shown = "   n/a" if bound is None else f"{bound:>6.0%}"
            print(f"{name:<13} {metric:<22} {va:>12.5g} "
                  f"{vb if vb is not None else math.nan:>12.5g} "
                  f"{worse:>+9.1%} {shown} {verdict}")
    return 1 if out_of_bounds else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="--all at 1/20 of the ops")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload in --all "
                             "(medians are reported)")
    parser.add_argument("--out", help="write the --all report here")
    parser.add_argument("--record", action="store_true",
                        help=f"append the --all summary to {HISTORY.name}")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # A terminated run must still stop its servers: turn TERM into an
    # exit, so every ``finally`` on the way out runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else run_seconds()
    if args.smoke:
        seconds = seconds / 20.0
    if args.all or args.smoke:
        report = run_all(args.seed, seconds, args.repeats)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
        else:
            print(json.dumps(report, sort_keys=True))
        if args.record:
            record(report)
        failed = sum(e["failed"] + e["ledger_failed"]
                     for e in report["workloads"].values())
        return 1 if failed else 0
    if args.workload is None:
        parser.error("one of --workload, --all, --smoke, --compare is needed")
    print_summary(run_one(args.workload, args.seed, seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
