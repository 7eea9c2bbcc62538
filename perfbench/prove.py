#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                               [--seconds S] [--traced N] [--out FILE]

Run from the root of the repository.  Runs each workload once per seed
through run.py and reports, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(values, n=4)), next to the metric's
bound in BENCHMARK.json.  With --traced N it also makes a traced run
for the first N seeds and reports the tracing overhead: the traced
runs' end-to-end medians against the untraced ones, and the medians of
the per-layer metrics.  --out writes everything as JSON, with each
run's per-chunk rates and percentiles ("by_chunk").
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = json.loads(lines[-2])["run"]
    return info, json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in args.workloads.split(","):
        runs, traced = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            info, result = run(w, seed, args.seconds, 0)
            if result["failed"] or not result["correct"]:
                print("%s seed %d: %d of %d failed" %
                      (w, seed, result["failed"], result["attempted"]))
            runs.append({"info": info, "result": result})
            if seed < args.first_seed + args.traced:
                tinfo, tresult = run(w, seed, args.seconds, 1)
                traced.append({"info": tinfo, "result": tresult})
        rows = {}
        print("%s: %d seeds from %d, %d s each" %
              (w, args.seeds, args.first_seed, args.seconds))
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, iqr = spread(vals)
            row = {"median": med, "iqr_share": iqr, "bound": bounds[name],
                   "values": vals}
            line = "  %-12s median %12.5g  spread %6.1f%%  bound %4.0f%%" % (
                name, med, 100 * iqr, 100 * bounds[name])
            if traced:
                tvals = [t["info"]["traced_end_to_end"][name]["value"]
                         for t in traced]
                # same seeds on both sides
                base = statistics.median(vals[:len(tvals)])
                tmed = statistics.median(tvals)
                row["traced_median"] = tmed
                row["tracing_overhead_share"] = (tmed - base) / base
                line += "  traced %12.5g vs %12.5g (%+.1f%%)" % (
                    tmed, base, 100 * (tmed - base) / base)
            rows[name] = row
            print(line, flush=True)
        canary = [statistics.mean(r["info"]["host"]["canary_ms"]) for r in runs]
        steal = [r["info"]["host"]["steal_share"] for r in runs]
        print("  host canary ms per run %s; steal %s" % (
            " ".join("%.2f" % c for c in canary),
            " ".join("%.0f%%" % (100 * x) for x in steal)), flush=True)
        report[w] = {"metrics": rows,
                     "samples": [r["info"]["samples"] for r in runs],
                     "by_chunk": [r["info"]["by_chunk"] for r in runs],
                     "host_canary_ms": canary,
                     "host_steal_share": steal,
                     "params": runs[0]["info"]["params"],
                     "host": {k: runs[0]["info"][k]
                              for k in ("nproc", "ocaml", "commit",
                                        "source_digest")}}
        if traced:
            layers = {}
            for name in traced[0]["result"]["metrics"]:
                vals = [t["result"]["metrics"][name]["value"] for t in traced]
                layers[name] = statistics.median(vals)
            report[w]["per_layer_median"] = layers
            report[w]["not_measured"] = traced[0]["info"]["not_measured"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
