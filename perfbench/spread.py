#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values, as statistics.quantiles(values, n=4) gives them, as a share
of their median, next to the bound BENCHMARK.json sets for the metric.

Run it from the repository root:

    python3 perfbench/spread.py --workload memory-mix --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    secs = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(secs), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.0f}s): " + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())),
              flush=True)

    summary = {}
    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {secs}s runs")
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "spread": spread}
        flag = "" if spread < bounds[name] / 3 else "  (above a third of the bound)"
        print(f"{name:18} {med:12.4g} {q1:12.4g} {q3:12.4g} {spread:8.3f} {bounds[name]:6.2f}{flag}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))


if __name__ == "__main__":
    main()
