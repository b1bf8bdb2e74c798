#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs perfbench/run.sh once per seed on each workload and prints, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of that median. Run it from the repository root:

    python3 perfbench/spread.py --seconds 30 --seeds 1-10
    python3 perfbench/spread.py --workload campaign-p1 --seeds 1-5 --out spread.json

Every run must report correct=true; the script stops at the first that
does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    meta_line, result_line = out.stdout.strip().split("\n")[-2:]
    result = json.loads(result_line)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect: {json.loads(meta_line)['failures']}")
    return json.loads(meta_line), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every workload in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed range, as in 1-10")
    ap.add_argument("--seconds", type=int, help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="also write the summary as JSON to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "seeds": seeds(args.seeds), "cpu": cpu_model(), "workloads": {}}
    for w in workloads:
        values = {}
        for seed in summary["seeds"]:
            start = time.time()
            meta, result = run(w, seed, seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for k in ("go", "gomaxprocs", "nproc"):
                summary[k] = meta[k]
            print(f"{w} seed {seed}: {time.time() - start:.1f}s, {meta['iterations']} units", flush=True)
        rows = {}
        for name, vs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bounds.get(name)}
            print(f"  {name:14s} median {med:12.6g}  spread {(q3 - q1) / med:.4f}  bound {bounds.get(name)}")
        summary["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
