"""Run sets of seeded benchmark runs and summarise each end-to-end metric.

    python3 perfbench/sets.py --seeds 10 --sets 2 --out FILE

Each set runs every workload on seeds 1..N, one run at a time (each in a
fresh interpreter, `--trace 0`); sets run one after the other.  Records per metric the values, the median and
the quartile spread (q3 - q1) / median, as `statistics.quantiles(n=4)` gives
them, the same for the times as measured before scaling to the reference
host speed, plus each run's per-round inputs sha256.  Across sets it records the shift of
each median relative to the first set, and whether every seed saw the same
inputs in the rounds both of its runs reached.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Times as measured, before scaling to the reference host speed.
MEASURED = ("wall_s", "op_p50_ms", "op_p90_ms")


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info, result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "spread": (q3 - q1) / med}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    doc = {"machine": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "seconds": args.seconds, "workloads": {}}
    runs = {(w, k): [] for w in args.workloads for k in range(args.sets)}
    for k in range(args.sets):
        for workload in args.workloads:
            for seed in range(1, args.seeds + 1):
                t0 = time.time()
                info, result = one_run(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: {result}")
                runs[workload, k].append({
                    "seed": seed, "elapsed_s": time.time() - t0,
                    "attempted": result["attempted"], "rounds": info["rounds"],
                    "inputs_sha256": info["inputs_sha256"],
                    "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                    "measured": {n: info[n] for n in MEASURED},
                })
                print(workload, k, seed, round(time.time() - t0, 1), flush=True)
    for workload in args.workloads:
        sets = [{"runs": rs,
                 "metrics": {n: summarise([r["metrics"][n] for r in rs]) for n in bounds},
                 "measured": {n: summarise([r["measured"][n] for r in rs]) for n in MEASURED}}
                for rs in (runs[workload, k] for k in range(args.sets))]
        first = sets[0]["metrics"]
        same_inputs = all(
            r0["inputs_sha256"][:n] == r["inputs_sha256"][:n]
            for s in sets[1:]
            for r0, r in zip(sets[0]["runs"], s["runs"])
            for n in [min(len(r0["inputs_sha256"]), len(r["inputs_sha256"]))]
        )
        doc["workloads"][workload] = {
            "sets": sets,
            "same_inputs_per_seed": same_inputs,
            "median_shift": [{n: s["metrics"][n]["median"] / first[n]["median"] - 1 for n in bounds}
                             for s in sets[1:]],
        }
        for n in bounds:
            spreads = " ".join(f"{s['metrics'][n]['spread']:.3f}" for s in sets)
            shifts = " ".join(f"{d[n]:+.3f}" for d in doc["workloads"][workload]["median_shift"])
            print(f"{workload:14s} {n:17s} bound {bounds[n]:.2f} spread {spreads} shift {shifts}")
        for n in MEASURED:
            spreads = " ".join(f"{s['measured'][n]['spread']:.3f}" for s in sets)
            print(f"{workload:14s} {n:17s} (as measured) spread {spreads}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
