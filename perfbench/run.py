"""girycheck benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists):
  report-all     the `report-all` CLI command, one per interpreter
  transport-mix  exact W1 solves on box2, simplex3, rinf-grid, unit_interval
  finite-small   many small label spaces, each checked once

`--trace 0` measures end to end with nothing wrapped, single-threaded:
  setup_s           interpreter start to ready (import, registry, first
                    inputs); the median of several fresh interpreters
  wall_scaled_s     mean wall time of one round of the workload
  op_p50_scaled_ms  per-operation latency, median
  op_p90_scaled_ms  per-operation latency, 90th percentile
  peak_rss_mb       ru_maxrss of this process, read before the final checks

The three `_scaled` times are wall times scaled to a reference host speed
by a probe sampled throughout the timed rounds (see hostspeed.py), so that
a shared host's slow and fast stretches cancel out.  The same times as
measured (wall_s, op_p50_ms, op_p90_ms) are printed on the line before the
result.

`--trace 1` reruns the first rounds with every layer boundary wrapped (see
tracer.py) and prints the per-layer metrics.  It runs a fixed number of
rounds per workload, so that for one seed the call counts repeat exactly
whatever the host's speed; only extvalue.ops.calls moves a little, as it
counts the `ExtValue.__eq__` calls of dict lookups, whose collisions follow
the interpreter's string hash seed.  The metrics include trace.overhead_s
(traced minus untraced measured wall_s, the untraced figure coming from a
fresh `--trace 0` interpreter, so the host's drift between the two shows in
it too, and it can read below 0) and a box2 solver size ladder.

Every operation's output is checked outside the timed region.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the line
before it records the measured times, the round times, the set-up samples
and the sha256 of each round's generated inputs.  `--tiny` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 9
LADDER_SIZES = (8, 16, 24, 32)
LADDER_SPACE = "box2"

END_TO_END = {
    "setup_s": "s",
    "wall_scaled_s": "s",
    "op_p50_scaled_ms": "ms",
    "op_p90_scaled_ms": "ms",
    "peak_rss_mb": "MB",
}

# Inner-loop boundaries reported by call count alone (ExtValue also by self time).
COUNT_ONLY = ("algebra.h", "metric_ot.pivots", "metric_ot.metric", "extvalue.ops")
SPLIT_SPACES = ("box2", "simplex3", "rinf-grid", "unit_interval")


def per_layer_units():
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for _, _, name, _ in tracing.BOUNDARIES:
        out[f"{name}.calls"] = ("count", "lower")
        if name not in COUNT_ONLY:
            out[f"{name}.total_s"] = ("s", "lower")
            out[f"{name}.self_s"] = ("s", "lower")
    out["extvalue.ops.self_s"] = ("s", "lower")
    out["spaces.ideal_yield"] = ("ratio", "higher")
    out["metric_ot.compat_distinct_ratio"] = ("ratio", "higher")
    for sid in SPLIT_SPACES:
        out[f"metric_ot.wasserstein.{sid}.self_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    for k in LADDER_SIZES:
        out[f"ladder.{LADDER_SPACE}.{k}.total_s"] = ("s", "lower")
        out[f"ladder.{LADDER_SPACE}.{k}.pivots"] = ("count", "lower")
    return out


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


# ---------------------------------------------------------------------------
# set-up


def load(args):
    """Import girycheck from this checkout and build the workload: the set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import girycheck
    import workloads

    reg = girycheck.builtin_registry()
    return reg, workloads.WORKLOADS[args.workload](reg, args.seed, args.tiny, WORKDIR)


def _child_argv(args, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    return argv + (["--tiny"] if args.tiny else [])


def probe_setup(args):
    """Times from spawning a fresh interpreter to its ready line, and the
    sha256 of the first round's inputs each interpreter generated."""
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(_child_argv(args, "--probe"), stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line.startswith("ready "):
                raise SystemExit("set-up probe failed")
        digests.add(line.split()[1])
    return times, digests


def probe(args):
    _, wl = load(args)
    ops, text = wl.inputs(0)
    for op in ops:
        wl.prepare(op)
    print("ready", hashlib.sha256(text.encode()).hexdigest(), flush=True)


# ---------------------------------------------------------------------------
# rounds


class Raised(str):
    """The traceback of an operation that raised."""


def batches(wl):
    """(inputs text, ops, prepared ops) for rounds 0, 1, 2, ..."""
    for r in itertools.count():
        ops, text = wl.inputs(r)
        yield text, ops, [wl.prepare(op) for op in ops]


def run_rounds(wl, rounds, seconds, check_now, tracer=None, speed=None):
    """Time whole rounds until about `seconds` of rounds are measured (or
    the given batches run out); report-all runs exactly one round.

    With a host-speed probe open, every time excludes the probe's own
    samples, and is also reported scaled to the reference speed by the
    samples taken during its round."""
    walls, op_ms, walls_scaled, op_ms_scaled, kept, digests = [], [], [], [], [], []
    failed = attempted = 0
    clock = time.perf_counter
    marks = speed.mark if speed is not None else lambda: (0, 0.0)
    limit = 1 if wl.name == "report-all" else None
    for r, (text, ops, prepared) in enumerate(rounds):
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        outputs, round_ms = [], []
        first_sample, round_probe = marks()
        start = clock()
        for i, p in enumerate(prepared):
            if tracer is not None:
                tracer.op = f"{r}-{i}"
            _, op_probe = marks()
            t0 = clock()
            try:
                out = wl.run(p)
            except Exception:  # an operation that raises is a failed operation
                out = Raised(traceback.format_exc())
            round_ms.append((clock() - t0 - (marks()[1] - op_probe)) * 1000)
            outputs.append(out)
        last_sample, end_probe = marks()
        walls.append(clock() - start - (end_probe - round_probe))
        op_ms += round_ms
        if speed is not None:
            factor = speed.scale(first_sample, last_sample)
            walls_scaled.append(walls[-1] * factor)
            op_ms_scaled += [ms * factor for ms in round_ms]
        attempted += len(ops)
        done = list(zip(ops, prepared, outputs))
        if check_now:
            failed += check(wl, done)
        else:
            kept += done
        # stop where the measured time lands nearest `seconds`
        if (limit and r + 1 >= limit) or (
                seconds is not None and sum(walls) + statistics.fmean(walls) / 2 >= seconds):
            break
    return {"walls": walls, "op_ms": op_ms, "walls_scaled": walls_scaled,
            "op_ms_scaled": op_ms_scaled, "attempted": attempted, "failed": failed,
            "kept": kept, "inputs_sha256": digests}


def check(wl, done):
    failed = 0
    for op, prepared, out in done:
        if isinstance(out, Raised):
            sys.stderr.write(out)
            failed += 1
        elif not wl.check(op, prepared, out):
            sys.stderr.write(f"{wl.name}: check failed for {op!r}\n")
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# the two modes


def untraced(args):
    setup_times, probe_digests = probe_setup(args)
    _, wl = load(args)
    with hostspeed.SpeedProbe() as speed:
        res = run_rounds(wl, batches(wl), args.seconds, check_now=True, speed=speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = res["failed"] + wl.finish()
    sound = tracing.installed_wrappers() == 0 and probe_digests == {res["inputs_sha256"][0]}
    if not sound:
        sys.stderr.write("wrappers installed, or set-up inputs differ between interpreters\n")
    info = {"rounds": len(res["walls"]), "op_samples": len(res["op_ms"]),
            "inputs_sha256": res["inputs_sha256"], "round_walls_s": res["walls"],
            "round_walls_scaled_s": res["walls_scaled"], "setup_samples_s": setup_times,
            "wall_s": statistics.fmean(res["walls"]),
            "op_p50_ms": percentile(res["op_ms"], 50),
            "op_p90_ms": percentile(res["op_ms"], 90),
            "speed_samples": len(speed.samples),
            "speed_median_s": statistics.median(speed.samples) if speed.samples else None}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_scaled_s": statistics.fmean(res["walls_scaled"]),
        "op_p50_scaled_ms": percentile(res["op_ms_scaled"], 50),
        "op_p90_scaled_ms": percentile(res["op_ms_scaled"], 90),
        "peak_rss_mb": rss_mb,
    }
    return info, sound and failed == 0, res["attempted"], failed, {
        k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()
    }


def traced(args):
    child = subprocess.run(_child_argv(args, "--seconds", str(args.seconds), "--trace", "0"),
                           capture_output=True, text=True, timeout=170, check=False)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise SystemExit("untraced run failed")
    base_info, base = (json.loads(line) for line in child.stdout.splitlines()[-2:])

    reg, wl = load(args)
    rounds = list(itertools.islice(batches(wl), wl.traced_rounds))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = run_rounds(wl, rounds, None, check_now=False, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = check(wl, res["kept"]) + wl.finish()
    ladder, ladder_failed = run_ladder(reg, args.seed)
    tracer.write_spans(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")

    values = layer_values(tracer)
    values["trace.overhead_s"] = statistics.fmean(res["walls"]) - base_info["wall_s"]
    values.update(ladder)
    units = per_layer_units()
    metrics = {k: {"value": values.get(k, 0), "unit": units[k][0]} for k in units}
    info = {"rounds": len(res["walls"]), "op_samples": len(res["op_ms"]),
            "inputs_sha256": res["inputs_sha256"],
            "same_inputs_as_untraced": all(
                a == b for a, b in zip(res["inputs_sha256"], base_info["inputs_sha256"])),
            "spans": len(tracer.spans)}
    failed += ladder_failed + base["failed"]
    correct = base["correct"] and failed == 0 and info["same_inputs_as_untraced"]
    attempted = base["attempted"] + res["attempted"] + len(LADDER_SIZES)
    return info, correct, attempted, failed, metrics


def layer_values(tracer):
    values = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = total
        values[f"{name}.self_s"] = self_s
    ideal_checks = tracer.stats["spaces.is_ideal"][0]
    values["spaces.ideal_yield"] = tracer.ideals_returned / ideal_checks if ideal_checks else 0
    scans = tracer.compat_scans
    values["metric_ot.compat_distinct_ratio"] = len(set(scans)) / len(scans) if scans else 0
    for sid, self_s in tracer.wasserstein_self.items():
        values[f"metric_ot.wasserstein.{sid}.self_s"] = self_s
    return values


def run_ladder(reg, seed):
    """box2 solves at growing support, timed with only the pivot counter in place."""
    import workloads

    checker = workloads.TransportMix(reg, f"ladder-{seed}", False, WORKDIR)
    counter = tracing.Tracer(tracing.PIVOT)
    values, failed = {}, 0
    for k, p_raw, q_raw in workloads.ladder_inputs(seed, LADDER_SIZES):
        op = (LADDER_SPACE, p_raw, q_raw)
        prepared = checker.prepare(op)
        before = counter.stats.get("metric_ot.pivots", [0])[0]
        counter.install()
        try:
            t0 = time.perf_counter()
            result = checker.run(prepared)
            values[f"ladder.{LADDER_SPACE}.{k}.total_s"] = time.perf_counter() - t0
        finally:
            counter.uninstall()
        values[f"ladder.{LADDER_SPACE}.{k}.pivots"] = counter.stats["metric_ot.pivots"][0] - before
        failed += not checker.check(op, prepared, result)
    return values, failed + checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-all", "transport-mix", "finite-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "girycheck" / "__init__.py").is_file():
        print(f"no girycheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args)
        return 0
    WORKDIR.mkdir(exist_ok=True)
    info, correct, attempted, failed, metrics = (traced if args.trace else untraced)(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "attempted": attempted, "failed": failed, **info}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
