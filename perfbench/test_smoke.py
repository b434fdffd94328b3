"""Smoke test of the benchmark itself: each workload at a tiny size, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and fail no operation.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd or HERE.parent,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_layer_spec_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    from run import per_layer_units

    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer_units() == spec


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import girycheck
    import girycheck.algebra
    import girycheck.metric_ot
    from tracer import Tracer, installed_wrappers

    original = girycheck.metric_ot.compat_check_2pt
    assert installed_wrappers() == 0
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = girycheck.metric_ot.compat_check_2pt
        assert wrapped is not original
        assert girycheck.algebra.compat_check_2pt is wrapped
        assert girycheck.compat_check_2pt is wrapped
        assert installed_wrappers() > 0
    finally:
        tracer.uninstall()
    assert girycheck.algebra.compat_check_2pt is original
    assert installed_wrappers() == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "transport-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_speed_probe_samples_and_puts_the_alarm_back():
    sys.path.insert(0, str(HERE))
    import signal
    import statistics
    import time

    from hostspeed import REFERENCE_S, SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as speed:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 5
    assert speed.spent == sum(speed.samples)
    assert speed.scale(0) == REFERENCE_S / statistics.median(speed.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
