"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mid-match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children_only():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import Tracer

    tracer = Tracer()
    tracer.begin_clip(0)
    # root [0, 10] > child [1, 7] > grandchild [2, 5]; sibling [8, 9]
    tracer.spans = [["root", 0.0, 10.0, -1, 0], ["child", 1.0, 7.0, 0, 0],
                    ["grandchild", 2.0, 5.0, 1, 0], ["sibling", 8.0, 9.0, 0, 0]]
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
    assert tracer.per_clip_self_ms()[0]["root"] == 3000.0
    assert tracer.children_ms("root") == [(0, 10000.0, {"child": 6000.0, "sibling": 1000.0})]


def test_host_speed_scales_by_the_kernel_timings_around_a_call():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    speed = run.HostSpeed()
    speed.samples = [(0.0, 4.0), (1.0, 4.0), (1.2, 8.0), (5.0, 1.0)]
    # a call from 1.0 s to 1.1 s sees the timings from 0.5 s to 1.6 s: 4 and 8 ms
    assert speed.scale(30.0, 1.0, 1.1) == 30.0 * run.REFERENCE_MS / 6.0
    # with no timing in its window, a call takes the nearest one
    assert speed.scale(30.0, 3.0, 3.1) == 30.0 * run.REFERENCE_MS / 8.0
