#!/usr/bin/env python3
"""Clip-to-scene benchmark for rallyforge.

    python3 perfbench/run.py --workload long-match --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-golden

Run it from anywhere inside a source checkout: it imports rallyforge from the
checkout's ``src`` directory and exits with code 2, printing no result, when
that source is missing.

One process, one caller, one clip at a time. Each round on a clip simulates
it (``simulate_rally`` -> ``project_clip`` -> JSON text), reconstructs it
(``parse_clip`` -> ``reconstruct_scene`` -> ``serialize_scene``), verifies
it from scratch (``parse_clip`` -> ``reconstruct_scene`` ->
``round_trip_report``) and reloads the scene (``parse_scene`` -> the last
point's metric windows); the caller cycles rounds over the run's clips.
``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference host speed (see ``HostSpeed``); ``--trace 1`` wraps the
library calls in spans and reports per-layer self times and counts instead,
plus the tracing overhead.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of a traced run are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
SETUP_KERNEL_TIMINGS = 5  # reference kernel timings after each cold start
# golden.json holds the scenes of run seeds 0..GOLDEN_RUN_SEEDS-1; a larger or
# negative --seed picks its inputs from seed % GOLDEN_RUN_SEEDS, so every run
# is checked against the golden list
GOLDEN_RUN_SEEDS = 32
ROUNDS = 2  # least rounds over the clips of an untraced run; a traced run makes one
# Each of a clip's first ROUNDS rounds verifies it; later rounds repeat its
# verify only while its timed calls add up to less than this. One 80-point
# verify runs for about 12 s, and more of them would take most of a run.
VERIFY_BUDGET_S = 10.0

sys.path.insert(0, str(BENCH_DIR))
from workloads import README_DROPOUT_PROBE, README_DROPOUT_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "reconstruct_ms_p50": "ms",
    "frames_per_s": "1/s",
    "verify_ms_p50": "ms",
    "simulate_ms_p50": "ms",
    "scene_load_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "scene_mb_p50": "MB",
    "player_rmse_m_max": "m",
}


# ============================================================
# Loading the program under test
# ============================================================


def load_program():
    """Import rallyforge from the checkout's source, never from elsewhere."""
    if not (SRC / "rallyforge" / "__init__.py").is_file():
        print(f"perfbench: no rallyforge source at {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    # one thread: the pipeline is single-process numpy, and BLAS threads
    # would make timings depend on what else the machine runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    global np, config_mod, ingest, pipeline, scene_io, scene_metrics, simulate, tracing
    import numpy as np
    import rallyforge.config as config_mod
    import rallyforge.ingest as ingest
    import rallyforge.pipeline as pipeline
    import rallyforge.scene as scene_io
    import rallyforge.scene_metrics as scene_metrics
    import rallyforge.simulate as simulate
    import tracing


# ============================================================
# The four operations
# ============================================================
#
# Library functions are looked up through their modules at call time, so the
# tracer's wrappers see the same calls the untraced run makes.


def _dump(doc: dict) -> str:
    # the CLI's format for clip and truth files
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sim_config(wl: Workload, seed: int):
    return simulate.SimConfig(seed=seed, points=wl.points,
                              pixel_noise_sigma_px=wl.pixel_noise_sigma_px,
                              quantize_pixels=wl.quantize_pixels,
                              dropout_rate=wl.dropout_rate)


def clip_seed(wl: Workload, run_seed: int, index: int) -> int:
    """The simulator seed of the run's ``index``-th clip.

    Where the workload fixes a frame window, candidates are tried in order
    and the first rally of an accepted length wins, so clip size (and with
    it the cost of the superlinear layers) does not vary from seed to seed.
    """
    base = (run_seed % GOLDEN_RUN_SEEDS) * 100_000 + index
    if wl.frames is None:
        return base
    lo, hi = wl.frames
    for j in range(100):
        seed = base + 1000 * j
        if lo <= simulate.simulate_rally(sim_config(wl, seed)).n_frames <= hi:
            return seed
    raise ValueError(f"{wl.name}: no clip of {lo}-{hi} frames among 100 candidate seeds")


def op_simulate(cfg) -> Tuple[str, str]:
    rally = simulate.simulate_rally(cfg)
    clip_doc, truth_doc = simulate.project_clip(rally, cfg)
    return _dump(clip_doc), _dump(truth_doc)


def op_reconstruct(clip_text: str, stats: dict) -> Tuple[int, object, str]:
    clip = ingest.parse_clip(clip_text)
    scene = pipeline.reconstruct_scene(clip, stats=stats)
    return clip.n_frames, scene, scene_io.serialize_scene(scene)


def op_verify(clip_text: str, truth_text: str) -> Tuple[object, dict]:
    config = config_mod.DEFAULT_CONFIG
    clip = ingest.parse_clip(clip_text)
    truth = simulate.GroundTruthRally.from_dict(json.loads(truth_text))
    scene = pipeline.reconstruct_scene(clip, config)
    return scene, simulate.round_trip_report(truth, scene, config.export.sample_rate_hz)


def op_scene_load(scene_text: str) -> Dict[str, dict]:
    loaded = scene_io.parse_scene(scene_text)
    last = loaded.points[-1]
    return {w.value: last.metrics[w].to_dict() for w in scene_metrics.MetricsWindow}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ============================================================
# Host speed
# ============================================================
#
# The benchmark's host shares its CPUs with other work: for seconds to
# minutes at a time the same code runs up to ~1.8x slower. An untraced run
# therefore times a small fixed reference kernel (the benchmark's own code,
# never the program's) every SAMPLE_EVERY_S, from a timer signal, all through
# the run, also in the middle of a timed call. Each call's wall time, less the
# kernel time spent inside it, is reported scaled to a host on which the
# kernel takes REFERENCE_MS: wall time x REFERENCE_MS / the median kernel time
# from SPEED_WINDOW_S before the call to SPEED_WINDOW_S after it. A slower
# host moves the kernel and the call alike, so it cancels; a slower program
# moves only the call. Unscaled wall times are printed as well.

REFERENCE_MS = 2.0  # the kernel's time on a quiet 2-vCPU x86-64 cloud host
SAMPLE_EVERY_S = 0.1
SPEED_WINDOW_S = 0.5


def reference_kernel():
    """A fixed mix of the work the pipeline does: numpy passes, JSON and dict updates."""
    # arrays under glibc's 128 KiB mmap threshold, so the kernel's page
    # faults do not depend on what the program allocated before it
    a = np.linspace(0.0, 1.0, 10_000)
    for _ in range(4):
        a = np.sqrt(a * a + 1.0)
    rows = [{"t": i * 0.01, "xy": [i * 0.5, i * 0.25], "k": "p"} for i in range(500)]
    json.loads(json.dumps(rows))
    totals: Dict[int, float] = {}
    for i in range(500):
        totals[i % 97] = totals.get(i % 97, 0.0) + i * 0.5
    return float(a[-1]), len(totals)


class HostSpeed:
    """Samples the reference kernel's time while active, and scales wall times by it.

    Use it as a context manager around the timed part of a run; it owns the
    process's SIGALRM handler and interval timer meanwhile.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (perf_counter at start, ms)
        self.spent_s = 0.0  # wall time spent in the kernel, to take out of calls

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No kernel timings meanwhile, for a child process that shares this CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def sample(self):
        """Time the kernel once, now."""
        self._tick(signal.SIGALRM, None)

    def _tick(self, signum, frame):
        # The kernel makes no reference cycles. With the collector off, its
        # allocations cannot set off a collection of the program's heap,
        # which would tie its time to the workload's size.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, (t1 - t0) * 1000.0))
        self.spent_s += t1 - t0

    def kernel_ms(self) -> List[float]:
        return [ms for _, ms in self.samples]

    def scale(self, wall_ms: float, start: float, end: float) -> float:
        """``wall_ms`` of a call made from ``start`` to ``end``, in reference-host ms."""
        lo, hi = start - SPEED_WINDOW_S, end + SPEED_WINDOW_S
        around = [ms for t, ms in self.samples if lo <= t <= hi]
        if not around:  # a C call held off the timer for the whole window
            around = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return wall_ms * REFERENCE_MS / statistics.median(around)


# ============================================================
# One clip
# ============================================================


@dataclass
class ClipResult:
    index: int
    seed: int
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    frames: int = 0
    simulate_ms: List[float] = field(default_factory=list)
    reconstruct_ms: List[float] = field(default_factory=list)
    verify_ms: List[float] = field(default_factory=list)
    scene_load_ms: List[float] = field(default_factory=list)
    # (start, end) of each timed call of an untraced run, by operation
    windows: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    untraced_reconstruct_ms: Optional[float] = None
    clip_sha: str = ""
    scene_sha: str = ""
    scene_bytes: int = 0
    ball_rmse_m: float = math.nan
    player_rmse_m: float = math.nan
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.rounds > 0 and self.failed == 0


class ClipRunner:
    """Runs rounds of operations on a clip, timing each and checking its output.

    A round is simulate, reconstruct, verify and scene load; an untraced round
    then simulates and loads once more. Every repeat must give the same clip,
    scene bytes, verify errors and metric windows as the first.
    """

    def __init__(self, tracer=None, speed: Optional[HostSpeed] = None):
        self.tracer = tracer
        self.speed = speed

    def _op(self, name: str):
        return self.tracer.operation(name) if self.tracer is not None else nullcontext()

    def _timed(self, r: ClipResult, name: str, fn, *args):
        gc.collect()
        spent_s = self.speed.spent_s if self.speed is not None else 0.0
        with self._op(name):
            t0 = time.perf_counter()
            out = fn(*args)
            t1 = time.perf_counter()
        ms = (t1 - t0) * 1000.0
        if self.speed is not None:
            # the reference kernel's time inside the call is not the call's
            ms -= (self.speed.spent_s - spent_s) * 1000.0
            r.windows.setdefault(name, []).append((t0, t1))
        return out, ms

    def run_round(self, wl: Workload, r: ClipResult):
        if r.failed:
            return
        first = r.rounds == 0
        if self.tracer is not None:
            self.tracer.begin_clip(r.index)
        step = "simulate"
        try:
            clip_text, truth_text = self._simulate(wl, r)
            if r.failed:
                return

            step = "reconstruct"
            r.attempted += 1
            if self.tracer is not None:
                # the same call untraced, for the tracing overhead
                gc.collect()
                t0 = time.perf_counter()
                _, _, plain_text = op_reconstruct(clip_text, {})
                r.untraced_reconstruct_ms = (time.perf_counter() - t0) * 1000.0
            (r.frames, scene, scene_text), ms = self._timed(
                r, "reconstruct", op_reconstruct, clip_text, r.stats)
            r.reconstruct_ms.append(ms)
            scene_sha = sha256(scene_text)
            if first:
                r.scene_sha = scene_sha
                r.scene_bytes = len(scene_text.encode("utf-8"))
            elif scene_sha != r.scene_sha:
                return self._fail(r, step, "repeated reconstruction gave different scene bytes")
            if self.tracer is not None and plain_text != scene_text:
                return self._fail(r, step, "traced and untraced scene bytes differ")

            step = "verify"
            if r.rounds < ROUNDS or sum(r.verify_ms) < VERIFY_BUDGET_S * 1000.0:
                r.attempted += 1
                (_, report), ms = self._timed(r, "verify", op_verify, clip_text, truth_text)
                r.verify_ms.append(ms)
                rmse = (report["ball_rmse_m"], report["player_rmse_m"])
                if not (all(math.isfinite(e) for e in rmse)
                        and report["ball_samples"] > 0 and report["player_samples"] > 0):
                    return self._fail(r, step, f"verify report is not usable: {report}")
                if first:
                    r.ball_rmse_m, r.player_rmse_m = rmse
                elif rmse != (r.ball_rmse_m, r.player_rmse_m):
                    return self._fail(r, step, "repeated verify gave a different report")

            step = "scene_load"
            want = {w.value: m.to_dict() for w, m in scene.points[-1].metrics.items()}
            self._scene_load(r, scene_text, want)
            if self.tracer is None and not r.failed:
                # Short calls suffer most from bursts of outside load, so an
                # untraced round repeats them at its end, apart from the first
                # samples by the costly calls.
                step = "simulate"
                self._simulate(wl, r)
                step = "scene_load"
                self._scene_load(r, scene_text, want)
            if not r.failed:
                r.rounds += 1
        except Exception:  # a failed operation is counted, and the run goes on
            print(f"perfbench: clip {r.index} (seed {r.seed}) {step} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            r.failed += 1

    def _simulate(self, wl: Workload, r: ClipResult) -> Tuple[str, str]:
        r.attempted += 1
        (clip_text, truth_text), ms = self._timed(r, "simulate", op_simulate, sim_config(wl, r.seed))
        r.simulate_ms.append(ms)
        clip_sha = sha256(clip_text + truth_text)
        if not r.clip_sha:
            r.clip_sha = clip_sha
        elif clip_sha != r.clip_sha:
            self._fail(r, "simulate", "repeated simulation gave a different clip")
        return clip_text, truth_text

    def _scene_load(self, r: ClipResult, scene_text: str, want: Dict[str, dict]):
        r.attempted += 1
        windows, ms = self._timed(r, "scene_load", op_scene_load, scene_text)
        r.scene_load_ms.append(ms)
        if windows != want:
            self._fail(r, "scene_load", "reloaded metric windows differ from the scene's")

    @staticmethod
    def _fail(r: ClipResult, step: str, why: str):
        print(f"perfbench: clip {r.index} (seed {r.seed}) {step} failed: {why}",
              file=sys.stderr)
        r.failed += 1


# ============================================================
# Set-up time
# ============================================================


def measure_setup(seed: int, samples: int, speed: HostSpeed) -> Tuple[List[float], bool]:
    """Time of fresh processes that import rallyforge and reconstruct a 1-point clip.

    A child runs on this process's CPU, so the kernel is not timed while it
    runs but just before and after, and its wall time is scaled by those
    timings like every latency of an untraced run.
    """
    cfg = simulate.SimConfig(seed=seed, points=1)
    clip_text, _ = op_simulate(cfg)
    _, _, scene_text = op_reconstruct(clip_text, {})
    want = sha256(scene_text)
    OUT.mkdir(exist_ok=True)
    clip_path = OUT / f"setup-clip-{os.getpid()}.json"
    clip_path.write_text(clip_text, encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "cold_start.py"), str(SRC), str(clip_path)]
    times: List[float] = []
    ok = True
    try:
        for i in range(samples + 1):  # the first run compiles bytecode and is not timed
            with speed.paused():
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
                t1 = time.perf_counter()
            for _ in range(SETUP_KERNEL_TIMINGS):
                speed.sample()
            elapsed = speed.scale((t1 - t0) * 1000.0, t0, t1) / 1000.0
            if proc.returncode != 0 or proc.stdout.strip() != want:
                print(f"perfbench: cold start failed (exit {proc.returncode}): "
                      f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
                ok = False
            elif i > 0:
                times.append(elapsed)
    finally:
        clip_path.unlink()
    return times, ok


# ============================================================
# Golden scene hashes
# ============================================================


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def record_golden() -> int:
    """Hash every scene the fixed clips of every run seed produce, and the probe."""
    golden = {"format": "perfbench-golden/1", "workloads": {}, "probes": {}}
    for wl in WORKLOADS.values():
        hashes = {}
        for run_seed in range(GOLDEN_RUN_SEEDS):
            for i in range(wl.fixed_clips):
                seed = clip_seed(wl, run_seed, i)
                clip_text, _ = op_simulate(sim_config(wl, seed))
                hashes[str(seed)] = sha256(op_reconstruct(clip_text, {})[2])
        golden["workloads"][wl.name] = hashes
        print(f"recorded {len(hashes)} {wl.name} scenes", flush=True)
    clip_text, _ = op_simulate(sim_config(README_DROPOUT_PROBE, README_DROPOUT_SEED))
    golden["probes"][README_DROPOUT_PROBE.name] = sha256(op_reconstruct(clip_text, {})[2])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


# ============================================================
# A run
# ============================================================


def _p90_with_tail(values: List[float]) -> Optional[float]:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[8]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


@dataclass
class RunResult:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    lines: List[str]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 golden: Optional[dict], setup_samples: int = SETUP_SAMPLES) -> RunResult:
    # a traced run reports self times, not latencies, and scales nothing
    speed = None if trace else HostSpeed()
    with speed if speed is not None else nullcontext():
        return _run_workload(wl, seed, seconds, golden, setup_samples, speed)


def _run_workload(wl: Workload, seed: int, seconds: float, golden: Optional[dict],
                  setup_samples: int, speed: Optional[HostSpeed]) -> RunResult:
    lines: List[str] = []
    correct = True
    trace = speed is None
    setup_times: List[float] = []
    if not trace:
        setup_times, setup_ok = measure_setup(seed, setup_samples, speed)
        correct &= setup_ok

    tracer = tracing.Tracer() if trace else None
    runner = ClipRunner(tracer, speed)

    # the README dropout probe: reported every run, gated only on its hash
    probe = ClipResult(index=-1, seed=README_DROPOUT_SEED)
    for _ in range(2):
        ClipRunner().run_round(README_DROPOUT_PROBE, probe)
    golden_checked = golden_mismatches = 0

    def check_golden(table: dict, key: str, what: str, scene_sha: str):
        nonlocal golden_checked, golden_mismatches
        golden_checked += 1
        want = table.get(key)
        if want != scene_sha:
            golden_mismatches += 1
            print(f"perfbench: golden mismatch: {what}: "
                  + ("no golden hash" if want is None else "scene sha256 differs"),
                  file=sys.stderr)

    if golden is not None:
        check_golden(golden["probes"], README_DROPOUT_PROBE.name,
                     f"probe {README_DROPOUT_PROBE.name}", probe.scene_sha)
    bounds = config_mod.DEFAULT_CONFIG.verify
    lines.append(f"probe {README_DROPOUT_PROBE.name} seed {README_DROPOUT_SEED} "
                 f"ball_rmse_m {probe.ball_rmse_m:.4f} m player_rmse_m "
                 f"{probe.player_rmse_m:.4f} m bound {bounds.ball_rmse_m} m "
                 f"{'FAIL' if probe.ball_rmse_m > bounds.ball_rmse_m else 'pass'} "
                 "(known dropout defect, reported, not gated)")

    # The fixed clips get their first round in order. An untraced run then
    # cycles over them, one clip at a time, until the time is up and each has
    # had ROUNDS rounds, so a clip's repeats are spread over the run and a
    # burst of load from outside the process rarely hits all of them. A
    # traced run makes one round per clip and fills its time with more clips.
    # Past the fixed clips and ROUNDS, a round that would end after the time
    # is up, judged by how long the last round took, is not started.
    hashes = golden["workloads"].get(wl.name, {}) if golden is not None else None
    clips: List[ClipResult] = []
    peak_rss_kib = 0
    t_start = time.perf_counter()
    round_s = 0.0

    def time_left() -> bool:
        return time.perf_counter() - t_start + round_s < seconds

    while len(clips) < wl.fixed_clips or (trace and time_left()):
        t_round = time.perf_counter()
        r = ClipResult(index=len(clips), seed=clip_seed(wl, seed, len(clips)))
        runner.run_round(wl, r)
        round_s = time.perf_counter() - t_round
        clips.append(r)
        if hashes is not None and r.index < wl.fixed_clips and r.complete:
            check_golden(hashes, str(r.seed), f"{wl.name} clip seed {r.seed}", r.scene_sha)
        if len(clips) == wl.fixed_clips:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    visits = len(clips)
    while not trace and (visits < ROUNDS * len(clips) or time_left()):
        t_round = time.perf_counter()
        runner.run_round(wl, clips[visits % len(clips)])
        round_s = time.perf_counter() - t_round
        visits += 1
    measured_s = time.perf_counter() - t_start
    attempted = probe.attempted + sum(r.attempted for r in clips)
    failed = probe.failed + sum(r.failed for r in clips)

    done = [r for r in clips if r.complete]
    fixed = [r for r in clips[:wl.fixed_clips] if r.complete]
    correct &= failed == 0 and golden_mismatches == 0 and len(fixed) == wl.fixed_clips
    over = sum(r.ball_rmse_m > bounds.ball_rmse_m or r.player_rmse_m > bounds.player_rmse_m
               for r in fixed)
    lines.append(f"workload {wl.name} seed {seed} trace {int(trace)} clips {len(clips)} "
                 f"(first {wl.fixed_clips} fixed) rounds {visits / len(clips):.2f} measured_s {measured_s:.1f} "
                 f"frames {sum(r.frames for r in done)}")
    lines.append(f"check error_rate {failed / max(attempted, 1):.4f} ratio "
                 f"failed {failed} of {attempted} operations")
    lines.append(f"check verify_fail_rate {over / max(len(fixed), 1):.4f} ratio "
                 f"{over} of {len(fixed)} clips over {bounds.ball_rmse_m} m")
    # deterministic per seed, but with dropout it spreads too far between seeds
    # to carry a bound; golden hashes catch any change to it
    lines.append(f"extra ball_rmse_m_max "
                 f"{max((r.ball_rmse_m for r in fixed), default=math.nan):.6g} m")
    lines.append(f"check golden_mismatches {golden_mismatches} count "
                 f"of {golden_checked} scenes checked" if golden is not None else
                 "check golden_mismatches n/a count (no golden list for these clips)")

    if trace:
        metrics = trace_metrics(tracer, done, lines)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{wl.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    else:
        # A call's latency is its wall time scaled to the reference host speed;
        # a clip's is the median over its calls, and the p50 is over clips.
        ops = ("simulate", "reconstruct", "verify", "scene_load")
        scaled = {op: [[speed.scale(ms, *window)
                        for ms, window in zip(getattr(r, op + "_ms"), r.windows[op])]
                       for r in done] for op in ops}
        per_clip = {op: [_median(calls) for calls in scaled[op]] for op in ops}
        metrics = {
            "setup_s": _median(setup_times),
            "reconstruct_ms_p50": _median(per_clip["reconstruct"]),
            "frames_per_s": (sum(r.frames for r in done)
                             / (sum(per_clip["reconstruct"]) / 1000.0) if done else math.nan),
            "verify_ms_p50": _median(per_clip["verify"]),
            "simulate_ms_p50": _median(per_clip["simulate"]),
            "scene_load_ms_p50": _median(per_clip["scene_load"]),
            "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
            "scene_mb_p50": _median(r.scene_bytes / 1e6 for r in fixed),
            "player_rmse_m_max": max((r.player_rmse_m for r in fixed), default=math.nan),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        calls = [ms for clip_calls in scaled["reconstruct"] for ms in clip_calls]
        p90 = _p90_with_tail(calls)
        lines.append("extra wall_ms_p50 " + " ".join(
            f"{op}={_median(_median(getattr(r, op + '_ms')) for r in done):.3f}" for op in ops)
            + " (unscaled)")
        kernel = speed.kernel_ms()
        lines.append(f"extra reference_kernel_ms_p50 {_median(kernel):.4f} ms over "
                     f"{len(kernel)} timings (scaled to {REFERENCE_MS} ms)")
        lines.append("extra reconstruct_ms_p90 " +
                     (f"{p90:.3f} ms over all {len(calls)} timed calls" if p90 is not None else
                      f"n/a ms over {len(calls)} timed calls (fewer than 10 beyond p90)"))
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    correct &= all(math.isfinite(value) for value, _ in metrics.values())
    return RunResult(metrics=metrics, attempted=attempted, failed=failed,
                     correct=bool(correct), lines=lines)


def trace_metrics(tracer, done: List[ClipResult], lines: List[str]) -> Dict[str, Tuple[float, str]]:
    """Per-layer medians over clips, the tracing overhead and the stage cross-check."""
    self_ms = tracer.per_clip_self_ms()
    metrics: Dict[str, Tuple[float, str]] = {}
    for span in tracing.span_names():
        metrics[span + "_ms"] = (_median(self_ms[r.index].get(span, 0.0) for r in done), "ms")
    for count in tracing.count_names():
        unit = "bytes" if count == "scene.bytes" else "count"
        metrics[count] = (_median(tracer.counts[r.index].get(count, 0) for r in done), unit)

    overhead = [(r.reconstruct_ms[0] / r.untraced_reconstruct_ms - 1.0) * 100.0 for r in done]
    metrics["trace.overhead_pct"] = (_median(overhead), "%")

    # cross-check the spans inside reconstruct_scene against its own stage times
    by_clip = {clip: (total, kids) for clip, total, kids in
               tracer.children_ms("pipeline.reconstruct_scene")}
    uncovered, gaps, mismatches = [], [], 0
    for r in done:
        total, kids = by_clip[r.index]
        uncovered.append((total - sum(kids.values())) / total * 100.0)
        unmapped = set(kids) - {s for spans in tracing.STAGE_SPANS.values() for s in spans}
        if unmapped:
            mismatches += 1
            print(f"perfbench: cross-check: spans {sorted(unmapped)} belong to no stage",
                  file=sys.stderr)
        worst = 0.0
        for stage, spans in tracing.STAGE_SPANS.items():
            stage_ms = r.stats[stage] * 1000.0
            inside = sum(kids.get(s, 0.0) for s in spans)
            if inside > stage_ms + 0.01 + 0.01 * stage_ms:
                mismatches += 1
                print(f"perfbench: cross-check: clip {r.index} spans of {stage} take "
                      f"{inside:.3f} ms, more than the stage's {stage_ms:.3f} ms",
                      file=sys.stderr)
            worst = max(worst, stage_ms - inside)
        gaps.append(worst / total * 100.0)
    metrics["trace.uncovered_pct"] = (_median(uncovered), "%")
    metrics["trace.stage_gap_max_pct"] = (_median(gaps), "%")
    lines.append(f"check stage_crosscheck_mismatches {mismatches} count "
                 f"over {len(done)} clips")
    stages = " ".join(
        f"{stage}={_median(r.stats[stage] * 1000.0 for r in done):.3f}"
        for stage in tracing.STAGE_SPANS)
    lines.append(f"extra stage_ms_p50 {stages}")
    return metrics


# ============================================================
# Smoke mode
# ============================================================


def smoke() -> int:
    """Every workload at minimum size, both trace settings; every metric present with its unit."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if want[False] != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end names differ from the benchmark's")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for wl in WORKLOADS.values():
        small = replace(wl, points=min(wl.points, 2), fixed_clips=1, frames=None)
        for trace in (False, True):
            # the golden list covers full-size clips only
            result = run_workload(small, seed=0, seconds=0.0, trace=trace,
                                  golden=None, setup_samples=1)
            got = {name: unit for name, (_, unit) in result.metrics.items()}
            tag = f"{wl.name} trace={int(trace)}"
            if not result.correct:
                problems.append(f"{tag}: run is not correct")
            if got != want[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            print(f"smoke {tag}: {len(got)} metrics, correct={result.correct}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


# ============================================================
# Entry point
# ============================================================


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimum size and check the metric names")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite perfbench/golden.json from the current program")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record_golden or args.workload):
        parser.error("one of --workload, --smoke or --record-golden is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    load_program()
    if args.record_golden:
        return record_golden()
    if args.smoke:
        return smoke()

    # One CPU for the run and the cold starts it spawns, so the reference
    # kernel always times the CPU that the timed calls ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), load_golden())
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
