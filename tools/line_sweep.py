"""List the statements of src/rallyforge that a multi-seed CLI sweep never runs.

Usage (from anywhere; no flags)::

    python tools/line_sweep.py

The sweep runs ``simulate``, ``reconstruct``, ``verify`` and ``metrics
--window match`` and ``--window game`` through ``rallyforge.cli.main`` for
seeds 0-5 x {1, 3, 6} points x {clean, 1 px noise + quantized pixels + 10%
dropout}, 36 clips in all, under ``sys.settrace``. It then prints every line
of ``src/rallyforge`` that holds code (a line of some compiled code object)
and never ran, as ``path:line: source``, file by file, and a total.

A line listed here is unreachable from the command line on these inputs; it
may still be reached by the library API or by inputs the sweep does not
make (bad files, other configs), so read each before deleting it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rallyforge"

SEEDS = range(6)
POINTS = (1, 3, 6)
VARIANTS = {
    "clean": [],
    "degraded": ["--pixel-noise-sigma-px", "1", "--quantize-pixels", "--dropout-rate", "0.1"],
}

# verify exits 4 when a bound is violated, which degraded clips may do
ALLOWED_EXITS = {"verify": (0, 4)}


def code_lines(path: Path) -> set:
    """The line numbers that hold code in ``path``, from its compiled code objects."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_sweep(prefix: str) -> dict:
    """Run the sweep under a tracer; the lines that ran, by file."""
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        from rallyforge.cli import main  # imported under the tracer: module lines count

        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                for points in POINTS:
                    for name, flags in VARIANTS.items():
                        stem = os.path.join(tmp, f"{seed}-{points}-{name}")
                        clip, truth, scene = stem + "-clip.json", stem + "-truth.json", stem + "-scene.json"
                        commands = [
                            ["simulate", "--seed", str(seed), "--points", str(points),
                             "--out", clip, "--truth", truth, *flags],
                            ["reconstruct", "--clip", clip, "--out", scene],
                            ["verify", "--clip", clip, "--truth", truth],
                            ["metrics", "--scene", scene, "--window", "match"],
                            ["metrics", "--scene", scene, "--window", "game"],
                        ]
                        for args in commands:
                            with contextlib.redirect_stdout(io.StringIO()), \
                                    contextlib.redirect_stderr(io.StringIO()) as err:
                                code = main(args)
                            if code not in ALLOWED_EXITS.get(args[0], (0,)):
                                print(f"warning: {args[0]} on seed {seed}, {points} "
                                      f"points, {name} exited {code}: {err.getvalue().strip()}",
                                      file=sys.stderr)
    finally:
        sys.settrace(None)
    return ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    ran = traced_sweep(str(PACKAGE) + os.sep)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - ran.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} lines never ran over {len(SEEDS) * len(POINTS) * len(VARIANTS)} clips "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
