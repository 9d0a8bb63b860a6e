"""List the statements of src/rallyforge that a multi-seed CLI sweep never runs.

Usage (from anywhere; no flags)::

    python tools/line_sweep.py

The sweep runs ``simulate``, ``reconstruct``, ``verify`` and ``metrics
--window match`` and ``--window game`` through ``rallyforge.cli.main`` for
seeds 0-5 x {1, 3, 6} points x {clean, 1 px noise + quantized pixels + 10%
dropout}, 36 clips in all, under ``sys.settrace``. Then it runs
``simulate`` (seed 0, 3 points), ``reconstruct`` and ``verify`` once more,
each with the JSON block of README.md's Configuration section (every key at
its default) as ``--config``, so the config reader counts as run. It then
prints every line of ``src/rallyforge`` that holds code (a line of some
compiled code object) and never ran, as ``path:line: source``, file by
file, and a total.

A line listed here is unreachable from the command line on these inputs; it
may still be reached by the library API or by inputs the sweep does not
make (bad files, other configs), so read each before deleting it.
"""

from __future__ import annotations

import contextlib
import io
import json
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


def readme_config() -> dict:
    """The JSON block of README.md's Configuration section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("```json\n", text.index("## Configuration")) + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


def sweep_commands(tmp: str) -> list:
    """Every CLI argument list the sweep runs, in order, with a label for each.

    Writes the README config into ``tmp`` for the runs that read it.
    """
    runs = []
    for seed in SEEDS:
        for points in POINTS:
            for name, flags in VARIANTS.items():
                stem = os.path.join(tmp, f"{seed}-{points}-{name}")
                clip, truth, scene = stem + "-clip.json", stem + "-truth.json", stem + "-scene.json"
                label = f"seed {seed}, {points} points, {name}"
                runs += [
                    (label, ["simulate", "--seed", str(seed), "--points", str(points),
                             "--out", clip, "--truth", truth, *flags]),
                    (label, ["reconstruct", "--clip", clip, "--out", scene]),
                    (label, ["verify", "--clip", clip, "--truth", truth]),
                    (label, ["metrics", "--scene", scene, "--window", "match"]),
                    (label, ["metrics", "--scene", scene, "--window", "game"]),
                ]
    config = os.path.join(tmp, "readme-config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(readme_config(), f)
    stem = os.path.join(tmp, "readme-config")
    clip, truth, scene = stem + "-clip.json", stem + "-truth.json", stem + "-scene.json"
    label = "seed 0, 3 points, README config"
    runs += [
        (label, ["simulate", "--seed", "0", "--points", "3", "--out", clip, "--truth", truth,
                 "--config", config]),
        (label, ["reconstruct", "--clip", clip, "--out", scene, "--config", config]),
        (label, ["verify", "--clip", clip, "--truth", truth, "--config", config]),
    ]
    return runs


def code_lines(path: Path) -> set:
    """The line numbers that hold code in ``path``, from its compiled code objects."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@contextlib.contextmanager
def tracing(prefix: str):
    """Trace the lines run in files under ``prefix``; yields the lines that ran, by file."""
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
        yield ran
    finally:
        sys.settrace(None)


def traced_sweep() -> dict:
    """Run the sweep under a tracer; the lines that ran, by file."""
    with tracing(str(PACKAGE) + os.sep) as ran:
        from rallyforge.cli import main  # imported under the tracer: module lines count

        with tempfile.TemporaryDirectory() as tmp:
            for label, args in sweep_commands(tmp):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(args)
                if code not in ALLOWED_EXITS.get(args[0], (0,)):
                    print(f"warning: {args[0]} on {label} exited {code}: "
                          f"{err.getvalue().strip()}", file=sys.stderr)
    return ran


def print_missed(ran: dict) -> int:
    """Print each line of ``src/rallyforge`` that holds code and never ran; return their count."""
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - ran.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    return total


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    total = print_missed(traced_sweep())
    print(f"{total} lines never ran over {len(SEEDS) * len(POINTS) * len(VARIANTS) + 1} clips "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
