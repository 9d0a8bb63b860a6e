"""Print where two scene documents differ, and by how much.

Usage::

    python tools/scene_diff.py A.json B.json

Both files are read with ``parse_scene``. For each part of the scene that
differs it prints one line or a few:

- per entity track: the largest and the RMS position difference over the
  samples both tracks hold, and the first sample that differs, or that the
  track is in one scene only;
- for the camera: the keyframe counts, the keyframes added, removed and
  changed (matched by time) with the largest position move among them, and
  each shot whose spec changed, with the spec fields that did;
- the cue counts of each kind whose cues differ;
- each point whose outcome, metrics or other fields differ;
- any other top-level field (court, fps, sample rate, score timeline).

Identical scenes print nothing and exit 0; scenes that differ exit 1, and a
file that cannot be read exits 2.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _xyz(row) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in row) + "]"


def diff_tracks(a, b):
    for entity in sorted(a.tracks.keys() | b.tracks.keys()):
        if entity not in b.tracks or entity not in a.tracks:
            yield f"track {entity}: only in {'A' if entity in a.tracks else 'B'}"
            continue
        ta, tb = a.tracks[entity], b.tracks[entity]
        if (ta.rate_hz, ta.t_start) != (tb.rate_hz, tb.t_start):
            yield (f"track {entity}: clock {ta.rate_hz:g} Hz from {ta.t_start:g} s -> "
                   f"{tb.rate_hz:g} Hz from {tb.t_start:g} s")
        n = min(len(ta.samples), len(tb.samples))
        sa, sb = ta.samples[:n], tb.samples[:n]
        if len(ta.samples) != len(tb.samples):
            yield f"track {entity}: {len(ta.samples)} -> {len(tb.samples)} samples"
        differs = np.flatnonzero((sa != sb).any(axis=1))
        if len(differs):
            dist = np.linalg.norm(sa - sb, axis=1)
            i = int(differs[0])
            yield (f"track {entity}: max {dist.max():.6g} m, rms "
                   f"{np.sqrt(np.mean(dist ** 2)):.6g} m over {n} samples, {len(differs)} "
                   f"differ; first at sample {i} (t={ta.t_start + i / ta.rate_hz:.6g} s): "
                   f"{_xyz(sa[i])} -> {_xyz(sb[i])}")


def _changed_fields(x, y) -> list:
    return [f.name for f in dataclasses.fields(x) if getattr(x, f.name) != getattr(y, f.name)]


def diff_camera(a, b):
    ca, cb = a.camera, b.camera
    ka = {k.t: k for k in ca.keyframes}
    kb = {k.t: k for k in cb.keyframes}
    both = ka.keys() & kb.keys()
    changed = sorted(t for t in both if ka[t] != kb[t])
    added, removed = len(kb.keys() - both), len(ka.keys() - both)
    if added or removed or changed:
        line = (f"camera keyframes: {len(ca.keyframes)} -> {len(cb.keyframes)}, {added} added, "
                f"{removed} removed, {len(changed)} changed")
        if changed:
            moves = [float(np.linalg.norm(np.subtract(ka[t].position.as_xyz(),
                                                      kb[t].position.as_xyz())))
                     for t in changed]
            at = int(np.argmax(moves))
            line += f"; largest move {moves[at]:.6g} m at t={changed[at]:.6g} s"
        yield line
    for name in ("t_start", "t_end", "time_warp"):
        if getattr(ca, name) != getattr(cb, name):
            yield f"camera {name} differs"
    if len(ca.shots) != len(cb.shots):
        yield f"camera shots: {len(ca.shots)} -> {len(cb.shots)}"
    for i, (sa, sb) in enumerate(zip(ca.shots, cb.shots)):
        if sa.spec != sb.spec:
            yield (f"camera shot {i} (point {sa.spec.point_index}, {sa.spec.purpose}): "
                   f"spec changed: {', '.join(_changed_fields(sa.spec, sb.spec))}")


def diff_cues(a, b):
    for kind in sorted({c.kind.value for c in a.cues + b.cues}):
        ca = [c for c in a.cues if c.kind.value == kind]
        cb = [c for c in b.cues if c.kind.value == kind]
        if ca != cb:
            yield f"cues {kind}: {len(ca)} -> {len(cb)}"


def diff_points(a, b):
    if len(a.points) != len(b.points):
        yield f"points: {len(a.points)} -> {len(b.points)}"
    for pa, pb in zip(a.points, b.points):
        if pa != pb:
            yield f"point {pa.index}: {', '.join(_changed_fields(pa, pb))} differ"


def diff_scenes(a, b):
    """Each line of the difference between two parsed scenes; none when they are equal."""
    yield from diff_tracks(a, b)
    yield from diff_camera(a, b)
    yield from diff_cues(a, b)
    yield from diff_points(a, b)
    for name in ("court", "fps", "sample_rate_hz", "score_timeline"):
        if getattr(a, name) != getattr(b, name):
            yield f"{name} differs"


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rallyforge.errors import RallyForgeError
    from rallyforge.scene import parse_scene

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/scene_diff.py A.json B.json", file=sys.stderr)
        return 2
    try:
        a, b = (parse_scene(Path(path).read_text(encoding="utf-8")) for path in args)
    except (OSError, RallyForgeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lines = list(diff_scenes(a, b))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
