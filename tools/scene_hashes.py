"""Print one hash line per clip of a fixed sweep, to show a change keeps bytes.

Usage (from anywhere; no flags)::

    python tools/scene_hashes.py > hashes.txt

The sweep simulates seeds 0-39 x {1, 3, 6} points x {clean, 1 px noise +
quantized pixels + 10% dropout}, 240 clips in all. Each clip is read back
from its JSON text as ``reconstruct`` reads it, reconstructed with the
default config and compared with its truth as ``verify`` compares it. For
each clip the tool prints its label, the sha256 of the clip and of the truth
documents as the ``simulate`` command writes them
(``json.dumps(doc, indent=2, sort_keys=True) + "\n"``), the sha256 of the
serialized scene and the sha256 of
``json.dumps(round_trip_report(...), sort_keys=True)``.

Run it before and after a change that must not move a byte and diff the two
outputs: the golden hashes cover the benchmark's clips and the scene bytes
only, this covers 240 clips, the simulator's output and their verify reports
as well. The clip and truth hashes see a change to the simulator that the
scene and verify hashes can miss, such as where the truth holds the ball
between points.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = range(40)
POINTS = (1, 3, 6)
VARIANTS = {
    "clean": {},
    "degraded": {"pixel_noise_sigma_px": 1.0, "quantize_pixels": True, "dropout_rate": 0.1},
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _document(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rallyforge import (GroundTruthRally, SimConfig, parse_clip, reconstruct_scene,
                            round_trip_report, serialize_scene, simulate_clip)

    for variant, flags in VARIANTS.items():
        for points in POINTS:
            for seed in SEEDS:
                clip_doc, truth_doc = simulate_clip(SimConfig(seed=seed, points=points, **flags))
                scene = reconstruct_scene(parse_clip(json.dumps(clip_doc)))
                report = round_trip_report(GroundTruthRally.from_dict(truth_doc), scene)
                print(f"seed={seed} points={points} {variant} "
                      f"clip={_sha256(_document(clip_doc))} "
                      f"truth={_sha256(_document(truth_doc))} "
                      f"scene={_sha256(serialize_scene(scene))} "
                      f"verify={_sha256(json.dumps(report, sort_keys=True))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
