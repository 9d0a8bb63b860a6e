"""Cold start of rallyforge in a fresh process, for the benchmark's setup_s.

    python3 perfbench/cold_start.py SRC_DIR CLIP_JSON

Imports rallyforge from SRC_DIR, reconstructs the clip once, and prints the
sha256 of the scene document so the caller can check the result.
"""

import hashlib
import sys


def main() -> int:
    src, clip_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from rallyforge import parse_clip, reconstruct_scene, serialize_scene

    with open(clip_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    scene_text = serialize_scene(reconstruct_scene(parse_clip(text)))
    print(hashlib.sha256(scene_text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
